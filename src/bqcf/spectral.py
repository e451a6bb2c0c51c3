"""Sparse assembly and coercivity constants via a deflated symmetric pencil.

The coercivity constant gamma = inf <L u, u> / ||Du||^2 over zero-mean u is
the minimum eigenvalue of the pencil (sym(A), G) on the orthogonal
complement of ker(G), where A is the assembled operator (inner-product
weights baked in) and G the Gram matrix of ||Du||^2. <L u, u> = <sym(L) u, u>
identically, so the nonsymmetric force-based operator needs no special
treatment beyond symmetrizing. No matrix declares itself symmetric: every
path computes sym(A) = (A + A^T) / 2, so all solvers see the same one, even
where an energy-based matrix differs from its transpose by rounding.

The zero-mean space belongs to the Gram form: ker(G) is the constant
shifts of its m = ncomp coordinates per site (SparseOp.kernel), and no
other basis can be given. Its one coordinate system pins one site's m
coordinates (the first site's, or in a split pencil the origin's, which
the inversion fixes), x = Pi W z, where sym(A) - sigma G restricts
to its trailing block plus a rank-2m term (_pinned_update). One sparse
factorization of it answers both questions (_Shift): an LDL^T plus a small
capacitance. "Is gamma > tau?" is read off its inertia at sigma = tau
(Sylvester; is_coercive); gamma itself comes from shift-invert Lanczos on
it, with sigma certified below gamma by a count of zero, or just above
it by a count of one (Ericsson and Ruhe's spectral transformation). The
Lanczos (_Lanczos) checks gamma's Ritz pair after every shifted solve and
stops once the stopping test passes; a solve still open after
_RESHIFT_AT shifted solves re-shifts once, next to gamma, certified the
same way (Grimes, Lewis and Simon's inertia-certified shifts). Both build
the factored blocks the same way (_Pinned): values refilled on one
pattern per block, fixed for every sigma. A blended operator is affine in
its weight, so a threshold scan refills those patterns at each blend
(BlendPattern) and assembles nothing per probe; the coordinates that no
blend of its window moves are factored once per shift (_Fixed), and each
probe factors the Schur complement on the rest (_Window), its count added
to theirs (Haynsworth, 1968). On a lattice each probe's complement is one
more sparse factorization; on a chain the window's complements are a band
of half-width 3 in the natural order, and all of them are factored
together, one unpivoted band LDL^T vectorized across the probes
(_BandFactor), with the same certificate. Each quantity a probe reads has
one implementation, which every path calls: sym(A) at a weight
(_refill), the shift sums s = sym(A) k (_shift_sums), a window's staged
complements and border (_Window.stage), and a SuperLU factor's count,
pivot test and rounding products (_certificate). Every value solve takes
the sparse path unless the pencil is translation-invariant (below) or its
caller asks for method "dense": a dense eigh of the same pinned pencil,
the reference the other paths are checked against.

A translation-invariant pencil is answered from its lattice symbol, with
nothing factored (Dobson, Ortner and Shapeev, 2012). gram_D records its
torus on the Gram form (SparseOp.grid); a form built by hand has none.
When sym(A) commutes with the one-site shift along each grid axis, to
1e-13 of its largest entry (_commutator), it is block-circulant, as the
atomistic and qcl chains and the 2D atomistic and Cauchy-Born kinds are,
and gamma is the minimum over wavevectors k != 0 of the smallest
eigenvalue of the Hermitian part of A(k), the transform of sym(A)'s
first m columns, over g(k), G's (_symbol_gamma). The certificate is the
one a Lanczos solve meets: the Bloch mode of the minimizing k, lifted to
a real field with its phase reduced in integers (_bloch_mode), must pass
the residual test on the sparse pencil, or the call raises; there is no
fallback. Where that test is tighter than the mode's rounding (the exact
mode of Chain1D(4096) at phi2F = -0.24 has residual 1.04e-8) the call
raises too. is_coercive still factors these pencils.

A pencil that commutes with the lattice inversion splits into its even
and odd blocks (symmetry-adapted bases; Fassler and Stiefel, 1992).
Symmetry is measured, not declared: the Gram form names the inversion as
its mirror (gram_D in 2D), and _Pinned splits a pencil only when its
operator commutes with it exactly, every entry of S A S^T - A zero, tested
once (_commutator): the toy model and the Morse atomistic operator do;
L-tilde, an asymmetric blend, the Morse blends and Cauchy-Born operator
(whose commutators are rounding) and 1D (whose form names none) do not.
The inversion's fixed coordinates and its coordinate pairs give one
explicit sparse orthonormal basis B per block (_basis), and each block is
the sparse product B^T M B. The inversion keeps each site's components,
so every constant shift is even: the even block holds them (m = 2, or 1 on
a scalar form), pinned as above, and the odd block has no kernel: no
pinning and no capacitance. The off-diagonal blocks of B^T (sym(A) -
sigma G) B are then exactly zero, so the split drops nothing and leaves
every rounding test as it is. Counts add over the blocks, a count is
trusted when each block's is, and the Lanczos runs on their direct sum.
The two blocks fill far less under the fill-reducing ordering than the
whole pencil on the torus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional

import numpy as np
import scipy.linalg
import scipy.linalg.lapack
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import ops1d, ops2d
from .lattice1d import Chain1D, inner
from .lattice2d import NN, TriLattice2D, inner2d

__all__ = [
    "METHODS",
    "BlendPattern",
    "InertiaReport",
    "SparseOp",
    "StabilityReport",
    "assemble",
    "check_assembly",
    "coercivity",
    "gram_D",
    "is_coercive",
]

METHODS = ("iterative", "dense")

# a Lanczos basis restarts after this many vectors, keeping its top Ritz vectors
_BASIS, _KEEP = 50, 20
# a value solve not converged after this many shifted solves re-shifts once
_RESHIFT_AT = 20
# certification tries at the second shift, each halving its step from the first
_HALVINGS = 4
# a value solve's relative residual target, and its cap on shifted solves
_RTOL, _MAXITER = 1e-8, 5000
# the seed's draw in a value solve's given start, relative to its root mean square
_MIX = 1e-4


@dataclass(frozen=True)
class SparseOp:
    """Assembled operator: a square CSR matrix with duplicates summed.

    No symmetry is declared: sym_matrix is computed, and for an exactly
    symmetric matrix it holds the same values. A Gram form sets ncomp, its
    coordinates per site: its nullspace is the constant shifts, whose
    orthonormal basis is kernel, and the zero-mean space of the pencil is
    their orthogonal complement. A Gram form's grid is the shape of its
    torus, sites numbered in its row-major order, ncomp coordinates each
    ((2N,) for a chain, (2N, 2N) in 2D; () for a form with none), along
    whose axes coercivity tests translation invariance. A Gram form's
    mirror is its pencils' candidate symmetry, a coordinate permutation x
    -> x[mirror] (None for none): it must be an involution, keep each
    site's components, and commute with the form exactly (_commutator),
    all checked once, on the first read of defect, else ValueError;
    _Pinned measures whether each operator commutes with it. A mirror or a
    grid without ncomp, or a grid that does not hold dim coordinates,
    raises ValueError at construction.
    """

    matrix: sp.csr_matrix = field(repr=False)
    ncomp: Optional[int] = None
    mirror: Optional[np.ndarray] = field(default=None, repr=False)
    grid: tuple = ()

    def __post_init__(self) -> None:
        self.matrix.sum_duplicates()
        if self.ncomp is None and (self.mirror is not None or self.grid):
            raise ValueError("only a Gram form (ncomp set) carries a mirror or a grid")
        if self.ncomp is not None and self.dim % self.ncomp:
            raise ValueError(f"dimension {self.dim} is not a multiple of ncomp {self.ncomp}")
        if self.grid and self.ncomp * int(np.prod(self.grid)) != self.dim:
            raise ValueError(f"grid {self.grid} does not hold the form's {self.dim} coordinates")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def kernel(self) -> Optional[np.ndarray]:
        """The constant shifts, one orthonormal unit block per site; None without ncomp."""
        if self.ncomp is None:
            return None
        nsites = self.dim // self.ncomp
        return np.kron(np.ones((nsites, 1)), np.eye(self.ncomp)) / np.sqrt(nsites)

    @cached_property
    def defect(self) -> None:
        """None once the mirror is checked, on this first read, which raises
        ValueError for a bad one (only _Pinned reads it)."""
        perm, n = self.mirror, self.dim
        if not (np.shape(perm) == (n,) and np.array_equal(perm[perm], np.arange(n))):
            raise ValueError("mirror is not an involution of the pencil's coordinates")
        sites = perm.reshape(-1, self.ncomp)
        if (sites[:, 0] % self.ncomp).any() or \
                not np.array_equal(sites, sites[:, :1] + np.arange(self.ncomp)):
            raise ValueError("mirror does not keep each site's components")
        if not _commutator(self.matrix, perm, 0.0):
            raise ValueError("the Gram form does not commute with its mirror")

    @cached_property
    def sym_matrix(self) -> sp.csr_matrix:
        """(A + A^T) / 2; _Pinned forms the same values on its pattern."""
        m = self.matrix
        return ((m + m.T) * 0.5).tocsr()


@dataclass(frozen=True)
class StabilityReport:
    """Result of a pencil solve: gamma and its certified minimizer. On the
    iterative path, iterations counts the shifted solves, factorizations
    the shift trials (the search for a certified shift and the re-shift),
    each of which factors every block of the pencil, shift is the last
    certified shift, the one the solve ended at: a trusted count puts no
    eigenvalue below it, or exactly one, gamma, which lies below it. nnz
    is its factors' nonzeros, summed over the blocks. The symbol path
    (method "symbol") and the dense one factor nothing: 0, 0, nan."""

    gamma: float
    minimizer: np.ndarray = field(repr=False)
    method: str
    residual: float
    iterations: int
    shift: float = float("nan")
    factorizations: int = 0
    nnz: int = 0


@dataclass(frozen=True)
class InertiaReport:
    """Answer to the sign question gamma > tau, with the evidence behind it.

    negative counts the negative eigenvalues of sym(A) - tau G on the
    zero-mean space, read off the pivots and the capacitance of _Shift and
    summed over the pencil's blocks;
    min_pivot is the pivot or capacitance eigenvalue magnitude that came
    closest to its rounding bound, and margin is that bound. method
    is "inertia" when the signs decided and the value path ("dense" or
    "iterative") when they could not; negative is -1, _Shift's untrusted
    count, when the factorization yields no inertia. No eigenvalue is reported.
    """

    coercive: bool
    negative: int
    min_pivot: float
    margin: float
    method: str

    @property
    def fallback(self) -> bool:
        return self.method != "inertia"


def assemble(op) -> SparseOp:
    """Assemble any operator kind to a SparseOp with weights baked in.

    u^T A u equals the weighted quadratic form <apply(op, u), u> in plain
    Euclidean arithmetic. Entries that the stencil's sums leave zero are
    not stored; BlendPattern keeps an entry that is zero at one weight and
    not at another.
    """
    A = _stencil(op)
    A.eliminate_zeros()
    return SparseOp(A)


def _stencil(op) -> sp.csr_matrix:
    """CSR matrix of op's stencil triplets, duplicates summed."""
    if isinstance(op, ops1d.Op1D):
        dim, rows, cols, vals = ops1d.assemble_triplets(op)
    elif isinstance(op, ops2d.Op2D):
        dim, rows, cols, vals = ops2d.assemble_triplets(op)
    else:
        raise TypeError(f"cannot assemble {type(op).__name__}")
    return sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim))


def check_assembly(op, sop: SparseOp) -> float:
    """Max relative defect of u^T A u against the weighted form, 20 random u."""
    rng = np.random.default_rng(0)
    worst = 0.0
    A = sop.matrix
    for _ in range(20):
        x = rng.standard_normal(sop.dim)
        if isinstance(op, ops1d.Op1D):
            ref = inner(op.chain, ops1d.apply_op(op, x), x)
        else:
            n = 2 * op.lattice.N
            u = x.reshape(n, n, 2)
            ref = inner2d(op.lattice, ops2d.apply2d(op, u), u)
        got = float(x @ (A @ x))
        worst = max(worst, abs(got - ref) / (abs(ref) + 1.0))
    return worst


def gram_D(domain, *, scalar: bool = False) -> SparseOp:
    """Gram matrix of ||Du||^2 (symmetric PSD), with its coordinates per
    site and its torus (SparseOp.grid): its kernel is the constant shifts
    (SparseOp.kernel).

    It is the nearest-neighbor stencil with unit stiffness: the 1D circulant
    (2, -1, -1) / eps, and in 2D the nearest bond shell with identity
    Hessians (the eps^2 weight and the 1/eps^2 of the quotients cancel).
    Identity Hessians couple no two components, so the 2D form is one
    scalar nearest-neighbor Laplacian on each; scalar=True builds that
    form alone, on the (2N)^2 sites, with the same stencil builder and no
    mirror (poincare_discrete inverts it by its Fourier symbol). The 2D
    mirror is the lattice inversion (_Pinned); the chain's form has none,
    since the chain's split is slower at the sizes that run. A chain's
    form is scalar whatever scalar says.
    """
    if isinstance(domain, Chain1D):
        n = domain.nsites
        rows, cols, vals = ops1d._term_triplets(n, 1, 1.0)
        return SparseOp(sp.csr_matrix((vals / domain.eps, (rows, cols)), shape=(n, n)),
                        ncomp=1, grid=(n,))
    if isinstance(domain, TriLattice2D):
        m = 1 if scalar else 2
        dim = m * domain.nsites
        rows, cols, vals = ops2d._block_triplets(
            domain, ops2d._blocks_shell(NN, (np.eye(m),) * 3, 1.0))
        G = sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim))
        grid = (2 * domain.N,) * 2
        if scalar:
            return SparseOp(G, ncomp=1, grid=grid)
        return SparseOp(G, ncomp=2, grid=grid, mirror=domain.inversion(2))
    raise TypeError(f"no Gram form for {type(domain).__name__}")


def _project_out(kernel: np.ndarray, v: np.ndarray) -> np.ndarray:
    return v - kernel @ (kernel.T @ v)


def _pinned_update(s: np.ndarray, kernel: np.ndarray):
    """U = [k_p, s_p] and k^T s, for s = sym(A) k: with the first m
    coordinates pinned, x = Pi W z and W^T Pi (sym A - sigma G) Pi W =
    (sym A - sigma G)[m:, m:] + U C U^T, C = [[k^T s, -I], [-I, 0]]."""
    m = kernel.shape[1]
    return np.hstack([kernel[m:], s[m:]]), kernel.T @ s


def _eigvalsh(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a stack of symmetric m x m matrices, from
    their lower triangles as np.linalg.eigvalsh reads them: the entries
    themselves for m = 1, where the call costs more than the answer."""
    return a[..., 0] if a.shape[-1] == 1 else np.linalg.eigvalsh(a)


def _border(kts: np.ndarray) -> np.ndarray:
    """-C^-1 = [[0, I], [I, k^T s]] for _pinned_update's C."""
    m = kts.shape[0]
    Q = np.zeros((2 * m, 2 * m))
    Q[m:, m:] = kts
    i = np.arange(m)
    Q[i, i + m] = Q[i + m, i] = 1.0
    return Q


def _dense_gamma(Asym: sp.csr_matrix, G: SparseOp):
    """Dense eigh of the pinned pencil (S, G[m:, m:]) at sigma = 0, lifted.

    k^T s is symmetric, so U C U^T = k_p P^T + P k_p^T with P = k_p (k^T s)
    / 2 - s_p: m rank-2 updates of the upper triangle, in place."""
    m, kernel = G.ncomp, G.kernel
    U, kts = _pinned_update(Asym @ kernel, kernel)
    kp = U[:, :m]
    P = 0.5 * (kp @ kts) - U[:, m:]
    S = Asym[m:, m:].toarray(order="F")
    for j in range(m):
        S = scipy.linalg.blas.dsyr2(1.0, kp[:, j], P[:, j], lower=0, a=S, overwrite_a=1)
    # LAPACK's upper-triangle reduction runs faster here than the lower one
    w, y = scipy.linalg.eigh(S, G.matrix[m:, m:].toarray(order="F"), lower=False,
                             subset_by_index=[0, 0], driver="gvx",
                             overwrite_a=True, overwrite_b=True)
    return float(w[0]), _lift(kernel, y[:, 0])


def _commutator(M: sp.csr_matrix, perm: np.ndarray, rtol: float) -> bool:
    """Whether M commutes with the permutation S x = x[perm]: every entry of
    D = S M S^T - M within rtol of max|M| (False for a NaN); rtol 0 asks
    for exact commutation."""
    n = perm.size
    S = sp.csr_matrix((np.ones(n), perm, np.arange(n + 1)), shape=(n, n))
    D = S @ M @ S.T - M
    return bool(np.abs(D.data).max(initial=0.0) <= rtol * np.abs(M.data).max(initial=0.0))


def _basis(perm: Optional[np.ndarray], kernel: np.ndarray) -> list:
    """(B, kernel, first) of each block of a pencil that commutes with the
    involution x -> x[perm]: the even block, then the odd one when perm
    moves a coordinate; with perm None, the one block B = I, given as None,
    so that no product forms it. The B together are an orthogonal basis.

    The even block has a column e_r for each coordinate r that perm fixes
    and (e_r + e_perm[r]) / sqrt(2) for each pair r < perm[r]; the odd
    block (e_r - e_perm[r]) / sqrt(2) for each pair. The fixed coordinates
    come first, then the pairs, each in order of r, the column's
    representative; first is each column's representative. perm keeps
    each site's components (SparseOp.defect), so every constant shift is
    even, and the even block holds them as kernel = B^T k; its first m
    coordinates are one site's (the lattice inversion's first fixed site
    is the origin), so they fix the shifts, and the block pins them. The
    odd block gets kernel None.
    """
    n = kernel.shape[0]
    if perm is None:
        return [(None, kernel, np.arange(n))]
    r = np.arange(n)
    fixed, pairs = np.flatnonzero(perm == r), np.flatnonzero(perm > r)
    nf, npairs = fixed.size, pairs.size
    half = np.full(npairs, 1.0 / np.sqrt(2.0))
    cols = np.arange(npairs)
    even = sp.csr_matrix((np.concatenate([np.ones(nf), half, half]),
                          (np.concatenate([fixed, pairs, perm[pairs]]),
                           np.concatenate([np.arange(nf), nf + cols, nf + cols]))),
                         shape=(n, nf + npairs))
    blocks = [(even, even.T @ kernel, np.concatenate([fixed, pairs]))]
    if npairs:
        odd = sp.csr_matrix((np.concatenate([half, -half]),
                             (np.concatenate([pairs, perm[pairs]]), np.concatenate([cols, cols]))),
                            shape=(n, npairs))
        blocks.append((odd, None, pairs))
    return blocks


def _refill(a: list, w: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """sym(A) at the weight w on a pattern's entries, from their (a, a^T,
    slope, slope^T) (_Block) and their rows' and columns' indices into w:
    ((w_col slope^T + a^T) + (w_row slope + a)) / 2, summed in this order
    on every path, so that every path holds the same values."""
    a, at, s, st = a
    x = w[cols]                                     # the transpose's values
    x *= st
    x += at
    y = w[rows]
    y *= s
    y += a
    x += y
    x *= 0.5
    return x


def _shift_sums(x: np.ndarray, rows: np.ndarray, k_at: np.ndarray, n: int) -> np.ndarray:
    """s = sym(A) k on n rows, for each row of the stack x (probes x
    entries, one refill each) and each constant shift k given at each entry
    (k_at, m x entries): (probes, n, m), contiguous, so that every product
    with it takes the same path however many probes there are. One
    bincount sums every probe and shift, each sum in entry order."""
    P, m = x.shape[0], k_at.shape[0]
    bins = (np.arange(P * m)[:, None] * n + rows).ravel()
    s = np.bincount(bins, weights=(x[:, None, :] * k_at).ravel(), minlength=P * m * n)
    return np.ascontiguousarray(s.reshape(P, m, n).transpose(0, 2, 1))


class _Block:
    """One diagonal block B^T (sym(A) - sigma G) B of the pencil, on one
    sparsity pattern P for every sigma and every blend weight, in pinned
    coordinates when it holds constant shifts (kernel).

    values holds the block's B^T M B on P: (g, sym(A)) for a fixed
    operator, and (g, a, a^T, slope, slope^T) for a pattern, with M = A_0
    for a and A_1 - A_0 for slope. A weight w that maps to itself under
    the mirror is one number per block coordinate, w at its representative
    (first), and the block of A_0 + diag(w) (A_1 - A_0) is a + diag(w)
    slope.
    block(w, sigma) refills sym(A) at w (_refill), sums sym(A) - sigma G
    on the pattern, forms the rank-2m update from s = sym(A) k
    (_shift_sums), and keeps the block past its m pinned rows and columns,
    less its exact zeros off G's pattern: the nonzero set of sym(A) summed
    with G's pattern, so that SuperLU orders and fills it as it would the
    summed matrices, whatever sigma. A block without a kernel pins
    nothing. A probe is O(nnz) array work and one sparse matrix, the
    block. Unsplit, the block is the whole pencil.
    """

    def __init__(self, P: sp.csr_matrix, values: list, kernel, first: np.ndarray):
        self.m = m = 0 if kernel is None else kernel.shape[1]
        nb = first.size
        row = np.repeat(np.arange(nb, dtype=np.int32), np.diff(P.indptr))
        self.row, self.col = row, P.indices.astype(np.int32)
        g, *self.a = values
        self.kernel, self.first, self.dim = kernel, first, nb - m
        if kernel is not None:
            # each constant shift at each entry's column
            self.k_at = kernel[self.col].T.copy()
            # pinned coordinates z = x[m:] - ratio x[:m], x = Pi W z
            self.ratio = np.linalg.solve(kernel[:m].T, kernel[m:].T).T
        # the entries past the pinned rows and columns, row by row
        self.inner = np.flatnonzero((row >= m) & (self.col >= m))
        self.cols = self.col[self.inner] - m
        self.indptr = np.searchsorted(row[self.inner], np.arange(m, nb + 1))
        self.g = g[self.inner]
        self.on_g = self.g != 0.0

    def block(self, w, sigma: float):
        """(M_pp, U, -C^-1) of _Factor at the weight w (None off a pattern);
        U and -C^-1 are None without a kernel."""
        if w is None:
            x, = self.a
        else:
            x = _refill(self.a, w[self.first], self.row, self.col)
        U = Q = None
        if self.kernel is not None:
            sk, = _shift_sums(x[None], self.row, self.k_at, self.first.size)
            U, kts = _pinned_update(sk, self.kernel)
            Q = _border(kts)
        x = x[self.inner]
        keep = np.flatnonzero((x != 0.0) | self.on_g)
        values = x[keep]
        values -= sigma * self.g[keep]
        # int32 like the columns, so that scipy casts neither
        indptr = np.searchsorted(keep, self.indptr).astype(np.int32)
        # sym(A) - sigma G is symmetric: its CSR arrays are its CSC arrays
        return (sp.csc_matrix((values, self.cols[keep], indptr), shape=(self.dim,) * 2),
                U, Q)

    def gram(self) -> sp.csr_matrix:
        """G_pp of the block, on G's pattern."""
        keep = np.flatnonzero(self.on_g)
        return sp.csr_matrix((self.g[keep], self.cols[keep], np.searchsorted(keep, self.indptr)),
                             shape=(self.dim,) * 2)

    def restrict(self, xb: np.ndarray) -> np.ndarray:
        """The pinned coordinates of a zero-mean xb = B^T x: lift's inverse."""
        if self.kernel is None:
            return xb
        m = self.kernel.shape[1]
        return xb[m:] - self.ratio @ xb[:m]

    def lift(self, z: np.ndarray) -> np.ndarray:
        """Pi W z, in the block's coordinates."""
        return z if self.kernel is None else _lift(self.kernel, z)


class _Pinned:
    """sym(A) - sigma G on the zero-mean space, as the diagonal blocks of
    B^T (sym(A) - sigma G) B, B = [B_even, B_odd] the basis of G's mirror
    (_basis) when the pencil commutes with it, else the one block B = I.
    Each block is B^T M B by sparse products, for M = A, G and, for a
    pattern, slope (_Block). The blocks' pinned coordinates, concatenated,
    are the pencil's: gram, restrict and lift act on their direct sum.

    The mirror (checked by SparseOp, G commuting with it exactly) splits
    the pencil when it commutes with A exactly (_commutator). For a pattern
    (BlendPattern), A is A_0, slope is A_1 - A_0, and it splits when A_0 +
    i slope commutes with the mirror exactly and every weight of its
    window, one number per coordinate, maps to itself under it (invariant).
    B is orthogonal, so the off-diagonal blocks of B^T M B, B^T (M - S M
    S^T) B / 2 with S the mirror, are then exactly zero, at every sigma and
    every such weight: the blocks are the pencil. G must be symmetric.
    """

    def __init__(self, A: sp.csr_matrix, G: SparseOp, slope: Optional[sp.csr_matrix] = None,
                 invariant: bool = True):
        # the matrix the mirror is tested on: A, or A_0 + i slope
        X = A if slope is None else A + 1j * slope
        # the mirror when the pencil splits by it
        self.perm = None
        if G.mirror is not None:
            G.defect                                # checks the mirror, once
            if invariant and _commutator(X, G.mirror, 0.0):
                self.perm = G.mirror
        if slope is None:
            # one complex product per block carries A and G, and keeps every
            # entry where either is nonzero
            X = A + 1j * G.matrix
        self.blocks, bases = [], _basis(self.perm, G.kernel)
        for B, kb, first in bases:
            # the one block B = I takes the matrices themselves
            Bt = None if B is None else B.T.tocsr()
            P = X if B is None else Bt @ X @ B
            if slope is None:
                # (a + a^T) + i (g + g^T): the entries that sym(A) - sigma G
                # keeps at any sigma
                P = P + P.T
                values = [0.5 * P.data.imag, 0.5 * P.data.real]
            else:
                # g, a + i slope and its transpose, each read on their union
                parts = [G.matrix if B is None else Bt @ G.matrix @ B, P, P.T.tocsr()]
                P = abs(parts[0]) + abs(parts[1]) + abs(parts[2])
                at = np.repeat(np.arange(P.shape[0]), np.diff(P.indptr)), P.indices
                g, x, xt = (np.asarray(M[at]).ravel() for M in parts)
                values = [g, x.real, xt.real, x.imag, xt.imag]
            self.blocks.append(_Block(P, values, kb, first))
        self.B = None if self.perm is None else sp.hstack([B for B, _, _ in bases], format="csr")
        # each block's columns of B, and its pinned coordinates in the direct sum
        ends = np.cumsum([b.first.size for b in self.blocks])
        self.spans = [slice(e - b.first.size, e) for b, e in zip(self.blocks, ends)]
        ends = np.cumsum([b.dim for b in self.blocks])
        self.slices = [slice(e - b.dim, e) for b, e in zip(self.blocks, ends)]

    def check(self, w: Optional[np.ndarray]) -> None:
        """Raise ValueError for a weight that a split pencil's mirror does
        not map to itself: its blocks read it at their representatives.
        None, a fixed operator's, passes."""
        if w is not None and self.perm is not None and not np.array_equal(w[self.perm], w):
            raise ValueError("the operator's values do not commute with the Gram form's "
                             "mirror, the inversion")

    def gram(self) -> sp.csr_matrix:
        """G on the direct sum of the blocks, G_pp, in pinned coordinates."""
        return sp.block_diag([b.gram() for b in self.blocks], format="csr")

    def restrict(self, x: np.ndarray) -> np.ndarray:
        """The pinned coordinates of a zero-mean x, block by block: lift's inverse."""
        xb = x if self.B is None else self.B.T @ x
        return np.concatenate([b.restrict(xb[span]) for b, span in zip(self.blocks, self.spans)])

    def lift(self, z: np.ndarray) -> np.ndarray:
        """x = B y, y the blocks' Pi W z_b."""
        y = np.concatenate([b.lift(z[part]) for b, part in zip(self.blocks, self.slices)])
        return y if self.B is None else self.B @ y


def _moving(block: _Block, moves: np.ndarray) -> np.ndarray:
    """Which of block's coordinates a window moves (_Window's V), given
    moves, whether the window's weights differ at each coordinate: both
    endpoints of every stored slope entry whose row's weight moves, less
    the m pinned coordinates. The block's pattern is symmetric, so this
    holds the transpose's entries too."""
    s = block.a[2]
    moving = (s != 0.0) & moves[block.first][block.row]
    in_v = np.zeros(block.first.size, dtype=bool)
    in_v[block.row[moving]] = in_v[block.col[moving]] = True
    in_v[:block.m] = False
    return in_v


class _Window:
    """One block of a pattern split by its window: the coordinates the
    window moves (V, _moving) and the rest (F), and the bordered matrix
    that eliminating F leaves at a stack of weights (stage).

    sym(A) is affine in the weight entry by entry, so no entry with an
    endpoint in F, and no row of s = sym(A) k in F, moves across the
    window: M_FF, M_F,V and U_F are the block's at the window's first
    weight w0, at every weight equal to w0 on held, the rows of the slope
    entries with an endpoint in F. dV is the coordinates of V that an entry
    nonzero in sym(A) at w0 or in G couples to F; M_F,V is zero off them
    at every sigma.

    refill(w) refills sym(A) at w (_refill) on the entries of V's rows and
    of the pinned ones, O(|V|) work; a weight that differs from w0 on held
    raises ValueError. stage(fixed, x, sigma) takes a stack of refills and,
    with fixed's C = [M_F,dV, U_F]^T M_FF^-1 [M_F,dV, U_F] (_Fixed), forms
    for each the bordered matrix that eliminating F leaves of [[M_pp, U],
    [U^T, -C^-1]]:
    - the Schur complement M_VV - M_V,F M_FF^-1 M_F,V, M_VV less C's dV
      block, on one key pattern, V's entries of the block and the joined
      dV pairs (cols and indptr, row by row);
    - U_V - M_V,F M_FF^-1 U_F;
    - -C^-1 - U_F^T M_FF^-1 U_F, its k^T s summed from F's rows at w0 and
      from V's and the pinned rows at w (_shift_sums).
    These are (M_pp, U, -C^-1) of _Factor, so the inertia adds:
    Haynsworth's formula over F, then over V and the capacitance. SuperLU
    factors one probe's as a sparse matrix (_Fixed.block), less the exact
    zeros of M_VV off G's pattern, as _Block keeps them (always holds the
    keys kept at any value); a chain's band factor (_BandFactor) places a
    stack's in its band.

    C's dV block is exactly zero between two dV coordinates that no
    connected part of F's entries joins (M_FF is block-diagonal over the
    parts), so the pattern keeps the joined pairs alone (joined, indices
    into the flattened dV x dV; _Fixed checks the rest is zero). width is
    the pattern's half-bandwidth in V's natural order, 3 for the 1D scan
    window K = 6..64 at N = 128..1024, whose V is two runs of sites that
    C_VV joins; banded (a chain's window) sets place, each key's place in
    a band's rows, flattened (row i holds S[i, i + o] at width + o), else
    place is None.
    """

    def __init__(self, block: _Block, in_v: np.ndarray, w0: np.ndarray, banded: bool):
        m, first, row, col = block.m, block.first, block.row, block.col
        nb = first.size
        in_f = ~in_v
        in_f[:m] = False
        self.V, self.F = np.flatnonzero(in_v), np.flatnonzero(in_f)
        x0 = _refill(block.a, w0[first], row, col)
        inner = block.inner
        couples = in_v[row[inner]] & in_f[col[inner]] & ((x0[inner] != 0.0) | block.on_g)
        self.dV = np.unique(row[inner][couples])
        s = block.a[2]
        self.held = np.unique(first[row[(in_f[row] | in_f[col]) & (s != 0.0)]])
        self.w_held = w0[self.held]
        # the entries of V's rows and of the pinned rows, in block order
        live = np.flatnonzero(in_v[row] | (row < m))
        nv = self.V.size
        loc = np.zeros(nb, dtype=np.intp)
        loc[self.V] = np.arange(nv)
        loc[:m] = nv + np.arange(m)
        self.row, self.nlive = loc[row[live]], nv + m
        self.w_row, self.w_col = first[row[live]], first[col[live]]
        self.a = [v[live] for v in block.a]
        self.kernel = block.kernel
        if block.kernel is not None:
            k = block.kernel
            self.k_at, self.k_v = block.k_at[:, live], k[self.V]
            self.k_live = k[np.concatenate([self.V, np.arange(m)])]
            sk, = _shift_sums(x0[None], row, block.k_at, nb)
            self.kts_f = k[self.F].T @ sk[self.F]
        # the connected parts of F's entries nonzero in sym(A) at w0 or in
        # G (a chain's pinned coordinate cuts its outer run of F in two),
        # and the dV pairs that touch one part
        ff = in_f[row[inner]] & in_f[col[inner]] & ((x0[inner] != 0.0) | block.on_g)
        part = _components(nb, row[inner][ff], col[inner][ff])
        touch = np.zeros((self.dV.size, nb), dtype=bool)
        touch[np.searchsorted(self.dV, row[inner][couples]), part[col[inner][couples]]] = True
        touch = touch[:, touch.any(axis=0)].astype(float)
        self.joined = np.flatnonzero(touch @ touch.T)
        # the pattern: V x V entries of the block, and the joined dV pairs
        self.vv = np.flatnonzero(in_v[row[live]] & in_v[col[live]])
        entries = live[self.vv]
        self.g = block.g[np.searchsorted(inner, entries)]
        self.dloc = loc[self.dV]
        kv = loc[row[entries]] * nv + loc[col[entries]]
        kd = (self.dloc[:, None] * nv + self.dloc).ravel()[self.joined]
        keys = np.union1d(kv, kd)
        self.at_vv, self.at_dd = np.searchsorted(keys, kv), np.searchsorted(keys, kd)
        self.always = np.zeros(keys.size, dtype=bool)
        self.always[self.at_vv[self.g != 0.0]] = self.always[self.at_dd] = True
        rows, self.cols = keys // nv, (keys % nv).astype(np.int32)
        self.indptr = np.searchsorted(rows, np.arange(nv + 1))
        self.width = b = int(np.abs(rows - self.cols).max(initial=0))
        self.place = rows * (2 * b + 1) + b + self.cols - rows if banded else None

    def refill(self, w: np.ndarray) -> np.ndarray:
        """sym(A) on the entries of V's rows and of the pinned ones at the
        weight w (_refill)."""
        if not np.array_equal(w[self.held], self.w_held):
            raise ValueError("the operator's weight differs from its pattern's window "
                             "where the window holds it fixed")
        return _refill(self.a, w, self.w_row, self.w_col)

    def stage(self, fixed: "_Fixed", x: np.ndarray, sigma: float):
        """(S, U, -C^-1) for each row of the refill stack x, probes first:
        S the Schur complements' values on the key pattern, (probes, keys),
        and the border they keep; U and -C^-1 are None without a kernel."""
        P = x.shape[0]
        values = x[:, self.vv]
        values -= sigma * self.g
        S = np.zeros((P, self.cols.size))
        S[:, self.at_vv] = values
        S[:, self.at_dd] -= fixed.C_dd
        if self.kernel is None:
            return S, None, None
        m = self.k_at.shape[0]
        sk = _shift_sums(x, self.row, self.k_at, self.nlive)
        U = np.repeat(fixed.U[None], P, axis=0)
        U[:, :, m:] += sk[:, :self.V.size]
        Q = np.repeat(fixed.Q[None], P, axis=0)
        Q[:, m:, m:] += self.k_live.T @ sk
        return S, U, Q


# the columns of [M_F,dV, U_F] that _Fixed solves for at once: on 2 cores
# SuperLU's solve with 16 right-hand sides measured up to 19 times slower
# per column than with 8 (toy N = 24, 81 columns: 80 against 4.2 ms), the
# OpenBLAS threads of its dense kernels; 8 is at or near the fastest width
# from N = 12 to 48
_COLUMNS = 8


class _Fixed:
    """The fixed part F of one block of a pattern's window (_Window) at one
    sigma, factored once, before the window's first probe at sigma.

    M_FF = (sym A - sigma G)_FF, the block's at the window's first weight,
    is factored by _ldlt, and _certificate reads its count, its pivot test
    and R_F 1 off the factor, as _Factor's. With W =
    [M_F,dV, U_F], Y = M_FF^-1 W is solved _COLUMNS columns at a time, one
    solve per column, and held while C = W^T Y and the Gram matrix Y^T Y are
    formed (|F| x 81 doubles, 5.6 MB, at toy N = 48). Of the factor only
    this is kept: C, symmetrized, as its dV block on the window's joined
    pairs C_dd (the rest must be exactly zero, else ValueError) and the
    border that each probe completes (_Window.stage), U = [k_V, 0] - C_VU
    and Q = [[0, I], [I, k_F^T s_F]] - C_UU; gram = Y^T Y and dd, the
    2-norm of its dV block; rounding = gamma_3w ||R_F||, with
    ||R_F||_2 <= max_i (|L| |U| 1)_i (R_F = |L||D||L^T| is symmetric); its
    nonzeros; neg(D_F); and the pivot test, (smallest |pivot|, its bound).
    Then the factor is freed, with the copies of L and U that scipy caches
    on it.

    gram bounds, to first order, what F's rounding does to a probe
    (_Factor): eliminating F is exact for M_FF + E, ||E|| <= rounding, so
    a vector z of the bordered matrix's coordinates dV and U moves by (Y
    z)^T E (Y z), at most rounding z^T gram z, the cancellation between
    Y's columns kept.
    """

    def __init__(self, block: _Block, window: _Window, w0: np.ndarray, sigma: float):
        self.window, self.dim = window, window.F.size
        M_pp, U, _ = block.block(w0, sigma)
        F, dV = window.F - block.m, window.dV - block.m
        rows = M_pp.T[F]                            # M_pp is symmetric: its CSR form
        Wd = rows[:, dV]                            # M_F,dV
        UF = np.zeros((F.size, 0)) if U is None else U[F]
        lu = _ldlt(rows[:, F].T)
        del M_pp, rows, U
        self.nnz = int(lu.nnz)
        self.negative, self.pivot, R1, unit = _certificate(lu, np.ones(F.size))
        unit *= 3
        self.rounding = unit / (1 - unit) * R1.max()
        nd = dV.size
        c = nd + UF.shape[1]
        Y = np.empty((F.size, c))
        for j in range(0, c, _COLUMNS):
            J = slice(j, min(j + _COLUMNS, c))
            Y[:, J] = lu.solve(np.hstack([Wd[:, J.start:min(J.stop, nd)].toarray(),
                                          UF[:, max(J.start - nd, 0):max(J.stop - nd, 0)]]))
        del lu
        C = np.vstack([Wd.T @ Y, UF.T @ Y])
        gram = Y.T @ Y
        del Y
        C = 0.5 * (C + C.T)
        C_VV = C[:nd, :nd].ravel()
        if np.delete(C_VV, window.joined).any():
            raise ValueError("C's dV block is not zero off the joined pairs")
        self.C_dd, self.gram = C_VV[window.joined], gram
        if window.kernel is not None:
            # U_V less C_VU, and -C^-1 less C_UU, each at s = 0 on V's rows
            self.U = np.hstack([window.k_v, np.zeros_like(window.k_v)])
            self.U[window.dloc] -= C[:nd, nd:]
            self.Q = _border(window.kts_f) - C[nd:, nd:]
        self.dd = float(np.linalg.eigvalsh(gram[:nd, :nd])[-1]) if nd else 0.0

    def block(self, w: np.ndarray, sigma: float):
        """(M_pp, U, -C^-1) of _Factor at the weight w: the window's stage
        of the one refill (_Window.stage), its Schur complement on V as a
        sparse matrix; U and -C^-1 are None without a kernel."""
        window = self.window
        (S,), U, Q = window.stage(self, window.refill(w)[None], sigma)
        keep = np.flatnonzero((S != 0.0) | window.always)
        # int32 like the columns, so that scipy casts neither
        indptr = np.searchsorted(keep, window.indptr).astype(np.int32)
        S = sp.csc_matrix((S[keep], window.cols[keep], indptr), shape=(window.V.size,) * 2)
        return (S, None, None) if U is None else (S, U[0], Q[0])


def _capacitance(Q: np.ndarray, U: np.ndarray, XU: np.ndarray):
    """(capacitance, T, Y) of _Shift from -C^-1 (Q), U and X U, X = M_pp^-1,
    over any leading axes of a stack: Q - U^T X U, symmetrized, as T^T (Q -
    U^T X U) T = diag(Q11, Z), the capacitance the stack [Q11, Z], and Y =
    X U T. A singular Q11 makes a non-finite capacitance for m = 1, and
    raises LinAlgError otherwise."""
    m = Q.shape[-1] // 2
    Q = Q - np.swapaxes(U, -1, -2) @ XU
    Q = 0.5 * (Q + np.swapaxes(Q, -1, -2))
    Q11 = Q[..., :m, :m]
    F = Q[..., :m, m:] / Q11 if m == 1 else np.linalg.solve(Q11, Q[..., :m, m:])
    T = np.zeros(Q.shape)
    T[...] = np.eye(2 * m)
    T[..., :m, m:] = -F
    return np.stack([Q11, Q[..., m:, m:] - Q[..., m:, :m] @ F], axis=-3), T, XU @ T


def _pivot_test(ad: np.ndarray, r_max, unit: float, fixed: Optional["_Fixed"]) -> tuple:
    """(smallest |pivot|, its bound) of _Shift, over the last axis of ad:
    gamma_w max_k R_kk (r_max, unit = w u), and behind a fixed part its
    rounding bound times ||gram_dV||."""
    bound = unit / (1 - unit) * r_max
    if fixed is not None:
        bound += fixed.rounding * fixed.dd
    return ad.min(axis=-1), bound


def _certificate(lu, X: Optional[np.ndarray], fixed: Optional["_Fixed"] = None) -> tuple:
    """(neg(D), pivot test, R X, w u) of an LDL^T by _ldlt, for X in the
    factor's order (None for no product): the pivot test _pivot_test's,
    behind fixed when given, R X = |L| (|U| X), R = |L||D||L^T|, and w the
    longest row of L. With U = D L^T, D is U's diagonal and R_kk = sum_i
    l_ki^2 |d_i|: compiled products with the copies of L and U that lu.U
    makes and scipy caches on lu, overwritten in place, so that no
    temporary is the factor's size; nothing reads them as L and U after
    this."""
    Lf, Uf = lu.L, lu.U
    d = Uf.diagonal()
    ad = np.abs(d)
    np.abs(Lf.data, out=Lf.data)
    np.abs(Uf.data, out=Uf.data)
    RX = None if X is None else Lf @ (Uf @ X)
    Lf.data **= 2
    unit = int(np.diff(Uf.indptr).max()) * 2.0 ** -53
    return int(np.sum(d < 0)), _pivot_test(ad, (Lf @ ad).max(), unit, fixed), RX, unit


def _capacitance_bounds(capacitance, T, Y, Yp, RY, unit: float,
                        fixed: Optional["_Fixed"]) -> tuple:
    """(eigenvalues of Q11 and Z, their two bounds) of _Shift, over any
    leading axes of a stack, with unit = 3 w u, and Yp = |Y| and RY = R |Y|
    in the factor's order.

    One batch of m x m symmetric eigenproblems: the capacitance, then per
    block j |Y_j|^T R |Y_j|, whose 2-norm is its largest eigenvalue, and,
    behind a fixed part, Z_j^T gram Z_j, z = [-Y[dV]; T] in the bordered
    matrix's dV and U coordinates (_Fixed)."""
    m = capacitance.shape[-1]
    mats = [np.swapaxes(Yp, -1, -2) @ RY]
    if fixed is not None:
        Z = np.concatenate([-Y[..., fixed.window.dloc, :], T], axis=-2)
        mats.append(np.swapaxes(Z, -1, -2) @ fixed.gram @ Z)
    ev = _eigvalsh(np.concatenate(
        [capacitance] + [M[..., None, j, j] for M in mats for j in (slice(0, m), slice(m, None))],
        axis=-3))
    q, top = ev[..., :2, :], ev[..., 2:, -1]
    top = top.reshape(top.shape[:-1] + (-1, 2))
    bounds = unit / (1 - unit) * top[..., 0, :]
    if fixed is not None:
        bounds += fixed.rounding * top[..., -1, :]
    return q, bounds


class _Factor:
    """LDL^T of one block of _Shift, or of the Schur complement that a
    pattern's window leaves of it behind its fixed part (fixed, _Fixed,
    whose block gives it), with its capacitance when the block holds the
    constant shifts; a factorization that yields no inertia raises
    (_ldlt). Behind a fixed part F's rounding widens the tests (_Shift).
    The count, the pivot test and R |Y| come from _certificate, |Y| in the
    factor's order; the capacitance and its tests from _capacitance and
    _capacitance_bounds, which _BandFactor shares."""

    def __init__(self, block: _Block, w: Optional[np.ndarray], sigma: float,
                 fixed: Optional[_Fixed] = None):
        M_pp, U, Q = (fixed or block).block(w, sigma)
        lu = _ldlt(M_pp)
        del M_pp                                    # before lu.U copies the factor
        self.nnz, self._solve, self.Y = int(lu.nnz), lu.solve, None
        Yp = None
        if U is not None:
            self.capacitance, self.T, self.Y = _capacitance(Q, U, lu.solve(U))
            # |Y| in the factor's order: Pr M_pp Pc = L U, (Pr x)[perm_r] = x
            Yp = np.empty_like(self.Y)
            Yp[lu.perm_r] = np.abs(self.Y)
        self.negative, pivot, RY, unit = _certificate(lu, Yp, fixed)
        self.tests = [pivot]
        if Yp is not None:
            q, bounds = _capacitance_bounds(self.capacitance, self.T, self.Y, Yp, RY,
                                            3 * unit, fixed)
            self.tests += zip(np.abs(q).min(axis=1), bounds)
            self.negative += int(np.sum(q < 0)) - self.T.shape[0] // 2

    @cached_property
    def Cinv(self) -> np.ndarray:
        return scipy.linalg.block_diag(*np.linalg.inv(self.capacitance))

    def solve(self, r: np.ndarray) -> np.ndarray:
        x = self._solve(r)
        if self.Y is not None:
            x += self.Y @ (self.Cinv @ (self.Y.T @ r))
        return x


class _Shift:
    """LDL^T of sym(A) - sigma G on the zero-mean space, block by block of
    _Pinned (_Factor), in pinned coordinates, at the blend weight w of a
    pattern's _Pinned (None for a fixed operator), each block behind its
    fixed part where the pattern's window gives one (fixed, _Fixed).

    _Pinned gives a pencil one block, or the inversion's two, of which the
    even one holds the constant shifts, each a copy of what follows. In a
    block that holds constant shifts, with its first m coordinates
    pinned, x = Pi W z (Pi projects off ker G) and the
    restricted matrix is S = M_pp + U C U^T: M_pp = (sym A - sigma G)[m:, m:]
    = L D L^T, as _Block builds it, with U and k^T s in C = [[k^T s, -I],
    [-I, 0]] from _pinned_update. With X = M_pp^-1 and Q = -C^-1 - U^T X U,
    S has neg(D) + neg(Q) - m negative eigenvalues (Haynsworth) and S^-1 =
    X + X U Q^-1 U^T X (Woodbury), with Q block-diagonalized: T^T Q T =
    diag(Q11, Z), T = [[I, -Q11^-1 Q12], [0, I]], Y = X U T. A block
    without a kernel is its own LDL^T, with neg(D) negative eigenvalues.
    Behind a fixed part F, the factor is the Schur complement's on the
    window's moving coordinates V (_Window.stage), and the block has
    neg(D_F) + neg(D_S) + neg(Q) - m (Haynsworth, 1968).
    The counts add over the blocks. A sign is trusted when it clears a
    rounding bound: a pivot gamma_w max_k R_kk (LDL^T backward error, R =
    |L||D||L^T|, w the longest row of L); an eigenvalue of Q11 or Z
    gamma_3w || |Y_j|^T R |Y_j| ||, that error's first-order effect, solves
    included, with Y_j's rows in the factor's order. Behind a fixed part,
    F's pivots are tested as well (_Fixed.pivot), and e = _Fixed.rounding
    bounds the error of M_FF that the bordered matrix inherits, through
    _Fixed.gram: a Schur pivot's bound adds e times the 2-norm of gram's dV
    block, and a capacitance block's e ||Z_j^T gram Z_j||, Z_j = [-Y_j[dV];
    T_j], since that error reaches U and -C^-1 too.
    Each factor's tests hold its (smallest magnitude, bound) pairs, in that
    order, after the fixed part's; the count is trusted when every test
    passes, and min_pivot and margin report the one that came closest.
    Where a factorization yields no inertia (a zero pivot, pivots off the
    diagonal, a singular Q11) construction does not raise: negative -1,
    min_pivot 0, margin nan, and the blocks after it are not factored.
    fixed is the number of coordinates behind fixed parts; such a shift
    counts, and has no solve. A chain's window probes are counted with the
    same tests by _BandFactor, every probe of the window at once; _Shift
    counts a lattice's, and a chain probe that the band leaves without
    inertia. A weight that a split pencil's mirror does not map to itself
    raises ValueError (_Pinned.check).

    A sign probe costs the factorizations, one solve with 2m right-hand
    sides, O(nnz) work on each factor (_certificate reads the count, the
    pivot test and R |Y| off it) and a few m x m dense calls. Of each
    factor the shift keeps only its solve and nnz. The copies of L and U
    that _certificate overwrites are not freed with the rest: the solve
    keeps the SuperLU object, on which scipy caches both copies, so each
    block's copies stay allocated beside SuperLU's own factor while the
    shift or its solves live; _sign frees the shift before a value solve.
    The Woodbury operator Cinv is built on the first solve(), so a sign
    probe never builds it.
    """

    def __init__(self, pinned: _Pinned, w: Optional[np.ndarray], sigma: float,
                 fixed: Optional[list] = None):
        self.slices = pinned.slices
        parts = fixed or [None] * len(pinned.blocks)
        self.fixed = sum(part.dim for part in parts if part is not None)
        pinned.check(w)
        try:
            self.factors, tests, self.negative = [], [], 0
            for block, part in zip(pinned.blocks, parts):
                factor = _Factor(block, w, sigma, part)
                if part is not None:
                    tests.append(part.pivot)
                    self.negative += part.negative
                self.factors.append(factor)
                tests += factor.tests
                self.negative += factor.negative
        except (RuntimeError, np.linalg.LinAlgError):      # no inertia to read
            self.negative, self.min_pivot, self.margin, self.trusted = -1, 0.0, np.nan, False
            return
        self.nnz = sum(f.nnz for f in self.factors)
        self.min_pivot, self.margin = map(float, min(tests, key=lambda t: t[0] / t[1]))
        self.trusted = all(p > b for p, b in tests)

    def solve(self, r: np.ndarray) -> np.ndarray:
        """S^-1 r in pinned coordinates, block by block."""
        if self.fixed:
            raise ValueError("a shift behind fixed parts counts only; it has no solve")
        x = np.empty_like(r)
        for f, part in zip(self.factors, self.slices):
            x[part] = f.solve(r[part])
        return x


def _components(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The connected parts of the graph on n nodes with edges (u, v): each
    node's label, the smallest node of its part. Roots are hooked to the
    smaller root across each edge, then every label jumps to its root."""
    label = np.arange(n)
    while True:
        lu, lv = label[u], label[v]
        if np.array_equal(lu, lv):
            return label
        np.minimum.at(label, np.maximum(lu, lv), np.minimum(lu, lv))
        while not np.array_equal(label[label], label):
            label = label[label]


class _BandFactor:
    """_Factor of a chain window's Schur complements at a stack of weights,
    one per probe, given as their refills x (_Window.refill, one row per
    probe) behind the window's fixed part, factored together: one band
    LDL^T, unpivoted, so a congruence, each step vectorized across the
    probes.

    The window stages the complements and their border (_Window.stage), and
    their values fill one (|V| + width, 2 width + 1, probes) array at their
    places (_Window.place), row i holding S[i, i + o] at width + o, the
    rows past |V| padding that the updates may write. Step j divides row
    j's upper entries, L[j + r, j] d_j, by d_j and updates the trailing
    width x width block in one strided view; every later step reads only
    its row's diagonal and upper entries, so this is the LDL^T of the
    upper triangle. The border solve X = S^-1 U runs its forward
    substitution in the same steps and its back substitution after. The
    tests are _Factor's: w is the longest row of the band's L, min(width,
    |V| - 1) + 1; R_kk = sum_i l_ki^2 |d_i| and R |Y| = |L| (|D| (|L^T|
    |Y|)) are summed along the band's diagonals; the pivot test comes from
    _pivot_test, and the capacitance and its bounds from _capacitance and
    _capacitance_bounds, once for the stack.

    d (probes x |V|) and L (probes x |V| x width, |L[j + r, j]| at r - 1,
    magnitudes once the solve is done) are the factors, Y and T as
    _Factor's, negative and each test's two entries one per probe, and ok
    whether the LDL^T yields inertia, every pivot finite and nonzero: a
    probe without it is factored as the identity, so that nothing after it
    turns non-finite.
    """

    def __init__(self, fixed: _Fixed, x: np.ndarray, sigma: float):
        window = fixed.window
        P, nv, b = x.shape[0], window.V.size, window.width
        w = 2 * b + 1
        S, U, Q = window.stage(fixed, x, sigma)
        A = np.zeros(((nv + b) * w, P))
        A[window.place] = S.T
        del S
        A = A.reshape(nv + b, w, P)
        # step j's trailing block, A[j + s, b + t - s] at (j, s - 1, t - 1)
        item = A.itemsize * P
        trail = np.lib.stride_tricks.as_strided(A[1:, b:], shape=(nv, b, b, P),
                                                strides=(w * item, (w - 1) * item, item,
                                                         A.itemsize))
        L = np.zeros((nv, b, P))                    # L[j + r, j] at (j, r - 1)
        kernel = U is not None
        if kernel:
            m = Q.shape[-1] // 2
            X = np.zeros((nv + b, 2 * m, P))
            X[:nv] = U.transpose(1, 2, 0)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for j in range(nv):
                du = A[j, b + 1:]
                l = L[j]
                np.divide(du, A[j, b], out=l)
                trail[j] -= l[:, None] * du[None]
                if kernel:
                    X[j + 1:j + b + 1] -= l[:, None] * X[j]
            d = A[:nv, b]
            self.ok = np.isfinite(d).all(axis=0) & (d != 0.0).all(axis=0) & \
                np.isfinite(L).all(axis=(0, 1))
            d[:, ~self.ok], L[:, :, ~self.ok] = 1.0, 0.0
            self.d, self.L = d.T.copy(), L.transpose(2, 0, 1)
            del A, trail, d
            if kernel:
                X[:, :, ~self.ok] = 0.0
                X[:nv] /= self.d.T[:, None]
                for j in range(nv - 1, -1, -1):
                    X[j] -= (L[j][:, None] * X[j + 1:j + b + 1]).sum(axis=0)
                X = np.ascontiguousarray(X[:nv].transpose(2, 0, 1))
            # the signs of L are read no more
            ad, aL = np.abs(self.d), np.abs(self.L, out=self.L)
            R = ad.copy()
            for r in range(1, b + 1):
                R[:, r:] += aL[:, :nv - r, r - 1] ** 2 * ad[:, :nv - r]
            unit = (min(b, nv - 1) + 1) * 2.0 ** -53       # w u
            self.tests = [_pivot_test(ad, R.max(axis=1), unit, fixed)]
            self.negative = np.sum(self.d < 0, axis=1)
            if not kernel:
                return
            try:
                self.capacitance, self.T, Y = _capacitance(Q, U, X)
            except np.linalg.LinAlgError:           # a singular Q11, m > 1
                self.ok[:] = False
                return
            del X, U
            self.Y, Yp = Y, np.abs(Y)
            Z = Yp.copy()                           # |L^T| |Y|, then |D| times it
            for r in range(1, b + 1):
                Z[:, :nv - r] += aL[:, :nv - r, r - 1, None] * Yp[:, r:]
            Z *= ad[..., None]
            RY = Z.copy()
            for r in range(1, b + 1):
                RY[:, r:] += aL[:, :nv - r, r - 1, None] * Z[:, :nv - r]
            q, bounds = _capacitance_bounds(self.capacitance, self.T, self.Y, Yp, RY,
                                            3 * unit, fixed)
        self.tests += [(np.abs(q[:, k]).min(axis=-1), bounds[:, k]) for k in range(2)]
        self.negative += np.sum(q < 0, axis=(1, 2)) - m


@dataclass(frozen=True)
class _Count:
    """A band probe's count and its closest test, as _sign reads a _Shift's."""

    negative: int
    min_pivot: float
    margin: float
    trusted: bool


def _lift(kernel: np.ndarray, z: np.ndarray) -> np.ndarray:
    """x = Pi W z."""
    return _project_out(kernel, np.concatenate([np.zeros(kernel.shape[1]), z]))


def _rayleigh_residual(Asym, G: SparseOp, x: np.ndarray):
    # sym(A) of the force-based operator does not annihilate constants, so
    # the residual lives on the deflated pencil: project it off ker(G)
    Ax = _project_out(G.kernel, Asym @ x)
    Gx = G.matrix @ x
    rho = float(x @ Ax) / float(x @ Gx)
    denom = np.linalg.norm(Ax) + abs(rho) * np.linalg.norm(Gx)
    return rho, float(np.linalg.norm(Ax - rho * Gx)) / max(denom, 1e-300)


class _Lanczos:
    """Lanczos on T = S_sigma^-1 G_pp from z, solve(r) = S_sigma^-1 r.

    T is self-adjoint in the G_pp inner product. Below a shift with no
    eigenvalue under it, gamma's eigenvalue 1 / (gamma - sigma) is T's
    largest, and the Lanczos reads the top Ritz pair; above a shift with
    exactly one under it (bottom), it is T's only negative one, and the
    Lanczos reads the bottom pair. The basis Q is G_pp-orthonormal, kept so
    by full reorthogonalization (classical Gram-Schmidt twice, against Q
    and P = G_pp Q), and H = Q^T G_pp T Q holds the coefficients that step
    computes: T Q = Q H + beta q e_j^T. A full basis, _BASIS vectors,
    restarts thick: it keeps the top _KEEP Ritz vectors (the bottom one and
    the top _KEEP - 1 when it reads the bottom) and the last Lanczos
    vector, with H their Ritz values and the couplings the next step
    computes (Wu and Simon's thick restart), so Q and P hold at most _BASIS
    + 1 vectors each: O(_BASIS n) memory however long the solve. Any
    solve that G_pp makes self-adjoint will do: poincare_discrete passes a
    Green's function and the identity. A step whose beta is exactly zero
    has found an invariant subspace, and its Ritz pairs are exact.
    """

    def __init__(self, solve, Gpp: sp.csr_matrix, z: np.ndarray, bottom: bool = False):
        self.solve, self.Gpp, self.bottom = solve, Gpp, bottom
        # filled row by row as the basis grows
        self.Q, self.P = np.empty((2, _BASIS + 1, z.size))
        self.H = np.zeros((_BASIS, _BASIS))
        self.steps = 0
        Gz = Gpp @ z
        norm = np.sqrt(z @ Gz)
        self.Q[0], self.P[0] = z / norm, Gz / norm

    def step(self) -> float:
        """One shifted solve; returns the Ritz pair's residual estimate
        ||T y - theta y||_G / |theta| = beta |s_j| / |theta|, ||y||_G = 1."""
        if self.steps == _BASIS:
            self._restart()
        j = self.steps
        Q, P = self.Q[:j + 1], self.P[:j + 1]
        w = self.solve(P[j])
        h = P @ w
        w -= h @ Q
        c = P @ w
        w -= c @ Q
        h += c
        self.H[:j + 1, j] = self.H[j, :j + 1] = h
        Gw = self.Gpp @ w
        beta = np.sqrt(w @ Gw)
        if beta:                # else the basis spans an invariant subspace: exact Ritz pairs
            self.Q[j + 1], self.P[j + 1] = w / beta, Gw / beta
        self.steps = j + 1
        k = 1 if self.bottom else j + 1
        theta, s, _, _, info = scipy.linalg.lapack.dsyevr(
            self.H[:j + 1, :j + 1], range="I", il=k, iu=k)
        if info:
            raise np.linalg.LinAlgError(f"Ritz eigensolver failed (info {info})")
        self.s = s[:, 0]
        return float(beta * abs(self.s[-1]) / abs(theta[0]))

    def _restart(self):
        theta, S = np.linalg.eigh(self.H)
        keep = np.arange(_BASIS - _KEEP, _BASIS)
        if self.bottom:
            keep[0] = 0
        S = S[:, keep]
        self.Q[:_KEEP], self.P[:_KEEP] = S.T @ self.Q[:_BASIS], S.T @ self.P[:_BASIS]
        self.Q[_KEEP], self.P[_KEEP] = self.Q[_BASIS], self.P[_BASIS]
        self.H[:] = 0.0
        self.H[:_KEEP, :_KEEP] = np.diag(theta[keep])
        self.steps = _KEEP

    def ritz_vector(self) -> np.ndarray:
        """The Ritz vector y = Q s of the pair read, G_pp-normalized."""
        return self.s @ self.Q[:self.steps]

    def ritz_values(self) -> np.ndarray:
        """Every Ritz value theta of T, ascending."""
        return np.linalg.eigvalsh(self.H[:self.steps, :self.steps])


def _iterative_gamma(opMatrix: SparseOp, G: SparseOp, x0: Optional[np.ndarray], seed: int):
    """Shift-invert Lanczos on the pinned pencil (S, G_pp), with a shift sigma
    that a count certifies next to gamma (Ericsson and Ruhe, 1980).

    One search (certified) gives both shifts: the first trial sigma at which
    _Shift trusts a count of 0 or 1 eigenvalues below it, each refused
    factor freed before the next; a count of 2 or more goes on to the next
    trial. The start vector's Rayleigh quotient rho bounds gamma from
    above; the first shift's trials descend from min(2 rho, 0), each step 4
    times the last, and raise once sigma is not finite. _Lanczos on T =
    S_sigma^-1 G_pp reads, after every shifted solve, its top Ritz pair
    below a count-zero shift, and its bottom one above a count-one shift,
    where gamma's eigenvalue is T's only negative one. The stopping test,
    the lifted Ritz vector's relative residual <= _RTOL, and at a count-one
    shift its Rayleigh quotient below sigma, so that it is gamma's, runs as
    soon as the Ritz residual times the ratio the previous test measured
    says it can pass, on a run's first step, and at the last step _MAXITER
    allows.

    A solve that the stopping test at its _RESHIFT_AT-th step does not end
    re-shifts once, to sigma_1 = l_1 - (l_2 - l_1) / 2 below the pencil's
    eigenvalue l_1 of the Ritz pair read, with l_2 that of the top Ritz
    value (the next one above sigma), l_i = sigma + 1 / theta_i; its trials
    halve the step from sigma toward sigma_1 _HALVINGS times, then retry
    sigma itself. The old factor is freed first, and a new Lanczos
    run starts from that test's Ritz vector. _MAXITER caps the shifted
    solves over both shifts. A pencil split into blocks runs one Lanczos
    on the direct sum of its blocks (_Pinned), with the same shifts,
    re-shift and stopping test, the last on the full pencil.

    The start is a draw of default_rng(seed), or x0 with that draw mixed
    in at _MIX times x0's root mean square. The Lanczos reaches only the
    eigenvectors its start has a part in, and at a count-zero shift the
    stopping test cannot tell gamma's from a higher one, so an x0 inside a
    symmetry class that gamma's eigenvector is not in would end at a higher
    eigenvalue; the draw gives every eigenvector a part.
    """
    tol, maxiter = _RTOL, _MAXITER
    A, Asym = opMatrix.matrix, opMatrix.sym_matrix
    x = np.random.default_rng(seed).standard_normal(G.dim)
    if x0 is not None:
        x0 = _project_out(G.kernel, x0)
        x = x0 + _MIX * np.sqrt(x0 @ x0 / x0.size) * x
    x = _project_out(G.kernel, x)
    x /= np.linalg.norm(x)
    rho, res = _rayleigh_residual(Asym, G, x)
    report = dict(method="iterative", iterations=0, factorizations=0)
    if res <= tol:                                  # a NaN residual goes on
        return StabilityReport(gamma=rho, minimizer=x, residual=res, **report)

    def certified(trials):
        for sigma in trials:
            report["factorizations"] += 1
            shift = _Shift(pinned, None, sigma)
            if shift.trusted and shift.negative <= 1:
                return sigma, shift
            del shift                               # before the next factorization
        raise RuntimeError("no shift below the spectrum: the pencil is not finite")

    def descent(sigma: float, step: float):
        while np.isfinite(sigma):
            yield sigma
            sigma, step = sigma - step, 4.0 * step

    pinned = _Pinned(A, G)
    sigma, shift = certified(descent(min(2.0 * rho, 0.0), 0.5 * abs(rho) or 1.0))

    Gpp = pinned.gram()
    z = pinned.restrict(x)                          # x in pinned coordinates
    lanczos, ratio = _Lanczos(shift.solve, Gpp, z, shift.negative == 1), None
    while True:
        if report["iterations"] >= maxiter:
            raise RuntimeError(f"pencil iteration did not converge in {maxiter} steps "
                               f"(relative residual {res:.3e}, rho {rho:.6e})")
        report["iterations"] += 1
        estimate = lanczos.step()
        reshift = report["iterations"] == _RESHIFT_AT
        if ratio is None or ratio * estimate <= tol or reshift or report["iterations"] == maxiter:
            z = lanczos.ritz_vector()
            x = pinned.lift(z)
            x /= np.linalg.norm(x)
            rho, res = _rayleigh_residual(Asym, G, x)
            if res <= tol and (rho < sigma or not shift.negative):
                return StabilityReport(gamma=rho, minimizer=x, residual=res,
                                       shift=sigma, nnz=shift.nnz, **report)
            ratio = res / estimate if estimate > 0 else None
        if reshift:
            theta = lanczos.ritz_values()
            l1, l2 = sigma + 1.0 / (theta[[0, -1]] if shift.negative else theta[[-1, -2]])
            target = float(l1 - 0.5 * (l2 - l1))
            del lanczos, shift                      # free the factor first
            sigma, shift = certified([sigma + (target - sigma) / 2 ** k
                                      for k in range(_HALVINGS)] + [sigma])
            lanczos, ratio = _Lanczos(shift.solve, Gpp, z, shift.negative == 1), None


def _translations(G: SparseOp) -> list:
    """The one-site shift along each axis of G's grid, as a permutation of
    its coordinates, m = ncomp per site."""
    sites = np.arange(G.dim // G.ncomp).reshape(G.grid)
    return [(G.ncomp * np.roll(sites, 1, axis=a).ravel()[:, None] + np.arange(G.ncomp)).ravel()
            for a in range(len(G.grid))]


def _translation_invariant(Asym: sp.csr_matrix, G: SparseOp) -> bool:
    """Whether sym(A) commutes with the one-site shift along each axis of
    G's grid (_commutator); False without a grid. The commutators' diagonals,
    d[perm] - d, are tested first, at O(n) cost: a blend breaks them there."""
    if not G.grid:
        return False
    shifts, d = _translations(G), Asym.diagonal()
    tol = 1e-13 * np.abs(Asym.data).max(initial=0.0)
    return (all(np.abs(d[perm] - d).max() <= tol for perm in shifts)
            and all(_commutator(Asym, perm, 1e-13) for perm in shifts))


def _symbol(M: sp.spmatrix, G: SparseOp) -> np.ndarray:
    """M(k) of a form M that commutes with the translations of G's torus,
    one m x m matrix per wavevector k (m = G.ncomp) in rfftn's layout over
    the grid: the transform of M's first m columns, the one site's
    coupling to every other, so that M (e^{ik.x} v) = e^{ik.x} M(k) v."""
    m, grid = G.ncomp, G.grid
    cols = M[:, :m].toarray().reshape(grid + (m, m))
    return np.fft.rfftn(cols, axes=tuple(range(len(grid))))


def _bloch_mode(G: SparseOp, k: tuple, v: np.ndarray) -> np.ndarray:
    """The real lift of the Bloch mode e^{ik.x} v on G's torus, k integer
    wavenumbers per grid axis and v one value per coordinate of a site: the
    larger of its real and imaginary parts, each a mode of a real pencil
    when e^{ik.x} v is one (its conjugate, at -k, is another), projected
    off the constant shifts and normalized. k.x is reduced mod the grid's
    period in integers before the phase is formed, so that the phase takes
    no rounding from k.x, however large."""
    period = math.lcm(*G.grid)
    sites = np.indices(G.grid).reshape(len(G.grid), -1)
    phase = sum(kk * (period // n) * s for kk, n, s in zip(k, G.grid, sites)) % period
    mode = (np.exp(2j * np.pi * np.arange(period) / period)[phase][:, None] * v).ravel()
    x = _project_out(G.kernel, max(mode.real, mode.imag, key=np.linalg.norm))
    return x / np.linalg.norm(x)


def _symbol_gamma(Asym: sp.csr_matrix, G: SparseOp) -> StabilityReport:
    """gamma of a pencil whose sym(A) commutes with G's translations, from
    the symbols, nothing factored: the minimum over k != 0 of the smallest
    eigenvalue of A(k)'s Hermitian part over g(k), G's symbol on one
    component (gram_D acts on each alike), with k = 0, the constant
    shifts, masked by its index.

    Certificate: the Bloch mode of the minimizing k and its eigenvector,
    lifted to real form (_bloch_mode). gamma is its Rayleigh quotient, and
    a relative residual on the sparse pencil above _RTOL raises
    RuntimeError, so that a wrong symbol or a G that is not circulant fails
    there."""
    m = G.ncomp
    a = _symbol(Asym, G)
    a = 0.5 * (a + np.conj(np.swapaxes(a, -1, -2)))
    g = _symbol(G.matrix, G)[..., 0, 0].real.ravel()
    lam, vec = np.linalg.eigh(a.reshape(-1, m, m))
    ratio = np.full(g.size, np.inf)
    ratio[1:] = lam[1:, 0] / g[1:]
    j = int(np.argmin(ratio))
    x = _bloch_mode(G, np.unravel_index(j, a.shape[:-2]), vec[j, :, 0])
    rho, res = _rayleigh_residual(Asym, G, x)
    if not res <= _RTOL:
        raise RuntimeError(f"symbol minimum {rho:.6e} fails its certificate on the sparse "
                           f"pencil: relative residual {res:.3e} exceeds {_RTOL:g}")
    return StabilityReport(gamma=rho, minimizer=x, method="symbol", residual=res, iterations=0)


def coercivity(opMatrix: SparseOp, G: SparseOp, method: str = "iterative",
               x0: Optional[np.ndarray] = None, seed: int = 7) -> StabilityReport:
    """Minimum eigenvalue of the pencil (sym(A), G) off the kernel of G, the
    constant shifts of G's ncomp coordinates per site.

    method "dense" is the dense eigh of the pinned pencil, the reference
    the other paths are checked against. method "iterative" routes: when G
    has a grid and sym(A) commutes with the one-site shift along each of
    its axes, the pencil is answered from its symbol (_symbol_gamma;
    method "symbol" in the report, with no iterations, factorizations or
    nonzeros and a nan shift), whose certificate raises RuntimeError when
    the lifted Bloch mode's relative residual exceeds _RTOL; otherwise, at
    every size, by shift-invert Lanczos (_iterative_gamma). gamma is the
    Rayleigh quotient of the minimizer. The Lanczos starts from a draw of
    default_rng(seed), mixed into x0 when given, and raises when _MAXITER
    shifted solves leave the relative residual above _RTOL; its report gives the
    final certified shift (below gamma, or the one shift with gamma alone
    below it), the factorizations (the re-shift included), the factor's
    nonzeros and, as iterations, the shifted solves. The symbol path reads
    neither x0 nor seed. An x0 of the wrong shape, or with no zero-mean
    part above 1e-12 of its norm (a constant shift), raises ValueError.
    """
    _pencil_kernel(opMatrix.dim, G)
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if x0 is not None:
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != (G.dim,):
            raise ValueError(f"x0 has shape {x0.shape}, not ({G.dim},)")
        if not np.linalg.norm(_project_out(G.kernel, x0)) > 1e-12 * np.linalg.norm(x0):
            raise ValueError("x0 has no zero-mean part")

    Asym = opMatrix.sym_matrix
    if method == "dense":
        _, x = _dense_gamma(Asym, G)
        gamma, res = _rayleigh_residual(Asym, G, x)
        return StabilityReport(gamma=gamma, minimizer=x, method="dense",
                               residual=res, iterations=0)
    if _translation_invariant(Asym, G):
        return _symbol_gamma(Asym, G)
    return _iterative_gamma(opMatrix, G, x0, seed)


def _pencil_kernel(dim: int, G: SparseOp) -> None:
    """Check that G is a Gram form, with its kernel, on dim coordinates."""
    if dim != G.dim:
        raise ValueError(f"dimension mismatch: {dim} vs {G.dim}")
    if G.kernel is None:
        raise ValueError("Gram operator lacks its kernel basis")


def _ldlt(M: sp.csc_matrix):
    """splu of symmetric M under a symmetric fill-reducing ordering with
    diagonal pivots only, so that L diag(U) L^T is a congruence of M.
    SuperLU raises RuntimeError on an exactly zero pivot; a factorization
    that left the diagonal raises LinAlgError. _Shift reads either as no
    inertia."""
    lu = spla.splu(M, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                   options={"SymmetricMode": True})
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise np.linalg.LinAlgError("LU pivoted off the diagonal; the factorization"
                                    " is not a congruence and its inertia is void")
    return lu


def is_coercive(opMatrix: SparseOp, G: SparseOp, tau: float) -> InertiaReport:
    """Decide gamma > tau: sym(A) - tau G has no negative or zero eigenvalue
    on the zero-mean space, counted by _Shift (Sylvester, Haynsworth).

    When a pivot or capacitance eigenvalue misses its rounding bound, or the
    factorization yields no inertia, the pencil is solved by coercivity(A,
    G) and the report says so in its method. A tau within rounding of gamma
    can still clear the bounds; the sign there is whatever rounding made it.
    """
    _pencil_kernel(opMatrix.dim, G)
    return _sign(_Shift(_Pinned(opMatrix.matrix, G), None, tau), tau,
                 lambda: coercivity(opMatrix, G))


def _sign(shift, tau: float, solve) -> InertiaReport:
    """gamma > tau read off the shift's count at tau (a _Shift or a band
    probe's _Count), with its evidence; solve() gives the pencil solve's
    StabilityReport, asked for only when the count is untrusted."""
    report = InertiaReport(coercive=shift.negative == 0, negative=shift.negative,
                           min_pivot=shift.min_pivot, margin=shift.margin, method="inertia")
    if shift.trusted:
        return report
    del shift                                       # before the value solve
    rep = solve()
    return replace(report, coercive=rep.gamma > tau, method=rep.method)


class BlendPattern:
    """is_coercive for a blended operator at every blend of a window of
    them, from one assembly: a threshold scan builds it once per lattice
    size, from the operators of every width it scans.

    A blended stencil is affine in the weight, row by row: A(beta) = A_0 +
    diag(beta at each row's site) (A_1 - A_0), with A_0 and A_1 the stencil
    at beta = 0 and beta = 1 on one CSR pattern: the entries some weight
    makes nonzero, stored at every weight (the 2D toy model's bqcf pattern
    holds 9,216 at N = 12, 8 per row). The pattern splits into the even and
    odd blocks of G's mirror when A_0 and A_1 - A_0 commute with it
    exactly and every blend of the window maps to itself under it (_Pinned
    measures it), and each block forms B^T A_0 B and B^T (A_1 - A_0) B
    once. A probe refills each block at op's weight (weight) as B^T A_0 B +
    diag(beta_B) B^T (A_1 - A_0) B, exact for a beta that the mirror maps
    to itself, with no assembly or product.

    window is the operators, or one operator, a window of one. Their
    weights split each block into the coordinates they move, V, and the
    rest, F (_Window). On the first probe at a tau, each block's F is
    factored once (_Fixed), and every probe at that tau then factors only
    the Schur complement on V, whose count adds to F's: in 1D V is 128
    coordinates for the window K = 6..64 at every N. Which factor does
    that reads the Gram form's geometry alone: on a chain (one grid axis)
    is_coercive counts every probe it is given at once, one band LDL^T of
    all their complements (_BandFactor), building no sparse
    matrix;
    on a lattice, whose complements measured bandwidths of 44-78 even in
    reverse Cuthill-McKee order, each probe factors its own by SuperLU
    (_Shift), one sparse matrix per block. A block falls back to its whole
    factor (F empty) where the window moves every coordinate of it or none,
    or where F's factorization yields no trusted inertia; fixed(tau) is the
    number of coordinates behind fixed parts. A SparseOp of A(beta) is
    built only when a probe falls back to a value solve. op must share the
    kind, lattice and model (equal by value) of the window's operators; its
    weight must equal the window's where the window holds it fixed and it
    enters F (_Window.refill), and a blend that does not map to itself
    under the mirror of a split pattern raises ValueError (_Pinned.check).
    """

    def __init__(self, window, G: SparseOp):
        ops = [window] if hasattr(window, "blend") else list(window)
        op = ops[0]
        if op.blend is None:
            raise ValueError(f"kind {op.kind!r} has no blend to refill")
        beta = op.blend.beta
        A0, A1 = (_stencil(replace(op, blend=replace(op.blend, beta=np.full_like(beta, b))))
                  for b in (0.0, 1.0))
        if not (np.array_equal(A0.indptr, A1.indptr)
                and np.array_equal(A0.indices, A1.indices)):
            raise ValueError(f"the stencil of kind {op.kind!r} changes its pattern with beta")
        self.source, self.model, self.G = (type(op), op.kind, beta.shape), op.model, G
        _pencil_kernel(A0.shape[0], G)
        # sums of stored entries can cancel at both weights, hence at every one
        keep = (A0.data != 0.0) | (A1.data != 0.0)
        n = A0.shape[0]
        rows = np.repeat(np.arange(n, dtype=np.int32), np.diff(A0.indptr))[keep]
        self.indices = A0.indices[keep]
        self.indptr = np.searchsorted(rows, np.arange(n + 1)).astype(np.int32)
        self.a0, a1 = A0.data[keep], A1.data[keep]
        self.slope = a1 - self.a0
        del A1
        self.rows = rows                            # each stored entry's row
        A0, S = (sp.csr_matrix((v, self.indices, self.indptr), shape=(n, n))
                 for v in (self.a0, self.slope))
        # the window's first weight, where its weights differ, and whether
        # each maps to itself under the mirror
        self.w0 = self.weight(op)
        moves = np.zeros(n, dtype=bool)
        invariant = True
        for other in ops:
            w = self.weight(other)
            moves |= w != self.w0
            invariant &= G.mirror is None or np.array_equal(w[G.mirror], w)
        self.pinned = _Pinned(A0, G, S, invariant)
        self.windows = []
        for block in self.pinned.blocks:
            in_v = _moving(block, moves)
            moved = in_v[block.m:]
            # a chain's window is counted as one band, a lattice's by SuperLU
            self.windows.append(_Window(block, in_v, self.w0, banded=len(G.grid) == 1)
                                if moved.any() and not moved.all() else None)
        self._fixed = {}                            # each tau's fixed parts

    def weight(self, op) -> np.ndarray:
        """beta at each coordinate of op's blend. An op of another kind,
        lattice or model than the pattern's raises ValueError; the kind is
        compared first, so that an op without a blend is refused too."""
        if (type(op), op.kind) != self.source[:2] or op.blend.beta.shape != self.source[2] \
                or op.model != self.model:
            raise ValueError("operator differs in kind, lattice or model from the pattern's")
        return np.repeat(op.blend.beta.ravel(), self.G.ncomp)

    def values(self, op) -> np.ndarray:
        """A(beta)'s stored values at op's blend, on the pattern."""
        a = self.weight(op)[self.rows]
        a *= self.slope
        a += self.a0
        return a

    def matrix(self, op) -> SparseOp:
        """A(beta) at op's blend, on the pattern."""
        return SparseOp(sp.csr_matrix((self.values(op), self.indices, self.indptr),
                                      shape=(self.G.dim,) * 2))

    def parts(self, tau: float) -> list:
        """Each block's fixed part at tau (_Fixed), or None: factored on the
        first call at tau, and kept. None where the window moves every
        coordinate of the block or none, or where F's factorization yields
        no inertia, or a pivot that fails its test."""
        if tau not in self._fixed:
            parts = []
            for block, window in zip(self.pinned.blocks, self.windows):
                part = None
                if window is not None:
                    try:
                        part = _Fixed(block, window, self.w0, tau)
                    except (RuntimeError, np.linalg.LinAlgError):     # no inertia
                        pass
                    else:
                        pivot, bound = part.pivot
                        part = part if pivot > bound else None
                parts.append(part)
            self._fixed[tau] = parts
        return self._fixed[tau]

    def fixed(self, tau: float) -> int:
        """The coordinates behind fixed parts at tau, summed over the blocks."""
        return sum(part.dim for part in self.parts(tau) if part is not None)

    def is_coercive(self, window, tau: float, *, method: str = "iterative",
                    seed: int = 7):
        """spectral.is_coercive(assemble(op), G, tau) for each op of window,
        the operators or one operator, on the pattern: a list of reports, or
        one report. On a chain, behind every block's fixed part, the probes
        are counted together (_banded); a probe that yields no inertia
        there, and every probe on a lattice, is counted by _Shift. A count
        behind fixed parts that its widened bounds leave untrusted is probed
        again on the whole blocks, by _Shift; A(beta) is built as a matrix
        only when that falls back to a value solve, coercivity's with this
        method and seed."""
        ops = [window] if hasattr(window, "blend") else list(window)
        counts = self._banded(ops, tau)
        # each probe's shift goes to _sign unnamed, so that _sign frees it
        # before a value solve
        reports = [_sign(self._probe(op, tau, count), tau,
                         lambda op=op: coercivity(self.matrix(op), self.G, method=method,
                                                  seed=seed))
                   for op, count in zip(ops, counts)]
        return reports[0] if hasattr(window, "blend") else reports

    def _banded(self, ops: list, tau: float) -> list:
        """Each op's _Count from the blocks' bands (_BandFactor), summed over the
        blocks with their fixed parts' counts and tests, or None where the
        LDL^T yields no inertia; all None off a chain, or where a block has
        no fixed part at tau. The weights are read one at a time, so that no
        stack of them is held."""
        parts = self.parts(tau)
        if any(part is None or part.window.place is None for part in parts):
            return [None] * len(ops)
        negative, tests, ok = 0, [], np.ones(len(ops), dtype=bool)
        for window, part in zip(self.windows, parts):
            x = np.empty((len(ops), window.row.size))
            for i, op in enumerate(ops):
                w = self.weight(op)
                self.pinned.check(w)
                x[i] = window.refill(w)
            factor = _BandFactor(part, x, tau)
            del x
            negative = negative + part.negative + factor.negative
            tests += [part.pivot] + factor.tests
            ok &= factor.ok
        pivots, bounds = (np.array([np.broadcast_to(t[k], ok.shape) for t in tests])
                          for k in (0, 1))
        closest = np.argmin(pivots / bounds, axis=0)
        trusted = (pivots > bounds).all(axis=0)
        return [_Count(int(negative[i]), float(pivots[c, i]), float(bounds[c, i]),
                       bool(trusted[i])) if ok[i] else None
                for i, c in enumerate(closest)]

    def _probe(self, op, tau: float, count: Optional[_Count]):
        """op's count for _sign: its band count, or _Shift's where it has
        none, and the whole blocks' where a count behind fixed parts is
        untrusted."""
        if count is None:
            count = _Shift(self.pinned, self.weight(op), tau, self.parts(tau))
        if self.fixed(tau) and not count.trusted:
            del count                               # before the whole blocks' factors
            count = _Shift(self.pinned, self.weight(op), tau)
        return count
