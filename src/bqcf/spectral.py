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
other basis can be given. Its one coordinate system pins the first site's
m coordinates, x = Pi W z, where sym(A) - sigma G restricts to its
trailing block plus a rank-2m term (_pinned_update). One sparse
factorization of it answers both questions (_Shift): an LDL^T plus a small
capacitance. "Is gamma > tau?" is read off its inertia at sigma = tau
(Sylvester; is_coercive); gamma itself comes from shift-invert Lanczos on
it, with sigma certified below gamma by a count of zero (Ericsson and
Ruhe's spectral transformation). The Lanczos (_Lanczos) checks its top
Ritz pair after every shifted solve and stops once the stopping test
passes; a solve still open after _RESHIFT_AT shifted solves re-shifts
once, next to gamma, certified the same way (Grimes, Lewis and Simon's
inertia-certified shifts). Both build the factored block the same
way (_Pinned): values refilled on one pattern, the union of A's, A^T's and
G's, fixed for every sigma. A blended operator is affine in its weight, so
a threshold scan refills that pattern at each blend (BlendPattern) and
assembles nothing per probe. Every value solve takes this path unless
its caller asks for method "dense": a dense eigh of the same pinned
pencil, the reference the sparse one is checked against.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class SparseOp:
    """Assembled operator: a square CSR matrix with duplicates summed.

    No symmetry is declared: sym_matrix is computed, and for an exactly
    symmetric matrix it holds the same values. A Gram form sets ncomp, its
    coordinates per site: its nullspace is the constant shifts, whose
    orthonormal basis is kernel, and the zero-mean space of the pencil is
    their orthogonal complement.
    """

    matrix: sp.csr_matrix = field(repr=False)
    ncomp: Optional[int] = None

    def __post_init__(self) -> None:
        self.matrix.sum_duplicates()
        if self.ncomp is not None and self.dim % self.ncomp:
            raise ValueError(f"dimension {self.dim} is not a multiple of ncomp {self.ncomp}")

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
    def sym_matrix(self) -> sp.csr_matrix:
        """(A + A^T) / 2; _Pinned forms the same values on its pattern."""
        m = self.matrix
        return ((m + m.T) * 0.5).tocsr()


@dataclass(frozen=True)
class StabilityReport:
    """Result of a pencil solve: gamma and its certified minimizer. On the
    iterative path, iterations counts the shifted solves, factorizations
    every factorization (the search for a certified shift and the
    re-shift), shift is the last certified shift, the one the solve ended
    at, and nnz its factor's nonzeros."""

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
    zero-mean space, read off the pivots and the capacitance of _Shift;
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


def gram_D(domain) -> SparseOp:
    """Gram matrix of ||Du||^2 (symmetric PSD), with its coordinates per
    site: its kernel is the constant shifts (SparseOp.kernel).

    It is the nearest-neighbor stencil with unit stiffness: the 1D circulant
    (2, -1, -1) / eps, and in 2D the nearest bond shell with identity
    Hessians (the eps^2 weight and the 1/eps^2 of the quotients cancel).
    Identity Hessians couple no two components, so the 2D form is one
    scalar nearest-neighbor Laplacian on each: matrix[0::2, 0::2] on the
    (2N)^2 sites, which poincare_discrete solves against.
    """
    if isinstance(domain, Chain1D):
        n = domain.nsites
        rows, cols, vals = ops1d._term_triplets(n, 1, 1.0)
        return SparseOp(sp.csr_matrix((vals / domain.eps, (rows, cols)), shape=(n, n)), ncomp=1)
    if isinstance(domain, TriLattice2D):
        dim = 2 * (2 * domain.N) ** 2
        rows, cols, vals = ops2d._block_triplets(
            domain, ops2d._blocks_shell(NN, (np.eye(2),) * 3, 1.0))
        return SparseOp(sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim)), ncomp=2)
    raise TypeError(f"no Gram form for {type(domain).__name__}")


def _project_out(kernel: np.ndarray, v: np.ndarray) -> np.ndarray:
    return v - kernel @ (kernel.T @ v)


def _pinned_update(s: np.ndarray, kernel: np.ndarray):
    """U = [k_p, s_p] and k^T s, for s = sym(A) k: with the first site's m
    coordinates pinned, x = Pi W z and W^T Pi (sym A - sigma G) Pi W =
    (sym A - sigma G)[m:, m:] + U C U^T, C = [[k^T s, -I], [-I, 0]]."""
    m = kernel.shape[1]
    return np.hstack([kernel[m:], s[m:]]), kernel.T @ s


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


def _keys(M: sp.csr_matrix) -> np.ndarray:
    """row * n + col of each stored entry of a CSR matrix, in storage order."""
    n = M.shape[0]
    return np.repeat(np.arange(n, dtype=np.int64) * n, np.diff(M.indptr)) + M.indices


def _numbered(M: sp.csr_matrix) -> sp.csr_matrix:
    """M's pattern, each stored entry's position plus one as its value."""
    return sp.csr_matrix((np.arange(1.0, M.nnz + 1), M.indices, M.indptr), shape=M.shape)


class _Pinned:
    """sym(A) - sigma G on the zero-mean space in pinned coordinates, on one
    sparsity pattern for every value of A's entries and every sigma.

    The pattern is the union of A's, A^T's and G's. A scatter map places
    A's stored entries in it and the transpose map sends each of its
    entries to its mirror entry; G's values and G's pattern on the block
    are scattered once. The kernel k is the constant shifts, one value
    k[0, 0] per row, so each entry adds k[0, 0] times its value to one slot
    of s = sym(A) k, its row's at its column's coordinate; the slots and
    the block's columns and row pointers are O(nnz) arrays, built once.
    block(a, sigma), a the values on A's canonical CSR pattern, scatters
    them and sums sym(A) - sigma G on the pattern, sym(A) = (A + A^T) / 2
    whether or not A is symmetric, forms the rank-2m update from s with one
    weighted bincount, and keeps the block past the first site's m rows and
    columns, less its exact zeros off G's pattern: the nonzero set of
    sym(A) summed with G's pattern, so that SuperLU orders and fills it as
    it would the summed matrices, whatever sigma. A probe is O(nnz) array
    work and one sparse matrix, the block. G, the Gram form, must be
    symmetric.
    """

    def __init__(self, A: sp.csr_matrix, G: SparseOp):
        self.kernel = G.kernel
        n, m = self.kernel.shape
        G = G.matrix
        a = _numbered(A)
        # positive sums: nothing cancels
        P = a + a.T + _numbered(G)
        P.sort_indices()
        key = _keys(P)
        # where each stored entry of A and of G sits in the pattern
        self.at_a, at_g = (np.searchsorted(key, _keys(M)).astype(np.int32) for M in (A, G))
        self.size = P.nnz
        # P is structurally symmetric: numbered P^T holds each mirror's number
        self.transpose = (_numbered(P).T.tocsr().data - 1).astype(np.int32)
        # (sym(A) k)[row, col mod m] sums k[0, 0] sym(A)_e over the entries e
        # of a row in CSR order, as a CSR product does
        self.slot = (np.repeat(np.arange(n) * m, np.diff(P.indptr))
                     + P.indices % m).astype(np.int32)
        self.k = self.kernel[0, 0]
        # the block: the entries from start on (rows past the first m), their
        # columns shifted by m, negative for the first m columns; G's values
        # there, and G's pattern, whose entries the block keeps at any value
        self.start = P.indptr[m]
        self.cols = (P.indices[self.start:] - m).astype(np.int32)
        self.indptr = (P.indptr[m:] - self.start).astype(np.int32)
        g, on_g = np.zeros(self.size), np.zeros(self.size, dtype=bool)
        g[at_g], on_g[at_g] = G.data, True
        self.g, self.on_g, self.in_block = g[self.start:], on_g[self.start:], self.cols >= 0

    def block(self, a: np.ndarray, sigma: float):
        """(M_pp, U, k^T s) of _Shift for the values a on A's pattern."""
        n, m = self.kernel.shape
        x = np.zeros(self.size)
        x[self.at_a] = a
        s = x[self.transpose]                       # sym(A)
        s += x
        s *= 0.5
        sk = np.bincount(self.slot, weights=s * self.k, minlength=n * m)
        U, kts = _pinned_update(sk.reshape(n, m), self.kernel)
        s = s[self.start:]
        keep = s != 0.0
        keep |= self.on_g
        keep &= self.in_block
        keep = np.flatnonzero(keep)
        values = s[keep]
        values -= sigma * self.g[keep]
        # int32 like the columns, so that scipy casts neither
        indptr = np.searchsorted(keep, self.indptr).astype(np.int32)
        # sym(A) - sigma G is symmetric: its CSR arrays are its CSC arrays
        return (sp.csc_matrix((values, self.cols[keep], indptr), shape=(n - m, n - m)),
                U, kts)


class _Shift:
    """LDL^T of sym(A) - sigma G on the zero-mean space, in pinned coordinates.

    With the first site's m coordinates pinned, x = Pi W z (Pi projects off
    ker G) and the restricted matrix is S = M_pp + U C U^T: M_pp = (sym A -
    sigma G)[m:, m:] = L D L^T, as _Pinned builds it, with U and k^T s in
    C = [[k^T s, -I], [-I, 0]] from _pinned_update. With X = M_pp^-1 and
    Q = -C^-1 - U^T X U, S has neg(D) + neg(Q) - m negative eigenvalues
    (Haynsworth) and S^-1 = X + X U Q^-1 U^T X (Woodbury), with Q
    block-diagonalized: T^T Q T = diag(Q11, Z), T = [[I, -Q11^-1 Q12], [0,
    I]], Y = X U T. A sign is trusted when it clears a rounding bound: a
    pivot gamma_w max_k R_kk (LDL^T backward error, R = |L||D||L^T|, w the
    longest row of L); an eigenvalue of Q11 or Z gamma_3w || |Y_j|^T R
    |Y_j| ||, that error's first-order effect, solves included. tests holds
    the three (smallest magnitude, bound) pairs, in that order; min_pivot
    and margin report the one that came closest. Where the factorization
    yields no inertia (a zero pivot, pivots off the diagonal, a singular
    Q11) construction does not raise: negative -1, min_pivot 0, margin nan.

    A sign probe costs the factorization, one solve with 2m right-hand
    sides, O(nnz) work on the factor and a few m x m dense calls: with U =
    D L^T, D is U's diagonal, R_kk = sum_i l_ki^2 |d_i| and R |Y| = |L|
    (|U| |Y|), three compiled products with the factor's own copies of L
    and U, overwritten in place, so no temporary is the factor's size. Of
    the factor it keeps only its solve and nnz, so nothing later reads
    those copies as L and U. They are not freed with the rest: the bound
    solve keeps the SuperLU object, on which scipy caches both copies, so
    they stay allocated beside SuperLU's own factor while the shift or its
    solve lives (at the 2D Morse atomistic N = 24 shift, tracemalloc sees
    24.5 MB of copies and not SuperLU's factor). The Woodbury operator
    Cinv is built on the first solve(), so a sign probe never builds it.
    """

    def __init__(self, pinned: _Pinned, a: np.ndarray, sigma: float):
        try:
            self._factor(pinned, a, sigma)
        except (RuntimeError, np.linalg.LinAlgError):      # no inertia to read
            self.negative, self.min_pivot, self.margin, self.trusted = -1, 0.0, np.nan, False

    def _factor(self, pinned: _Pinned, a: np.ndarray, sigma: float):
        M_pp, U, kts = pinned.block(a, sigma)
        m = kts.shape[0]
        lu = _ldlt(M_pp)
        del M_pp                                    # before lu.U copies the factor
        self.nnz, self._solve = int(lu.nnz), lu.solve
        XU = lu.solve(U)
        Q = np.zeros((2 * m, 2 * m))                # -C^-1
        Q[:m, m:] = Q[m:, :m] = np.eye(m)
        Q[m:, m:] = kts
        Q -= U.T @ XU
        Q = 0.5 * (Q + Q.T)
        F = np.linalg.solve(Q[:m, :m], Q[:m, m:])
        self.blocks = np.stack([Q[:m, :m], Q[m:, m:] - Q[m:, :m] @ F])
        self.Y = np.hstack([XU[:, :m], XU[:, m:] - XU[:, :m] @ F])

        # lu.U makes the copies of L and U together; the factor keeps them
        # and nothing reads them after this, so they are overwritten in place
        Lf, Uf = lu.L, lu.U
        d = Uf.diagonal()
        ad = np.abs(d)
        np.abs(Lf.data, out=Lf.data)
        np.abs(Uf.data, out=Uf.data)
        Yp = np.abs(self.Y)
        RY = Lf @ (Uf @ Yp)                         # R |Y| = |L| (|U| |Y|)
        Lf.data **= 2
        unit = int(np.diff(Uf.indptr).max()) * 2.0 ** -53     # w u
        self.tests = tests = [(ad.min(), unit / (1 - unit) * (Lf @ ad).max())]
        unit *= 3
        q = np.linalg.eigvalsh(self.blocks)
        YRY = np.stack([Yp[:, j].T @ RY[:, j] for j in (slice(0, m), slice(m, None))])
        # the 2-norm of each block is its largest singular value
        tests += zip(np.abs(q).min(axis=1),
                     unit / (1 - unit) * np.linalg.svd(YRY, compute_uv=False)[:, 0])
        self.negative = int(np.sum(d < 0) + np.sum(q < 0)) - m
        self.min_pivot, self.margin = map(float, min(tests, key=lambda t: t[0] / t[1]))
        self.trusted = all(p > b for p, b in tests)

    @cached_property
    def Cinv(self) -> np.ndarray:
        return scipy.linalg.block_diag(*np.linalg.inv(self.blocks))

    def solve(self, r: np.ndarray) -> np.ndarray:
        """S^-1 r in pinned coordinates."""
        return self._solve(r) + self.Y @ (self.Cinv @ (self.Y.T @ r))


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

    T is self-adjoint in the G_pp inner product, and its largest eigenvalue
    is 1 / (gamma - sigma). The basis Q is G_pp-orthonormal, kept so by full
    reorthogonalization (classical Gram-Schmidt twice, against Q and P =
    G_pp Q), and H = Q^T G_pp T Q holds the coefficients that step computes:
    T Q = Q H + beta q e_j^T. A full basis, _BASIS vectors, restarts thick:
    it keeps the top _KEEP Ritz vectors and the last Lanczos vector, with H
    their Ritz values and the couplings the next step computes (Wu and
    Simon's thick restart), so Q and P hold at most _BASIS + 1 vectors each:
    O(_BASIS n) memory however long the solve.
    """

    def __init__(self, solve, Gpp: sp.csr_matrix, z: np.ndarray):
        self.solve, self.Gpp = solve, Gpp
        # filled row by row as the basis grows
        self.Q, self.P = np.empty((2, _BASIS + 1, z.size))
        self.H = np.zeros((_BASIS, _BASIS))
        self.steps = 0
        Gz = Gpp @ z
        norm = np.sqrt(z @ Gz)
        self.Q[0], self.P[0] = z / norm, Gz / norm

    def step(self) -> float:
        """One shifted solve; returns the top Ritz pair's residual estimate
        ||T y - theta_1 y||_G / theta_1 = beta |s_j| / theta_1, ||y||_G = 1."""
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
        self.Q[j + 1], self.P[j + 1] = w / beta, Gw / beta
        self.steps = j + 1
        theta, s, _, _, info = scipy.linalg.lapack.dsyevr(
            self.H[:j + 1, :j + 1], range="I", il=j + 1, iu=j + 1)
        if info:
            raise np.linalg.LinAlgError(f"Ritz eigensolver failed (info {info})")
        self.s = s[:, 0]
        return float(beta * abs(self.s[-1]) / theta[0])

    def _restart(self):
        theta, S = np.linalg.eigh(self.H)
        S = S[:, -_KEEP:]
        self.Q[:_KEEP], self.P[:_KEEP] = S.T @ self.Q[:_BASIS], S.T @ self.P[:_BASIS]
        self.Q[_KEEP], self.P[_KEEP] = self.Q[_BASIS], self.P[_BASIS]
        self.H[:] = 0.0
        self.H[:_KEEP, :_KEEP] = np.diag(theta[-_KEEP:])
        self.steps = _KEEP

    def ritz_vector(self) -> np.ndarray:
        """The top Ritz vector y = Q s, G_pp-normalized."""
        return self.s @ self.Q[:self.steps]

    def ritz_values(self) -> np.ndarray:
        """Every Ritz value theta of T, ascending."""
        return np.linalg.eigvalsh(self.H[:self.steps, :self.steps])


def _iterative_gamma(opMatrix: SparseOp, G: SparseOp, x0: Optional[np.ndarray], seed: int):
    """Shift-invert Lanczos on the pinned pencil (S, G_pp), sigma below gamma.

    One search (certified) gives both shifts: the first trial sigma at which
    _Shift trusts a count of no eigenvalue below it, each refused factor
    freed before the next. The start vector's Rayleigh quotient rho bounds
    gamma from above; the first shift's trials descend from min(2 rho, 0),
    each step 4 times the last, and raise once sigma is not finite. _Lanczos
    on T = S_sigma^-1 G_pp reads its top Ritz pair after every shifted
    solve. The stopping test, the lifted Ritz vector's relative residual <=
    _RTOL, runs as soon as the Ritz residual times the ratio the previous
    test measured says it can pass, on a run's first step, and at the last
    step _MAXITER allows.

    A solve that the stopping test at its _RESHIFT_AT-th step does not end
    re-shifts once, to sigma_1 = l_1 - (l_2 - l_1) / 2 below the top two
    Ritz values l_1 < l_2 of the pencil, l_i = sigma + 1 / theta_i; its
    trials halve the step from sigma toward sigma_1 _HALVINGS times, then
    retry sigma itself. The old factor is freed first, a new Lanczos run
    starts from that test's Ritz vector, and _Pinned is dropped. _MAXITER
    caps the shifted solves over both shifts.
    """
    tol, maxiter, m = _RTOL, _MAXITER, G.ncomp
    A, Asym = opMatrix.matrix, opMatrix.sym_matrix
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(G.dim) if x0 is None else np.asarray(x0, dtype=float)
    x = _project_out(G.kernel, x)
    x /= np.linalg.norm(x)
    rho, res = _rayleigh_residual(Asym, G, x)
    report = dict(method="iterative", iterations=0, factorizations=0)
    if res <= tol:                                  # a NaN residual goes on
        return StabilityReport(gamma=rho, minimizer=x, residual=res, **report)

    def certified(trials):
        for sigma in trials:
            report["factorizations"] += 1
            shift = _Shift(pinned, A.data, sigma)
            if shift.trusted and not shift.negative:
                return sigma, shift
            del shift                               # before the next factorization
        raise RuntimeError("no shift below the spectrum: the pencil is not finite")

    def descent(sigma: float, step: float):
        while np.isfinite(sigma):
            yield sigma
            sigma, step = sigma - step, 4.0 * step

    pinned = _Pinned(A, G)
    sigma, shift = certified(descent(min(2.0 * rho, 0.0), 0.5 * abs(rho) or 1.0))

    Gpp = G.matrix[m:, m:]
    z = (x[m:].reshape(-1, m) - x[:m]).ravel()      # x in pinned coordinates
    lanczos, ratio = _Lanczos(shift.solve, Gpp, z), None
    while True:
        if report["iterations"] >= maxiter:
            raise RuntimeError(f"pencil iteration did not converge in {maxiter} steps "
                               f"(relative residual {res:.3e}, rho {rho:.6e})")
        report["iterations"] += 1
        estimate = lanczos.step()
        reshift = report["iterations"] == _RESHIFT_AT
        if ratio is None or ratio * estimate <= tol or reshift or report["iterations"] == maxiter:
            z = lanczos.ritz_vector()
            x = _lift(G.kernel, z)
            x /= np.linalg.norm(x)
            rho, res = _rayleigh_residual(Asym, G, x)
            if res <= tol:
                return StabilityReport(gamma=rho, minimizer=x, residual=res,
                                       shift=sigma, nnz=shift.nnz, **report)
            ratio = res / estimate if estimate > 0 else None
        if reshift:
            l2, l1 = sigma + 1.0 / lanczos.ritz_values()[-2:]
            target = float(l1 - 0.5 * (l2 - l1))
            del lanczos, shift                      # free the factor first
            sigma, shift = certified([sigma + (target - sigma) / 2 ** k
                                      for k in range(_HALVINGS)] + [sigma])
            lanczos, ratio, pinned = _Lanczos(shift.solve, Gpp, z), None, None


def coercivity(opMatrix: SparseOp, G: SparseOp, method: str = "iterative",
               x0: Optional[np.ndarray] = None, seed: int = 7) -> StabilityReport:
    """Minimum eigenvalue of the pencil (sym(A), G) off the kernel of G, the
    constant shifts of G's ncomp coordinates per site.

    method "iterative" is shift-invert Lanczos (_iterative_gamma) at every
    size; "dense" is the dense eigh of the same pinned pencil, the reference
    the iterative path is checked against. gamma is the Rayleigh quotient
    of the minimizer. The iterative path starts from x0, else from a draw
    of default_rng(seed), and raises when _MAXITER shifted solves leave the
    relative residual above _RTOL; its report gives the final certified
    shift, the factorizations (the re-shift included), the factor's
    nonzeros and, as iterations, the shifted solves.
    """
    _pencil_kernel(opMatrix.dim, G)
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")

    if method == "iterative":
        return _iterative_gamma(opMatrix, G, x0, seed)
    Asym = opMatrix.sym_matrix
    _, x = _dense_gamma(Asym, G)
    gamma, res = _rayleigh_residual(Asym, G, x)
    return StabilityReport(gamma=gamma, minimizer=x, method="dense",
                           residual=res, iterations=0)


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
    return _sign(_Pinned(opMatrix.matrix, G), opMatrix.matrix.data, tau,
                 lambda: coercivity(opMatrix, G))


def _sign(pinned: _Pinned, a: np.ndarray, tau: float, solve) -> InertiaReport:
    """gamma > tau for the values a on pinned's pattern, read off _Shift's
    count with its evidence; solve() gives the pencil solve's
    StabilityReport, asked for only when the count is untrusted."""
    shift = _Shift(pinned, a, tau)
    report = InertiaReport(coercive=shift.negative == 0, negative=shift.negative,
                           min_pivot=shift.min_pivot, margin=shift.margin, method="inertia")
    if shift.trusted:
        return report
    del shift                                       # before the value solve
    rep = solve()
    return replace(report, coercive=rep.gamma > tau, method=rep.method)


class BlendPattern:
    """is_coercive for a blended operator at every blend of its lattice, from
    one assembly: a threshold scan builds it once per lattice size.

    A blended stencil is affine in the weight, row by row: A(beta) = A_0 +
    diag(beta at each row's site) (A_1 - A_0), with A_0 and A_1 the stencil
    at beta = 0 and beta = 1 on one CSR pattern: the entries some weight
    makes nonzero, stored at every weight (the 2D toy model's bqcf pattern
    holds 9,216 at N = 12, 8 per row). is_coercive(op) refills the values
    at op's blend (values) and hands them to _Shift on a _Pinned pattern,
    with no assembly, symmetrization or format conversion: the probe builds
    one sparse matrix, the block it factors, and a SparseOp of A(beta) only
    when it falls back to a value solve. op must share the kind, lattice and
    model (equal by value) of the operator the pattern was built from.
    """

    def __init__(self, op, G: SparseOp):
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
        self.a0, self.slope = A0.data[keep], A1.data[keep] - A0.data[keep]
        del A1
        self.site = rows // G.ncomp
        A0 = sp.csr_matrix((self.a0, self.indices, self.indptr), shape=(n, n))
        self.pinned = _Pinned(A0, G)

    def values(self, op) -> np.ndarray:
        """A(beta)'s stored values at op's blend, on the pattern."""
        if (type(op), op.kind, op.blend.beta.shape) != self.source or op.model != self.model:
            raise ValueError("operator differs in kind, lattice or model from the pattern's")
        a = op.blend.beta.ravel()[self.site]
        a *= self.slope
        a += self.a0
        return a

    def matrix(self, op) -> SparseOp:
        """A(beta) at op's blend, on the pattern."""
        return SparseOp(sp.csr_matrix((self.values(op), self.indices, self.indptr),
                                      shape=(self.G.dim,) * 2))

    def is_coercive(self, op, tau: float, *, method: str = "iterative",
                    seed: int = 7) -> InertiaReport:
        """spectral.is_coercive(assemble(op), G, tau) on the pattern; A(beta)
        is built as a matrix only when the probe falls back to a value solve,
        coercivity's with this method and seed."""
        return _sign(self.pinned, self.values(op), tau,
                     lambda: coercivity(self.matrix(op), self.G, method=method, seed=seed))
