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
the lattice's symmetries fix), x = Pi W z, where sym(A) - sigma G restricts
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
the factored block the same way (_Pinned): values refilled on one
pattern, the union of A's, A^T's and G's, fixed for every sigma. A
blended operator is affine in its weight, so a threshold scan refills
that pattern at each blend (BlendPattern) and assembles nothing per
probe. Every value solve takes this path unless its caller asks for
method "dense": a dense eigh of the same pinned pencil, the reference
the sparse one is checked against.

A pencil that commutes with a group of coordinate symmetries splits into
blocks (symmetry-adapted bases; Fassler and Stiefel, 1992). Symmetry is
measured, not declared: the Gram form lists the candidates as its mirror
(gram_D the 2D lattice's inversion and its reflection y -> -y, which flips
the second displacement component), and _Pinned splits by the largest
group some of them generate that the operator commutes with, the whole
group tried first and each element measured once (_Commutes): all of it
for the Morse models, the inversion for the toy model (the reflection maps
its soft bond b1 to b3), one block for L-tilde, an asymmetric blend and
1D. Each character of the group gives one block (_bases). The constant
shift of each component lies in the block of its own character, (1, 0) in
(+, +) and (0, 1) in (+, -) (a scalar form's in (+, +)), which pins it as
above; the other blocks have no kernel: no
pinning and no capacitance. Counts add over the blocks, a count is
trusted when every block's is, and the Lanczos runs on their direct sum.
The folded blocks fill far less under the fill-reducing ordering than the
whole pencil on the torus.
"""

from __future__ import annotations

import itertools
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
    their orthogonal complement. A Gram form's mirror lists its pencils'
    candidate symmetries, commuting signed involutions x -> sign * x[perm]
    that map it to itself; _Pinned measures which of them each operator
    commutes with. A mirror without ncomp raises ValueError.
    """

    matrix: sp.csr_matrix = field(repr=False)
    ncomp: Optional[int] = None
    mirror: tuple = field(default=(), repr=False)

    def __post_init__(self) -> None:
        self.matrix.sum_duplicates()
        if self.ncomp is None and self.mirror:
            raise ValueError("only a Gram form (ncomp set) carries a mirror")
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
    the shift trials (the search for a certified shift and the re-shift),
    each of which factors every block of the pencil, shift is the last
    certified shift, the one the solve ended at: a trusted count puts no
    eigenvalue below it, or exactly one, gamma, which lies below it. nnz
    is its factors' nonzeros, summed over the blocks."""

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
    site: its kernel is the constant shifts (SparseOp.kernel).

    It is the nearest-neighbor stencil with unit stiffness: the 1D circulant
    (2, -1, -1) / eps, and in 2D the nearest bond shell with identity
    Hessians (the eps^2 weight and the 1/eps^2 of the quotients cancel).
    Identity Hessians couple no two components, so the 2D form is one
    scalar nearest-neighbor Laplacian on each; scalar=True builds that
    form alone, on the (2N)^2 sites, with the same stencil builder and no
    mirror (poincare_discrete inverts it by its Fourier symbol). The 2D
    mirror lists the inversion and the signed reflection y -> -y
    (_Pinned); the 1D one none, since the chain's split is slower at the
    sizes that run. A chain's form is scalar whatever scalar says.
    """
    if isinstance(domain, Chain1D):
        n = domain.nsites
        rows, cols, vals = ops1d._term_triplets(n, 1, 1.0)
        return SparseOp(sp.csr_matrix((vals / domain.eps, (rows, cols)), shape=(n, n)), ncomp=1)
    if isinstance(domain, TriLattice2D):
        m = 1 if scalar else 2
        dim = m * domain.nsites
        rows, cols, vals = ops2d._block_triplets(
            domain, ops2d._blocks_shell(NN, (np.eye(m),) * 3, 1.0))
        G = sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim))
        if scalar:
            return SparseOp(G, ncomp=1)
        return SparseOp(G, ncomp=2,
                        mirror=((domain.inversion(2), np.ones(dim)), domain.reflection(2)))
    raise TypeError(f"no Gram form for {type(domain).__name__}")


def _project_out(kernel: np.ndarray, v: np.ndarray) -> np.ndarray:
    return v - kernel @ (kernel.T @ v)


def _pinned_update(s: np.ndarray, kernel: np.ndarray):
    """U = [k_p, s_p] and k^T s, for s = sym(A) k: with the first m
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


def _group(mirror: tuple, n: int) -> list:
    """Every element (perm, sign, word) of the group that the signed
    involutions mirror generate, x -> sign * x[perm], word naming the
    generators it is the product of; the identity first. Raises ValueError
    unless each is a signed involution of n coordinates and they commute."""
    ones = np.ones(n)
    for perm, sign in mirror:
        if not (np.shape(perm) == np.shape(sign) == (n,)
                and np.array_equal(perm[perm], np.arange(n))
                and np.array_equal(np.abs(sign), ones)
                and np.array_equal(sign * sign[perm], ones)):
            raise ValueError("mirror is not a signed involution of the pencil's coordinates")
    for (p, s), (q, t) in itertools.combinations(mirror, 2):
        if not (np.array_equal(q[p], p[q]) and np.array_equal(s * t[p], t * s[q])):
            raise ValueError("the mirror's involutions do not commute")
    elements = [(np.arange(n), ones, ())]
    for k, (perm, sign) in enumerate(mirror):
        elements += [(perm[p], s * sign[p], word + (k,)) for p, s, word in elements]
    return elements


class _Commutes:
    """Which elements of a group a canonical CSR matrix M commutes with,
    each element's pattern map and defects kept by its word, so that no
    stored entry is measured twice under one element.

    An element x -> sign * x[perm] commutes with M when it maps M's pattern
    onto itself and changes each array of values (on M's pattern) by at
    most 1e-13 of its largest magnitude (_within). A group commutes when
    each of its elements does on the group's representative rows, the
    smallest coordinate of each orbit, whose images are every row: the
    image (perm[r], perm[c]) of each stored entry there is stored, each row
    holds as many entries as its image, and the values stay within. A
    subgroup has more representative rows, of which only the entries not
    yet measured are; an element that fails on any rows fails every group.
    """

    def __init__(self, M: sp.csr_matrix, values: tuple):
        self.M, self.values = M, values
        self.counts = np.diff(M.indptr)
        # by word: (done, maps), the rows measured and the (entries, their
        # images' entries) of each measurement, or None once it fails
        self.measured = {}

    @cached_property
    def row(self) -> np.ndarray:
        return np.repeat(np.arange(self.counts.size), self.counts)

    @cached_property
    def key(self) -> np.ndarray:
        return _keys(self.M)

    @cached_property
    def bounds(self) -> list:
        """_within's bound of each array of values, read once."""
        return [1e-13 * np.abs(v).max(initial=0.0) for v in self.values]

    def group(self, elements: list):
        """(src, images) of the group of elements (_group's, the identity
        first) when M commutes with each of them, else None: src lists M's
        stored entries in the group's representative rows, and images
        holds, for each element but the identity, (at, sign): the stored
        entry at the image (perm[row], perm[col]) of each, and sign[row]
        sign[col] (_defect)."""
        n = self.counts.size
        rep_of = np.minimum.reduce([p for p, _, _ in elements])
        rep = rep_of == np.arange(n)
        src = np.flatnonzero(np.repeat(rep, self.counts))
        if len(elements) == 1:                      # the trivial group
            return src, []
        key, row, col = self.key, self.row[src], self.M.indices[src]
        here = [v[src] for v in self.values]
        images = []
        for perm, sign, word in elements[1:]:
            if word not in self.measured:
                self.measured[word] = ((np.zeros(n, dtype=bool), [])
                                       if np.array_equal(self.counts[perm], self.counts) else None)
            if self.measured[word] is None:
                return None
            done, maps = self.measured[word]
            s = sign[row] * sign[col] if (sign < 0).any() else 1.0
            new = np.flatnonzero(~done[row]) if maps else slice(None)
            image = perm[row[new]] * n + perm[col[new]]
            at = np.searchsorted(key, image).clip(max=key.size - 1)
            sn = s if np.isscalar(s) else s[new]
            defects = (np.abs(sn * v[at] - x[new]).max(initial=0.0)
                       for v, x in zip(self.values, here))
            if not (np.array_equal(key[at], image)
                    and all(d == 0.0 or d <= bound for d, bound in zip(defects, self.bounds))):
                self.measured[word] = None
                return None
            maps.append((src[new], at))
            done |= rep
            if len(maps) > 1:                       # a subgroup's rows, partly measured
                full = np.empty(key.size, dtype=np.intp)
                for entries, to in maps:
                    full[entries] = to
                at = full[src]
            images.append((at, s))
        return src, images


def _defect(data: np.ndarray, images: tuple) -> float:
    """The largest change of a matrix's stored values in the representative
    rows under any element of the group, for their images (_Commutes.group)."""
    src, images = images
    x = data[src]
    return max((float(np.abs(sign * data[at] - x).max(initial=0.0)) for at, sign in images),
               default=0.0)


def _within(defect: float, data: np.ndarray) -> bool:
    """defect <= 1e-13 of data's largest magnitude (False for a NaN)."""
    return defect == 0.0 or defect <= 1e-13 * np.abs(data).max(initial=0.0)


def _subgroup(commutes: _Commutes, mirror: tuple, group: list):
    """(generators, members, elements, images) of the largest group that
    some of mirror's generators generate and whose every element commutes
    (_Commutes.group, which gives its images), out of its group's elements,
    the whole group first; the trivial group commutes. members are its
    elements as group words them, elements as its generators do (_bases)."""
    for k in range(len(mirror), -1, -1):
        for gens in itertools.combinations(range(len(mirror)), k):
            members = [e for e in group if set(e[2]) <= set(gens)]
            images = commutes.group(members)
            if images is not None:
                return (tuple(mirror[g] for g in gens), members,
                        [(p, s, tuple(map(gens.index, word))) for p, s, word in members], images)


def _bases(mirror: tuple, elements: list, kernel: np.ndarray):
    """(rep, orbit, bases) of the group that the signed involutions mirror
    generate, whose elements _group gave. rep marks each orbit's
    representative, its smallest coordinate, and orbit numbers each
    coordinate's orbit: those with the larger stabilizers first, then by
    representative. bases holds ((held, coef), kernel) of each block, one
    per character chi (a sign per generator) that some orbit carries, (+,
    ..., +) first.

    An element h of the group maps e_r to s_h(r) e_h(r). The orbit of r
    gives block chi the vector sum_h chi(h) s_h(r) e_h(r), normalized,
    unless it is zero (an element fixing r cancels it): held marks the
    orbits that give one, and coordinate i's entry in it is coef[i] =
    +-1/sqrt(|orbit|) (0 off the block). A block's coordinates are its held
    orbits, in their order. The constant shift of component c carries the
    character of c's signs, and the block of that character holds it as B^T
    k, pinned at the block's first coordinate where that column is
    nonzero; this raises ValueError unless those coordinates lead the
    block, in the kernel's column order. The lattice groups fix the
    origin, whose coordinates come first, each in the block of its own
    component's character. A block that holds no constant shift gets
    kernel None. With no generators this is the one block of the trivial
    group, the identity basis.
    """
    n, m = kernel.shape
    rep_of = np.minimum.reduce([p for p, _, _ in elements])
    reps = np.flatnonzero(rep_of == np.arange(n))
    stab = sum(p[reps] == reps for p, _, _ in elements)
    number = np.empty(n, dtype=np.int32)
    number[reps[np.lexsort((reps, -stab))]] = np.arange(reps.size, dtype=np.int32)
    orbit = number[rep_of]
    # 1/sqrt(|orbit|) = 1/sqrt(|group| / |stabilizer|)
    norm = np.zeros(n)
    norm[reps] = 1.0 / np.sqrt(len(elements) * stab)
    norm = norm[rep_of]
    carried = []                                    # each kernel column's character
    for c in range(m):
        chi = []
        for perm, sign in mirror:
            image = sign * kernel[perm, c]
            chi.append(1.0 if np.array_equal(image, kernel[:, c])
                       else -1.0 if np.array_equal(image, -kernel[:, c]) else 0.0)
        if 0.0 in chi:
            raise ValueError("the Gram form's kernel does not map to itself under its mirror")
        carried.append(tuple(chi))
    bases = []
    for chi in itertools.product((1.0, -1.0), repeat=len(mirror)):
        acc = np.zeros(n)
        for p, s, word in elements:
            acc[p[reps]] += np.prod([chi[k] for k in word]) * s[reps]
        held = np.zeros(reps.size, dtype=bool)
        held[orbit[reps]] = acc[reps] != 0.0
        if not held.any():
            continue
        coef = acc * norm
        cols = [c for c in range(m) if carried[c] == chi]
        kb = None
        if cols:
            coords = np.flatnonzero(coef)
            at = (np.cumsum(held) - 1)[orbit[coords]]
            kb = np.stack([np.bincount(at, weights=coef[coords] * kernel[coords, c])
                           for c in cols], axis=1)
            lead = np.arange(len(cols))
            if not (np.array_equal(np.argmax(kb != 0.0, axis=0), lead) and kb[lead, lead].all()):
                raise ValueError("the constant shifts do not lead their block")
        bases.append(((held, coef), kb))
    return rep_of == np.arange(n), orbit, bases


class _Fold:
    """The entries of the pencil's pattern P in the representative rows,
    folded onto the pattern of orbit pairs, once for every block.

    An entry (r, c) of a representative row folds into the orbit pair
    (orbit(r), orbit(c)): into is its pair, and (orow, ocol) the pairs in
    CSR order, whose pattern is symmetric, with transpose each pair's
    transposed one. The entries' coordinates are (row, col). src_a and
    src_g list A's and G's stored entries in those rows (_Commutes.group),
    at_a and at_g are their places among the folded entries, and g holds
    G's values at them.
    """

    def __init__(self, P, rep, orbit, A, G, src_a, src_g):
        n, no = P.shape[0], int(orbit.max()) + 1
        rows = np.repeat(np.arange(n, dtype=np.int32), np.diff(P.indptr))
        held = np.flatnonzero(rep[rows])
        self.row, self.col = rows[held], P.indices[held]
        key = orbit[self.row].astype(np.int64)
        key *= no
        key += orbit[self.col]
        order = np.argsort(key, kind="stable")
        key = key[order]
        first = np.ones(key.size, dtype=bool)
        first[1:] = key[1:] != key[:-1]
        self.into = np.empty(key.size, dtype=np.int32)
        self.into[order] = np.cumsum(first, dtype=np.int32) - 1
        self.orow, self.ocol = (x.astype(np.int32) for x in np.divmod(key[first], no))
        pairs = sp.csr_matrix((np.arange(1.0, self.orow.size + 1), self.ocol,
                               np.searchsorted(self.orow, np.arange(no + 1))), shape=(no, no))
        self.transpose = (pairs.T.tocsr().data - 1).astype(np.int32)
        # A's and G's entries in the representative rows, by their place there
        key = _keys(P)[held]
        self.src_a, self.g = src_a, G.data[src_g]
        self.at_a, self.at_g = (np.searchsorted(key, _keys(M)[src]) for M, src in
                                ((A, src_a), (G, src_g)))


class _Block:
    """One diagonal block B^T (sym(A) - sigma G) B of the pencil, on one
    sparsity pattern for every value of A's entries and every sigma, in
    pinned coordinates when it holds constant shifts (kernel).

    A and G commute with the group, so a block entry (a, b) is coef[r]^-1
    sum_c coef[c] M[r, c] over the columns c of orbit b in the row r that
    represents orbit a: each entry of the pencil's pattern (P, the union of
    A's, A^T's and G's) in a representative row adds, with its signed
    weight, into one entry of the block, that of its orbit pair (_Fold),
    and the block's pattern is the orbit pairs it holds. Scatter maps place
    A's weighted entries in it and the transpose map sends each of its
    entries to its transposed one; G's values and G's pattern on the block
    are scattered once. Each entry adds its value times the kernel's value
    at its column to one slot of s = sym(A) k, its row's at its column's
    component; the slots and the block's columns and row pointers are
    O(nnz) arrays, built once with no sort. block(a, sigma), a the values
    on A's canonical CSR pattern, scatters them and sums sym(A) - sigma G
    on the pattern, sym(A) = (A + A^T) / 2 whether or not A is symmetric,
    forms the rank-2m update from s with one weighted bincount, and keeps
    the block past its m pinned rows and columns, less its exact zeros off
    G's pattern: the nonzero set of sym(A) summed with G's pattern, so that
    SuperLU orders and fills it as it would the summed matrices, whatever
    sigma. A block without a kernel pins nothing. A probe is O(nnz) array
    work and one sparse matrix, the block. With the trivial group the
    block is the whole pencil.
    """

    def __init__(self, fold: _Fold, orbit: np.ndarray, basis, kernel):
        m = 0 if kernel is None else kernel.shape[1]
        held, coef = basis
        rank = np.cumsum(held, dtype=np.int32) - 1       # each held orbit's coordinate
        nb = int(rank[-1]) + 1
        keep = held[fold.orow] & held[fold.ocol]
        entry = np.cumsum(keep, dtype=np.int32) - 1      # each held pair's block entry
        entry[~keep] = -1
        rows, cols = rank[fold.orow[keep]], rank[fold.ocol[keep]]
        indptr = np.searchsorted(rows, np.arange(nb + 1))
        self.size = rows.size
        self.transpose = entry[fold.transpose[keep]]
        into = entry[fold.into]                          # the block entry of each folded entry
        on = np.flatnonzero(into >= 0)
        weight = np.zeros(into.size)
        weight[on] = coef[fold.col[on]] / coef[fold.row[on]]
        into_a = into[fold.at_a]
        src = np.flatnonzero(into_a >= 0)
        self.src, self.at_a, self.w = fold.src_a[src], into_a[src], weight[fold.at_a[src]]
        into_g = into[fold.at_g]
        src = np.flatnonzero(into_g >= 0)
        at_g = into_g[src]
        g = np.bincount(at_g, weights=fold.g[src] * weight[fold.at_g[src]], minlength=self.size)
        g += g[self.transpose]
        g *= 0.5
        self.kernel, self.dim = kernel, nb - m
        if kernel is not None:
            # (sym(A) k)[row, comp(col)] sums k[col] sym(A)_e over the entries
            # e of a row in CSR order, as a CSR product does
            comp = np.argmax(kernel != 0.0, axis=1)
            kcol = kernel[np.arange(nb), comp]
            self.slot = (rows * m + comp[cols]).astype(np.int32)
            self.kv = kcol[cols]
            # pinned coordinates z = x[m:] - x[comp] k[m:] / k[comp]
            self.comp, self.ratio = comp[m:], kcol[m:] / kcol[comp[m:]]
        # the block: the entries from start on (rows past the first m), their
        # columns shifted by m, negative for the first m columns; G's values
        # there, and G's pattern, whose entries the block keeps at any value
        self.start = indptr[m]
        self.cols = (cols[self.start:] - m).astype(np.int32)
        self.indptr = (indptr[m:] - self.start).astype(np.int32)
        on_g = np.zeros(self.size, dtype=bool)
        on_g[at_g] = True
        self.g, self.on_g, self.in_block = g[self.start:], on_g[self.start:], self.cols >= 0
        # the basis, to move vectors between full and block coordinates
        self.coords = np.flatnonzero(coef)
        self.at, self.coef = rank[orbit[self.coords]], coef[self.coords]

    def block(self, a: np.ndarray, sigma: float):
        """(M_pp, U, k^T s) of _Factor for the values a on A's pattern; U
        and k^T s are None without a kernel."""
        x = a[self.src]
        x *= self.w
        x = np.bincount(self.at_a, weights=x, minlength=self.size)
        s = x[self.transpose]                       # sym(A)
        s += x
        s *= 0.5
        U = kts = None
        if self.kernel is not None:
            nb, m = self.kernel.shape
            sk = np.bincount(self.slot, weights=s * self.kv, minlength=nb * m)
            U, kts = _pinned_update(sk.reshape(nb, m), self.kernel)
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
        return (sp.csc_matrix((values, self.cols[keep], indptr), shape=(self.dim,) * 2),
                U, kts)

    def restrict(self, x: np.ndarray) -> np.ndarray:
        """The block coordinates of a zero-mean x, pinned: lift's inverse."""
        xb = np.bincount(self.at, weights=self.coef * x[self.coords])
        if self.kernel is None:
            return xb
        m = self.kernel.shape[1]
        return xb[m:] - self.ratio * xb[self.comp]

    def lift(self, z: np.ndarray, out: np.ndarray) -> None:
        """Add B Pi W z to out."""
        y = z if self.kernel is None else _lift(self.kernel, z)
        out[self.coords] += self.coef * y[self.at]


class _Pinned:
    """sym(A) - sigma G on the zero-mean space, as the diagonal blocks of the
    largest group some of G's generators generate that A commutes with
    (_subgroup, _bases, _Block):
    the four blocks of the inversion and the reflection, the two of the
    inversion alone, or the one block of the trivial group. The blocks'
    coordinates, concatenated, are the pencil's: gram, restrict and lift
    act on their direct sum.

    The pattern P is the union of A's, A^T's and G's; the blocks fold the
    entries of its representative rows (_Fold), among which A's and G's
    stored entries are placed. G.mirror lists the candidates, whose group
    must map G to itself, else this raises ValueError. The subgroup is
    measured once (_subgroup), the whole group first, each element of the
    candidates once (_Commutes): its elements map A's pattern onto itself
    exactly, and A's values and each array in also (values on A's pattern)
    to within 1e-13 of their largest entry, read on the representative
    rows, whose images are every row. What the values leave of that defect
    enters each shift's rounding tests (perturbation). G must be
    symmetric.
    """

    def __init__(self, A: sp.csr_matrix, G: SparseOp, also: tuple = ()):
        n = self.n = G.dim
        a = _numbered(A)
        # positive sums: nothing cancels
        P = a + a.T + _numbered(G.matrix)
        P.sort_indices()
        self.width = int(np.diff(P.indptr).max())
        group = _group(G.mirror, n)
        g_commutes = _Commutes(G.matrix, (G.matrix.data,))
        g_images = g_commutes.group(group)
        # A's and G's entries in the representative rows, and their images;
        # a subgroup has more of those rows, where G is measured as well
        mirror, members, elements, self.images = _subgroup(
            _Commutes(A, (A.data,) + also), G.mirror, group)
        if g_images is not None and len(members) < len(group):
            g_images = g_commutes.group(members)
        if g_images is None:
            raise ValueError("the Gram form does not commute with its mirror")
        rep, orbit, bases = _bases(mirror, elements, G.kernel)
        self.g_defect = _defect(G.matrix.data, g_images)
        fold = _Fold(P, rep, orbit, A, G.matrix, self.images[0], g_images[0])
        self.blocks = [_Block(fold, orbit, basis, kernel) for basis, kernel in bases]
        ends = np.cumsum([b.dim for b in self.blocks])
        # each block's coordinates in the direct sum
        self.slices = [slice(e - b.dim, e) for b, e in zip(self.blocks, ends)]

    def perturbation(self, a: np.ndarray, sigma: float) -> float:
        """A bound on the 2-norm of what the blocks change in sym(A) - sigma G,
        for the values a on A's pattern; 0 with the trivial group. Folded
        from the representative rows, the blocks are exactly those of the
        pencil that repeats those rows over each orbit by the group
        (averaged over an element that fixes the row), which commutes with
        the group and differs from this one, entry by entry of P, by at most
        defect_A + |sigma| defect_G (_defect). A row of P holds at most width
        entries. Refilled values (BlendPattern) past 1e-13 raise ValueError."""
        if not self.images[1]:
            return 0.0
        defect = _defect(a, self.images)
        if not _within(defect, a):
            raise ValueError("the operator's values do not commute with its blocks' group")
        return self.width * (defect + abs(sigma) * self.g_defect)

    def gram(self) -> sp.csr_matrix:
        """G on the direct sum of the blocks, G_pp, in pinned coordinates:
        each block's entries on G's pattern, its columns and row pointers
        offset by the blocks before it."""
        data, cols, indptr, nnz = [], [], [np.zeros(1, dtype=np.int64)], 0
        for b, part in zip(self.blocks, self.slices):
            keep = np.flatnonzero(b.on_g & b.in_block)
            data.append(b.g[keep])
            cols.append(b.cols[keep] + part.start)
            indptr.append(np.searchsorted(keep, b.indptr[1:]) + nnz)
            nnz += keep.size
        return sp.csr_matrix((np.concatenate(data), np.concatenate(cols), np.concatenate(indptr)),
                             shape=(self.slices[-1].stop,) * 2)

    def restrict(self, x: np.ndarray) -> np.ndarray:
        return np.concatenate([b.restrict(x) for b in self.blocks])

    def lift(self, z: np.ndarray) -> np.ndarray:
        """x = sum over blocks of B Pi W z_b."""
        x = np.zeros(self.n)
        for b, part in zip(self.blocks, self.slices):
            b.lift(z[part], x)
        return x


class _Factor:
    """LDL^T of one block of _Shift, with its capacitance when the block
    holds the constant shifts; a factorization that yields no inertia
    raises (_ldlt). eps, _Pinned.perturbation, widens the rounding tests."""

    def __init__(self, block: _Block, a: np.ndarray, sigma: float, eps: float):
        M_pp, U, kts = block.block(a, sigma)
        lu = _ldlt(M_pp)
        del M_pp                                    # before lu.U copies the factor
        self.nnz, self._solve, self.Y = int(lu.nnz), lu.solve, None
        if U is not None:
            m = kts.shape[0]
            XU = lu.solve(U)
            Q = np.zeros((2 * m, 2 * m))            # -C^-1
            Q[:m, m:] = Q[m:, :m] = np.eye(m)
            Q[m:, m:] = kts
            Q -= U.T @ XU
            Q = 0.5 * (Q + Q.T)
            F = np.linalg.solve(Q[:m, :m], Q[:m, m:])
            self.capacitance = np.stack([Q[:m, :m], Q[m:, m:] - Q[m:, :m] @ F])
            self.Y = np.hstack([XU[:, :m], XU[:, m:] - XU[:, :m] @ F])

        # lu.U makes the copies of L and U together; the factor keeps them
        # and nothing reads them after this, so they are overwritten in place
        Lf, Uf = lu.L, lu.U
        d = Uf.diagonal()
        ad = np.abs(d)
        np.abs(Lf.data, out=Lf.data)
        np.abs(Uf.data, out=Uf.data)
        if self.Y is not None:
            Yp = np.abs(self.Y)
            RY = Lf @ (Uf @ Yp)                     # R |Y| = |L| (|U| |Y|)
        Lf.data **= 2
        unit = int(np.diff(Uf.indptr).max()) * 2.0 ** -53     # w u
        self.tests = [(ad.min(), unit / (1 - unit) * (Lf @ ad).max() + eps)]
        self.negative = int(np.sum(d < 0))
        if self.Y is not None:
            unit *= 3
            q = np.linalg.eigvalsh(self.capacitance)
            YRY = np.stack([Yp[:, j].T @ RY[:, j] for j in (slice(0, m), slice(m, None))])
            # the 2-norm of each block is its largest singular value
            bounds = unit / (1 - unit) * np.linalg.svd(YRY, compute_uv=False)[:, 0]
            if eps:
                bounds += eps * np.array([np.linalg.norm(self.Y[:, j], 2) ** 2
                                          for j in (slice(0, m), slice(m, None))])
            self.tests += zip(np.abs(q).min(axis=1), bounds)
            self.negative += int(np.sum(q < 0)) - m

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
    _Pinned (_Factor), in pinned coordinates.

    _Pinned gives the trivial group one block, the inversion two and the
    inversion with the reflection four, of which the first two each hold
    one component's constant shift (m = 1), each copy of what follows. In
    a block that holds constant shifts, with its first m coordinates
    pinned, x = Pi W z (Pi projects off ker G) and the
    restricted matrix is S = M_pp + U C U^T: M_pp = (sym A - sigma G)[m:, m:]
    = L D L^T, as _Block builds it, with U and k^T s in C = [[k^T s, -I],
    [-I, 0]] from _pinned_update. With X = M_pp^-1 and Q = -C^-1 - U^T X U,
    S has neg(D) + neg(Q) - m negative eigenvalues (Haynsworth) and S^-1 =
    X + X U Q^-1 U^T X (Woodbury), with Q block-diagonalized: T^T Q T =
    diag(Q11, Z), T = [[I, -Q11^-1 Q12], [0, I]], Y = X U T. A block
    without a kernel is its own LDL^T, with neg(D) negative eigenvalues.
    The counts add over the blocks. A sign is trusted when it clears a
    rounding bound: a pivot gamma_w max_k R_kk (LDL^T backward error, R =
    |L||D||L^T|, w the longest row of L); an eigenvalue of Q11 or Z
    gamma_3w || |Y_j|^T R |Y_j| ||, that error's first-order effect, solves
    included. A split pencil's blocks are exactly those of a pencil within
    eps of this one in 2-norm (_Pinned.perturbation), a perturbation F of
    each block's M_pp: a pivot's bound adds eps, and a capacitance block's
    eps ||Y_j||^2, the first-order bound of Y_j^T F Y_j. Each factor's tests
    hold its (smallest magnitude, bound) pairs, in that order; the count is
    trusted when every block's test passes, and min_pivot and margin report
    the one that came closest.
    Where a factorization yields no inertia (a zero pivot, pivots off the
    diagonal, a singular Q11) construction does not raise: negative -1,
    min_pivot 0, margin nan, and the blocks after it are not factored.

    A sign probe costs the factorizations, one solve with 2m right-hand
    sides, O(nnz) work on each factor and a few m x m dense calls: with U =
    D L^T, D is U's diagonal, R_kk = sum_i l_ki^2 |d_i| and R |Y| = |L|
    (|U| |Y|), three compiled products with the factor's own copies of L
    and U, overwritten in place, so no temporary is the factor's size. Of
    each factor the shift keeps only its solve and nnz, so nothing later
    reads those copies as L and U. They are not freed with the rest: the
    bound solve keeps the SuperLU object, on which scipy caches both
    copies, so each block's copies stay allocated beside SuperLU's own
    factor while the shift or its solves live. The Woodbury operator Cinv
    is built on the first solve(), so a sign probe never builds it.
    """

    def __init__(self, pinned: _Pinned, a: np.ndarray, sigma: float):
        self.slices = pinned.slices
        try:
            eps = pinned.perturbation(a, sigma)
            self.factors = [_Factor(block, a, sigma, eps) for block in pinned.blocks]
        except (RuntimeError, np.linalg.LinAlgError):      # no inertia to read
            self.negative, self.min_pivot, self.margin, self.trusted = -1, 0.0, np.nan, False
            return
        tests = [t for f in self.factors for t in f.tests]
        self.negative = sum(f.negative for f in self.factors)
        self.nnz = sum(f.nnz for f in self.factors)
        self.min_pivot, self.margin = map(float, min(tests, key=lambda t: t[0] / t[1]))
        self.trusted = all(p > b for p, b in tests)

    def solve(self, r: np.ndarray) -> np.ndarray:
        """S^-1 r in pinned coordinates, block by block."""
        x = np.empty_like(r)
        for f, part in zip(self.factors, self.slices):
            x[part] = f.solve(r[part])
        return x


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
    re-shift and stopping test, the last on the full pencil. The block
    solves never mix the blocks, so a block that the start vector leaves
    exactly zero starts from a draw of default_rng(seed) instead, at the
    start vector's mean square per coordinate.
    """
    tol, maxiter = _RTOL, _MAXITER
    A, Asym = opMatrix.matrix, opMatrix.sym_matrix
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(G.dim) if x0 is None else x0
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
    # the Lanczos never reaches a block that x leaves exactly zero, as a
    # symmetric x0 leaves all but the first: such a block starts from the
    # seed's draw
    scale = np.sqrt(z @ z / z.size)
    for part in pinned.slices:
        if not z[part].any():
            z[part] = scale * rng.standard_normal(part.stop - part.start)
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
    shift (below gamma, or the one shift with gamma alone below it), the
    factorizations (the re-shift included), the factor's nonzeros and, as
    iterations, the shifted solves. An x0 of the wrong shape, or with no
    zero-mean part above 1e-12 of its norm (a constant shift), raises
    ValueError.
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
    one sparse matrix per block it factors, and a SparseOp of A(beta) only
    when it falls back to a value solve. op must share the kind, lattice and
    model (equal by value) of the operator the pattern was built from. The
    pattern splits by the largest group of G's candidates under which A_0,
    A_1 and that operator's A(beta) all commute (_Pinned measures it), so
    the operator it was built from can always be probed; a refill whose
    values break that group raises ValueError (_Pinned.perturbation).
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
        self.a0, a1 = A0.data[keep], A1.data[keep]
        self.slope = a1 - self.a0
        del A1
        self.site = rows // G.ncomp
        # with beta mapped to itself, A(beta) commutes when A_0 and A_1 do
        self.pinned = _Pinned(self.matrix(op).matrix, G, also=(self.a0, a1))

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
