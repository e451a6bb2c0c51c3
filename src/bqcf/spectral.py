"""Sparse assembly and coercivity constants via a deflated symmetric pencil.

The coercivity constant gamma = inf <L u, u> / ||Du||^2 over zero-mean u is
the minimum eigenvalue of the pencil (sym(A), G) on the orthogonal
complement of ker(G), where A is the assembled operator (inner-product
weights baked in) and G the Gram matrix of ||Du||^2. <L u, u> = <sym(L) u, u>
identically, so the nonsymmetric force-based operator needs no special
treatment beyond symmetrizing.

The zero-mean space has one coordinate system: the first site's m
coordinates pinned, x = Pi W z, where sym(A) - sigma G restricts to its
trailing block plus a rank-2m term (_pinned_update). One sparse
factorization of it answers both questions (_Shift): an LDL^T plus a small
capacitance. "Is gamma > tau?" is read off its inertia at sigma = tau
(Sylvester; is_coercive); gamma itself comes from shift-invert Lanczos on
it, with sigma certified below gamma by a count of zero (Ericsson and
Ruhe's spectral transformation). Both build the factored block the same
way (_Pinned): values refilled on one pattern, the union of sym(A)'s and
G's, fixed for every sigma. A blended operator is affine in its weight, so
a threshold scan refills that pattern at each blend (BlendPattern) and
assembles nothing per probe. A dense eigh of the same pinned pencil serves
small problems and cross-checks the sparse one. All paths check that
ker(G) is the shift kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional

import numpy as np
import scipy.io
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import ops1d, ops2d
from .lattice1d import Chain1D, inner
from .lattice2d import TriLattice2D, inner2d

__all__ = [
    "METHODS",
    "BlendPattern",
    "InertiaReport",
    "SparseOp",
    "StabilityReport",
    "assemble",
    "check_assembly",
    "coercivity",
    "export_matrixmarket",
    "gram_D",
    "is_coercive",
]

METHODS = ("auto", "dense", "iterative")

# dims up to this take the dense path under method "auto": on 1D and 2D
# operators the dense and shift-invert solves cost the same near dim 400
_DENSE_THRESHOLD = 400


@dataclass(frozen=True)
class SparseOp:
    """Assembled operator: a square CSR matrix with duplicates summed.

    A set symmetric flag is checked at construction. kernel, when present,
    holds an orthonormal dense basis of the nullspace of the represented
    form (it defines the zero-mean space of the pencil).
    """

    matrix: sp.csr_matrix = field(repr=False)
    symmetric: bool = False
    kernel: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        m = self.matrix
        m.sum_duplicates()
        if self.symmetric:
            skew = float(abs(m - m.T).max()) if m.nnz else 0.0
            scale = float(abs(m).max()) if m.nnz else 1.0
            if skew > 1e-12 * max(scale, 1.0):
                raise ValueError(f"symmetric flag set but max |A - A^T| = {skew:g}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def sym_matrix(self) -> sp.csr_matrix:
        m = self.matrix
        return m if self.symmetric else ((m + m.T) * 0.5).tocsr()


@dataclass(frozen=True)
class StabilityReport:
    """Result of a pencil solve: gamma and its certified minimizer. shift,
    factorizations and nnz describe the iterative path's sparse factor."""

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
    "iterative") when they could not; negative is -1 when the factorization
    hit an exactly zero pivot or left the diagonal. No eigenvalue is reported.
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
    Euclidean arithmetic.
    """
    if isinstance(op, ops2d.Op2D) and op.kind == "ltilde":
        # L-tilde is defined by its quadratic form and has no stencil
        return ops2d.assemble_ltilde(op.lattice, op.model, op.blend)
    return SparseOp(*_stencil(op))


def _stencil(op):
    """(CSR matrix, symmetric flag) of op's stencil triplets, duplicates summed."""
    if isinstance(op, ops1d.Op1D):
        dim, rows, cols, vals, symmetric = ops1d.assemble_triplets(op)
    elif isinstance(op, ops2d.Op2D):
        dim, rows, cols, vals, symmetric = ops2d.assemble_triplets(op)
    else:
        raise TypeError(f"cannot assemble {type(op).__name__}")
    return sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim)), symmetric


def check_assembly(op, sop: SparseOp, ntrials: int = 20, seed: int = 0) -> float:
    """Max relative defect of u^T A u against the weighted form, random u.

    L-tilde is checked against its defining form, ops2d.apply_ltilde.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    A = sop.matrix
    for _ in range(ntrials):
        x = rng.standard_normal(sop.dim)
        if isinstance(op, ops1d.Op1D):
            ref = inner(op.chain, ops1d.apply_op(op, x), x)
        else:
            n = 2 * op.lattice.N
            u = x.reshape(n, n, 2)
            if op.kind == "ltilde":
                ref = ops2d.apply_ltilde(op.lattice, op.model, op.blend, u)
            else:
                ref = inner2d(op.lattice, ops2d.apply2d(op, u), u)
        got = float(x @ (A @ x))
        worst = max(worst, abs(got - ref) / (abs(ref) + 1.0))
    return worst


def gram_D(domain) -> SparseOp:
    """Gram matrix of ||Du||^2 (symmetric PSD), with the orthonormal basis
    of its kernel: the constant shifts, one unit block per site.

    It is the nearest-neighbor stencil with unit stiffness: the 1D circulant
    (2, -1, -1) / eps, and in 2D the nearest bond shell with identity
    Hessians (the eps^2 weight and the 1/eps^2 of the quotients cancel).
    """
    if isinstance(domain, Chain1D):
        n = domain.nsites
        rows, cols, vals = ops1d._circulant_triplets(n, (0, 1, -1), (2.0, -1.0, -1.0))
        return SparseOp(sp.csr_matrix((vals / domain.eps, (rows, cols)), shape=(n, n)),
                        symmetric=True, kernel=np.ones((n, 1)) / np.sqrt(n))
    if isinstance(domain, TriLattice2D):
        nsites = (2 * domain.N) ** 2
        rows, cols, vals = ops2d._block_triplets(
            domain, ops2d._blocks_shell(ops2d._NN, (np.eye(2),) * 3, 1.0))
        G = sp.csr_matrix((vals, (rows, cols)), shape=(2 * nsites, 2 * nsites))
        return SparseOp(G, symmetric=True,
                        kernel=np.kron(np.ones((nsites, 1)), np.eye(2)) / np.sqrt(nsites))
    raise TypeError(f"no Gram form for {type(domain).__name__}")


def export_matrixmarket(sop: SparseOp, path: str) -> None:
    """Write the assembled matrix in MatrixMarket coordinate format."""
    scipy.io.mmwrite(path, sop.matrix.tocoo())


def _project_out(kernel: np.ndarray, v: np.ndarray) -> np.ndarray:
    return v - kernel @ (kernel.T @ v)


def _pinned_update(Asym: sp.csr_matrix, kernel: np.ndarray):
    """U = [k_p, s_p] and k^T s, s = sym(A) k: with the first site's m
    coordinates pinned, x = Pi W z and W^T Pi (sym A - sigma G) Pi W =
    (sym A - sigma G)[m:, m:] + U C U^T, C = [[k^T s, -I], [-I, 0]]."""
    m = kernel.shape[1]
    s = Asym @ kernel
    return np.hstack([kernel[m:], s[m:]]), kernel.T @ s


def _dense_gamma(Asym: sp.csr_matrix, G: sp.csr_matrix, kernel: np.ndarray):
    """Dense eigh of the pinned pencil (S, G[m:, m:]) at sigma = 0, lifted.

    k^T s is symmetric, so U C U^T = k_p P^T + P k_p^T with P = k_p (k^T s)
    / 2 - s_p: m rank-2 updates of the upper triangle, in place."""
    m = kernel.shape[1]
    U, kts = _pinned_update(Asym, kernel)
    kp = U[:, :m]
    P = 0.5 * (kp @ kts) - U[:, m:]
    S = Asym[m:, m:].toarray(order="F")
    for j in range(m):
        S = scipy.linalg.blas.dsyr2(1.0, kp[:, j], P[:, j], lower=0, a=S, overwrite_a=1)
    # LAPACK's upper-triangle reduction runs faster here than the lower one
    w, y = scipy.linalg.eigh(S, G[m:, m:].toarray(order="F"), lower=False,
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


def _scatter(key: np.ndarray, M: sp.csr_matrix) -> Optional[np.ndarray]:
    """Where each stored entry of M sits in the pattern with sorted keys key;
    None when M fills the pattern."""
    if M.nnz == key.size:
        return None
    return np.searchsorted(key, _keys(M)).astype(np.int32)


def _spread(values: np.ndarray, at: Optional[np.ndarray], size: int) -> np.ndarray:
    """values scattered to the positions at of a pattern of size entries."""
    if at is None:
        return values
    out = np.zeros(size, dtype=values.dtype)
    out[at] = values
    return out


class _Pinned:
    """sym(A) - sigma G on the zero-mean space in pinned coordinates, on one
    sparsity pattern for every value of A's entries and every sigma.

    The pattern is the union of A's, A^T's and G's. Scatter maps place A's
    and G's stored entries in it (_scatter); the transpose map sends each
    of its entries to its mirror entry, and is None when A is symmetric.
    block(a, sigma), a the values on A's canonical CSR pattern, sums sym(A)
    - sigma G on the pattern and keeps the block past the first site's m
    rows and columns, less its exact zeros off G's pattern: the nonzero set
    of sym(A) summed with G's pattern, so that SuperLU orders and fills it
    as it would the summed matrices, whatever sigma.
    """

    def __init__(self, A: sp.csr_matrix, G: sp.csr_matrix, kernel: np.ndarray,
                 symmetric: bool):
        self.kernel, self.g = kernel, G.data
        a, g = _numbered(A), _numbered(G)
        # positive sums: nothing cancels
        P = a + g if symmetric else a + a.T + g + g.T
        P.sort_indices()
        key = _keys(P)
        self.at_a, self.at_g = _scatter(key, A), _scatter(key, G)
        # where A or G fills the pattern, its arrays serve
        P = A if self.at_a is None else G if self.at_g is None else P
        self.indptr = P.indptr.astype(np.int32, copy=False)
        self.indices = P.indices.astype(np.int32, copy=False)
        # P is structurally symmetric: numbered P^T holds each mirror's number
        self.transpose = None if symmetric else (
            _numbered(P).T.tocsr().data - 1).astype(np.int32)

    def block(self, a: np.ndarray, sigma: float):
        """(M_pp, U, k^T s) of _Shift for the values a on A's pattern."""
        n, m = self.kernel.shape
        size = self.indices.size
        x = _spread(a, self.at_a, size)
        if self.transpose is None:
            s = x
        else:                                       # sym(A)
            s = x[self.transpose]
            s += x
            s *= 0.5
        U, kts = _pinned_update(sp.csr_matrix((s, self.indices, self.indptr), shape=(n, n)),
                                self.kernel)
        # rows past the first m, less the first m columns and the zeros off G
        start = self.indptr[m]
        s, cols = s[start:], self.indices[start:]
        keep = cols >= m
        if self.at_g is not None:
            on_g = _spread(np.ones(self.g.size, dtype=bool), self.at_g, size)
            keep &= (s != 0.0) | on_g[start:]
        values = s[keep]
        values -= sigma * _spread(self.g, self.at_g, size)[start:][keep]
        indptr = np.concatenate([[0], np.cumsum(keep)])[self.indptr[m:] - start]
        # sym(A) - sigma G is symmetric: its CSR arrays are its CSC arrays
        return (sp.csc_matrix((values, cols[keep] - m, indptr), shape=(n - m, n - m)),
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
    I]], Y = X U T. A sign is trusted when it clears a rounding bound: a pivot gamma_w max_k R_kk (LDL^T backward error, R =
    |L||D||L^T|, w the longest row of L); an eigenvalue of Q11 or Z gamma_3w
    || |Y_j|^T R |Y_j| ||, that error's first-order effect, solves included.
    min_pivot and margin report the test that came closest.
    """

    def __init__(self, pinned: _Pinned, a: np.ndarray, sigma: float):
        M_pp, U, kts = pinned.block(a, sigma)
        m = kts.shape[0]
        self.lu = _ldlt(M_pp)
        del M_pp                                    # before lu.U copies the factor
        self.nnz = int(self.lu.nnz)
        XU = self.lu.solve(U)
        eye = np.eye(m)
        Q = np.block([[np.zeros((m, m)), eye], [eye, kts]]) - U.T @ XU
        Q = 0.5 * (Q + Q.T)
        F = np.linalg.solve(Q[:m, :m], Q[:m, m:])
        blocks = (Q[:m, :m], Q[m:, m:] - Q[m:, :m] @ F)
        self.Y = np.hstack([XU[:, :m], XU[:, m:] - XU[:, :m] @ F])
        self.Cinv = scipy.linalg.block_diag(*map(np.linalg.inv, blocks))

        # R = |U_f|^T |D|^-1 |U_f| from U_f = D L^T; the factor keeps the
        # copy lu.U makes, and nothing reads it after this, so it is reused
        Uf = self.lu.U
        d = Uf.diagonal()
        np.abs(Uf.data, out=Uf.data)
        Yp = np.abs(self.Y)
        RY = Uf.T @ ((Uf @ Yp) / np.abs(d)[:, None])
        Uf.data **= 2
        unit = int(np.diff(Uf.indptr).max()) * 2.0 ** -53     # w u
        tests = [(np.abs(d).min(), unit / (1 - unit) * (Uf.T @ (1.0 / np.abs(d))).max())]
        unit *= 3
        q = [np.linalg.eigvalsh(B) for B in blocks]
        for j in range(2):
            cols = slice(j * m, (j + 1) * m)
            tests.append((np.abs(q[j]).min(), unit / (1 - unit)
                          * np.linalg.norm(Yp[:, cols].T @ RY[:, cols], 2)))
        self.negative = int(np.sum(d < 0) + np.sum(q[0] < 0) + np.sum(q[1] < 0)) - m
        self.min_pivot, self.margin = map(float, min(tests, key=lambda t: t[0] / t[1]))
        self.trusted = all(p > b for p, b in tests)

    def solve(self, r: np.ndarray) -> np.ndarray:
        """S^-1 r in pinned coordinates."""
        return self.lu.solve(r) + self.Y @ (self.Cinv @ (self.Y.T @ r))


def _lift(kernel: np.ndarray, z: np.ndarray) -> np.ndarray:
    """x = Pi W z."""
    return _project_out(kernel, np.concatenate([np.zeros(kernel.shape[1]), z]))


def _rayleigh_residual(Asym, G, kernel: np.ndarray, x: np.ndarray):
    # sym(A) of the force-based operator does not annihilate constants, so
    # the residual lives on the deflated pencil: project it off ker(G)
    Ax = _project_out(kernel, Asym @ x)
    Gx = G @ x
    rho = float(x @ Ax) / float(x @ Gx)
    denom = np.linalg.norm(Ax) + abs(rho) * np.linalg.norm(Gx)
    return rho, float(np.linalg.norm(Ax - rho * Gx)) / max(denom, 1e-300)


def _iterative_gamma(Asym: sp.csr_matrix, G: sp.csr_matrix, kernel: np.ndarray,
                     tol: float, maxiter: int, x0: Optional[np.ndarray], seed: int):
    """Shift-invert Lanczos on the pinned pencil (S, G_pp), sigma below gamma.

    The start vector's Rayleigh quotient rho bounds gamma from above; sigma
    starts at min(2 rho, 0) and steps down until _Shift counts no eigenvalue
    below it. ARPACK's tolerance tightens until the lifted vector meets tol;
    maxiter caps the number of shifted solves.
    """
    n, m = kernel.shape
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) if x0 is None else np.asarray(x0, dtype=float)
    x = _project_out(kernel, x)
    x /= np.linalg.norm(x)
    rho, res = _rayleigh_residual(Asym, G, kernel, x)
    report = dict(method="iterative", iterations=0, factorizations=0)
    sigma, step, shift = min(2.0 * rho, 0.0), 0.5 * abs(rho) or 1.0, None
    pinned = _Pinned(Asym, G, kernel, symmetric=True)
    while not res <= tol and shift is None:        # a NaN residual enters too
        try:
            shift = _Shift(pinned, Asym.data, sigma)
        except (RuntimeError, np.linalg.LinAlgError):   # a zero pivot
            pass
        report["factorizations"] += 1
        if shift is None or not shift.trusted or shift.negative:
            shift, sigma, step = None, sigma - step, 4.0 * step
            if not np.isfinite(sigma):
                raise RuntimeError("no shift below the spectrum: the pencil is not finite")

    def opinv(r):
        report["iterations"] += 1
        if report["iterations"] > maxiter:
            raise RuntimeError(f"pencil iteration did not converge in {maxiter} steps "
                               f"(relative residual {res:.3e}, rho {rho:.6e})")
        return shift.solve(r)

    Gpp, arpack_tol = G[m:, m:], tol
    OPinv = spla.LinearOperator(Gpp.shape, matvec=opinv, dtype=float)
    while not res <= tol:
        # shift-invert mode reads only the shape of its first argument; v0
        # holds x in pinned coordinates, each site relative to the first
        _, Z = spla.eigsh(Gpp, k=1, M=Gpp, sigma=sigma, which="LM", OPinv=OPinv,
                          v0=(x[m:].reshape(-1, m) - x[:m]).ravel(), tol=arpack_tol)
        x, arpack_tol = _lift(kernel, Z[:, 0]), 1e-2 * arpack_tol
        x /= np.linalg.norm(x)
        rho, res = _rayleigh_residual(Asym, G, kernel, x)
    if shift is not None:
        report.update(shift=sigma, nnz=shift.nnz)
    return StabilityReport(gamma=rho, minimizer=x, residual=res, **report)


def coercivity(opMatrix: SparseOp, G: SparseOp, method: str = "auto",
               dense_threshold: Optional[int] = None, tol: float = 1e-8,
               maxiter: int = 5000, x0: Optional[np.ndarray] = None,
               seed: int = 7) -> StabilityReport:
    """Minimum eigenvalue of the pencil (sym(A), G) off the kernel of G.

    method "auto" takes the dense path for dim <= dense_threshold (default
    _DENSE_THRESHOLD) and shift-invert Lanczos (_iterative_gamma) above it;
    "dense" / "iterative" force a path. gamma is the Rayleigh quotient of
    the minimizer. The iterative path raises on non-convergence; its report
    gives the shift, the factorizations, the factor's nonzeros and, as
    iterations, the shifted solves.
    """
    kernel = _pencil_kernel(opMatrix.dim, G)
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if method == "auto":
        limit = _DENSE_THRESHOLD if dense_threshold is None else dense_threshold
        method = "dense" if opMatrix.dim <= limit else "iterative"

    Asym = opMatrix.sym_matrix
    Gm = G.matrix
    if method == "iterative":
        return _iterative_gamma(Asym, Gm, kernel, tol, maxiter, x0, seed)
    _, x = _dense_gamma(Asym, Gm, kernel)
    gamma, res = _rayleigh_residual(Asym, Gm, kernel, x)
    return StabilityReport(gamma=gamma, minimizer=x, method="dense",
                           residual=res, iterations=0)


def _pencil_kernel(dim: int, G: SparseOp) -> np.ndarray:
    """G's kernel basis, checked to be the shift kernel: its rows repeat with
    period m, so pinning the first site's m coordinates leaves a basis of
    the zero-mean space."""
    if dim != G.dim:
        raise ValueError(f"dimension mismatch: {dim} vs {G.dim}")
    if G.kernel is None:
        raise ValueError("Gram operator lacks its kernel basis")
    kernel = G.kernel
    m = kernel.shape[1]
    if kernel.shape[0] != G.dim or m >= G.dim:
        raise ValueError("kernel dimension mismatch")
    leak = float(np.abs(kernel[m:] - kernel[:-m]).max())
    if leak > 1e-12 * float(np.abs(kernel).max()):
        raise ValueError(f"difference basis is not orthogonal to the kernel "
                         f"(max |kernel^T P| = {leak:.3e})")
    return kernel


def _ldlt(M: sp.csc_matrix):
    """splu of symmetric M under a symmetric fill-reducing ordering with
    diagonal pivots only, so that L diag(U) L^T is a congruence of M.
    SuperLU raises RuntimeError on an exactly zero pivot; a factorization
    that left the diagonal raises LinAlgError."""
    lu = spla.splu(M, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                   options={"SymmetricMode": True})
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise np.linalg.LinAlgError("LU pivoted off the diagonal; the factorization"
                                    " is not a congruence and its inertia is void")
    return lu


def is_coercive(opMatrix: SparseOp, G: SparseOp, tau: float, *,
                dense_threshold: Optional[int] = None, seed: int = 7) -> InertiaReport:
    """Decide gamma > tau: sym(A) - tau G has no negative or zero eigenvalue
    on the zero-mean space, counted by _Shift (Sylvester, Haynsworth).

    When a pivot or capacitance eigenvalue misses its rounding bound, or the
    factorization fails (_ldlt), the pencil is solved by coercivity (same
    dense_threshold and seed) and the report says so in its method. A tau
    within rounding of gamma can still clear the bounds; the sign there is
    whatever rounding made it.
    """
    pinned = _Pinned(opMatrix.matrix, G.matrix, _pencil_kernel(opMatrix.dim, G),
                     opMatrix.symmetric)
    return _sign(pinned, opMatrix, G, tau, dense_threshold, seed)


def _sign(pinned: _Pinned, opMatrix: SparseOp, G: SparseOp, tau: float,
          dense_threshold: Optional[int], seed: int) -> InertiaReport:
    """is_coercive(opMatrix, G, tau), its block refilled on pinned, a
    pattern built for opMatrix's."""
    try:
        shift = _Shift(pinned, opMatrix.matrix.data, tau)
    except (RuntimeError, np.linalg.LinAlgError):
        # a zero pivot, or pivots off the diagonal: no inertia to read
        negative, min_pivot, margin = -1, 0.0, float("nan")
    else:
        negative, min_pivot, margin = shift.negative, shift.min_pivot, shift.margin
        trusted = shift.trusted
        del shift                                   # before any value solve
        if trusted:
            return InertiaReport(coercive=negative == 0, negative=negative,
                                 min_pivot=min_pivot, margin=margin,
                                 method="inertia")
    rep = coercivity(opMatrix, G, dense_threshold=dense_threshold, seed=seed)
    return InertiaReport(coercive=rep.gamma > tau, negative=negative,
                         min_pivot=min_pivot, margin=margin, method=rep.method)


class BlendPattern:
    """is_coercive for a blended operator at every blend of its lattice, from
    one assembly: a threshold scan builds it once per lattice size.

    A blended stencil is affine in the weight, row by row: A(beta) = A_0 +
    diag(beta at each row's site) (A_1 - A_0), with A_0 and A_1 the stencil
    at beta = 0 and beta = 1 on one CSR pattern (a scaled row stores its
    zeros). is_coercive(op) refills the values at op's blend and factors
    them on a _Pinned pattern, with no assembly, symmetrization or format
    conversion; op must share the kind, lattice and model (equal by value)
    of the operator the pattern was built from.
    """

    def __init__(self, op, G: SparseOp):
        if op.blend is None:
            raise ValueError(f"kind {op.kind!r} has no blend to refill")
        beta = op.blend.beta
        A0, A1 = (_stencil(replace(op, blend=replace(op.blend, beta=np.full_like(beta, b))))[0]
                  for b in (0.0, 1.0))
        if not (np.array_equal(A0.indptr, A1.indptr)
                and np.array_equal(A0.indices, A1.indices)):
            raise ValueError(f"the stencil of kind {op.kind!r} changes its pattern with beta")
        self.source, self.model, self.G = (type(op), op.kind, beta.shape), op.model, G
        kernel = _pencil_kernel(A0.shape[0], G)
        self.indices, self.indptr = A0.indices, A0.indptr
        self.a0, self.slope = A0.data, A1.data - A0.data
        del A1
        rows = np.repeat(np.arange(A0.shape[0], dtype=np.int32), np.diff(A0.indptr))
        self.site = rows // kernel.shape[1]
        self.pinned = _Pinned(A0, G.matrix, kernel, symmetric=False)

    def matrix(self, op) -> SparseOp:
        """A(beta) at op's blend, on the pattern."""
        if (type(op), op.kind, op.blend.beta.shape) != self.source or op.model != self.model:
            raise ValueError("operator differs in kind, lattice or model from the pattern's")
        a = op.blend.beta.ravel()[self.site]
        a *= self.slope
        a += self.a0
        return SparseOp(sp.csr_matrix((a, self.indices, self.indptr), shape=(self.G.dim,) * 2))

    def is_coercive(self, op, tau: float, *, dense_threshold: Optional[int] = None,
                    seed: int = 7) -> InertiaReport:
        """spectral.is_coercive(assemble(op), G, tau) on the pattern."""
        return _sign(self.pinned, self.matrix(op), self.G, tau, dense_threshold, seed)
