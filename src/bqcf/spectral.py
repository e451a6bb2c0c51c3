"""Sparse assembly and coercivity constants via a deflated symmetric pencil.

The coercivity constant gamma = inf <L u, u> / ||Du||^2 over zero-mean u is
the minimum eigenvalue of the pencil (sym(A), G) on the orthogonal
complement of ker(G), where A is the assembled operator (inner-product
weights baked in) and G the Gram matrix of ||Du||^2. <L u, u> = <sym(L) u, u>
identically, so the nonsymmetric force-based operator needs no special
treatment beyond symmetrizing.

Two value paths: a dense generalized symmetric solve after deflating the
kernel with its one or two Householder reflectors, and block LOBPCG for
larger problems, preconditioned by an exact solve of G: one sparse LDL^T of
G with one site pinned, which removes exactly ker(G).

The sign question "is gamma > tau?" needs no eigenvalue: by Sylvester's law
of inertia it is answered by the signs of the pivots of an LDL^T factor of
sym(A) - tau G restricted to the zero-mean space (is_coercive). All paths
check that ker(G) is the shift kernel and share one LDL^T helper.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np
import scipy.io
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .lattice1d import Chain1D
from .lattice2d import DIR_OFFSETS, TriLattice2D

__all__ = [
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


@dataclass(frozen=True)
class SparseOp:
    """Assembled operator: a square CSR matrix with duplicates summed.

    A set symmetric flag is checked at construction. kernel, when present,
    holds an orthonormal dense basis of the nullspace of the represented
    form (used for pencil deflation).
    """

    matrix: sp.csr_matrix = field(repr=False)
    symmetric: bool = False
    kernel: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        m = self.matrix
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
    """Result of a pencil solve: gamma and its certified minimizer."""

    gamma: float
    minimizer: np.ndarray = field(repr=False)
    method: str
    residual: float
    iterations: int


@dataclass(frozen=True)
class InertiaReport:
    """Answer to the sign question gamma > tau, with the evidence behind it.

    negative counts the negative pivots of the congruent LDL^T factor and
    min_pivot is the smallest pivot magnitude; margin is the backward-error
    bound the smallest pivot must clear for the signs to be trusted. method
    is "inertia" when the pivots decided and the value path ("dense" or
    "iterative") when they could not; negative is -1 when the factorization
    hit an exactly zero pivot. No eigenvalue is reported.
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
    from . import ops1d, ops2d

    if isinstance(op, ops2d.Op2D) and op.kind == "ltilde":
        # L-tilde is defined by its quadratic form and has no stencil
        return ops2d.assemble_ltilde(op.lattice, op.model, op.blend)
    if isinstance(op, ops1d.Op1D):
        dim, rows, cols, vals, symmetric = ops1d.assemble_triplets(op)
    elif isinstance(op, ops2d.Op2D):
        dim, rows, cols, vals, symmetric = ops2d.assemble_triplets(op)
    else:
        raise TypeError(f"cannot assemble {type(op).__name__}")
    return SparseOp(sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim)),
                    symmetric=symmetric)


def check_assembly(op, sop: SparseOp, ntrials: int = 20, seed: int = 0) -> float:
    """Max relative defect of u^T A u against the weighted form, random u."""
    from . import ops1d, ops2d
    from .lattice1d import inner
    from .lattice2d import inner2d

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
            ref = inner2d(op.lattice, ops2d.apply2d(op, u), u)
        got = float(x @ (A @ x))
        worst = max(worst, abs(got - ref) / (abs(ref) + 1.0))
    return worst


def gram_D(domain) -> SparseOp:
    """Gram matrix of ||Du||^2 (symmetric PSD), with the orthonormal basis
    of its kernel: the constant shifts, one unit block per site."""
    if isinstance(domain, Chain1D):
        n = domain.nsites
        idx = np.arange(n)
        rows = np.concatenate([idx, idx, idx])
        cols = np.concatenate([idx, (idx + 1) % n, (idx - 1) % n])
        vals = np.concatenate([np.full(n, 2.0), np.full(n, -1.0), np.full(n, -1.0)])
        return SparseOp(sp.csr_matrix((vals / domain.eps, (rows, cols)), shape=(n, n)),
                        symmetric=True, kernel=np.ones((n, 1)) / np.sqrt(n))
    if isinstance(domain, TriLattice2D):
        # eps^2 weight and the 1/eps^2 of the difference quotients cancel
        n = 2 * domain.N
        nsites = n * n
        site = np.arange(nsites)
        rows, cols, vals = [], [], []
        comp = np.tile([0, 1], nsites)
        base = np.repeat(2 * site, 2) + comp
        si, sj = np.divmod(site, n)
        for name in ("a1", "a2", "a3"):
            di, dj = DIR_OFFSETS[name]
            nb = ((si + di) % n) * n + (sj + dj) % n
            nb_base = np.repeat(2 * nb, 2) + comp
            rows += [base, base, nb_base, nb_base]
            cols += [base, nb_base, nb_base, base]
            vals += [np.ones(2 * nsites), -np.ones(2 * nsites),
                     np.ones(2 * nsites), -np.ones(2 * nsites)]
        G = sp.csr_matrix((np.concatenate(vals),
                           (np.concatenate(rows), np.concatenate(cols))),
                          shape=(2 * nsites, 2 * nsites))
        return SparseOp(G, symmetric=True,
                        kernel=np.kron(np.ones((nsites, 1)), np.eye(2)) / np.sqrt(nsites))
    raise TypeError(f"no Gram form for {type(domain).__name__}")


def export_matrixmarket(sop: SparseOp, path: str) -> None:
    """Write the assembled matrix in MatrixMarket coordinate format."""
    scipy.io.mmwrite(path, sop.matrix.tocoo())


def _project_out(kernel: np.ndarray, v: np.ndarray) -> np.ndarray:
    return v - kernel @ (kernel.T @ v)


def _kernel_reflectors(kernel: np.ndarray) -> list:
    """Householder pairs (v_j, tau_j), H_j = I - tau_j v_j v_j^T, with
    Q = H_1 ... H_m orthogonal and its first m columns spanning the kernel;
    the remaining columns are the deflated basis Q2."""
    (qr, tau), _ = scipy.linalg.qr(kernel, mode="raw")
    out = []
    for j in range(kernel.shape[1]):
        v = np.zeros(kernel.shape[0])
        v[j] = 1.0
        v[j + 1:] = qr[j + 1:, j]
        out.append((v, float(tau[j])))
    return out


def _deflate(M: sp.csr_matrix, reflectors: list) -> np.ndarray:
    """Q2^T M Q2 for symmetric sparse M, dense in Fortran order; only its
    upper triangle is valid.

    Each reflector acts as the rank-2 update H M H = M - v p^T - p v^T with
    p = tau w - (tau^2 v^T w / 2) v and w = M v, so the trailing block is
    M[m:, m:] minus m rank-2 updates, applied in place in O(n^2); w comes
    from matvecs with M and the earlier updates, never from dense products.
    """
    m = len(reflectors)
    updates = []
    for v, tau in reflectors:
        w = M @ v
        for vi, pi in updates:
            w -= vi * (pi @ v) + pi * (vi @ v)
        updates.append((v, tau * w - (0.5 * tau * tau * (v @ w)) * v))
    B = M[m:, m:].toarray(order="F")
    for v, p in updates:
        B = scipy.linalg.blas.dsyr2(-1.0, v[m:], p[m:], lower=0, a=B, overwrite_a=1)
    return B


def _dense_gamma(Asym: sp.csr_matrix, G: sp.csr_matrix, kernel: np.ndarray):
    refl = _kernel_reflectors(kernel)
    m = len(refl)
    # LAPACK's upper-triangle reduction runs faster here than the lower one
    w, y = scipy.linalg.eigh(_deflate(Asym, refl), _deflate(G, refl), lower=False,
                             subset_by_index=[0, 0], driver="gvx",
                             overwrite_a=True, overwrite_b=True)
    # x = Q2 y = H_1 ... H_m [0; y]
    x = np.zeros(kernel.shape[0])
    x[m:] = y[:, 0]
    for v, tau in reversed(refl):
        x -= (tau * (v @ x)) * v
    return float(w[0]), x


def _gram_solver(G: sp.csr_matrix, kernel: np.ndarray):
    """Exact zero-mean solve of G z = r, for a vector or a block r. Pinning
    the first m = kernel.shape[1] coordinates (one site) removes exactly the
    shift kernel, so G[m:, m:] is positive definite and is factored once."""
    m = kernel.shape[1]
    lu = _ldlt(G[m:, m:].tocsc())

    def solve(r: np.ndarray) -> np.ndarray:
        z = np.zeros_like(r)
        z[m:] = lu.solve(_project_out(kernel, r)[m:])
        return _project_out(kernel, z)

    return solve


def _rayleigh_residual(Asym, G, kernel: np.ndarray, x: np.ndarray):
    # sym(A) of the force-based operator does not annihilate constants, so
    # the residual lives on the deflated pencil: project it off ker(G)
    Ax = _project_out(kernel, Asym @ x)
    Gx = G @ x
    rho = float(x @ Ax) / float(x @ Gx)
    denom = np.linalg.norm(Ax) + abs(rho) * np.linalg.norm(Gx)
    res = float(np.linalg.norm(Ax - rho * Gx)) / max(denom, 1e-300)
    return rho, res, denom


def _iterative_gamma(Asym: sp.csr_matrix, G: sp.csr_matrix, kernel: np.ndarray,
                     tol: float, maxiter: int, x0: Optional[np.ndarray], seed: int):
    n = Asym.shape[0]
    rng = np.random.default_rng(seed)
    # symmetric geometry gives double eigenvalues; an even block that does not
    # straddle a degenerate pair keeps the leading Ritz vector converging
    m = 4 if n >= 12 * (kernel.shape[1] + 4) else 1
    X = rng.standard_normal((n, m))
    if x0 is not None:
        X[:, 0] = np.asarray(x0, dtype=float)
    X = _project_out(kernel, X)
    X /= np.linalg.norm(X, axis=0)

    rho, res, denom = _rayleigh_residual(Asym, G, kernel, X[:, 0])
    if res <= tol:
        return rho, X[:, 0], res, 0

    solve = _gram_solver(G, kernel)
    Mop = spla.LinearOperator((n, n), matvec=solve, matmat=solve, dtype=float)
    # both-sided projection keeps roundoff kernel drift out of the Ritz spaces
    Aop = spla.LinearOperator(
        (n, n), matvec=lambda v: _project_out(kernel, Asym @ _project_out(kernel, v)))

    total = 0
    chunk = 250
    while total < maxiter:
        budget = min(chunk, maxiter - total)
        try:
            with warnings.catch_warnings():
                # convergence is judged below, not by the inner driver
                warnings.simplefilter("ignore")
                # the driver normalizes in the B-inner product, this metric in
                # the Euclidean one; 0.05 covers the scale gap with margin
                w, V, hist = spla.lobpcg(
                    Aop, X, B=G, M=Mop, tol=0.05 * tol * denom, maxiter=budget,
                    largest=False, retResidualNormsHistory=True)
            total += max(len(hist) - 1, 1)
        except (np.linalg.LinAlgError, ValueError):
            # degenerate trial block; restart from fresh random directions
            total += budget
            X = _project_out(kernel, rng.standard_normal((n, m)))
            X /= np.linalg.norm(X, axis=0)
            continue
        order = np.argsort(w)
        V = _project_out(kernel, V[:, order])
        x = V[:, 0] / np.linalg.norm(V[:, 0])
        rho, res, denom = _rayleigh_residual(Asym, G, kernel, x)
        if res <= tol:
            return rho, x, res, total
        norms = np.linalg.norm(V, axis=0)
        bad = norms <= 1e-12
        if bad.any():
            V[:, bad] = _project_out(kernel, rng.standard_normal((n, int(bad.sum()))))
            norms = np.linalg.norm(V, axis=0)
        X = V / norms
    raise RuntimeError(
        f"pencil iteration did not converge in {maxiter} steps "
        f"(last relative residual {res:.3e}, rho {rho:.6e})")


def coercivity(opMatrix: SparseOp, G: SparseOp, method: str = "auto",
               dense_threshold: int = 3000, tol: float = 1e-8,
               maxiter: int = 5000, x0: Optional[np.ndarray] = None,
               seed: int = 7) -> StabilityReport:
    """Minimum eigenvalue of the pencil (sym(A), G) off the kernel of G.

    method "auto" takes the dense path for dim <= dense_threshold and
    LOBPCG, preconditioned by an exact pinned Gram solve, above it; "dense"
    / "iterative" force a path. The iterative path raises on non-convergence
    instead of returning a silent partial answer.
    """
    kernel = _pencil_kernel(opMatrix, G)
    if method not in ("auto", "dense", "iterative"):
        raise ValueError(f"unknown method {method!r}")
    if method == "auto":
        method = "dense" if opMatrix.dim <= dense_threshold else "iterative"

    Asym = opMatrix.sym_matrix
    Gm = G.matrix
    if method == "dense":
        gamma, x = _dense_gamma(Asym, Gm, kernel)
        _, res, _ = _rayleigh_residual(Asym, Gm, kernel, x)
        return StabilityReport(gamma=gamma, minimizer=x, method="dense",
                               residual=res, iterations=0)
    gamma, x, res, its = _iterative_gamma(Asym, Gm, kernel, tol, maxiter, x0, seed)
    return StabilityReport(gamma=gamma, minimizer=x, method="iterative",
                           residual=res, iterations=its)


def _pencil_kernel(opMatrix: SparseOp, G: SparseOp) -> np.ndarray:
    """G's kernel basis, checked to be the shift kernel: its rows repeat with
    period m, so it is orthogonal to every difference e_i - e_{i+m}."""
    if opMatrix.dim != G.dim:
        raise ValueError(f"dimension mismatch: {opMatrix.dim} vs {G.dim}")
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
                dense_threshold: int = 3000, seed: int = 7) -> InertiaReport:
    """Decide gamma > tau from the inertia of P^T (sym(A) - tau G) P.

    P is the sparse difference basis of the zero-mean space, so P^T G P is
    positive definite and gamma > tau exactly when the congruent matrix has
    no negative or zero eigenvalue. The matrix is factored with diagonal
    pivots only (_ldlt): L D L^T is then a congruence and the negative
    pivots count the negative eigenvalues (Sylvester).

    The pivot signs are trusted when the smallest pivot exceeds the LDL^T
    backward-error bound gamma_w * max_k (|L| |D| |L^T|)_kk, with w the
    longest row of L, u the unit roundoff and gamma_w = w u / (1 - w u).
    When it does not, or a pivot is exactly zero, the pencil is solved by
    coercivity (same dense_threshold and seed) and the report says so in
    its method. A tau within rounding of gamma can still get a pivot above
    the bound; the sign there is whatever rounding made it.
    """
    n, m = _pencil_kernel(opMatrix, G).shape
    # sparse basis of the zero-mean space: columns e_i - e_{i+m}
    i = np.arange(n - m)
    P = sp.csc_matrix((np.concatenate([np.ones(n - m), -np.ones(n - m)]),
                       (np.concatenate([i, i + m]), np.concatenate([i, i]))),
                      shape=(n, n - m))
    try:
        lu = _ldlt((P.T @ (opMatrix.sym_matrix - tau * G.matrix) @ P).tocsc())
    except RuntimeError:
        # SuperLU stops on an exactly singular factor: a zero pivot
        negative, min_pivot, margin = -1, 0.0, float("nan")
    else:
        d = lu.U.diagonal()
        L = lu.L                                    # CSC, unit diagonal
        # (|L| |D| |L^T|)_kk = sum_j L_kj^2 |d_j|, summed over column entries
        col = np.repeat(np.arange(L.shape[1]), np.diff(L.indptr))
        size = np.bincount(L.indices, weights=L.data ** 2 * np.abs(d)[col],
                           minlength=L.shape[0])
        w = int(np.bincount(L.indices).max())       # longest row of L
        unit = w * 2.0 ** -53                       # w u
        margin = unit / (1.0 - unit) * float(size.max())
        negative = int(np.count_nonzero(d < 0.0))
        min_pivot = float(np.abs(d).min())
        del lu, L, col, size                        # before any value solve
        if min_pivot > margin:
            return InertiaReport(coercive=negative == 0, negative=negative,
                                 min_pivot=min_pivot, margin=margin,
                                 method="inertia")
    rep = coercivity(opMatrix, G, dense_threshold=dense_threshold, seed=seed)
    return InertiaReport(coercive=rep.gamma > tau, negative=negative,
                         min_pivot=min_pivot, margin=margin, method=rep.method)
