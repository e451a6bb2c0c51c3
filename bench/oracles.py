"""Reference computations and answer checks, made apart from the program.

Nothing here calls the program's assembly or pencil solvers. Operator
matrices are rebuilt from the program's stencil apply (the definition of
the operator) applied to unit fields, Gram matrices from the difference
quotients, and constants from closed forms and Fourier symbols. Every check is a plain
function of numbers, so the tests can feed it wrong answers.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

# index offsets of the nearest-neighbor directions of the triangular lattice
A_DIRS = ((1, 0), (0, 1), (-1, 1))
# each second-neighbor bond b = p + q with its defining nearest-neighbor pair
B_PAIRS = (((1, 0), (0, 1)), ((0, 1), (-1, 1)), ((-1, 1), (-1, 0)))


def close(value: float, ref: float, rtol: float = 1e-8) -> bool:
    """|value - ref| <= rtol * max(1, |ref|)."""
    return bool(abs(value - ref) <= rtol * max(1.0, abs(ref)))


# --- dense matrices -------------------------------------------------------

def form_matrix(apply, shape, weight: float) -> np.ndarray:
    """Symmetric matrix of the quadratic form u -> weight * <apply(u), u>.

    Column j is weight * apply(e_j); the symmetric part carries the whole
    form, as the force-based operator is not symmetric.
    """
    dim = int(np.prod(shape))
    M = np.empty((dim, dim))
    e = np.zeros(dim)
    for j in range(dim):
        e[j] = 1.0
        M[:, j] = weight * np.asarray(apply(e.reshape(shape))).ravel()
        e[j] = 0.0
    return 0.5 * (M + M.T)


def form_matrix_2d(apply, N: int, weight: float, reach: int = 3) -> np.ndarray:
    """form_matrix for (2N, 2N, 2) fields, with columns probed together.

    The output of apply at a site may depend on u only within `reach`
    lattice steps in each coordinate. Sources spaced s > 2 reach apart, s
    dividing 2N, then have disjoint outputs, so one apply per residue class
    of sites (and component) yields all of their columns. Output outside
    the windows raises, so a wider stencil cannot pass unnoticed.
    """
    n = 2 * N
    s = next(d for d in range(2 * reach + 1, n + 1) if n % d == 0)
    offs = np.arange(-reach, reach + 1)
    di, dj = (a.ravel() for a in np.meshgrid(offs, offs, indexing="ij"))
    M = np.zeros((2 * n * n, 2 * n * n))
    for ci in range(s):
        for cj in range(s):
            si, sj = (a.ravel() for a in np.meshgrid(np.arange(ci, n, s),
                                                     np.arange(cj, n, s),
                                                     indexing="ij"))
            ti = (si[:, None] + di) % n
            tj = (sj[:, None] + dj) % n
            for c in range(2):
                e = np.zeros((n, n, 2))
                e[ci::s, cj::s, c] = 1.0
                out = np.asarray(apply(e), dtype=float)
                covered = np.zeros((n, n), dtype=bool)
                covered[ti, tj] = True
                if np.any(out[~covered]):
                    raise ValueError(f"stencil reaches beyond {reach} sites")
                cols = np.broadcast_to((2 * (si * n + sj) + c)[:, None], ti.shape)
                for c2 in range(2):
                    M[2 * (ti * n + tj) + c2, cols] = weight * out[ti, tj, c2]
    return 0.5 * (M + M.T)


def _difference(n_sites_axis: int, offset, ndim: int) -> np.ndarray:
    """Dense scalar-site matrix of u -> u(x + offset) - u(x), periodic."""
    if ndim == 1:
        n = n_sites_axis
        idx = np.arange(n)
        D = -np.eye(n)
        D[idx, (idx + offset) % n] += 1.0
        return D
    n = n_sites_axis
    si, sj = np.divmod(np.arange(n * n), n)
    nb = ((si + offset[0]) % n) * n + (sj + offset[1]) % n
    D = -np.eye(n * n)
    D[np.arange(n * n), nb] += 1.0
    return D


def gram_1d(N: int) -> np.ndarray:
    """||Du||^2 = eps * sum_l ((u_l - u_(l-1)) / eps)^2 on the 2N-site chain."""
    D = _difference(2 * N, -1, 1)
    return N * (D.T @ D)


def gram_2d(N: int) -> np.ndarray:
    """||Du||^2 = eps^2 * sum_x sum_i |D_(a_i) u(x)|^2 on the 2N x 2N torus,
    displacement components interleaved per site."""
    n = 2 * N
    Gs = np.zeros((n * n, n * n))
    for off in A_DIRS:
        D = _difference(n, off, 2)
        Gs += D.T @ D
    return np.kron(Gs, np.eye(2))


def deflate(M: np.ndarray, ncomp: int) -> np.ndarray:
    """P^T M P for the difference basis P of the zero-mean space.

    Component c occupies indices c, c + ncomp, ...; column i of P is
    e_i - e_last(c). A congruence, so definiteness is kept.
    """
    dim = M.shape[0]
    keep = np.arange(dim - ncomp)
    last = dim - ncomp + keep % ncomp
    return (M[np.ix_(keep, keep)] - M[np.ix_(keep, last)]
            - M[np.ix_(last, keep)] + M[np.ix_(last, last)])


def positive_definite(M: np.ndarray) -> bool:
    """Inertia test by Cholesky: succeeds iff M is positive definite."""
    try:
        np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        return False
    return True


def coercive_beyond(A: np.ndarray, G: np.ndarray, ncomp: int, tol: float) -> bool:
    """True iff A - tol * G is positive definite on zero-mean fields,
    that is, iff the coercivity constant exceeds tol."""
    return positive_definite(deflate(A - tol * G, ncomp))


# --- threshold checks -----------------------------------------------------

def kstar_certified(coercive_below: bool, coercive_at: bool) -> bool:
    """K* is certified when the form is coercive at K* and not at K* - 1."""
    return bool(coercive_at and not coercive_below)


def witness_negative(form_value: float) -> bool:
    """The minimizer at K* - 1 must give a negative form."""
    return bool(form_value < 0.0)


def monotone_violations(pairs) -> list:
    """Sizes (1/eps) where K* drops as eps shrinks; pairs are (eps, K*)."""
    by_eps = sorted(pairs)                       # finest lattice first
    return [round(1.0 / e2) for (_, k1), (e2, k2) in zip(by_eps, by_eps[1:])
            if k2 > k1]


# --- constants ------------------------------------------------------------

def atomistic_1d(phiF: float, phi2F: float, N: int) -> float:
    """Atomistic constant of the 2N-site chain for phi2F <= 0: the symbol
    phiF + 2 phi2F (1 + cos(theta)) at the lowest wavenumber theta = pi/N."""
    if phi2F > 0:
        raise ValueError("closed form holds for phi2F <= 0")
    return phiF + 2.0 * phi2F * (1.0 + math.cos(math.pi / N))


def qcl_1d(phiF: float, phi2F: float) -> float:
    """The local continuum symbol is the constant phiF + 4 phi2F."""
    return phiF + 4.0 * phi2F


def symbol_min_2d(kind: str, Ha, Hb, N: int) -> float:
    """Minimum over nonzero wavevectors of the 2N x 2N grid of the smallest
    eigenvalue of the 2x2 symbol pencil (A(k), g(k) I).

    A(k) is built from the bond Hessians: each nearest-neighbor bond a adds
    Ha (2 - 2 cos k.a); each second-neighbor bond b = p + q adds
    Hb (2 - 2 cos k.b) for the atomistic kind, and
    Hb (6 - 4 cos k.p - 4 cos k.q + 2 cos k.(p - q)) for the Cauchy-Born
    kind, which replaces D_b D_b by the four-term pattern of (p, q).
    """
    n = 2 * N
    t = 2.0 * np.pi * np.arange(n) / n
    t1, t2 = np.meshgrid(t, t, indexing="ij")

    def c(off):
        return np.cos(t1 * off[0] + t2 * off[1])[..., None, None]

    A = np.zeros((n, n, 2, 2))
    g = np.zeros((n, n))
    for off, H in zip(A_DIRS, Ha):
        A += (2.0 - 2.0 * c(off)) * np.asarray(H)
        g += 2.0 - 2.0 * c(off)[..., 0, 0]
    for (p, q), H in zip(B_PAIRS, Hb):
        b = (p[0] + q[0], p[1] + q[1])
        if kind == "atomistic":
            w = 2.0 - 2.0 * c(b)
        elif kind == "cauchy_born":
            d = (p[0] - q[0], p[1] - q[1])
            w = 6.0 - 4.0 * c(p) - 4.0 * c(q) + 2.0 * c(d)
        else:
            raise ValueError(f"no symbol for kind {kind!r}")
        A += w * np.asarray(H)
    half_tr = 0.5 * (A[..., 0, 0] + A[..., 1, 1])
    rad = np.sqrt(0.25 * (A[..., 0, 0] - A[..., 1, 1]) ** 2 + A[..., 0, 1] ** 2)
    lam = (half_tr - rad) / np.where(g > 0, g, 1.0)
    lam[0, 0] = np.inf                           # k = 0 is the kernel
    return float(lam.min())


def ring_numbers(N: int) -> np.ndarray:
    """Hexagonal ring (|i| + |j| + |i + j|) / 2 of each site, sites indexed
    by array position p = coordinate + N - 1 per axis."""
    c = np.arange(2 * N) - N + 1
    i, j = np.meshgrid(c, c, indexing="ij")
    return (np.abs(i) + np.abs(j) + np.abs(i + j)) // 2


def poincare_dense(N: int, Ra: int, Rb: int) -> float:
    """Largest ratio eps^2 sum_(Ra < ring <= Rb) |u|^2 / ||Du||^2 over
    zero-mean u, by a dense generalized symmetric eigensolve."""
    ring = ring_numbers(N).ravel()
    mask = ((ring > Ra) & (ring <= Rb)).astype(float)
    Mk = np.diag(np.repeat(mask, 2) / N**2)
    Md = deflate(Mk, 2)
    Gd = deflate(gram_2d(N), 2)
    top = Md.shape[0] - 1
    w = scipy.linalg.eigh(Md, Gd, eigvals_only=True, subset_by_index=[top, top])
    return float(w[0])


def poincare_scale(N: int, Ra: int, Rb: int) -> float:
    """Predicted scale (eps K)(eps Rb)|log(eps Rb)| of the annulus ratio."""
    eps = 1.0 / N
    return eps * (Rb - Ra) * eps * Rb * abs(math.log(eps * Rb))


def in_window(ratio: float, scale: float, window: float = 50.0) -> bool:
    """Normalized ratio within a factor `window` of one (criterion 9)."""
    v = ratio / scale
    return bool(1.0 / window <= v <= window)
