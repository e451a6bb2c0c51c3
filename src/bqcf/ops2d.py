"""2D lattice force operators, per-bond divergence structure, and L-tilde.

The atomistic operator is the dynamical-matrix sum over nearest (a) and
next-nearest (b) bond shells. The local continuum operator shares the
nearest-neighbor part exactly and replaces each b-bond by the four-term
second-difference pattern of its defining nearest-neighbor pair, which
keeps the stencil nearest-neighbor local. Blending mixes the two shells
pointwise by the weight beta.

Per b-bond, the blended quadratic form splits as

    <L^bqcf_b u, u> = <L^c_b u, u> + cross + R_b + S_b

with cross the beta-weighted negative square of the mixed difference and
R_b, S_b the terms driven by first and second differences of beta.

L-tilde is not an operator kind: it is the auxiliary quadratic form that
bounds the blended form from below, the continuum form minus the
cross-type squares. It is defined by apply_ltilde and assembled, as a
matrix with the same form, by assemble_ltilde.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .blend import Blend2D
from .config import ModelRangeError
from .lattice2d import (
    BONDS,
    NN,
    TriLattice2D,
    Regions2D,
    diff2d,
    diff2d2,
    grad_norm_sq_2d,
    inner2d,
    project_zero_mean_2d,
    resolve_direction,
    shift_field,
)
from .potentials import PairModel2D

__all__ = [
    "BOND_PAIRS",
    "BondForm",
    "Op2D",
    "apply2d",
    "apply_ltilde",
    "assemble_ltilde",
    "assemble_triplets",
    "divergence_form_2d",
    "poincare_discrete",
    "rs_bounds_2d",
]

_KINDS = ("atomistic", "cauchy_born", "bqcf")
_BLENDED = ("bqcf",)

# defining nearest-neighbor pair (p, q) of each b-bond: b = p + q
BOND_PAIRS = {"b1": ("a1", "a2"), "b2": ("a2", "a3"), "b3": ("a3", "-a1")}


@dataclass(frozen=True)
class Op2D:
    """A linear force operator on the triangular lattice."""

    kind: str
    lattice: TriLattice2D
    model: PairModel2D
    blend: Optional[Blend2D] = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown operator kind {self.kind!r}")
        if self.kind in _BLENDED and self.blend is None:
            raise ValueError(f"kind {self.kind!r} requires a blend")
        if self.kind not in _BLENDED and self.blend is not None:
            raise ValueError(f"kind {self.kind!r} does not take a blend")
        if self.blend is not None and self.blend.lattice != self.lattice:
            raise ValueError("blend was built for a different lattice")


def _neg(d) -> tuple:
    di, dj = resolve_direction(d)
    return (-di, -dj)


def _add(d, e) -> tuple:
    di, dj = resolve_direction(d)
    ei, ej = resolve_direction(e)
    return (di + ei, dj + ej)


def _apply_H(H: np.ndarray, w: np.ndarray) -> np.ndarray:
    return w @ H.T


def _quad_H(v: np.ndarray, H: np.ndarray) -> np.ndarray:
    return np.einsum("xyc,cd,xyd->xy", v, H, v)


def _pair_H(v: np.ndarray, w: np.ndarray, H: np.ndarray) -> np.ndarray:
    return np.einsum("xyc,cd,xyd->xy", v, H, w)


def _nn_part(lattice: TriLattice2D, model: PairModel2D, u: np.ndarray) -> np.ndarray:
    out = np.zeros_like(u)
    for name, H in zip(NN, model.Ha):
        w = 2.0 * u - shift_field(u, name) - shift_field(u, _neg(name))
        out += _apply_H(H, w) / lattice.eps**2
    return out


def _bond_apply_a(lattice, u, H, bond: str) -> np.ndarray:
    """-H D_b D_b u(x - b), the atomistic contribution of one b-bond."""
    w = shift_field(diff2d2(lattice, u, bond, bond), _neg(bond))
    return -_apply_H(H, w)


def _bond_apply_c(lattice, u, H, bond: str) -> np.ndarray:
    """Continuum replacement of one b-bond via its defining pair (p, q)."""
    p, q = BOND_PAIRS[bond]
    w = (shift_field(diff2d2(lattice, u, p, p), _neg(p))
         + shift_field(diff2d2(lattice, u, q, q), _neg(q))
         + shift_field(diff2d2(lattice, u, p, q), _neg(p))
         + shift_field(diff2d2(lattice, u, p, q), _neg(q)))
    return -_apply_H(H, w)


def _nnn(lattice, model, u, bond_apply) -> np.ndarray:
    """The b-bond shell, each bond applied by bond_apply (_bond_apply_a or _c)."""
    out = np.zeros_like(u)
    for bond, H in zip(BONDS, model.Hb):
        out += bond_apply(lattice, u, H, bond)
    return out


def apply2d(op: Op2D, u: np.ndarray) -> np.ndarray:
    """Apply the operator to a (2N, 2N, 2) displacement field.

    The nearest-neighbor part is the same code path for every kind, so the
    blended operator reproduces the unblended ones exactly at beta = 1 / 0.
    """
    lattice = op.lattice
    u = np.asarray(u, dtype=float)
    n = 2 * lattice.N
    if u.shape != (n, n, 2):
        raise ValueError(f"expected field of shape {(n, n, 2)}, got {u.shape}")
    nn = _nn_part(lattice, op.model, u)
    if op.kind == "atomistic":
        return nn + _nnn(lattice, op.model, u, _bond_apply_a)
    if op.kind == "cauchy_born":
        return nn + _nnn(lattice, op.model, u, _bond_apply_c)
    beta = op.blend.beta[..., None]
    return nn + beta * _nnn(lattice, op.model, u, _bond_apply_a) \
        + (1.0 - beta) * _nnn(lattice, op.model, u, _bond_apply_c)


@dataclass(frozen=True)
class BondForm:
    """Per-bond split of the blended quadratic form.

    value_c + cross + Rb_term + Sb_term = <L^bqcf_b u, u> to rounding;
    cross is nonpositive whenever the bond Hessian is PSD.
    """

    bond: str
    value_c: float
    cross: float
    Rb_term: float
    Sb_term: float

    @property
    def total(self) -> float:
        return self.value_c + self.cross + self.Rb_term + self.Sb_term


def divergence_form_2d(lattice: TriLattice2D, model: PairModel2D, blend: Blend2D,
                       u: np.ndarray, bond: str) -> BondForm:
    """Literal evaluation of the divergence split of the b-bond named bond
    ("b1", "b2" or "b3") at zero-mean u."""
    if bond not in BONDS:
        raise ValueError(f"unknown b-bond {bond!r}")
    u = project_zero_mean_2d(np.asarray(u, dtype=float))
    H = model.Hb[BONDS.index(bond)]
    p, q = BOND_PAIRS[bond]
    beta = blend.beta
    eps = lattice.eps

    value_c = inner2d(lattice, _bond_apply_c(lattice, u, H, bond), u)

    mp, mq = _neg(p), _neg(q)
    m2p = _add(mp, mp)
    mpq = _add(mp, mq)
    DpDqu_s = shift_field(diff2d2(lattice, u, p, q), mpq)  # D_p D_q u(x-p-q)
    DqDqu_s = shift_field(diff2d2(lattice, u, q, q), mpq)  # D_q D_q u(x-p-q)
    cross = -eps**4 * float(np.sum(shift_field(beta, mq) * _quad_H(DpDqu_s, H)))

    Dpb_2p = shift_field(diff2d(lattice, beta, p), m2p)    # D_p beta(x-2p)
    Dqb_q = shift_field(diff2d(lattice, beta, q), mq)      # D_q beta(x-q)
    Dpu_2p = shift_field(diff2d(lattice, u, p), m2p)       # D_p u(x-2p)
    Dpu_p = shift_field(diff2d(lattice, u, p), mp)         # D_p u(x-p)
    R = -eps**4 * float(
        np.sum(Dpb_2p * _pair_H(Dpu_2p, DqDqu_s, H))
        + np.sum(Dqb_q * _pair_H(Dpu_p, DpDqu_s, H)))

    DpDpb_2p = shift_field(diff2d2(lattice, beta, p, p), m2p)
    S = -eps**4 * float(np.sum(DpDpb_2p * _pair_H(shift_field(u, mp), DqDqu_s, H)))

    return BondForm(bond=bond, value_c=value_c, cross=cross, Rb_term=R, Sb_term=S)


def _spectral_norm(H: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvalsh(H))))


def rs_bounds_2d(lattice: TriLattice2D, model: PairModel2D, blend: Blend2D,
                 u: np.ndarray, chat: float = 8.0) -> dict:
    """Per-bond bounds for the R and S error terms, checked against measures.

    boundR_b = 4 eps^2 |phi''(Bb)| ||D beta||_inf ||Du||^2 and
    boundS_b = chat eps^2 |phi''(Bb)| (||D^2 beta||_inf
               + ||D^3 beta||_inf C_P) ||Du||^2,
    with C_P = [(eps K)(eps Rb)|log(eps Rb)|]^(1/2) the blending-region
    Poincare constant and chat a calibrated generic constant. They hold for
    a weight whose third differences vanish outside the blending annulus,
    along each of the 27 triples of a1, a2, a3: a blend whose support_leak
    exceeds 1e-13 raises ValueError.
    """
    if blend.support_leak > 1e-13:
        raise ValueError(f"supp_beta violation: third differences leak outside "
                         f"({blend.support_leak:.3e})")
    u = project_zero_mean_2d(np.asarray(u, dtype=float))
    eps = lattice.eps
    gnorm2 = grad_norm_sq_2d(lattice, u)
    d1, d2, d3 = blend.Dbeta_max
    cp = float(np.sqrt(eps * blend.K * eps * blend.Rb
                       * abs(np.log(eps * blend.Rb))))
    slack = 1e-12 * (1.0 + gnorm2)
    per_bond = {}
    for j, bond in enumerate(BONDS):
        norm_h = _spectral_norm(model.Hb[j])
        form = divergence_form_2d(lattice, model, blend, u, bond)
        boundR = 4.0 * eps**2 * norm_h * d1 * gnorm2
        boundS = chat * eps**2 * norm_h * (d2 + d3 * cp) * gnorm2
        if abs(form.Rb_term) > boundR + slack:
            raise RuntimeError(
                f"|R_{bond}| = {abs(form.Rb_term):.6e} exceeds bound {boundR:.6e}")
        if abs(form.Sb_term) > boundS + slack:
            raise RuntimeError(
                f"|S_{bond}| = {abs(form.Sb_term):.6e} exceeds bound {boundS:.6e}")
        per_bond[bond] = {"boundR": boundR, "boundS": boundS,
                          "R": form.Rb_term, "S": form.Sb_term}
    return {"C_P": cp, "chat": chat, "per_bond": per_bond}


def apply_ltilde(lattice: TriLattice2D, model: PairModel2D, blend: Blend2D,
                 u: np.ndarray) -> float:
    """<L-tilde u, u>: the continuum form minus beta-weighted mixed squares.

    As written, every b-bond's mixed square |D_p D_q u|^2 is weighed by the
    b1 Hessian and by beta shifted along a1.
    """
    u = project_zero_mean_2d(np.asarray(u, dtype=float))
    eps = lattice.eps
    op_c = Op2D(kind="cauchy_born", lattice=lattice, model=model)
    total = inner2d(lattice, apply2d(op_c, u), u)
    weight = shift_field(blend.beta, "a1")
    for p, q in BOND_PAIRS.values():
        w = diff2d2(lattice, u, p, q)
        total -= eps**4 * float(np.sum(weight * _quad_H(w, model.Hb[0])))
    return total


# sparse assembly ----------------------------------------------------------

def _block_triplets(lattice: TriLattice2D, blocks, row_scale=None):
    """Triplets of a block-circulant stencil, optionally row-scaled.

    blocks: iterable of (offset, m x m array), m coordinates per site (2
    for a displacement field, 1 for a scalar one); row_scale: per-site
    scalar field multiplying every row block (the blending weight). A zero
    entry of a block is never stored, so the pattern does not depend on
    row_scale: a blend's stencils at any two weights share it.
    """
    n = 2 * lattice.N
    nsites = n * n
    site = np.arange(nsites, dtype=np.int32)
    si, sj = np.divmod(site, n)
    scale = np.ones(nsites) if row_scale is None else np.asarray(row_scale, dtype=float).ravel()
    # a stencil whose blocks are all zero stores nothing
    rows, cols, vals = [np.empty(0, np.int32)], [np.empty(0, np.int32)], [np.empty(0)]
    for off, B in blocks:
        di, dj = resolve_direction(off)
        nb = ((si + di) % n) * n + (sj + dj) % n
        m = B.shape[0]
        for cr in range(m):
            for cc in range(m):
                b = B[cr, cc]
                if b == 0.0:
                    continue
                rows.append(m * site + cr)
                cols.append(m * nb + cc)
                vals.append(b * scale)
    return (np.concatenate(rows), np.concatenate(cols), np.concatenate(vals))


def _blocks_shell(bonds, hessians, eps: float):
    """Blocks of one bond shell: sum_d H_d (2u(x) - u(x+d) - u(x-d)) / eps^2."""
    blocks = []
    center = np.zeros_like(hessians[0])
    for bond, H in zip(bonds, hessians):
        center = center + 2.0 * H
        blocks.append((bond, -H / eps**2))
        blocks.append((_neg(bond), -H / eps**2))
    blocks.append(((0, 0), center / eps**2))
    return blocks


def _blocks_nnn_c(model: PairModel2D, eps: float):
    blocks = []
    center = np.zeros((2, 2))
    for bond, H in zip(BONDS, model.Hb):
        p, q = BOND_PAIRS[bond]
        corner = _add(p, _neg(q))
        center = center + 6.0 * H
        blocks.append((p, -2.0 * H / eps**2))
        blocks.append((_neg(p), -2.0 * H / eps**2))
        blocks.append((q, -2.0 * H / eps**2))
        blocks.append((_neg(q), -2.0 * H / eps**2))
        blocks.append((corner, H / eps**2))
        blocks.append((_neg(corner), H / eps**2))
    blocks.append(((0, 0), center / eps**2))
    return blocks


def _mixed_diff_matrix(lattice: TriLattice2D, p, q) -> sp.csr_matrix:
    """Field matrix of D_p D_q, acting on each component alike."""
    eye = np.eye(2) / lattice.eps**2
    rows, cols, vals = _block_triplets(
        lattice, ((_add(p, q), eye), (p, -eye), (q, -eye), ((0, 0), eye)))
    dim = 2 * (2 * lattice.N) ** 2
    return sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim))


def assemble_ltilde(lattice: TriLattice2D, model: PairModel2D, blend: Blend2D):
    """Assembled matrix of the L-tilde quadratic form.

    Euclidean u^T A u equals apply_ltilde(lattice, model, blend, u) on
    zero-mean u (and for all u, both being shift-invariant forms). The
    weight, beta shifted along a1 times the b1 Hessian, is built once and
    shared by the three mixed squares.
    """
    from .spectral import SparseOp

    eps = lattice.eps
    n = 2 * lattice.N
    dim = 2 * n * n
    rows, cols, vals = _block_triplets(lattice, _blocks_shell(NN, model.Ha, eps)
                                       + _blocks_nnn_c(model, eps))
    C = sp.coo_matrix((vals, (rows, cols)), shape=(dim, dim)).tocsr()
    A = eps**2 * C
    W = sp.kron(sp.diags(shift_field(blend.beta, "a1").ravel()), model.Hb[0],
                format="csr")
    for p, q in BOND_PAIRS.values():
        M = _mixed_diff_matrix(lattice, p, q)
        A = A - eps**4 * (M.T @ W @ M)
    return SparseOp(A)


def assemble_triplets(op: Op2D):
    """(dim, rows, cols, values) with the eps^2 weight baked in."""
    lattice, model = op.lattice, op.model
    eps = lattice.eps
    atomistic, continuum = _blocks_shell(BONDS, model.Hb, eps), _blocks_nnn_c(model, eps)
    if op.kind == "bqcf":
        nnn = [(atomistic, op.blend.beta), (continuum, 1.0 - op.blend.beta)]
    else:
        nnn = [(atomistic if op.kind == "atomistic" else continuum, None)]
    parts = [_block_triplets(lattice, blocks, scale)
             for blocks, scale in [(_blocks_shell(NN, model.Ha, eps), None)] + nnn]
    rows, cols, vals = (np.concatenate(x) for x in zip(*parts))
    return 2 * (2 * lattice.N) ** 2, rows, cols, eps**2 * vals


def poincare_discrete(lattice: TriLattice2D, regions: Regions2D, *, seed: int = 7) -> float:
    """Extremal ratio sup ||u||^2_(blending region) / ||Du||^2 over zero-mean u.

    Both forms act on each displacement component alike (the mask weighs
    |u|^2 = u_1^2 + u_2^2 per site, gram_D's 2D blocks are identities), so
    the supremum is that of one component, on the (2N)^2 sites, against
    the scalar Gram form G (gram_D(scalar=True)). G is translation-invariant
    on the torus, so its pseudo-inverse G+ is an exact convolution:
    irfft2(rfft2(f) / lambda) with lambda G's symbol (spectral._symbol),
    its k = 0 mode (the constants, G's kernel) zeroed by index. With P the
    restriction to the annulus sites, the nonzero eigenvalues of the pencil
    (eps^2 P^T P, G) off the constants are eps^2 times those of P G+ P^T,
    the Green's function on the annulus; no pencil is factored.

    Method: spectral._Lanczos, with the identity inner product, on y ->
    (G+ P^T y) on the annulus, from a draw of default_rng(seed) on its
    sites (a symmetric start would miss the modes of the other parity),
    until its Ritz residual estimate is <= spectral._RTOL. Certificate:
    the lifted u = G+ P^T y, zero-mean by construction, is checked on the
    assembled sparse pencil; the ratio is its Rayleigh quotient, and a
    relative residual above _RTOL raises RuntimeError, so that a wrong
    symbol or a G that is not circulant fails there.
    """
    from .spectral import _MAXITER, _RTOL, _Lanczos, _rayleigh_residual, _symbol, gram_D

    if 2 * regions.Rb > lattice.N:
        raise ModelRangeError(f"Rb = {regions.Rb} exceeds N/2 = {lattice.N / 2:g}")
    sites = np.flatnonzero(regions.mask(1).ravel())
    if not sites.size:
        return 0.0
    n = 2 * lattice.N
    G = gram_D(lattice, scalar=True)
    lam = _symbol(G.matrix, G)[..., 0, 0].real
    lam[0, 0] = np.inf                              # G+ is zero on the constants

    def green(y):
        f = np.zeros(n * n)
        f[sites] = y
        return np.fft.irfft2(np.fft.rfft2(f.reshape(n, n)) / lam, s=(n, n)).ravel()

    start = np.random.default_rng(seed).standard_normal(sites.size)
    lanczos = _Lanczos(lambda y: green(y)[sites], sp.identity(sites.size, format="csr"), start)
    for _ in range(_MAXITER):
        if lanczos.step() <= _RTOL:
            break
    u = green(lanczos.ritz_vector())
    M = sp.csr_matrix((np.full(sites.size, lattice.eps**2), (sites, sites)), shape=(G.dim, G.dim))
    rho, res = _rayleigh_residual(-M, G, u)
    if not res <= _RTOL:
        raise RuntimeError(f"Poincare ratio {-rho:.6e} fails its certificate on the sparse "
                           f"pencil: relative residual {res:.3e} exceeds {_RTOL:g}")
    return -rho
