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
    TriLattice2D,
    Regions2D,
    diff2d,
    diff2d2,
    grad_norm_sq_2d,
    inner2d,
    project_zero_mean_2d,
    resolve_direction,
    ring_number,
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
_NN = ("a1", "a2", "a3")
_BONDS = ("b1", "b2", "b3")


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
    for name, H in zip(_NN, model.Ha):
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


def _nnn_atomistic(lattice, model, u) -> np.ndarray:
    out = np.zeros_like(u)
    for bond, H in zip(_BONDS, model.Hb):
        out += _bond_apply_a(lattice, u, H, bond)
    return out


def _nnn_cb(lattice, model, u) -> np.ndarray:
    out = np.zeros_like(u)
    for bond, H in zip(_BONDS, model.Hb):
        out += _bond_apply_c(lattice, u, H, bond)
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
        return nn + _nnn_atomistic(lattice, op.model, u)
    if op.kind == "cauchy_born":
        return nn + _nnn_cb(lattice, op.model, u)
    beta = op.blend.beta[..., None]
    return nn + beta * _nnn_atomistic(lattice, op.model, u) \
        + (1.0 - beta) * _nnn_cb(lattice, op.model, u)


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


def _bond_name(bond) -> str:
    if isinstance(bond, int):
        bond = f"b{bond}"
    if bond not in _BONDS:
        raise ValueError(f"unknown b-bond {bond!r}")
    return bond


def divergence_form_2d(lattice: TriLattice2D, model: PairModel2D, blend: Blend2D,
                       u: np.ndarray, bond) -> BondForm:
    """Literal evaluation of the per-bond divergence split at zero-mean u."""
    bond = _bond_name(bond)
    u = project_zero_mean_2d(np.asarray(u, dtype=float))
    H = model.Hb[_BONDS.index(bond)]
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


def _check_support(lattice: TriLattice2D, blend: Blend2D) -> None:
    """Third differences of beta must vanish outside the blending annulus."""
    if not blend.margined:
        raise ValueError("supp_beta violation: blend built without support margins")
    ring = ring_number(lattice)
    outside = (ring <= blend.Ra) | (ring > blend.Rb)
    d3 = diff2d2(lattice, diff2d(lattice, blend.beta, "a3"), "a1", "a2")
    if float(np.max(np.abs(d3[outside]))) > 1e-13:
        raise ValueError("supp_beta violation: third differences leak outside")


def rs_bounds_2d(lattice: TriLattice2D, model: PairModel2D, blend: Blend2D,
                 u: np.ndarray, chat: float = 8.0) -> dict:
    """Per-bond bounds for the R and S error terms, checked against measures.

    boundR_b = 4 eps^2 |phi''(Bb)| ||D beta||_inf ||Du||^2 and
    boundS_b = chat eps^2 |phi''(Bb)| (||D^2 beta||_inf
               + ||D^3 beta||_inf C_P) ||Du||^2,
    with C_P = [(eps K)(eps Rb)|log(eps Rb)|]^(1/2) the blending-region
    Poincare constant and chat a calibrated generic constant.
    """
    _check_support(lattice, blend)
    u = project_zero_mean_2d(np.asarray(u, dtype=float))
    eps = lattice.eps
    gnorm2 = grad_norm_sq_2d(lattice, u)
    d1, d2, d3 = blend.Dbeta_max
    cp = float(np.sqrt(eps * blend.K * eps * blend.Rb
                       * abs(np.log(eps * blend.Rb))))
    slack = 1e-12 * (1.0 + gnorm2)
    per_bond = {}
    for j, bond in enumerate(_BONDS):
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
    first = per_bond["b1"]
    return {"boundR": first["boundR"], "boundS": first["boundS"],
            "C_P": cp, "chat": chat, "per_bond": per_bond}


def apply_ltilde(lattice: TriLattice2D, model: PairModel2D, blend: Blend2D,
                 u: np.ndarray, per_bond: bool = False) -> float:
    """<L-tilde u, u>: the continuum form minus beta-weighted mixed squares.

    The written form weighs every mixed square by the b1 Hessian and the
    b1-pattern beta shift; per_bond=True switches each term to its own
    bond's Hessian and shift, matching the divergence-split cross terms.
    """
    u = project_zero_mean_2d(np.asarray(u, dtype=float))
    eps = lattice.eps
    op_c = Op2D(kind="cauchy_born", lattice=lattice, model=model)
    total = inner2d(lattice, apply2d(op_c, u), u)
    for j, bond in enumerate(_BONDS):
        p, q = BOND_PAIRS[bond]
        H = model.Hb[j] if per_bond else model.Hb[0]
        wshift = p if per_bond else "a1"
        w = diff2d2(lattice, u, p, q)
        total -= eps**4 * float(np.sum(shift_field(blend.beta, wshift)
                                       * _quad_H(w, H)))
    return total


# sparse assembly ----------------------------------------------------------

def _block_triplets(lattice: TriLattice2D, blocks, row_scale=None):
    """Triplets of a block-circulant stencil, optionally row-scaled.

    blocks: iterable of (offset, 2x2 array); row_scale: per-site scalar
    field multiplying every row block (the blending weight). A zero entry
    of a block is never stored, so the pattern does not depend on
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
        for cr in range(2):
            for cc in range(2):
                b = B[cr, cc]
                if b == 0.0:
                    continue
                rows.append(2 * site + cr)
                cols.append(2 * nb + cc)
                vals.append(b * scale)
    return (np.concatenate(rows), np.concatenate(cols), np.concatenate(vals))


def _blocks_shell(bonds, hessians, eps: float):
    """Blocks of one bond shell: sum_d H_d (2u(x) - u(x+d) - u(x-d)) / eps^2."""
    blocks = []
    center = np.zeros((2, 2))
    for bond, H in zip(bonds, hessians):
        center = center + 2.0 * H
        blocks.append((bond, -H / eps**2))
        blocks.append((_neg(bond), -H / eps**2))
    blocks.append(((0, 0), center / eps**2))
    return blocks


def _blocks_nnn_c(model: PairModel2D, eps: float):
    blocks = []
    center = np.zeros((2, 2))
    for bond, H in zip(_BONDS, model.Hb):
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


def assemble_ltilde(lattice: TriLattice2D, model: PairModel2D, blend: Blend2D,
                    per_bond: bool = False):
    """Assembled matrix of the L-tilde quadratic form.

    Euclidean u^T A u equals apply_ltilde(lattice, model, blend, u) on
    zero-mean u (and for all u, both being shift-invariant forms).
    """
    from .spectral import SparseOp

    eps = lattice.eps
    n = 2 * lattice.N
    dim = 2 * n * n
    rows, cols, vals = _block_triplets(lattice, _blocks_shell(_NN, model.Ha, eps)
                                       + _blocks_nnn_c(model, eps))
    C = sp.coo_matrix((vals, (rows, cols)), shape=(dim, dim)).tocsr()
    A = eps**2 * C
    for j, bond in enumerate(_BONDS):
        p, q = BOND_PAIRS[bond]
        H = model.Hb[j] if per_bond else model.Hb[0]
        wshift = p if per_bond else "a1"
        M = _mixed_diff_matrix(lattice, p, q)
        bshift = shift_field(blend.beta, wshift).ravel()
        W = sp.kron(sp.diags(bshift), H, format="csr")
        A = A - eps**4 * (M.T @ W @ M)
    return SparseOp(A)


def assemble_triplets(op: Op2D):
    """(dim, rows, cols, values) with the eps^2 weight baked in."""
    lattice, model = op.lattice, op.model
    eps = lattice.eps
    atomistic, continuum = _blocks_shell(_BONDS, model.Hb, eps), _blocks_nnn_c(model, eps)
    if op.kind == "bqcf":
        nnn = [(atomistic, op.blend.beta), (continuum, 1.0 - op.blend.beta)]
    else:
        nnn = [(atomistic if op.kind == "atomistic" else continuum, None)]
    parts = [_block_triplets(lattice, blocks, scale)
             for blocks, scale in [(_blocks_shell(_NN, model.Ha, eps), None)] + nnn]
    rows, cols, vals = (np.concatenate(x) for x in zip(*parts))
    return 2 * (2 * lattice.N) ** 2, rows, cols, eps**2 * vals


def poincare_discrete(lattice: TriLattice2D, regions: Regions2D, **solver) -> float:
    """Extremal ratio sup ||u||^2_(blending region) / ||Du||^2 over zero-mean u.

    Computed as the maximum eigenvalue of the (mask, Gram) pencil by
    coercivity(**solver) on the negated mask form. x0 defaults to a radial
    bump, so no start vector is drawn and a seed changes nothing.
    """
    from .spectral import SparseOp, coercivity, gram_D

    if 2 * regions.Rb > lattice.N:
        raise ModelRangeError(f"Rb = {regions.Rb} exceeds N/2 = {lattice.N / 2:g}")
    mask = regions.mask(1)
    if not mask.any():
        return 0.0
    n = 2 * lattice.N
    dim = 2 * n * n
    sites = np.flatnonzero(mask.ravel())
    idx = np.concatenate([2 * sites, 2 * sites + 1])
    vals = np.full(idx.size, -lattice.eps**2)
    M = SparseOp(sp.csr_matrix((vals, (idx, idx)), shape=(dim, dim)))
    # start from a radial cosine bump about the annulus center: its ratio is
    # about 3/4 of the supremum, which places the first shift below it
    reach = min(3 * regions.Rb, lattice.N)
    bump = np.zeros((n, n, 2))
    bump[..., 0] = np.cos(np.pi * np.minimum(ring_number(lattice), reach) / reach)
    solver.setdefault("x0", bump.ravel())
    report = coercivity(M, gram_D(lattice), **solver)
    return -report.gamma
