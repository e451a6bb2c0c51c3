"""1D linearized force operators and their summation-by-parts structure.

All operators act on length-2N periodic displacement arrays. The
second-neighbor blended part carries the interesting structure: its
quadratic form splits into a sign-controlled main part plus three
lower-order terms R, S, T driven by differences of the blending weight.
The split is coefficient-free, so the bqcf1/bqcf2 kinds apply the
nearest- and second-neighbor parts with unit stiffness; the full blended
operator is phiF * bqcf1 + phi2F * bqcf2, assembled from the same stencil
evaluations so the split is exact in floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .blend import Blend1D, derivative_bounds, third_diff_level_set
from .lattice1d import Chain1D, diff, inner, project_zero_mean
from .potentials import PairModel1D

__all__ = [
    "DivForm1D",
    "Op1D",
    "apply_op",
    "assemble_triplets",
    "divergence_form",
    "quad_form",
    "rst_bounds",
    "sharpness_test_function",
]

_KINDS = ("atomistic", "qcl", "bqcf", "bqcf1", "bqcf2")
_BLENDED = ("bqcf", "bqcf1", "bqcf2")


@dataclass(frozen=True)
class Op1D:
    """A linear force operator on the chain.

    kind atomistic: phiF L1 + phi2F L2 (L1, L2 the first/second-neighbor
    negative Laplacians); qcl: the local continuum limit phiF L1 + 4 phi2F L1;
    bqcf: pointwise blend beta * atomistic + (1 - beta) * qcl; bqcf1 / bqcf2:
    the unit-stiffness nearest / blended-second-neighbor parts.
    """

    kind: str
    chain: Chain1D
    model: PairModel1D
    blend: Optional[Blend1D] = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown operator kind {self.kind!r}")
        if self.kind in _BLENDED and self.blend is None:
            raise ValueError(f"kind {self.kind!r} requires a blend")
        if self.kind not in _BLENDED and self.blend is not None:
            raise ValueError(f"kind {self.kind!r} does not take a blend")
        if self.blend is not None and self.blend.chain != self.chain:
            raise ValueError("blend was built for a different chain")


def _lap1(chain: Chain1D, v: np.ndarray) -> np.ndarray:
    return -(np.roll(v, -1) - 2.0 * v + np.roll(v, 1)) / chain.eps**2


def _lap2(chain: Chain1D, v: np.ndarray) -> np.ndarray:
    return -(np.roll(v, -2) - 2.0 * v + np.roll(v, 2)) / chain.eps**2


def apply_op(op: Op1D, u: np.ndarray) -> np.ndarray:
    """Apply the operator with periodic wrapping.

    The blended output is not generally zero-mean: the force-based
    coupling is non-conservative.
    """
    chain = op.chain
    u = np.asarray(u, dtype=float)
    if u.shape != (chain.nsites,):
        raise ValueError(f"expected {chain.nsites} values, got shape {u.shape}")
    m = op.model
    kind = op.kind
    if kind == "atomistic":
        return m.phiF * _lap1(chain, u) + m.phi2F * _lap2(chain, u)
    if kind == "qcl":
        return m.phiF * _lap1(chain, u) + m.phi2F * (4.0 * _lap1(chain, u))
    if kind == "bqcf1":
        return _lap1(chain, u)
    beta = op.blend.beta
    l1 = _lap1(chain, u)
    part2 = beta * _lap2(chain, u) + (1.0 - beta) * (4.0 * l1)
    if kind == "bqcf2":
        return part2
    return m.phiF * l1 + m.phi2F * part2


def quad_form(op: Op1D, u: np.ndarray) -> float:
    """<L u, u> in the eps-weighted inner product."""
    return inner(op.chain, apply_op(op, u), u)


@dataclass(frozen=True)
class DivForm1D:
    """Summation-by-parts split of <L2 u, u> for the blended second-neighbor part.

    main = 4||Du||^2 - eps^2||sqrt(beta) D^2 u||^2; R, S, T collect the
    terms driven by second and third differences of beta. The identity
    main + R + S + T = <L2 u, u> holds to rounding.
    """

    main: float
    R: float
    S: float
    T: float

    @property
    def total(self) -> float:
        return self.main + self.R + self.S + self.T


def _rst_terms(chain: Chain1D, blend: Blend1D, u: np.ndarray) -> DivForm1D:
    """The split evaluated literally at u, with no mean projection."""
    eps = chain.eps
    beta = blend.beta
    Du = diff(chain, u, 1)
    D2u = diff(chain, u, 2)
    D2b = diff(chain, blend.beta, 2)
    D3b = diff(chain, blend.beta, 3)
    main = 4.0 * eps * float(np.sum(Du * Du)) - eps**3 * float(np.sum(beta * D2u * D2u))
    R = 2.0 * eps**3 * float(np.sum(D2b * Du * Du))
    S = eps**4 * float(np.sum(D2b * D2u * Du))
    T = eps**3 * float(np.sum(np.roll(D3b, -1) * u * np.roll(Du, -1)))
    return DivForm1D(main=main, R=R, S=S, T=T)


def divergence_form(chain: Chain1D, blend: Blend1D, u: np.ndarray) -> DivForm1D:
    """Split <L2 u, u> into main + R + S + T at the zero-mean representative.

    The second-neighbor split is coefficient-free, so it takes no model;
    T involves u itself (not just differences), which is why u is projected
    to zero mean first.
    """
    u = project_zero_mean(np.asarray(u, dtype=float))
    return _rst_terms(chain, blend, u)


def rst_bounds(blend: Blend1D, u: np.ndarray) -> dict:
    """Bounds for the R/S/T terms in units of ||Du||^2, checked against the
    measured terms at the zero-mean representative of u.

    boundR = eps^2 ||D^2 beta||_inf ||Du||^2
    boundS = 2 eps^2 ||D^2 beta||_inf ||Du||^2
    boundT = sqrt(2) eps^2 (K eps)^(1/2) ||D^3 beta||_inf ||Du||^2
    """
    chain = blend.chain
    eps = chain.eps
    u = project_zero_mean(np.asarray(u, dtype=float))
    form = _rst_terms(chain, blend, u)
    Du = diff(chain, u, 1)
    gnorm2 = eps * float(np.sum(Du * Du))
    db = derivative_bounds(blend)
    b2, b3 = db[2], db[3]
    boundR = eps**2 * b2 * gnorm2
    boundS = 2.0 * eps**2 * b2 * gnorm2
    boundT = np.sqrt(2.0) * eps**2 * np.sqrt(blend.K * eps) * b3 * gnorm2
    slack = 1e-12 * (1.0 + gnorm2)
    for name, term, bound in (("R", form.R, boundR), ("S", form.S, boundS),
                              ("T", form.T, boundT)):
        if abs(term) > bound + slack:
            raise RuntimeError(f"|{name}| = {abs(term):.6e} exceeds bound {bound:.6e}")
    return {"boundR": boundR, "boundS": boundS, "boundT": boundT,
            "R": form.R, "S": form.S, "T": form.T}


def _sharpness_parts(chain: Chain1D, blend: Blend1D):
    """Slope field, anchored integral, and level-set data for the witness."""
    n = chain.nsites
    eps = chain.eps
    jset = third_diff_level_set(blend)
    if jset.size == 0:
        raise ValueError("empty level set: no strongly negative third differences")
    L = eps * jset.size
    vp = np.zeros(n)
    vp[jset] = L**-0.5
    in_I = np.zeros(n, dtype=bool)
    in_I[blend.interface] = True
    outside = np.flatnonzero(~in_I)
    if outside.size == 0:
        raise ValueError("interface covers the whole chain; no room for the return slope")
    slope = -(jset.size * L**-0.5) / outside.size
    vp[outside] = slope
    # integrate the slopes, then anchor so the smallest value just left of
    # the level set equals 1/2 (T pairs u_l with the slope at l+1)
    w = eps * np.cumsum(vp)
    pred = (jset - 1) % n
    v_anch = w + (0.5 - float(np.min(w[pred])))
    return vp, v_anch, jset, L


def sharpness_test_function(chain: Chain1D, blend: Blend1D) -> np.ndarray:
    """Zero-mean displacement concentrating slope on the level set J'.

    v' = (eps #J')^(-1/2) on J', 0 elsewhere in the interface, and a small
    compensating constant slope outside so the slopes sum to zero over the
    period; v is the anchored integral, mean-projected. ||Dv|| <= sqrt(2)
    whenever J' is no larger than the exterior.
    """
    _, v_anch, _, _ = _sharpness_parts(chain, blend)
    return project_zero_mean(v_anch)


# sparse assembly ----------------------------------------------------------

def _circulant_triplets(n: int, offsets, weights):
    rows = []
    cols = []
    vals = []
    idx = np.arange(n)
    for off, w in zip(offsets, weights):
        rows.append(idx)
        cols.append((idx + off) % n)
        w = np.broadcast_to(np.asarray(w, dtype=float), (n,))
        vals.append(w)
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


def assemble_triplets(op: Op1D):
    """(dim, rows, cols, values, symmetric) with the eps weight baked in.

    The returned matrix A satisfies u^T A u = <apply(op, u), u> in plain
    Euclidean arithmetic.
    """
    chain = op.chain
    n = chain.nsites
    eps = chain.eps
    m = op.model
    w1 = np.array([2.0, -1.0, -1.0]) / eps**2
    off1 = (0, 1, -1)
    w2 = np.array([2.0, -1.0, -1.0]) / eps**2
    off2 = (0, 2, -2)

    def row_scaled(offs, base, scale):
        return offs, [scale * b for b in base]

    kind = op.kind
    if kind == "atomistic":
        offs = off1 + off2
        weights = [m.phiF * w for w in w1] + [m.phi2F * w for w in w2]
        symmetric = True
    elif kind == "qcl":
        offs = off1
        weights = [(m.phiF + 4.0 * m.phi2F) * w for w in w1]
        symmetric = True
    elif kind == "bqcf1":
        offs = off1
        weights = list(w1)
        symmetric = True
    else:
        beta = op.blend.beta
        o2, w2s = row_scaled(off2, w2, beta)
        o1, w1s = row_scaled(off1, w1, 4.0 * (1.0 - beta))
        if kind == "bqcf2":
            offs = o1 + o2
            weights = w1s + w2s
        else:  # bqcf
            offs = off1 + o1 + o2
            weights = ([m.phiF * w for w in w1]
                       + [m.phi2F * w for w in w1s]
                       + [m.phi2F * w for w in w2s])
        symmetric = False
    rows, cols, vals = _circulant_triplets(n, offs, weights)
    return n, rows, cols, eps * vals, symmetric
