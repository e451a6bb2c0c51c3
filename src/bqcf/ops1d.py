"""1D linearized force operators and their summation-by-parts structure.

All operators act on length-2N periodic displacement arrays. Each kind is
a sum of negative Laplacians of reach 1 and 2, coefficients varying by
row: apply_op evaluates it, assembly reads one table of (reach,
coefficient) terms. The second-neighbor blended part carries the
interesting structure: its quadratic form splits into a sign-controlled
main part plus three lower-order terms R, S, T driven by differences of
the blending weight. The split is coefficient-free, so the bqcf1/bqcf2
kinds apply the nearest- and second-neighbor parts with unit stiffness;
the full blended operator is phiF * bqcf1 + phi2F * bqcf2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .blend import Blend1D, third_diff_level_set
from .lattice1d import Chain1D, diff, diffs, inner, project_zero_mean, roll
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

# each kind as apply_op's sum of negative Laplacians, given the model and
# the blend: (reach, coefficient) terms, a blended coefficient one per row
_TERMS = {
    "atomistic": lambda m, b: [(1, m.phiF), (2, m.phi2F)],
    "qcl": lambda m, b: [(1, m.phiF + 4.0 * m.phi2F)],
    "bqcf": lambda m, b: [(1, m.phiF), (1, 4.0 * m.phi2F * (1.0 - b.beta)),
                          (2, m.phi2F * b.beta)],
    "bqcf1": lambda m, b: [(1, 1.0)],
    "bqcf2": lambda m, b: [(1, 4.0 * (1.0 - b.beta)), (2, b.beta)],
}
_KINDS = tuple(_TERMS)
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
    return -(roll(v, -1) - 2.0 * v + roll(v, 1)) / chain.eps**2


def _lap2(chain: Chain1D, v: np.ndarray) -> np.ndarray:
    return -(roll(v, -2) - 2.0 * v + roll(v, 2)) / chain.eps**2


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
    Du, D2u = diffs(chain, u, 2)
    _, D2b, D3b = diffs(chain, beta, 3)
    main = 4.0 * eps * float(np.sum(Du * Du)) - eps**3 * float(np.sum(beta * D2u * D2u))
    R = 2.0 * eps**3 * float(np.sum(D2b * Du * Du))
    S = eps**4 * float(np.sum(D2b * D2u * Du))
    T = eps**3 * float(np.sum(roll(D3b, -1) * u * roll(Du, -1)))
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

    boundR = 2 eps^2 ||D^2 beta||_inf ||Du||^2
    boundS = 2 eps^2 ||D^2 beta||_inf ||Du||^2
    boundT = sqrt(2) eps^2 (K eps)^(1/2) ||D^3 beta||_inf ||Du||^2

    boundR follows from R's definition, R = 2 eps^3 sum D^2 beta (Du)^2,
    and ||Du||^2 = eps sum (Du)^2: it is twice the paper's constant, which a
    u whose Du is a spike at argmax |D^2 beta| (less its mean) exceeds.
    """
    chain = blend.chain
    eps = chain.eps
    u = project_zero_mean(np.asarray(u, dtype=float))
    form = _rst_terms(chain, blend, u)
    Du = diff(chain, u, 1)
    gnorm2 = eps * float(np.sum(Du * Du))
    _, b2, b3 = blend.Dbeta_max
    boundR = 2.0 * eps**2 * b2 * gnorm2
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

def _term_triplets(n: int, reach: int, coef):
    """(rows, cols, values) of coef times 2 u_l - u_{l+reach} - u_{l-reach}
    on n periodic sites, coef a scalar or one value per row: the three
    circulant diagonals in that order, each entry stored whatever its value."""
    idx = np.arange(n)
    c = np.broadcast_to(np.asarray(coef, dtype=float), (n,))
    return (np.tile(idx, 3), np.concatenate([idx, (idx + reach) % n, (idx - reach) % n]),
            np.concatenate([2.0 * c, -c, -c]))


def assemble_triplets(op: Op1D):
    """(dim, rows, cols, values) with the eps weight baked in: op's terms
    one after another, each times N (1 / eps^2 of the differences, eps of
    the weight). u^T A u = <apply(op, u), u> in plain Euclidean arithmetic.
    A blended term stores its entries at every beta, so the stencil keeps
    one pattern across blends (BlendPattern)."""
    chain = op.chain
    rows, cols, vals = map(np.concatenate, zip(*(
        _term_triplets(chain.nsites, r, c) for r, c in _TERMS[op.kind](op.model, op.blend))))
    return chain.nsites, rows, cols, vals * chain.N
