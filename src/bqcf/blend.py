"""Blending functions with quasi-optimal derivative bounds.

The 1D construction places two C3 transition windows on the periodic chain
(a 0-plateau, an up ramp over K sites, a 1-plateau, a down ramp over K
sites): a continuous periodic weight attaining both 0 and 1 necessarily
transitions an even number of times, so this trapezoid is the minimal
periodic layout. Each window keeps 2 constant sites on either end so that
all third differences vanish outside the interface set; the proper samples
sit at t = (m - 1.5)/(K - 4) across the window.

The 2D construction ramps radially in the hexagonal gauge; the bounded
blend ramps between rings Ra + 3 and Rb - 3, and the 2D bound suite
measures that its third differences vanish outside the blending annulus.

A blend holds only its weight and geometry. The interface set, K, the
maxima max |D^(j) beta| and the constants ||D^(j) beta||_inf (K eps)^j are
derived from them, the maxima measured once by derivative_bounds on first
read, so a blend built by replacing its weight never carries another
weight's data.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .config import ModelRangeError
from .lattice1d import Chain1D, diff, diffs, roll
from .lattice2d import NN, TriLattice2D, diff2d, ring_number

__all__ = [
    "Blend1D",
    "Blend2D",
    "PROFILES",
    "blend_from_samples",
    "build_blend_1d",
    "build_blend_2d",
    "derivative_bounds",
    "profile_value",
    "third_diff_level_set",
]

PROFILES = ("poly7", "cosine")

# max |B'|, |B''|, |B'''| of the reference profiles on [0, 1]; the discrete
# caps below follow from these by the mean value theorem (extension is C3).
_PROFILE_DERIV_MAX = {
    "poly7": (2.1875, 7.5131884043916, 52.5),
    "cosine": (2.4674011002723, 9.2412023341992, 84.4390973569571),
}


def profile_value(profile: str, t: np.ndarray) -> np.ndarray:
    """Reference transition profile, constant-extended outside [0, 1]."""
    t = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
    if profile == "poly7":
        # minimal-degree polynomial with B', B'', B''' vanishing at 0 and 1
        return t**4 * (35.0 - 84.0 * t + 70.0 * t**2 - 20.0 * t**3)
    if profile == "cosine":
        s = 0.5 * (1.0 - np.cos(np.pi * t))
        return 0.5 * (1.0 - np.cos(np.pi * s))
    raise ValueError(f"unknown profile {profile!r}; available: {PROFILES}")


class _BlendConstants:
    """Dbeta_max: the maxima max |D^(j) beta|, j = 1, 2, 3, measured by
    derivative_bounds on first read; Cbeta_j: the constants
    ||D^(j) beta||_inf (K eps)^j, zero when K = 0; Cbeta: their maximum."""

    @cached_property
    def Dbeta_max(self) -> tuple:
        return tuple(derivative_bounds(self).values())

    @cached_property
    def Cbeta_j(self) -> tuple:
        return tuple(d * (self.K * self.eps) ** j for j, d in enumerate(self.Dbeta_max, start=1))

    @property
    def Cbeta(self) -> float:
        return max(self.Cbeta_j)


@dataclass(frozen=True, eq=False)
class Blend1D(_BlendConstants):
    """Blending weight on the chain: only the chain and weight are held.

    Everything else derives from beta. interface holds the array positions
    of I = {l : 0 < beta_{l+j} < 1 for some j in {+-1, +-2}} and K = #I.
    """

    chain: Chain1D
    beta: np.ndarray = field(repr=False)

    @cached_property
    def interface(self) -> np.ndarray:
        return _interface_1d(self.beta)

    @property
    def K(self) -> int:
        return int(self.interface.size)

    eps = property(lambda self: self.chain.eps)


@dataclass(frozen=True, eq=False)
class Blend2D(_BlendConstants):
    """Radial blending weight on the triangular lattice (1 inside, 0 outside):
    only the weight and its geometry are held.

    The blending annulus is Ra < ring <= Rb, and K = Rb - Ra. Whether the
    third differences of beta vanish outside the annulus is not recorded:
    support_leak measures it, with Dbeta_max, on first read of either.
    """

    lattice: TriLattice2D
    beta: np.ndarray = field(repr=False)
    Ra: int
    Rb: int

    @property
    def K(self) -> int:
        return self.Rb - self.Ra

    @cached_property
    def _ladder(self) -> tuple:
        """{j: max |D^(j) beta|} and the support leak, from one ladder walk."""
        ring = ring_number(self.lattice)
        outside = (ring <= self.Ra) | (ring > self.Rb)
        maxima = {}
        for j, level in enumerate(_difference_ladder(self), start=1):
            maxima[j] = max(float(np.max(np.abs(f))) for f in level)
        return maxima, max(float(np.max(np.abs(f[outside]))) for f in level)

    # max |D_{d_1} D_{d_2} D_{d_3} beta| outside the annulus over the 27 triples
    support_leak = property(lambda self: self._ladder[1])

    eps = property(lambda self: self.lattice.eps)


def _interface_1d(beta: np.ndarray) -> np.ndarray:
    strict = (beta > 0.0) & (beta < 1.0)
    in_I = np.zeros_like(strict)
    for j in (-2, -1, 1, 2):
        in_I |= roll(strict, -j)
    return np.flatnonzero(in_I)


def build_blend_1d(chain: Chain1D, K: int, profile: str = "poly7") -> Blend1D:
    """Periodic trapezoid blend with two K-site transition windows.

    The 1-plateau is centered at site index 0. Each window carries
    2 margin sites at either end, so the interface set I has exactly 2K
    sites and D^(j) beta = 0 outside I for j = 1, 2, 3. The measured
    constants satisfy ||D beta||_inf (2K eps) <= 40 and per-order caps
    derived from the continuum profile maxima.
    """
    n = chain.nsites
    if K < 6:
        raise ModelRangeError("blending window too narrow: need K >= 6 for the margins")
    if 2 * K + 2 > n:
        raise ModelRangeError(f"blending windows exceed the period: 2*{K}+2 > {n}")
    m = np.arange(K)
    vals_up = profile_value(profile, (m - 1.5) / (K - 4))
    vals_down = profile_value(profile, (K - 2.5 - m) / (K - 4))

    P = (n - 2 * K) // 2
    pc = chain.pos(0)
    q = (pc - (P - 1) // 2) % n
    beta = np.zeros(n)
    beta[(q - K + m) % n] = vals_up
    beta[(q + np.arange(P)) % n] = 1.0
    beta[(q + P + m) % n] = vals_down

    blend = Blend1D(chain=chain, beta=beta)
    if blend.K != 2 * K:
        raise RuntimeError(f"interface bookkeeping broke: #I = {blend.K}, expected {2 * K}")

    # constructed blends must sit inside the lemma window on every order
    caps = _PROFILE_DERIV_MAX[profile]
    margin = 2.0 * K / (K - 4)
    cb = blend.Cbeta_j
    for j, (c, cap) in enumerate(zip(cb, caps), start=1):
        if c < 1.0 - 1e-12:
            raise RuntimeError(f"derivative lower bound violated at order {j}: {c}")
        if c > cap * margin**j * 1.05:
            raise RuntimeError(f"derivative cap violated at order {j}: {c}")
    if cb[0] > 40.0:
        raise RuntimeError(f"first-difference constant {cb[0]:.3f} exceeds 40")
    return blend


def blend_from_samples(chain: Chain1D, beta: np.ndarray) -> Blend1D:
    """Wrap raw per-site weights as a Blend1D.

    No construction caps are enforced; intended for synthetic and random
    weights in identity tests.
    """
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (chain.nsites,):
        raise ValueError("beta length mismatch")
    if beta.min() < -1e-12 or beta.max() > 1 + 1e-12:
        raise ValueError("beta values must lie in [0, 1]")
    return Blend1D(chain=chain, beta=beta)


def third_diff_level_set(blend: Blend1D) -> np.ndarray:
    """Array positions where D^(3) beta <= -(1/2) (eps K)^(-3).

    The cardinality is checked against the guaranteed fraction K/(2 Cbeta).
    """
    beta = blend.beta
    if np.all(beta == beta[0]) or blend.K == 0:
        raise ValueError("no transition: beta is constant")
    chain = blend.chain
    d3 = diff(chain, beta, 3)
    thresh = -0.5 * (chain.eps * blend.K) ** -3
    jset = np.flatnonzero(d3 <= thresh)
    if blend.Cbeta > 0 and jset.size < blend.K / (2.0 * blend.Cbeta):
        raise RuntimeError(
            f"level set too small: {jset.size} < K/(2 Cbeta) = "
            f"{blend.K / (2 * blend.Cbeta):.3f}")
    return jset


def build_blend_2d(lattice: TriLattice2D, Ra: int, Rb: int, profile: str = "poly7") -> Blend2D:
    """Radial blend: 1 on Hex(eps(Ra+3)), 0 outside Hex(eps(Rb-3)).

    The sharp ramp between rings Ra + 3 and Rb - 3, given the blending
    annulus Ra < ring <= Rb. The 3-ring margins (stencil reach 3) keep every
    third difference inside the annulus, which rs_bounds_2d measures.
    """
    if Ra < 0:
        raise ModelRangeError("Ra must be nonnegative")
    if not Ra + 3 < Rb - 3:
        raise ModelRangeError("margin violation: need Ra + 3 < Rb - 3")
    if 2 * Rb > lattice.N:
        raise ModelRangeError(f"Rb = {Rb} exceeds N/2 = {lattice.N / 2:g}")
    blend = replace(_blend_2d_sharp(lattice, Ra + 3, Rb - 3, profile), Ra=Ra, Rb=Rb)
    for j, c in enumerate(blend.Cbeta_j, start=1):
        if c < 1.0 - 1e-12:
            raise RuntimeError(f"derivative lower bound violated at order {j}: {c}")
    return blend


def _blend_2d_sharp(lattice: TriLattice2D, Ra: int, Rb: int, profile: str = "poly7") -> Blend2D:
    """Margin-less radial blend for the narrow-band instability probes.

    beta(x) = 1 - B((g(x) - eps Ra) / (eps (Rb - Ra))) with g the hexagonal
    gauge. Third differences spill outside the annulus, and the 2D bound
    suite rejects them by measurement. Cbeta_j is measured on first read.
    """
    if not 0 <= Ra < Rb:
        raise ModelRangeError("need 0 <= Ra < Rb")
    if Rb > lattice.N:
        raise ModelRangeError("Rb exceeds the periodic cell")
    ring = ring_number(lattice)
    t = (ring - Ra) / (Rb - Ra)
    beta = 1.0 - profile_value(profile, t)
    return Blend2D(lattice=lattice, beta=beta, Ra=Ra, Rb=Rb)


def _difference_ladder(blend: Blend2D):
    """For j = 1, 2, 3, the 3^j fields D_{d_1} ... D_{d_j} beta over every
    tuple of directions d_i drawn from a1, a2, a3."""
    level = [blend.beta]
    for _ in range(3):
        level = [diff2d(blend.lattice, f, d) for f in level for d in NN]
        yield level


def derivative_bounds(blend) -> dict:
    """Exact maxima {j: max |D^(j) beta|} for j = 1, 2, 3.

    1D scans all sites; 2D scans the difference ladder, one field per tuple
    of positive nearest-neighbor directions, with the support leak in the
    same walk. Opposite directions give the same value sets
    (D_{-r} f(x) = -D_r f(x-r)), so the three positive directions cover all six.
    """
    if isinstance(blend, Blend1D):
        return {j: float(np.max(np.abs(d)))
                for j, d in enumerate(diffs(blend.chain, blend.beta, 3), start=1)}
    if isinstance(blend, Blend2D):
        return dict(blend._ladder[0])
    raise TypeError(f"not a blend: {type(blend).__name__}")
