"""Blending functions with quasi-optimal derivative bounds.

The 1D construction places two C3 transition windows on the periodic chain
(a 0-plateau, an up ramp over K sites, a 1-plateau, a down ramp over K
sites): a continuous periodic weight attaining both 0 and 1 necessarily
transitions an even number of times, so this trapezoid is the minimal
periodic layout. Each window keeps 2 constant sites on either end so that
all third differences vanish outside the interface set; the proper samples
sit at t = (m - 1.5)/(K - 4) across the window.

The 2D construction ramps radially in the hexagonal gauge between rings
Ra + 3 and Rb - 3; the 3-ring margins guarantee that every third-difference
direction triple is supported strictly inside the blending annulus.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .config import ModelRangeError
from .lattice1d import Chain1D, diff
from .lattice2d import TriLattice2D, diff2d, ring_number

__all__ = [
    "Blend1D",
    "Blend2D",
    "PROFILES",
    "blend_from_samples",
    "build_blend_1d",
    "build_blend_2d",
    "derivative_bounds",
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


@dataclass(frozen=True)
class Blend1D:
    """Blending weight on the chain with interface bookkeeping.

    interface holds the array positions of I = {l : 0 < beta_{l+j} < 1 for
    some j in {+-1, +-2}} and K = #I. Cbeta is the largest measured
    constant ||D^(j) beta||_inf (K eps)^j over j = 1, 2, 3.
    """

    chain: Chain1D
    beta: np.ndarray = field(repr=False)
    interface: np.ndarray = field(repr=False)
    K: int
    Cbeta: float
    Cbeta_j: tuple
    profile: str


@dataclass(frozen=True)
class Blend2D:
    """Radial blending weight on the triangular lattice (1 inside, 0 outside).

    margined is False only for the sharp probe construction, whose third
    differences deliberately spill outside the blending annulus.
    """

    lattice: TriLattice2D
    beta: np.ndarray = field(repr=False)
    Ra: int
    Rb: int
    K: int
    Cbeta: float
    Cbeta_j: tuple
    profile: str
    margined: bool = True


def _interface_1d(beta: np.ndarray) -> np.ndarray:
    strict = (beta > 0.0) & (beta < 1.0)
    in_I = np.zeros_like(strict)
    for j in (-2, -1, 1, 2):
        in_I |= np.roll(strict, -j)
    return np.flatnonzero(in_I)


def _measure_1d(chain: Chain1D, beta: np.ndarray, K: int) -> tuple:
    bounds = {j: float(np.max(np.abs(diff(chain, beta, j)))) for j in (1, 2, 3)}
    if K == 0:
        return bounds, (0.0, 0.0, 0.0), 0.0
    cb = tuple(bounds[j] * (K * chain.eps) ** j for j in (1, 2, 3))
    return bounds, cb, max(cb)


def build_blend_1d(chain: Chain1D, K: int, center: int = 0, profile: str = "poly7") -> Blend1D:
    """Periodic trapezoid blend with two K-site transition windows.

    The 1-plateau is centered at site index `center`. Each window carries
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
    pc = chain.pos(center)
    q = (pc - (P - 1) // 2) % n
    beta = np.zeros(n)
    beta[(q - K + m) % n] = vals_up
    beta[(q + np.arange(P)) % n] = 1.0
    beta[(q + P + m) % n] = vals_down

    interface = _interface_1d(beta)
    KI = interface.size
    if KI != 2 * K:
        raise RuntimeError(f"interface bookkeeping broke: #I = {KI}, expected {2 * K}")
    bounds, cb, cbeta = _measure_1d(chain, beta, KI)

    # constructed blends must sit inside the lemma window on every order
    caps = _PROFILE_DERIV_MAX[profile]
    margin = 2.0 * K / (K - 4)
    for j, (c, cap) in enumerate(zip(cb, caps), start=1):
        if c < 1.0 - 1e-12:
            raise RuntimeError(f"derivative lower bound violated at order {j}: {c}")
        if c > cap * margin**j * 1.05:
            raise RuntimeError(f"derivative cap violated at order {j}: {c}")
    if cb[0] > 40.0:
        raise RuntimeError(f"first-difference constant {cb[0]:.3f} exceeds 40")

    return Blend1D(chain=chain, beta=beta, interface=interface, K=KI,
                   Cbeta=cbeta, Cbeta_j=cb, profile=profile)


def blend_from_samples(chain: Chain1D, beta: np.ndarray, profile: str = "custom") -> Blend1D:
    """Wrap raw per-site weights as a Blend1D, measuring its constants.

    No construction caps are enforced; intended for synthetic and random
    weights in identity tests.
    """
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (chain.nsites,):
        raise ValueError("beta length mismatch")
    if beta.min() < -1e-12 or beta.max() > 1 + 1e-12:
        raise ValueError("beta values must lie in [0, 1]")
    interface = _interface_1d(beta)
    bounds, cb, cbeta = _measure_1d(chain, beta, interface.size)
    return Blend1D(chain=chain, beta=beta, interface=interface, K=int(interface.size),
                   Cbeta=cbeta, Cbeta_j=cb, profile=profile)


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


_TUPLE_DIRS = ("a1", "a2", "a3")


def _measure_2d(lattice: TriLattice2D, beta: np.ndarray, K: int) -> tuple:
    """Exact maxima of |D^(j) beta| over all direction tuples from a1..a3.

    Opposite directions give the same value sets (D_{-r} f(x) = -D_r f(x-r)),
    so the three positive directions cover all twelve.
    """
    firsts = {d: diff2d(lattice, beta, d) for d in _TUPLE_DIRS}
    b1 = max(float(np.max(np.abs(f))) for f in firsts.values())
    seconds = {}
    b2 = 0.0
    for r, s in product(_TUPLE_DIRS, repeat=2):
        d2 = diff2d(lattice, firsts[s], r)
        seconds[(r, s)] = d2
        b2 = max(b2, float(np.max(np.abs(d2))))
    b3 = 0.0
    for r, (s, t) in product(_TUPLE_DIRS, seconds.keys()):
        b3 = max(b3, float(np.max(np.abs(diff2d(lattice, seconds[(s, t)], r)))))
    bounds = {1: b1, 2: b2, 3: b3}
    if K == 0:
        return bounds, (0.0, 0.0, 0.0), 0.0
    cb = tuple(bounds[j] * (K * lattice.eps) ** j for j in (1, 2, 3))
    return bounds, cb, max(cb)


def build_blend_2d(lattice: TriLattice2D, Ra: int, Rb: int, profile: str = "poly7") -> Blend2D:
    """Radial blend: 1 on Hex(eps(Ra+3)), 0 outside Hex(eps(Rb-3)).

    beta(x) = 1 - B((g(x) - eps(Ra+3)) / (eps(Rb-Ra-6))) with g the
    hexagonal gauge; constant on rings. The 3-ring margins keep all third
    differences supported inside the blending annulus (stencil reach 3).
    """
    if Ra < 0:
        raise ModelRangeError("Ra must be nonnegative")
    if not Ra + 3 < Rb - 3:
        raise ModelRangeError("margin violation: need Ra + 3 < Rb - 3")
    if 2 * Rb > lattice.N:
        raise ModelRangeError(f"Rb = {Rb} exceeds N/2 = {lattice.N / 2:g}")
    ring = ring_number(lattice)
    t = (ring - (Ra + 3)) / (Rb - Ra - 6)
    beta = 1.0 - profile_value(profile, t)
    K = Rb - Ra
    bounds, cb, cbeta = _measure_2d(lattice, beta, K)
    for j, c in enumerate(cb, start=1):
        if c < 1.0 - 1e-12:
            raise RuntimeError(f"derivative lower bound violated at order {j}: {c}")
    return Blend2D(lattice=lattice, beta=beta, Ra=Ra, Rb=Rb, K=K,
                   Cbeta=cbeta, Cbeta_j=cb, profile=profile, margined=True)


def _blend_2d_sharp(lattice: TriLattice2D, Ra: int, Rb: int, profile: str = "poly7") -> Blend2D:
    """Margin-less radial blend for the narrow-band instability probes.

    Third differences spill outside the blending annulus by construction;
    the bound suites reject these (margined=False).
    """
    if not 0 <= Ra < Rb:
        raise ModelRangeError("need 0 <= Ra < Rb")
    if Rb > lattice.N:
        raise ModelRangeError("Rb exceeds the periodic cell")
    ring = ring_number(lattice)
    t = (ring - Ra) / (Rb - Ra)
    beta = 1.0 - profile_value(profile, t)
    K = Rb - Ra
    bounds, cb, cbeta = _measure_2d(lattice, beta, K)
    return Blend2D(lattice=lattice, beta=beta, Ra=Ra, Rb=Rb, K=K,
                   Cbeta=cbeta, Cbeta_j=cb, profile=profile, margined=False)


def derivative_bounds(blend) -> dict:
    """Exact maxima {j: max |D^(j) beta|} for j = 1, 2, 3.

    1D scans all sites; 2D additionally scans all direction tuples drawn
    from the positive nearest-neighbor directions.
    """
    if isinstance(blend, Blend1D):
        return {j: float(np.max(np.abs(diff(blend.chain, blend.beta, j)))) for j in (1, 2, 3)}
    if isinstance(blend, Blend2D):
        bounds, _, _ = _measure_2d(blend.lattice, blend.beta, blend.K)
        return bounds
    raise TypeError(f"not a blend: {type(blend).__name__}")
