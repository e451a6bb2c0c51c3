"""Interaction-potential second derivatives at the homogeneous state.

The linear theory sees only Hessian data: scalars phi''(F), phi''(2F) in 1D
and 2x2 matrices phi''(B a_i), phi''(B b_i) in 2D. Models accept direct
coefficient entry (the primary mode for the operator experiments) or are
derived from a built-in radial pair potential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .config import ModelRangeError
from .lattice2d import UNIT_A, UNIT_B

__all__ = [
    "PairModel1D",
    "PairModel2D",
    "RadialPotential",
    "c0",
    "harmonic",
    "hessians_from_radial",
    "lennard_jones",
    "model_1d_from_radial",
    "morse",
    "radial_hessian",
]

_SYM_TOL = 1e-14


@dataclass(frozen=True)
class PairModel1D:
    """1D linearization coefficients at macroscopic strain F.

    phiF is the nearest-neighbor stiffness phi''(F) (assumed positive),
    phi2F the second-neighbor stiffness phi''(2F) (any sign).
    """

    phiF: float
    phi2F: float
    F: float = 1.0

    def __post_init__(self) -> None:
        if not self.phiF > 0:
            raise ModelRangeError("nearest-neighbor stiffness phi''(F) must be positive")
        if not self.F > 0:
            raise ValueError("strain F must be positive")


def c0(model: PairModel1D) -> float:
    """Atomistic stability constant min(phi''_F, phi''_F + 4 phi''_2F)."""
    return min(model.phiF, model.phiF + 4.0 * model.phi2F)


@dataclass(frozen=True)
class PairModel2D:
    """2D linearization data: one 2x2 Hessian per bond direction.

    Ha holds phi''(B a_i) for the three positive nearest-neighbor
    directions, Hb the next-nearest phi''(B b_i). All must be symmetric.
    """

    B: np.ndarray
    Ha: tuple
    Hb: tuple

    def __post_init__(self) -> None:
        B = np.asarray(self.B, dtype=float)
        if B.shape != (2, 2):
            raise ValueError("B must be a 2x2 matrix")
        if np.linalg.det(B) <= 0:
            raise ValueError("B must have positive determinant")
        object.__setattr__(self, "B", B)
        for name in ("Ha", "Hb"):
            mats = tuple(np.asarray(H, dtype=float) for H in getattr(self, name))
            if len(mats) != 3:
                raise ValueError(f"{name} needs one 2x2 Hessian per bond direction")
            for H in mats:
                if H.shape != (2, 2):
                    raise ValueError(f"{name} Hessians must be 2x2")
                scale = max(float(np.abs(H).max()), 1.0)
                if float(np.abs(H - H.T).max()) > _SYM_TOL * scale:
                    raise ValueError(f"{name} Hessians must be symmetric")
            object.__setattr__(self, name, mats)


@dataclass(frozen=True)
class RadialPotential:
    """Radial pair potential given through its first two derivatives."""

    name: str
    d1: Callable[[float], float]
    d2: Callable[[float], float]


def harmonic() -> RadialPotential:
    """phi(rho) = rho^2 / 2, so phi' = rho and phi'' = 1."""
    return RadialPotential("harmonic", d1=lambda r: r, d2=lambda r: 1.0)


def lennard_jones() -> RadialPotential:
    """phi(rho) = rho^-12 - 2 rho^-6; minimum at rho = 1 with phi''(1) = 72."""
    return RadialPotential(
        "lj",
        d1=lambda r: -12.0 * r**-13 + 12.0 * r**-7,
        d2=lambda r: 156.0 * r**-14 - 84.0 * r**-8,
    )


def morse(alpha: float = 4.0) -> RadialPotential:
    """phi(rho) = exp(-2 a (rho-1)) - 2 exp(-a (rho-1)); phi''(1) = 2 a^2."""

    def d1(r: float, a: float = alpha) -> float:
        return -2.0 * a * math.exp(-2.0 * a * (r - 1.0)) + 2.0 * a * math.exp(-a * (r - 1.0))

    def d2(r: float, a: float = alpha) -> float:
        return 4.0 * a * a * math.exp(-2.0 * a * (r - 1.0)) - 2.0 * a * a * math.exp(-a * (r - 1.0))

    return RadialPotential(f"morse(alpha={alpha:g})", d1=d1, d2=d2)


def radial_hessian(phi: RadialPotential, r0: np.ndarray) -> np.ndarray:
    """Hessian of x -> phi(|x|) at x = r0.

    H = phi''(rho) rhat rhat^T + (phi'(rho)/rho) (I - rhat rhat^T) with
    rho = |r0|; eigenvalues phi''(rho) along the bond, phi'(rho)/rho across.
    """
    r0 = np.asarray(r0, dtype=float)
    rho = float(np.linalg.norm(r0))
    if rho == 0.0:
        raise ValueError("degenerate bond direction")
    rhat = r0 / rho
    P = np.outer(rhat, rhat)
    return phi.d2(rho) * P + (phi.d1(rho) / rho) * (np.eye(len(r0)) - P)


def hessians_from_radial(phi: RadialPotential, B: np.ndarray) -> PairModel2D:
    """Bond Hessians at deformation B, bonds on the unit cell scale.

    The bond vectors are B a_i / eps and B b_i / eps, so the result is
    independent of the lattice spacing.
    """
    B = np.asarray(B, dtype=float)
    Ha = tuple(radial_hessian(phi, B @ d) for d in UNIT_A)
    Hb = tuple(radial_hessian(phi, B @ d) for d in UNIT_B)
    return PairModel2D(B=B, Ha=Ha, Hb=Hb)


def model_1d_from_radial(phi: RadialPotential, F: float) -> PairModel1D:
    """1D coefficients phi''(F), phi''(2F) at strain F."""
    return PairModel1D(phiF=phi.d2(F), phi2F=phi.d2(2.0 * F), F=F)
