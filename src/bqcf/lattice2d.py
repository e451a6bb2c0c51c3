"""Periodic triangular lattice: geometry, hexagonal regions, 2D differences.

Sites are A6 @ (i, j) for lattice coordinates (i, j) in (-N, N]^2, giving
4N^2 sites with spacing eps = 1/N. Scalar fields are (2N, 2N) arrays and
displacements (2N, 2N, 2) arrays, both indexed by array positions
p = (coord + N - 1) mod 2N per axis (same convention as the 1D chain).

Directions are named a1..a6 for the nearest-neighbor shell and b1..b3 for
the next-nearest shell (b1 = a1 + a2, b2 = a2 + a3, b3 = a3 - a1); a
leading '-' negates. Index offsets and unit-cell-scale Cartesian vectors
are exposed for the operator and potential modules.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import ModelRangeError

__all__ = [
    "TriLattice2D",
    "Regions2D",
    "DIR_OFFSETS",
    "UNIT_A",
    "UNIT_B",
    "diff2d",
    "diff2d2",
    "hex_gauge",
    "make_regions",
    "norms2d",
    "ring_number",
    "shift_field",
    "sum_by_parts_2d_check",
]

_SQ3 = np.sqrt(3.0)

# index offsets of the twelve neighbor directions
DIR_OFFSETS = {
    "a1": (1, 0), "a2": (0, 1), "a3": (-1, 1),
    "a4": (-1, 0), "a5": (0, -1), "a6": (1, -1),
    "b1": (1, 1), "b2": (-1, 2), "b3": (-2, 1),
}

# Cartesian directions on the unit-cell scale (a_i / eps, b_i / eps)
UNIT_A = (
    np.array([1.0, 0.0]),
    np.array([0.5, _SQ3 / 2]),
    np.array([-0.5, _SQ3 / 2]),
)
UNIT_B = (
    np.array([1.5, _SQ3 / 2]),
    np.array([0.0, _SQ3]),
    np.array([-1.5, _SQ3 / 2]),
)

# unit normals to the a1, a2, a3 directions; the hexagon gauge maxes over them
_HEX_NORMALS = (
    np.array([0.0, 1.0]),
    np.array([-_SQ3 / 2, 0.5]),
    np.array([_SQ3 / 2, 0.5]),
)


def resolve_direction(r) -> tuple[int, int]:
    """Direction name ('a1'..'b3', optionally '-'-prefixed) or offset tuple."""
    if isinstance(r, str):
        neg = r.startswith("-")
        name = r[1:] if neg else r
        if name not in DIR_OFFSETS:
            raise ValueError(f"unknown direction {r!r}")
        di, dj = DIR_OFFSETS[name]
        return (-di, -dj) if neg else (di, dj)
    di, dj = r
    return int(di), int(dj)


@dataclass(frozen=True)
class TriLattice2D:
    """Periodic triangular lattice over (-N, N]^2 with eps = 1/N."""

    N: int

    def __post_init__(self) -> None:
        if self.N < 1:
            raise ModelRangeError("N must be a positive integer")

    @property
    def eps(self) -> float:
        return 1.0 / self.N

    @property
    def nsites(self) -> int:
        return 4 * self.N * self.N

    @property
    def A6(self) -> np.ndarray:
        """Lattice basis matrix eps * [[1, 1/2], [0, sqrt(3)/2]]."""
        return self.eps * np.array([[1.0, 0.5], [0.0, _SQ3 / 2]])

    def axis_positions(self) -> np.ndarray:
        """Reduced coordinates (in (-N, N]) along one axis, by array position."""
        return np.arange(2 * self.N) - self.N + 1

    def coords(self) -> tuple[np.ndarray, np.ndarray]:
        """Meshgrid of reduced lattice coordinates (i, j), array-indexed."""
        c = self.axis_positions()
        return np.meshgrid(c, c, indexing="ij")

    def site_index(self, i: int, j: int) -> int:
        """Flat index in 0..4N^2-1; wraps modulo 2N in each coordinate."""
        n = 2 * self.N
        return ((i + self.N - 1) % n) * n + (j + self.N - 1) % n

    def index_coords(self, idx: int) -> tuple[int, int]:
        """Inverse of site_index, reduced to (-N, N]^2."""
        n = 2 * self.N
        pi, pj = divmod(idx % (n * n), n)
        return pi - self.N + 1, pj - self.N + 1


def shift_field(u: np.ndarray, d) -> np.ndarray:
    """Field evaluated at x + d: periodic roll by the index offset d."""
    di, dj = resolve_direction(d)
    return np.roll(u, (-di, -dj), axis=(0, 1))


def diff2d(lattice: TriLattice2D, u: np.ndarray, r) -> np.ndarray:
    """D_r u(x) = (u(x + r) - u(x)) / eps, componentwise."""
    return (shift_field(u, r) - u) / lattice.eps


def diff2d2(lattice: TriLattice2D, u: np.ndarray, r, s) -> np.ndarray:
    """Mixed second difference D_r D_s u(x) = (D_s u(x+r) - D_s u(x)) / eps."""
    d = diff2d(lattice, u, s)
    return (shift_field(d, r) - d) / lattice.eps


def ring_number(lattice: TriLattice2D) -> np.ndarray:
    """Hexagonal ring of every site: g(x)/eps = (|i| + |j| + |i+j|) / 2.

    Integer-valued on the lattice; ring r is exactly the boundary of
    Hex(eps*r) through the canonical representatives.
    """
    ii, jj = lattice.coords()
    return (np.abs(ii) + np.abs(jj) + np.abs(ii + jj)) // 2


def hex_gauge(lattice: TriLattice2D, x: np.ndarray) -> np.ndarray:
    """Minkowski gauge of the hexagon with sides aligned to a1, a2, a3.

    g(x) = max_i |n_i . x| / (sqrt(3)/2); x lies in Hex(r) iff g(x) <= r,
    where Hex(r) has circumradius r (vertex-to-vertex diameter 2r).
    Accepts a single point (2,) or a stack (..., 2).
    """
    x = np.asarray(x, dtype=float)
    vals = [np.abs(x @ n) for n in _HEX_NORMALS]
    return np.max(vals, axis=0) / (_SQ3 / 2)


def norms2d(lattice: TriLattice2D, u: np.ndarray) -> dict:
    """l2eps = (eps^2 sum |u|^2)^(1/2); linf over components; Dl2eps sums
    |D_{a_i} u|^2 over the three positive directions only."""
    u = np.asarray(u, dtype=float)
    return {
        "l2eps": float(np.sqrt(lattice.eps**2 * np.sum(u * u))),
        "linf": float(np.max(np.abs(u))) if u.size else 0.0,
        "Dl2eps": float(np.sqrt(grad_norm_sq_2d(lattice, u))),
    }


def grad_norm_sq_2d(lattice: TriLattice2D, u: np.ndarray) -> float:
    """||Du||^2 = eps^2 sum_x sum_{i=1..3} |D_{a_i} u(x)|^2."""
    total = 0.0
    for name in ("a1", "a2", "a3"):
        d = diff2d(lattice, u, name)
        total += float(np.sum(d * d))
    return lattice.eps**2 * total


def inner2d(lattice: TriLattice2D, f: np.ndarray, g: np.ndarray) -> float:
    """Weighted inner product eps^2 sum_x f(x) . g(x)."""
    if f.shape != g.shape:
        raise ValueError("shape mismatch")
    return float(lattice.eps**2 * np.sum(f * g))


def project_zero_mean_2d(u: np.ndarray) -> np.ndarray:
    """Subtract the componentwise site mean."""
    return u - u.mean(axis=(0, 1))


def random_zero_mean_2d(lattice: TriLattice2D, rng: np.random.Generator) -> np.ndarray:
    n = 2 * lattice.N
    return project_zero_mean_2d(rng.standard_normal((n, n, 2)))


def sum_by_parts_2d_check(lattice: TriLattice2D, u: np.ndarray, r) -> float:
    """Residual of sum_x u(x) . D_r D_r u(x-r) = -sum_x |D_r u(x)|^2.

    Plain (unweighted) site sums; boundary terms cancel by periodicity.
    """
    di, dj = resolve_direction(r)
    d = diff2d(lattice, u, (di, dj))
    lhs_field = shift_field(diff2d2(lattice, u, (di, dj), (di, dj)), (-di, -dj))
    lhs = float(np.sum(u * lhs_field))
    rhs = -float(np.sum(d * d))
    return abs(lhs - rhs)


@dataclass(frozen=True)
class Regions2D:
    """Atomistic / blending / continuum partition by hexagonal rings.

    labels: 0 = atomistic (ring <= Ra, closed hexagon), 1 = blending
    (Ra < ring <= Rb), 2 = continuum. K = Rb - Ra.
    """

    Ra: int
    Rb: int
    labels: np.ndarray = field(repr=False)

    @property
    def K(self) -> int:
        return self.Rb - self.Ra

    def mask(self, label: int) -> np.ndarray:
        return self.labels == label


def make_regions(lattice: TriLattice2D, Ra: int, Rb: int) -> Regions2D:
    # Ra == Rb leaves the blending annulus empty; callers treat it as degenerate
    if not 0 <= Ra <= Rb:
        raise ModelRangeError("need 0 <= Ra <= Rb")
    ring = ring_number(lattice)
    labels = np.full(ring.shape, 2, dtype=np.int8)
    labels[ring <= Rb] = 1
    labels[ring <= Ra] = 0
    return Regions2D(Ra=Ra, Rb=Rb, labels=labels)
