"""Periodic triangular lattice: geometry, hexagonal regions, 2D differences.

Sites are eps * (i + j/2, sqrt(3) j/2) for lattice coordinates (i, j) in
(-N, N]^2, giving 4N^2 sites with spacing eps = 1/N. Scalar fields are (2N, 2N) arrays and
displacements (2N, 2N, 2) arrays, both indexed by array positions
p = (coord + N - 1) mod 2N per axis (same convention as the 1D chain).

Directions are named a1..a3 for the nearest-neighbor shell and b1..b3 for
the next-nearest shell (b1 = a1 + a2, b2 = a2 + a3, b3 = a3 - a1); a
leading '-' negates, so -a1..-a3 complete the nearest shell. Index offsets
and unit-cell-scale Cartesian vectors serve the operator and potential modules.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import ModelRangeError

__all__ = [
    "TriLattice2D",
    "Regions2D",
    "BONDS",
    "DIR_OFFSETS",
    "NN",
    "UNIT_A",
    "UNIT_B",
    "diff2d",
    "diff2d2",
    "grad_norm_sq_2d",
    "inner2d",
    "make_regions",
    "project_zero_mean_2d",
    "random_zero_mean_2d",
    "resolve_direction",
    "ring_number",
    "shift_field",
    "sum_by_parts_2d_check",
]

_SQ3 = np.sqrt(3.0)

# index offsets of the positive neighbor directions; '-' names the others
DIR_OFFSETS = {
    "a1": (1, 0), "a2": (0, 1), "a3": (-1, 1),
    "b1": (1, 1), "b2": (-1, 2), "b3": (-2, 1),
}
NN = ("a1", "a2", "a3")
BONDS = ("b1", "b2", "b3")

# Cartesian directions on the unit-cell scale (a_i / eps, b_i / eps): the
# offset (i, j) lies at (i + j/2, sqrt(3) j/2)
UNIT_A, UNIT_B = (tuple(np.array([i + j / 2, _SQ3 * j / 2]) for i, j in map(DIR_OFFSETS.get, names))
                  for names in (NN, BONDS))


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

    def coords(self) -> tuple[np.ndarray, np.ndarray]:
        """Meshgrid of reduced lattice coordinates (i, j), array-indexed: array
        position p along either axis holds the coordinate p - N + 1 in (-N, N]."""
        c = np.arange(2 * self.N) - self.N + 1
        return np.meshgrid(c, c, indexing="ij")

    def inversion(self, ncomp: int = 1) -> np.ndarray:
        """Inversion x -> -x through the origin as a coordinate permutation:
        the flat index of -x's coordinates for each of x's, ncomp per site,
        components kept. Array position p maps to (2N - 2 - p) mod 2N on
        both axes; N = 1 fixes every site."""
        n = 2 * self.N
        p = (n - 2 - np.arange(n)) % n
        sites = (p[:, None] * n + p).ravel()
        return (ncomp * sites[:, None] + np.arange(ncomp)).ravel()


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


def grad_norm_sq_2d(lattice: TriLattice2D, u: np.ndarray) -> float:
    """||Du||^2 = eps^2 sum_x sum_{i=1..3} |D_{a_i} u(x)|^2."""
    total = 0.0
    for name in NN:
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
    (Ra < ring <= Rb), 2 = continuum.
    """

    Ra: int
    Rb: int
    labels: np.ndarray = field(repr=False)

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
