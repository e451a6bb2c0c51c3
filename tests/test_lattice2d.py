"""Triangular lattice geometry, 2D differences, hexagonal regions."""

import numpy as np
import pytest

from bqcf.lattice2d import (
    TriLattice2D,
    diff2d,
    diff2d2,
    grad_norm_sq_2d,
    make_regions,
    project_zero_mean_2d,
    ring_number,
    shift_field,
    sum_by_parts_2d_check,
)

_DIRECTIONS = ("a1", "a2", "a3", "-a1", "-a2", "-a3", "b1", "b2", "b3",
               (-1, -1), (1, -2), (2, -1))

# hexagonal point group in lattice coordinates: 60-degree rotation and mirror
_ROT = lambda i, j: (-j, i + j)
_MIR = lambda i, j: (i + j, -j)


def _group_elements():
    seen = {}
    frontier = [lambda i, j: (i, j)]
    while frontier:
        sigma = frontier.pop()
        key = (sigma(1, 0), sigma(0, 1))
        if key in seen:
            continue
        seen[key] = sigma
        for gen in (_ROT, _MIR):
            frontier.append(lambda i, j, s=sigma, g=gen: g(*s(i, j)))
    return list(seen.values())


def test_lattice_basics():
    lat = TriLattice2D(8)
    assert lat.eps == 0.125
    assert lat.nsites == 256
    with pytest.raises(ValueError):
        TriLattice2D(0)


def test_ring_number_identity():
    # ring = gauge/eps = (|i| + |j| + |i+j|)/2 exactly on lattice sites
    lat = TriLattice2D(8)
    ii, jj = lat.coords()
    assert np.array_equal(ring_number(lat), (np.abs(ii) + np.abs(jj) + np.abs(ii + jj)) // 2)


def test_diff2d_constant_field():
    lat = TriLattice2D(4)
    u = np.ones((8, 8, 2)) * 3.0
    for r in _DIRECTIONS:
        assert np.array_equal(diff2d(lat, u, r), np.zeros_like(u))


def test_diff2d_unknown_direction():
    lat = TriLattice2D(4)
    with pytest.raises(ValueError):
        diff2d(lat, np.zeros((8, 8, 2)), "c7")


def test_b1_second_difference_recast(rng):
    # D_b1 D_b1 u(x - b1) splits into the four a1/a2 second differences
    lat = TriLattice2D(8)
    u = rng.normal(size=(16, 16, 2))
    lhs = shift_field(diff2d2(lat, u, "b1", "b1"), (-1, -1))
    rhs = (diff2d2(lat, u, "a1", "a2")
           + shift_field(diff2d2(lat, u, "a1", "a1"), (-1, 0))
           + shift_field(diff2d2(lat, u, "a2", "a2"), (0, -1))
           + shift_field(diff2d2(lat, u, "a1", "a2"), (-1, -1)))
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12 * np.abs(rhs).max())


def test_mixed_differences_commute(rng):
    lat = TriLattice2D(4)
    u = rng.normal(size=(8, 8, 2))
    for r, s in (("a1", "a2"), ("a2", "b3"), ("b1", "a3")):
        assert np.allclose(diff2d2(lat, u, r, s), diff2d2(lat, u, s, r),
                           rtol=1e-12, atol=1e-12)


def test_norms2d_fourier_mode():
    # single lattice Fourier mode against the difference-symbol closed form
    lat = TriLattice2D(8)
    ii, jj = lat.coords()
    p, q = 3, 5
    theta = 2 * np.pi * (p * ii + q * jj) / (2 * lat.N)
    u = np.zeros((16, 16, 2))
    u[..., 0] = np.cos(theta)
    want = 0.0
    for di, dj in ((1, 0), (0, 1), (-1, 1)):
        delta = 2 * np.pi * (p * di + q * dj) / (2 * lat.N)
        want += 4 * np.sin(delta / 2) ** 2 * (2 * lat.N**2)
    assert grad_norm_sq_2d(lat, u) == pytest.approx(want, rel=1e-12)


def test_three_direction_gradient_identity(rng):
    # sum_j |G d_j|^2 = (3/2)|G|_F^2 over the three positive unit directions
    dirs = [np.array([1.0, 0.0]), np.array([0.5, np.sqrt(3) / 2]),
            np.array([-0.5, np.sqrt(3) / 2])]
    for _ in range(20):
        G = rng.normal(size=(2, 2))
        total = sum(np.sum((G @ d) ** 2) for d in dirs)
        assert total == pytest.approx(1.5 * np.sum(G**2), rel=1e-12)


def test_sum_by_parts_constant():
    lat = TriLattice2D(4)
    assert sum_by_parts_2d_check(lat, np.ones((8, 8, 2)), "a1") == 0.0


def test_sum_by_parts_random(rng):
    for N in (4, 8, 16):
        lat = TriLattice2D(N)
        for _ in range(100 // 3):
            u = rng.normal(size=(2 * N, 2 * N, 2))
            for r in _DIRECTIONS:
                res = sum_by_parts_2d_check(lat, u, r)
                assert res <= 1e-11 * (1 + np.abs(u).max() ** 2 / lat.eps**2)


def test_sum_by_parts_one_hot():
    lat = TriLattice2D(4)
    u = np.zeros((8, 8, 2))
    u[3, 3, 0] = 2.0
    d = diff2d(lat, u, "a1")
    rhs = -float(np.sum(d * d))
    # the hot site contributes |u0|^2/eps^2 from each of its two a1 bonds
    assert rhs == pytest.approx(-2 * 4.0 / lat.eps**2, rel=1e-12)
    assert sum_by_parts_2d_check(lat, u, "a1") <= 1e-11 / lat.eps**2


def test_regions_partition():
    lat = TriLattice2D(16)
    reg = make_regions(lat, 4, 8)
    counts = sum(int(reg.mask(lab).sum()) for lab in (0, 1, 2))
    assert counts == lat.nsites
    ring = ring_number(lat)
    assert np.array_equal(reg.mask(0), ring <= 4)
    assert np.array_equal(reg.mask(1), (ring > 4) & (ring <= 8))


def test_regions_validation():
    lat = TriLattice2D(16)
    with pytest.raises(ValueError):
        make_regions(lat, 8, 4)
    # Ra == Rb is legal but degenerate: empty blending annulus
    assert make_regions(lat, 4, 4).mask(1).sum() == 0


def test_hex_membership_point_group_stable():
    # the periodic cell (-N, N]^2 is not group-closed at its rim; within
    # Hex(N/2) (the Rb <= N/2 hypothesis) images never wrap and rings match
    lat = TriLattice2D(8)
    ring = ring_number(lat)
    ii, jj = lat.coords()
    n = 2 * lat.N
    inside = ring <= lat.N // 2
    elems = _group_elements()
    assert len(elems) == 12
    for sigma in elems:
        si, sj = sigma(ii, jj)
        mapped = ring[(si + lat.N - 1) % n, (sj + lat.N - 1) % n]
        assert np.array_equal(mapped[inside], ring[inside])


def test_project_zero_mean_2d(rng):
    u = rng.normal(size=(8, 8, 2)) + np.array([1.5, -2.0])
    p = project_zero_mean_2d(u)
    assert np.allclose(p.sum(axis=(0, 1)), 0.0, atol=1e-12)
