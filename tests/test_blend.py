"""Blending function construction and derivative-bound measurement."""

from dataclasses import replace

import numpy as np
import pytest

from bqcf import blend as blend_module
from bqcf import ops1d, ops2d
from bqcf.blend import (
    Blend2D,
    blend_from_samples,
    build_blend_1d,
    build_blend_2d,
    derivative_bounds,
    third_diff_level_set,
)
from bqcf.lattice1d import Chain1D, diff
from bqcf.lattice2d import TriLattice2D, diff2d, random_zero_mean_2d, ring_number
from bqcf.potentials import hessians_from_radial, morse


def test_builder_rejects_degenerate_sizes():
    ch = Chain1D(16)
    with pytest.raises(ValueError):
        build_blend_1d(ch, 2 * ch.N)
    with pytest.raises(ValueError):
        build_blend_1d(ch, 4)


def test_profile_shape_n64_k16():
    ch = Chain1D(64)
    bl = build_blend_1d(ch, 16)
    beta = bl.beta
    assert beta.min() >= 0.0 and beta.max() <= 1.0
    outside = np.setdiff1d(np.arange(beta.size), bl.interface)
    assert np.all((beta[outside] == 0.0) | (beta[outside] == 1.0))
    # ramps are monotone: sign changes of D beta only at the two plateaus
    d = np.sign(np.round(diff(ch, beta, 1), 14))
    assert set(d.tolist()) <= {-1.0, 0.0, 1.0}
    c1 = derivative_bounds(bl)[1] * (bl.K * ch.eps)
    assert 1.0 <= c1 <= 40.0


def test_doubling_window_halves_slope():
    # measured at K=24: the 2-site margins skew smaller windows past 15%
    ch = Chain1D(256)
    r = derivative_bounds(build_blend_1d(ch, 24))[1] / derivative_bounds(build_blend_1d(ch, 48))[1]
    assert abs(r / 2.0 - 1.0) <= 0.15


def test_measured_lower_bounds():
    ch = Chain1D(64)
    for Karg in (16, 24):
        bl = build_blend_1d(ch, Karg)
        b = derivative_bounds(bl)
        for j in (1, 2, 3):
            assert b[j] >= (bl.K * ch.eps) ** (-j)


def test_first_order_constant_capped():
    for N, Karg in ((64, 16), (128, 32), (512, 48)):
        bl = build_blend_1d(Chain1D(N), Karg)
        assert bl.Cbeta_j[0] <= 40.0


@pytest.mark.xfail(strict=True, reason="degree-7 profile has |B'''| max 52.5; "
                   "the j>=2 constants exceed 40 for every admissible window")
def test_constant_cap_40_at_higher_orders():
    bl = build_blend_1d(Chain1D(64), 16)
    assert max(bl.Cbeta_j[1], bl.Cbeta_j[2]) <= 40.0


def test_scaling_invariance_fixed_keps():
    # (N, K) -> (4N, 4K) holds K*eps fixed; D5 margin arithmetic needs K large
    a = derivative_bounds(build_blend_1d(Chain1D(256), 192))
    b = derivative_bounds(build_blend_1d(Chain1D(1024), 768))
    for j in (1, 2, 3):
        assert abs(b[j] / a[j] - 1.0) < 0.05


def test_eps_independence_fixed_k():
    # same window resamples the same profile points: eps^j scaling is exact
    a = derivative_bounds(build_blend_1d(Chain1D(64), 16))
    b = derivative_bounds(build_blend_1d(Chain1D(256), 16))
    for j in (1, 2, 3):
        assert a[j] * (1 / 64) ** j == pytest.approx(b[j] * (1 / 256) ** j, rel=1e-12)


def test_diffs_vanish_outside_interface():
    ch = Chain1D(64)
    bl = build_blend_1d(ch, 16)
    outside = np.setdiff1d(np.arange(2 * ch.N), bl.interface)
    for order in (1, 2, 3):
        assert np.all(diff(ch, bl.beta, order)[outside] == 0.0)


def test_cosine_profile():
    ch = Chain1D(64)
    bl = build_blend_1d(ch, 16, profile="cosine")
    b = derivative_bounds(bl)
    for j in (1, 2, 3):
        assert b[j] >= (bl.K * ch.eps) ** (-j)
    with pytest.raises(ValueError):
        build_blend_1d(ch, 16, profile="spline")


def test_derivative_bounds_constant():
    ch = Chain1D(16)
    bl = blend_from_samples(ch, np.ones(32))
    assert derivative_bounds(bl) == {1: 0.0, 2: 0.0, 3: 0.0}


def test_derivative_bounds_linear_ramp():
    # C^0 ramp over K sites has exact slope 1/(K eps)
    ch = Chain1D(32)
    K = 8
    beta = np.zeros(64)
    beta[:K + 1] = np.arange(K + 1) / K
    beta[K + 1:2 * K + 1] = beta[K - 1::-1]
    bl = blend_from_samples(ch, beta)
    assert derivative_bounds(bl)[1] == pytest.approx(1.0 / (K * ch.eps), rel=1e-12)


def test_level_set_cardinality_k32():
    ch = Chain1D(128)
    bl = build_blend_1d(ch, 32)
    jp = third_diff_level_set(bl)
    assert jp.size >= bl.K / (2.0 * bl.Cbeta)


def test_level_set_synthetic_cubic_ramp():
    # descending cubic: D3 beta = -6 (K eps)^-3 on the ramp interior
    ch = Chain1D(16)
    n = 2 * ch.N
    K = 8
    beta = np.zeros(n)
    s = 4
    ramp = np.arange(s, s + K + 1)
    beta[ramp] = ((s + K - ramp) / K) ** 3
    beta[:s + 1] = 1.0
    bl = blend_from_samples(ch, beta)
    thr = 0.5 / (ch.eps * bl.K) ** 3
    d3 = (np.roll(beta, -1) - 3 * beta + 3 * np.roll(beta, 1) - np.roll(beta, 2)) / ch.eps**3
    expected = np.where(d3 <= -thr)[0]
    assert expected.size > 0
    assert np.array_equal(third_diff_level_set(bl), expected)


def test_level_set_mirror_symmetry():
    # odd-order differences are reflection-antisymmetric: the mirrored blend's
    # level set is the reflection of the original positive level set
    ch = Chain1D(64)
    n = 2 * ch.N
    bl = build_blend_1d(ch, 16)
    thr = 0.5 / (ch.eps * bl.K) ** 3
    pos = np.where(diff(ch, bl.beta, 3) >= thr)[0]
    mirrored = blend_from_samples(ch, bl.beta[::-1].copy())
    got = sorted(third_diff_level_set(mirrored).tolist())
    assert got == sorted((n - p) % n for p in pos)


def test_level_set_constant_blend_error():
    ch = Chain1D(16)
    with pytest.raises(ValueError, match="no transition"):
        third_diff_level_set(blend_from_samples(ch, np.zeros(32)))


def test_blend2d_plateaus():
    lat = TriLattice2D(32)
    bl = build_blend_2d(lat, 6, 16)
    ring = ring_number(lat)
    assert np.all(bl.beta[ring <= 6 + 3] == 1.0)
    assert np.all(bl.beta[ring >= 16 - 3] == 0.0)
    assert bl.beta.min() >= 0.0 and bl.beta.max() <= 1.0


def test_blend2d_rejects_out_of_cell():
    # Rb = 20 > N/2 leaves no room for the region hypotheses
    with pytest.raises(ValueError):
        build_blend_2d(TriLattice2D(32), 6, 20)
    with pytest.raises(ValueError):
        build_blend_2d(TriLattice2D(32), 6, 12)


def test_blend2d_triple_diff_support():
    lat = TriLattice2D(32)
    bl = build_blend_2d(lat, 6, 16)
    ring = ring_number(lat)
    outside = (ring <= 6) | (ring > 16)
    for trip in (("a1", "a2", "a3"), ("a1", "a1", "a1"), ("a2", "a3", "a1")):
        d = bl.beta
        for r in trip:
            d = diff2d(lat, d, r)
        assert np.all(d[outside] == 0.0)


def test_blend2d_point_group_symmetry():
    lat = TriLattice2D(32)
    bl = build_blend_2d(lat, 6, 16)
    n = 2 * lat.N
    ii, jj = lat.coords()

    def at(i, j):
        return bl.beta[(i + lat.N - 1) % n, (j + lat.N - 1) % n]

    # generators: 60-degree rotation and the a1-axis mirror
    maps = [(lambda i, j: (-j, i + j)), (lambda i, j: (i + j, -j))]
    for sigma in maps:
        si, sj = sigma(ii, jj)
        assert np.array_equal(at(si, sj), bl.beta)


def test_blend2d_measured_bounds():
    lat = TriLattice2D(32)
    bl = build_blend_2d(lat, 6, 16)
    b = derivative_bounds(bl)
    for j in (1, 2, 3):
        assert b[j] >= (bl.K * lat.eps) ** (-j)
        assert b[j] <= bl.Cbeta_j[j - 1] * (bl.K * lat.eps) ** (-j) * (1 + 1e-12)


def test_blend2d_direct_construction_is_legal():
    lat = TriLattice2D(4)
    bl = Blend2D(lattice=lat, beta=np.ones((8, 8)), Ra=0, Rb=4)


def test_blend2d_holds_no_support_flag():
    # the bound suites measure the support of the third differences
    lat = TriLattice2D(4)
    with pytest.raises(TypeError):
        Blend2D(lattice=lat, beta=np.ones((8, 8)), Ra=0, Rb=4, margined=False)


def test_replaced_weight_carries_its_own_derived_data():
    # a blend holds only its weight and geometry: nothing measured from an
    # old weight survives a replace
    ch = Chain1D(64)
    old, new = build_blend_1d(ch, 8), build_blend_1d(ch, 12)
    swapped = replace(old, beta=new.beta)
    assert swapped.K == new.K == 24
    assert np.array_equal(swapped.interface, new.interface)
    assert swapped.Dbeta_max == new.Dbeta_max
    assert swapped.Cbeta_j == new.Cbeta_j and swapped.Cbeta == new.Cbeta

    lat = TriLattice2D(32)
    bl = build_blend_2d(lat, 2, 12)
    flat = replace(bl, beta=np.ones_like(bl.beta))
    assert flat.K == bl.K == 10
    assert flat.Cbeta_j == (0.0, 0.0, 0.0) and flat.Cbeta == 0.0
    wider = replace(bl, Ra=0)
    assert wider.K == 12
    assert wider.Cbeta_j == pytest.approx([c * 1.2 ** j for j, c in enumerate(bl.Cbeta_j, 1)],
                                          rel=1e-12)


def test_bound_functions_measure_a_blend_once(monkeypatch, rng):
    # rs_bounds_2d and rst_bounds read the maxima a blend caches; the spy
    # stands in for derivative_bounds under every name it is imported by
    measured = []

    def spy(blend):
        measured.append(blend)
        return derivative_bounds(blend)

    lat, ch = TriLattice2D(32), Chain1D(64)
    # copies of built blends: the builders' own checks measured the originals
    bl2, bl1 = replace(build_blend_2d(lat, 4, 12)), replace(build_blend_1d(ch, 16))
    model = hessians_from_radial(morse(), np.eye(2))
    for module in (blend_module, ops1d, ops2d):
        monkeypatch.setattr(module, "derivative_bounds", spy, raising=False)
    for _ in range(3):
        ops2d.rs_bounds_2d(lat, model, bl2, random_zero_mean_2d(lat, rng))
        ops1d.rst_bounds(bl1, rng.standard_normal(ch.nsites))
    assert measured == [bl2, bl1]


def test_rs_bounds_walks_a_blends_difference_ladder_once(monkeypatch, rng):
    # the support leak and the maxima come from one walk, kept on the blend;
    # the spy stands in for the ladder under every name it is imported by
    walks = []
    ladder = blend_module._difference_ladder

    def spy(blend):
        walks.append(blend)
        return ladder(blend)

    lat = TriLattice2D(32)
    bl = replace(build_blend_2d(lat, 4, 12))    # unmeasured: the builder measured its own
    model = hessians_from_radial(morse(), np.eye(2))
    for module in (blend_module, ops2d):
        monkeypatch.setattr(module, "_difference_ladder", spy, raising=False)
    for _ in range(2):
        ops2d.rs_bounds_2d(lat, model, bl, random_zero_mean_2d(lat, rng))
    assert walks == [bl]
    assert bl.support_leak <= 1e-13
