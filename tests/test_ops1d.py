"""1D operators, divergence identity, error-term bounds, sharpness witness."""

import numpy as np
import pytest

from bqcf.blend import blend_from_samples, build_blend_1d, third_diff_level_set
from bqcf.lattice1d import Chain1D, diff, inner, norms, project_zero_mean
from bqcf.ops1d import (
    Op1D,
    apply_op,
    divergence_form,
    quad_form,
    rst_bounds,
    sharpness_test_function,
)
from bqcf.potentials import PairModel1D, c0

MODEL = PairModel1D(phiF=1.0, phi2F=-0.24)


def _random_blend(ch, rng):
    # alternate constructed and hand-sampled smooth profiles
    if rng.integers(2):
        return build_blend_1d(ch, int(rng.integers(8, ch.N)))
    x = np.linspace(0, 2 * np.pi, 2 * ch.N, endpoint=False)
    raw = 0.5 + 0.5 * np.sin(x + rng.uniform(0, 2 * np.pi))
    return blend_from_samples(ch, raw)


def test_apply_constant_is_zero():
    ch = Chain1D(8)
    bl = build_blend_1d(ch, 6)
    u = np.full(16, 2.5)
    for kind in ("atomistic", "qcl", "bqcf", "bqcf1", "bqcf2"):
        need = kind.startswith("bqcf")
        op = Op1D(kind=kind, chain=ch, model=MODEL, blend=bl if need else None)
        assert np.array_equal(apply_op(op, u), np.zeros(16))


def test_atomistic_reduces_to_laplacian():
    ch = Chain1D(4)
    u = project_zero_mean(np.eye(8)[3])
    op = Op1D(kind="atomistic", chain=ch, model=PairModel1D(phiF=1.0, phi2F=0.0))
    lap = (-np.roll(u, -1) + 2 * u - np.roll(u, 1)) / ch.eps**2
    assert np.allclose(apply_op(op, u), lap, atol=1e-12)


def test_blend_required_for_blended_kinds():
    ch = Chain1D(8)
    with pytest.raises(ValueError):
        Op1D(kind="bqcf", chain=ch, model=MODEL)
    with pytest.raises(ValueError):
        Op1D(kind="laplace", chain=ch, model=MODEL)


def test_bqcf_degenerate_blends_exact(rng):
    ch = Chain1D(16)
    u = rng.normal(size=32)
    ones = blend_from_samples(ch, np.ones(32))
    zeros = blend_from_samples(ch, np.zeros(32))
    atom = apply_op(Op1D(kind="atomistic", chain=ch, model=MODEL), u)
    qcl = apply_op(Op1D(kind="qcl", chain=ch, model=MODEL), u)
    assert np.array_equal(apply_op(Op1D(kind="bqcf", chain=ch, model=MODEL, blend=ones), u), atom)
    assert np.array_equal(apply_op(Op1D(kind="bqcf", chain=ch, model=MODEL, blend=zeros), u), qcl)


def test_quad_form_bqcf1_is_grad_norm(rng):
    ch = Chain1D(32)
    bl = _random_blend(ch, rng)
    u = project_zero_mean(rng.normal(size=64))
    q = quad_form(Op1D(kind="bqcf1", chain=ch, model=MODEL, blend=bl), u)
    g = norms(ch, diff(ch, u, 1))["l2eps"] ** 2
    assert q == pytest.approx(g, rel=1e-12)


def test_quad_form_atomistic_alternating():
    # Du = (-1)^l kills the second-neighbor term; value is 2 phiF
    ch = Chain1D(8)
    ell = np.arange(16) - ch.N + 1
    u = (ch.eps / 2) * (-1.0) ** ell
    q = quad_form(Op1D(kind="atomistic", chain=ch, model=MODEL), u)
    assert q == pytest.approx(2.0 * MODEL.phiF, rel=1e-12)


def test_quad_form_qcl_proportional(rng):
    ch = Chain1D(32)
    u = project_zero_mean(rng.normal(size=64))
    q = quad_form(Op1D(kind="qcl", chain=ch, model=MODEL), u)
    g = norms(ch, diff(ch, u, 1))["l2eps"] ** 2
    assert q == pytest.approx((MODEL.phiF + 4 * MODEL.phi2F) * g, rel=1e-12)


def test_linearity(rng):
    ch = Chain1D(16)
    bl = _random_blend(ch, rng)
    u, w = rng.normal(size=(2, 32))
    for kind in ("atomistic", "qcl", "bqcf", "bqcf1", "bqcf2"):
        need = kind.startswith("bqcf")
        op = Op1D(kind=kind, chain=ch, model=MODEL, blend=bl if need else None)
        lhs = apply_op(op, 1.3 * u - 0.7 * w)
        rhs = 1.3 * apply_op(op, u) - 0.7 * apply_op(op, w)
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12 * np.abs(rhs).max())


def test_split_is_exact(rng):
    ch = Chain1D(16)
    bl = _random_blend(ch, rng)
    u = rng.normal(size=32)
    whole = apply_op(Op1D(kind="bqcf", chain=ch, model=MODEL, blend=bl), u)
    part1 = apply_op(Op1D(kind="bqcf1", chain=ch, model=MODEL, blend=bl), u)
    part2 = apply_op(Op1D(kind="bqcf2", chain=ch, model=MODEL, blend=bl), u)
    assert np.array_equal(whole, MODEL.phiF * part1 + MODEL.phi2F * part2)


def test_divergence_constant_blend_terms_vanish(rng):
    ch = Chain1D(8)
    u = project_zero_mean(rng.normal(size=16))
    for level in (0.0, 1.0):
        bl = blend_from_samples(ch, np.full(16, level))
        form = divergence_form(ch, bl, u)
        assert form.R == 0.0 and form.S == 0.0 and form.T == 0.0


def test_divergence_identity_random(rng):
    # the identity is algebraic in beta; a smooth sampled profile with
    # interface size ~8 exercises it at the smallest chain
    ch = Chain1D(8)
    x = np.linspace(0, 2 * np.pi, 16, endpoint=False)
    bl = blend_from_samples(ch, 0.5 + 0.5 * np.sin(x))
    for _ in range(25):
        u = project_zero_mean(rng.normal(size=16))
        form = divergence_form(ch, bl, u)
        q = quad_form(Op1D(kind="bqcf2", chain=ch, model=MODEL, blend=bl), u)
        assert abs(form.main + form.R + form.S + form.T - q) <= 1e-11 * max(abs(q), 1.0)


def test_divergence_alternating_mode_cancels():
    # beta == 1: main = 4||Du||^2 - eps^2 ||D2 u||^2 = 8 - 8 = 0
    ch = Chain1D(8)
    ell = np.arange(16) - ch.N + 1
    u = project_zero_mean((ch.eps / 2) * (-1.0) ** ell)
    bl = blend_from_samples(ch, np.ones(16))
    form = divergence_form(ch, bl, u)
    assert form.main == pytest.approx(0.0, abs=1e-12)
    q = quad_form(Op1D(kind="bqcf2", chain=ch, model=MODEL, blend=bl), u)
    assert q == pytest.approx(0.0, abs=1e-12)


def test_rst_bounds_constant_blend(rng):
    ch = Chain1D(16)
    bl = blend_from_samples(ch, np.ones(32))
    u = project_zero_mean(rng.normal(size=32))
    b = rst_bounds(bl, u)
    assert b["boundR"] == 0.0 and b["boundS"] == 0.0 and b["boundT"] == 0.0


def test_rst_bounds_monte_carlo(rng):
    # rst_bounds raises internally on any violation
    ch = Chain1D(64)
    for _ in range(1000):
        bl = _random_blend(ch, rng)
        u = project_zero_mean(rng.normal(size=128))
        rst_bounds(bl, u)


def test_t_bound_is_order_sharp():
    # T is not shift-invariant; the adversarial witness realizes its bound
    # through the anchored representative (anchor 1/2, before projection)
    from bqcf.ops1d import _rst_terms, _sharpness_parts

    ch = Chain1D(256)
    bl = build_blend_1d(ch, 16)
    v = sharpness_test_function(ch, bl)
    bound = rst_bounds(bl, v)["boundT"]
    _, v_anch, _, _ = _sharpness_parts(ch, bl)
    t = _rst_terms(ch, bl, v_anch).T
    assert bound <= 100.0 * abs(t)


def test_sharpness_function_normalization():
    ch = Chain1D(256)
    bl = build_blend_1d(ch, 8)
    v = sharpness_test_function(ch, bl)
    dv = diff(ch, v, 1)
    jp = third_diff_level_set(bl)
    assert ch.eps * np.sum(dv[jp] ** 2) == pytest.approx(1.0, rel=1e-12)
    assert abs(dv.sum()) <= 1e-12 * np.abs(dv).max() * dv.size
    assert norms(ch, dv)["l2eps"] <= 2.0
    assert abs(v.sum()) <= 1e-10


def test_sharpness_function_requires_transition():
    ch = Chain1D(16)
    with pytest.raises(ValueError):
        sharpness_test_function(ch, blend_from_samples(ch, np.ones(32)))


@pytest.mark.xfail(strict=True, reason="the witness Rayleigh quotient stays above c0 and "
                   "does not fall with N (K = 8: 0.142 at N = 256, 0.1429 at N = 65536), so "
                   "no larger size flips it; indefiniteness is certified by the eigensolver")
def test_sharpness_witness_dips_below_c0():
    ch = Chain1D(256)
    bl = build_blend_1d(ch, 8)
    v = sharpness_test_function(ch, bl)
    ray = quad_form(Op1D(kind="bqcf", chain=ch, model=MODEL, blend=bl), v)
    ray /= norms(ch, diff(ch, v, 1))["l2eps"] ** 2
    assert ray < c0(MODEL)


def test_coercivity_lower_bound_envelope(rng):
    # measured max over the (N, K) grid is 24.6; calibrated constant 30
    C1HAT = 30.0
    for N, K in ((64, 12), (256, 16)):
        ch = Chain1D(N)
        bl = build_blend_1d(ch, K)
        op = Op1D(kind="bqcf", chain=ch, model=MODEL, blend=bl)
        floor = c0(MODEL) - C1HAT * abs(MODEL.phi2F) * K ** (-2.5) * N**0.5
        for _ in range(50):
            u = project_zero_mean(rng.normal(size=2 * N))
            ray = quad_form(op, u) / norms(ch, diff(ch, u, 1))["l2eps"] ** 2
            assert ray >= floor
