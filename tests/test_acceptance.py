"""Acceptance runs, one test per advertised guarantee.

Each test states its tolerance inline and runs standalone, so
`pytest tests/test_acceptance.py -v` prints one verdict line per
guarantee. The threshold sweep (criterion 4) and the eigensolver
cross-checks (criteria 6, 7, 9, 10) dominate the runtime; everything
else finishes in seconds.
"""

import numpy as np
import pytest

from bqcf.blend import (
    Blend2D,
    _blend_2d_sharp,
    blend_from_samples,
    build_blend_1d,
    build_blend_2d,
    derivative_bounds,
    third_diff_level_set,
)
from bqcf.experiments import (
    construct_layer_sets,
    sample_constant,
    sample_log,
    sample_poly,
    sharpness_probe_2d,
    sweep_threshold_1d,
    trace_check,
    unstable_toy_model,
)
from bqcf.lattice1d import Chain1D, random_zero_mean
from bqcf.lattice2d import TriLattice2D, inner2d, make_regions, random_zero_mean_2d
from bqcf.ops1d import Op1D, apply_op, divergence_form, quad_form, rst_bounds
from bqcf.ops2d import (
    Op2D,
    _bond_apply_a,
    _bond_apply_c,
    apply2d,
    assemble_ltilde,
    divergence_form_2d,
    poincare_discrete,
    rs_bounds_2d,
)
from bqcf.potentials import PairModel1D, PairModel2D, c0, hessians_from_radial, morse
from bqcf.spectral import assemble, coercivity, gram_D

BONDS = ("b1", "b2", "b3")
MODELS_1D = ((1.0, -0.2), (1.0, -0.24), (1.0, 0.3), (2.0, 0.0))


def _gamma_1d(model, N, kind, K=None):
    chain = Chain1D(N)
    blend = build_blend_1d(chain, K) if K is not None else None
    op = Op1D(kind=kind, chain=chain, model=model, blend=blend)
    return coercivity(assemble(op), gram_D(chain)).gamma


def _raw_blend_2d(lat, beta):
    # wrap an arbitrary weight array; identities do not need builder caps
    return Blend2D(lattice=lat, beta=beta, Ra=0, Rb=lat.N)


def test_criterion_01_divergence_identities():
    """Summation-by-parts splits match the quadratic form to 1e-10
    relative, over 100 random weight/displacement pairs per size."""
    tol = 1e-10
    model = PairModel1D(phiF=1.0, phi2F=-0.24)
    worst = 0.0
    for N in (8, 64, 512):
        chain = Chain1D(N)
        rng = np.random.default_rng([11, N])
        for k in range(100):
            if k % 2 == 0:
                blend = build_blend_1d(chain, int(rng.integers(6, chain.N)))
            else:
                blend = blend_from_samples(chain, rng.uniform(size=2 * chain.N))
            u = random_zero_mean(chain, rng)
            split = divergence_form(chain, blend, u)
            direct = quad_form(Op1D(kind="bqcf2", chain=chain, model=model,
                                    blend=blend), u)
            worst = max(worst, abs(split.total - direct) / max(1.0, abs(direct)))
    assert worst <= tol

    model2 = hessians_from_radial(morse(), np.eye(2))
    worst2 = 0.0
    for N in (4, 8, 16):
        lat = TriLattice2D(N)
        n = 2 * lat.N
        rng = np.random.default_rng([12, N])
        for _ in range(100):
            beta = rng.uniform(size=(n, n))
            blend = _raw_blend_2d(lat, beta)
            u = random_zero_mean_2d(lat, rng)
            b = beta[..., None]
            for i, bond in enumerate(BONDS):
                split = divergence_form_2d(lat, model2, blend, u, bond)
                H = model2.Hb[i]
                fld = b * _bond_apply_a(lat, u, H, bond) \
                    + (1.0 - b) * _bond_apply_c(lat, u, H, bond)
                direct = inner2d(lat, fld, u)
                worst2 = max(worst2, abs(split.total - direct) / max(1.0, abs(direct)))
    assert worst2 <= tol


def test_criterion_02_atomistic_stability_constant():
    """The homogeneous constant min(phiF, phiF + 4 phi2F) is attained to
    1e-8 whenever the minimizing wavenumber is resolved; for soft second
    neighbors the finite-size value obeys the closed form and stays one
    sided above the limit."""
    for phiF, phi2F in ((1.0, 0.3), (2.0, 0.0)):
        model = PairModel1D(phiF=phiF, phi2F=phi2F)
        for N in (8, 64, 256):
            g = _gamma_1d(model, N, "atomistic")
            assert abs(g - c0(model)) <= 1e-8
    for phi2F in (-0.2, -0.24):
        model = PairModel1D(phiF=1.0, phi2F=phi2F)
        for N in (8, 64, 256):
            g = _gamma_1d(model, N, "atomistic")
            assert g >= c0(model) - 1e-12
            closed = 1.0 + 2.0 * phi2F * (1.0 + np.cos(np.pi / N))
            assert abs(g - closed) <= 1e-8 * max(1.0, abs(closed))


@pytest.mark.xfail(strict=True, reason="for phi2F < 0 the finite-chain "
                   "constant exceeds min(phiF, phiF + 4 phi2F) by "
                   "2 |phi2F| (1 - cos(pi/N)) at every N; the target value "
                   "is attained only in the limit")
def test_criterion_02_constant_attained_for_soft_second_neighbors():
    for phi2F in (-0.2, -0.24):
        model = PairModel1D(phiF=1.0, phi2F=phi2F)
        for N in (8, 64, 256):
            assert abs(_gamma_1d(model, N, "atomistic") - c0(model)) <= 1e-8


def test_criterion_03_continuum_constant_and_flat_blend_exactness():
    """gamma of the local operator equals phiF + 4 phi2F to 1e-10, and a
    weight identically one (zero) makes the blended apply agree bit for
    bit with the pure nonlocal (local) apply in 1D and 2D."""
    for phiF, phi2F in MODELS_1D:
        model = PairModel1D(phiF=phiF, phi2F=phi2F)
        for N in (8, 64, 256):
            g = _gamma_1d(model, N, "qcl")
            assert abs(g - (phiF + 4.0 * phi2F)) <= 1e-10

    model = PairModel1D(phiF=1.0, phi2F=-0.24)
    chain = Chain1D(64)
    rng = np.random.default_rng(3)
    u = random_zero_mean(chain, rng)
    flat = {v: blend_from_samples(chain, np.full(2 * chain.N, v)) for v in (0.0, 1.0)}
    atom = apply_op(Op1D(kind="atomistic", chain=chain, model=model), u)
    qcl = apply_op(Op1D(kind="qcl", chain=chain, model=model), u)
    got1 = apply_op(Op1D(kind="bqcf", chain=chain, model=model, blend=flat[1.0]), u)
    got0 = apply_op(Op1D(kind="bqcf", chain=chain, model=model, blend=flat[0.0]), u)
    assert np.array_equal(got1, atom)
    assert np.array_equal(got0, qcl)

    lat = TriLattice2D(8)
    model2 = hessians_from_radial(morse(), np.eye(2))
    u2 = random_zero_mean_2d(lat, np.random.default_rng(4))
    n = 2 * lat.N
    for value, kind in ((1.0, "atomistic"), (0.0, "cauchy_born")):
        blend = _raw_blend_2d(lat, np.full((n, n), value))
        want = apply2d(Op2D(kind=kind, lattice=lat, model=model2), u2)
        got = apply2d(Op2D(kind="bqcf", lattice=lat, model=model2, blend=blend), u2)
        assert np.array_equal(got, want)


def test_criterion_04_threshold_exponent_1d():
    """Log-log fit of the stability threshold K* against eps over
    eps = 1/128 .. 1/2048: slope in [0.15, 0.25] with r^2 >= 0.9."""
    model = PairModel1D(phiF=1.0, phi2F=-0.24)
    eps = [1 / 128, 1 / 256, 1 / 512, 1 / 1024, 1 / 2048]
    fit = sweep_threshold_1d(model, eps, 64)
    assert fit.flags == ()
    ks = [k for _, k in sorted(fit.pairs)]
    assert all(a >= b for a, b in zip(ks, ks[1:]))  # K* grows as eps shrinks
    assert 0.15 <= fit.slope <= 0.25
    assert fit.r2 >= 0.9


def test_criterion_05_bound_suites_and_blend_lemma():
    """R/S/T and R/S term bounds are never violated over 1000 (1D) and
    200 (2D) random draws; every constructed profile satisfies the
    derivative lower bounds and the level-set cardinality bound."""
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(1000):
        N = int(rng.choice([16, 32, 64, 128]))
        chain = Chain1D(N)
        blend = build_blend_1d(chain, int(rng.integers(6, N)))
        for j in (1, 2, 3):
            assert derivative_bounds(blend)[j] >= (blend.K * chain.eps) ** (-j)
        jset = third_diff_level_set(blend)
        assert jset.size >= blend.K / (2.0 * blend.Cbeta)
        rep = rst_bounds(blend, random_zero_mean(chain, rng))  # raises on violation
        for name in ("R", "S", "T"):
            b = rep["bound" + name]
            if b > 0.0:
                worst = max(worst, abs(rep[name]) / b)
    assert worst <= 1.0 + 1e-9

    model2 = hessians_from_radial(morse(), np.eye(2))
    lat = TriLattice2D(32)
    blend2 = build_blend_2d(lat, 4, 12)
    rng2 = np.random.default_rng(56)
    worst2 = 0.0
    for _ in range(200):
        rep = rs_bounds_2d(lat, model2, blend2, random_zero_mean_2d(lat, rng2))
        for entry in rep["per_bond"].values():
            for term, bound in (("R", "boundR"), ("S", "boundS")):
                if entry[bound] > 0.0:
                    worst2 = max(worst2, abs(entry[term]) / entry[bound])
    assert worst2 <= 1.0 + 1e-9

    # 2D profile lemma across geometries: lower bounds and layer count
    for N, Ra, Rb in ((16, 0, 8), (32, 4, 12), (32, 6, 16), (64, 8, 24)):
        lat = TriLattice2D(N)
        bl = build_blend_2d(lat, Ra, Rb)
        db = derivative_bounds(bl)
        for j in (1, 2, 3):
            assert db[j] >= (bl.K * lat.eps) ** (-j)
        _, jp = construct_layer_sets(lat, bl)
        assert int(jp.sum()) >= bl.K / (2.0 * bl.Cbeta)
    print(f"calibrated slack: worst 1D term/bound {worst:.3f}, "
          f"worst 2D term/bound {worst2:.3f}")


def test_criterion_06_blended_constant_tracks_continuum():
    """Softening the b-bonds by delta = f * gamma_c (self-consistently,
    f in {0.1, 0.2}) keeps the interface form above gamma_c - 4 delta."""
    I2 = np.eye(2)

    def soften(delta):
        return PairModel2D(B=I2, Ha=(I2, I2, I2), Hb=(delta * I2,) * 3)

    for N in (8, 16):
        lat = TriLattice2D(N)
        G = gram_D(lat)
        for frac in (0.1, 0.2):
            delta = 0.0
            for _ in range(12):
                rep = coercivity(assemble(Op2D(kind="cauchy_born", lattice=lat,
                                               model=soften(delta))), G)
                new = frac * rep.gamma
                if abs(new - delta) <= 1e-12 * max(1.0, abs(new)):
                    delta = new
                    break
                delta = new
            gamma_c = rep.gamma
            blend = _blend_2d_sharp(lat, max(N // 4, 1), N // 2)
            gt = coercivity(assemble_ltilde(lat, soften(delta), blend), G).gamma
            assert gt >= gamma_c - 4.0 * delta - 1e-8


def test_criterion_07_widening_restores_coercivity():
    """A soft-direction model whose sharp-interface witness is negative
    at K = 3 regains a positive blended constant at some K <= 12 with
    everything else fixed."""
    model = unstable_toy_model(2.04, 1.0)
    lat = TriLattice2D(24)
    G = gram_D(lat)

    blend3 = _blend_2d_sharp(lat, 4, 7)
    _, jp = construct_layer_sets(lat, blend3)
    assert sharpness_probe_2d(lat, model, blend3, jp) < 0.0

    stable_at = None
    for K in range(4, 13):
        blend = _blend_2d_sharp(lat, 4, 4 + K)
        g = coercivity(assemble(Op2D(kind="bqcf", lattice=lat, model=model,
                                     blend=blend)), G).gamma
        if g > 0.0:
            stable_at = K
            break
    assert stable_at is not None and stable_at <= 12


def test_criterion_08_trace_inequality():
    """Inner-sphere trace against annulus norms: ratio <= 1 + 1e-3 for
    constants, log|x|, and random cubics at r0 down to 1e-4; the log
    sample keeps the ratio above 0.01, so the |log r0| factor is live."""
    rng = np.random.default_rng(88)
    for psi in ("hexagon", "circle"):
        for r0 in (1e-2, 1e-3, 1e-4):
            samples = [sample_constant(), sample_log()]
            samples += [sample_poly(rng) for _ in range(20)]
            for s in samples:
                rep = trace_check(psi, r0, 1.0, s)
                assert rep["ratio"] <= 1.0 + 1e-3
                if s.name == "log":
                    assert rep["ratio"] > 0.01


def test_criterion_09_annulus_poincare_scaling():
    """The extremal annulus ratio over (eps K)(eps Rb)|log eps Rb| stays
    within a factor 50 of one, and of itself across sizes."""
    normalized = {}
    for N in (8, 16, 32, 64):
        lat = TriLattice2D(N)
        regions = make_regions(lat, N // 8, N // 4)
        ratio = poincare_discrete(lat, regions)
        epsK = (N // 4 - N // 8) / N
        epsRb = (N // 4) / N
        normalized[N] = ratio / (epsK * epsRb * abs(np.log(epsRb)))
    for v in normalized.values():
        assert 1.0 / 50.0 <= v <= 50.0
    assert max(normalized.values()) / min(normalized.values()) <= 50.0


def test_criterion_10_dense_iterative_agreement():
    """Dense and iterative pencil solves agree to 1e-7 on problems of
    dimension 500 to 3000, spanning both lattices and operator kinds."""
    model = PairModel1D(phiF=1.0, phi2F=-0.24)
    toy = unstable_toy_model(1.0, 0.3)
    ch300 = Chain1D(300)
    ch1400 = Chain1D(1400)
    lat12 = TriLattice2D(12)
    lat16 = TriLattice2D(16)
    picks = [
        (assemble(Op1D(kind="atomistic", chain=ch300, model=model)),
         gram_D(ch300)),
        (assemble(Op1D(kind="bqcf", chain=ch300, model=model,
                       blend=build_blend_1d(ch300, 24))), gram_D(ch300)),
        (assemble(Op1D(kind="bqcf", chain=ch1400, model=model,
                       blend=build_blend_1d(ch1400, 40))), gram_D(ch1400)),
        (assemble(Op2D(kind="bqcf", lattice=lat12, model=toy,
                       blend=_blend_2d_sharp(lat12, 3, 6))), gram_D(lat12)),
        (assemble_ltilde(lat16, toy, _blend_2d_sharp(lat16, 4, 8)),
         gram_D(lat16)),
    ]
    for A, G in picks:
        assert 500 <= A.dim <= 3000
        gd = coercivity(A, G, method="dense").gamma
        gi = coercivity(A, G, method="iterative").gamma
        assert abs(gd - gi) <= 1e-7
