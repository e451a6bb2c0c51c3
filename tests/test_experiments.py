"""Threshold sweeps, sharpness probes, trace quadrature, and the run driver."""

import csv
import json

import numpy as np
import pytest

from bqcf import experiments, ops1d, ops2d
from bqcf.blend import _blend_2d_sharp, build_blend_1d
from bqcf.config import ConfigError
from bqcf.experiments import (
    _threshold_at_size,
    construct_layer_sets,
    run,
    sample_constant,
    sample_log,
    sample_poly,
    sharpness_probe_1d,
    sharpness_probe_2d,
    sweep_threshold_1d,
    sweep_threshold_2d,
    trace_check,
    unstable_toy_model,
)
from bqcf.lattice1d import Chain1D
from bqcf.lattice2d import TriLattice2D, diff2d, ring_number
from bqcf.ops1d import Op1D
from bqcf.ops2d import Op2D, assemble_ltilde
from bqcf.potentials import PairModel1D, c0, harmonic, hessians_from_radial
from bqcf.spectral import InertiaReport, StabilityReport, assemble, coercivity, gram_D


def test_unstable_toy_model_structure():
    model = unstable_toy_model(2.04, 1.0)
    for H in model.Ha:
        assert np.array_equal(H, 2.04 * np.eye(2))
    assert np.array_equal(model.Hb[0], [[-1.0, 0.0], [0.0, 0.0]])
    assert np.array_equal(model.Hb[1], np.zeros((2, 2)))
    assert np.array_equal(model.Hb[2], np.zeros((2, 2)))
    skew = unstable_toy_model(1.0, 0.5, direction=(3.0, 4.0))
    want = -0.5 * np.outer([0.6, 0.8], [0.6, 0.8])
    assert np.allclose(skew.Hb[0], want, atol=1e-15)


def test_sweep1d_rejects_bad_inputs():
    with pytest.raises(ValueError, match="not stable to begin with"):
        sweep_threshold_1d(PairModel1D(1.0, -0.3), [1 / 32], 16)
    with pytest.raises(ValueError, match="not a reciprocal lattice size"):
        sweep_threshold_1d(PairModel1D(1.0, -0.24), [0.3], 16)


def test_sweep1d_small_grid():
    fit = sweep_threshold_1d(PairModel1D(1.0, -0.24),
                             [1 / 32, 1 / 64, 1 / 128], 32)
    assert [k for _, k in sorted(fit.pairs)] == [16, 14, 13]
    assert fit.flags == ()
    assert fit.slope == pytest.approx(0.1498, abs=0.01)
    assert fit.r2 > 0.9
    assert all(r.wallclock_seconds >= 0 for r in fit.rows)
    assert {r.eps for r in fit.rows} == {1 / 32, 1 / 64, 1 / 128}


def test_sweeps_pass_their_seed_to_every_pencil_solve(monkeypatch):
    seeds = []

    def recording(A, G, **kwargs):
        seeds.append(kwargs.get("seed"))
        return coercivity(A, G, **kwargs)

    monkeypatch.setattr(experiments, "coercivity", recording)
    sweep_threshold_1d(PairModel1D(1.0, -0.24), [1 / 32], 32, seed=11)
    assert len(seeds) == 2 and set(seeds) == {11}      # K*-1 and K*
    seeds.clear()
    # auxiliary-operator solve, then K*-1 and K*
    fit = sweep_threshold_2d(unstable_toy_model(2.04, 1.0), 1,
                             {"N": [8], "Ra": 2, "seed": 11})
    assert fit.pairs == ((1 / 8, 6),)
    assert len(seeds) == 3 and set(seeds) == {11}


def _fake_scan(monkeypatch, verdicts, gamma_at):
    """Drive the scan helper with made-up inertia verdicts and gammas."""
    class FakePattern:
        def __init__(self, K, G):
            pass

        def is_coercive(self, K, tol, **kw):
            return InertiaReport(coercive=verdicts[K], negative=0 if verdicts[K] else 1,
                                 min_pivot=1.0, margin=0.0, method="inertia")

    monkeypatch.setattr(experiments, "assemble", lambda K: K)
    monkeypatch.setattr(experiments, "BlendPattern", FakePattern)
    monkeypatch.setattr(
        experiments, "coercivity",
        lambda K, G, **kw: StabilityReport(gamma=gamma_at[K], minimizer=None,
                                           method="dense", residual=0.0,
                                           iterations=0))
    return _threshold_at_size(lambda K: K, None, 1 / 64, 3, 9, 1e-10, 7)


def test_scan_flags_every_later_sign_change(monkeypatch):
    verdicts = {3: False, 4: False, 5: True, 6: False, 7: True, 8: True, 9: False}
    kstar, gammas, scan, flags = _fake_scan(monkeypatch, verdicts,
                                            {4: -1e-3, 5: 2e-3})
    assert kstar == 5
    assert sorted(gammas) == [4, 5]                     # solves at K*-1, K*
    assert [p.K for p in scan] == list(range(3, 10))
    assert flags == ["sign-change:eps=1/64,K=6", "sign-change:eps=1/64,K=7",
                     "sign-change:eps=1/64,K=9"]


def test_scan_raises_when_the_solve_contradicts_inertia(monkeypatch):
    verdicts = {K: K >= 5 for K in range(3, 10)}
    with pytest.raises(RuntimeError, match="contradicts the inertia scan"):
        _fake_scan(monkeypatch, verdicts, {4: 1e-3, 5: 2e-3})
    kstar, gammas, _, flags = _fake_scan(monkeypatch, verdicts,
                                         {4: -1e-3, 5: 2e-3})
    assert (kstar, flags) == (5, [])


@pytest.mark.parametrize("space", ["1d", "2d"])
def test_scan_assembles_once_per_size(monkeypatch, space):
    # the scan refills one BlendPattern per size: the stencil runs twice for
    # the pattern and once for each of the K*-1 and K* value solves, however
    # wide the window, and assemble() is called for those solves only
    stencil = ops1d if space == "1d" else ops2d
    calls = {"assemble": 0, "triplets": 0, "pattern": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    class Pattern(experiments.BlendPattern):
        def __init__(self, op, G):
            calls["pattern"] += 1
            super().__init__(op, G)

    monkeypatch.setattr(experiments, "assemble", counted("assemble", assemble))
    monkeypatch.setattr(stencil, "assemble_triplets",
                        counted("triplets", stencil.assemble_triplets))
    monkeypatch.setattr(experiments, "BlendPattern", Pattern)
    if space == "1d":
        fit = sweep_threshold_1d(PairModel1D(1.0, -0.24), [1 / 128], 24)
    else:
        fit = sweep_threshold_2d(unstable_toy_model(2.04, 1.0), 1,
                                 {"N": [12], "Ra": 4, "K_max": 16})
    assert len(fit.scan) >= 8 and len(fit.pairs) == 1
    assert calls == {"assemble": 2, "triplets": 4, "pattern": 1}


def test_sweep2d_measures_no_blend_constants(monkeypatch):
    # the scan reads a blend's weight only: nothing takes the derivative
    # maxima of the sharp blends it builds
    calls = {"diff2d": 0}

    def counted(*args, **kwargs):
        calls["diff2d"] += 1
        return diff2d(*args, **kwargs)

    monkeypatch.setattr("bqcf.blend.diff2d", counted)
    fit = sweep_threshold_2d(unstable_toy_model(2.04, 1.0), 1, {"N": [8], "Ra": 2})
    assert fit.pairs == ((1 / 8, 6),)
    assert calls == {"diff2d": 0}


def test_sweep1d_flat_model_is_degenerate():
    # phi2F = 0 leaves nothing to blend; the floor K wins at every size
    fit = sweep_threshold_1d(PairModel1D(1.5, 0.0), [1 / 16, 1 / 32], 16)
    assert all(k == 6 for _, k in fit.pairs)
    assert "degenerate" in fit.flags


def test_gamma_recovers_past_threshold():
    # at four times the located threshold the constant clears c0 / 2
    model = PairModel1D(1.0, -0.24)
    ch = Chain1D(64)
    op = Op1D(kind="bqcf", chain=ch, model=model, blend=build_blend_1d(ch, 56))
    gamma = coercivity(assemble(op), gram_D(ch)).gamma
    assert gamma == pytest.approx(0.039269, abs=1e-4)
    assert gamma > c0(model) / 2


def test_sharpness_probe_1d_bound_and_values():
    model = PairModel1D(1.0, -0.24)
    ch = Chain1D(512)
    pins = {6: 0.18366, 8: 0.14228, 12: 0.10480}
    for K, ray in pins.items():
        pr = sharpness_probe_1d(model, ch, build_blend_1d(ch, K))
        assert pr.t_term <= pr.t_bound < 0
        assert 0 < pr.alpha <= 1
        assert pr.rayleigh == pytest.approx(ray, abs=1e-4)
        assert not pr.conclusive
        assert float(pr) == pr.rayleigh


@pytest.mark.xfail(strict=True, reason="the witness controls the infimum "
                   "from above only; its Rayleigh quotient stays above the "
                   "continuum constant and does not fall with N (0.1837 at "
                   "N = 512, 0.1840 at N = 65536), so no larger size flips "
                   "it and indefiniteness needs the certified eigensolver scan")
def test_sharpness_probe_1d_goes_negative():
    model = PairModel1D(1.0, -0.24)
    ch = Chain1D(512)
    pr = sharpness_probe_1d(model, ch, build_blend_1d(ch, 6))
    assert pr.rayleigh < c0(model)


def test_layer_sets_example_geometry():
    lat = TriLattice2D(24)
    blend = _blend_2d_sharp(lat, 4, 7)
    J, jprime = construct_layer_sets(lat, blend)
    assert jprime.dtype == bool and J.dtype == bool
    assert np.all(J[jprime])
    ring = ring_number(lat)
    assert set(np.unique(ring[jprime])) == {5, 6}
    assert int(jprime.sum()) == 11


def test_sharpness_probe_2d_crosses_zero_in_k():
    model = unstable_toy_model(2.04, 1.0)
    lat = TriLattice2D(24)

    def probe(K):
        blend = _blend_2d_sharp(lat, 4, 4 + K)
        _, jprime = construct_layer_sets(lat, blend)
        return sharpness_probe_2d(lat, model, blend, jprime)

    narrow = probe(3)
    assert narrow == pytest.approx(-0.048274, abs=2e-4)
    assert narrow < 0
    wide = probe(12)
    assert wide == pytest.approx(0.030311, abs=2e-4)
    assert wide > 0


def test_sharpness_probe_2d_validations():
    lat = TriLattice2D(24)
    blend = _blend_2d_sharp(lat, 4, 7)
    _, jprime = construct_layer_sets(lat, blend)
    stable = hessians_from_radial(harmonic(), np.eye(2))
    with pytest.raises(ValueError, match="no unstable bond direction"):
        sharpness_probe_2d(lat, stable, blend, np.ones((48, 48), dtype=bool))
    model = unstable_toy_model(2.04, 1.0)
    with pytest.raises(ValueError, match="empty J'"):
        sharpness_probe_2d(lat, model, blend, np.zeros((48, 48), dtype=bool))
    with pytest.raises(ValueError, match="must have shape"):
        sharpness_probe_2d(lat, model, blend, np.ones((4, 4), dtype=bool))
    rng = np.random.default_rng(0)
    noisy = type(blend)(lattice=lat, beta=rng.uniform(size=(48, 48)), Ra=4,
                        Rb=7, profile="custom", margined=False)
    with pytest.raises(ValueError, match="varies along a3"):
        sharpness_probe_2d(lat, model, noisy, jprime)


def test_blended_gamma_tracks_auxiliary_constant():
    # growing defect core: Ra = N/8 and K near 4 N^(1/5) at N = 16
    model = unstable_toy_model(1.0, 0.3)
    lat = TriLattice2D(16)
    blend = _blend_2d_sharp(lat, 2, 9)
    G = gram_D(lat)
    gt = coercivity(assemble_ltilde(lat, model, blend), G).gamma
    assert gt == pytest.approx(0.400000, abs=1e-4)
    op = Op2D(kind="bqcf", lattice=lat, model=model, blend=blend)
    gamma = coercivity(assemble(op), G).gamma
    assert gamma == pytest.approx(0.393266, abs=1e-4)
    assert gamma >= gt / 2


def test_sweep2d_stable_model_is_degenerate():
    model = unstable_toy_model(1.0, 0.3)
    fit = sweep_threshold_2d(model, 1, {"N": [8, 12, 16, 24], "Ra": 4})
    assert len(fit.pairs) == 4
    assert all(k == 1 for _, k in fit.pairs)
    assert fit.flags == ("degenerate",)
    assert all(r.Ra == 4 and r.Rb == r.Ra + r.K for r in fit.rows)
    assert all(np.isfinite(r.c0_or_gammatilde) for r in fit.rows)


def test_sweep2d_rejects_bad_case():
    with pytest.raises(ValueError, match="case must be 1, 2 or 3"):
        sweep_threshold_2d(unstable_toy_model(), 4, {"N": [8]})


def test_sweep2d_rejects_keys_the_case_does_not_read():
    model = unstable_toy_model(2.04, 1.0)
    with pytest.raises(ValueError, match="case 1 does not read Kmax; its keys are N, "):
        sweep_threshold_2d(model, 1, {"N": [8], "Kmax": 8})
    with pytest.raises(ValueError, match="case 1 does not read alpha"):
        sweep_threshold_2d(model, 1, {"N": [8], "alpha": 0.5})
    with pytest.raises(ValueError, match="case 2 does not read Ra, c"):
        sweep_threshold_2d(model, 2, {"N": [8], "Ra": 2, "c": 0.1, "alpha": 0.5})
    # the keys a case cannot run without are named, not met inside its loop
    for case, params, key in ((1, {"Ra": 2}, "N"), (2, {"N": [8]}, "alpha"),
                              (3, {"N": [8]}, "c")):
        with pytest.raises(ValueError, match=f"case {case} requires the key {key}$"):
            sweep_threshold_2d(model, case, params)
    # the keys a case-1 sweep reads are all accepted
    fit = sweep_threshold_2d(model, 1, {"N": [8], "Ra": 2, "K_max": 8, "K_min": 1,
                                        "profile": "poly7", "tol": 1e-10,
                                        "dense_threshold": 1000, "seed": 7})
    assert fit.pairs == ((1 / 8, 6),)


def test_sweep2d_requires_positive_auxiliary():
    # eta far past the long-wave stability edge kappa0/2
    model = unstable_toy_model(1.0, 3.0)
    with pytest.raises(ValueError, match="auxiliary operator not positive"):
        sweep_threshold_2d(model, 1, {"N": [12], "Ra": 2, "K_max": 8})


def test_trace_constant_on_circle():
    out = trace_check("circle", 0.1, 1.0, sample_constant())
    assert out["lhs"] == pytest.approx(2 * np.pi * 0.1, rel=1e-9)
    assert out["rhs"] == pytest.approx(1.382301, abs=1e-5)
    assert out["ratio"] == pytest.approx(0.454545, abs=1e-5)
    assert out["C0"] == pytest.approx(4.0 / 0.9 * 0.1, rel=1e-12)
    assert out["C1"] == pytest.approx(2 * 0.1 * abs(np.log(0.1)), rel=1e-12)


def test_trace_constant_on_hexagon():
    # the perimeter 6 r0, and C0 times the annulus area (3 sqrt(3) / 2) (r1^2 - r0^2)
    out = trace_check("hexagon", 0.1, 1.0, sample_constant())
    assert out["lhs"] == pytest.approx(6 * 0.1, rel=1e-12)
    assert out["rhs"] == pytest.approx(out["C0"] * 1.5 * np.sqrt(3) * (1 - 0.1**2), rel=1e-12)


def test_trace_log_witness_saturation():
    # the log witness keeps a constant fraction of the bound as r0 shrinks
    pins = {1e-2: 0.488429, 1e-3: 0.494811, 1e-4: 0.497070}
    for r0, want in pins.items():
        out = trace_check("circle", r0, 1.0, sample_log())
        assert out["ratio"] == pytest.approx(want, abs=1e-4)
        assert 0.01 <= out["ratio"] <= 1 + 1e-3


def test_trace_polynomials_on_hexagon(rng):
    worst = 0.0
    for _ in range(20):
        out = trace_check("hexagon", 1e-2, 1.0, sample_poly(rng))
        worst = max(worst, out["ratio"])
    assert worst <= 1 + 1e-3


def test_trace_validations():
    with pytest.raises(ValueError, match="need 0 < r0 < r1"):
        trace_check("circle", 0.5, 0.5, sample_constant())
    with pytest.raises(ValueError, match="unknown gauge"):
        trace_check("square", 0.1, 1.0, sample_constant())
    with pytest.raises(TypeError, match="TraceSample"):
        trace_check("circle", 0.1, 1.0, lambda x: x)


def test_sample_poly_gradient_consistency(rng):
    s = sample_poly(rng)
    pts = rng.uniform(-1, 1, size=(5, 2))
    g = s.grad(pts)
    h = 1e-6
    for axis in range(2):
        e = np.zeros(2)
        e[axis] = h
        fd = (s.value(pts + e) - s.value(pts - e)) / (2 * h)
        assert np.allclose(fd, g[..., axis], atol=1e-5)


def test_sample_poly_draws_are_pinned():
    # c_ab of x^a y^b in draw order: the same twenty polynomials per seed
    terms = [(a, b) for a in range(4) for b in range(4) if a + b <= 3]
    coef = np.random.default_rng(3).standard_normal(len(terms))
    s = sample_poly(np.random.default_rng(3))
    x, y = np.random.default_rng(4).uniform(-1, 1, size=(2, 7))
    value = sum(c * x**a * y**b for c, (a, b) in zip(coef, terms))
    gx = sum(c * a * x ** (a - 1) * y**b for c, (a, b) in zip(coef, terms) if a)
    gy = sum(c * b * x**a * y ** (b - 1) for c, (a, b) in zip(coef, terms) if b)
    pts = np.stack([x, y], axis=-1)
    assert np.allclose(s.value(pts), value, rtol=1e-12, atol=1e-12)
    assert np.allclose(s.grad(pts), np.stack([gx, gy], axis=-1), rtol=1e-12, atol=1e-12)


def test_run_writes_outputs(tmp_path):
    out = tmp_path / "trace_out"
    code = run({"experiment": "trace", "psi": "hexagon", "r0": [1e-2],
                "npoly": 2}, out_dir=str(out))
    assert code == 0
    for name in ("rows.csv", "fit.json", "summary.txt", "plot.gp"):
        assert (out / name).exists()
    assert "overall: PASS" in (out / "summary.txt").read_text()


def _run_outputs(out, cfg):
    """run(cfg) into out, which must pass: rows.csv's rows, fit.json, summary.txt."""
    assert run(cfg, out_dir=str(out)) == 0
    with open(out / "rows.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return rows, json.loads((out / "fit.json").read_text()), (out / "summary.txt").read_text()


def test_run_sweep2d_case_3_checks_bounded_growth(tmp_path):
    # Ra = round(c N) grows with N; equal K* at both sizes is degenerate
    rows, fit, summary = _run_outputs(tmp_path / "c3", {
        "experiment": "sweep2d", "case": 3, "c": 0.25, "n": [8, 16],
        "kappa0": 2.04, "eta": 1.0, "kmax": 8})
    assert fit["pairs"] == [[1 / 16, 6], [1 / 8, 6]]
    assert "degenerate" in fit["flags"]
    assert sorted({int(r["Ra"]) for r in rows}) == [2, 4]
    assert "PASS bounded-growth" in summary


def test_run_sweep2d_case_2_grows_the_defect_as_a_power(tmp_path):
    # Ra = round(N^alpha): 4 at N = 16
    rows, fit, _ = _run_outputs(tmp_path / "c2", {
        "experiment": "sweep2d", "case": 2, "alpha": 0.5, "n": [16],
        "kappa0": 2.04, "eta": 1.0, "kmax": 8})
    assert fit["pairs"] == [[1 / 16, 6]]
    assert {int(r["Ra"]) for r in rows} == {4}


def test_run_sharp2d_writes_a_row_per_width(tmp_path):
    rows, fit, _ = _run_outputs(tmp_path / "sharp2d",
                                {"experiment": "sharp2d", "n": 16, "k": [3, 6]})
    assert [(int(r["K"]), int(r["Rb"])) for r in rows] == [(3, 7), (6, 10)]
    assert fit["form_value"] == min(float(r["form_value"]) for r in rows)


def test_run_sweep1d_checks_slope_and_fit(tmp_path):
    _, fit, summary = _run_outputs(tmp_path / "sweep1d", {
        "experiment": "sweep1d", "eps": [1 / 64, 1 / 128, 1 / 256], "kmax": 32})
    assert fit["pairs"] == [[1 / 256, 18], [1 / 128, 16], [1 / 64, 14]]
    assert fit["slope"] == pytest.approx(0.1813, abs=1e-4)
    assert fit["r2"] == pytest.approx(0.9987, abs=1e-4)
    assert "PASS slope-window" in summary and "PASS fit-quality" in summary


def test_run_from_config_file(tmp_path):
    cfg = tmp_path / "stability.cfg"
    cfg.write_text("experiment = stability\nspace = 1d\nn = 16\nk = 8\n")
    out = tmp_path / "stab_out"
    assert run(str(cfg), out_dir=str(out)) == 0
    assert "gamma" in (out / "fit.json").read_text()


def test_run_reports_failed_checks(tmp_path):
    # a window of K = 6 alone holds no sign change at eps = 1/16: no threshold
    code = run({"experiment": "sweep1d", "eps": [1 / 16], "kmax": 6},
               out_dir=str(tmp_path / "s"))
    assert code == 1
    assert "overall: FAIL" in (tmp_path / "s" / "summary.txt").read_text()


def test_run_rejects_unknown_experiment(tmp_path):
    with pytest.raises(ConfigError, match="unknown or missing experiment"):
        run({"experiment": "nope"}, out_dir=str(tmp_path / "x"))
    with pytest.raises(ConfigError, match="unknown or missing experiment"):
        run({}, out_dir=str(tmp_path / "y"))


def test_run_rejects_keys_the_experiment_does_not_read(tmp_path):
    with pytest.raises(ConfigError, match="trace does not read threads"):
        run({"experiment": "trace", "threads": 2}, out_dir=str(tmp_path / "t"))
    with pytest.raises(ConfigError, match="sweep1d does not read kmaz"):
        run({"experiment": "sweep1d", "kmaz": 8}, out_dir=str(tmp_path / "s"))
    # the dense/iterative crossover is the solver's, not the experiment's
    for name in ("sweep1d", "sweep2d"):
        with pytest.raises(ConfigError, match=f"{name} does not read dense_threshold"):
            run({"experiment": name, "dense_threshold": 1000}, out_dir=str(tmp_path / name))
    # the config grammar accepts hyphens in keys; the trace runner reads quad_n
    cfg = tmp_path / "trace.cfg"
    cfg.write_text("experiment = trace\nquad-n = 8\n")
    with pytest.raises(ConfigError, match="trace does not read quad-n"):
        run(str(cfg), out_dir=str(tmp_path / "q"))
    # the verdict windows are constants of their checks, not config keys
    for name, key in (("sweep1d", "slope_window"), ("sweep1d", "r2_min"),
                      ("sweep2d", "growth_slack"), ("poincare", "window")):
        with pytest.raises(ConfigError, match=f"{name} does not read {key}"):
            run({"experiment": name, key: 1.0}, out_dir=str(tmp_path / key))
    # each sweep2d case reads one defect-radius key of ra, alpha and c
    with pytest.raises(ConfigError, match="sweep2d case 2 does not read ra; it reads alpha"):
        run({"experiment": "sweep2d", "case": 2, "ra": 5}, out_dir=str(tmp_path / "c"))
    with pytest.raises(ConfigError, match="sweep2d case 1 does not read alpha, c"):
        run({"experiment": "sweep2d", "alpha": 0.5, "c": 0.1}, out_dir=str(tmp_path / "c"))
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("name, cfg, message", [
    ("stability", {"space": "1d", "ra": 5, "n": 16},
     "stability space 1d does not read ra; it reads phiF, phi2F"),
    ("stability", {"space": "2d", "phiF": 2.0}, "stability space 2d does not read phiF"),
    ("stability", {"kind": "atomistic", "k": 3, "profile": "cosine"},
     "stability kind atomistic does not read k, profile"),
    ("stability", {"space": "2d", "kind": "cauchy_born", "ra": 2},
     "stability kind cauchy_born does not read ra"),
    ("verify", {"suite": "identities-1d", "n2d": 4, "n1d": 8, "draws": 2},
     "verify suite identities-1d does not read n2d; it reads n1d, phiF, phi2F"),
    ("verify", {"suite": "identities-2d", "phi2F": -0.1},
     "verify suite identities-2d does not read phi2F; it reads n2d, kappa0, eta")])
def test_run_rejects_keys_unread_under_the_other_values(tmp_path, name, cfg, message):
    with pytest.raises(ConfigError, match=message):
        run({"experiment": name, **cfg}, out_dir=str(tmp_path / "o"))
    assert not (tmp_path / "o").exists()


def test_keys_read_under_the_other_values_are_accepted():
    # each key is read where its condition holds: suite all reads both lattices,
    # a blended 2D kind reads k and ra
    cfg = experiments._resolve("verify", {"n1d": 8, "n2d": 4, "eta": 0.2})
    assert (cfg["n1d"], cfg["n2d"], cfg["eta"]) == ([8], [4], 0.2)
    cfg = experiments._resolve("stability", {"space": "2d", "kind": "ltilde", "k": 2,
                                             "ra": 1, "kappa0": 2.0})
    assert (cfg["k"], cfg["ra"], cfg["kappa0"], cfg["phiF"]) == (2, 1, 2.0, 1.0)


def test_resolved_config_has_every_key_at_its_type():
    cfg = experiments._resolve("trace", {"experiment": "trace", "r1": 1, "r0": 0.01})
    assert list(cfg) == list(experiments.EXPERIMENTS["trace"])
    # an int passes as a float, one value as a one-item list
    assert cfg["r1"] == 1.0 and type(cfg["r1"]) is float
    assert cfg["r0"] == [0.01]
    assert cfg["psi"] == "hexagon" and cfg["npoly"] == 20 and cfg["seed"] == 7
    # defaults that follow from other keys stay unset for the runner
    stab = experiments._resolve("stability", {"space": "2d"})
    assert (stab["n"], stab["k"], stab["ra"]) == (None, None, None)
    assert (stab["method"], stab["profile"], stab["kind"]) == ("iterative", "poly7", "bqcf")
    for value in (True, 8.0, "8"):
        with pytest.raises(ConfigError, match="n must be int"):
            experiments._resolve("stability", {"n": value})
    with pytest.raises(ConfigError, match="unknown case 2.0"):
        experiments._resolve("sweep2d", {"case": 2.0})
