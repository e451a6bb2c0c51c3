"""The benchmark's oracles agree with the program on small cases, and each
check rejects a wrong answer: K* off by one, a gamma shifted by 1e-6, a
flipped sign."""

import numpy as np
import pytest

import oracles
import workloads
from bqcf import (Chain1D, Op1D, Op2D, PairModel1D, TriLattice2D, apply2d,
                  apply_op, assemble, build_blend_1d, coercivity, gram_D,
                  hessians_from_radial, make_regions, morse, poincare_discrete,
                  quad_form, unstable_toy_model)
from bqcf.blend import _blend_2d_sharp

MODEL1 = PairModel1D(phiF=1.0, phi2F=-0.24)
MORSE = hessians_from_radial(morse(), np.eye(2))


def blended_1d(N, K):
    chain = Chain1D(N)
    return Op1D(kind="bqcf", chain=chain, model=MODEL1,
                blend=build_blend_1d(chain, K))


def dense_1d(op):
    return oracles.form_matrix(lambda u: apply_op(op, u), (op.chain.nsites,),
                               op.chain.eps)


# --- oracles against the program -------------------------------------------

def test_gram_matrices_match_program():
    assert np.allclose(oracles.gram_1d(8), gram_D(Chain1D(8)).matrix.toarray(),
                       rtol=0, atol=1e-12)
    assert np.allclose(oracles.gram_2d(3), gram_D(TriLattice2D(3)).matrix.toarray(),
                       rtol=0, atol=1e-12)


def test_stencil_matrices_match_assembly():
    op = blended_1d(16, 6)
    assert np.allclose(dense_1d(op), assemble(op).sym_matrix.toarray(),
                       rtol=0, atol=1e-9)
    lat = TriLattice2D(4)
    op2 = Op2D(kind="bqcf", lattice=lat, model=unstable_toy_model(2.04, 1.0),
               blend=_blend_2d_sharp(lat, 1, 3))
    got = oracles.form_matrix(lambda u: apply2d(op2, u), (8, 8, 2), lat.eps ** 2)
    assert np.allclose(got, assemble(op2).sym_matrix.toarray(), rtol=0, atol=1e-9)


def test_probed_matrix_equals_column_by_column():
    lat = TriLattice2D(8)
    op = Op2D(kind="bqcf", lattice=lat, model=MORSE, blend=_blend_2d_sharp(lat, 1, 4))
    full = oracles.form_matrix(lambda u: apply2d(op, u), (16, 16, 2), lat.eps ** 2)
    probed = oracles.form_matrix_2d(lambda u: apply2d(op, u), 8, lat.eps ** 2)
    assert np.array_equal(probed, full)
    with pytest.raises(ValueError, match="reaches beyond"):
        oracles.form_matrix_2d(lambda u: apply2d(op, u), 8, lat.eps ** 2, reach=1)


def test_inertia_agrees_with_program_sign():
    G = oracles.gram_1d(32)
    for K in (6, 10, 12, 14, 16):
        op = blended_1d(32, K)
        gamma = coercivity(assemble(op), gram_D(op.chain)).gamma
        assert oracles.coercive_beyond(dense_1d(op), G, 1, 1e-10) == (gamma > 1e-10)


def test_closed_forms_match_program_1d():
    chain = Chain1D(16)
    for kind, ref in (("atomistic", oracles.atomistic_1d(1.0, -0.24, 16)),
                      ("qcl", oracles.qcl_1d(1.0, -0.24))):
        gamma = coercivity(assemble(Op1D(kind=kind, chain=chain, model=MODEL1)),
                           gram_D(chain)).gamma
        assert oracles.close(gamma, ref)


@pytest.mark.parametrize("kind", ["atomistic", "cauchy_born"])
def test_symbol_matches_program_2d(kind):
    lat = TriLattice2D(4)
    gamma = coercivity(assemble(Op2D(kind=kind, lattice=lat, model=MORSE)),
                       gram_D(lat)).gamma
    assert oracles.close(gamma, oracles.symbol_min_2d(kind, MORSE.Ha, MORSE.Hb, 4))


def test_poincare_dense_matches_program():
    lat = TriLattice2D(8)
    ratio = poincare_discrete(lat, make_regions(lat, 1, 2))
    assert oracles.close(ratio, oracles.poincare_dense(8, 1, 2))


# --- checks against wrong answers -----------------------------------------

def test_kstar_off_by_one_fails():
    N = 32
    G = oracles.gram_1d(N)
    coercive = {K: oracles.coercive_beyond(dense_1d(blended_1d(N, K)), G, 1, 1e-10)
                for K in range(6, 20)}
    kstar = min(K for K, ok in coercive.items() if ok)
    assert kstar > 6
    assert oracles.kstar_certified(coercive[kstar - 1], coercive[kstar])
    for wrong in (kstar - 1, kstar + 1):
        assert not oracles.kstar_certified(coercive[wrong - 1], coercive[wrong])


def test_flipped_sign_fails():
    op = blended_1d(32, 6)
    rep = coercivity(assemble(op), gram_D(op.chain))
    value = quad_form(op, rep.minimizer)
    assert oracles.witness_negative(value)
    assert not oracles.witness_negative(-value)
    assert not oracles.coercive_beyond(dense_1d(op), oracles.gram_1d(32), 1, 1e-10)
    assert not oracles.kstar_certified(coercive_below=True, coercive_at=False)


def test_shifted_gamma_fails():
    refs = [oracles.atomistic_1d(1.0, -0.24, 64), oracles.qcl_1d(1.0, -0.24),
            oracles.symbol_min_2d("cauchy_born", MORSE.Ha, MORSE.Hb, 4),
            oracles.poincare_dense(8, 1, 2)]
    for ref in refs:
        assert oracles.close(ref, ref)
        assert not oracles.close(ref + 1e-6, ref)
        assert not oracles.close(ref - 1e-6, ref)


def test_monotonicity_and_window_fail_on_wrong_answers():
    good = [(1 / 128, 16), (1 / 256, 18), (1 / 512, 18)]
    assert oracles.monotone_violations(good) == []
    assert oracles.monotone_violations([(1 / 128, 19), (1 / 256, 18)]) == [128]
    scale = oracles.poincare_scale(32, 4, 8)
    assert oracles.in_window(scale, scale)
    assert not oracles.in_window(100 * scale, scale)
    assert not oracles.in_window(scale / 100, scale)


# --- workload checks on doctored rounds -----------------------------------

@pytest.fixture(scope="module")
def sweep_1d():
    wl = workloads.Threshold1D(seed=3)
    wl.eps = [1 / 32, 1 / 64]
    return wl, wl.run_round()


def test_threshold_round_passes_and_wrong_kstar_fails(sweep_1d):
    wl, answer = sweep_1d
    assert answer["kstar"] and wl.check([answer, answer]) == [{}, {}]
    doctored = dict(answer, kstar=dict(answer["kstar"]))
    doctored["kstar"][64] -= 1
    bad = wl.check([doctored])[0]
    assert (64, doctored["kstar"][64]) in bad


def test_later_round_that_differs_fails(sweep_1d):
    wl, answer = sweep_1d
    later = dict(answer, gamma=dict(answer["gamma"]))
    q = next(iter(later["gamma"]))
    later["gamma"][q] += 1e-6
    assert list(wl.check([answer, later])[1]) == [q]


def test_constants_check_rejects_shifted_value():
    wl = workloads.Constants(seed=3)
    wl.queries = [("1d", "atomistic", 16), ("2d", "cauchy_born", 4),
                  ("poincare", "annulus", 8)]
    answer = wl.run_round()
    assert wl.check([answer]) == [{}]
    for q in wl.queries:
        shifted = dict(answer, values=dict(answer["values"]))
        shifted["values"][q] += 1e-6
        assert list(wl.check([shifted])[0]) == [q]


def test_threshold_2d_round_passes_and_wrong_kstar_fails():
    wl = workloads.Threshold2D(seed=3)
    wl.params.update(N=[8], Ra=2, dense_threshold=100)
    answer = wl.run_round()
    assert answer["kstar"] == {8: 6} and wl.check([answer]) == [{}]
    for wrong in (5, 7):
        doctored = dict(answer, kstar={8: wrong})
        assert (8, wrong) in wl.check([doctored])[0]


def test_metric_names_match_benchmark_json():
    import json
    from pathlib import Path

    import tracing
    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_s", "setup_s", "peak_rss_mb"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
