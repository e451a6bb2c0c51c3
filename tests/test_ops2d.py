"""2D operators, per-bond divergence split, R/S bounds, L-tilde, Poincare."""

import math

import numpy as np
import pytest

from bqcf.blend import Blend2D, _blend_2d_sharp, build_blend_2d, derivative_bounds
from bqcf.lattice2d import (
    TriLattice2D,
    grad_norm_sq_2d,
    inner2d,
    make_regions,
    project_zero_mean_2d,
    random_zero_mean_2d,
    resolve_direction,
)
from bqcf.ops2d import (
    BOND_PAIRS,
    Op2D,
    _bond_apply_a,
    _bond_apply_c,
    apply2d,
    apply_ltilde,
    assemble_ltilde,
    assemble_triplets,
    divergence_form_2d,
    poincare_discrete,
    rs_bounds_2d,
)
from bqcf.potentials import harmonic, hessians_from_radial, lennard_jones, morse
from bqcf.spectral import assemble

MODEL = hessians_from_radial(morse(), np.eye(2))


def _flat_blend(lat, value):
    # constant-weight Blend2D for identities that only read beta
    n = 2 * lat.N
    return Blend2D(lattice=lat, beta=np.full((n, n), float(value)), Ra=0,
                   Rb=1, profile="custom", margined=False)


def _dense(triplets_out):
    dim, rows, cols, vals, symmetric = triplets_out
    A = np.zeros((dim, dim))
    np.add.at(A, (rows, cols), vals)
    return A, symmetric


def test_apply_constant_is_zero():
    lat = TriLattice2D(16)
    bl = build_blend_2d(lat, 0, 8)
    u = np.full((32, 32, 2), 1.75)
    for kind in ("atomistic", "cauchy_born", "bqcf"):
        op = Op2D(kind=kind, lattice=lat, model=MODEL,
                  blend=bl if kind == "bqcf" else None)
        assert np.array_equal(apply2d(op, u), np.zeros_like(u))
    # matrix-backed path cancels the center block only up to rounding
    out = apply2d(Op2D(kind="ltilde", lattice=lat, model=MODEL, blend=bl), u)
    assert np.max(np.abs(out)) <= 1e-9


def test_flat_blend_reproduces_pure_kinds(rng):
    lat = TriLattice2D(8)
    op_a = Op2D(kind="atomistic", lattice=lat, model=MODEL)
    op_c = Op2D(kind="cauchy_born", lattice=lat, model=MODEL)
    op1 = Op2D(kind="bqcf", lattice=lat, model=MODEL, blend=_flat_blend(lat, 1.0))
    op0 = Op2D(kind="bqcf", lattice=lat, model=MODEL, blend=_flat_blend(lat, 0.0))
    for _ in range(5):
        u = rng.standard_normal((16, 16, 2))
        assert np.array_equal(apply2d(op1, u), apply2d(op_a, u))
        assert np.array_equal(apply2d(op0, u), apply2d(op_c, u))


def test_fourier_symbol(rng):
    """Both pure kinds act on a lattice cosine mode by their stencil symbol,
    through the apply and through the assembled matrix."""
    lat = TriLattice2D(8)
    n, eps = 16, lat.eps
    p, q = 3, 5
    a, b = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    phase = 2 * np.pi * (p * a + q * b) / n + 0.3
    c = rng.standard_normal(2)
    u = np.cos(phase)[..., None] * c

    def angle(d):
        di, dj = resolve_direction(d)
        return 2 * np.pi * (p * di + q * dj) / n

    M_nn = np.zeros((2, 2))
    for name, H in zip(("a1", "a2", "a3"), MODEL.Ha):
        M_nn += (2 - 2 * np.cos(angle(name))) * H / eps**2
    M_a = M_nn.copy()
    M_c = M_nn.copy()
    for bond, H in zip(("b1", "b2", "b3"), MODEL.Hb):
        M_a += (2 - 2 * np.cos(angle(bond))) * H / eps**2
        dp, dq = (angle(d) for d in BOND_PAIRS[bond])
        M_c += (6 - 4 * np.cos(dp) - 4 * np.cos(dq)
                + 2 * np.cos(dp - dq)) * H / eps**2

    for kind, M in (("atomistic", M_a), ("cauchy_born", M_c)):
        op = Op2D(kind=kind, lattice=lat, model=MODEL)
        want = np.cos(phase)[..., None] * (M @ c)
        got = apply2d(op, u)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))
        # the assembled matrix the solvers use: A u = eps^2 L u
        got = (assemble(op).matrix @ u.ravel()).reshape(u.shape) / eps**2
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


def test_apply_rejects_bad_shape():
    lat = TriLattice2D(4)
    op = Op2D(kind="atomistic", lattice=lat, model=MODEL)
    with pytest.raises(ValueError, match="expected field of shape"):
        apply2d(op, np.zeros((8, 8)))


def test_op_validation():
    lat = TriLattice2D(16)
    bl = build_blend_2d(lat, 0, 8)
    with pytest.raises(ValueError, match="unknown operator kind"):
        Op2D(kind="qcl", lattice=lat, model=MODEL)
    with pytest.raises(ValueError, match="requires a blend"):
        Op2D(kind="bqcf", lattice=lat, model=MODEL)
    with pytest.raises(ValueError, match="requires a blend"):
        Op2D(kind="ltilde", lattice=lat, model=MODEL)
    with pytest.raises(ValueError, match="does not take a blend"):
        Op2D(kind="atomistic", lattice=lat, model=MODEL, blend=bl)
    with pytest.raises(ValueError, match="different lattice"):
        Op2D(kind="bqcf", lattice=TriLattice2D(8), model=MODEL, blend=bl)


def test_nn_only_model_collapses_kinds(rng):
    zero = np.zeros((2, 2))
    model = hessians_from_radial(harmonic(), np.eye(2))
    model = type(model)(B=model.B, Ha=model.Ha, Hb=(zero, zero, zero))
    lat = TriLattice2D(16)
    bl = build_blend_2d(lat, 0, 8)
    u = rng.standard_normal((32, 32, 2))
    out_a = apply2d(Op2D(kind="atomistic", lattice=lat, model=model), u)
    out_c = apply2d(Op2D(kind="cauchy_born", lattice=lat, model=model), u)
    out_b = apply2d(Op2D(kind="bqcf", lattice=lat, model=model, blend=bl), u)
    assert np.array_equal(out_a, out_c)
    assert np.array_equal(out_a, out_b)


def test_divergence_split_constant_beta(rng):
    lat = TriLattice2D(8)
    bl = _flat_blend(lat, 0.37)
    u = random_zero_mean_2d(lat, rng)
    for bond, H in zip(("b1", "b2", "b3"), MODEL.Hb):
        form = divergence_form_2d(lat, MODEL, bl, u, bond)
        assert form.Rb_term == 0.0
        assert form.Sb_term == 0.0
        want = inner2d(lat, 0.37 * _bond_apply_a(lat, u, H, bond)
                       + 0.63 * _bond_apply_c(lat, u, H, bond), u)
        assert form.total == pytest.approx(want, abs=1e-11 * (1 + abs(want)))


def test_divergence_split_matches_blended_form(rng):
    lat = TriLattice2D(16)
    bl = build_blend_2d(lat, 1, 8)
    w = bl.beta[..., None]
    for _ in range(25):
        u = random_zero_mean_2d(lat, rng)
        for j, bond in enumerate(("b1", "b2", "b3")):
            H = MODEL.Hb[j]
            form = divergence_form_2d(lat, MODEL, bl, u, bond)
            want = inner2d(lat, w * _bond_apply_a(lat, u, H, bond)
                           + (1 - w) * _bond_apply_c(lat, u, H, bond), u)
            assert form.total == pytest.approx(want, abs=1e-10 * (1 + abs(want)))


def test_divergence_split_bond_aliases(rng):
    lat = TriLattice2D(16)
    bl = build_blend_2d(lat, 1, 8)
    u = random_zero_mean_2d(lat, rng)
    by_int = divergence_form_2d(lat, MODEL, bl, u, 2)
    by_name = divergence_form_2d(lat, MODEL, bl, u, "b2")
    assert by_int == by_name
    with pytest.raises(ValueError, match="unknown b-bond"):
        divergence_form_2d(lat, MODEL, bl, u, "b4")


def test_divergence_split_zero_hessian_bond(rng):
    zero = np.zeros((2, 2))
    model = hessians_from_radial(harmonic(), np.eye(2))
    model = type(model)(B=model.B, Ha=model.Ha, Hb=(zero, zero, zero))
    lat = TriLattice2D(16)
    bl = build_blend_2d(lat, 1, 8)
    u = random_zero_mean_2d(lat, rng)
    form = divergence_form_2d(lat, model, bl, u, "b1")
    assert (form.value_c, form.cross, form.Rb_term, form.Sb_term) == (0, 0, 0, 0)


def test_rs_bounds_formula_and_report(rng):
    lat = TriLattice2D(64)
    bl = build_blend_2d(lat, 8, 16)
    res = rs_bounds_2d(lat, MODEL, bl, random_zero_mean_2d(lat, rng))
    # eps*K = 1/8 and eps*Rb = 1/4 pin the blending Poincare constant
    assert res["C_P"] == pytest.approx(math.sqrt(0.125 * 0.25 * math.log(4.0)),
                                       rel=1e-12)
    assert res["C_P"] == pytest.approx(0.20814, abs=5e-5)
    assert res["chat"] == 8.0
    assert set(res["per_bond"]) == {"b1", "b2", "b3"}
    for entry in res["per_bond"].values():
        assert entry["boundR"] > 0 and entry["boundS"] > 0
        assert abs(entry["R"]) <= entry["boundR"] * (1 + 1e-9)
        assert abs(entry["S"]) <= entry["boundS"] * (1 + 1e-9)


def test_rs_bounds_monte_carlo(rng):
    lat = TriLattice2D(32)
    bl = build_blend_2d(lat, 4, 12)
    for _ in range(200):
        rs_bounds_2d(lat, MODEL, bl, random_zero_mean_2d(lat, rng))
    cos = build_blend_2d(lat, 2, 10, profile="cosine")
    for _ in range(50):
        rs_bounds_2d(lat, MODEL, cos, random_zero_mean_2d(lat, rng))


def test_rs_bounds_rejects_sharp_blend(rng):
    lat = TriLattice2D(32)
    bl = _blend_2d_sharp(lat, 4, 12)
    with pytest.raises(ValueError, match="without support margins"):
        rs_bounds_2d(lat, MODEL, bl, random_zero_mean_2d(lat, rng))


def test_rs_bounds_zero_chat_trips_s_check(rng):
    lat = TriLattice2D(32)
    bl = build_blend_2d(lat, 4, 12)
    with pytest.raises(RuntimeError, match="exceeds bound"):
        rs_bounds_2d(lat, MODEL, bl, random_zero_mean_2d(lat, rng), chat=0.0)


def test_ltilde_beta_zero_is_continuum_form(rng):
    lat = TriLattice2D(8)
    bl = _flat_blend(lat, 0.0)
    op_c = Op2D(kind="cauchy_born", lattice=lat, model=MODEL)
    # the form re-projects internally, so equality holds to rounding only
    for _ in range(5):
        u = random_zero_mean_2d(lat, rng)
        want = inner2d(lat, apply2d(op_c, u), u)
        assert apply_ltilde(lat, MODEL, bl, u) == pytest.approx(want, rel=1e-12)
        assert apply_ltilde(lat, MODEL, bl, u, per_bond=True) == \
            pytest.approx(want, rel=1e-12)


def test_ltilde_below_continuum_form_for_psd_bonds(rng):
    # harmonic at identity: every bond Hessian is positive semidefinite
    model = hessians_from_radial(harmonic(), np.eye(2))
    lat = TriLattice2D(16)
    bl = build_blend_2d(lat, 1, 8)
    op_c = Op2D(kind="cauchy_born", lattice=lat, model=model)
    for _ in range(20):
        u = random_zero_mean_2d(lat, rng)
        cont = inner2d(lat, apply2d(op_c, u), u)
        slack = 1e-12 * (1 + abs(cont))
        assert apply_ltilde(lat, model, bl, u) <= cont + slack
        assert apply_ltilde(lat, model, bl, u, per_bond=True) <= cont + slack


def test_ltilde_matrix_matches_quadratic_form(rng):
    lat = TriLattice2D(8)
    # N = 8 cannot host a margined blend; use the sharp builder's weight
    bl = _blend_2d_sharp(lat, 1, 4)
    for per_bond in (False, True):
        sop = assemble_ltilde(lat, MODEL, bl, per_bond=per_bond)
        coo = sop.matrix.tocoo()
        rows, cols, vals = coo.row, coo.col, coo.data
        A = np.zeros((sop.dim, sop.dim))
        np.add.at(A, (rows, cols), vals)
        assert np.max(np.abs(A - A.T)) <= 1e-12 * np.max(np.abs(A))
        op = Op2D(kind="ltilde", lattice=lat, model=MODEL, blend=bl)
        for _ in range(10):
            u = random_zero_mean_2d(lat, rng)
            want = apply_ltilde(lat, MODEL, bl, u, per_bond=per_bond)
            quad = float(u.ravel() @ (A @ u.ravel()))
            assert quad == pytest.approx(want, abs=1e-10 * (1 + abs(want)))
            if not per_bond:
                via_op = inner2d(lat, apply2d(op, u), u)
                assert via_op == pytest.approx(want, abs=1e-10 * (1 + abs(want)))


def test_blended_form_dominates_ltilde(rng):
    """<L^bqcf u, u> >= <L-tilde u, u> minus the beta-derivative bracket.

    The generic constant 1.0 is calibrated: the largest value needed over
    these models, blends, and 30 draws each is below 0.01.
    """
    chat = 1.0
    lat = TriLattice2D(32)
    eps = lat.eps
    models = [hessians_from_radial(phi, np.eye(2))
              for phi in (harmonic(), lennard_jones(), morse())]
    blends = [build_blend_2d(lat, 4, 12), build_blend_2d(lat, 2, 10, "cosine")]
    for model in models:
        cdd = max(float(np.max(np.abs(np.linalg.eigvalsh(H)))) for H in model.Hb)
        for bl in blends:
            db = derivative_bounds(bl)
            cp = math.sqrt(eps * bl.K * eps * bl.Rb * abs(math.log(eps * bl.Rb)))
            op = Op2D(kind="bqcf", lattice=lat, model=model, blend=bl)
            for _ in range(30):
                u = random_zero_mean_2d(lat, rng)
                lhs = inner2d(lat, apply2d(op, u), u)
                tilde = apply_ltilde(lat, model, bl, u)
                bracket = chat * cdd * eps**2 * (db[1] + db[2] + cp * db[3]) \
                    * grad_norm_sq_2d(lat, u)
                assert lhs >= tilde - bracket - 1e-9 * (1 + abs(tilde))


def test_assembly_symmetry_flags(rng):
    lat = TriLattice2D(16)
    bl = build_blend_2d(lat, 1, 8)
    for kind in ("atomistic", "cauchy_born"):
        A, symmetric = _dense(assemble_triplets(
            Op2D(kind=kind, lattice=lat, model=MODEL)))
        assert symmetric
        assert np.max(np.abs(A - A.T)) <= 1e-14 * np.max(np.abs(A))
    A, symmetric = _dense(assemble_triplets(
        Op2D(kind="bqcf", lattice=lat, model=MODEL, blend=bl)))
    assert not symmetric
    assert np.max(np.abs(A - A.T)) > 1e-6
    # L-tilde is assembled from its quadratic form, never from a stencil
    with pytest.raises(ValueError, match="no stencil triplets"):
        assemble_triplets(Op2D(kind="ltilde", lattice=lat, model=MODEL, blend=bl))


def test_poincare_degenerate_region_is_zero():
    lat = TriLattice2D(12)
    assert poincare_discrete(lat, make_regions(lat, 5, 5)) == 0.0


def test_poincare_monotone_in_region():
    lat = TriLattice2D(12)
    small = poincare_discrete(lat, make_regions(lat, 2, 4))
    big = poincare_discrete(lat, make_regions(lat, 0, 6))
    assert 0 < small <= big + 1e-10


def test_poincare_rejects_wide_annulus():
    lat = TriLattice2D(12)
    with pytest.raises(ValueError, match="exceeds N/2"):
        poincare_discrete(lat, make_regions(lat, 2, 7))
