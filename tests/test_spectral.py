"""Sparse assembly identities and coercivity pencil solves."""

import numpy as np
import pytest
import scipy.io
import scipy.linalg
import scipy.sparse

from bqcf.blend import Blend2D, _blend_2d_sharp, build_blend_1d, build_blend_2d
from bqcf.experiments import unstable_toy_model
from bqcf.lattice1d import Chain1D, diff
from bqcf.lattice2d import TriLattice2D, grad_norm_sq_2d
from bqcf.ops1d import Op1D
from bqcf.ops2d import Op2D
from bqcf.potentials import PairModel1D, c0, hessians_from_radial, morse
from bqcf.spectral import (
    SparseOp,
    _deflate,
    _dense_gamma,
    _gram_solver,
    _kernel_reflectors,
    assemble,
    check_assembly,
    coercivity,
    export_matrixmarket,
    gram_D,
    is_coercive,
)

MODEL2D = hessians_from_radial(morse(), np.eye(2))


def _gamma_1d(model, N, kind="atomistic", K=None, **kw):
    ch = Chain1D(N)
    blend = build_blend_1d(ch, K) if K is not None else None
    op = Op1D(kind=kind, chain=ch, model=model, blend=blend)
    return coercivity(assemble(op), gram_D(ch), **kw)


def test_assembly_matches_apply_1d():
    ch = Chain1D(16)
    bl = build_blend_1d(ch, 8)
    model = PairModel1D(phiF=1.0, phi2F=-0.24)
    for kind in ("atomistic", "qcl", "bqcf", "bqcf1", "bqcf2"):
        need = kind.startswith("bqcf")
        op = Op1D(kind=kind, chain=ch, model=model, blend=bl if need else None)
        assert check_assembly(op, assemble(op)) <= 1e-11


def test_assembly_matches_apply_2d():
    lat = TriLattice2D(8)
    bl = build_blend_2d(TriLattice2D(16), 0, 8)
    lat16 = bl.lattice
    for kind in ("atomistic", "cauchy_born"):
        op = Op2D(kind=kind, lattice=lat, model=MODEL2D)
        assert check_assembly(op, assemble(op)) <= 1e-11
    for kind in ("bqcf", "ltilde"):
        op = Op2D(kind=kind, lattice=lat16, model=MODEL2D, blend=bl)
        assert check_assembly(op, assemble(op)) <= 1e-11


def test_assemble_rejects_unknown_object():
    with pytest.raises(TypeError, match="cannot assemble"):
        assemble(object())


def test_bqcf_matrix_is_row_blend_of_pure_kinds():
    ch = Chain1D(32)
    bl = build_blend_1d(ch, 10)
    model = PairModel1D(phiF=1.0, phi2F=-0.24)
    A_b = assemble(Op1D(kind="bqcf", chain=ch, model=model, blend=bl)).matrix.toarray()
    A_a = assemble(Op1D(kind="atomistic", chain=ch, model=model)).matrix.toarray()
    A_q = assemble(Op1D(kind="qcl", chain=ch, model=model)).matrix.toarray()
    want = bl.beta[:, None] * A_a + (1.0 - bl.beta)[:, None] * A_q
    assert np.max(np.abs(A_b - want)) <= 1e-12 * np.max(np.abs(want))


def test_flat_blend_assembles_to_atomistic_2d():
    lat = TriLattice2D(8)
    n = 2 * lat.N
    ones = Blend2D(lattice=lat, beta=np.ones((n, n)), Ra=0, Rb=1, K=1,
                   Cbeta=0.0, Cbeta_j=(0.0, 0.0, 0.0), profile="custom",
                   margined=False)
    A_b = assemble(Op2D(kind="bqcf", lattice=lat, model=MODEL2D, blend=ones)).matrix
    A_a = assemble(Op2D(kind="atomistic", lattice=lat, model=MODEL2D)).matrix
    # center blocks accumulate in different orders, so equality is to rounding
    assert abs(A_b - A_a).max() <= 1e-13 * abs(A_a).max()


def test_stencil_width():
    ch = Chain1D(32)
    bl = build_blend_1d(ch, 10)
    model = PairModel1D(phiF=1.0, phi2F=-0.24)
    op = Op1D(kind="bqcf", chain=ch, model=model, blend=bl)
    A = assemble(op).matrix
    assert np.diff(A.indptr).max() <= 5
    lat = TriLattice2D(16)
    bl2 = build_blend_2d(lat, 0, 8)
    op2 = Op2D(kind="bqcf", lattice=lat, model=MODEL2D, blend=bl2)
    A2 = assemble(op2).matrix
    assert np.diff(A2.indptr).max() <= 26


def test_gram_1d(rng):
    ch = Chain1D(8)
    G = gram_D(ch)
    M = G.matrix
    assert np.max(np.abs(M @ np.ones(16))) == 0.0
    for _ in range(10):
        u = rng.standard_normal(16)
        du = diff(ch, u, 1)
        want = ch.eps * float(np.sum(du * du))
        assert float(u @ (M @ u)) == pytest.approx(want, rel=1e-12)
    # the alternating mode attains the top of the spectrum, 4/eps = 4N
    top = np.linalg.eigvalsh(M.toarray()).max()
    assert top == pytest.approx(4 * ch.N, rel=1e-12)


def test_gram_2d(rng):
    lat = TriLattice2D(4)
    G = gram_D(lat)
    M = G.matrix
    assert np.max(np.abs(M @ np.ones(M.shape[0]))) == 0.0
    for _ in range(10):
        u = rng.standard_normal((8, 8, 2))
        want = grad_norm_sq_2d(lat, u)
        x = u.ravel()
        assert float(x @ (M @ x)) == pytest.approx(want, rel=1e-11)


def test_gram_rejects_unknown_domain():
    with pytest.raises(TypeError, match="no Gram form"):
        gram_D(3.0)


def test_qcl_coercivity_is_flat_symbol():
    # every Fourier mode of the qcl pencil sits at phiF + 4 phi2F
    for phiF, phi2F in ((1.0, -0.24), (1.0, 0.3), (2.0, 0.0)):
        model = PairModel1D(phiF=phiF, phi2F=phi2F)
        rep = _gamma_1d(model, 8, kind="qcl")
        assert rep.gamma == pytest.approx(phiF + 4 * phi2F, abs=1e-10)


def test_atomistic_gamma_closed_form():
    """For phi2F < 0, the slowest zero-mean mode theta = pi/N attains gamma."""
    for phi2F in (-0.2, -0.24):
        model = PairModel1D(phiF=1.0, phi2F=phi2F)
        for N in (8, 64, 256):
            want = 1.0 + 2 * phi2F * (1 + np.cos(np.pi / N))
            rep = _gamma_1d(model, N)
            assert rep.gamma == pytest.approx(want, rel=1e-8)
            assert rep.gamma >= c0(model)


def test_atomistic_gamma_nonnegative_bonds():
    # phi2F >= 0 pushes the minimum to theta = pi, giving exactly phiF
    rep = _gamma_1d(PairModel1D(phiF=1.0, phi2F=0.3), 64)
    assert rep.gamma == pytest.approx(1.0, rel=1e-8)
    rep = _gamma_1d(PairModel1D(phiF=2.0, phi2F=0.0), 64)
    assert rep.gamma == pytest.approx(2.0, rel=1e-10)


@pytest.mark.xfail(strict=True, reason="the atomistic constant exceeds the "
                   "continuum one at every finite N for phi2F < 0; the gap "
                   "2 phi2F (cos(pi/N) - 1) only vanishes in the limit")
def test_atomistic_gamma_attains_continuum_constant():
    model = PairModel1D(phiF=1.0, phi2F=-0.2)
    for N in (8, 64, 256):
        rep = _gamma_1d(model, N)
        assert rep.gamma == pytest.approx(c0(model), abs=1e-8)


def test_gamma_gauge_invariance():
    model = PairModel1D(phiF=1.0, phi2F=-0.24)
    base = _gamma_1d(model, 8, kind="bqcf", K=6).gamma
    ch = Chain1D(8)
    op = Op1D(kind="bqcf", chain=ch, model=model, blend=build_blend_1d(ch, 6))
    sop = assemble(op)
    coo = sop.matrix.tocoo()
    rows, cols, vals = coo.row, coo.col, coo.data
    # shifting A by a rank-one piece on ker(G) leaves the pencil untouched
    n = sop.dim
    gi, gj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    shifted = SparseOp(scipy.sparse.csr_matrix((
        np.concatenate([vals, np.full(n * n, 5.0)]),
        (np.concatenate([rows, gi.ravel()]), np.concatenate([cols, gj.ravel()]))),
        shape=(n, n)), symmetric=False)
    again = coercivity(shifted, gram_D(ch)).gamma
    assert again == pytest.approx(base, rel=1e-8)


def test_gamma_scales_with_model():
    base = _gamma_1d(PairModel1D(phiF=1.0, phi2F=-0.24), 16, kind="bqcf", K=8)
    twice = _gamma_1d(PairModel1D(phiF=2.0, phi2F=-0.48), 16, kind="bqcf", K=8)
    assert twice.gamma == pytest.approx(2 * base.gamma, rel=1e-8)


def test_dense_and_iterative_paths_agree():
    model = PairModel1D(phiF=1.0, phi2F=-0.24)
    dense = _gamma_1d(model, 64, kind="bqcf", K=12, method="dense")
    iterative = _gamma_1d(model, 64, kind="bqcf", K=12, method="iterative")
    assert iterative.method == "iterative"
    assert iterative.iterations > 0
    assert iterative.gamma == pytest.approx(dense.gamma, abs=1e-7 * (1 + abs(dense.gamma)))


def test_report_minimizer_attains_gamma():
    model = PairModel1D(phiF=1.0, phi2F=-0.24)
    ch = Chain1D(64)
    op = Op1D(kind="bqcf", chain=ch, model=model, blend=build_blend_1d(ch, 12))
    sop = assemble(op)
    G = gram_D(ch)
    rep = coercivity(sop, G)
    x = rep.minimizer
    rho = float(x @ (sop.sym_matrix @ x)) / float(x @ (G.matrix @ x))
    assert rho == pytest.approx(rep.gamma, rel=1e-6)
    assert rep.residual <= 1e-6


def test_dense_and_iterative_paths_agree_at_criterion_4_size():
    # criterion 4 solves at dim 4096 on the dense path
    model = PairModel1D(phiF=1.0, phi2F=-0.24)
    dense = _gamma_1d(model, 2048, kind="bqcf", K=25, method="dense")
    iterative = _gamma_1d(model, 2048, kind="bqcf", K=25, method="iterative")
    assert iterative.method == "iterative"
    assert iterative.gamma == pytest.approx(dense.gamma, abs=1e-7 * (1 + abs(dense.gamma)))


@pytest.mark.parametrize("domain", [Chain1D(300), Chain1D(2048),
                                    TriLattice2D(16), TriLattice2D(64)],
                         ids=["1d-300", "1d-2048", "2d-16", "2d-64"])
def test_pinned_gram_solve_is_exact(domain, rng):
    G = gram_D(domain)
    solve = _gram_solver(G.matrix, G.kernel)
    r = rng.standard_normal(G.dim)
    r -= G.kernel @ (G.kernel.T @ r)
    z = solve(r)
    assert np.linalg.norm(G.matrix @ z - r) <= 1e-10 * np.linalg.norm(r)
    assert np.abs(G.kernel.T @ z).max() <= 1e-12 * np.linalg.norm(z)
    # a block of right-hand sides solves column by column
    R = np.stack([r, 2.0 * r], axis=1)
    Z = solve(R)
    assert np.abs(Z - np.stack([z, 2.0 * z], axis=1)).max() <= 1e-12 * np.linalg.norm(z)


def test_iterative_nonconvergence_raises():
    model = PairModel1D(phiF=1.0, phi2F=-0.24)
    with pytest.raises(RuntimeError, match="did not converge"):
        _gamma_1d(model, 64, kind="bqcf", K=12, method="iterative", maxiter=1)


def test_symmetric_flag_is_checked():
    bad = scipy.sparse.csr_matrix((np.array([1.0]), (np.array([0]), np.array([1]))),
                                  shape=(2, 2))
    with pytest.raises(ValueError, match="symmetric flag set"):
        SparseOp(bad, symmetric=True)


def test_coercivity_validation():
    ch = Chain1D(8)
    model = PairModel1D(phiF=1.0, phi2F=-0.24)
    sop = assemble(Op1D(kind="atomistic", chain=ch, model=model))
    G = gram_D(ch)
    with pytest.raises(ValueError, match="dimension mismatch"):
        coercivity(sop, gram_D(Chain1D(4)))
    with pytest.raises(ValueError, match="kernel basis"):
        coercivity(sop, SparseOp(G.matrix, symmetric=True))
    with pytest.raises(ValueError, match="unknown method"):
        coercivity(sop, G, method="magic")


def test_matrixmarket_round_trip(tmp_path):
    ch = Chain1D(8)
    model = PairModel1D(phiF=1.0, phi2F=-0.24)
    sop = assemble(Op1D(kind="atomistic", chain=ch, model=model))
    path = tmp_path / "op.mtx"
    export_matrixmarket(sop, str(path))
    back = scipy.io.mmread(str(path)).tocsr()
    assert abs(back - sop.matrix).max() <= 1e-15


# K* of the blended chain at phi2F = -0.24, tol 1e-10 (criterion 4's sizes)
KSTAR_1D = {128: 16, 256: 18, 512: 20, 1024: 22}


@pytest.mark.parametrize("N", sorted(KSTAR_1D))
def test_inertia_sign_matches_dense_gamma_1d(N):
    model = PairModel1D(phiF=1.0, phi2F=-0.24)
    ch = Chain1D(N)
    G = gram_D(ch)
    for K in range(KSTAR_1D[N] - 1, KSTAR_1D[N] + 2):
        sop = assemble(Op1D(kind="bqcf", chain=ch, model=model,
                            blend=build_blend_1d(ch, K)))
        gamma = coercivity(sop, G, method="dense").gamma
        rep = is_coercive(sop, G, 1e-10)
        assert rep.coercive == (gamma > 1e-10), (N, K, gamma, rep)
        assert rep.method == "inertia" and rep.min_pivot > rep.margin
        assert (rep.negative == 0) == rep.coercive


@pytest.mark.parametrize("N", [12, 16])
def test_inertia_sign_matches_dense_gamma_2d(N):
    model = unstable_toy_model(2.04, 1.0)
    lat = TriLattice2D(N)
    G = gram_D(lat)
    verdicts = []
    for K in range(1, 9):
        sop = assemble(Op2D(kind="bqcf", lattice=lat, model=model,
                            blend=_blend_2d_sharp(lat, 4, 4 + K)))
        gamma = coercivity(sop, G, method="dense").gamma
        rep = is_coercive(sop, G, 1e-10)
        assert rep.coercive == (gamma > 1e-10), (N, K, gamma, rep)
        verdicts.append(rep.coercive)
    assert verdicts[0] is False and verdicts[-1] is True   # a sign change


def test_inertia_at_tau_equal_gamma_falls_back():
    # at tau = gamma the shifted pencil is singular up to rounding: the
    # smallest pivot cannot clear the backward-error margin
    model = PairModel1D(phiF=1.0, phi2F=-0.24)
    for N, K in ((128, 16), (512, 19)):
        ch = Chain1D(N)
        G = gram_D(ch)
        sop = assemble(Op1D(kind="bqcf", chain=ch, model=model,
                            blend=build_blend_1d(ch, K)))
        gamma = coercivity(sop, G).gamma
        rep = is_coercive(sop, G, gamma)
        assert rep.fallback and rep.method == "dense"
        assert rep.min_pivot <= rep.margin
        assert rep.coercive is False               # gamma > gamma is false
        assert is_coercive(sop, G, 1e-10).method == "inertia"


def test_inertia_rejects_foreign_kernel():
    ch = Chain1D(8)
    model = PairModel1D(phiF=1.0, phi2F=-0.24)
    sop = assemble(Op1D(kind="atomistic", chain=ch, model=model))
    G = gram_D(ch)
    tilted = np.linspace(1.0, 2.0, 16)[:, None]
    G_bad = SparseOp(G.matrix, symmetric=True, kernel=tilted / np.linalg.norm(tilted))
    with pytest.raises(ValueError, match="not orthogonal to the kernel"):
        is_coercive(sop, G_bad, 1e-10)
    for method in ("dense", "iterative"):
        with pytest.raises(ValueError, match="not orthogonal to the kernel"):
            coercivity(sop, G_bad, method=method)
    with pytest.raises(ValueError, match="dimension mismatch"):
        is_coercive(sop, gram_D(Chain1D(4)), 1e-10)


def _full_qr_reference(M, kernel):
    Q2 = scipy.linalg.qr(kernel, mode="full")[0][:, kernel.shape[1]:]
    return Q2, Q2.T @ M.toarray() @ Q2


@pytest.mark.parametrize("space", ["1d", "2d"])
def test_householder_deflation_matches_full_qr(space):
    if space == "1d":
        ch = Chain1D(96)
        op = Op1D(kind="bqcf", chain=ch, model=PairModel1D(phiF=1.0, phi2F=-0.24),
                  blend=build_blend_1d(ch, 14))
        G = gram_D(ch)
    else:
        lat = TriLattice2D(6)
        op = Op2D(kind="bqcf", lattice=lat, model=unstable_toy_model(2.04, 1.0),
                  blend=_blend_2d_sharp(lat, 1, 4))
        G = gram_D(lat)
    A = assemble(op).sym_matrix
    refl = _kernel_reflectors(G.kernel)
    assert len(refl) == G.kernel.shape[1]
    for M in (A, G.matrix):
        _, ref = _full_qr_reference(M, G.kernel)
        got = np.triu(_deflate(M, refl))
        assert np.abs(got - np.triu(ref)).max() <= 1e-10 * np.abs(ref).max()

    Q2, Ar = _full_qr_reference(A, G.kernel)
    _, Gr = _full_qr_reference(G.matrix, G.kernel)
    w, y = scipy.linalg.eigh(Ar, Gr, subset_by_index=[0, 0])
    gamma, x = _dense_gamma(A, G.matrix, G.kernel)
    assert gamma == pytest.approx(w[0], rel=1e-10, abs=1e-12)
    assert np.abs(G.kernel.T @ x).max() <= 1e-12 * np.linalg.norm(x)
    # same eigenvector up to sign and the B-normalization
    ref_x = Q2 @ y[:, 0]
    cos = abs(x @ ref_x) / (np.linalg.norm(x) * np.linalg.norm(ref_x))
    assert cos == pytest.approx(1.0, abs=1e-8)
