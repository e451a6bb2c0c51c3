"""Sparse assembly identities and coercivity pencil solves."""

import weakref
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from bqcf import ops1d, ops2d, spectral
from bqcf.blend import Blend2D, _blend_2d_sharp, build_blend_1d, build_blend_2d
from bqcf.experiments import unstable_toy_model
from bqcf.lattice1d import Chain1D, diff
from bqcf.lattice2d import TriLattice2D, grad_norm_sq_2d, make_regions
from bqcf.ops1d import Op1D
from bqcf.ops2d import Op2D, assemble_ltilde
from bqcf.potentials import PairModel1D, c0, hessians_from_radial, morse
from bqcf.spectral import (
    BlendPattern,
    SparseOp,
    _BandFactor,
    _Pinned,
    _Shift,
    _dense_gamma,
    _ldlt,
    _lift,
    assemble,
    check_assembly,
    coercivity,
    gram_D,
    is_coercive,
)

MODEL2D = hessians_from_radial(morse(), np.eye(2))


def _unsplit(G):
    # the same Gram form with no mirror: every pencil is one block
    return replace(G, mirror=None)


def _poincare_pencil(lat, regions):
    # the annulus mass form, negated, against the scalar Gram form, which
    # names the inversion as its mirror: the pencil of the ratio
    # poincare_discrete computes
    sites = np.flatnonzero(regions.mask(1).ravel())
    G = gram_D(lat, scalar=True)
    M = SparseOp(scipy.sparse.csr_matrix((np.full(sites.size, -lat.eps**2), (sites, sites)),
                                         shape=(G.dim, G.dim)))
    return M, replace(G, mirror=lat.inversion())


def _lanczos(A, G, seed=7):
    # shift-invert Lanczos itself: coercivity answers a translation-invariant
    # pencil from its symbol, so the chains reach the sparse path directly
    return spectral._iterative_gamma(A, G, None, seed)


def _gamma_1d(model, N, kind="atomistic", K=None, lanczos=False, **kw):
    ch = Chain1D(N)
    blend = build_blend_1d(ch, K) if K is not None else None
    op = Op1D(kind=kind, chain=ch, model=model, blend=blend)
    if lanczos:
        return _lanczos(assemble(op), gram_D(ch), **kw)
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
    op = Op2D(kind="bqcf", lattice=lat16, model=MODEL2D, blend=bl)
    assert check_assembly(op, assemble(op)) <= 1e-11


def test_sym_matrix_is_exactly_symmetric():
    # sym(A) is computed, never declared: the Morse Cauchy-Born matrix sums
    # its duplicate triplets in another order on each side of the diagonal,
    # so it differs from its transpose by rounding, but its sym(A) does not
    ch = Chain1D(16)
    bl = build_blend_1d(ch, 6)
    model = PairModel1D(phiF=1.0, phi2F=-0.24)
    sops = [assemble(Op1D(kind=kind, chain=ch, model=model,
                          blend=bl if kind in ops1d._BLENDED else None))
            for kind in ops1d._KINDS]
    lat = TriLattice2D(4)
    bl2 = _blend_2d_sharp(lat, 1, 2)
    for model2 in (MODEL2D, unstable_toy_model(2.04, 1.0)):
        sops += [assemble(Op2D(kind=kind, lattice=lat, model=model2,
                               blend=bl2 if kind in ops2d._BLENDED else None))
                 for kind in ops2d._KINDS]
        sops.append(assemble_ltilde(lat, model2, bl2))
    for sop in sops:
        S = sop.sym_matrix
        assert (S != S.T).nnz == 0


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
    ones = Blend2D(lattice=lat, beta=np.ones((n, n)), Ra=0, Rb=1)
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


@pytest.mark.parametrize("N", [4, 8])
def test_gram_2d_components_decouple(N):
    # poincare_discrete solves on one component: no entry couples the two,
    # and each component carries the same scalar form
    M = gram_D(TriLattice2D(N)).matrix
    assert M[0::2, 1::2].nnz == 0
    assert (M[0::2, 0::2] != M[1::2, 1::2]).nnz == 0


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
        shape=(n, n)))
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
    # criterion 4's largest size, dim 4096; both paths report the Rayleigh
    # quotient of their own minimizer
    model = PairModel1D(phiF=1.0, phi2F=-0.24)
    dense = _gamma_1d(model, 2048, kind="bqcf", K=25, method="dense")
    iterative = _gamma_1d(model, 2048, kind="bqcf", K=25, method="iterative")
    assert iterative.method == "iterative"
    assert iterative.gamma == pytest.approx(dense.gamma, rel=1e-9)
    assert iterative.factorizations >= 1 and iterative.nnz > 0
    assert iterative.shift < iterative.gamma


def _shifted_forms(domain):
    """An energy-based operator, a force-based operator and a mask form,
    assembled on domain."""
    if isinstance(domain, Chain1D):
        model = PairModel1D(phiF=1.0, phi2F=-0.24)
        energy = Op1D(kind="atomistic", chain=domain, model=model)
        force = Op1D(kind="bqcf", chain=domain, model=model,
                     blend=build_blend_1d(domain, 12))
        sites = np.flatnonzero(np.arange(domain.nsites) < domain.nsites // 4)
        idx, weight = sites, domain.eps
    else:
        model = unstable_toy_model(2.04, 1.0)
        energy = Op2D(kind="atomistic", lattice=domain, model=MODEL2D)
        Ra = domain.N // 8
        force = Op2D(kind="bqcf", lattice=domain, model=model,
                     blend=_blend_2d_sharp(domain, Ra, Ra + domain.N // 8))
        # the Poincare ratio's mask on the annulus, on both components
        sites = np.flatnonzero(make_regions(domain, Ra, domain.N // 4).mask(1).ravel())
        idx, weight = np.concatenate([2 * sites, 2 * sites + 1]), domain.eps ** 2
    dim = assemble(energy).dim
    mask = SparseOp(scipy.sparse.csr_matrix((np.full(idx.size, -weight), (idx, idx)),
                                            shape=(dim, dim)))
    return assemble(energy), assemble(force), mask


@pytest.mark.parametrize("domain", [Chain1D(300), Chain1D(2048),
                                    TriLattice2D(16), TriLattice2D(64)],
                         ids=["1d-300", "1d-2048", "2d-16", "2d-64"])
def test_shifted_solve_is_exact(domain, rng):
    # pinned LDL^T plus the Woodbury capacitance solves (sym A - sigma G) y = b
    # on the zero-mean space, for an energy-based and a force-based operator
    # and the Poincare mask, each as one block
    G = _unsplit(gram_D(domain))
    k = G.kernel
    m = k.shape[1]
    sigma = -0.25
    for sop in _shifted_forms(domain):
        Asym = sop.sym_matrix
        M = Asym - sigma * G.matrix
        b = rng.standard_normal(G.dim)
        b -= k @ (k.T @ b)
        shift = _Shift(_Pinned(Asym, G), None, sigma)
        y = _lift(k, shift.solve(b[m:]))
        r = M @ y - b
        assert np.linalg.norm(r - k @ (k.T @ r)) <= 1e-10 * np.linalg.norm(b)
        assert np.abs(k.T @ y).max() <= 1e-12 * np.linalg.norm(y)


def test_iterative_nonconvergence_raises(monkeypatch):
    # a tolerance of 1e-17 is below the residual's rounding floor: the solve
    # runs its _MAXITER steps on a bounded, restarting basis and reports
    # where it stopped
    model = PairModel1D(phiF=1.0, phi2F=-0.24)
    for N, tol, maxiter in ((64, 1e-8, 1), (256, 1e-17, 400)):
        monkeypatch.setattr(spectral, "_RTOL", tol)
        monkeypatch.setattr(spectral, "_MAXITER", maxiter)
        with pytest.raises(RuntimeError, match=rf"did not converge in {maxiter} steps "
                                               r"\(relative residual \d\.\d{3}e[-+]\d+"):
            _gamma_1d(model, N, kind="bqcf", K=12, method="iterative")


def test_iterative_path_converges_on_a_tight_cluster():
    # the phi2F = -phiF chain: gamma = -3 at the bottom of a cluster with
    # gaps near 1e-6, far below the first certified shift; the solve
    # re-shifts next to gamma and stays below it (eigsh's passes ran out of
    # their 5000 solves at this seed)
    N, phi2F = 1024, -1.0
    rep = _gamma_1d(PairModel1D(phiF=1.0, phi2F=phi2F), N, lanczos=True, seed=1)
    exact = 1.0 + 2.0 * phi2F * (1.0 + np.cos(np.pi / N))
    assert rep.gamma == pytest.approx(exact, rel=1e-9)
    assert rep.shift < rep.gamma
    assert rep.factorizations >= 2


def test_refused_shifts_are_freed_before_the_next_factorization(monkeypatch):
    # the phi2F = -1 cluster refuses shifts and re-shifts: no factor may
    # outlive its turn, or the solve holds two factors at once
    alive = []

    class Tracked(_Shift):
        def __init__(self, *args):
            assert all(ref() is None for ref in alive), "an earlier _Shift is alive"
            super().__init__(*args)
            alive.append(weakref.ref(self))

    monkeypatch.setattr(spectral, "_Shift", Tracked)
    rep = _gamma_1d(PairModel1D(phiF=1.0, phi2F=-1.0), 1024, lanczos=True, seed=1)
    assert len(alive) == rep.factorizations == 8


def _certified_shift(A, G, rep):
    # the final shift is certified: a trusted inertia count of zero
    sign = is_coercive(A, G, rep.shift)
    assert sign.coercive and sign.method == "inertia"


def test_iterative_solve_counts_1d_cluster():
    # shifted solves at a fixed seed; eigsh with 20-vector passes took 672
    model = PairModel1D(phiF=1.0, phi2F=-0.24)
    ch = Chain1D(1024)
    A, G = assemble(Op1D(kind="atomistic", chain=ch, model=model)), gram_D(ch)
    rep = _lanczos(A, G, seed=1)
    assert rep.method == "iterative" and rep.iterations <= 168
    assert rep.gamma == pytest.approx(1.0 - 0.48 * (1.0 + np.cos(np.pi / 1024)), rel=1e-9)
    _certified_shift(A, G, rep)


def test_iterative_solve_counts_poincare(monkeypatch):
    # Lanczos steps of the Poincare ratio's Green's function at N = 32 (the
    # shift-invert pencil took 12 shifted solves, eigsh 21), and its
    # certificate: the lifted vector's residual on the sparse pencil, whose
    # Rayleigh quotient is the ratio, the shift-invert solve's to 1e-12
    runs, checks = [], []
    rayleigh = spectral._rayleigh_residual

    class Recording(spectral._Lanczos):
        def __init__(self, *args, **kw):
            super().__init__(*args, **kw)
            runs.append(self)

    monkeypatch.setattr(spectral, "_Lanczos", Recording)
    monkeypatch.setattr(spectral, "_rayleigh_residual",
                        lambda A, G, x: checks.append(rayleigh(A, G, x)) or checks[-1])
    lat = TriLattice2D(32)
    regions = make_regions(lat, 4, 8)
    ratio = ops2d.poincare_discrete(lat, regions, seed=1)
    (run,), ((rho, res),) = runs, checks
    assert run.steps <= 10 and res <= spectral._RTOL
    assert ratio == -rho
    monkeypatch.undo()
    M, G = _poincare_pencil(lat, regions)
    assert ratio == pytest.approx(-coercivity(M, G, seed=1).gamma, rel=1e-12)


@pytest.mark.parametrize("N", [8, 16])
def test_poincare_matches_the_two_component_pencil(N):
    # the supremum over vector fields is the scalar one: the dense maximum of
    # the mask on both coordinates against the two-component Gram form
    lat = TriLattice2D(N)
    regions = make_regions(lat, N // 8, N // 4)
    sites = np.flatnonzero(regions.mask(1).ravel())
    idx = np.concatenate([2 * sites, 2 * sites + 1])
    G = gram_D(lat)
    M = SparseOp(scipy.sparse.csr_matrix((np.full(idx.size, -lat.eps**2), (idx, idx)),
                                         shape=(G.dim, G.dim)))
    want = -coercivity(M, G, method="dense").gamma
    assert ops2d.poincare_discrete(lat, regions) == pytest.approx(want, rel=1e-10)


def test_thick_restart_keeps_converging(monkeypatch):
    # a basis of 8 vectors restarts every few steps and still reaches the
    # dense gamma, with the same stopping test; in 2D the restart runs in
    # the coordinates of the even and odd blocks of the inversion
    monkeypatch.setattr(spectral, "_BASIS", 8)
    monkeypatch.setattr(spectral, "_KEEP", 3)
    model = PairModel1D(phiF=1.0, phi2F=-0.24)
    dense = _gamma_1d(model, 256, kind="bqcf", K=14, method="dense")
    rep = _gamma_1d(model, 256, kind="bqcf", K=14, method="iterative")
    assert rep.iterations > 8 and rep.residual <= 1e-8
    assert rep.gamma == pytest.approx(dense.gamma, rel=1e-9)
    lat = TriLattice2D(12)
    A, G = assemble(Op2D(kind="atomistic", lattice=lat, model=MODEL2D)), gram_D(lat)
    assert len(_Pinned(A.matrix, G).blocks) == 2
    rep = _lanczos(A, G)
    assert rep.iterations > 8 and rep.residual <= 1e-8
    assert rep.gamma == pytest.approx(coercivity(A, G, method="dense").gamma, rel=1e-9)


def test_iterative_path_rejects_a_non_finite_pencil():
    ch = Chain1D(64)
    A = assemble(Op1D(kind="atomistic", chain=ch, model=PairModel1D(phiF=1.0, phi2F=-0.24)))
    A.matrix.data[0] = np.nan
    with pytest.raises(RuntimeError, match="not finite"):
        coercivity(A, gram_D(ch), method="iterative")


def test_coercivity_validation():
    ch = Chain1D(8)
    model = PairModel1D(phiF=1.0, phi2F=-0.24)
    sop = assemble(Op1D(kind="atomistic", chain=ch, model=model))
    G = gram_D(ch)
    with pytest.raises(ValueError, match="dimension mismatch"):
        coercivity(sop, gram_D(Chain1D(4)))
    with pytest.raises(ValueError, match="kernel basis"):
        coercivity(sop, SparseOp(G.matrix))
    with pytest.raises(ValueError, match="unknown method"):
        coercivity(sop, G, method="magic")
    # a start vector of the wrong shape, or a constant shift with no
    # zero-mean part, is refused by name
    with pytest.raises(ValueError, match="x0 has shape"):
        coercivity(sop, G, x0=np.ones(G.dim - 1))
    with pytest.raises(ValueError, match="x0 has no zero-mean part"):
        coercivity(sop, G, x0=np.full(G.dim, 3.0))


@pytest.mark.parametrize("space, kind, N",
                         [("1d", kind, N) for kind in ("atomistic", "qcl")
                          for N in (1, 2, 3, 4, 7, 8, 64)]
                         + [("2d", kind, N) for kind in ("atomistic", "cauchy_born")
                            for N in (1, 2, 3)])
def test_default_path_is_iterative_at_every_size(space, kind, N):
    # no size rule: method "iterative", the default, answers an unblended
    # kind from its symbol at every size, the smallest tori included, and
    # it agrees with the dense reference
    if space == "1d":
        domain = Chain1D(N)
        op = Op1D(kind=kind, chain=domain, model=PairModel1D(phiF=1.0, phi2F=-0.24))
    else:
        domain = TriLattice2D(N)
        op = Op2D(kind=kind, lattice=domain, model=unstable_toy_model())
    A, G = assemble(op), gram_D(domain)
    rep = coercivity(A, G)
    assert rep.method == "symbol"
    assert (rep.iterations, rep.factorizations, rep.nnz) == (0, 0, 0) and np.isnan(rep.shift)
    assert rep.gamma == pytest.approx(coercivity(A, G, method="dense").gamma, rel=1e-13)


@pytest.mark.parametrize("space", ["1d", "2d"])
def test_blended_kinds_take_the_iterative_path(space):
    # a blend breaks translation invariance: the router refuses the symbol
    if space == "1d":
        ch = Chain1D(32)
        A, G = assemble(Op1D(kind="bqcf", chain=ch, model=PairModel1D(1.0, -0.24),
                             blend=build_blend_1d(ch, 8))), gram_D(ch)
    else:
        lat, ops = _toy_ops(12)
        A, G = assemble(ops[4]), gram_D(lat)
    rep = coercivity(A, G)
    assert rep.method == "iterative" and rep.factorizations >= 1
    assert rep.gamma == pytest.approx(coercivity(A, G, method="dense").gamma, rel=1e-9)


def test_a_broken_translation_takes_the_sparse_path():
    # one entry changed breaks the shift's commutator, on the diagonal
    # (which the router tests first) or off it: the router sends the pencil
    # to the Lanczos, which still agrees with the dense reference
    lat = TriLattice2D(8)
    A, G = assemble(Op2D(kind="atomistic", lattice=lat, model=MODEL2D)), gram_D(lat)
    assert coercivity(A, G).method == "symbol"
    assert A.matrix.indices[0] == 0 != A.matrix.indices[1]
    for entry in (0, 1):
        M = A.matrix.copy()
        M.data[entry] *= 1.0 + 1e-6
        B = SparseOp(M)
        rep = coercivity(B, G)
        assert rep.method == "iterative" and rep.factorizations >= 1
        assert rep.gamma == pytest.approx(coercivity(B, G, method="dense").gamma, rel=1e-9)


def test_a_wrong_gram_column_fails_the_symbol_certificate():
    # one circulant entry of the column the symbol reads, changed with its
    # transpose: the operator still commutes with the shifts, but the Bloch
    # mode is no eigenvector of the sparse pencil, and the call raises
    ch = Chain1D(16)
    A = assemble(Op1D(kind="atomistic", chain=ch, model=PairModel1D(1.0, -0.24)))
    G = gram_D(ch)
    M = G.matrix.tolil()
    M[1, 0] = M[0, 1] = 1.5 * M[1, 0]
    with pytest.raises(RuntimeError, match="fails its certificate"):
        coercivity(A, replace(G, matrix=M.tocsr()))


def test_the_symbol_phase_is_exact_on_a_long_chain():
    # the lowest mode of the 2048-site chain meets _RTOL and the closed
    # form; its phase is reduced mod the period in integers, so an aliased
    # wavenumber lifts to the same field bitwise, where a phase formed in
    # floats from k.x near 4e9 drifts by about 1e-9
    model = PairModel1D(1.0, -0.24)
    rep = _gamma_1d(model, 1024)
    assert rep.method == "symbol" and rep.residual <= spectral._RTOL
    exact = model.phiF + 2.0 * model.phi2F * (1.0 + np.cos(np.pi / 1024))
    assert rep.gamma == pytest.approx(exact, rel=1e-9)
    G, v = gram_D(Chain1D(1024)), np.ones(1)
    assert np.array_equal(spectral._bloch_mode(G, (1 + 1000 * 2048,), v),
                          spectral._bloch_mode(G, (1,), v))


@pytest.mark.parametrize("k", [(0, 4), (4, 0), (4, 4)])
def test_a_nyquist_mode_lifts_to_a_real_mode(k):
    # on the Nyquist lines e^{ik.x} is real, so e^{ik.x} v for a real v has
    # a zero imaginary part, and for i v a zero real part: the lift keeps
    # the one that is not zero, an eigenvector of the sparse pencil
    lat = TriLattice2D(4)
    A, G = assemble(Op2D(kind="atomistic", lattice=lat, model=MODEL2D)), gram_D(lat)
    Asym = A.sym_matrix
    ak = spectral._symbol(Asym, G)[k]
    gk = spectral._symbol(G.matrix, G)[k][0, 0].real
    assert np.abs(ak.imag).max() <= 1e-12 * np.abs(ak).max()
    lam, vec = np.linalg.eigh(ak.real)
    for v in (vec[:, 0], 1j * vec[:, 0]):
        x = spectral._bloch_mode(G, k, v)
        assert x.dtype == float and np.linalg.norm(x) == pytest.approx(1.0)
        rho, res = spectral._rayleigh_residual(Asym, G, x)
        assert res <= 1e-12 and rho == pytest.approx(lam[0] / gk, rel=1e-12)


def test_morse_value_solve_factors_the_folded_blocks():
    # the Morse atomistic N = 24 value solve on the sparse path (coercivity
    # answers it from its symbol): split by the inversion, the factors of
    # the even and odd blocks hold 1,112,520 nonzeros at its final shift,
    # against 2,139,132 for the one unsplit block at the same shift
    lat = TriLattice2D(24)
    A, G = assemble(Op2D(kind="atomistic", lattice=lat, model=MODEL2D)), gram_D(lat)
    rep = _lanczos(A, G, seed=7)
    assert len(_Pinned(A.matrix, G).blocks) == 2
    unsplit = _Shift(_Pinned(A.matrix, _unsplit(G)), None, rep.shift)
    assert rep.nnz <= 1_200_000 and unsplit.nnz >= 2_000_000
    small = TriLattice2D(12)
    want = coercivity(assemble(Op2D(kind="atomistic", lattice=small, model=MODEL2D)),
                      gram_D(small), method="dense").gamma
    # the atomistic constant of this model is the same at both sizes
    assert rep.gamma == pytest.approx(want, rel=1e-10)


def test_iterative_solve_reshifts_when_open_after_twenty_solves():
    # the constants workload's 2D Morse cauchy_born pencil at N = 12: a
    # re-shift next to gamma ends the solve in 28 shifted solves, where
    # staying at the first shift took 50
    lat = TriLattice2D(12)
    A, G = assemble(Op2D(kind="cauchy_born", lattice=lat, model=MODEL2D)), gram_D(lat)
    rep = _lanczos(A, G, seed=1)
    assert rep.factorizations >= 2 and rep.iterations <= 30
    _certified_shift(A, G, rep)


# K* of the blended chain at phi2F = -0.24, tol 1e-10 (criterion 4's sizes)
KSTAR_1D = {128: 16, 256: 18, 512: 20, 1024: 22}


@pytest.mark.parametrize("space", ["1d", "2d"])
def test_a_count_one_shift_gives_the_dense_gamma(space):
    # at K*-1 of a sweep size (1D N = 128, 2D toy N = 12) gamma < 0, and the
    # first trial shift, sigma = 0, has gamma alone below it: a trusted
    # count of one, at which the solve stays, reading the bottom Ritz pair
    if space == "1d":
        ch = Chain1D(128)
        op = Op1D(kind="bqcf", chain=ch, model=PairModel1D(1.0, -0.24),
                  blend=build_blend_1d(ch, KSTAR_1D[128] - 1))
        G = gram_D(ch)
    else:
        lat, ops = _toy_ops(12)
        op, G = ops[4], gram_D(lat)                 # K* = 6
    A = assemble(op)
    rep = coercivity(A, G, seed=7)
    assert rep.factorizations == 1 and rep.gamma < 0.0 == rep.shift
    sign = is_coercive(A, G, rep.shift)
    assert sign.negative == 1 and sign.method == "inertia"
    assert rep.gamma == pytest.approx(coercivity(A, G, method="dense").gamma, rel=1e-9)


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
    for N, K, path in ((128, 16, "iterative"), (512, 19, "iterative")):
        ch = Chain1D(N)
        G = gram_D(ch)
        sop = assemble(Op1D(kind="bqcf", chain=ch, model=model,
                            blend=build_blend_1d(ch, K)))
        gamma = coercivity(sop, G).gamma
        rep = is_coercive(sop, G, gamma)
        assert rep.fallback and rep.method == path
        assert rep.min_pivot <= rep.margin
        assert rep.coercive is False               # gamma > gamma is false
        assert is_coercive(sop, G, 1e-10).method == "inertia"


def test_inertia_margin_on_criterion_4_largest_window():
    # every probe of criterion 4's N = 2048 scan clears its rounding bounds
    # by three orders of magnitude
    model = PairModel1D(phiF=1.0, phi2F=-0.24)
    ch = Chain1D(2048)
    G = gram_D(ch)
    for K in range(6, 65):
        sop = assemble(Op1D(kind="bqcf", chain=ch, model=model,
                            blend=build_blend_1d(ch, K)))
        rep = is_coercive(sop, G, 1e-10)
        assert rep.method == "inertia"
        assert rep.min_pivot >= 1e3 * rep.margin, (K, rep)


def _dense_tests(L, D, wu, capacitance, Y, Z=None, fixed=None):
    # _Shift's three tests as its docstring states them, from dense L and D
    # of a factor and R = |L||D||L^T|, w u = wu: pivots against gamma_w
    # max_k R_kk, the eigenvalues of its capacitance, Q11 and Z, against gamma_3w
    # || |Y_j|^T R |Y_j| ||, Y's rows in L's order. Behind a fixed part,
    # with e its rounding bound, the pivots' bound adds e ||gram_dV|| and
    # block j's e || Z_j^T gram Z_j ||, Z_j = [-Y_j[dV]; T_j]
    R = np.abs(L) @ np.diag(np.abs(D)) @ np.abs(L).T
    m = capacitance.shape[-1]
    q = [np.linalg.eigvalsh(B) for B in capacitance]
    tests = [(np.abs(D).min(), wu / (1 - wu) * np.diag(R).max())]
    if fixed is not None:
        gram, nd = fixed.gram, fixed.window.dV.size
        tests[0] = (tests[0][0], tests[0][1] + fixed.rounding * np.linalg.norm(gram[:nd, :nd], 2))
    for j in range(2):
        J = slice(j * m, (j + 1) * m)
        Yj = np.abs(Y[:, J])
        bound = 3 * wu / (1 - 3 * wu) * np.linalg.norm(Yj.T @ R @ Yj, 2)
        if fixed is not None:
            bound += fixed.rounding * np.linalg.norm(Z[:, J].T @ gram @ Z[:, J], 2)
        tests.append((np.abs(q[j]).min(), bound))
    negative = int(np.sum(D < 0) + sum(np.sum(qj < 0) for qj in q)) - m
    return negative, tests


def _rounding_tests(factor, M_pp, fixed=None):
    # _dense_tests of a _Factor, from SuperLU's L and D of M_pp, w the
    # longest row of its L, and the factor's own Y, its rows moved into L's
    # order (Pr M_pp Pc = L U, (Pr y)[perm_r] = y)
    lu = _ldlt(M_pp)
    L, D = lu.L.toarray(), np.diag(lu.U.toarray())
    wu = np.diff(lu.L.tocsr().indptr).max() * 2.0 ** -53
    Y = np.empty_like(factor.Y)
    Y[lu.perm_r] = factor.Y
    Z = None if fixed is None else np.vstack([-factor.Y[fixed.window.dloc], factor.T])
    return _dense_tests(L, D, wu, factor.capacitance, Y, Z, fixed)


def _band_rounding_tests(factor, fixed):
    # _dense_tests of a _BandFactor of one probe, from its own d and |L|
    # (R reads magnitudes only), w the longest row of a lower band of its
    # window's half-width, and its Y, in V's order as the band is
    (d,), (l,) = factor.d, factor.L
    nv, b = d.size, fixed.window.width
    L = np.eye(nv)
    for r in range(1, b + 1):
        L[np.arange(r, nv), np.arange(nv - r)] = l[:nv - r, r - 1]
    offsets = np.subtract.outer(np.arange(nv), np.arange(nv))
    wu = ((offsets >= 0) & (offsets <= b)).sum(axis=1).max() * 2.0 ** -53
    (Y,), (T,), (capacitance,) = factor.Y, factor.T, factor.capacitance
    Z = np.vstack([-Y[fixed.window.dloc], T])
    return _dense_tests(L, d, wu, capacitance, Y, Z, fixed)


def _small_pencils():
    # the union pattern of A, A^T and G is A's and G's (1D qcl), A's alone
    # (1D atomistic, 2D cauchy_born) or neither (2D atomistic, both bqcf);
    # each pencil is one block
    model = PairModel1D(phiF=1.0, phi2F=-0.24)
    for N, K in ((8, 6), (16, 7)):
        ch = Chain1D(N)
        for kind, blend in (("atomistic", None), ("qcl", None),
                            ("bqcf", build_blend_1d(ch, K))):
            yield assemble(Op1D(kind=kind, chain=ch, model=model, blend=blend)), gram_D(ch)
    lat = TriLattice2D(4)
    for kind, blend in (("atomistic", None), ("cauchy_born", None),
                        ("bqcf", _blend_2d_sharp(lat, 1, 3))):
        yield (assemble(Op2D(kind=kind, lattice=lat, model=MODEL2D, blend=blend)),
               _unsplit(gram_D(lat)))


def test_rounding_tests_match_a_dense_evaluation():
    # the inertia and the three rounding tests _Shift reads off the sparse
    # factor's arrays equal their dense evaluation, far from gamma and
    # within 1e-6 of it, where a capacitance eigenvalue nearly vanishes.
    # Two tests can tie in their ratio there, so min_pivot and margin are
    # compared as the closest ratio, and every test is compared in full
    for sop, G in _small_pencils():
        gamma = coercivity(sop, G, method="dense").gamma
        pinned = _Pinned(sop.matrix, G)
        for tau in (1e-10, gamma - 1e-7):
            shift = _Shift(pinned, None, tau)
            factor, = shift.factors
            negative, tests = _rounding_tests(factor,
                                              pinned.blocks[0].block(None, tau)[0])
            assert shift.negative == negative, (sop.dim, tau)
            assert shift.trusted == all(p > b for p, b in tests), (sop.dim, tau)
            assert np.allclose(factor.tests, tests, rtol=1e-13, atol=0.0), (sop.dim, tau)
            assert shift.min_pivot / shift.margin == pytest.approx(
                min(p / b for p, b in tests), rel=1e-13, abs=0.0)
    # the same behind a window's fixed part, on windows of these sizes:
    # F's pivot test, the Schur complement's tests widened by F's rounding
    # bound, and the capacitance's; F's test, neg(D_F), rounding bound and
    # gram against their own dense evaluation. On a chain the same for the
    # band factor (_BandFactor) of each probe: its tests against their
    # dense evaluation from its own d, L, capacitance and Y, behind F's
    # test, and the count the pattern reads from it (_banded)
    composed = banded = 0
    for ops, G in _small_windows():
        pattern = BlendPattern(ops, G)
        (block,) = pattern.pinned.blocks
        for op in ops:
            w = pattern.weight(op)
            gamma = coercivity(pattern.matrix(op), G, method="dense").gamma
            for tau in (1e-10, gamma - 1e-7):
                (part,) = pattern.parts(tau)
                if part is None:
                    continue
                composed += 1
                pivot, negative_f, rounding, gram = _dense_fixed(block, part, w, tau)
                assert part.negative == negative_f
                assert np.allclose(part.pivot, pivot, rtol=1e-13, atol=0.0)
                assert part.rounding == pytest.approx(rounding, rel=1e-13, abs=0.0)
                assert np.allclose(part.gram, gram, rtol=1e-9, atol=1e-12 * np.abs(gram).max())
                shift = _Shift(pattern.pinned, w, tau, pattern.parts(tau))
                factor, = shift.factors
                negative, tests = _rounding_tests(factor, part.block(w, tau)[0], part)
                tests = [pivot] + tests
                assert shift.negative == negative_f + negative, (op.blend.K, tau)
                assert shift.trusted == all(p > b for p, b in tests), (op.blend.K, tau)
                assert np.allclose(factor.tests, tests[1:], rtol=1e-13, atol=0.0), (op.blend.K, tau)
                assert shift.min_pivot / shift.margin == pytest.approx(
                    min(p / b for p, b in tests), rel=1e-13, abs=0.0)
                if pattern.windows[0].place is None:
                    continue
                banded += 1
                (window,) = pattern.windows
                factor = _BandFactor(part, window.refill(w)[None], tau)
                negative, tests = _band_rounding_tests(factor, part)
                tests = [pivot] + tests
                assert factor.ok[0] and factor.negative[0] == negative, (op.blend.K, tau)
                assert np.allclose([(p[0], b[0]) for p, b in factor.tests], tests[1:],
                                   rtol=1e-13, atol=0.0), (op.blend.K, tau)
                (count,) = pattern._banded([op], tau)
                assert count.negative == negative_f + negative, (op.blend.K, tau)
                assert count.trusted == all(p > b for p, b in tests), (op.blend.K, tau)
                assert count.min_pivot / count.margin == pytest.approx(
                    min(p / b for p, b in tests), rel=1e-13, abs=0.0)
                if count.trusted and shift.trusted:
                    assert count.negative == shift.negative, (op.blend.K, tau)
    assert composed >= 20 and banded >= 20
    # and on a lattice's window, split by the inversion: the Schur probes of
    # the block that holds the capacitance, each factored by SuperLU behind
    # its fixed part (toy N = 12, Ra = 4, K = 3, 5, 7)
    lat, toy = _toy_ops(12)
    pattern = BlendPattern(toy, gram_D(lat))
    lattice = 0
    for op in toy[2::2]:
        w = pattern.weight(op)
        for tau in (1e-10, 0.01):
            for block, part in zip(pattern.pinned.blocks, pattern.parts(tau), strict=True):
                if block.kernel is None:
                    continue
                factor = spectral._Factor(block, w, tau, part)
                negative, tests = _rounding_tests(factor, part.block(w, tau)[0], part)
                assert factor.negative == negative, (op.blend.K, tau)
                assert np.allclose(factor.tests, tests, rtol=1e-13, atol=0.0), (op.blend.K, tau)
                lattice += 1
    assert lattice == 6


def _small_windows():
    # scan windows at _small_pencils' sizes, each one block: 1D N = 16 and
    # 24, K = 6..N-1, and the 2D Morse blend on N = 4 at Ra = 1, K = 1, 2
    model = PairModel1D(phiF=1.0, phi2F=-0.24)
    for N in (16, 24):
        ch = Chain1D(N)
        yield ([Op1D(kind="bqcf", chain=ch, model=model, blend=build_blend_1d(ch, K))
                for K in range(6, N)], gram_D(ch))
    lat = TriLattice2D(4)
    yield ([Op2D(kind="bqcf", lattice=lat, model=MODEL2D, blend=_blend_2d_sharp(lat, 1, 1 + K))
            for K in (1, 2)], _unsplit(gram_D(lat)))


def _dense_fixed(block, part, w, tau):
    # F's pivot test, neg(D_F), rounding bound gamma_3w max_i (R_F 1)_i and
    # gram = Y^T Y, Y = M_FF^-1 [M_F,dV, U_F], from the whole block at w
    # (equal to the window's first weight wherever F reads it), dense
    M_pp, U, _ = block.block(w, tau)
    F, dV = part.window.F - block.m, part.window.dV - block.m
    M = M_pp.toarray()
    lu = _ldlt(M_pp[F][:, F])
    L, D = lu.L.toarray(), np.diag(lu.U.toarray())
    R = np.abs(L) @ np.diag(np.abs(D)) @ np.abs(L).T
    wu = np.diff(lu.L.tocsr().indptr).max() * 2.0 ** -53
    Y = np.linalg.solve(M[np.ix_(F, F)], np.hstack([M[np.ix_(F, dV)],
                                                   np.zeros((F.size, 0)) if U is None else U[F]]))
    return ((np.abs(D).min(), wu / (1 - wu) * np.diag(R).max()), int(np.sum(D < 0)),
            3 * wu / (1 - 3 * wu) * R.sum(axis=1).max(), Y.T @ Y)


def _counting(cls, made):
    # a subclass that logs each construction, so isinstance checks still hold
    def __init__(self, *args, **kwargs):
        made.append(cls.__name__)
        cls.__init__(self, *args, **kwargs)
    return type(cls.__name__, (cls,), {"__init__": __init__})


def test_a_sign_probe_builds_only_the_block_it_factors(monkeypatch):
    # a trusted probe constructs no sparse matrix in spectral but the block
    # it factors behind its window's fixed part: none on a chain, whose
    # window's Schur complements are staged in one dense band
    # (_BandFactor), and on a lattice one csc_matrix per block, handed to
    # splu. Neither builds the Woodbury operator a solve needs
    ch = Chain1D(128)
    G = gram_D(ch)
    ops = [Op1D(kind="bqcf", chain=ch, model=PairModel1D(1.0, -0.24),
                blend=build_blend_1d(ch, K)) for K in (12, 20, 28)]
    op = ops[1]
    pattern = BlendPattern(ops, G)
    lat, toy = _toy_ops(12)
    lattice = BlendPattern(toy, gram_D(lat))
    # factored before the probes
    assert pattern.fixed(1e-10) > 0 and lattice.fixed(1e-10) > 0
    made = []
    for name in dir(spectral.sp):
        cls = getattr(spectral.sp, name)
        if name.endswith(("_matrix", "_array")) and isinstance(cls, type):
            monkeypatch.setattr(spectral.sp, name, _counting(cls, made))
    assert pattern.is_coercive(op, 1e-10).method == "inertia"
    assert made == []
    assert lattice.is_coercive(toy[3], 1e-10).method == "inertia"
    assert made == ["csc_matrix"] * 2
    monkeypatch.undo()
    shift = _Shift(pattern.pinned, pattern.weight(op), 1e-10)
    factor, = shift.factors
    assert shift.trusted and "Cinv" not in vars(factor)
    shift.solve(np.ones(G.dim - 1))
    assert "Cinv" in vars(factor)


def _explicit_bases(perm, kernel):
    # each block of the involution x -> x[perm], written out: the projector
    # P = (I + chi S) / 2 of each sign chi, as a sparse matrix, with S x =
    # x[perm]; its columns at the smaller coordinate of each pair, where
    # nonzero and normalized, are the block's basis B, the fixed
    # coordinates first. With perm None, the one block B = I. A block holds
    # the constant shifts k that it keeps as B^T k, whose first m
    # coordinates are the pinned ones. Returns (B, B^T k or None) per block
    n = kernel.shape[0]
    ident = scipy.sparse.identity(n, format="csr")
    if perm is None:
        return [(ident.tocsc(), kernel)]
    S = scipy.sparse.csr_matrix((np.ones(n), (np.arange(n), perm)), shape=(n, n))
    reps = np.flatnonzero(np.minimum(perm, np.arange(n)) == np.arange(n))
    reps = reps[np.lexsort((reps, perm[reps] != reps))]
    out = []
    for chi in (1.0, -1.0):
        cols = ((ident + chi * S) / 2).tocsc()[:, reps]
        cols.eliminate_zeros()
        held = np.flatnonzero(np.diff(cols.indptr))
        if held.size == 0:
            continue
        B = cols[:, held]
        B = B @ scipy.sparse.diags(1.0 / np.sqrt(B.power(2).sum(axis=0)).A1)
        kb = B.T @ kernel
        kb = kb[:, np.abs(kb).max(axis=0) > 0.5 / np.sqrt(n)]
        out.append((B.tocsc(), kb if kb.shape[1] else None))
    return out


def _summed_blocks(Asym, G, tau, perm=None):
    # sym(A) - tau G summed from triplets, then written in each block's
    # basis (_explicit_bases) as the sparse product B^T (sym A - tau G) B,
    # its m pinned rows and columns sliced off. G's pattern is kept at any
    # tau, exact zeros of sym(A) are not stored
    a, g = Asym.tocoo(), G.matrix.tocoo()
    M = scipy.sparse.csc_matrix(
        (np.concatenate([a.data, -tau * g.data]),
         (np.concatenate([a.row, g.row]), np.concatenate([a.col, g.col]))),
        shape=a.shape)
    blocks = []
    for B, kb in _explicit_bases(perm, G.kernel):
        m = 0 if kb is None else kb.shape[1]
        if kb is not None:
            # the pinned coordinates lead the block
            assert [np.flatnonzero(k)[0] for k in kb.T] == list(range(m))
        b = (B.T @ M @ B).tocsc()[m:, m:]
        b.sort_indices()
        blocks.append(b)
    return blocks


def _dense_band(window, values):
    # the probes' matrices of a window's stage (_Window.stage), placed in a
    # band as _BandFactor places them, then dense and probes first: row i
    # of the band holds S[i, i + o] at width + o
    b, n = window.width, window.V.size
    S = np.zeros(((n + b) * (2 * b + 1), values.shape[0]))
    S[window.place] = values.T
    S = S.reshape(n + b, 2 * b + 1, values.shape[0])
    out = np.zeros((S.shape[2], n, n))
    for o in range(-b, b + 1):
        i = np.arange(max(0, -o), min(n, n - o))
        out[:, i, i + o] = S[i, b + o].T
    return out


@pytest.mark.parametrize("space, N", [("1d", 128), ("1d", 256), ("2d", 12), ("2d", 16)])
def test_refilled_block_matches_the_assembled_one(space, N):
    # a scan's probes refill one pattern per size, behind the fixed part of
    # its window: each probe's block must be the dense Schur complement on
    # the moving coordinates V of the assembled operator's pinned block
    # (_summed_blocks), within 1e-13 of its largest entry (2e-15 measured),
    # zero off its pattern, and F's and the Schur complement's negative
    # pivots must add up to the assembled block's; the probes give the same
    # inertia verdicts. On a chain the block is the window's band, staged
    # for every probe at once and placed as _BandFactor places it, and its
    # negative pivots are the band factor's; a 2D pattern splits into the
    # even and odd blocks of its inversion, each block the sparse one
    # SuperLU factors
    tau = 1e-10
    if space == "1d":
        ch = Chain1D(N)
        G = gram_D(ch)
        model = PairModel1D(1.0, -0.24)
        ops = [Op1D(kind="bqcf", chain=ch, model=model, blend=build_blend_1d(ch, K))
               for K in range(6, 65)]
    else:
        lat = TriLattice2D(N)
        G = gram_D(lat)
        model = unstable_toy_model(2.04, 1.0)
        ops = [Op2D(kind="bqcf", lattice=lat, model=model,
                    blend=_blend_2d_sharp(lat, 4, 4 + K)) for K in range(1, min(13, N - 3))]
    pattern = BlendPattern(ops, G)
    parts = pattern.parts(tau)
    assert all(part is not None for part in parts)
    assert all((window.place is not None) == (space == "1d") for window in pattern.windows)
    banded = [None if window.place is None else
              (_dense_band(window, window.stage(part, x, tau)[0]),
               _BandFactor(part, x, tau))
              for window, part in zip(pattern.windows, parts)
              for x in [np.stack([window.refill(pattern.weight(op)) for op in ops])]]
    reports = pattern.is_coercive(ops, tau)
    verdicts = set()
    for i, (op, rep) in enumerate(zip(ops, reports)):
        A = assemble(op)
        # the toy model commutes with the inversion; 1D's form names none
        refs = _summed_blocks(A.sym_matrix, G, tau, G.mirror)
        assert len(pattern.pinned.blocks) == len(refs) == (2 if space == "2d" else 1)
        for block, part, ref, staged in zip(pattern.pinned.blocks, parts, refs, banded):
            V, F = part.window.V - block.m, part.window.F - block.m
            M = ref.toarray()
            schur = M[np.ix_(V, V)] - M[np.ix_(V, F)] @ np.linalg.solve(M[np.ix_(F, F)],
                                                                        M[np.ix_(F, V)])
            if staged is None:
                got, _, _ = part.block(pattern.weight(op), tau)
                got = got.toarray()
                lu_s = _ldlt(scipy.sparse.csc_matrix(got))
                negative_s = np.sum(lu_s.U.diagonal() < 0)
            else:
                dense, factor = staged
                got = dense[i]
                assert factor.ok[i]
                negative_s = np.sum(factor.d[i] < 0)
            assert np.abs(got - schur).max() <= 1e-13 * np.abs(schur).max(), op.blend.K
            off = got == 0.0
            assert np.array_equal(schur[off], np.zeros(off.sum())), op.blend.K
            lu_f, lu_ref = _ldlt(ref[F][:, F]), _ldlt(ref)
            assert np.sum(lu_f.U.diagonal() < 0) + negative_s == np.sum(lu_ref.U.diagonal() < 0)
        want = is_coercive(A, G, tau)
        assert (rep.negative, rep.coercive, rep.fallback) == \
            (want.negative, want.coercive, want.fallback), op.blend.K
        verdicts.add(rep.coercive)
    assert verdicts == {False, True}                # the window holds a sign change


def _toy_ops(N):
    # the threshold-2d scan's operators: toy model, Ra = 4, K = 1..8
    lat = TriLattice2D(N)
    return lat, [Op2D(kind="bqcf", lattice=lat, model=unstable_toy_model(2.04, 1.0),
                      blend=_blend_2d_sharp(lat, 4, 4 + K)) for K in range(1, 9)]


@pytest.mark.parametrize("N", [12, 16])
def test_split_probes_count_as_the_whole_pencil(N):
    # the counts of the even and odd blocks add up to the count of the same
    # pencil as one block, probe by probe
    lat, ops = _toy_ops(N)
    G = gram_D(lat)
    pattern = BlendPattern(ops, G)
    assert len(pattern.pinned.blocks) == 2
    for op in ops:
        split = pattern.is_coercive(op, 1e-10)
        whole = is_coercive(assemble(op), _unsplit(G), 1e-10)
        assert (split.negative, split.coercive, split.fallback) == \
            (whole.negative, whole.coercive, whole.fallback), op.blend.K


def _shifted_inversion(lat):
    # inversion through the midpoint of an a1 bond: an involution of the
    # lattice, one site off the blend's centre, as a mirror
    n = 2 * lat.N
    p = (n - 2 - np.arange(n)) % n
    sites = ((p + 1) % n)[:, None] * n + p
    return (2 * sites.ravel()[:, None] + np.arange(2)).ravel()


def test_a_candidate_that_does_not_commute_is_unused(monkeypatch):
    # a Gram form naming the inversion through an a1 bond's midpoint: the
    # blended operator, one site off it, does not commute, so its pencil
    # is one block with the unsplit pencil's counts and gamma
    lat, ops = _toy_ops(12)
    G = gram_D(lat)
    A = assemble(ops[3])
    perm = _shifted_inversion(lat)
    assert np.array_equal(perm[perm], np.arange(G.dim))
    Gs = SparseOp(G.matrix, ncomp=2, mirror=perm)
    assert len(_Pinned(A.matrix, Gs).blocks) == 1
    for tau in (1e-10, 1.0):
        split, whole = is_coercive(A, Gs, tau), is_coercive(A, _unsplit(G), tau)
        assert (split.negative, split.min_pivot) == (whole.negative, whole.min_pivot)
    assert coercivity(A, Gs).gamma == coercivity(A, _unsplit(G)).gamma
    # an unblended operator commutes with it, as with every lattice inversion
    atomistic = assemble(Op2D(kind="atomistic", lattice=lat, model=MODEL2D))
    assert len(_Pinned(atomistic.matrix, Gs).blocks) == 2
    assert is_coercive(atomistic, Gs, 1e-10).coercive
    with pytest.raises(ValueError, match="not an involution"):
        is_coercive(A, SparseOp(G.matrix, ncomp=2, mirror=np.roll(np.arange(G.dim), 2)), 1e-10)
    # an involution that swaps a site's two components breaks no Gram
    # form's commutator, and is refused by name
    with pytest.raises(ValueError, match="keep each site's components"):
        is_coercive(A, SparseOp(G.matrix, ncomp=2, mirror=np.arange(G.dim) ^ 1), 1e-10)
    # a pattern's probes fold A_0 + diag(beta) (A_1 - A_0): with a stencil
    # at beta = 1 that breaks the inversion, its pattern kept, the pattern
    # is one block, although the one at beta = 0 commutes
    stencil = spectral._stencil

    def broken(op):
        A = stencil(op)
        if op.blend is not None and (op.blend.beta == 1.0).all():
            A.data[0] += 1e-6 * np.abs(A.data).max()
        return A

    monkeypatch.setattr(spectral, "_stencil", broken)
    pattern = BlendPattern(ops[3], G)
    assert len(pattern.pinned.blocks) == 1
    split = pattern.is_coercive(ops[3], 1.0)
    whole = is_coercive(pattern.matrix(ops[3]), _unsplit(G), 1.0)
    assert (split.negative, split.min_pivot) == (whole.negative, whole.min_pivot)


def test_a_gram_form_must_commute_with_its_mirror():
    # the Gram form's mirror is checked against it once, on the first read
    # of its defect, which only _Pinned makes: swapping two sites maps no
    # nearest-neighbor pattern onto itself, and raises. Only a Gram form's
    # mirror is read, so an operator that carries one is refused
    lat = TriLattice2D(4)
    G = gram_D(lat)
    A = assemble(Op2D(kind="atomistic", lattice=lat, model=MODEL2D))
    perm = np.arange(G.dim)
    perm[[2, 3, 10, 11]] = [10, 11, 2, 3]
    with pytest.raises(ValueError, match="the Gram form does not commute with its mirror"):
        SparseOp(G.matrix, ncomp=2, mirror=perm).defect
    with pytest.raises(ValueError, match="mirror"):
        SparseOp(A.matrix, mirror=G.mirror)


def test_a_pencil_that_commutes_only_to_rounding_is_one_block():
    # the toy blend at N = 12, Ra = 4, K = 8 with the cosine profile reaches
    # the torus edge (Rb = N): its commutator with the inversion is rounding
    # (8.9e-16), not zero, so the pencil is not split, and its count at
    # each shift is the dense inertia of the whole pinned pencil
    lat = TriLattice2D(12)
    G = gram_D(lat)
    A = assemble(Op2D(kind="bqcf", lattice=lat, model=unstable_toy_model(2.04, 1.0),
                      blend=_blend_2d_sharp(lat, 4, 12, "cosine")))
    perm = G.mirror
    defect = np.abs(A.matrix[perm][:, perm] - A.matrix).max()
    assert 0.0 < defect <= 1e-15 * np.abs(A.matrix).max()
    assert len(_Pinned(A.matrix, G).blocks) == 1
    ((Ad, Gd),) = _dense_pinned(A.sym_matrix, _unsplit(G))
    for tau in (1e-10, 0.5):
        rep = is_coercive(A, G, tau)
        assert rep.method == "inertia"
        assert rep.negative == np.sum(np.linalg.eigvalsh(Ad - tau * Gd) < 0), tau


@pytest.mark.parametrize("space", ["1d", "ltilde"])
def test_the_trivial_group_block_is_the_pinned_pencil_bitwise(space):
    # one block, B = I: at every sigma the block is (sym A - sigma G)[m:, m:]
    # to the last bit on its stored pattern, nothing is dropped, and lift is
    # the unsplit pinning's, so answers on one block cannot drift
    if space == "1d":
        ch = Chain1D(256)
        G = gram_D(ch)
        A = assemble(Op1D(kind="bqcf", chain=ch, model=PairModel1D(1.0, -0.24),
                          blend=build_blend_1d(ch, 18)))
    else:
        lat = TriLattice2D(12)
        G = gram_D(lat)
        A = assemble_ltilde(lat, unstable_toy_model(2.04, 1.0), _blend_2d_sharp(lat, 4, 8))
    pinned = _Pinned(A.matrix, G)
    m = G.ncomp
    assert len(pinned.blocks) == 1 and pinned.perm is None
    for sigma in (0.0, 1e-10, -0.25, 7.5):
        got, _, _ = pinned.blocks[0].block(None, sigma)
        want = (A.sym_matrix - sigma * G.matrix)[m:, m:]
        assert np.array_equal(got.toarray(), want.toarray()), sigma
    z = np.random.default_rng(3).standard_normal(G.dim - m)
    assert np.array_equal(pinned.lift(z), _lift(G.kernel, z))


def _identity_products(A, G, slope=None):
    # the one block B = I of _Pinned as the sparse products B^T M B it
    # would form for any basis, with B the sparse identity
    I = scipy.sparse.identity(G.dim, format="csr")
    X = A + 1j * (G.matrix if slope is None else slope)
    P = I.T.tocsr() @ X @ I
    if slope is None:
        P = P + P.T
        values = [0.5 * P.data.imag, 0.5 * P.data.real]
    else:
        parts = [I.T.tocsr() @ G.matrix @ I, P, P.T.tocsr()]
        P = abs(parts[0]) + abs(parts[1]) + abs(parts[2])
        at = np.repeat(np.arange(P.shape[0]), np.diff(P.indptr)), P.indices
        g, x, xt = (np.asarray(M[at]).ravel() for M in parts)
        values = [g, x.real, xt.real, x.imag, xt.imag]
    return spectral._Block(P, values, G.kernel, np.arange(G.dim))


@pytest.mark.parametrize("space", ["1d", "ltilde", "pattern"])
def test_an_unsplit_block_is_its_identity_products_bitwise(space):
    # one block, B = I: _Pinned takes the matrices themselves, and every
    # array of the block is bitwise the one the products I^T M I give, for
    # an operator and for a pattern's A_0 and slope; no basis is kept
    if space == "ltilde":
        lat = TriLattice2D(12)
        G = gram_D(lat)
        A = assemble_ltilde(lat, unstable_toy_model(2.04, 1.0), _blend_2d_sharp(lat, 4, 8))
        pinned, ref = _Pinned(A.matrix, G), _identity_products(A.matrix, G)
    else:
        ch = Chain1D(256)
        G = gram_D(ch)
        ops = [Op1D(kind="bqcf", chain=ch, model=PairModel1D(1.0, -0.24),
                    blend=build_blend_1d(ch, K)) for K in (6, 18, 30)]
        if space == "1d":
            A = assemble(ops[1])
            pinned, ref = _Pinned(A.matrix, G), _identity_products(A.matrix, G)
        else:
            pattern = BlendPattern(ops, G)
            A0, S = (scipy.sparse.csr_matrix((v, pattern.indices, pattern.indptr),
                                             shape=(G.dim,) * 2)
                     for v in (pattern.a0, pattern.slope))
            pinned, ref = pattern.pinned, _identity_products(A0, G, S)
    (block,) = pinned.blocks
    assert pinned.B is None
    for name in ("row", "col", "g", "inner", "cols", "indptr", "k_at", "ratio"):
        got, want = getattr(block, name), getattr(ref, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    assert all(x.tobytes() == y.tobytes() for x, y in zip(block.a, ref.a))


def test_an_asymmetric_blend_declares_no_mirror():
    # a hand-built blend moved one site off the origin: no symmetry, one
    # block, and the iterative path agrees with the dense one. The toy
    # model's own blend keeps the inversion
    lat, ops = _toy_ops(12)
    G = gram_D(lat)
    blend = ops[4].blend
    moved = Blend2D(lattice=lat, beta=np.roll(blend.beta, 1, axis=0), Ra=blend.Ra, Rb=blend.Rb)
    op = Op2D(kind="bqcf", lattice=lat, model=ops[4].model, blend=moved)
    A = assemble(op)
    assert len(_Pinned(A.matrix, G).blocks) == 1
    assert len(_Pinned(assemble(ops[4]).matrix, G).blocks) == 2
    assert len(BlendPattern(op, G).pinned.blocks) == 1
    rep = coercivity(A, G)
    assert rep.gamma == pytest.approx(coercivity(A, G, method="dense").gamma, rel=1e-9)
    # a pattern split by its inversion refuses a blend that breaks it
    with pytest.raises(ValueError, match="do not commute with the Gram form's mirror"):
        BlendPattern(ops[4], G).is_coercive(op, 1e-10)


def test_an_odd_extremal_mode_is_found_from_an_even_start():
    # a mask on two sites that the inversion swaps: its extremal mode is
    # odd, and an even x0 leaves the odd block zero; the seed's draw mixed
    # into the start reaches it, and the value solve reaches the dense gamma
    lat = TriLattice2D(8)
    dim = (2 * lat.N) ** 2
    inverse = lat.inversion()
    sites = np.array([3, inverse[3]])
    M = SparseOp(scipy.sparse.csr_matrix((np.full(2, -1.0), (sites, sites)), shape=(dim, dim)))
    G = SparseOp(gram_D(lat).matrix[0::2, 0::2], ncomp=1, mirror=inverse)
    dense = coercivity(M, G, method="dense")
    x = dense.minimizer
    assert np.linalg.norm(x + x[inverse]) <= 1e-12 * np.linalg.norm(x)      # odd
    x0 = np.zeros(dim)
    x0[sites] = 1.0
    rep = coercivity(M, G, x0=x0)
    assert rep.gamma == pytest.approx(dense.gamma, rel=1e-10)


def test_a_start_inside_one_symmetry_class_reaches_gamma():
    # an unsplit pencil from a start that the inversion maps to itself: the
    # Lanczos reaches only the even eigenvectors, and at a count-zero shift
    # the residual test passes a higher eigenvalue's Ritz pair (1.786e-2
    # against gamma = 1.215e-2 here) unless the seed's draw is mixed in
    lat = TriLattice2D(12)
    op = Op2D(kind="bqcf", lattice=lat, model=unstable_toy_model(2.04, 1.0),
              blend=_blend_2d_sharp(lat, 4, 11))
    A, G = assemble(op), _unsplit(gram_D(lat))
    v = np.random.default_rng(0).standard_normal(G.dim)
    rep = coercivity(A, G, x0=v + v[lat.inversion(2)])
    assert rep.method == "iterative"
    assert rep.gamma == pytest.approx(coercivity(A, G, method="dense").gamma, rel=1e-9)


def _morse_forms(lat):
    # Morse atomistic, cauchy_born and radially blended bqcf, the Poincare
    # mask on both components and the toy model's blend, with the blocks
    # each splits into by the inversion that gram_D names: Cauchy-Born and
    # the Morse blend commute with it only to rounding, so stay whole
    ops = [Op2D(kind=kind, lattice=lat, model=MODEL2D) for kind in ("atomistic", "cauchy_born")]
    ops.append(Op2D(kind="bqcf", lattice=lat, model=MODEL2D,
                    blend=_blend_2d_sharp(lat, lat.N // 8, lat.N // 4)))
    forms = [assemble(op) for op in ops]
    return zip(forms + list(_shifted_forms(lat)[:0:-1]), (2, 1, 1, 2, 2))


@pytest.mark.parametrize("N", [16, 32])
def test_split_shifted_solve_is_exact(N, rng):
    # the blocks' solves, lifted, solve (sym A - sigma G) x = G y on the
    # zero-mean space, y = lift(z): S z' = G_pp z in block coordinates
    lat = TriLattice2D(N)
    G = gram_D(lat)
    k = G.kernel
    sigma = -0.25
    for sop, blocks in _morse_forms(lat):
        pinned = spectral._Pinned(sop.matrix, G)
        assert len(pinned.blocks) == blocks
        z = rng.standard_normal(sum(b.dim for b in pinned.blocks))
        shift = _Shift(pinned, None, sigma)
        x, y = pinned.lift(shift.solve(pinned.gram() @ z)), pinned.lift(z)
        r = (sop.sym_matrix - sigma * G.matrix) @ x - G.matrix @ y
        assert np.linalg.norm(r - k @ (k.T @ r)) <= 1e-10 * np.linalg.norm(G.matrix @ y)
        assert np.abs(k.T @ x).max() <= 1e-12 * np.linalg.norm(x)
        # restrict inverts lift on the zero-mean space
        assert np.allclose(pinned.restrict(y), z, rtol=0.0, atol=1e-12 * np.abs(z).max())


@pytest.mark.parametrize("N", [12, 16])
def test_four_block_counts_match_the_whole_pencil(N):
    # a pattern's blocks count as the unsplit pencil does, probe by probe,
    # at shifts with hundreds of eigenvalues below, and each refilled block
    # is its explicit basis product: the toy model's blend splits into the
    # even and odd blocks of the inversion; Morse bqcf with the radial
    # blend commutes with it only to rounding and stays one block
    lat = TriLattice2D(N)
    G = gram_D(lat)
    for model, blocks, taus in ((MODEL2D, 1, (7.0, 7.5, 8.0, 9.0)),
                                (unstable_toy_model(2.04, 1.0), 2, (0.01, 0.5, 1.0, 2.0))):
        ops = [Op2D(kind="bqcf", lattice=lat, model=model, blend=_blend_2d_sharp(lat, 4, 4 + K))
               for K in range(1, 9)]
        pattern = BlendPattern(ops, G)
        assert len(pattern.pinned.blocks) == blocks
        counts = set()
        for op in ops:
            A = assemble(op)
            assert len(_Pinned(A.matrix, G).blocks) == blocks
            for tau in taus:
                split, whole = pattern.is_coercive(op, tau), is_coercive(A, _unsplit(G), tau)
                assert not split.fallback and not whole.fallback
                assert split.negative == whole.negative, (op.blend.K, tau)
                counts.add(split.negative)
        assert len(counts) > 4
        A, tau = assemble(ops[3]), taus[1]
        refs = _summed_blocks(A.sym_matrix, G, tau, pattern.pinned.perm)
        ulp = np.spacing(abs(A.matrix).max())
        for block, ref in zip(pattern.pinned.blocks, refs, strict=True):
            got, _, _ = block.block(pattern.weight(ops[3]), tau)
            assert np.array_equal(got.indptr, ref.indptr)
            assert np.array_equal(got.indices, ref.indices)
            assert np.abs(got.data - ref.data).max() <= 8 * ulp


@pytest.mark.parametrize("N", [16, 32])
def test_four_block_poincare_counts_match_the_whole_pencil(N):
    # the annulus mask maps to itself under the inversion: two blocks, the
    # constant (m = 1) in the even one, whose counts add up to the unsplit
    # pencil's about the ratio poincare_discrete computes
    lat = TriLattice2D(N)
    regions = make_regions(lat, N // 8, N // 4)
    ratio = ops2d.poincare_discrete(lat, regions)
    M, G = _poincare_pencil(lat, regions)
    pinned = _Pinned(M.matrix, G)
    assert len(pinned.blocks) == 2
    assert [None if b.kernel is None else b.kernel.shape[1] for b in pinned.blocks] == [1, None]
    counts = []
    for tau in (-1.01 * ratio, -0.99 * ratio, -0.1 * ratio, -0.01 * ratio):
        split, whole = is_coercive(M, G, tau), is_coercive(M, _unsplit(G), tau)
        assert not split.fallback and not whole.fallback
        assert split.negative == whole.negative, tau
        counts.append(split.negative)
    assert counts[0] == 0 and counts[1] >= 1 and counts[3] > counts[2] > counts[1]


def test_each_traffic_operator_splits_into_its_measured_blocks():
    # the blocks _Pinned measures for the operators the sweeps and the
    # constants solve: 1D one; the toy model two (the inversion), one when
    # the blend is rolled off the origin; Morse two for the atomistic
    # operator, and one for Cauchy-Born and the blend, whose commutators
    # with the inversion are rounding (entries of 3.6e-15), not zero;
    # L-tilde one. The Poincare ratio solves no pencil: its
    # annulus mask against the scalar form stays as the check of a split
    # whose kernel block pins one shift (m = 1)
    def count(A, G):
        return len(_Pinned(A.matrix, G).blocks)

    ch = Chain1D(128)
    G = gram_D(ch)
    op = Op1D(kind="bqcf", chain=ch, model=PairModel1D(1.0, -0.24), blend=build_blend_1d(ch, 20))
    assert count(assemble(op), G) == len(BlendPattern(op, G).pinned.blocks) == 1
    lat = TriLattice2D(14)
    G = gram_D(lat)
    for model, blend, unblended, want, rolled in (
            (unstable_toy_model(2.04, 1.0), _blend_2d_sharp(lat, 4, 8), (2, 2), 2, 1),
            (MODEL2D, build_blend_2d(lat, 0, 7), (2, 1), 1, 1)):
        for kind, blocks in zip(("atomistic", "cauchy_born"), unblended):
            assert count(assemble(Op2D(kind=kind, lattice=lat, model=model)), G) == blocks
        op = Op2D(kind="bqcf", lattice=lat, model=model, blend=blend)
        moved = replace(op, blend=Blend2D(lattice=lat, beta=np.roll(blend.beta, 1, axis=0),
                                          Ra=blend.Ra, Rb=blend.Rb))
        assert count(assemble(op), G) == len(BlendPattern(op, G).pinned.blocks) == want
        assert count(assemble(moved), G) == len(BlendPattern(moved, G).pinned.blocks) == rolled
        assert count(assemble_ltilde(lat, model, blend), G) == 1
    for N in (16, 32):
        lat = TriLattice2D(N)
        assert count(*_poincare_pencil(lat, make_regions(lat, N // 8, N // 4))) == 2


def test_no_stored_entry_is_zero_at_every_weight():
    # a blend's pattern holds the entries that some weight makes nonzero, and
    # an assembled matrix the entries that its stencil's sums leave nonzero
    ch = Chain1D(64)
    models1 = (PairModel1D(1.0, -0.24), PairModel1D(1.0, -1.0))   # the second: zero diagonal
    toy = unstable_toy_model(2.04, 1.0)
    patterns = [BlendPattern(Op1D(kind="bqcf", chain=ch, model=models1[0],
                                  blend=build_blend_1d(ch, 8)), gram_D(ch))]
    ops = [Op1D(kind=kind, chain=ch, model=model,
                blend=build_blend_1d(ch, 8) if kind in ops1d._BLENDED else None)
           for kind in ops1d._KINDS for model in models1]
    for N in (8, 12):
        lat = TriLattice2D(N)
        for model in (toy, MODEL2D):
            op = Op2D(kind="bqcf", lattice=lat, model=model, blend=_blend_2d_sharp(lat, 2, 5))
            patterns.append(BlendPattern(op, gram_D(lat)))
            ops += [op] + [Op2D(kind=kind, lattice=lat, model=model)
                           for kind in ("atomistic", "cauchy_born")]
    for pattern in patterns:
        assert np.all((pattern.a0 != 0.0) | (pattern.slope != 0.0))
    for op in ops:
        assert np.all(assemble(op).matrix.data != 0.0), (type(op).__name__, op.kind)
    # the toy at N = 12: 7 nearest-shell entries in each of the 1,152 rows and
    # the 2 soft-bond neighbors in each x row
    assert patterns[3].a0.size == 9 * 576 + 7 * 576


def test_models_compare_by_value_and_blends_by_identity():
    # an equal model built twice is one model to the pattern; blends hold
    # arrays, so == is identity rather than an elementwise truth value
    lat = TriLattice2D(8)
    model, again = unstable_toy_model(2.04, 1.0), unstable_toy_model(2.04, 1.0)
    assert model == again and model != unstable_toy_model(2.04, 0.5)
    blend = _blend_2d_sharp(lat, 1, 3)
    assert blend == blend and blend != _blend_2d_sharp(lat, 1, 3)
    ch = Chain1D(16)
    assert build_blend_1d(ch, 6) != build_blend_1d(ch, 6)
    op = Op2D(kind="bqcf", lattice=lat, model=model, blend=blend)
    twin = Op2D(kind="bqcf", lattice=lat, model=again, blend=_blend_2d_sharp(lat, 1, 4))
    pattern = BlendPattern([op, twin], gram_D(lat))
    got, want = pattern.is_coercive(twin, 1e-10), is_coercive(assemble(twin), gram_D(lat), 1e-10)
    assert (got.negative, got.coercive, got.fallback) == (want.negative, want.coercive,
                                                          want.fallback)


def test_blend_pattern_refuses_a_foreign_operator():
    ch = Chain1D(32)
    model = PairModel1D(1.0, -0.24)
    window = [Op1D(kind="bqcf", chain=ch, model=model, blend=build_blend_1d(ch, K))
              for K in (8, 9, 10)]
    pattern = BlendPattern(window, gram_D(ch))
    # the last two have no blend to read: they are refused by their kind
    for op in (Op1D(kind="bqcf2", chain=ch, model=model, blend=build_blend_1d(ch, 8)),
               Op1D(kind="bqcf", chain=ch, model=PairModel1D(1.0, -0.2),
                    blend=build_blend_1d(ch, 8)),
               Op1D(kind="atomistic", chain=ch, model=model),
               Op1D(kind="qcl", chain=ch, model=model)):
        with pytest.raises(ValueError, match="differs in kind, lattice or model"):
            pattern.is_coercive(op, 1e-10)
        with pytest.raises(ValueError, match="differs in kind, lattice or model"):
            BlendPattern(window + [op], gram_D(ch))
    with pytest.raises(ValueError, match="has no blend"):
        BlendPattern(Op1D(kind="atomistic", chain=ch, model=model), gram_D(ch))


def _dense_pinned(Asym, G):
    # (sym A, G) on the zero-mean space, dense, so that neg(sym(A) - tau G)
    # there is the count of sum(neg(A_b - tau G_b)) over the blocks: in each
    # block of the explicit bases, P X P on the block's pinned coordinates,
    # P = I - k k^T its projector off the constant shifts
    out = []
    for B, kb in _explicit_bases(G.mirror, G.kernel):
        A, Gb = ((B.T @ M @ B).toarray() for M in (Asym, G.matrix))
        if kb is not None:
            m = kb.shape[1]
            A, Gb = ((X - kb @ (kb.T @ X) - (X @ kb) @ kb.T
                      + kb @ (kb.T @ X @ kb) @ kb.T)[m:, m:] for X in (A, Gb))
        out.append((A, Gb))
    return out


@pytest.mark.parametrize("space, N, stride", [("1d", 128, 1), ("1d", 512, 8), ("2d", 12, 1),
                                              ("2d", 16, 4)])
def test_window_probes_count_as_the_whole_pencil(space, N, stride):
    # the threshold scans' windows (1D K = 6..64, the 2D toy K = 1..12 at
    # Ra = 4): every probe behind the fixed part counts as the whole block
    # does (F empty), both trusted, at three shifts, and as a dense
    # eigensolve, on every stride-th probe. A chain's probes are counted
    # together, by the window's band factor (_banded), also at tau = 0.1,
    # where F's own pivots are negative and its count enters every probe's
    if space == "1d":
        ch = Chain1D(N)
        G = gram_D(ch)
        ops = [Op1D(kind="bqcf", chain=ch, model=PairModel1D(1.0, -0.24),
                    blend=build_blend_1d(ch, K)) for K in range(6, 65)]
    else:
        lat = TriLattice2D(N)
        G = gram_D(lat)
        ops = [Op2D(kind="bqcf", lattice=lat, model=unstable_toy_model(2.04, 1.0),
                    blend=_blend_2d_sharp(lat, 4, 4 + K)) for K in range(1, min(13, N - 3))]
    pattern = BlendPattern(ops, G)
    taus = (1e-10, 0.01, -0.01) + ((0.1,) if space == "1d" else ())
    assert all(pattern.fixed(tau) > 0 for tau in taus)
    assert (pattern.parts(taus[-1])[0].negative > 0) == (space == "1d")
    batch = {tau: pattern._banded(ops, tau) for tau in taus}
    assert all((count is not None) == (space == "1d") for tau in taus for count in batch[tau])
    counts = set()
    for i, op in enumerate(ops):
        w = pattern.weight(op)
        dense = (_dense_pinned(assemble(op).sym_matrix, G)
                 if i % stride == 0 else None)
        for tau in taus:
            split = batch[tau][i] or _Shift(pattern.pinned, w, tau, pattern.parts(tau))
            whole = _Shift(pattern.pinned, w, tau)
            assert split.trusted and whole.trusted, (op.blend.K, tau)
            assert split.negative == whole.negative, (op.blend.K, tau)
            if dense is not None:
                assert split.negative == sum(np.sum(np.linalg.eigvalsh(A - tau * Gb) < 0)
                                             for A, Gb in dense), (op.blend.K, tau)
            counts.add(split.negative)
    assert len(counts) > 1


def test_a_weight_that_moves_on_the_fixed_part_is_refused():
    # a probe whose blend is wider than every blend of the window moves
    # coordinates the window holds fixed, and F's factor no longer holds
    ch = Chain1D(128)
    G = gram_D(ch)
    ops = [Op1D(kind="bqcf", chain=ch, model=PairModel1D(1.0, -0.24),
                blend=build_blend_1d(ch, K)) for K in range(6, 11)]
    pattern = BlendPattern(ops[:3], G)
    assert pattern.fixed(1e-10) > 0
    pattern.is_coercive(ops[1], 1e-10)
    with pytest.raises(ValueError, match="where the window holds it fixed"):
        pattern.is_coercive(ops[4], 1e-10)


def test_an_untrusted_fixed_part_falls_back_to_the_whole_block(monkeypatch):
    # F's pivots failing their test at the window's largest weight leave
    # every block whole (F empty): the same code, the same counts
    ch = Chain1D(128)
    G = gram_D(ch)
    ops = [Op1D(kind="bqcf", chain=ch, model=PairModel1D(1.0, -0.24),
                blend=build_blend_1d(ch, K)) for K in range(6, 65)]
    want = [BlendPattern(ops, G).is_coercive(op, 1e-10) for op in ops]
    init = spectral._Fixed.__init__

    def failing(self, *args):
        init(self, *args)
        self.pivot = (0.0, 1.0)

    monkeypatch.setattr(spectral._Fixed, "__init__", failing)
    pattern = BlendPattern(ops, G)
    assert pattern.fixed(1e-10) == 0
    made = []
    monkeypatch.setattr(spectral, "_ldlt", lambda M, ldlt=_ldlt: made.append(M.shape) or ldlt(M))
    got = [pattern.is_coercive(op, 1e-10) for op in ops]
    assert [(r.negative, r.coercive, r.fallback) for r in got] == \
        [(r.negative, r.coercive, r.fallback) for r in want]
    assert set(made) == {(G.dim - 1,) * 2}


def test_a_fixed_part_that_fails_its_test_at_a_probe_is_probed_whole(monkeypatch):
    # F's pivot test belongs to every probe behind it: failing there, the
    # probe is untrusted, and the pattern probes the whole block again, with
    # the same trusted count
    ch = Chain1D(128)
    G = gram_D(ch)
    ops = [Op1D(kind="bqcf", chain=ch, model=PairModel1D(1.0, -0.24),
                blend=build_blend_1d(ch, K)) for K in range(6, 20)]
    pattern = BlendPattern(ops, G)
    (part,) = pattern.parts(1e-10)
    monkeypatch.setattr(part, "pivot", (1.0, 2.0))
    for op in ops:
        w = pattern.weight(op)
        shift = _Shift(pattern.pinned, w, 1e-10, [part])
        assert not shift.trusted and (shift.min_pivot, shift.margin) == (1.0, 2.0)
        whole, got = _Shift(pattern.pinned, w, 1e-10), pattern.is_coercive(op, 1e-10)
        assert whole.trusted and got.method == "inertia"
        assert (got.negative, got.min_pivot) == (whole.negative, whole.min_pivot)


def test_a_stencil_whose_rows_do_not_sum_to_zero_splits_exactly(monkeypatch):
    # force-based rows sum to zero, so s = sym(A) k vanishes off the blend
    # and F's rows add nothing to k^T s; a diagonal added at both weights
    # puts s on F's rows, and the split still counts as the whole block
    stencil = spectral._stencil

    def shifted(op):
        A = stencil(op)
        A.setdiag(A.diagonal() + 0.3)
        return A

    monkeypatch.setattr(spectral, "_stencil", shifted)
    ch = Chain1D(128)
    G = gram_D(ch)
    ops = [Op1D(kind="bqcf", chain=ch, model=PairModel1D(1.0, -0.24),
                blend=build_blend_1d(ch, K)) for K in range(6, 40)]
    pattern = BlendPattern(ops, G)
    (part,) = pattern.parts(-0.2)
    assert np.abs(part.Q).max() > 1.0               # k_F^T s_F, less C_UU
    for op in ops:
        w = pattern.weight(op)
        split, whole = (_Shift(pattern.pinned, w, -0.2, parts)
                        for parts in (pattern.parts(-0.2), None))
        assert split.trusted and whole.trusted
        assert split.negative == whole.negative, op.blend.K


def test_a_window_probe_at_gamma_falls_back_to_the_value_solve(monkeypatch):
    # at tau = gamma a pivot or capacitance eigenvalue of the Schur probe
    # is rounding: the count is untrusted, and the value solve, on the
    # pattern's own matrix, finds gamma > tau false. No _Shift, nor the
    # factor cached on it, is alive when the value solve builds its matrix
    ch = Chain1D(128)
    G = gram_D(ch)
    ops = [Op1D(kind="bqcf", chain=ch, model=PairModel1D(1.0, -0.24),
                blend=build_blend_1d(ch, K)) for K in range(6, 65)]
    pattern = BlendPattern(ops, G)
    op = ops[14]
    tau = coercivity(pattern.matrix(op), G).gamma
    assert pattern.fixed(tau) > 0
    shifts, built = [], []

    class Tracked(_Shift):
        def __init__(self, *args):
            super().__init__(*args)
            shifts.append(weakref.ref(self))

    def matrix(op, f=pattern.matrix):
        built.append((op, sum(ref() is not None for ref in shifts)))
        return f(op)

    monkeypatch.setattr(spectral, "_Shift", Tracked)
    monkeypatch.setattr(pattern, "matrix", matrix)
    rep = pattern.is_coercive(op, tau)
    assert (rep.method, rep.coercive, rep.fallback) == ("iterative", False, True)
    assert shifts and built == [(op, 0)]


@pytest.mark.parametrize("N", [256, 4096])
def test_a_1d_window_probe_factors_128_coordinates(monkeypatch, N):
    # the 1D scan window K = 6..64 moves the same 128 coordinates at every
    # N: its probes factor those alone, all 59 in one band factor of
    # half-width 3, and F once per shift, by SuperLU
    ch = Chain1D(N)
    G = gram_D(ch)
    ops = [Op1D(kind="bqcf", chain=ch, model=PairModel1D(1.0, -0.24),
                blend=build_blend_1d(ch, K)) for K in range(6, 65)]
    pattern = BlendPattern(ops, G)
    made, batches = [], []
    monkeypatch.setattr(spectral, "_ldlt", lambda M, ldlt=_ldlt: made.append(M.shape) or ldlt(M))
    monkeypatch.setattr(spectral, "_BandFactor",
                        lambda fixed, x, sigma, cls=_BandFactor:
                        batches.append(x.shape[0]) or cls(fixed, x, sigma))
    assert [rep.method for rep in pattern.is_coercive(ops, 1e-10)] == ["inertia"] * 59
    assert made == [(G.dim - 1 - 128,) * 2] and batches == [59]
    (window,) = pattern.windows
    assert window.V.size == 128 and window.width == 3
    assert pattern.fixed(1e-10) == G.dim - 1 - 128


def test_a_zero_band_pivot_falls_back_alone(monkeypatch):
    # an exactly zero pivot in one probe of a batch leaves that probe, and
    # it alone, without inertia: it is counted on SuperLU's factor of its
    # Schur complement (_Shift), and every other probe's report is the one
    # the batch gives without it
    ch = Chain1D(128)
    G = gram_D(ch)
    ops = [Op1D(kind="bqcf", chain=ch, model=PairModel1D(1.0, -0.24),
                blend=build_blend_1d(ch, K)) for K in range(6, 65)]
    pattern = BlendPattern(ops, G)
    want = pattern.is_coercive(ops, 1e-10)
    stage = spectral._Window.stage
    (window,), (part,) = pattern.windows, pattern.parts(1e-10)
    assert window.cols[0] == 0 and window.indptr[1] > 0    # key 0 is S[0, 0]

    def zeroed(self, fixed, x, sigma):
        S, U, Q = stage(self, fixed, x, sigma)
        if x.shape[0] == len(ops):                  # the batch's stage alone
            S[7, 0] = 0.0                           # probe 7's first pivot
        return S, U, Q

    monkeypatch.setattr(spectral._Window, "stage", zeroed)
    x = np.stack([window.refill(pattern.weight(op)) for op in ops])
    factor = _BandFactor(part, x, 1e-10)
    assert np.flatnonzero(~factor.ok).tolist() == [7]
    shifts = []
    monkeypatch.setattr(spectral, "_Shift", _counting(_Shift, shifts))
    got = pattern.is_coercive(ops, 1e-10)
    assert shifts == ["_Shift"]
    assert got[:7] + got[8:] == want[:7] + want[8:]
    sparse = _Shift(pattern.pinned, pattern.weight(ops[7]), 1e-10, pattern.parts(1e-10))
    assert got[7] == spectral.InertiaReport(coercive=sparse.negative == 0, negative=sparse.negative,
                                            min_pivot=sparse.min_pivot, margin=sparse.margin,
                                            method="inertia")


def test_both_factor_paths_stage_each_probe_alike():
    # SuperLU's probe (_Fixed.block, one refill) and the band's batch read
    # one stage (_Window.stage): on the 1D window K = 6..64 at N = 128,
    # each probe's sparse Schur complement, densified, equals the batch's
    # placed in its band (_dense_band), and U and -C^-1 the batch's,
    # bitwise; the two factors give the same count and trust
    ch = Chain1D(128)
    G = gram_D(ch)
    ops = [Op1D(kind="bqcf", chain=ch, model=PairModel1D(1.0, -0.24),
                blend=build_blend_1d(ch, K)) for K in range(6, 65)]
    pattern = BlendPattern(ops, G)
    tau = 1e-10
    (window,), (part,) = pattern.windows, pattern.parts(tau)
    weights = [pattern.weight(op) for op in ops]
    S, U, Q = window.stage(part, np.stack([window.refill(w) for w in weights]), tau)
    band = _dense_band(window, S)
    counts = pattern._banded(ops, tau)
    for i, (op, w) in enumerate(zip(ops, weights)):
        M, Ui, Qi = part.block(w, tau)
        # dense zeros are +0.0 off the sparse pattern: equal, not tobytes
        assert np.array_equal(M.toarray(), band[i]), op.blend.K
        assert Ui.tobytes() == U[i].tobytes() and Qi.tobytes() == Q[i].tobytes(), op.blend.K
        shift = _Shift(pattern.pinned, w, tau, pattern.parts(tau))
        assert (shift.negative, shift.trusted) == (counts[i].negative, counts[i].trusted), \
            op.blend.K
        assert shift.trusted, op.blend.K


@pytest.mark.parametrize("N", [128, 1024])
def test_a_window_of_one_is_its_probe_in_the_batch(N):
    # is_coercive(op) factors a batch of one: its report is the one the
    # window's batch gives for op, bitwise, at every shift
    ch = Chain1D(N)
    G = gram_D(ch)
    ops = [Op1D(kind="bqcf", chain=ch, model=PairModel1D(1.0, -0.24),
                blend=build_blend_1d(ch, K)) for K in range(6, 65)]
    pattern = BlendPattern(ops, G)
    for tau in (1e-10, 0.01, -0.01):
        batch = pattern.is_coercive(ops, tau)
        assert [pattern.is_coercive(op, tau) for op in ops[::6]] == batch[::6], tau


def test_the_benchmark_windows_take_their_paths(monkeypatch):
    # the rule reads the Gram form's geometry: threshold-1d's windows (K =
    # 6..64 at N = 128 and 1024) are chains, counted by one band factor of
    # half-width at most 3; threshold-2d's (toy model, Ra = 4, K =
    # 1..min(16, N - 4) at N = 12 and 16) are lattices, counted probe by
    # probe on SuperLU's factors (_Shift), with no band built. Each
    # threshold-2d window, and each of its K*-1 and K* value-solve pencils,
    # commutes with the inversion exactly, and so splits into two blocks
    batches, shifts = [], []
    monkeypatch.setattr(spectral, "_BandFactor", _counting(_BandFactor, batches))
    monkeypatch.setattr(spectral, "_Shift", _counting(_Shift, shifts))
    model = PairModel1D(1.0, -0.24)
    for N in (128, 1024):
        ch = Chain1D(N)
        ops = [Op1D(kind="bqcf", chain=ch, model=model, blend=build_blend_1d(ch, K))
               for K in range(6, 65)]
        pattern = BlendPattern(ops, gram_D(ch))
        assert all(window.width <= 3 for window in pattern.windows)
        pattern.is_coercive(ops, 1e-10)
        assert (batches, shifts) == (["_BandFactor"], [])
        batches.clear()
    model = unstable_toy_model(2.04, 1.0)
    for N in (12, 16):
        lat = TriLattice2D(N)
        ops = [Op2D(kind="bqcf", lattice=lat, model=model, blend=_blend_2d_sharp(lat, 4, 4 + K))
               for K in range(1, min(16, N - 4) + 1)]
        G = gram_D(lat)
        pattern = BlendPattern(ops, G)
        assert all(window.place is None for window in pattern.windows)
        reports = pattern.is_coercive(ops, 1e-10)
        assert batches == [] and len(shifts) >= len(ops)
        shifts.clear()
        A0, slope = (scipy.sparse.csr_matrix((v, pattern.indices, pattern.indptr),
                                             shape=(G.dim,) * 2)
                     for v in (pattern.a0, pattern.slope))
        assert len(pattern.pinned.blocks) == 2
        assert spectral._commutator(A0 + 1j * slope, G.mirror, 0.0)
        kstar = next(i for i, rep in enumerate(reports) if rep.coercive)
        for op in ops[kstar - 1:kstar + 1]:
            A = assemble(op).matrix
            assert len(_Pinned(A, G).blocks) == 2
            assert spectral._commutator(A, G.mirror, 0.0), op.blend.K


@pytest.mark.parametrize("kind, phiF, phi2F, K", [("atomistic", 1.0, -1.0, None),
                                                  ("bqcf", 100.0, -24.0, 6)])
def test_iterative_path_below_minus_one(kind, phiF, phi2F, K):
    # the shift must be placed next to gamma < -1, not at a fixed sigma =
    # -1: below it, or above it with gamma alone below (a count of one)
    model = PairModel1D(phiF=phiF, phi2F=phi2F)
    dense = _gamma_1d(model, 300, kind=kind, K=K, method="dense")
    iterative = _gamma_1d(model, 300, kind=kind, K=K, lanczos=True)
    assert dense.gamma < -1.0
    assert iterative.gamma == pytest.approx(dense.gamma, rel=1e-9)
    ch = Chain1D(300)
    A = assemble(Op1D(kind=kind, chain=ch, model=model,
                      blend=None if K is None else build_blend_1d(ch, K)))
    sign = is_coercive(A, gram_D(ch), iterative.shift)
    assert iterative.shift < -1.0 and sign.method == "inertia"
    assert sign.negative == int(iterative.shift > dense.gamma)


def test_inertia_rejects_foreign_kernel():
    # the kernel is the constant shifts of the Gram form's ncomp coordinates
    # per site: no other basis can be given
    ch = Chain1D(8)
    model = PairModel1D(phiF=1.0, phi2F=-0.24)
    sop = assemble(Op1D(kind="atomistic", chain=ch, model=model))
    with pytest.raises(ValueError, match="dimension mismatch"):
        is_coercive(sop, gram_D(Chain1D(4)), 1e-10)
    with pytest.raises(ValueError, match="not a multiple of ncomp 3"):
        SparseOp(gram_D(ch).matrix, ncomp=3)
    assert np.array_equal(gram_D(ch).kernel, np.ones((16, 1)) / np.sqrt(16))
    lat = TriLattice2D(3)
    assert np.array_equal(gram_D(lat).kernel,
                          np.kron(np.ones((36, 1)), np.eye(2)) / np.sqrt(36))


def test_inertia_falls_back_when_the_factor_leaves_the_diagonal():
    # at tau = phiF + phi2F every diagonal entry of sym(A) - tau G is zero,
    # so SuperLU pivots off the diagonal and no inertia can be read; the
    # Gram form, without its grid, sends the value solve to the Lanczos
    ch = Chain1D(64)
    sop = assemble(Op1D(kind="atomistic", chain=ch, model=PairModel1D(1.0, -0.24)))
    rep = is_coercive(sop, replace(gram_D(ch), grid=()), 0.76)
    assert rep.method == "iterative" and rep.negative == -1
    assert rep.coercive is False


def test_shift_reports_an_untrusted_count_when_the_factor_fails():
    # the case above, at _Shift itself: no inertia is an untrusted count
    ch = Chain1D(64)
    sop = assemble(Op1D(kind="atomistic", chain=ch, model=PairModel1D(1.0, -0.24)))
    G = gram_D(ch)
    shift = _Shift(_Pinned(sop.matrix, G), None, 0.76)
    assert shift.trusted is False and shift.negative == -1
    assert shift.min_pivot == 0.0 and np.isnan(shift.margin)


def _full_qr_reference(M, kernel):
    Q2 = scipy.linalg.qr(kernel, mode="full")[0][:, kernel.shape[1]:]
    return Q2, Q2.T @ M.toarray() @ Q2


@pytest.mark.parametrize("problem", ["1d", "1d-below-minus-one", "2d", "poincare"])
def test_dense_path_matches_full_qr(problem):
    if problem.startswith("1d"):
        ch = Chain1D(96)
        model, K = ((PairModel1D(phiF=1.0, phi2F=-0.24), 14) if problem == "1d"
                    else (PairModel1D(phiF=100.0, phi2F=-24.0), 6))
        A = assemble(Op1D(kind="bqcf", chain=ch, model=model,
                          blend=build_blend_1d(ch, K))).sym_matrix
        G = gram_D(ch)
    elif problem == "2d":
        lat = TriLattice2D(6)
        A = assemble(Op2D(kind="bqcf", lattice=lat, model=unstable_toy_model(2.04, 1.0),
                          blend=_blend_2d_sharp(lat, 1, 4))).sym_matrix
        G = gram_D(lat)
    else:
        # the negated blending-region mass form, on both components
        lat = TriLattice2D(8)
        sites = np.flatnonzero(make_regions(lat, 1, 3).mask(1).ravel())
        idx = np.concatenate([2 * sites, 2 * sites + 1])
        A = scipy.sparse.csr_matrix((np.full(idx.size, -lat.eps**2), (idx, idx)),
                                    shape=(2 * (2 * lat.N) ** 2,) * 2)
        G = gram_D(lat)
    Q2, Ar = _full_qr_reference(A, G.kernel)
    _, Gr = _full_qr_reference(G.matrix, G.kernel)
    w, y = scipy.linalg.eigh(Ar, Gr, subset_by_index=[0, 3])
    gamma, x = _dense_gamma(A, G)
    assert gamma == pytest.approx(w[0], rel=1e-10, abs=1e-12)
    assert np.abs(G.kernel.T @ x).max() <= 1e-12 * np.linalg.norm(x)
    # x lies in the eigenspace of w[0]; the mask form's two displacement
    # components decouple, so there it is at least two-dimensional
    ref = np.linalg.qr(Q2 @ y[:, np.isclose(w, w[0], rtol=1e-8, atol=0.0)])[0]
    cos = np.linalg.norm(ref.T @ x) / np.linalg.norm(x)
    assert cos == pytest.approx(1.0, abs=1e-8)
