"""Periodic chain geometry, difference ladder, norms."""

from types import SimpleNamespace

import numpy as np
import pytest

from bqcf import blend, ops1d
from bqcf.lattice1d import Chain1D, diff, diffs, inner, norms, project_zero_mean


def test_chain_basic():
    ch = Chain1D(8)
    assert ch.eps == 1.0 / 8
    with pytest.raises(ValueError):
        Chain1D(0)


def test_diff_zero_everywhere():
    ch = Chain1D(8)
    z = np.zeros(16)
    for order in (1, 2, 3):
        assert np.array_equal(diff(ch, z, order), z)


def test_diff_alternating_profile():
    # u_l = (eps/2)(-1)^l telescopes to Du_l = (-1)^l
    ch = Chain1D(2)
    p = np.arange(4)
    ell = p - ch.N + 1
    u = (ch.eps / 2) * (-1.0) ** ell
    assert np.allclose(diff(ch, u, 1), (-1.0) ** ell, atol=1e-15)


def test_diff_periodic_telescoping(rng):
    ch = Chain1D(16)
    u = rng.normal(size=32)
    s = ch.eps * diff(ch, u, 1).sum()
    assert abs(s) <= 1e-13 * (1 + np.abs(u).max())


def test_diff_bad_order():
    ch = Chain1D(4)
    with pytest.raises(ValueError):
        diff(ch, np.zeros(8), 4)


def test_norms_constant():
    ch = Chain1D(8)
    n = norms(ch, np.ones(16))
    assert n["l2eps"] == pytest.approx(np.sqrt(2.0), rel=1e-15)


def test_norms_one_hot():
    ch = Chain1D(8)
    v = np.zeros(16)
    v[0] = 1.0
    n = norms(ch, v)
    assert n["l2eps"] == pytest.approx(np.sqrt(ch.eps), rel=1e-15)
    assert n["linf"] == 1.0


def test_norms_alternating():
    ch = Chain1D(8)
    v = (-1.0) ** np.arange(16)
    n = norms(ch, v)
    assert n["l2eps"] == pytest.approx(np.sqrt(2.0), rel=1e-15)
    assert n["l1eps"] == pytest.approx(2.0, rel=1e-15)


def test_inner_is_squared_norm(rng):
    ch = Chain1D(8)
    u = rng.normal(size=16)
    assert inner(ch, u, u) == pytest.approx(norms(ch, u)["l2eps"] ** 2, rel=1e-14)


def test_inner_orthogonal_one_hots():
    ch = Chain1D(8)
    u = np.zeros(16)
    w = np.zeros(16)
    u[0] = 1.0
    w[1] = 1.0
    assert inner(ch, u, w) == 0.0


def test_inner_bilinear(rng):
    ch = Chain1D(8)
    u, v, w = rng.normal(size=(3, 16))
    a, b = 1.7, -0.3
    lhs = inner(ch, a * u + b * v, w)
    rhs = a * inner(ch, u, w) + b * inner(ch, v, w)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_inner_length_mismatch():
    ch = Chain1D(8)
    with pytest.raises(ValueError):
        inner(ch, np.zeros(16), np.zeros(14))


def test_summation_by_parts(rng):
    ch = Chain1D(32)
    for _ in range(50):
        f, g = rng.normal(size=(2, 64))
        lhs = np.sum(f * (np.roll(g, -1) - g))
        rhs = -np.sum(np.roll(g, -1) * (np.roll(f, -1) - f))
        assert lhs == pytest.approx(rhs, abs=1e-12 * (1 + abs(lhs)))


def test_linf_bounded_by_l1_of_diff(rng):
    # discrete Poincare on the periodic chain
    for N in (4, 16, 64):
        ch = Chain1D(N)
        for _ in range(1000 // 3):
            v = project_zero_mean(rng.normal(size=2 * N))
            dn = norms(ch, diff(ch, v, 1))
            assert norms(ch, v)["linf"] <= dn["l1eps"] + 1e-12


def test_second_diff_inverse_inequality(rng):
    ch = Chain1D(32)
    for _ in range(200):
        u = rng.normal(size=64)
        d1 = norms(ch, diff(ch, u, 1))["l2eps"] ** 2
        d2 = norms(ch, diff(ch, u, 2))["l2eps"] ** 2
        assert d2 <= (4.0 / ch.eps**2) * d1 + 1e-12


def test_project_zero_mean(rng):
    u = rng.normal(size=32) + 3.0
    p = project_zero_mean(u)
    assert abs(p.sum()) <= 1e-12 * (1 + np.abs(p).max()) * 32
    assert np.allclose(project_zero_mean(p), p, atol=1e-15)


def _diff_by_np_roll(chain, u, order):
    d = (u - np.roll(u, 1)) / chain.eps
    d2 = (np.roll(d, -1) - d) / chain.eps
    return (d, d2, (d2 - np.roll(d2, 1)) / chain.eps)[order - 1]


def _rst_by_np_roll(chain, beta, u):
    eps = chain.eps
    Du, D2u = (_diff_by_np_roll(chain, u, j) for j in (1, 2))
    D2b, D3b = (_diff_by_np_roll(chain, beta, j) for j in (2, 3))
    return (4.0 * eps * float(np.sum(Du * Du)) - eps**3 * float(np.sum(beta * D2u * D2u)),
            2.0 * eps**3 * float(np.sum(D2b * Du * Du)),
            eps**4 * float(np.sum(D2b * D2u * Du)),
            eps**3 * float(np.sum(np.roll(D3b, -1) * u * np.roll(Du, -1))))


@pytest.mark.parametrize("n", [2, 3, 256])
def test_periodic_stencils_match_np_roll_bitwise(n, rng):
    # the difference ladder, the Laplacians, the R/S/T split and the
    # interface set wrap by slicing; each must equal its np.roll form bit
    # for bit, including at n = 2 and 3, where the +-2 neighbors wrap
    chain = SimpleNamespace(nsites=n, eps=2.0 / n)
    u, beta = rng.standard_normal(n), rng.uniform(size=n)
    beta[rng.uniform(size=n) < 0.5] = 1.0
    for order in (1, 2, 3):
        assert np.array_equal(diff(chain, u, order), _diff_by_np_roll(chain, u, order))
    assert all(np.array_equal(d, _diff_by_np_roll(chain, u, j))
               for j, d in enumerate(diffs(chain, u), start=1))
    eps2 = chain.eps**2
    assert np.array_equal(ops1d._lap1(chain, u),
                          -(np.roll(u, -1) - 2.0 * u + np.roll(u, 1)) / eps2)
    assert np.array_equal(ops1d._lap2(chain, u),
                          -(np.roll(u, -2) - 2.0 * u + np.roll(u, 2)) / eps2)
    form = ops1d._rst_terms(chain, SimpleNamespace(beta=beta), u)
    assert (form.main, form.R, form.S, form.T) == _rst_by_np_roll(chain, beta, u)
    strict = (beta > 0.0) & (beta < 1.0)
    in_I = np.zeros_like(strict)
    for j in (-2, -1, 1, 2):
        in_I |= np.roll(strict, -j)
    assert np.array_equal(blend._interface_1d(beta), np.flatnonzero(in_I))
