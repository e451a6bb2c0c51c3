"""Scaling experiments on the blended force-based operator.

Threshold sweeps locate the smallest blending width K* that restores
coercivity, by an inertia scan of the whole window with pencil solves only
at K*-1 and K*, and regress its growth against the mesh parameter; sharpness
probes evaluate the constructed instability witnesses; trace_check verifies
the annulus trace inequality by quadrature. run() drives any of these from
a flat key=value config and writes rows.csv / fit.json / summary.txt /
plot.gp for reproduction.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from . import ops1d, ops2d
from .blend import (PROFILES, Blend1D, Blend2D, _blend_2d_sharp, blend_from_samples,
                    build_blend_1d)
from .config import ConfigError, ModelRangeError, format_value, load_config
from .lattice1d import Chain1D, diff, norms, project_zero_mean, random_zero_mean
from .lattice2d import (TriLattice2D, diff2d, inner2d, make_regions,
                        random_zero_mean_2d, ring_number)
from .ops1d import Op1D, _rst_terms, _sharpness_parts, divergence_form, quad_form
from .ops2d import (Op2D, _bond_apply_a, _bond_apply_c, assemble_ltilde,
                    divergence_form_2d, poincare_discrete)
from .potentials import PairModel1D, PairModel2D, c0
from .spectral import METHODS, BlendPattern, SparseOp, assemble, coercivity, gram_D

__all__ = [
    "SweepRow", "ScanProbe", "ThresholdFit", "ProbeResult", "TraceSample",
    "ModelRangeError",
    "sweep_threshold_1d", "sharpness_probe_1d", "sweep_threshold_2d",
    "construct_layer_sets", "sharpness_probe_2d", "trace_check",
    "sample_constant", "sample_log", "sample_poly", "unstable_toy_model",
    "run",
]

_BONDS = ("b1", "b2", "b3")


@dataclass(frozen=True)
class SweepRow:
    """One evaluated grid point of a threshold sweep.

    Ra and Rb are None for 1D rows; c0_or_gammatilde carries c0(model) in
    1D and the measured auxiliary-operator constant in 2D.
    """

    eps: float
    K: int
    Ra: Optional[int]
    Rb: Optional[int]
    gamma: float
    c0_or_gammatilde: float
    wallclock_seconds: float


@dataclass(frozen=True)
class ScanProbe:
    """Inertia verdict at one K of a threshold scan: the negative eigenvalue
    count (-1 after an exactly zero pivot), the pivot or capacitance
    eigenvalue closest to its rounding bound, and whether the signs were
    too close to zero to decide, so that a pencil solve answered instead."""

    eps: float
    K: int
    negative: int
    min_pivot: float
    fallback: bool


@dataclass(frozen=True)
class ThresholdFit:
    """Regression of the located thresholds K*(eps) against a growth rate.

    pairs holds (eps, Kstar) for every size where a sign change was found;
    rows records every gamma evaluation, the pencil solves at K*-1 and K*;
    scan holds the inertia verdict at every K of every scanned window;
    flags collects data-quality notes (degenerate fit, missing or extra
    sign changes, monotonicity violation).
    """

    pairs: tuple
    slope: float
    intercept: float
    r2: float
    rows: tuple = ()
    flags: tuple = ()
    scan: tuple = ()


@dataclass(frozen=True)
class ProbeResult:
    """Sharpness-probe outcome: the Rayleigh quotient of the witness plus
    the measured interface term and its asserted negative bound.

    A positive Rayleigh quotient is inconclusive (the witness controls the
    infimum from above only), so conclusive is True only when negative.
    """

    rayleigh: float
    t_term: float
    t_bound: float
    alpha: float
    conclusive: bool

    def __float__(self) -> float:
        return self.rayleigh


def _fit_against(xs: np.ndarray, ys: np.ndarray):
    """Least-squares line ys ~ slope*xs + intercept with its r^2."""
    if xs.size < 2:
        y0 = float(ys[0]) if ys.size else float("nan")
        return 0.0, y0, 1.0
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    ss_res = float(resid @ resid)
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 if ss_tot <= 1e-30 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2


def _divergence_residual_1d(chain: Chain1D, model: PairModel1D, blend: Blend1D,
                            rng: np.random.Generator) -> float:
    """Relative defect of the split of <L2 u, u> against the direct form,
    at one zero-mean u drawn from rng."""
    u = random_zero_mean(chain, rng)
    split = divergence_form(chain, blend, u)
    direct = quad_form(Op1D(kind="bqcf2", chain=chain, model=model, blend=blend), u)
    return abs(split.total - direct) / max(1.0, abs(direct))


def _divergence_residual_2d(lattice: TriLattice2D, model: PairModel2D,
                            blend: Blend2D, rng: np.random.Generator,
                            bond: str) -> float:
    """Relative defect of the split of one b-bond's blended form against the
    direct form, at one zero-mean u drawn from rng."""
    u = random_zero_mean_2d(lattice, rng)
    split = divergence_form_2d(lattice, model, blend, u, bond)
    H = model.Hb[_BONDS.index(bond)]
    b = blend.beta[..., None]
    field = b * _bond_apply_a(lattice, u, H, bond) \
        + (1.0 - b) * _bond_apply_c(lattice, u, H, bond)
    direct = inner2d(lattice, field, u)
    return abs(split.total - direct) / max(1.0, abs(direct))


def _canary_1d(chain: Chain1D, model: PairModel1D, blend: Blend1D,
               rng: np.random.Generator) -> None:
    res = _divergence_residual_1d(chain, model, blend, rng)
    if res > 1e-10:
        raise RuntimeError(f"divergence canary failed at eps=1/{chain.N}, "
                           f"K={blend.K}: relative residual {res:.3e}")


def _canary_2d(lattice: TriLattice2D, model: PairModel2D, blend: Blend2D,
               rng: np.random.Generator, bond: str) -> None:
    res = _divergence_residual_2d(lattice, model, blend, rng, bond)
    if res > 1e-10:
        raise RuntimeError(f"divergence canary failed at eps=1/{lattice.N}, "
                           f"K={blend.K}, bond {bond}: relative residual {res:.3e}")


def _threshold_at_size(build: Callable[[int], object], G, eps: float,
                       k_floor: int, k_cap: int, tol: float, seed: int,
                       method: str = "iterative"):
    """K* at one lattice size: an inertia scan of every K in [k_floor, k_cap],
    then pencil solves at K*-1 and K* only, each by coercivity's method.

    build(K) returns the operator at blend width K. The scan assembles once:
    one BlendPattern, built from the first operator, answers every probe by
    refilling its values at that K's blend. K* is the smallest K the
    scan finds coercive (gamma > tol); every later change of verdict is
    flagged, so gamma need not be monotone in K. The solves at K*-1 and K*
    must agree with the scan's verdicts there, otherwise this raises.
    Returns (kstar, {K: (gamma, solve seconds)}, scan probes, flags).
    """
    where = f"eps=1/{round(1 / eps)}"
    scan, flags, boundary = [], [], {}
    kstar = last = verdict = pattern = None
    for K in range(k_floor, k_cap + 1):
        op = build(K)
        if pattern is None:
            pattern = BlendPattern(op, G)
        rep = pattern.is_coercive(op, tol, method=method, seed=seed)
        scan.append(ScanProbe(eps=eps, K=K, negative=rep.negative,
                              min_pivot=rep.min_pivot, fallback=rep.fallback))
        if kstar is None and rep.coercive:
            kstar = K
            boundary = {K - 1: last, K: op} if last is not None else {K: op}
        elif kstar is not None and rep.coercive != verdict:
            flags.append(f"sign-change:{where},K={K}")
        verdict, last = rep.coercive, op
    # the pattern lives for this scan only; the light operators at K*-1 and
    # K* are kept and assembled below, for their value solves
    del pattern
    if kstar is None:
        return None, {}, scan, [f"no-sign-change:{where}"]

    gammas, x0 = {}, None
    for K, op in boundary.items():                  # K*-1 first
        t0 = time.perf_counter()
        rep = coercivity(assemble(op), G, method=method, x0=x0, seed=seed)
        if (rep.gamma > tol) != (K == kstar):
            raise RuntimeError(
                f"pencil solve contradicts the inertia scan at {where}, K={K}: "
                f"gamma = {rep.gamma:.6e} against tol {tol:g}, K* = {kstar}")
        x0 = rep.minimizer
        gammas[K] = (rep.gamma, time.perf_counter() - t0)
    return kstar, gammas, scan, flags


def _collect_fit(results, x_of: Callable[[float], float],
                 y_of: Callable[[int], float]) -> ThresholdFit:
    """Merge per-size (N, kstar, rows, scan, flags) into a ThresholdFit,
    regressing y_of(K*) against x_of(eps)."""
    results = sorted(results, key=lambda r: -r[0])      # eps ascending
    rows = tuple(sorted((r for res in results for r in res[2]),
                        key=lambda r: (r.eps, r.K)))
    scan = tuple(p for res in results for p in res[3])
    flags = [f for res in results for f in res[4]]
    pairs = tuple((1.0 / N, ks) for N, ks, *_ in results if ks is not None)

    kstars = [ks for _, ks in pairs]
    if len(set(kstars)) == 1 and len(kstars) > 1:
        flags.append("degenerate")
    # K* may not grow as the lattice coarsens
    by_eps = sorted(pairs)                              # eps ascending
    for (e1, k1), (e2, k2) in zip(by_eps, by_eps[1:]):
        if k2 > k1:
            flags.append(f"monotonicity:eps=1/{round(1 / e2)}")
    xs = np.array([x_of(e) for e, _ in pairs])
    ys = np.array([y_of(k) for _, k in pairs])
    slope, intercept, r2 = _fit_against(xs, ys)
    return ThresholdFit(pairs=pairs, slope=slope, intercept=intercept, r2=r2,
                        rows=rows, flags=tuple(flags), scan=scan)


def sweep_threshold_1d(model: PairModel1D, eps_list: Sequence[float], K_max: int,
                       *, profile: str = "poly7", tol: float = 1e-10,
                       seed: int = 7) -> ThresholdFit:
    """Locate K*(eps) for the blended operator and fit log K* vs log(1/eps).

    K* is the smallest admissible K (floor 6) whose coercivity constant
    exceeds tol, found by an inertia scan of the window [6, min(K_max, N-1)]
    with pencil solves at K*-1 and K*. Sizes with no sign change in the
    window are flagged and excluded from the fit; every scanned K re-checks
    the divergence identity on one random displacement as a canary.
    """
    if c0(model) <= 0:
        raise ModelRangeError(
            f"model is not stable to begin with: c0 = {c0(model):.6e}")
    sizes = []
    for eps in eps_list:
        N = round(1.0 / eps)
        if N < 2 or abs(N * eps - 1.0) > 1e-9:
            raise ModelRangeError(f"eps = {eps!r} is not a reciprocal lattice size")
        sizes.append(N)

    def work(N: int):
        eps = 1.0 / N
        chain = Chain1D(N)
        rng = np.random.default_rng([seed, N])
        k_cap = min(K_max, N - 1)   # blending window must fit the period
        if k_cap < 6:
            return N, None, [], [], [f"window-too-small:eps=1/{N}"]

        def build(K: int) -> Op1D:
            blend = build_blend_1d(chain, K, profile=profile)
            _canary_1d(chain, model, blend, rng)
            return Op1D(kind="bqcf", chain=chain, model=model, blend=blend)

        kstar, gammas, scan, flags = _threshold_at_size(
            build, gram_D(chain), eps, 6, k_cap, tol, seed)
        rows = [SweepRow(eps=eps, K=K, Ra=None, Rb=None, gamma=g,
                         c0_or_gammatilde=c0(model), wallclock_seconds=dt)
                for K, (g, dt) in gammas.items()]
        return N, kstar, rows, scan, flags

    return _collect_fit([work(N) for N in sizes], lambda e: np.log(1.0 / e), np.log)


def sharpness_probe_1d(model: PairModel1D, chain: Chain1D,
                       blend: Blend1D) -> ProbeResult:
    """Rayleigh quotient of the constructed instability witness.

    Also evaluates the interface term T at the anchored representative and
    asserts the negative bound -(alpha^(1/2)/4) K^(-5/2) eps^(-1/2) with
    alpha the measured level-set fraction. A nonnegative Rayleigh quotient
    is reported as inconclusive: the witness only bounds the infimum from
    above, and indefiniteness is established when it goes negative.
    """
    _, v_anch, jset, _ = _sharpness_parts(chain, blend)
    v = project_zero_mean(v_anch)           # sharpness_test_function(chain, blend)
    op = Op1D(kind="bqcf", chain=chain, model=model, blend=blend)
    dv2 = norms(chain, diff(chain, v, 1))["l2eps"] ** 2
    ray = quad_form(op, v) / dv2

    t_anch = _rst_terms(chain, blend, v_anch).T
    alpha = jset.size / blend.K
    bound = -(alpha ** 0.5 / 4.0) * blend.K ** -2.5 * chain.eps ** -0.5
    if not t_anch <= bound + 1e-12 * (1.0 + abs(bound)):
        raise RuntimeError(
            f"interface term {t_anch:.6e} misses its negative bound {bound:.6e}")
    return ProbeResult(rayleigh=float(ray), t_term=float(t_anch),
                       t_bound=float(bound), alpha=float(alpha),
                       conclusive=bool(ray < 0.0))


def unstable_toy_model(kappa0: float = 1.0, eta: float = 0.3,
                       direction=(1.0, 0.0)) -> PairModel2D:
    """Stable nearest-neighbor springs plus one soft second-neighbor bond:
    phi''(Bb_1) = -eta u u^T has the negative eigenvalue -eta, the other two
    second-neighbor bonds are inert. Long-wave stable for eta < kappa0/2."""
    u = np.asarray(direction, dtype=float)
    u = u / np.linalg.norm(u)
    Hb = -eta * np.outer(u, u)
    Z = np.zeros((2, 2))
    I2 = np.eye(2)
    return PairModel2D(B=I2, Ha=(kappa0 * I2,) * 3, Hb=(Hb, Z, Z.copy()))


def _growth_rate(case: int, alpha: Optional[float], eps: float) -> float:
    """Predicted growth of K* in each regime of sweep_threshold_2d; alpha is
    case 2's exponent and is not read otherwise."""
    L = abs(math.log(eps))
    if case == 1:
        return L ** 0.25
    if case == 2:
        return L ** 0.2 * eps ** (-float(alpha) / 5.0)
    return eps ** -0.2


def sweep_threshold_2d(model: PairModel2D, case: int, params) -> ThresholdFit:
    """K*(eps) sweep over hexagonal blending annuli, one of three regimes.

    case 1 keeps the defect radius Ra fixed, case 2 grows it as
    round(eps^-alpha), case 3 as round(c/eps). params is a mapping with keys
    N (list of lattice sizes, required), K_max, K_min, profile, tol,
    dense_threshold, seed, and the case's Ra / alpha / c; any other key
    raises ValueError. dense_threshold only opts sizes into the dense
    reference: a size of dim <= dense_threshold solves its pencils by
    coercivity's method "dense", and no default sets it. The fit regresses
    K* against the regime's predicted growth rate. The auxiliary operator is
    required to be positive definite at the widest tested blend; its
    measured constant is recorded on each row.
    """
    if case not in (1, 2, 3):
        raise ValueError(f"case must be 1, 2 or 3, got {case!r}")
    p = dict(params)
    keys = ("N", "K_max", "K_min", "profile", "tol", "dense_threshold", "seed",
            ("Ra", "alpha", "c")[case - 1])
    unread = sorted(set(p) - set(keys))
    if unread:
        raise ValueError(f"case {case} does not read {', '.join(unread)}; its "
                         f"keys are {', '.join(keys)}")
    for key in ("N", "alpha", "c"):
        if key in keys and key not in p:
            raise ValueError(f"case {case} requires the key {key}")
    sizes = [int(n) for n in np.atleast_1d(p["N"])]
    K_max = int(p.get("K_max", 16))
    K_min = int(p.get("K_min", 1))
    profile = p.get("profile", "poly7")
    tol = float(p.get("tol", 1e-10))
    dense_threshold = p.get("dense_threshold")
    seed = int(p.get("seed", 7))

    def ra_of(N: int) -> int:
        if case == 1:
            return int(p.get("Ra", 4))
        if case == 2:
            return max(1, round(N ** float(p["alpha"])))
        return max(1, round(float(p["c"]) * N))

    def work(N: int):
        eps = 1.0 / N
        lattice = TriLattice2D(N)
        G = gram_D(lattice)
        method = ("dense" if dense_threshold is not None and G.dim <= dense_threshold
                  else "iterative")
        rng = np.random.default_rng([seed, N])
        Ra = ra_of(N)
        k_cap = min(K_max, N - Ra)
        if k_cap < K_min:
            return N, None, [], [], [f"window-too-small:eps=1/{N}"]

        blend_top = _blend_2d_sharp(lattice, Ra, Ra + k_cap, profile=profile)
        gt = coercivity(assemble_ltilde(lattice, model, blend_top), G,
                        method=method, seed=seed).gamma
        if gt <= 0:
            raise ModelRangeError(
                f"auxiliary operator not positive definite at the widest "
                f"blend (eps=1/{N}, K={k_cap}, gamma_tilde={gt:.6e})")

        count = {"n": 0}

        def build(K: int) -> Op2D:
            blend = _blend_2d_sharp(lattice, Ra, Ra + K, profile=profile)
            _canary_2d(lattice, model, blend, rng, _BONDS[count["n"] % 3])
            count["n"] += 1
            return Op2D(kind="bqcf", lattice=lattice, model=model, blend=blend)

        kstar, gammas, scan, flags = _threshold_at_size(
            build, G, eps, K_min, k_cap, tol, seed, method)
        rows = [SweepRow(eps=eps, K=K, Ra=Ra, Rb=Ra + K, gamma=g,
                         c0_or_gammatilde=gt, wallclock_seconds=dt)
                for K, (g, dt) in gammas.items()]
        return N, kstar, rows, scan, flags

    return _collect_fit([work(N) for N in sizes],
                        lambda e: _growth_rate(case, p.get("alpha"), e), float)


def construct_layer_sets(lattice: TriLattice2D, blend: Blend2D):
    """Layered sets (J, J') on the facet sector where the blend is flat
    along a3: J is the in-annulus part of the sector, J' the sites whose
    third difference drops below -(1/2)(eps K)^-3. Boolean site masks."""
    ii, jj = lattice.coords()
    ring = ring_number(lattice)
    sector = (ii >= 1) & (jj >= 0)
    J = sector & (ring > blend.Ra) & (ring <= blend.Rb)
    d1 = diff2d(lattice, blend.beta, "a1")
    d11 = diff2d(lattice, d1, "a1")
    d211 = diff2d(lattice, d11, "a2")
    thresh = -0.5 * (lattice.eps * blend.K) ** -3
    return J, J & (d211 <= thresh)


def sharpness_probe_2d(lattice: TriLattice2D, model: PairModel2D,
                       blend: Blend2D, jprime: np.ndarray) -> float:
    """Form value of the best 2D instability witness, with ||Du|| = 1.

    The witness has the fixed shape u(x) = mu(x) uhat with uhat the most
    unstable direction of the first bond Hessian; the scalar profile mu is
    optimized over the polarization-restricted pencil. Its negativity is
    carried by a background ramped across the layers J' plus a small
    lattice-scale correction there; prescribing any fixed smooth profile
    instead loses that correction and misses the instability on small
    cells. Negative return certifies indefiniteness.
    """
    H1 = model.Hb[0]
    evals, evecs = np.linalg.eigh(0.5 * (H1 + H1.T))
    if evals[0] >= -1e-12:
        raise ValueError("no unstable bond direction")
    uhat = evecs[:, 0]

    jp = np.asarray(jprime, dtype=bool)
    n = 2 * lattice.N
    if jp.shape != (n, n):
        raise ValueError(f"J' mask must have shape {(n, n)}, got {jp.shape}")
    if not jp.any():
        raise ValueError("empty J'")

    ring = ring_number(lattice)
    ii, jj = lattice.coords()
    jp_rings = np.unique(ring[jp])
    m_lo = max(int(jp_rings.min()) - 2, 2)
    m_hi = min(int(jp_rings.max()) + 2, lattice.N - 1)

    # pre: the blend is flat along a3 on the facet carrying the layer set
    facet = (ii >= 1) & (jj >= 0) & (ring >= m_lo) & (ring <= m_hi)
    d3b = diff2d(lattice, blend.beta, "a3")
    leak = float(np.max(np.abs(d3b[facet]))) if facet.any() else 0.0
    if leak > 1e-12:
        raise ValueError(f"blend varies along a3 on the layer set ({leak:.3e})")

    A = assemble(Op2D(kind="bqcf", lattice=lattice, model=model,
                      blend=blend)).sym_matrix
    G = gram_D(lattice).matrix
    # restrict both forms to fields mu uhat: entry (s, t) of the reduced
    # matrix is uhat^T A[2s:2s+2, 2t:2t+2] uhat
    nsites = n * n
    sel = sp.kron(sp.eye(nsites, format="csr"), sp.csr_matrix(uhat[:, None]))
    a_mu = sel.T @ (A @ sel)
    g_mu = sel.T @ (G @ sel)
    # constant mu is a rigid shift along uhat: the Gram kernel to deflate;
    # coercivity symmetrizes the operator, but reads the Gram matrix as given
    mu = coercivity(SparseOp(a_mu.tocsr()),
                    SparseOp((0.5 * (g_mu + g_mu.T)).tocsr(), ncomp=1)).minimizer
    u = sel @ mu
    u = u / math.sqrt(float(u @ (G @ u)))
    return float(u @ (A @ u))


# --- trace inequality quadrature ---------------------------------------

@dataclass(frozen=True)
class TraceSample:
    """Differentiable sample for the trace inequality: vectorized value and
    gradient over points of shape (..., 2)."""

    name: str
    value: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]


def sample_constant() -> TraceSample:
    return TraceSample(
        name="ones",
        value=lambda x: np.ones(x.shape[:-1]),
        grad=lambda x: np.zeros_like(x))


def sample_log() -> TraceSample:
    """u = log|x|; the gradient x/|x|^2 is singular only at the origin,
    which the annulus excludes."""
    return TraceSample(
        name="log",
        value=lambda x: 0.5 * np.log(np.sum(x * x, axis=-1)),
        grad=lambda x: x / np.sum(x * x, axis=-1, keepdims=True))


def sample_poly(rng: np.random.Generator) -> TraceSample:
    """Random polynomial of total degree <= 3 with its exact gradient: ten
    standard normal coefficients c_ab of x^a y^b, drawn for a = 0..3 and,
    within each a, b = 0..3 - a."""
    a, b = np.array([(a, b) for a in range(4) for b in range(4) if a + b <= 3]).T
    coef = np.zeros((4, 4))
    coef[a, b] = rng.standard_normal(a.size)
    poly = np.polynomial.polynomial
    dx, dy = poly.polyder(coef, axis=0), poly.polyder(coef, axis=1)
    return TraceSample(
        name="poly",
        value=lambda x: poly.polyval2d(x[..., 0], x[..., 1], coef),
        grad=lambda x: np.stack([poly.polyval2d(x[..., 0], x[..., 1], d)
                                 for d in (dx, dy)], axis=-1))


def _trace_quadrature(psi: str, r0: float, r1: float, u: TraceSample, n: int):
    """(lhs, l2, h1) at one quadrature level: boundary integral of |u|^2 on
    the inner gauge sphere, and the L2 / gradient integrals on the annulus.
    Radial panels are geometric toward r0 where the witness concentrates.
    The gauge only picks the points v of the unit gauge sphere, n per sixth,
    and their weights in length and area |v x dv|, in units of the Gauss
    weights ws: ws and (sqrt(3)/2) ws on the hexagon, (pi/3) ws on the circle."""
    xg, wg = np.polynomial.legendre.leggauss(n)
    edges = r0 * (r1 / r0) ** (np.arange(n + 1) / n)
    rn = np.concatenate([0.5 * (b - a) * xg + 0.5 * (a + b)
                         for a, b in zip(edges, edges[1:])])
    rw = np.concatenate([0.5 * (b - a) * wg for a, b in zip(edges, edges[1:])])

    s, ws = 0.5 * (xg + 1.0), 0.5 * wg
    if psi == "hexagon":
        t = np.arange(7) * math.pi / 3
        verts = np.stack([np.cos(t), np.sin(t)], axis=-1)
        v = verts[:-1, None] + s[:, None] * (verts[1:] - verts[:-1])[:, None]
        dl, da = ws, 0.5 * math.sqrt(3.0) * ws
    else:
        t = (np.arange(6)[:, None] + s) * (math.pi / 3)
        v = np.stack([np.cos(t), np.sin(t)], axis=-1)
        dl = da = ws * (math.pi / 3)
    lhs = float(np.sum(u.value(r0 * v) ** 2 * dl)) * r0
    pts = rn[:, None, None, None] * v
    wt = (rn * rw)[:, None, None] * da
    l2 = float(np.sum(u.value(pts) ** 2 * wt))
    h1 = float(np.sum(np.sum(u.grad(pts) ** 2, axis=-1) * wt))
    return lhs, l2, h1


def trace_check(psi: str, r0: float, r1: float, u: TraceSample,
                quad_n: int = 8) -> dict:
    """Verify the annulus trace inequality by refined Gauss quadrature.

    lhs is the |u|^2 integral over the sphere of radius r0 of the gauge psi;
    rhs = C0 ||u||^2_{L2(A)} + C1 ||grad u||^2_{L2(A)} over the annulus
    A = {r0 <= psi(x) <= r1}, with C0 = (2d/(r1-r0))(r0/r1)^(d-1) and
    C1 = 2 r0 |log r0| at d = 2. Refines the rule until the ratio settles
    to 1e-6 relative and raises if three doublings do not."""
    if psi not in ("hexagon", "circle"):
        raise ValueError(f"unknown gauge {psi!r}: expected hexagon or circle")
    if not 0.0 < r0 < r1 <= 1.0:
        raise ModelRangeError(f"need 0 < r0 < r1 <= 1, got r0={r0!r}, r1={r1!r}")
    if not isinstance(u, TraceSample):
        raise TypeError("u must be a TraceSample")

    C0 = (4.0 / (r1 - r0)) * (r0 / r1)
    C1 = 2.0 * r0 * abs(math.log(r0))

    prev = None
    for level in range(4):
        n = quad_n * 2 ** level
        lhs, l2, h1 = _trace_quadrature(psi, r0, r1, u, n)
        rhs = C0 * l2 + C1 * h1
        ratio = lhs / rhs
        if prev is not None and abs(ratio - prev) <= 1e-6 * max(1.0, abs(ratio)):
            return {"lhs": lhs, "rhs": rhs, "ratio": ratio, "C0": C0, "C1": C1}
        prev = ratio
    raise RuntimeError(
        f"quadrature did not settle: last two ratios differ by "
        f"{abs(ratio - prev):.3e}")


# --- config-driven experiment drivers -----------------------------------
# each runner reads the config run() resolved: every key of its EXPERIMENTS
# entry, checked, and at its default when unset

def _run_verify(cfg):
    suite, draws, seed = cfg["suite"], cfg["draws"], cfg["seed"]
    rows, checks = [], []

    if suite in ("identities-1d", "all"):
        model = PairModel1D(cfg["phiF"], cfg["phi2F"])
        for N in cfg["n1d"]:
            chain = Chain1D(N)
            rng = np.random.default_rng([seed, N])
            worst = 0.0
            for k in range(draws):
                if k % 2 == 0 and chain.N >= 8:
                    K = int(rng.integers(6, chain.N))
                    blend = build_blend_1d(chain, K)
                else:
                    blend = blend_from_samples(chain, rng.uniform(size=2 * chain.N))
                worst = max(worst, _divergence_residual_1d(chain, model, blend, rng))
            rows.append({"suite": "identities-1d", "N": N, "draws": draws,
                         "max_residual": worst})

    if suite in ("identities-2d", "all"):
        model = unstable_toy_model(cfg["kappa0"], cfg["eta"])
        for N in cfg["n2d"]:
            lattice = TriLattice2D(N)
            rng = np.random.default_rng([seed, 2, N])
            worst = 0.0
            for k in range(draws):
                beta = rng.uniform(size=(2 * lattice.N, 2 * lattice.N))
                blend = Blend2D(lattice=lattice, beta=beta, Ra=0, Rb=lattice.N,
                                profile="custom", margined=False)
                worst = max(worst, _divergence_residual_2d(lattice, model, blend,
                                                           rng, _BONDS[k % 3]))
            rows.append({"suite": "identities-2d", "N": N, "draws": draws,
                         "max_residual": worst})
    # each row holds the maximum at its own size; a suite's verdict, all sizes
    for name in ("identities-1d", "identities-2d"):
        if suite in (name, "all"):
            worst = max((r["max_residual"] for r in rows if r["suite"] == name),
                        default=0.0)
            checks.append((name, worst <= 1e-10, f"max residual {worst:.3e}"))
    fit = {"max_residual": max(r["max_residual"] for r in rows)}
    return rows, fit, checks, _plot_generic("max_residual vs N", rows, "max_residual")


def _rows_from_sweep(fit: ThresholdFit):
    return [{"eps": r.eps, "K": r.K, "Ra": "" if r.Ra is None else r.Ra,
             "Rb": "" if r.Rb is None else r.Rb, "gamma": r.gamma,
             "c0_or_gammatilde": r.c0_or_gammatilde,
             "wallclock_seconds": r.wallclock_seconds} for r in fit.rows]


def _fit_json(fit: ThresholdFit) -> dict:
    return {"pairs": [[e, k] for e, k in fit.pairs], "slope": fit.slope,
            "intercept": fit.intercept, "r2": fit.r2, "flags": list(fit.flags),
            "scan": [{"eps": p.eps, "K": p.K, "negative": p.negative,
                      "min_pivot": p.min_pivot, "fallback": p.fallback}
                     for p in fit.scan]}


def _sweep_checks(fit: ThresholdFit) -> list:
    fallbacks = sum(p.fallback for p in fit.scan)
    return [("fit-computed", len(fit.pairs) >= 1,
             f"{len(fit.pairs)} thresholds from {len(fit.scan)} inertia probes "
             f"({fallbacks} decided by a pencil solve), flags {list(fit.flags)}")]


def _plot_sweep(fit: ThresholdFit, xlabel: str) -> str:
    lines = ["set datafile separator ','",
             "set logscale xy",
             f"set xlabel '{xlabel}'",
             "set ylabel 'K*'",
             "$thresholds << EOD"]
    lines += [f"{1.0 / e:.17g},{k}" for e, k in fit.pairs]
    lines += ["EOD",
              f"fitline(x) = exp({fit.intercept:.17g}) * x**{fit.slope:.17g}",
              "plot $thresholds using 1:2 with points pt 7 title 'K*', \\",
              "     fitline(x) with lines title 'fit'"]
    return "\n".join(lines) + "\n"


def _plot_generic(title: str, rows: list, column: str) -> str:
    """gnuplot script drawing the result column of rows.csv against row number."""
    return ("set datafile separator ','\n"
            "set key autotitle columnhead\n"
            f"set title '{title}'\n"
            f"plot 'rows.csv' using 0:{list(rows[0]).index(column) + 1} "
            "with linespoints\n")


def _run_sweep1d(cfg):
    fit = sweep_threshold_1d(PairModel1D(cfg["phiF"], cfg["phi2F"]), cfg["eps"],
                             cfg["kmax"], profile=cfg["profile"], tol=cfg["tol"],
                             seed=cfg["seed"])
    checks = _sweep_checks(fit)
    if len(fit.pairs) >= 3 and "degenerate" not in fit.flags:
        lo, hi = 0.15, 0.25             # around the paper's threshold exponent 1/5
        checks.append(("slope-window", lo <= fit.slope <= hi,
                       f"slope {fit.slope:.4f} in [{lo}, {hi}]"))
        checks.append(("fit-quality", fit.r2 >= 0.9, f"r2 {fit.r2:.4f} >= 0.9"))
    return _rows_from_sweep(fit), _fit_json(fit), checks, _plot_sweep(fit, "1/eps")


# (params key of sweep_threshold_2d, config key) that case 1, 2, 3 reads
_CASE_KEYS = (("Ra", "ra"), ("alpha", "alpha"), ("c", "c"))


def _run_sweep2d(cfg):
    case = cfg["case"]
    param, key = _CASE_KEYS[case - 1]
    params = {"N": cfg["n"], "K_max": cfg["kmax"], "K_min": cfg["kmin"],
              "profile": cfg["profile"], "tol": cfg["tol"], "seed": cfg["seed"],
              param: cfg[key]}
    fit = sweep_threshold_2d(unstable_toy_model(cfg["kappa0"], cfg["eta"]), case, params)
    checks = _sweep_checks(fit)
    if len(fit.pairs) >= 2:
        resid = max(abs(k - (fit.slope * _growth_rate(case, cfg["alpha"], e)
                             + fit.intercept)) for e, k in fit.pairs)
        checks.append(("bounded-growth", resid <= 2.0,      # in blend widths
                       f"max |K* - fit| = {resid:.3f} <= 2.0"))
    return (_rows_from_sweep(fit), _fit_json(fit), checks,
            _plot_sweep(fit, "1/eps"))


def _run_sharp1d(cfg):
    model = PairModel1D(cfg["phiF"], cfg["phi2F"])
    chain = Chain1D(cfg["n"])
    rows, checks, probes = [], [], []
    for k in cfg["k"]:
        blend = build_blend_1d(chain, k, profile=cfg["profile"])
        res = sharpness_probe_1d(model, chain, blend)
        verdict = "indefinite" if res.conclusive else "inconclusive"
        rows.append({"eps": chain.eps, "K": blend.K, "rayleigh": res.rayleigh,
                     "t_term": res.t_term, "t_bound": res.t_bound,
                     "alpha": res.alpha, "verdict": verdict})
        checks.append((f"interface-term-K{blend.K}", True,
                       f"T {res.t_term:.4e} <= bound {res.t_bound:.4e}"))
        probes.append(res)
    best = min(probes, key=float)                       # the lowest Rayleigh quotient
    verdict = "indefinite" if best.conclusive else "inconclusive"
    fit = {"rayleigh": best.rayleigh, "c0": c0(model), "verdict": verdict}
    return rows, fit, checks, _plot_generic("1d sharpness probe", rows, "rayleigh")


def _run_sharp2d(cfg):
    model = unstable_toy_model(cfg["kappa0"], cfg["eta"])
    lattice = TriLattice2D(cfg["n"])
    Ra = cfg["ra"]
    rows, checks = [], []
    for K in cfg["k"]:
        blend = _blend_2d_sharp(lattice, Ra, Ra + K, profile=cfg["profile"])
        _, jprime = construct_layer_sets(lattice, blend)
        value = sharpness_probe_2d(lattice, model, blend, jprime)
        verdict = "indefinite" if value < 0 else "inconclusive"
        rows.append({"eps": lattice.eps, "K": K, "Ra": Ra, "Rb": Ra + K,
                     "form_value": value, "verdict": verdict})
        checks.append((f"probe-ran-K{K}", True, f"form {value:.4e}"))
    worst = min(r["form_value"] for r in rows)
    fit = {"form_value": worst,
           "verdict": "indefinite" if worst < 0 else "inconclusive"}
    return rows, fit, checks, _plot_generic("2d sharpness probe", rows, "form_value")


def _run_poincare(cfg):
    rows, normd = [], []
    for N in cfg["n"]:
        lattice = TriLattice2D(N)
        Ra, Rb = round(cfg["ra_frac"] * N), round(cfg["rb_frac"] * N)
        if Rb <= Ra:
            raise ModelRangeError(f"the blending annulus is empty at N = {N}: "
                                  f"Ra = {Ra}, Rb = {Rb}")
        t0 = time.perf_counter()
        ratio = poincare_discrete(lattice, make_regions(lattice, Ra, Rb))
        dt = time.perf_counter() - t0
        epsK = lattice.eps * (Rb - Ra)
        epsRb = lattice.eps * Rb
        cp2 = epsK * epsRb * abs(math.log(epsRb))
        rows.append({"N": N, "Ra": Ra, "Rb": Rb, "ratio": ratio, "cp2": cp2,
                     "normalized": ratio / cp2, "wallclock_seconds": dt})
        normd.append(ratio / cp2)
    window = 50.0       # the ratio follows its scaling up to a constant factor
    spread = max(normd) / min(normd) if min(normd) > 0 else float("inf")
    ok = spread <= window and all(1 / window <= v <= window for v in normd)
    checks = [("poincare-window", ok,
               f"normalized ratios {', '.join(f'{v:.4f}' for v in normd)}, "
               f"spread {spread:.3f} <= {window}")]
    fit = {"normalized": normd, "spread": spread}
    return rows, fit, checks, _plot_generic("poincare ratio", rows, "normalized")


def _run_trace(cfg):
    rng = np.random.default_rng(cfg["seed"])
    rows = []
    ok_dir = ok_log = True
    for r0 in cfg["r0"]:
        samples = [sample_constant(), sample_log()]
        samples += [sample_poly(rng) for _ in range(cfg["npoly"])]
        for s in samples:
            out = trace_check(cfg["psi"], r0, cfg["r1"], s, cfg["quad_n"])
            rows.append({"sample": s.name, "r0": r0, "lhs": out["lhs"],
                         "rhs": out["rhs"], "ratio": out["ratio"]})
            if out["ratio"] > 1.0 + 1e-3:
                ok_dir = False
            if s.name == "log" and out["ratio"] < 0.01:
                ok_log = False
    worst = max(r["ratio"] for r in rows)
    checks = [("trace-direction", ok_dir, f"max ratio {worst:.6f} <= 1.001"),
              ("log-sharpness", ok_log, "log witness ratio >= 0.01")]
    return (rows, {"max_ratio": worst}, checks,
            _plot_generic("trace ratios", rows, "ratio"))


def _run_stability(cfg):
    space, kind, profile = cfg["space"], cfg["kind"], cfg["profile"]
    # n, k and ra are None when unset: their defaults follow from space and n
    n, k, ra = cfg["n"], cfg["k"], cfg["ra"]
    _checked("kind", kind, ops1d._KINDS if space == "1d" else _KINDS_2D)
    blend = None
    if space == "1d":
        model = PairModel1D(cfg["phiF"], cfg["phi2F"])
        chain = Chain1D(64 if n is None else n)
        if kind in ops1d._BLENDED:
            blend = build_blend_1d(chain, 8 if k is None else k, profile=profile)
        A = assemble(Op1D(kind=kind, chain=chain, model=model, blend=blend))
        G = gram_D(chain)
        base = c0(model)
    else:
        model = unstable_toy_model(cfg["kappa0"], cfg["eta"])
        lattice = TriLattice2D(8 if n is None else n)
        if kind in _BLENDED_2D:
            Ra = lattice.N // 4 if ra is None else ra
            K = lattice.N // 4 if k is None else k
            blend = _blend_2d_sharp(lattice, Ra, Ra + K, profile=profile)
        # L-tilde is a form on the blend, not an operator kind
        A = (assemble_ltilde(lattice, model, blend) if kind == "ltilde"
             else assemble(Op2D(kind=kind, lattice=lattice, model=model, blend=blend)))
        G = gram_D(lattice)
        base = float("nan")
    rep = coercivity(A, G, method=cfg["method"], seed=cfg["seed"])
    rows = [{"space": space, "kind": kind, "gamma": rep.gamma,
             "method": rep.method, "residual": rep.residual,
             "iterations": rep.iterations, "dim": A.dim,
             "factorizations": rep.factorizations, "shift": rep.shift,
             "nnz": rep.nnz, "c0": base}]
    fit = {"gamma": rep.gamma, "method": rep.method}
    return rows, fit, [("solved", True, f"gamma {rep.gamma:.6e}")], \
        _plot_generic("stability", rows, "gamma")


_RUNNERS = {"verify": _run_verify, "sweep1d": _run_sweep1d,
            "sweep2d": _run_sweep2d, "sharp1d": _run_sharp1d,
            "sharp2d": _run_sharp2d, "poincare": _run_poincare,
            "trace": _run_trace, "stability": _run_stability}


@dataclass(frozen=True)
class _When:
    """An EXPERIMENTS entry read only when every key of when holds one of
    its values; set otherwise, it is a config error."""

    spec: object
    when: dict

    def holds(self, cfg: dict) -> bool:
        return all(cfg[key] in values for key, values in self.when.items())


def _only(spec, **when) -> _When:
    return _When(spec, when)


_IDS_1D, _IDS_2D = ("all", "identities-1d"), ("all", "identities-2d")
# stability also solves the auxiliary form L-tilde, on the 2D kinds' blend
_KINDS_2D, _BLENDED_2D = ops2d._KINDS + ("ltilde",), ops2d._BLENDED + ("ltilde",)
_BLENDED_KINDS = tuple(dict.fromkeys(ops1d._BLENDED + _BLENDED_2D))

# The config keys each experiment reads besides experiment and out, each at
# its default; a value set must have the default's type (an int passes as a
# float, one value as a one-item list). A tuple holds the choices, the first
# the default; a bare type leaves the key None for its runner to derive; _only
# marks a key read only under some values of other keys.
EXPERIMENTS = {
    "verify": {"suite": ("all", "identities-1d", "identities-2d"), "draws": 100,
               "n1d": _only([8, 64, 512], suite=_IDS_1D),
               "n2d": _only([4, 8, 16], suite=_IDS_2D),
               "phiF": _only(1.0, suite=_IDS_1D), "phi2F": _only(-0.24, suite=_IDS_1D),
               "kappa0": _only(1.0, suite=_IDS_2D), "eta": _only(0.3, suite=_IDS_2D),
               "seed": 7},
    "sweep1d": {"phiF": 1.0, "phi2F": -0.24,
                "eps": [1 / 128, 1 / 256, 1 / 512, 1 / 1024, 1 / 2048],
                "kmax": 64, "profile": PROFILES, "tol": 1e-10, "seed": 7},
    "sweep2d": {"case": (1, 2, 3), "n": [8, 12, 16, 24], "ra": _only(4, case=(1,)),
                "alpha": _only(0.5, case=(2,)), "c": _only(0.125, case=(3,)),
                "kmax": 16, "kmin": 1, "kappa0": 1.0, "eta": 0.3,
                "profile": PROFILES, "tol": 1e-10, "seed": 7},
    "sharp1d": {"phiF": 1.0, "phi2F": -0.24, "n": 512, "k": [6],
                "profile": PROFILES},
    "sharp2d": {"n": 24, "ra": 4, "k": [3], "kappa0": 1.0, "eta": 0.3,
                "profile": PROFILES},
    "poincare": {"n": [8, 16, 32, 64], "ra_frac": 0.125, "rb_frac": 0.25},
    "trace": {"psi": ("hexagon", "circle"), "r0": [1e-2, 1e-3, 1e-4],
              "r1": 1.0, "quad_n": 8, "npoly": 20, "seed": 7},
    "stability": {"space": ("1d", "2d"),
                  "kind": tuple(dict.fromkeys(("bqcf",) + ops1d._KINDS + _KINDS_2D)),
                  "n": int, "k": _only(int, kind=_BLENDED_KINDS),
                  "ra": _only(int, space=("2d",), kind=_BLENDED_2D),
                  "phiF": _only(1.0, space=("1d",)), "phi2F": _only(-0.24, space=("1d",)),
                  "kappa0": _only(1.0, space=("2d",)), "eta": _only(0.3, space=("2d",)),
                  "method": METHODS, "profile": _only(PROFILES, kind=_BLENDED_KINDS),
                  "seed": 7},
}


def _checked(key: str, value, spec):
    """value, set for key, checked against its EXPERIMENTS entry spec."""
    if isinstance(spec, _When):
        return _checked(key, value, spec.spec)
    if isinstance(spec, tuple):
        if value not in spec or type(value) is not type(spec[0]):
            raise ConfigError(f"unknown {key} {value!r}; expected one of "
                              f"{', '.join(map(str, spec))}")
        return value
    if isinstance(spec, list):
        items = value if isinstance(value, list) else [value]
        return [_checked(key, v, spec[0]) for v in items]
    want = spec if isinstance(spec, type) else type(spec)
    if want is float and type(value) is int:
        return float(value)
    if type(value) is not want:
        raise ConfigError(f"{key} must be {want.__name__}, got {value!r}")
    return value


def _default(spec):
    if isinstance(spec, _When):
        return _default(spec.spec)
    return spec[0] if isinstance(spec, tuple) else None if isinstance(spec, type) else spec


def _resolve(name: str, cfg: dict) -> dict:
    """The config the runner of experiment name reads: every key of its
    EXPERIMENTS entry, checked, or at its default when cfg does not set it.
    A key set where the values of other keys leave it unread is an error."""
    table = EXPERIMENTS[name]
    unread = sorted(set(cfg) - {"experiment", "out"} - set(table))
    if unread:
        raise ConfigError(f"{name} does not read {', '.join(unread)}; its keys "
                          f"are {', '.join(table)}")
    out = {key: _checked(key, cfg[key], spec) if key in cfg else _default(spec)
           for key, spec in table.items()}
    when = {key: spec for key, spec in table.items() if isinstance(spec, _When)}
    unread = {}                     # by the first key whose value leaves them unread
    for key, spec in when.items():
        if key in cfg and not spec.holds(out):
            other = next(k for k, values in spec.when.items() if out[k] not in values)
            unread.setdefault(other, []).append(key)
    for other, keys in unread.items():
        read = [key for key, spec in when.items() if other in spec.when and spec.holds(out)]
        raise ConfigError(f"{name} {other} {out[other]} does not read {', '.join(keys)}"
                          + (f"; it reads {', '.join(read)}" if read else ""))
    return out


def _write_rows(path: str, rows: list) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if not rows:
            return
        w = csv.DictWriter(fh, fieldnames=list(rows[0]))
        w.writeheader()
        w.writerows({k: format_value(v) for k, v in row.items()} for row in rows)


def run(config, out_dir: Optional[str] = None) -> int:
    """Execute one named experiment from a config mapping or file path.

    Writes rows.csv, fit.json, summary.txt and plot.gp into the output
    directory and returns the exit code: 0 when every check passed, 1 when
    a check failed. Malformed configs, keys the experiment does not read,
    and values of the wrong type or outside their choices raise ConfigError
    (exit code 2 at the command line) before the experiment starts."""
    cfg = load_config(config) if isinstance(config, str) else dict(config)
    name = cfg.get("experiment")
    if name not in _RUNNERS:
        raise ConfigError(f"unknown or missing experiment {name!r}; "
                          f"expected one of {sorted(_RUNNERS)}")
    if not isinstance(cfg.get("out", ""), str):
        raise ConfigError(f"out {cfg['out']!r} is not a path")
    out = out_dir or cfg.get("out") or "bqcf_out"
    cfg = _resolve(name, cfg)                   # before the output directory exists
    os.makedirs(out, exist_ok=True)
    try:
        rows, fit, checks, plot = _RUNNERS[name](cfg)
    except ModelRangeError as err:              # a value the library rejects
        raise ConfigError(str(err)) from err

    _write_rows(os.path.join(out, "rows.csv"), rows)
    with open(os.path.join(out, "fit.json"), "w", encoding="utf-8") as fh:
        json.dump(fit, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(out, "plot.gp"), "w", encoding="utf-8") as fh:
        fh.write(plot)
    ok = all(passed for _, passed, _ in checks)
    lines = [f"experiment: {name}"]
    lines += [f"{'PASS' if passed else 'FAIL'} {cname}: {detail}"
              for cname, passed, detail in checks]
    lines.append(f"overall: {'PASS' if ok else 'FAIL'}")
    with open(os.path.join(out, "summary.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print("\n".join(lines))
    if not ok:
        failed = ", ".join(cname for cname, passed, _ in checks if not passed)
        print(f"failed checks: {failed}")
    return 0 if ok else 1
