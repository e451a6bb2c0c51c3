"""The three workloads: fixed inputs, one round of queries, answer checks.

A query is one stability question put to the program: one K probed by a
threshold sweep, or one constant computed. A round asks every query of
its workload once, through the library's public entry points, looked up
on their modules at call time so that the tracer's wrappers see them.
The seed goes to the program's own seed parameters (canary draws, LOBPCG
start block); the inputs themselves are the same for every seed.

check() runs after the timed rounds and returns the failure reasons of
every query, round by round.
"""

from __future__ import annotations

import numpy as np

import oracles
from bqcf import experiments, lattice2d, ops1d, ops2d, potentials, spectral
from bqcf.lattice1d import Chain1D
from bqcf.lattice2d import TriLattice2D

TOL = 1e-10          # the sweeps' sign tolerance (their default)
RTOL = 1e-8          # constants against their oracles
REPEAT_RTOL = 1e-9   # later rounds against the first


class Capture:
    """Keeps (op, report) of every probe a sweep solves, by wrapping the
    two calls each probe makes: assemble(op), then coercivity(A, G)."""

    def __init__(self) -> None:
        self.probes: list = []
        self._ops: dict = {}

    def install(self):
        assemble, coercivity = experiments.assemble, experiments.coercivity

        def assemble_rec(op):
            sop = assemble(op)
            self._ops[id(sop)] = op
            return sop

        def coercivity_rec(A, G, **kwargs):
            rep = coercivity(A, G, **kwargs)
            op = self._ops.pop(id(A), None)
            if op is not None:
                self.probes.append((op, rep))
            return rep

        experiments.assemble, experiments.coercivity = assemble_rec, coercivity_rec

        def undo() -> None:
            experiments.assemble, experiments.coercivity = assemble, coercivity

        return undo


class Threshold:
    """A K*(eps) sweep; each probed K is a query."""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def run_round(self) -> dict:
        cap = Capture()
        undo = cap.install()
        try:
            fit = self.sweep()
            error = None
        except Exception as err:    # a raising sweep fails its queries
            fit, error = None, f"{type(err).__name__}: {err}"
        finally:
            undo()
        probes = {(self.size(op), self.k_of(op)): (op, rep) for op, rep in cap.probes}
        if fit is None:
            return {"queries": sorted(probes) + [("sweep", 0)], "error": error,
                    "kstar": {}, "gamma": {}, "probes": probes}
        return {"queries": [(round(1 / r.eps), r.K) for r in fit.rows],
                "error": None,
                "kstar": {round(1 / e): k for e, k in fit.pairs},
                "gamma": {(round(1 / r.eps), r.K): r.gamma for r in fit.rows},
                "probes": probes}

    @staticmethod
    def summary(answer: dict) -> dict:
        out = {("gamma",) + q: g for q, g in answer["gamma"].items()}
        out.update({("kstar", N): k for N, k in answer["kstar"].items()})
        if answer["error"]:
            out[("error",)] = answer["error"]
        return out

    def check(self, rounds: list) -> list:
        """Failure reasons by query, one dict per round. The first round is
        certified; a later answer fails where it differs from the first,
        or repeats a first answer that failed."""
        first = rounds[0]
        bad0 = self.certify(first)
        out = [bad0]
        for later in rounds[1:]:
            bad = {q: bad0[q] for q in later["queries"] if q in bad0}
            for q in later["queries"]:
                same = (q in first["gamma"] and q in later["gamma"]
                        and oracles.close(later["gamma"][q], first["gamma"][q],
                                          REPEAT_RTOL))
                if not same or later["kstar"].get(q[0]) != first["kstar"].get(q[0]):
                    bad.setdefault(q, []).append("differs from the first round")
            out.append(bad)
        return out

    def certify(self, first: dict) -> dict:
        bad: dict = {}

        def fail(q, why):
            bad.setdefault(q, []).append(why)

        if first["error"]:
            for q in first["queries"]:
                fail(q, first["error"])
            return bad
        by_size: dict = {}
        for q in first["queries"]:
            by_size.setdefault(q[0], []).append(q)
        for N, qs in sorted(by_size.items()):
            ks = first["kstar"].get(N)
            if ks is None:
                for q in qs:
                    fail(q, "no K* located")
                continue
            lo, hi = first["probes"].get((N, ks - 1)), first["probes"].get((N, ks))
            if lo is None or hi is None:
                fail((N, ks), "K* - 1 or K* was not evaluated")
                continue
            G = self.gram(N)
            below = oracles.coercive_beyond(self.dense(lo[0]), G, self.ncomp, TOL)
            at = oracles.coercive_beyond(self.dense(hi[0]), G, self.ncomp, TOL)
            if not oracles.kstar_certified(below, at):
                why = f"inertia: coercive at K*-1 {below}, at K* {at}"
                fail((N, ks - 1), why)
                fail((N, ks), why)
            value = self.stencil_form(*lo)
            if not oracles.witness_negative(value):
                fail((N, ks - 1), f"minimizer form {value:.3e} is not negative")
        return bad


class Threshold1D(Threshold):
    name = "threshold-1d"
    ncomp = 1

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.model = potentials.PairModel1D(phiF=1.0, phi2F=-0.24)
        self.eps = [1 / 128, 1 / 256, 1 / 512, 1 / 1024]
        self.kmax = 64

    def sweep(self):
        return experiments.sweep_threshold_1d(self.model, self.eps, self.kmax,
                                              seed=self.seed)

    @staticmethod
    def size(op) -> int:
        return op.chain.N

    @staticmethod
    def k_of(op) -> int:
        return op.blend.K // 2         # a 1D blend's interface holds 2K sites

    @staticmethod
    def gram(N: int) -> np.ndarray:
        return oracles.gram_1d(N)

    @staticmethod
    def dense(op) -> np.ndarray:
        return oracles.form_matrix(lambda u: ops1d.apply_op(op, u),
                                   (op.chain.nsites,), op.chain.eps)

    @staticmethod
    def stencil_form(op, rep) -> float:
        return ops1d.quad_form(op, rep.minimizer)

    def certify(self, first: dict) -> dict:
        bad = super().certify(first)
        pairs = [(1.0 / N, k) for N, k in first["kstar"].items()]
        for N in oracles.monotone_violations(pairs):
            finer = min((n for n in first["kstar"] if n > N), default=None)
            for n in (N, finer):
                if n is not None:
                    bad.setdefault((n, first["kstar"][n]), []).append(
                        "K* decreases as eps shrinks")
        return bad


class Threshold2D(Threshold):
    name = "threshold-2d"
    ncomp = 2

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.model = experiments.unstable_toy_model(2.04, 1.0)
        self.params = {"N": [12, 16], "Ra": 4, "K_max": 16, "K_min": 1,
                       "dense_threshold": 1000, "seed": seed}

    def sweep(self):
        return experiments.sweep_threshold_2d(self.model, 1, self.params)

    @staticmethod
    def size(op) -> int:
        return op.lattice.N

    @staticmethod
    def k_of(op) -> int:
        return op.blend.K

    @staticmethod
    def gram(N: int) -> np.ndarray:
        return oracles.gram_2d(N)

    @staticmethod
    def dense(op) -> np.ndarray:
        return oracles.form_matrix_2d(lambda u: ops2d.apply2d(op, u), op.lattice.N,
                                      op.lattice.eps ** 2)

    @staticmethod
    def stencil_form(op, rep) -> float:
        n = 2 * op.lattice.N
        u = rep.minimizer.reshape(n, n, 2)
        return lattice2d.inner2d(op.lattice, ops2d.apply2d(op, u), u)


class Constants:
    """Value questions with a closed form or an oracle; each is a query."""

    name = "constants"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.model1 = potentials.PairModel1D(phiF=1.0, phi2F=-0.24)
        self.model2 = potentials.hessians_from_radial(potentials.morse(), np.eye(2))
        self.queries = ([("1d", kind, N) for N in (64, 256, 1024)
                         for kind in ("atomistic", "qcl")]
                        + [("2d", kind, N) for N in (12, 24)
                           for kind in ("atomistic", "cauchy_born")]
                        + [("poincare", "annulus", N) for N in (16, 32, 64)])

    def ask(self, space: str, kind: str, N: int) -> float:
        if space == "1d":
            chain = Chain1D(N)
            op = ops1d.Op1D(kind=kind, chain=chain, model=self.model1)
            return spectral.coercivity(spectral.assemble(op), spectral.gram_D(chain),
                                       seed=self.seed).gamma
        lattice = TriLattice2D(N)
        if space == "2d":
            op = ops2d.Op2D(kind=kind, lattice=lattice, model=self.model2)
            return spectral.coercivity(spectral.assemble(op), spectral.gram_D(lattice),
                                       seed=self.seed).gamma
        regions = lattice2d.make_regions(lattice, N // 8, N // 4)
        return ops2d.poincare_discrete(lattice, regions, seed=self.seed)

    def run_round(self) -> dict:
        values, errors = {}, {}
        for q in self.queries:
            try:
                values[q] = self.ask(*q)
            except Exception as err:    # a raising query fails alone
                errors[q] = f"{type(err).__name__}: {err}"
        return {"queries": list(self.queries), "values": values, "errors": errors}

    @staticmethod
    def summary(answer: dict) -> dict:
        return dict(answer["values"])

    def oracle(self, space: str, kind: str, N: int):
        """(reference, rtol) or, for a window check, (scale, None)."""
        m1, m2 = self.model1, self.model2
        if space == "1d" and kind == "atomistic":
            return oracles.atomistic_1d(m1.phiF, m1.phi2F, N), RTOL
        if space == "1d":
            return oracles.qcl_1d(m1.phiF, m1.phi2F), RTOL
        if space == "2d":
            return oracles.symbol_min_2d(kind, m2.Ha, m2.Hb, N), RTOL
        if N <= 16:
            return oracles.poincare_dense(N, N // 8, N // 4), RTOL
        return oracles.poincare_scale(N, N // 8, N // 4), None

    def check(self, rounds: list) -> list:
        """Failure reasons by query, one dict per round; every round is
        judged against the oracles, which are computed once."""
        refs = {q: self.oracle(*q) for q in self.queries}
        out = []
        for answer in rounds:
            bad = {q: [e] for q, e in answer["errors"].items()}
            for q, value in answer["values"].items():
                ref, rtol = refs[q]
                ok = (oracles.in_window(value, ref) if rtol is None
                      else oracles.close(value, ref, rtol))
                if not ok:
                    bad[q] = [f"value {value!r} against reference {ref!r}"]
            out.append(bad)
        return out


WORKLOADS = {cls.name: cls for cls in (Threshold1D, Threshold2D, Constants)}
