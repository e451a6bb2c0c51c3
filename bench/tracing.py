"""Spans around the program's layer entry points, recorded from outside.

Tracer.install() replaces module attributes with wrappers and returns a
function that puts the originals back. A span is (name, start, end,
parent); spans stay in memory until the run writes them out. Nothing in
the program is edited: each entry point is wrapped under the name its
callers look it up by.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter

# (span name, [(module, attribute), ...]); one wrapper per function, set
# under every name the program or the benchmark calls it by
LAYERS = (
    ("experiments.sweep", [("bqcf.experiments", "sweep_threshold_1d"),
                           ("bqcf.experiments", "sweep_threshold_2d")]),
    ("experiments.canary", [("bqcf.experiments", "_canary_1d"),
                            ("bqcf.experiments", "_canary_2d")]),
    ("blend.build", [("bqcf.experiments", "build_blend_1d"),
                     ("bqcf.experiments", "_blend_2d_sharp")]),
    ("spectral.assemble", [("bqcf.experiments", "assemble"),
                           ("bqcf.spectral", "assemble")]),
    ("ops1d.assemble_triplets", [("bqcf.ops1d", "assemble_triplets")]),
    ("ops2d.assemble_triplets", [("bqcf.ops2d", "assemble_triplets")]),
    ("ops2d.assemble_ltilde", [("bqcf.experiments", "assemble_ltilde")]),
    ("spectral.gram_D", [("bqcf.experiments", "gram_D"),
                         ("bqcf.spectral", "gram_D")]),
    ("spectral.coercivity", [("bqcf.experiments", "coercivity"),
                             ("bqcf.spectral", "coercivity")]),
    ("spectral.dense", [("bqcf.spectral", "_dense_gamma")]),
    ("spectral.iterative", [("bqcf.spectral", "_iterative_gamma")]),
    ("spectral.dense_qr", [("scipy.linalg", "qr")]),
    ("spectral.dense_eigh", [("scipy.linalg", "eigh")]),
    ("spectral.lobpcg", [("scipy.sparse.linalg", "lobpcg")]),
    ("spectral.gram_cg", [("scipy.sparse.linalg", "cg")]),
    ("ops2d.poincare_discrete", [("bqcf.ops2d", "poincare_discrete")]),
)

# every per-layer metric, in the order BENCHMARK.json lists them
PER_LAYER = (
    ("spectral.coercivity_s", "s"), ("spectral.coercivity_calls", "count"),
    ("spectral.dense_s", "s"), ("spectral.dense_qr_s", "s"),
    ("spectral.dense_eigh_s", "s"),
    ("spectral.iterative_s", "s"), ("spectral.lobpcg_iterations", "count"),
    ("spectral.gram_cg_s", "s"), ("spectral.gram_cg_calls", "count"),
    ("spectral.gram_cg_unconverged", "count"),
    ("spectral.assemble_s", "s"), ("spectral.gram_D_s", "s"),
    ("ops1d.assemble_triplets_s", "s"), ("ops2d.assemble_triplets_s", "s"),
    ("ops2d.assemble_ltilde_s", "s"),
    ("blend.build_s", "s"), ("experiments.canary_s", "s"),
    ("experiments.probes", "count"), ("experiments.driver_self_s", "s"),
    ("ops2d.poincare_discrete_s", "s"),
)


class Tracer:
    """Span recorder for one run; counts ride along at the same wrappers."""

    def __init__(self) -> None:
        self.spans: list = []          # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list = []

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), None,
                          stack[-1] if stack else -1])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            counts[name + "_calls"] += 1
            if name == "spectral.gram_cg" and out[1] != 0:
                counts["spectral.gram_cg_unconverged"] += 1
            if name == "spectral.coercivity" and out.method == "iterative":
                counts["spectral.lobpcg_iterations"] += out.iterations
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every layer entry point; returns the undo function."""
        saved = []
        for name, targets in LAYERS:
            wrappers = {}
            for modname, attr in targets:
                mod = importlib.import_module(modname)
                orig = getattr(mod, attr)
                if id(orig) not in wrappers:
                    wrappers[id(orig)] = self._wrap(name, orig)
                saved.append((mod, attr, orig))
                setattr(mod, attr, wrappers[id(orig)])

        def undo() -> None:
            for mod, attr, orig in reversed(saved):
                setattr(mod, attr, orig)

        return undo

    def totals(self) -> Counter:
        """Inclusive seconds per span name, and the sweeps' self time:
        sweep spans minus the spans they called directly."""
        busy: Counter = Counter()
        for name, start, end, parent in self.spans:
            busy[name] += end - start
            if parent >= 0 and self.spans[parent][0] == "experiments.sweep":
                busy["experiments.driver_self"] -= end - start
        busy["experiments.driver_self"] += busy["experiments.sweep"]
        return busy

    def per_layer(self, rounds: int, probes: int) -> dict:
        """Every per-layer metric, per round; a layer that did not run reads 0."""
        busy = self.totals()
        out = {}
        for metric, unit in PER_LAYER:
            if metric == "experiments.probes":
                value = probes
            elif unit == "s":
                value = busy[metric[:-2]]
            else:
                value = self.counts[metric]
            out[metric] = {"value": value / rounds, "unit": unit}
        return out
