"""Benchmark of the bqcf stability laboratory.

    python3 bench/run.py --workload threshold-1d --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10 --trace 1

One run imports the library from src/ next to this directory, builds one
workload's inputs, asks its queries in whole rounds until --seconds have
passed, checks every answer outside the timed region and prints, as its
last line, {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones (wall_s, setup_s, peak_rss_mb); with
--trace 1 the run wraps each layer's entry points and the metrics are the
per-layer ones. "all" runs every workload in a child process of its own
and, with --trace 1, also traced, to report the tracing overhead. Each run
writes its manifest, answers and spans to bench/results/.
"""

import time

_T0 = time.perf_counter()       # set-up is timed from here: imports, inputs

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
SETUPS = 5                      # set-ups timed per run, this process included
NAMES = ("threshold-1d", "threshold-2d", "constants")


def load_program():
    """Import numpy, scipy and bqcf from this checkout's src/, or exit 2."""
    def fail(msg: str):
        print(f"bench: {msg}", file=sys.stderr)
        sys.exit(2)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import numpy  # noqa: F401
        import scipy.linalg  # noqa: F401
        import scipy.sparse.linalg  # noqa: F401
        import bqcf
    except ImportError as err:
        fail(f"cannot import the program: {err}")
    src = (ROOT / "src").resolve()
    if src not in Path(bqcf.__file__).resolve().parents:
        fail(f"bqcf imported from {bqcf.__file__}, not from {src}")


def blas_info() -> dict:
    """BLAS library as numpy was built with it, and its thread count as
    the loaded OpenBLAS reports it (None when that cannot be read)."""
    import ctypes
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            try:
                get = getattr(ctypes.CDLL(lib), fn)
            except (OSError, AttributeError):
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            threads = int(get())
            break
        if threads is not None:
            break
    return {"name": blas.get("name"), "version": blas.get("version"),
            "threads": threads}


def git_sha() -> str:
    """HEAD of the checkout, read from .git; "unknown" outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def manifest(args, attempted: int, failed: int) -> dict:
    import numpy
    import scipy
    return {"cores": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas_info(), "git_sha": git_sha(),
            "seed": args.seed, "workload": args.workload, "trace": args.trace,
            "seconds": args.seconds, "attempted": attempted, "failed": failed}


def child_setup(args) -> float:
    """Set-up time of a fresh interpreter: imports plus the inputs."""
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--setup-only",
         "--workload", args.workload, "--seed", str(args.seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.split()[-1])


def key(q) -> str:
    return "/".join(str(part) for part in q)


def run_one(args) -> int:
    load_program()
    import workloads
    from tracing import Tracer

    wl = workloads.WORKLOADS[args.workload](args.seed)
    setup = [time.perf_counter() - _T0]
    if args.setup_only:
        print(repr(setup[0]))
        return 0
    setup += [child_setup(args) for _ in range(SETUPS - 1)]

    tracer = Tracer() if args.trace else None
    undo = tracer.install() if tracer else None
    rounds, walls = [], []
    start = time.perf_counter()
    try:
        while not walls or time.perf_counter() - start < args.seconds:
            t0 = time.perf_counter()
            rounds.append(wl.run_round())
            walls.append(time.perf_counter() - t0)
    finally:
        if undo:
            undo()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    verdicts = wl.check(rounds)
    attempted = sum(len(r["queries"]) for r in rounds)
    failed = sum(len(bad) for bad in verdicts)

    if tracer:
        probes = attempted if isinstance(wl, workloads.Threshold) else 0
        metrics = tracer.per_layer(len(rounds), probes)
    else:
        metrics = {"wall_s": {"value": statistics.median(walls), "unit": "s"},
                   "setup_s": {"value": statistics.median(setup), "unit": "s"},
                   "peak_rss_mb": {"value": peak_mb, "unit": "MB"}}

    record = {"manifest": manifest(args, attempted, failed),
              "round_wall_s": walls, "setup_s": setup, "peak_rss_mb": peak_mb,
              "answers": [{key(q): v for q, v in wl.summary(r).items()} for r in rounds],
              "failures": [{key(q): why for q, why in bad.items()} for bad in verdicts],
              "metrics": metrics}
    if tracer:
        record["spans"] = tracer.spans
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")

    print(f"workload {args.workload}: {len(rounds)} round(s), wall per round "
          + ", ".join(f"{w:.3f}" for w in walls) + " s")
    print(f"set-up {', '.join(f'{s:.3f}' for s in setup)} s; peak RSS {peak_mb:.1f} MB")
    for i, bad in enumerate(verdicts):
        for q, why in bad.items():
            print(f"FAILED round {i + 1} query {key(q)}: {'; '.join(why)}")
    print(f"queries attempted {attempted}, failed {failed}; record {path}")
    # every rejected answer is counted in failed, so the answers left are
    # the checked ones; a check that cannot run raises and prints nothing
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so that peak RSS is its own."""
    def child(name: str, trace: int) -> dict:
        out = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        if out.returncode != 0:
            sys.exit(f"bench: {name} exited {out.returncode}\n{out.stderr}")
        return json.loads(out.stdout.strip().splitlines()[-1])

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        res = child(name, 0)
        m = res["metrics"]
        line = (f"{name:13s} wall_s {m['wall_s']['value']:9.3f}  "
                f"setup_s {m['setup_s']['value']:6.3f}  "
                f"peak_rss_mb {m['peak_rss_mb']['value']:8.1f}  "
                f"attempted {res['attempted']:4d}  failed {res['failed']}")
        if args.trace:
            traced = child(name, 1)
            rec = json.loads((RESULTS / f"{name}-seed{args.seed}-trace1.json").read_text())
            tw = statistics.median(rec["round_wall_s"])
            line += f"  traced wall_s {tw:.3f} (overhead {tw / m['wall_s']['value'] - 1:+.1%})"
            for metric, v in traced["metrics"].items():
                total["metrics"][f"{name}.{metric}"] = v
        print(line)
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for metric, v in m.items():
            total["metrics"][f"{name}.{metric}"] = v
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time the set-up alone and print it (used per run)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(BENCH))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
