"""The benchmark's tracer wraps program entry points by module and name.

A rename or a moved function breaks a traced benchmark run without failing
any other test, so every hook the tracer installs must resolve here.
"""

import importlib
import runpy
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_layer_resolves():
    # run_path compiles the file without importing it as a package module
    # or writing bytecode next to it
    layers = runpy.run_path(str(TRACING))["LAYERS"]
    targets = [t for _, group in layers for t in group]
    assert targets
    for module, attr in targets:
        assert callable(getattr(importlib.import_module(module), attr, None)), \
            f"{module}.{attr}"
