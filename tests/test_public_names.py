"""Every name a module of the package exports resolves.

A deletion that leaves its name in __all__ breaks `from module import *`
without failing any test that imports the names it uses.
"""

import importlib
import pkgutil

import pytest

import bqcf

MODULES = [m.name for m in pkgutil.iter_modules(bqcf.__path__, "bqcf.")
           if m.name != "bqcf.__main__"]


def test_the_package_has_modules_that_export():
    exporting = [m for m in MODULES if hasattr(importlib.import_module(m), "__all__")]
    assert len(exporting) >= 8


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names {missing}"
    exec(f"from {module} import *", {})
