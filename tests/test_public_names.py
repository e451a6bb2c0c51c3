"""Every name a module of the package exports resolves, and every public
definition is exported.

A deletion that leaves its name in __all__ breaks `from module import *`
without failing any test that imports the names it uses.
"""

import importlib
import inspect
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


@pytest.mark.parametrize("module", MODULES)
def test_every_public_definition_is_exported(module):
    # a function or class the module defines without a leading underscore
    mod = importlib.import_module(module)
    defined = [name for name, obj in vars(mod).items()
               if not name.startswith("_")
               and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == module]
    unlisted = sorted(set(defined) - set(getattr(mod, "__all__", ())))
    assert not unlisted, f"{module}.__all__ omits {unlisted}"
