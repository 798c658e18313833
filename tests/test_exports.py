"""Every exported name exists, and the package re-exports only what its
modules export."""

import importlib
import inspect
import pkgutil

import pdsseries

MODULES = [importlib.import_module(f"pdsseries.{info.name}")
           for info in pkgutil.iter_modules(pdsseries.__path__)]


def test_every_name_in_a_modules_all_exists():
    for module in MODULES:
        assert hasattr(module, "__all__"), module.__name__
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], module.__name__
        assert len(set(module.__all__)) == len(module.__all__), module.__name__


def test_every_public_name_of_the_package_is_some_modules_export():
    exported = {name for module in MODULES for name in module.__all__}
    public = {name for name, value in vars(pdsseries).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public - exported == set()
