"""Every package's public surface resolves: each name in ``__all__`` is
an attribute of the package and ``from <package> import *`` succeeds,
so a deleted function cannot stay exported."""

import importlib
import pkgutil

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg)


@pytest.mark.parametrize("name", PACKAGES)
def test_all_names_resolve(name):
    package = importlib.import_module(name)
    missing = [attr for attr in getattr(package, "__all__", ())
               if not hasattr(package, attr)]
    assert missing == []


@pytest.mark.parametrize("name", PACKAGES)
def test_star_import_succeeds(name):
    namespace = {}
    exec(f"from {name} import *", namespace)
    for attr in getattr(importlib.import_module(name), "__all__", ()):
        assert attr in namespace
