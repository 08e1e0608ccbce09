"""Every name a ``repro`` package lists in ``__all__`` resolves.

Deleting a module must take its package re-exports with it; this keeps
a stale ``__all__`` entry from outliving the code it named.
"""

import importlib
import pkgutil

import pytest

import repro

PACKAGES = ["repro"] + [
    f"repro.{info.name}"
    for info in pkgutil.iter_modules(repro.__path__)
    if info.ispkg
]


@pytest.mark.parametrize("name", PACKAGES)
def test_all_names_resolve(name):
    package = importlib.import_module(name)
    exported = getattr(package, "__all__", [])
    assert exported, f"{name} declares no __all__"
    missing = [attr for attr in exported if not hasattr(package, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
