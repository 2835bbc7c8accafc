"""The package's public surface: every exported name resolves, and every
module's ``__all__`` is re-exported by the package."""

import importlib
import pkgutil

import pytest

import graphspace

_MODULES = sorted(m.name for m in pkgutil.iter_modules(graphspace.__path__))


def test_package_all_resolves():
    assert len(set(graphspace.__all__)) == len(graphspace.__all__)
    assert [n for n in graphspace.__all__ if not hasattr(graphspace, n)] == []


@pytest.mark.parametrize("name", _MODULES)
def test_module_all_is_reexported(name):
    module = importlib.import_module(f"graphspace.{name}")
    for attr in getattr(module, "__all__", ()):
        assert attr in graphspace.__all__, f"{name}.{attr} is not re-exported"
        assert getattr(graphspace, attr) is getattr(module, attr)
