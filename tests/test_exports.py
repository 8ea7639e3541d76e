"""Every name a module exports exists, so ``from jacmate.<module> import *`` works."""

import importlib
import pkgutil

import pytest

import jacmate

MODULES = sorted(m.name for m in pkgutil.iter_modules(jacmate.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"jacmate.{name}")
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from jacmate.{name} import *", namespace)
    assert set(exported) <= set(namespace)
