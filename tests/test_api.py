"""Export lists: every name a module exports exists, so a deleted function
cannot linger in an ``__all__``."""

import importlib
import pkgutil

import pytest

import qhpp

MODULES = ["qhpp"] + [f"qhpp.{m.name}" for m in pkgutil.iter_modules(qhpp.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_star_import():
    namespace: dict = {}
    exec("from qhpp import *", namespace)
    assert set(qhpp.__all__) <= set(namespace)
