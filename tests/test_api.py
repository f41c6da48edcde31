"""Export lists: every name a module exports exists, so a deleted function
cannot linger in an ``__all__``, and is its own, so a star import brings it
in once."""

import importlib
import pkgutil
import types

import pytest

import qhpp

MODULES = ["qhpp"] + [f"qhpp.{m.name}" for m in pkgutil.iter_modules(qhpp.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES[1:])
def test_exported_classes_and_functions_are_defined_in_their_module(name):
    module = importlib.import_module(name)
    borrowed = [
        attr
        for attr in getattr(module, "__all__", ())
        if isinstance(getattr(module, attr), (type, types.FunctionType))
        and getattr(module, attr).__module__ != name
    ]
    assert borrowed == []


def test_star_import():
    namespace: dict = {}
    exec("from qhpp import *", namespace)
    assert set(qhpp.__all__) <= set(namespace)
    assert len(set(qhpp.__all__)) == len(qhpp.__all__)
