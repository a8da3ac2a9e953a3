"""Every docstring example in the package runs and gives what it shows."""

import doctest
import importlib
import pkgutil

import pytest

import rhoforge

MODULES = ["rhoforge"] + [
    f"rhoforge.{info.name}" for info in pkgutil.iter_modules(rhoforge.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, f"{result.failed} doctest failures in {name}"
