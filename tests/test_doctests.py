"""The doctests of the registry modules, run in tier-1.

Their examples spell out workload names and factory paths; running them
keeps those examples true as the registry changes.
"""

import doctest
import importlib

import pytest

MODULES = ("repro.parallel.spec", "repro.parallel.factories", "repro.engine.specs")


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.attempted > 0 and result.failed == 0, result
