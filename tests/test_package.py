"""Package surface: every exported name resolves."""

import importlib

import pytest


@pytest.mark.parametrize(
    "module", ["qdephase", "qdephase.numerics", "qdephase.bath", "qdephase.dynamics",
               "qdephase.analysis", "qdephase.validation"],
)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []

