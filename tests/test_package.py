"""Package surface: every exported name resolves; the import needs numpy only."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest


@pytest.mark.parametrize(
    "module", ["qdephase", "qdephase.numerics", "qdephase.bath", "qdephase.dynamics",
               "qdephase.analysis", "qdephase.validation"],
)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []



def test_import_loads_no_scipy():
    src = str(Path(importlib.import_module("qdephase").__file__).parents[1])
    probe = (
        "import sys, qdephase, qdephase.cli; "
        "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "[]"
