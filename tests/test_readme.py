"""The README's library examples run, and the package exports what it lists."""
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import primerace

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(source, capsys):
    exec(compile(source, str(README), "exec"), {"__name__": "readme"})


def test_every_exported_name_resolves():
    # the package and each submodule, so `from primerace.<module> import *` works too
    modules = [primerace, *(importlib.import_module(f"primerace.{m.name}")
                            for m in pkgutil.iter_modules(primerace.__path__))]
    missing = [f"{mod.__name__}.{name}" for mod in modules
               for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing
