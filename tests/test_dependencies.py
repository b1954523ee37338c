"""The package imports numpy, scipy and the standard library only."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "meshpool"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "scipy", "meshpool"}


def _absolute_imports(tree):
    """(line, top-level module) of every absolute import in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name.split(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_imports_only_numpy_scipy_and_the_stdlib(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    outside = [f"{path.name}:{line}: {name}" for line, name in _absolute_imports(tree)
               if name not in ALLOWED]
    assert not outside, outside


def test_the_guard_sees_every_kind_of_import():
    tree = ast.parse("import os.path, yaml\nfrom torch import nn\nfrom . import cache\n"
                     "def f():\n    import pandas\n")
    names = [name for _, name in _absolute_imports(tree)]
    assert names == ["os", "yaml", "torch", "pandas"]
