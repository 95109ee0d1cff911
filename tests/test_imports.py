"""Every name that a module of src/bisurf imports is read in that module.

A check with the standard library's ast alone: an import whose name is never
loaded is dead code that no test would otherwise notice. `from __future__
import annotations` is exempt, and so is the package's __init__.py, whose
imports are its public names.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bisurf"
MODULES = sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source):
    """The names bound by source's imports that no expression reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(bound - read)


def test_guard_sees_unused_imports():
    source = ("from __future__ import annotations\nimport os.path\nfrom math import gcd, lcm\n"
              "from fractions import Fraction as Q\nx = lcm(2, 3) + os.sep.count('/')\n")
    assert unused_imports(source) == ["Q", "gcd"]


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_read(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []
