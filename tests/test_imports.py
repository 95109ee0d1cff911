"""Every name that a module of src/bisurf imports is read in that module,
and every module it imports by absolute name is in the standard library.

A check with the standard library's ast alone: an import whose name is never
loaded is dead code that no test would otherwise notice. `from __future__
import annotations` is exempt, and so is the package's __init__.py, whose
imports are its public names. The runtime depends on nothing outside the
standard library; hypothesis and sympy are for tests only. exactla and
zcomplex import nothing from fractions: they compute with ints only.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bisurf"
MODULES = sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
ALL_MODULES = sorted(path.name for path in PACKAGE.glob("*.py"))


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


def absolute_imports(source):
    """The top-level names of source's absolute imports; relative imports
    (from . import x) are the package's."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def non_stdlib_imports(source):
    """The top-level names of source's absolute imports that are not in the
    standard library."""
    return sorted(absolute_imports(source) - sys.stdlib_module_names)


def test_guard_sees_non_stdlib_imports():
    source = ("from __future__ import annotations\nimport os.path\nimport sympy\n"
              "from hypothesis import given\nfrom . import _expr\nfrom .tpoly import TPoly\n")
    assert non_stdlib_imports(source) == ["hypothesis", "sympy"]


@pytest.mark.parametrize("module", ALL_MODULES)
def test_runtime_imports_only_the_standard_library(module):
    assert non_stdlib_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_guard_sees_fractions_imports():
    assert "fractions" in absolute_imports("import fractions\n")
    assert "fractions" in absolute_imports("from fractions import Fraction as Q\n")
    assert "fractions" not in absolute_imports("from .fields import QQ\nfrom math import lcm\n")


@pytest.mark.parametrize("module", ["exactla.py", "zcomplex.py"])
def test_int_modules_import_no_fractions(module):
    # exactla returns kernels and ranks as ints, and zcomplex reads them as
    # they come: Fractions are formed only where M is printed
    assert "fractions" not in absolute_imports((PACKAGE / module).read_text(encoding="utf-8"))
