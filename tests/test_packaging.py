"""The package keeps zero runtime dependencies: every module imports only
the standard library and its own package, and pyproject.toml declares no
dependency.  Test-only oracles such as sympy must never leak into it."""

import ast
import sys
from pathlib import Path

import fsmkit

PACKAGE = Path(fsmkit.__file__).parent
PYPROJECT = PACKAGE.parents[1] / "pyproject.toml"


def _absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    outside = {(path.name, name) for path in modules
               for name in _absolute_imports(path)
               if name.partition(".")[0] not in sys.stdlib_module_names}
    assert outside == set()


def test_pyproject_declares_no_dependencies():
    lines = PYPROJECT.read_text(encoding="utf-8").splitlines()
    assert "dependencies = []" in lines
