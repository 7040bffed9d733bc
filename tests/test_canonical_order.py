"""The canonical symbol order has one home, `fsmkit.symbols`: every other
module orders symbols and words through the helpers there, so no
construction can list letters in an order of its own, or in the order of
their identity hashes."""

import ast
from pathlib import Path

import fsmkit

PACKAGE = Path(fsmkit.__file__).parent


def _reads_sort_key(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return any(isinstance(node, ast.Attribute) and node.attr == "sort_key"
               for node in ast.walk(tree))


def test_only_the_symbols_module_reads_sort_key():
    modules = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "symbols.py" in modules
    readers = [path.name for path in modules if _reads_sort_key(path)]
    assert readers == ["symbols.py"]
