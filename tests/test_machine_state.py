"""A machine is a value: only `fsmkit.machine` writes a Machine's state.
Every other module stores into (or deletes from) attributes of `self`
only, so no construction or analysis can change a machine it was given;
what they derive from a machine is kept through `Machine._kept`."""

import ast
from pathlib import Path

import fsmkit

PACKAGE = Path(fsmkit.__file__).parent


def _foreign_writes(path):
    """`file:line` of each store or deletion, in any target (assignment,
    loop, `with`, comprehension), into an attribute of anything but
    `self`, or into an item of such an attribute (`m._forms[k] = v`)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if not isinstance(getattr(node, "ctx", None), (ast.Store, ast.Del)):
            continue
        written = node
        while isinstance(written, ast.Subscript):
            written = written.value
        if isinstance(written, ast.Attribute) and not (
                isinstance(written.value, ast.Name)
                and written.value.id == "self"):
            found.append(f"{path.name}:{node.lineno}")
    return found


def test_only_the_machine_module_writes_attributes_of_other_objects():
    modules = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "machine.py" in modules
    writes = [where for path in modules if path.name != "machine.py"
              for where in _foreign_writes(path)]
    assert writes == []
