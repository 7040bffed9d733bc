"""Machine file format: one JSON document per machine.

Symbols are encoded as an integer (digit), the string "~" (absent marker)
or a two-element array (pair).  Words are arrays, least significant first.
Serialization is bit-exact: states and transitions are listed in the one
canonical order of `machine._listing` (states by label, transitions by
`machine._transition_key`), so equal machines with the same output
alphabet produce identical bytes.  Machine equality ignores the output
alphabet, which the file records when one is declared: two machines that
differ only there compare equal and serialize differently.
"""

from __future__ import annotations

import json

from .errors import ConstructionError
from .machine import Machine, State, Transition, _listing
from .symbols import ABSENT, AbsentType, Digit, Pair, Symbol


def encode_symbol(s: Symbol):
    if isinstance(s, Digit):
        return s.value
    if isinstance(s, AbsentType):
        return "~"
    if isinstance(s, Pair):
        return [encode_symbol(s.left), encode_symbol(s.right)]
    raise ConstructionError(f"cannot encode {s!r}")


def decode_symbol(x) -> Symbol:
    if isinstance(x, bool):
        raise ConstructionError("booleans are not symbols")
    if isinstance(x, int):
        return Digit(x)
    if x == "~":
        return ABSENT
    if isinstance(x, list) and len(x) == 2:
        return Pair(decode_symbol(x[0]), decode_symbol(x[1]))
    raise ConstructionError(f"cannot decode symbol {x!r}")


def encode_word(w):
    return [encode_symbol(s) for s in w]


def decode_word(x):
    if not isinstance(x, list):
        raise ConstructionError(f"a word must be an array, got {x!r}")
    return tuple(decode_symbol(s) for s in x)


def machine_to_doc(m: Machine) -> dict:
    states, transitions = _listing(m)
    doc = {
        "kind": m.kind,
        "alphabet": [encode_symbol(s) for s in m.input_alphabet],
    }
    if m.output_alphabet is not None:
        doc["output_alphabet"] = [encode_symbol(s) for s in m.output_alphabet]
    doc["states"] = [
        {
            "label": st.label,
            "initial": st.is_initial,
            "final": st.is_final,
            "final_output": encode_word(st.final_output),
        }
        for st in states
    ]
    doc["transitions"] = [
        {
            "from": t.source,
            "to": t.target,
            "input": encode_word(t.input),
            "output": encode_word(t.output),
        }
        for t in transitions
    ]
    return doc


def _typed(row: dict, field: str, kind: type):
    value = row[field]
    if not isinstance(value, kind):
        expected = "boolean" if kind is bool else "string"
        raise ConstructionError(
            f"field {field!r} must be a JSON {expected}, got {value!r}")
    return value


def machine_from_doc(doc: dict) -> Machine:
    try:
        kind = doc["kind"]
        alphabet = [decode_symbol(s) for s in doc["alphabet"]]
        out_alphabet = None
        if "output_alphabet" in doc:
            out_alphabet = [decode_symbol(s) for s in doc["output_alphabet"]]
        states = tuple(
            State(
                label=_typed(row, "label", str),
                is_initial=_typed(row, "initial", bool),
                is_final=_typed(row, "final", bool),
                final_output=decode_word(row.get("final_output", [])),
            )
            for row in doc["states"]
        )
        transitions = tuple(
            Transition(
                source=_typed(row, "from", str),
                target=_typed(row, "to", str),
                input=decode_word(row["input"]),
                output=decode_word(row["output"]),
            )
            for row in doc["transitions"]
        )
    except (KeyError, TypeError) as exc:
        raise ConstructionError(f"malformed machine document: {exc}") from exc
    return Machine(kind, states, transitions, alphabet, out_alphabet)


def dumps(m: Machine) -> str:
    return json.dumps(machine_to_doc(m), indent=2) + "\n"


def loads(text: str) -> Machine:
    """The machine of a document; a document that is not JSON, or that
    nests arrays or symbols past the recursion limit, raises
    ConstructionError."""
    try:
        return machine_from_doc(json.loads(text))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ConstructionError(f"not a machine file: {exc}") from exc


def save(m: Machine, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps(m))


def load(path) -> Machine:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise ConstructionError(f"not a machine file: {exc}") from exc
    return loads(text)
