"""Machine file format: one JSON document per machine.

Symbols are encoded as an integer (digit), the string "~" (absent marker)
or a two-element array (pair).  Words are arrays, least significant first.
Serialization is bit-exact: states and transitions are listed in the one
canonical order of `machine._listing` (states by label, transitions by
source, target, input and output).  Machine equality compares the
states, the transitions and the output alphabet, which the file records
when one is declared, so equal machines write equal files.  A digit past
the interpreter's limit on integer-to-text conversion cannot be written,
and a file that holds one is not a machine file: both raise
ConstructionError.
"""

from __future__ import annotations

import functools
import json
from json.encoder import encode_basestring_ascii

from .errors import ConstructionError, shown
from .machine import Machine, State, Transition, _listing
from .symbols import ABSENT, Digit, Pair, Symbol


def decode_symbol(x) -> Symbol:
    """The symbol a JSON value encodes: an integer is a digit, "~" the
    absent marker and a two-element array a pair of two symbols.  A
    boolean, and any other value, is refused with a ConstructionError."""
    if type(x) is int:
        return Digit(x)
    if isinstance(x, bool):
        raise ConstructionError("booleans are not symbols")
    if isinstance(x, int):
        return Digit(x)
    if x == "~":
        return ABSENT
    if isinstance(x, list) and len(x) == 2:
        return Pair(decode_symbol(x[0]), decode_symbol(x[1]))
    raise ConstructionError(f"cannot decode symbol {shown(x)}")


def decode_word(x):
    """The word a JSON array encodes, letter by letter through
    `decode_symbol`; a value that is not an array is refused."""
    if not isinstance(x, list):
        raise ConstructionError(f"a word must be an array, got {shown(x)}")
    return tuple(map(decode_symbol, x))


def _typed(row: dict, field: str, kind: type):
    value = row[field]
    if not isinstance(value, kind):
        expected = "boolean" if kind is bool else "string"
        raise ConstructionError(
            f"field {field!r} must be a JSON {expected}, got {shown(value)}")
    return value


def machine_from_doc(doc: dict) -> Machine:
    """The machine a parsed machine file describes.  A missing field, a
    field of the wrong JSON type and a value that is no symbol are refused
    with a ConstructionError, and so is every row the Machine constructor
    refuses.

    Each distinct one-letter digit word is decoded once per document: a
    memo that lives for this call keys it by its int, whose exact type it
    checks, so [1], [1.0] and [true] never share an entry.  The empty
    word is the empty tuple; every other word goes through
    `decode_word`."""
    digit_words: dict = {}

    def word(x):
        if type(x) is list:
            if len(x) == 1:
                letter = x[0]
                if type(letter) is int:
                    w = digit_words.get(letter)
                    if w is None:
                        w = digit_words[letter] = (Digit(letter),)
                    return w
            elif not x:
                return ()
        return decode_word(x)

    try:
        kind = doc["kind"]
        alphabet = [decode_symbol(s) for s in doc["alphabet"]]
        out_alphabet = None
        if "output_alphabet" in doc:
            out_alphabet = [decode_symbol(s) for s in doc["output_alphabet"]]
        states = tuple(
            State(_typed(row, "label", str), _typed(row, "initial", bool),
                  _typed(row, "final", bool),
                  word(row.get("final_output", [])))
            for row in doc["states"])
        transitions = tuple(
            Transition(_typed(row, "from", str), _typed(row, "to", str),
                       word(row["input"]), word(row["output"]))
            for row in doc["transitions"])
    except (KeyError, TypeError) as exc:
        raise ConstructionError(f"malformed machine document: {exc}") from exc
    return Machine(kind, states, transitions, alphabet, out_alphabet)


# The writer.  json.dumps(doc, indent=2) runs CPython's pure-Python
# encoder (the C one does not indent), so the one fixed shape of a machine
# file is written here row by row, byte for byte as json.dumps writes it.
# Strings are escaped by `encode_basestring_ascii`, the C function that
# json.dumps of one string calls, so they come out as json.dumps writes them.

_JSON_BOOL = {False: "false", True: "true"}


def _array(items, level: int) -> str:
    """A JSON array of written items, whose first line is at indent
    `level`: items one level deeper, the closing bracket at `level`."""
    if not items:
        return "[]"
    pad = "\n" + "  " * (level + 1)
    return "[" + pad + ("," + pad).join(items) + "\n" + "  " * level + "]"


@functools.cache
def _symbol_text(s: Symbol, level: int) -> str:
    """The JSON text of s as an array item at indent `level`: a digit's
    integer, "~" for the absent marker, a pair's array of its two
    components.  Symbols are interned, so the cache hashes by identity
    and, like the intern tables, keeps an entry per symbol and level for
    the life of the process; pairs nest at most MAX_PAIR_DEPTH deep."""
    if isinstance(s, Pair):
        return _array((_symbol_text(s.left, level + 1),
                       _symbol_text(s.right, level + 1)), level)
    return '"~"' if s is ABSENT else str(s)


def dumps(m: Machine) -> str:
    """The machine file of m: its states and transitions in the canonical
    order of `machine._listing`, two-space indented, ending in a newline."""
    states, transitions = _listing(m)
    labels = {st.label: encode_basestring_ascii(st.label) for st in states}
    words: dict = {}

    def word(w) -> str:
        text = words.get(w)
        if text is None:
            text = words[w] = _array([_symbol_text(s, 4) for s in w], 3)
        return text

    def alphabet(letters) -> str:
        return _array([_symbol_text(s, 2) for s in letters], 1)

    head = (f'{{\n  "kind": {encode_basestring_ascii(m.kind)},'
            f'\n  "alphabet": {alphabet(m.input_alphabet)},\n')
    if m.output_alphabet is not None:
        head += f'  "output_alphabet": {alphabet(m.output_alphabet)},\n'
    state_rows = [
        f'{{\n      "label": {labels[st.label]},'
        f'\n      "initial": {_JSON_BOOL[st.is_initial]},'
        f'\n      "final": {_JSON_BOOL[st.is_final]},'
        f'\n      "final_output": {word(st.final_output)}\n    }}'
        for st in states]
    transition_rows = [
        f'{{\n      "from": {labels[t.source]},'
        f'\n      "to": {labels[t.target]},'
        f'\n      "input": {word(t.input)},'
        f'\n      "output": {word(t.output)}\n    }}'
        for t in transitions]
    return (f'{head}  "states": {_array(state_rows, 1)},\n'
            f'  "transitions": {_array(transition_rows, 1)}\n}}\n')


def loads(text: str) -> Machine:
    """The machine of a document; a document that is not JSON, that
    nests arrays or symbols past the recursion limit, or that holds an
    integer past the interpreter's limit on text-to-integer conversion,
    raises ConstructionError."""
    try:
        return machine_from_doc(json.loads(text))
    except (ValueError, RecursionError) as exc:  # JSONDecodeError included
        raise ConstructionError(f"not a machine file: {exc}") from exc


def save(m: Machine, path) -> None:
    """Write the machine file of m (`dumps`) to path; a machine `dumps`
    refuses leaves no file."""
    text = dumps(m)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def load(path) -> Machine:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise ConstructionError(f"not a machine file: {exc}") from exc
    return loads(text)
