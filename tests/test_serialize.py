import json
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsmkit import automata, export, serialize, transducers
from fsmkit.cli import PRESETS
from fsmkit.digits import Expansion
from fsmkit.errors import ConstructionError, FsmError
from fsmkit.machine import (AUTOMATON, TRANSDUCER, Machine, State,
                            Transition, build_machine)
from fsmkit.symbols import ABSENT, MAX_PAIR_DEPTH, Digit, Pair
from oracles import (encode_symbol, machine_to_doc, reference_dumps,
                     reference_machine_from_doc)

CASE_FIXTURES = ["naf_acceptor", "naf1", "naf_completed", "naf_all", "triple",
                 "combined_3n_n", "naf3", "machine_T", "machine_W",
                 "machine_R", "identity01"]


@pytest.mark.parametrize("name", CASE_FIXTURES)
def test_round_trip_is_isomorphism(name, request):
    m = request.getfixturevalue(name)
    back = serialize.loads(serialize.dumps(m))
    assert back == m
    if m.kind == AUTOMATON:
        assert automata.is_equivalent(back, m)
    else:
        assert back.relabeled() == m.relabeled()


def test_serialization_is_byte_stable(machine_T):
    assert serialize.dumps(machine_T) == serialize.dumps(machine_T)


def test_equal_machines_serialize_identically():
    rows = [("a", "b", 0, None), ("b", "a", 1, None), ("a", "a", 1, None)]
    m1 = build_machine(rows, ["a"], ["b"], input_alphabet=[0, 1], kind=AUTOMATON)
    m2 = build_machine(list(reversed(rows)), ["a"], ["b"],
                       input_alphabet=[0, 1], kind=AUTOMATON)
    assert serialize.dumps(m1) == serialize.dumps(m2)


def test_equal_machines_with_one_output_alphabet_serialize_identically():
    w = transducers.weight_transducer([0, 1])
    rebuilt = Machine(w.kind, w.states, w.transitions, w.input_alphabet,
                      w.output_alphabet)
    assert rebuilt == w
    assert serialize.dumps(rebuilt) == serialize.dumps(w)


def test_equality_compares_the_output_alphabet_that_files_record():
    w = transducers.weight_transducer([0, 1])
    bare = Machine(w.kind, w.states, w.transitions, w.input_alphabet)
    assert bare != w
    assert serialize.dumps(bare) != serialize.dumps(w)
    assert '"output_alphabet"' not in serialize.dumps(bare)


def test_symbol_encodings(combined_3n_n):
    doc = machine_to_doc(combined_3n_n)
    # pair letters serialize as two-element arrays, absent as "~"
    outputs = [t["output"] for t in doc["transitions"]]
    assert all(isinstance(w[0], list) and len(w[0]) == 2 for w in outputs)
    finals = [s["final_output"] for s in doc["states"] if s["final_output"]]
    assert any("~" in json.dumps(w) for w in finals)
    assert encode_symbol(Pair(Digit(1), ABSENT)) == [1, "~"]
    assert serialize.decode_symbol([1, "~"]) == Pair(Digit(1), ABSENT)


def test_words_serialize_lsb_first(naf_completed):
    doc = machine_to_doc(naf_completed)
    by_label = {s["label"]: s for s in doc["states"]}
    assert by_label["2"]["final_output"] == [0, 1]


def test_malformed_documents_raise():
    with pytest.raises(ConstructionError):
        serialize.loads("this is not json")
    with pytest.raises(ConstructionError):
        serialize.loads(json.dumps({"kind": "automaton"}))
    with pytest.raises(ConstructionError):
        serialize.decode_symbol("x")
    with pytest.raises(ConstructionError, match="booleans are not symbols"):
        serialize.decode_symbol(True)
    with pytest.raises(ConstructionError,
                       match="a word must be an array, got 'x'"):
        serialize.decode_word("x")


@pytest.mark.parametrize("section, field, value", [
    ("states", "initial", "no"),
    ("states", "final", 1),
    ("states", "label", 7),
    ("transitions", "from", 0),
    ("transitions", "to", None),
])
def test_wrongly_typed_fields_are_named(naf1, section, field, value):
    doc = machine_to_doc(naf1)
    doc[section][0][field] = value
    with pytest.raises(ConstructionError, match=f"'{field}'"):
        serialize.machine_from_doc(doc)


def test_deeply_nested_symbol_is_not_a_machine_file(naf1):
    doc = machine_to_doc(naf1)
    text = json.dumps(doc).replace(
        '"input": [0]', '"input": [' + "[" * 3000 + "0" + ", 0]" * 3000 + "]",
        1)
    assert text != json.dumps(doc)
    with pytest.raises(ConstructionError, match="not a machine file"):
        serialize.loads(text)


def test_file_round_trip(tmp_path, naf_all):
    path = tmp_path / "machine.json"
    serialize.save(naf_all, path)
    assert serialize.load(path) == naf_all


def test_non_utf8_file_is_not_a_machine_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe")
    with pytest.raises(ConstructionError, match="not a machine file"):
        serialize.load(path)


def test_readme_sample_is_the_file_dumps_writes():
    readme = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
    section = readme[readme.index("## Machine file format"):]
    sample = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    m = serialize.loads(sample)
    assert serialize.dumps(m) == sample
    assert m == PRESETS["identity"]()


# ----------------------------------------------------------------------
# integers past CPython's limit on int-to-str and str-to-int conversion
# ----------------------------------------------------------------------

@pytest.fixture
def int_digit_limit():
    """CPython's default limit of 4,300 decimal digits, whatever the
    environment set."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("sign", [1, -1])
def test_digit_past_the_limit_cannot_be_written(int_digit_limit, sign):
    value = sign * 10 ** 5000
    m = build_machine([("a", "b", value)], ["a"], ["b"], [0, value],
                      kind=AUTOMATON)
    message = "cannot write the 16610-bit digit"
    with pytest.raises(ConstructionError, match=message):
        serialize.dumps(m)
    with pytest.raises(ConstructionError, match=message):
        export.render(m, "dot")
    for fmt in (export.format_letter_plain, export.format_letter_negative):
        with pytest.raises(ConstructionError, match=message):
            export.render(m, "tikz", format_letter=fmt)
    digit = Digit(value)
    with pytest.raises(ConstructionError, match=message):
        Expansion((digit,), 0).digit_string()
    with pytest.raises(ConstructionError, match=message):
        repr(Pair(digit, ABSENT))
    # the message refusing a bad row formats the row with its digit
    with pytest.raises(ConstructionError, match=message):
        Machine(AUTOMATON, [State("a")], [Transition("a", 5, (digit,))],
                [digit])


def test_digit_repr_names_its_value():
    assert [repr(Digit(v)) for v in (5, -3, 0)] == \
        ["Digit(value=5)", "Digit(value=-3)", "Digit(value=0)"]
    assert repr(Pair(Digit(1), ABSENT)) == \
        "Pair(left=Digit(value=1), right=Absent)"


def test_digit_at_the_limit_is_written(int_digit_limit):
    value = -(10 ** 4300 - 1)
    m = build_machine([("a", "b", value)], ["a"], ["b"], [0, value],
                      kind=AUTOMATON)
    assert serialize.loads(serialize.dumps(m)) == m
    text = export.render(m, "tikz",
                         format_letter=export.format_letter_negative)
    assert r"\overline{" + "9" * 4300 + "}" in text


def test_integer_past_the_limit_is_not_a_machine_file(int_digit_limit):
    text = serialize.dumps(build_machine(
        [("a", "b", 7)], ["a"], ["b"], [0, 7], kind=AUTOMATON))
    text = text.replace("7", "7" * 5001)
    with pytest.raises(ConstructionError, match="not a machine file"):
        serialize.loads(text)


# ----------------------------------------------------------------------
# the row writer against the standard library's encoder
# ----------------------------------------------------------------------

def symbols(depth=MAX_PAIR_DEPTH):
    """Digits, the absent marker and pairs nested up to `depth` deep."""
    leaf = st.integers().map(Digit) | st.just(ABSENT)
    if depth == 0:
        return leaf
    inner = symbols(depth - 1)
    return leaf | st.builds(Pair, inner, inner)


LABELS = st.text(st.sampled_from('"\\\n\t\x00\x1f\x7f aé€\u2028😀')
                 | st.characters(), max_size=5)


@st.composite
def any_machines(draw):
    """Machines of either kind over any symbols and labels, with or
    without a declared output alphabet (perhaps empty), and perhaps
    without states or transitions."""
    kind = draw(st.sampled_from((AUTOMATON, TRANSDUCER)))
    alphabet = draw(st.lists(symbols(), min_size=1, max_size=3))
    out_alphabet = draw(st.none() | st.lists(symbols(), max_size=3))
    if kind == AUTOMATON or out_alphabet == []:
        outputs = st.just(())
    else:
        letters = symbols() if out_alphabet is None else \
            st.sampled_from(out_alphabet)
        outputs = st.lists(letters, max_size=3).map(tuple)
    labels = draw(st.lists(LABELS, max_size=4, unique=True))
    states = []
    for label in labels:
        final = draw(st.booleans())
        states.append(State(label, draw(st.booleans()), final,
                            draw(outputs) if final else ()))
    transitions = draw(st.lists(st.builds(
        Transition, st.sampled_from(labels), st.sampled_from(labels),
        st.lists(st.sampled_from(alphabet), max_size=1).map(tuple),
        outputs), max_size=6)) if labels else []
    return Machine(kind, states, transitions, alphabet, out_alphabet)


@settings(max_examples=300, deadline=None)
@given(any_machines())
def test_dumps_matches_the_reference_writer_and_round_trips(m):
    text = serialize.dumps(m)
    assert text == reference_dumps(m)
    assert serialize.loads(text) == m


# ----------------------------------------------------------------------
# fuzzing: any text is a machine or an FsmError
# ----------------------------------------------------------------------

FIELDS = ("kind", "alphabet", "output_alphabet", "states", "transitions",
          "label", "initial", "final", "final_output", "from", "to", "input",
          "output")
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.sampled_from(("~", "automaton", "transducer")) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(FIELDS) | st.text(max_size=4), inner, max_size=5),
    max_leaves=12)
FUZZ = settings(max_examples=200, deadline=None)


def _loads_or_fsm_error(text):
    try:
        assert isinstance(serialize.loads(text), Machine)
    except FsmError:
        pass


@FUZZ
@given(JSON_VALUES)
def test_loads_of_any_json_value_is_a_machine_or_an_fsm_error(value):
    _loads_or_fsm_error(json.dumps(value))


@FUZZ
@given(st.sampled_from(sorted(PRESETS)), st.data())
def test_loads_of_a_mutated_preset_is_a_machine_or_an_fsm_error(name, data):
    doc = machine_to_doc(PRESETS[name]())
    for _ in range(data.draw(st.integers(1, 3))):
        # walk down to a random value, then replace or delete it
        node = doc
        while True:
            keys = list(node) if isinstance(node, dict) else range(len(node))
            if not keys:
                break
            key = data.draw(st.sampled_from(keys))
            child = node[key]
            if isinstance(child, (dict, list)) and child \
                    and data.draw(st.booleans()):
                node = child
                continue
            if data.draw(st.booleans()):
                node[key] = data.draw(JSON_VALUES)
            else:
                del node[key]
            break
    _loads_or_fsm_error(json.dumps(doc))


# ----------------------------------------------------------------------
# the memoized reader against the reader that decodes every letter
# ----------------------------------------------------------------------

def _reference_loads(text):
    try:
        return reference_machine_from_doc(json.loads(text))
    except (ValueError, RecursionError) as exc:
        raise ConstructionError(f"not a machine file: {exc}") from exc


def _outcome(read, text):
    """A machine and its file, or the type and message of what refused it."""
    try:
        m = read(text)
    except Exception as exc:
        return type(exc), str(exc)
    return m, serialize.dumps(m)


def _assert_readers_agree(text):
    assert _outcome(serialize.loads, text) == \
        _outcome(_reference_loads, text)


@settings(max_examples=200, deadline=None)
@given(any_machines())
def test_reader_matches_the_reference_reader_on_machine_files(m):
    _assert_readers_agree(serialize.dumps(m))


@FUZZ
@given(JSON_VALUES)
def test_reader_matches_the_reference_reader_on_any_json_value(value):
    _assert_readers_agree(json.dumps(value))


@FUZZ
@given(st.sampled_from(sorted(PRESETS)), st.data())
def test_reader_matches_the_reference_reader_on_mutated_presets(name, data):
    doc = machine_to_doc(PRESETS[name]())
    for _ in range(data.draw(st.integers(1, 3))):
        # replace a random value with any JSON value, or delete it
        node = doc
        while True:
            keys = list(node) if isinstance(node, dict) else range(len(node))
            if not keys:
                break
            key = data.draw(st.sampled_from(keys))
            child = node[key]
            if isinstance(child, (dict, list)) and child \
                    and data.draw(st.booleans()):
                node = child
                continue
            if data.draw(st.booleans()):
                node[key] = data.draw(JSON_VALUES)
            else:
                del node[key]
            break
    _assert_readers_agree(json.dumps(doc))


def _file_of_words(field, *words):
    """A transducer file over the digits 0, 1 and 2 with one row per word
    that holds the word in `field`: a loop on its one state per word for
    "input" or "output", a final state per word for "final_output"."""
    if field == "final_output":
        states = [{"label": str(i), "initial": not i, "final": True,
                   "final_output": w} for i, w in enumerate(words)]
        transitions = []
    else:
        states = [{"label": "a", "initial": True, "final": True}]
        transitions = [{"from": "a", "to": "a", "input": [0], "output": [],
                        field: w} for w in words]
    return json.dumps({"kind": "transducer", "alphabet": [0, 1, 2],
                       "states": states, "transitions": transitions})


@pytest.mark.parametrize("field", ["input", "output", "final_output"])
@pytest.mark.parametrize("words, message", [
    (([1], [True]), "booleans are not symbols"),
    (([1], [1.0]), "cannot decode symbol 1.0"),
    (([0], [False]), "booleans are not symbols"),
    (([[0, True]],), "booleans are not symbols"),
    (([2], ["2"]), "cannot decode symbol '2'"),
])
def test_reader_keys_each_word_by_its_exact_letters(field, words, message):
    text = _file_of_words(field, *words)
    _assert_readers_agree(text)
    with pytest.raises(ConstructionError, match=re.escape(message)):
        serialize.loads(text)


def test_reader_reads_a_repeated_word_as_equal_words():
    text = _file_of_words("output", [1], [1], [[1, "~"]], [[1, "~"]], [],
                          [2, 1])
    _assert_readers_agree(text)
    outputs = [t.output for t in serialize.loads(text).transitions]
    one, pair = (Digit(1),), (Pair(Digit(1), ABSENT),)
    assert sorted(outputs) == sorted(
        [one, one, pair, pair, (), (Digit(2), Digit(1))])
