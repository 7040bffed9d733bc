import re
import sys
from fractions import Fraction

import pytest

from fsmkit.errors import MachineError
from fsmkit.export import format_letter_negative, format_letter_plain
from fsmkit.machine import AUTOMATON, build_machine
from fsmkit.symbols import Digit, Pair

T_COORDINATES = {
    "0": (-2, 0.75), "1": (0, -1), "2": (-6, -1), "3": (6, -1),
    "4": (-4, 2.5), "5": (-6, 5), "6": (6, 5), "7": (4, 2.5),
    "8": (2, 0.75),
}


def test_dot_single_state_machine(identity01):
    text = identity01.export("dot")
    node_lines = [line for line in text.splitlines()
                  if "label=" in line and "->" not in line]
    assert len(node_lines) == 1
    assert text.startswith("digraph")
    assert text.count("{") == text.count("}")


def test_dot_marks_final_states(naf_acceptor):
    text = naf_acceptor.export("dot")
    assert "doublecircle" in text
    assert text.count("doublecircle") == 2  # two accepting states


def test_tikz_places_all_nine_states(machine_T):
    text = machine_T.export("tikz", coordinates=T_COORDINATES)
    assert text.count("\\node[") == 9
    assert "at (-2.000, 0.750)" in text
    assert text.startswith("\\begin{tikzpicture}")
    assert text.rstrip().endswith("\\end{tikzpicture}")


def test_tikz_final_output_arrows(naf_completed):
    text = naf_completed.export("tikz")
    # state 2 carries final output 0 1 shown on an outgoing arrow
    assert "\\$ \\mid 0 1" in text


def test_negative_digits_overlined(machine_T):
    text = machine_T.export("tikz", format_letter=format_letter_negative)
    assert "\\overline{1}" in text
    assert "\\overline{2}" in text


def test_export_deterministic_across_calls(machine_T):
    first = machine_T.export("dot")
    assert first == machine_T.export("dot")
    tikz = machine_T.export("tikz", coordinates=T_COORDINATES)
    assert tikz == machine_T.export("tikz", coordinates=T_COORDINATES)


def test_export_identical_for_equal_machines():
    rows = [("a", "b", 0, None), ("b", "a", 1, None)]
    m1 = build_machine(rows, ["a"], ["b"], input_alphabet=[0, 1], kind=AUTOMATON)
    m2 = build_machine(list(reversed(rows)), ["a"], ["b"],
                       input_alphabet=[0, 1], kind=AUTOMATON)
    assert m1.export("dot") == m2.export("dot")
    assert m1.export("tikz") == m2.export("tikz")


def test_unknown_format_raises(identity01):
    with pytest.raises(MachineError, match="unknown export format"):
        identity01.export("svg")


def test_plain_letters_are_symbols_only():
    assert format_letter_plain(Pair(Digit(-1), Digit(0))) == "(-1, 0)"
    with pytest.raises(MachineError, match="cannot format 7"):
        format_letter_plain(7)


@pytest.mark.parametrize("label, xy", [
    ("0", (1,)), ("0", (1, 2, 3)), ("0", ()), ("0", "xy"), ("0", None),
    ("0", {1: 2, 3: 4}), ("0", (True, 0)), ("0", (0, False)), ("0", ("1", 2)),
    ("0", (float("nan"), 0)), ("0", (0, float("inf"))), ("0", (10**400, 0)),
    ("0", (0, Fraction(-10**400, 3))), ("nowhere", (1,)),
    ("nowhere", (float("inf"), 0)),
], ids=["one", "three", "none-given", "text", "null", "dict", "true",
        "false", "string", "nan", "inf", "huge-int", "huge-fraction",
        "no-state-one", "no-state-inf"])
def test_tikz_refuses_bad_coordinates(machine_T, label, xy):
    with pytest.raises(MachineError, match=re.escape(
            f"coordinates of {label!r} must be two finite numbers")):
        machine_T.export("tikz", coordinates={**T_COORDINATES, label: xy})


@pytest.mark.parametrize("coordinates", [
    [("0", (1, 2))], (), "", 0, {("0", (1, 2))}], ids=[
    "pairs-list", "empty-tuple", "empty-string", "zero", "set"])
def test_tikz_refuses_coordinates_that_are_not_a_mapping(machine_T,
                                                         coordinates):
    with pytest.raises(MachineError, match=re.escape(
            f"coordinates must map state labels to points, not a "
            f"{type(coordinates).__name__}")):
        machine_T.export("tikz", coordinates=coordinates)


def test_tikz_reads_each_coordinate_key_as_a_label(naf1):
    by_text = naf1.export("tikz", coordinates={"0": (5, 7)})
    assert "(5.000, 7.000)" in by_text
    assert naf1.export("tikz", coordinates={0: (5, 7)}) == by_text
    with pytest.raises(MachineError,
                       match=re.escape("two coordinates name state '0'")):
        naf1.export("tikz", coordinates={0: (5, 7), "0": (5, 7)})
    limit = sys.get_int_max_str_digits()
    with pytest.raises(MachineError, match=re.escape(
            f"coordinate an int of more than {limit} decimal digits cannot "
            f"be read as a state label")):
        naf1.export("tikz", coordinates={10**(limit + 1): (5, 7)})


def test_tikz_places_ints_floats_and_fractions_alike(machine_T):
    as_floats = {label: (float(x), float(y))
                 for label, (x, y) in T_COORDINATES.items()}
    as_fractions = {label: [Fraction(x), Fraction(y)]
                    for label, (x, y) in T_COORDINATES.items()}
    expected = machine_T.export("tikz", coordinates=as_floats)
    assert machine_T.export("tikz", coordinates=T_COORDINATES) == expected
    assert machine_T.export("tikz", coordinates=as_fractions) == expected
    assert "(-2.000, 0.750)" in expected


def test_tikz_escapes_backslash_caret_and_tilde_in_labels():
    m = build_machine([("a\\b", "x^2", 0, 1), ("x^2", "x~y", 1, 0)],
                      ["a\\b"], ["x~y"], [0, 1])
    nodes = [line for line in m.export("tikz").splitlines()
             if line.lstrip().startswith("\\node")]
    # each character prints as itself, in a group that keeps the next
    # letter from joining the command
    assert [line[line.index("{$"):] for line in nodes] == [
        r"{$a{\backslash}b$};", r"{$x{\hat{}}2$};", r"{$x{\sim}y$};"]
