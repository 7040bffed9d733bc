import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fsmkit import (analysis, automata, digits, export, serialize,
                    transducers)
from fsmkit.errors import (AnalysisError, ConstructionError,
                           InvalidInputError, MachineError)
from fsmkit.machine import (AUTOMATON, TRANSDUCER, Machine, State, Transition,
                            _run, build_machine)
from fsmkit.polynomial import charpoly
from fsmkit.symbols import ABSENT, Digit, Pair, symbol, word

from oracles import nfa_accepts, run_deterministic


def test_build_naf1_structure(naf1):
    assert len(naf1.states) == 4
    assert len(naf1.transitions) == 8
    # states are created in order of first appearance
    assert [st.label for st in naf1.states] == ["I", "0", "1", "2"]
    assert naf1.state("I").is_initial
    assert naf1.state("0").is_final
    assert not naf1.state("2").is_final


def test_build_machine_none_output_is_empty_word(naf1):
    t = next(tr for tr in naf1.transitions if tr.source == "I")
    assert t.output == ()


def test_build_machine_empty_rows_single_state():
    m = build_machine([], initial_labels=["a"], final_labels=["a"],
                      input_alphabet=[0, 1], kind=AUTOMATON)
    assert m.process([]).accepted
    assert not m.process([0]).accepted


def test_build_machine_rejects_foreign_letter():
    with pytest.raises(ConstructionError, match="alphabet"):
        build_machine([("a", "a", 7, None)], ["a"], ["a"], input_alphabet=[0, 1])


ACCEPTING = State("a", True, True)


@pytest.mark.parametrize("kind, states, transitions, outputs, message", [
    (TRANSDUCER, ["a"], [], None, "not a state: 'a'"),
    (TRANSDUCER, [ACCEPTING, State("a")], [], None,
     "duplicate state label 'a'"),
    (TRANSDUCER, [State("a", True, False, word([1]))], [], None,
     "non-final state 'a' carries a final output"),
    (TRANSDUCER, [ACCEPTING], [Transition("a", "b", word([0]))], None,
     "transition endpoints unknown: a --0|ε--> b"),
    (TRANSDUCER, [ACCEPTING], [Transition("a", "a", word([0, 1]))], None,
     "transition input longer than one letter: a --0,1|ε--> a"),
    (TRANSDUCER, [ACCEPTING], [Transition("a", "a", word([7]))], None,
     "input symbol 7 outside the alphabet in transition a --7|ε--> a"),
    (TRANSDUCER, [ACCEPTING], [Transition("a", "a", word([0]), word([5]))],
     [0, 1], "output symbol 5 outside the output alphabet in a --0|5--> a"),
    (AUTOMATON, [ACCEPTING], [Transition("a", "a", word([0]), word([1]))],
     None, "automaton transition with output: a --0|1--> a"),
    (AUTOMATON, [State("a", True, True, word([1]))], [], None,
     "automaton state 'a' with final output"),
    (TRANSDUCER, [State(5, True, True)], [], None,
     "state label is not a string: "
     "State(label=5, is_initial=True, is_final=True, final_output=())"),
    (TRANSDUCER, [State("a", 1, 1)], [], None,
     "state flags are not booleans: "
     "State(label='a', is_initial=1, is_final=1, final_output=())"),
    (TRANSDUCER, [State("a", True, True, [Digit(1)])], [], None,
     "final output is not a tuple: State(label='a', is_initial=True, "
     "is_final=True, final_output=[Digit(value=1)])"),
    (TRANSDUCER, [State("a", True, True, (1,))], [], None,
     "final output letter 1 is not a symbol: "
     "State(label='a', is_initial=True, is_final=True, final_output=(1,))"),
    (TRANSDUCER, [ACCEPTING], [("a", "a", word([0]), ())], None,
     "not a transition: ('a', 'a', (Digit(value=0),), ())"),
    (TRANSDUCER, [ACCEPTING], [Transition("a", "a", 0)], None,
     "transition input is not a tuple: "
     "Transition(source='a', target='a', input=0, output=())"),
    (TRANSDUCER, [ACCEPTING], [Transition("a", "a", word([0]), [Digit(0)])],
     None, "transition output is not a tuple: Transition(source='a', "
     "target='a', input=(Digit(value=0),), output=[Digit(value=0)])"),
    (TRANSDUCER, [ACCEPTING], [Transition("a", "a", word([0]), (0,))], None,
     "output letter 0 is not a symbol: Transition(source='a', target='a', "
     "input=(Digit(value=0),), output=(0,))"),
    (TRANSDUCER, [State("a", True, True, word([7, 7]))],
     [Transition("a", "a", word([0]), word([1]))], [0, 1],
     "final output symbol 7 outside the output alphabet in state 'a'"),
    (TRANSDUCER, [ACCEPTING], [Transition(["a"], "a", word([0]), word([1]))],
     None, "transition endpoint is not a string: Transition(source=['a'], "
     "target='a', input=(Digit(value=0),), output=(Digit(value=1),))"),
    (TRANSDUCER, [ACCEPTING], [Transition("a", "a", ([0],))], None,
     "input letter [0] is not a symbol: Transition(source='a', target='a', "
     "input=([0],), output=())"),
    (TRANSDUCER, [ACCEPTING], [Transition("a", "a", word([0]), ([1],))],
     [0, 1], "output letter [1] is not a symbol: Transition(source='a', "
     "target='a', input=(Digit(value=0),), output=([1],))"),
], ids=["not-a-state", "duplicate-label", "non-final-output",
        "unknown-endpoint", "long-input", "foreign-input", "foreign-output",
        "automaton-output", "automaton-final-output", "int-label",
        "int-flags", "list-final-output", "raw-final-output-letter",
        "not-a-transition", "int-input", "list-output", "raw-output-letter",
        "foreign-final-output", "list-endpoint", "list-input-letter",
        "list-output-letter"])
def test_constructor_names_each_single_fault(kind, states, transitions,
                                             outputs, message):
    with pytest.raises(ConstructionError) as raised:
        Machine(kind, states, transitions, [0, 1], outputs)
    assert str(raised.value) == message


@pytest.mark.parametrize("states, transitions, message", [
    (5, (), "the states must be iterable: 5"),
    ((), 5, "the transitions must be iterable: 5"),
], ids=["states", "transitions"])
def test_rows_that_are_not_iterable_are_refused_by_name(states, transitions,
                                                        message):
    with pytest.raises(ConstructionError) as raised:
        Machine(AUTOMATON, states, transitions, [0])
    assert str(raised.value) == message


def test_the_input_alphabet_must_not_be_empty():
    with pytest.raises(ConstructionError,
                       match="the input alphabet must not be empty"):
        Machine(TRANSDUCER, [ACCEPTING], [], [])


@pytest.mark.parametrize("call", [
    lambda m: build_machine([(10**5000, 1, 0)], [10**5000], [1], [0, 1]),
    lambda m: m.state(10**5000),
    lambda m: m.has_state(10**5000),
], ids=["build_machine", "state", "has_state"])
def test_a_label_too_long_to_write_is_refused_by_name(naf1, call):
    # CPython writes no int of more than 4,300 decimal digits as text
    with pytest.raises(ConstructionError,
                       match="cannot write the label: it has more than"):
        call(naf1)


BIG = 10**5000  # past CPython's 4,300-digit limit on int-to-text conversion
TOO_LONG = "int of more than 4300 decimal digits"


@pytest.mark.parametrize("call, error, message", [
    (lambda m: Machine(BIG, [], [], [0]), ConstructionError,
     f"unknown machine kind an {TOO_LONG}"),
    (lambda m: serialize.decode_word(BIG), ConstructionError,
     f"a word must be an array, got an {TOO_LONG}"),
    (lambda m: serialize.decode_word([[BIG, 0, 1]]), ConstructionError,
     f"cannot decode symbol a list holding an {TOO_LONG}"),
    (lambda m: serialize.machine_from_doc({
        "kind": AUTOMATON, "alphabet": [0], "transitions": [],
        "states": [{"label": BIG, "initial": True, "final": True}]}),
     ConstructionError,
     f"field 'label' must be a JSON string, got an {TOO_LONG}"),
    (lambda m: symbol([BIG, 0, 1]), ConstructionError,
     f"a pair needs exactly two components, got a list holding an {TOO_LONG}"),
    (lambda m: symbol({BIG}), ConstructionError,
     f"cannot interpret a set holding an {TOO_LONG} as a symbol"),
    (lambda m: m.process([[BIG, 0, 1]]), ConstructionError,
     f"a pair needs exactly two components, got a list holding an {TOO_LONG}"),
    (lambda m: digits.Expansion(([BIG],), 0).value(), ConstructionError,
     f"a list holding an {TOO_LONG} has no digit value"),
    (lambda m: m.export(BIG), MachineError,
     f"unknown export format an {TOO_LONG}; expected one of ('dot', 'tikz')"),
    (lambda m: m.export("tikz", coordinates={BIG: None}), MachineError,
     f"coordinates of an {TOO_LONG} must be two finite numbers"),
    (lambda m: export.format_letter_plain(BIG), MachineError,
     f"cannot format an {TOO_LONG}"),
    (lambda m: analysis.bellman_ford(m.digraph(lambda t: 1), BIG),
     AnalysisError, f"source an {TOO_LONG} is not a vertex"),
    (lambda m: analysis.is_aperiodic(m, [BIG]), AnalysisError,
     f"the component names no state: an {TOO_LONG}"),
    (lambda m: automata.count_words(digits.build_naf_acceptor(), [BIG]),
     ConstructionError,
     f"the length must be an int, not a list holding an {TOO_LONG}"),
    (lambda m: transducers.from_transition_function(
        lambda state, letter: (state, None), [0], [[BIG]], []),
     ConstructionError,
     f"the initial label a list holding an {TOO_LONG} is unhashable"),
    (lambda m: charpoly([[Fraction(BIG, 3)]]), AnalysisError,
     "exact linear algebra takes int entries only, found Fraction "
     f"a Fraction holding an {TOO_LONG}"),
    (lambda m: Machine(TRANSDUCER, [BIG], [], [0]), ConstructionError,
     f"not a state: an {TOO_LONG}"),
    (lambda m: Machine(TRANSDUCER, [State("a", BIG)], [], [0]),
     ConstructionError,
     f"state flags are not booleans: a State holding an {TOO_LONG}"),
    (lambda m: Machine(TRANSDUCER, [State("a", True)],
                       [Transition("a", "a", BIG)], [0]),
     ConstructionError,
     f"transition input is not a tuple: a Transition holding an {TOO_LONG}"),
    (lambda m: Machine(TRANSDUCER, [State("a", True)],
                       [Transition("a", "a", (BIG,))], [0]),
     ConstructionError,
     f"input letter an {TOO_LONG} is not a symbol: a Transition holding "
     f"an {TOO_LONG}"),
    (lambda m: Machine(TRANSDUCER, [State("a", True)],
                       [Transition("a", "a", (Digit(0),), (BIG,))], [0]),
     ConstructionError,
     f"output letter an {TOO_LONG} is not a symbol: a Transition holding "
     f"an {TOO_LONG}"),
    (lambda m: build_machine([(BIG,)], ["a"], [], [0]), ConstructionError,
     f"transition row must have 3 or 4 entries: a tuple holding an {TOO_LONG}"),
    (lambda m: m.digraph(lambda t: [BIG]), ConstructionError,
     f"the weight a list holding an {TOO_LONG} of I --0|ε--> 0 is not "
     "a rational"),
    (lambda m: digits.binary_digits([BIG]), ConstructionError,
     f"binary digits are defined for ints, not a list holding an {TOO_LONG}"),
    (lambda m: digits.Expansion((), [BIG]).value(), ConstructionError,
     f"the exponent offset must be an int, not a list holding an {TOO_LONG}"),
    (lambda m: Digit([BIG]), ConstructionError,
     f"digit value must be an int, got a list holding an {TOO_LONG}"),
], ids=["kind", "decode_word", "decode_symbol", "field", "pair", "symbol",
        "word", "digit_value", "format", "coordinates", "format_letter",
        "source", "component", "length", "initial_label", "entry", "state",
        "flags", "input", "input_letter", "output_letter", "row", "weight",
        "binary_digits", "offset", "digit"])
def test_a_message_names_an_int_too_long_to_write(naf1, call, error, message):
    with pytest.raises(error) as raised:
        call(naf1)
    assert str(raised.value) == message


def test_state_lookup_equality_and_repr(naf1):
    assert naf1.state(0).label == "0"
    with pytest.raises(MachineError, match="no state labeled 'zz'"):
        naf1.state("zz")
    assert naf1 != 5
    assert naf1.__eq__(5) is NotImplemented
    assert repr(naf1) == (f"<transducer: {len(naf1.states)} states, "
                          f"{len(naf1.transitions)} transitions>")


@pytest.mark.parametrize("rows, initial, message", [
    ([("a", "b")], ["a"],
     "transition row must have 3 or 4 entries: ('a', 'b')"),
    ([("a", "b", 0)], [], "at least one initial state is required"),
], ids=["two-entries", "no-initial"])
def test_build_machine_refuses_a_bad_row_or_no_initial_state(rows, initial,
                                                             message):
    with pytest.raises(ConstructionError, match=re.escape(message)):
        build_machine(rows, initial, ["b"], input_alphabet=[0])


def test_process_binary_fourteen_rejects_midway(naf1):
    result = naf1.process(digits.binary_digits(14))
    assert result.accepted is False
    assert result.stop_state == "2"
    assert result.output == word([0, -1, 0])


def test_process_padded_binary_fourteen_accepts(naf1):
    result = naf1.process(list(digits.binary_digits(14)) + [0, 0, 0])
    assert result.accepted is True
    assert result.stop_state == "0"
    assert result.output == word([0, -1, 0, 0, 1, 0])


def test_process_empty_input(naf1, naf_completed):
    rejected = naf1.process([])
    assert (rejected.accepted, rejected.stop_state, rejected.output) == \
        (False, "I", ())
    accepted = naf_completed.process([])
    assert accepted.accepted and accepted.output == ()


def test_process_blocks_on_missing_transition(naf_acceptor):
    # the sink-free component has no transition for 1 after 1
    two_ones = naf_acceptor.coaccessible().process([1, 1])
    assert not two_ones.accepted
    assert two_ones.output == ()


@pytest.mark.parametrize("foreign", [Digit(7), ABSENT, Pair(Digit(1), Digit(0))],
                         ids=["digit", "absent", "pair"])
def test_process_rejects_at_a_letter_outside_the_alphabet(machine_T, foreign):
    """The run stops where it reads the foreign letter: its stop state is
    the one the prefix before it reaches, and its output is what that
    prefix wrote, as the walk over the transition list finds."""
    prefix = word([1, 0, 1, 1])
    w = prefix + (foreign,) + word([0, 1])
    run = machine_T.process(w)
    assert (run.accepted, run.stop_state, run.output) == \
        run_deterministic(machine_T, w)
    assert not run.accepted
    assert run.stop_state == machine_T.process(prefix).stop_state
    with pytest.raises(InvalidInputError, match="invalid input sequence"):
        machine_T.transduce(w)


def test_a_long_binary_expansion_through_T_agrees_with_the_walk(machine_T):
    bits = 2**14
    n = random.Random(14).getrandbits(bits) | 1 << (bits - 1)
    w = digits.binary_digits(n)
    assert len(w) == bits
    run = machine_T.process(w)
    assert run.accepted
    assert (run.accepted, run.stop_state, run.output) == \
        run_deterministic(machine_T, w)


def test_transduce_requires_acceptance(naf1, naf_completed):
    with pytest.raises(InvalidInputError, match="invalid input sequence"):
        naf1.transduce(digits.binary_digits(14))
    assert naf_completed.transduce(digits.binary_digits(14)) == \
        word([0, -1, 0, 0, 1])


def test_process_refuses_multiple_initial_states():
    m = build_machine([("a", "b", 0, None)], ["a", "b"], ["b"],
                      input_alphabet=[0], kind=AUTOMATON)
    with pytest.raises(MachineError):
        m.process([0])


def test_process_refuses_epsilon_transitions():
    m = build_machine([("a", "b", None, None)], ["a"], ["b"],
                      input_alphabet=[0], kind=AUTOMATON)
    with pytest.raises(MachineError):
        m.process([0])


def test_automaton_kind_forbids_output():
    with pytest.raises(ConstructionError):
        build_machine([("a", "a", 0, 1)], ["a"], ["a"],
                      input_alphabet=[0], kind=AUTOMATON)


def test_coaccessible_drops_sink(naf_acceptor):
    assert len(naf_acceptor.states) == 3
    trimmed = naf_acceptor.coaccessible()
    assert len(trimmed.states) == 2
    assert len(trimmed.coaccessible().states) == 2  # idempotent here


def test_coaccessible_identity_when_all_final(all_words_acceptor):
    assert all_words_acceptor.coaccessible() == all_words_acceptor


def test_coaccessible_empty_for_nonfinal_sink():
    m = build_machine([("s", "s", 0, None)], ["s"], [],
                      input_alphabet=[0], kind=AUTOMATON)
    assert len(m.coaccessible().states) == 0


def test_accessible_drops_unreachable(naf1):
    rows = [(t.source, t.target, t.input, t.output) for t in naf1.transitions]
    extra = build_machine(rows + [("lost", "0", 0, None)], ["I"], ["0"],
                          naf1.input_alphabet)
    assert len(extra.states) == 5
    assert len(extra.accessible().states) == 4
    assert extra.accessible() == naf1


@pytest.mark.parametrize("builder", ["naf_acceptor", "naf_all", "machine_R"])
def test_trimming_preserves_language(builder, request):
    m = request.getfixturevalue(builder)
    trimmed = m.trim()
    from oracles import all_words
    values = [s.value for s in m.input_alphabet]
    for letters in all_words(values, 6):
        assert nfa_accepts(m, word(letters)) == nfa_accepts(trimmed, word(letters))


def test_relabeled_names_states_breadth_first():
    m = build_machine([("I", "A", 0, None), ("A", "I", 1, None)],
                      ["I"], ["A"], input_alphabet=[0, 1], kind=AUTOMATON)
    r = m.relabeled()
    assert [st.label for st in r.states] == ["0", "1"]
    assert r.state("0").is_initial
    assert r.state("1").is_final


def test_relabeled_idempotent(naf_all):
    once = naf_all.relabeled()
    assert once.relabeled() == once


def test_relabeled_T_has_nine_states(machine_T):
    assert len(machine_T.relabeled().states) == 9


def test_digraph_one_edge_per_transition(naf_all):
    g = naf_all.digraph(lambda t: 0)
    assert len(g.vertices) == 6
    assert len(g.edges) == len(naf_all.transitions)
    assert all(w == 0 for _, _, w in g.edges)


def test_digraph_loop_becomes_self_loop(identity01):
    g = identity01.digraph(lambda t: 1)
    assert all(u == v == "0" for u, v, _ in g.edges)


@pytest.mark.parametrize("weight, value", [
    (2, 2), (True, 1), (0.5, Fraction(1, 2)), (Fraction(2, 3), Fraction(2, 3)),
    ("1/3", Fraction(1, 3)), (Decimal("0.25"), Fraction(1, 4))])
def test_digraph_keeps_every_weight_fraction_takes(identity01, weight, value):
    g = identity01.digraph(lambda t: weight)
    assert [w for _, _, w in g.edges] == [value, value]
    assert all(type(w) is Fraction for _, _, w in g.edges)


@pytest.mark.parametrize("weight", [
    None, "x", float("nan"), float("inf"), -float("inf"), [1]],
    ids=["none", "text", "nan", "inf", "minus-inf", "list"])
def test_digraph_refuses_a_weight_that_is_not_rational(identity01, weight):
    message = re.escape(f"the weight {weight!r} of 0 --0|0--> 0 is not a "
                        "rational")
    with pytest.raises(ConstructionError, match=message):
        identity01.digraph(lambda t: weight)
    with pytest.raises(ConstructionError, match=message):
        analysis.check_minimality(identity01, lambda t: weight)


def test_digraph_names_the_transition_a_weight_function_fails_on(identity01):
    message = re.escape("the weight function failed on 0 --0|0--> 0: "
                        "integer division or modulo by zero")
    with pytest.raises(ConstructionError, match=message) as raised:
        identity01.digraph(lambda t: 1 // 0)
    assert isinstance(raised.value.__cause__, ZeroDivisionError)
    with pytest.raises(ConstructionError, match=message):
        analysis.check_minimality(identity01, lambda t: 1 // 0)


def test_is_deterministic_and_complete(naf1, naf_acceptor):
    assert naf1.is_deterministic()
    assert naf1.is_complete()
    assert naf_acceptor.is_complete()
    trimmed = naf_acceptor.coaccessible()
    assert trimmed.is_deterministic()
    assert not trimmed.is_complete()


def test_two_initial_states_not_deterministic():
    m = build_machine([("a", "b", 0, None)], ["a", "b"], ["b"],
                      input_alphabet=[0], kind=AUTOMATON)
    assert not m.is_deterministic()


def test_structural_equality_ignores_declaration_order():
    rows = [("a", "b", 0, None), ("b", "a", 1, None)]
    m1 = build_machine(rows, ["a"], ["b"], input_alphabet=[0, 1],
                       kind=AUTOMATON)
    m2 = build_machine(list(reversed(rows)), ["a"], ["b"],
                       input_alphabet=[0, 1], kind=AUTOMATON)
    assert m1 == m2


binary_words = st.lists(st.sampled_from([-1, 0, 1]), max_size=10)


@given(binary_words)
def test_process_is_pure(naf_all, letters):
    first = naf_all.process(letters)
    second = naf_all.process(letters)
    assert first == second


@given(binary_words, binary_words)
def test_output_concatenates_over_split_inputs(naf_all, u, v):
    # transition outputs only; final words are excluded from this law
    start, rows = naf_all._steps()
    mid, out_u, ok_u = _run(rows, start, word(u))
    assert ok_u  # complete machine never blocks
    end, out_v, ok_v = _run(rows, mid, word(v))
    assert ok_v
    whole, out_uv, _ = _run(rows, start, word(list(u) + list(v)))
    assert whole == end
    assert out_uv == out_u + out_v


@pytest.mark.parametrize("call", [
    lambda m, tmp: automata.complete(5),
    lambda m, tmp: transducers.cartesian_product(m, 5),
    lambda m, tmp: transducers.compose(5, m),
    lambda m, tmp: transducers.output_projection(5),
    lambda m, tmp: transducers.with_final_word_out(5, 0),
    lambda m, tmp: transducers.simplify(5),
    lambda m, tmp: analysis.check_minimality(5, lambda t: 0),
    lambda m, tmp: analysis.strongly_connected_components(5),
    lambda m, tmp: analysis.terminal_sccs(5),
    lambda m, tmp: analysis.terminal_scc(5),
    lambda m, tmp: analysis.is_aperiodic(5, ["0"]),
    lambda m, tmp: analysis.stationary_distribution(5),
    lambda m, tmp: analysis.expected_density(5),
    lambda m, tmp: analysis.asymptotic_moments(5),
    lambda m, tmp: serialize.dumps(5),
    lambda m, tmp: serialize.save(5, tmp / "m.json"),
    lambda m, tmp: export.render(5, "dot"),
], ids=["complete", "cartesian_product", "compose", "output_projection",
        "with_final_word_out", "simplify", "check_minimality",
        "strongly_connected_components", "terminal_sccs", "terminal_scc",
        "is_aperiodic", "stationary_distribution", "expected_density",
        "asymptotic_moments", "dumps", "save", "render"])
def test_a_machine_argument_that_is_no_machine_is_refused_by_name(
        call, machine_T, tmp_path):
    with pytest.raises(ConstructionError, match="^not a machine: 5$"):
        call(machine_T, tmp_path)
    assert not (tmp_path / "m.json").exists()  # save writes no file
