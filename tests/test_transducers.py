import re

import pytest

from fsmkit import automata, digits, transducers
from fsmkit.errors import ConstructionError, MachineError, StateCapError
from fsmkit.machine import (TRANSDUCER, Machine, State, Transition,
                            build_machine)
from fsmkit.symbols import ABSENT, Digit, Pair, word
from fsmkit.transducers import (abs_transducer, cartesian_product, compose,
                                from_transition_function, identity_transducer,
                                operator_lift, output_projection, simplify,
                                weight_transducer, with_final_word_out)

from oracles import all_words, nfa_accepts, run_deterministic

BIN14 = digits.binary_digits(14)


# ----------------------------------------------------------------------
# transition functions
# ----------------------------------------------------------------------

def test_transition_function_matches_explicit_rewriter(naf_completed):
    built = digits.build_naf2()
    assert built.relabeled() == naf_completed.relabeled()


def test_transition_function_signed_digits_has_six_states(naf_all):
    assert len(naf_all.states) == 6
    assert {st.label for st in naf_all.states} == \
        {"I", "-2", "-1", "0", "1", "2"}


def test_transition_function_echo():
    echo = from_transition_function(
        lambda state, read: ("0", read),
        input_alphabet=[0, 1], initial_labels=["0"], final_labels=["0"])
    # a transition-function machine has no output alphabet, and equality
    # compares it, so the echo states the identity's
    assert echo.output_alphabet is None
    assert Machine(echo.kind, echo.states, echo.transitions,
                   echo.input_alphabet, [0, 1]) == identity_transducer([0, 1])


def test_transition_function_reads_pairs_as_nested_tuples():
    seen = []

    def first_component(state, read):
        seen.append(read)
        return "0", read[0]

    m = from_transition_function(first_component, [(0, None), (1, 0)],
                                 initial_labels=["0"], final_labels=["0"])
    assert seen == [(0, None), (1, 0)]
    assert m.transduce([(1, 0), (0, None)]) == word([1, 0])


@pytest.mark.parametrize("bad, reason", [
    (lambda: int("x"), "invalid literal for int()"),
    (lambda: None, "cannot unpack"),
    (lambda: 3, "cannot unpack"),
    (lambda: ("b", 1, 0), "too many values to unpack"),
    (lambda: (["b"], 1), "unhashable type: 'list'"),
    (lambda: (("b", {}), 1), "unhashable type: 'dict'"),
    (lambda: ("b", "x"), "cannot interpret 'x' as a symbol"),
], ids=["raises", "none", "int", "triple", "list-state", "nested-dict-state",
        "text-word"])
def test_transition_function_failure_names_the_state_and_letter(bad, reason):
    def fn(state, read):
        return ("b", read) if state == "a" or read == 0 else bad()
    with pytest.raises(ConstructionError, match=re.escape(
            f"the transition function failed on state 'b', letter 1: {reason}")):
        from_transition_function(fn, input_alphabet=[0, 1],
                                 initial_labels=["a"], final_labels=["a"])


@pytest.mark.parametrize("labels", [[["a"]], ["a", {"b": 0}], [("a", [])]],
                         ids=["list", "dict", "tuple-with-list"])
def test_transition_function_refuses_an_unhashable_initial_label(labels):
    with pytest.raises(ConstructionError, match=re.escape(
            f"the initial label {labels[-1]!r} is unhashable")):
        from_transition_function(lambda state, read: ("a", read),
                                 input_alphabet=[0, 1], initial_labels=labels,
                                 final_labels=["a"])


@pytest.mark.parametrize("labels", [[["a"]], ["a", {"b": 0}], [("a", [])]],
                         ids=["list", "dict", "tuple-with-list"])
def test_transition_function_refuses_an_unhashable_final_label(labels):
    with pytest.raises(ConstructionError, match=re.escape(
            f"the final label {labels[-1]!r} is unhashable")):
        from_transition_function(lambda state, read: (state, read),
                                 input_alphabet=[0, 1], initial_labels=["a"],
                                 final_labels=labels)


def test_state_cap_env_override(monkeypatch):
    # a chain that outgrows the cap, and more initial states than it admits
    for cap, fn, starts, finals in (
            ("7", lambda state, read: (state + 1, read), [0], [0]),
            ("2", lambda state, read: (state, []), [0, 1, 2, 3], [])):
        monkeypatch.setenv("FSMKIT_STATE_CAP", cap)
        with pytest.raises(StateCapError, match=cap):
            from_transition_function(
                fn, input_alphabet=[0], initial_labels=starts,
                final_labels=finals)


def test_state_cap_admits_as_many_initial_states_as_it_allows(monkeypatch):
    monkeypatch.setenv("FSMKIT_STATE_CAP", "4")
    m = from_transition_function(lambda state, read: (state, []),
                                 input_alphabet=[0],
                                 initial_labels=[0, 1, 2, 3, 3, 0],
                                 final_labels=[])
    assert len(m.initial_states()) == 4


@pytest.mark.parametrize("value", ["x", "0", "-3", "2.5"])
def test_state_cap_env_must_be_a_positive_integer(monkeypatch, value):
    monkeypatch.setenv("FSMKIT_STATE_CAP", value)
    with pytest.raises(StateCapError, match="FSMKIT_STATE_CAP"):
        from_transition_function(
            lambda state, read: (state, read),
            input_alphabet=[0], initial_labels=[0], final_labels=[0])


def test_state_cap_bounds_composition(monkeypatch, triple):
    # triple after triple has 9 reachable states
    monkeypatch.setenv("FSMKIT_STATE_CAP", "5")
    with pytest.raises(StateCapError, match="5"):
        compose(triple, triple)


# ----------------------------------------------------------------------
# one-state transducers
# ----------------------------------------------------------------------

def test_identity_echoes_input(identity01):
    assert identity01.transduce([0, 1, 1, 1]) == word([0, 1, 1, 1])


def test_identity_equals_hand_built():
    explicit = build_machine([(0, 0, 0, 0), (0, 0, 1, 1)],
                             initial_labels=[0], final_labels=[0],
                             input_alphabet=[0, 1], output_alphabet=[0, 1])
    assert identity_transducer([0, 1]) == explicit


def test_composing_identity_is_neutral(naf_completed):
    ident = identity_transducer([-1, 0, 1])
    composed = compose(ident, naf_completed)
    for letters in all_words([0, 1], 8):
        assert composed.transduce(letters) == naf_completed.transduce(letters)


def test_weight_counts_nonzeros():
    weigher = weight_transducer(range(-2, 3))
    out = weigher.transduce([0, 0, 2, 0, 1, -1, 1])
    assert sum(s.value for s in out) == 4
    zeros = weigher.transduce([0, 0, 0])
    assert all(s.value == 0 for s in zeros)


def test_abs_equals_weight_on_unit_digits():
    assert abs_transducer([-1, 0, 1]) == weight_transducer([-1, 0, 1])
    assert abs_transducer([-2, 0, 2]).transduce([-2, 0, 2]) == word([2, 0, 2])


def test_operator_lift_componentwise_difference():
    minus = digits.build_minus()
    pairs = [(0, 0), (1, 1), (0, 1), (1, 1), (0, None), (1, None)]
    assert minus.transduce([pairs_to_symbol(p) for p in pairs]) == \
        word([0, 0, -1, 0, 0, 1])
    assert minus.transduce([Pair(ABSENT, Digit(1))]) == word([-1])


def pairs_to_symbol(p):
    return Pair(Digit(p[0]) if p[0] is not None else ABSENT,
                Digit(p[1]) if p[1] is not None else ABSENT)


def test_operator_lift_identity_is_identity():
    assert operator_lift(lambda a: a, [0, 1]) == identity_transducer([0, 1])


def test_operator_lift_propagates_failures():
    def bad(sym):
        raise ValueError("no")
    with pytest.raises(ConstructionError, match="failed"):
        operator_lift(bad, [0, 1])


# ----------------------------------------------------------------------
# cartesian product
# ----------------------------------------------------------------------

def test_product_pairs_up_digits(combined_3n_n):
    out = combined_3n_n.transduce(BIN14)
    expected = [(0, 0), (1, 1), (0, 1), (1, 1), (0, None), (1, None)]
    assert out == tuple(pairs_to_symbol(p) for p in expected)


def test_product_final_output_contains_absent(combined_3n_n):
    padded = [s for st in combined_3n_n.states for s in st.final_output
              if isinstance(s, Pair) and s.right is ABSENT]
    assert padded


def test_product_projections_match_factors(triple, identity01):
    prod = cartesian_product(triple, identity01)
    for letters in all_words([0, 1], 8):
        pairs = prod.transduce(letters)
        left = [p.left for p in pairs if isinstance(p.left, Digit)]
        right = [p.right for p in pairs if isinstance(p.right, Digit)]
        assert tuple(left) == triple.transduce(letters)
        assert tuple(right) == identity01.transduce(letters)


def test_product_of_identities_minus_writes_zero(identity01):
    doubled = cartesian_product(identity01, identity01)
    minus = digits.build_minus()
    zeroing = compose(minus, doubled)
    for letters in all_words([0, 1], 5):
        assert all(s.value == 0 for s in zeroing.transduce(letters))


def test_product_names_that_collide_get_a_suffix():
    # the pairs ("a,b", "c") and ("a", "b,c") both print as (a,b,c)
    left = build_machine([("a,b", "a", 0, 0), ("a", "a", 0, 0)],
                         ["a,b"], ["a,b", "a"], input_alphabet=[0])
    right = build_machine([("c", "b,c", 0, 1), ("b,c", "b,c", 0, 1)],
                          ["c"], ["c", "b,c"], input_alphabet=[0])
    prod = cartesian_product(left, right)
    assert [st.label for st in prod.states] == ["(a,b,c)", "(a,b,c)#1"]
    assert prod.transduce([0, 0]) == (Pair(Digit(0), Digit(1)),) * 2


def test_product_requires_single_symbol_outputs(identity01, naf1):
    # the raw rewriter writes empty words out of its initial state
    with pytest.raises(MachineError, match="exactly one output symbol"):
        cartesian_product(naf1, identity01)


def test_product_requires_equal_alphabets(identity01):
    with pytest.raises(MachineError, match="alphabet"):
        cartesian_product(identity01, identity_transducer([0, 1, 2]))


def test_product_rejects_nondeterministic_factor(identity01):
    branching = build_machine([("a", "a", 0, 0), ("a", "b", 0, 1),
                               ("b", "b", 1, 1)],
                              ["a"], ["a", "b"], input_alphabet=[0, 1])
    with pytest.raises(MachineError, match="nondeterministic"):
        cartesian_product(branching, identity01)


def test_product_rejects_epsilon_input_factor(identity01):
    jumping = build_machine([("a", "b", None, 0), ("b", "b", 1, 1)],
                            ["a"], ["b"], input_alphabet=[0, 1])
    with pytest.raises(MachineError, match="epsilon"):
        cartesian_product(identity01, jumping)


def test_product_names_the_factor_without_single_initial(identity01):
    twice = build_machine([("a", "a", 0, 0), ("b", "b", 1, 1)],
                          ["a", "b"], ["a"], input_alphabet=[0, 1])
    with pytest.raises(MachineError, match="right machine"):
        cartesian_product(identity01, twice)


TWO_INITIAL = build_machine([("a", "a", 0, 0), ("b", "b", 1, 1)],
                            ["a", "b"], ["a"], input_alphabet=[0, 1])
BRANCHING = build_machine([("a", "a", 0, 0), ("a", "b", 0, 1),
                           ("b", "b", 1, 1)],
                          ["a"], ["a", "b"], input_alphabet=[0, 1])
JUMPING = build_machine([("a", "b", None, 0), ("b", "b", 1, 1)],
                        ["a"], ["b"], input_alphabet=[0, 1])
ONE_INITIAL = "a deterministic run needs exactly one initial state, found 2"
NONDETERMINISTIC = "nondeterministic on state 'a', letter 0"
EPSILON = "epsilon transition blocks execution: a --ε|0--> b"


@pytest.mark.parametrize("construct, first, second, message", [
    (cartesian_product, None, TWO_INITIAL, "the right machine: " + ONE_INITIAL),
    (cartesian_product, TWO_INITIAL, None, "the left machine: " + ONE_INITIAL),
    (cartesian_product, BRANCHING, None,
     "the left machine: " + NONDETERMINISTIC),
    (cartesian_product, None, JUMPING, "the right machine: " + EPSILON),
    (compose, None, TWO_INITIAL, "the inner machine: " + ONE_INITIAL),
    (compose, TWO_INITIAL, None, "the outer machine: " + ONE_INITIAL),
    (compose, BRANCHING, None, "the outer machine: " + NONDETERMINISTIC),
    (compose, None, BRANCHING, "the inner machine: " + NONDETERMINISTIC),
    (compose, None, JUMPING, "the inner machine: " + EPSILON),
], ids=["product-right-initials", "product-left-initials",
        "product-left-branching", "product-right-epsilon",
        "compose-inner-initials", "compose-outer-initials",
        "compose-outer-branching", "compose-inner-branching",
        "compose-inner-epsilon"])
def test_product_and_composition_name_the_machine_and_the_reason(
        identity01, construct, first, second, message):
    with pytest.raises(MachineError, match="^" + re.escape(message) + "$"):
        construct(first or identity01, second or identity01)


@pytest.mark.parametrize("construct", [simplify, automata.complete])
@pytest.mark.parametrize("machine, message", [
    (TWO_INITIAL, ONE_INITIAL), (BRANCHING, NONDETERMINISTIC),
    (JUMPING, EPSILON)], ids=["initials", "branching", "epsilon"])
def test_simplify_and_complete_raise_the_step_table_message(construct, machine,
                                                            message):
    with pytest.raises(MachineError, match="^" + re.escape(message) + "$"):
        construct(machine)


# ----------------------------------------------------------------------
# composition
# ----------------------------------------------------------------------

def test_composition_three_n(naf3, triple):
    naf3n = compose(naf3, triple)
    out = naf3n.transduce(BIN14)
    assert digits.Expansion(out, -1).value() == 42


def test_composition_difference_chain(naf3):
    out = naf3.transduce(BIN14)
    assert out == word([0, 0, -1, 0, 0, 1])
    assert digits.Expansion(out, -1).value() == 14


def test_composition_agrees_with_two_stage_run(naf_completed):
    weigher = weight_transducer([-1, 0, 1])
    composed = compose(weigher, naf_completed)
    for letters in all_words([0, 1], 8):
        staged = weigher.transduce(naf_completed.transduce(letters))
        assert composed.transduce(letters) == staged


def test_composition_blocks_when_outer_cannot_read(naf_completed):
    narrow = identity_transducer([0, 1])  # cannot read the -1 output
    with pytest.raises(MachineError, match="blocks"):
        compose(narrow, naf_completed)


def test_composition_drops_finality_when_outer_blocks_on_final_output():
    inner = Machine(
        "transducer",
        (State("a", is_initial=True, is_final=True, final_output=word([2])),),
        (Transition("a", "a", word([0]), word([0])),),
        [0])
    outer = identity_transducer([0, 1])  # cannot read the final 2
    composed = compose(outer, inner)
    assert not composed.process([0, 0]).accepted


# ----------------------------------------------------------------------
# output projection
# ----------------------------------------------------------------------

def test_projection_of_rewriter_is_naf_language(naf_all, naf_acceptor):
    projected = automata.minimize(output_projection(naf_all))
    assert automata.is_equivalent(projected, naf_acceptor)


def test_projection_accepts_produced_output(machine_T, machine_R):
    assert machine_R.accepts(machine_T.transduce(BIN14))


def test_projection_of_identity_accepts_everything(identity01):
    projected = output_projection(identity01)
    assert automata.is_equivalent(
        projected,
        build_machine([(0, 0, 0, None), (0, 0, 1, None)],
                      initial_labels=[0], final_labels=[0],
                      input_alphabet=[0, 1], kind="automaton"))


def test_projection_language_matches_brute_force(naf_all):
    projected = automata.minimize(output_projection(naf_all))
    enumerated = {w for w in automata.language(projected, 6)}
    produced = set()
    for letters in all_words([-1, 0, 1], 10):
        out = naf_all.transduce(letters)
        if len(out) <= 6:
            produced.add(out)
    assert enumerated == produced


def _chain_names_collide():
    """'a' writes 1,1 on its way to 'a.out0', the name the projection
    would give the first state of that output chain."""
    return build_machine([("a", "a.out0", 0, [1, 1]), ("a.out0", "a", 1, 0)],
                         ["a"], ["a"], [0, 1])


def _accept_names_collide():
    """'b' is final with final output 1,1 and has a neighbour named
    'b.accept', the name the projection would give its accepting state."""
    return Machine(TRANSDUCER,
                   (State("b", True, True, word([1, 1])), State("b.accept")),
                   (Transition("b", "b.accept", word([0]), word([0])),
                    Transition("b.accept", "b", word([0]), word([1]))),
                   [0, 1])


@pytest.mark.parametrize("build, fresh_states", [
    (_chain_names_collide, 1), (_accept_names_collide, 2)])
def test_projection_names_that_collide_get_a_suffix(build, fresh_states):
    t = build()
    projected = output_projection(t)
    assert len(projected.states) == len(t.states) + fresh_states
    # every transition writes a letter, so outputs of length <= 6 come
    # from inputs of length <= 6
    produced = set()
    for letters in all_words([0, 1], 6):
        accepted, _, out = run_deterministic(t, word(letters))
        if accepted and len(out) <= 6:
            produced.add(out)
    language = {word(w) for w in all_words([0, 1], 6)
                if nfa_accepts(projected, word(w))}
    assert language == produced


# ----------------------------------------------------------------------
# final-word completion
# ----------------------------------------------------------------------

def test_final_word_out_values(naf1, naf_completed):
    assert naf_completed.state("2").final_output == word([0, 1])
    assert naf_completed.state("1").final_output == word([1])
    assert naf_completed.state("0").final_output == ()
    assert naf_completed.transduce(BIN14) == word([0, -1, 0, 0, 1])


def test_final_word_out_keeps_existing_final_outputs(naf1):
    again = with_final_word_out(naf1, 0)
    assert with_final_word_out(again, 0) == again


def test_final_word_out_matches_padded_run(naf1, naf_completed):
    steps = {(t.source, t.input[0]): t for t in naf1.transitions}
    for letters in all_words([0, 1], 8):
        result = naf_completed.process(letters)
        assert result.accepted
        # minimal number of padding zeros to reach a final state
        stop = naf1.process(letters).stop_state
        padding = 0
        while not naf1.state(stop).is_final:
            stop = steps[(stop, Digit(0))].target
            padding += 1
        padded = naf1.transduce(list(letters) + [0] * padding)
        assert result.output == padded


def test_final_word_out_unknown_letter(naf1):
    with pytest.raises(MachineError, match="alphabet"):
        with_final_word_out(naf1, 7)


def test_final_word_out_leaves_cycling_states_nonfinal():
    spinner = build_machine(
        [("a", "b", 0, 1), ("b", "a", 0, 1), ("a", "ok", 1, 0),
         ("b", "ok", 1, 0), ("ok", "ok", 0, 0), ("ok", "ok", 1, 0)],
        initial_labels=["a"], final_labels=["ok"], input_alphabet=[0, 1])
    completed = with_final_word_out(spinner, 0)
    assert not completed.state("a").is_final
    assert not completed.state("b").is_final
    assert completed.state("ok").is_final


def test_final_word_out_leaves_blocked_states_nonfinal():
    # "a" reads 0 into "b", which has no move on 0
    blocked = build_machine(
        [("a", "b", 0, 1), ("b", "ok", 1, 0)],
        initial_labels=["a"], final_labels=["ok"], input_alphabet=[0, 1])
    completed = with_final_word_out(blocked, 0)
    assert not completed.state("a").is_final
    assert not completed.state("b").is_final
    assert completed.state("ok").is_final


def test_final_word_out_errors_when_nothing_completes():
    spinner = build_machine(
        [("a", "b", 0, 1), ("b", "a", 0, 1)],
        initial_labels=["a"], final_labels=[], input_alphabet=[0])
    with pytest.raises(MachineError, match="no state"):
        with_final_word_out(spinner, 0)


# ----------------------------------------------------------------------
# simplification
# ----------------------------------------------------------------------

def test_simplify_is_idempotent(machine_W):
    assert simplify(machine_W) == machine_W.relabeled()


def test_simplify_identity_is_identity(identity01):
    assert simplify(identity01) == identity01


def test_simplify_merges_equivalent_states():
    duplicated = build_machine(
        [("a", "b", 0, 1), ("a", "c", 1, 1),
         ("b", "b", 0, 0), ("b", "c", 1, 0),
         ("c", "c", 0, 0), ("c", "b", 1, 0)],
        initial_labels=["a"], final_labels=["a", "b", "c"],
        input_alphabet=[0, 1])
    merged = simplify(duplicated)
    assert len(merged.states) == 2
    for letters in all_words([0, 1], 7):
        assert merged.transduce(letters) == duplicated.transduce(letters)


def test_simplify_keeps_apart_states_that_differ_only_in_final_output():
    # b and c have the same moves, outputs and finality; only their final
    # outputs, (1) and (0, 1), tell them apart
    states = [State("a", is_initial=True),
              State("b", is_final=True, final_output=word(1)),
              State("c", is_final=True, final_output=word([0, 1]))]
    transitions = [Transition(source, target, word(letter), word(0))
                   for source in "abc"
                   for target, letter in (("b", 0), ("c", 1))]
    m = Machine(TRANSDUCER, states, transitions, [0, 1])
    simplified = simplify(m)
    assert len(simplified.states) == 3
    for letters in all_words([0, 1], 4):
        run, expected = simplified.process(letters), m.process(letters)
        assert (run.accepted, run.output) == (expected.accepted,
                                              expected.output)


def test_simplify_preserves_function(machine_T, machine_W):
    raw = compose(weight_transducer(range(-2, 3)), machine_T)
    assert len(machine_W.states) <= len(raw.states)
    for letters in all_words([0, 1], 10):
        assert machine_W.transduce(letters) == raw.transduce(letters)
