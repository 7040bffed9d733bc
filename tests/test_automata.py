import re
import sys
from itertools import combinations

import pytest

from fsmkit import automata, digits, transducers
from fsmkit.automata import (Recurrence, complement, complete, concat,
                             count_words, determinize, empty_word_automaton,
                             intersection, is_equivalent, kleene_star,
                             language, minimize, union, word_automaton,
                             word_count_recurrence)
from fsmkit.errors import ConstructionError, MachineError, StateCapError
from fsmkit.machine import AUTOMATON, Machine, build_machine
from fsmkit.symbols import word, word_key

from oracles import (all_words, contains_word, nfa_accepts,
                     recurrence_terms)

ALPHA = [-1, 0, 1]


# ----------------------------------------------------------------------
# builders
# ----------------------------------------------------------------------

def test_word_automaton_single_letter():
    one = word_automaton([1], ALPHA)
    assert len(one.states) == 2
    assert one.accepts([1])
    for rejected in ([], [0], [1, 1], [-1]):
        assert not one.accepts(rejected)


def test_word_automaton_two_letters_accepts_exactly_itself():
    ten = word_automaton([1, 0], ALPHA)
    accepted = [w for w in all_words(ALPHA, 3) if nfa_accepts(ten, word(w))]
    assert accepted == [(1, 0)]


def test_word_automaton_empty_equals_empty_word_automaton():
    assert is_equivalent(word_automaton([], ALPHA), empty_word_automaton(ALPHA))


def test_word_automaton_rejects_foreign_symbols():
    with pytest.raises(ConstructionError):
        word_automaton([5], ALPHA)


def test_word_automaton_names_the_transition_of_a_foreign_letter():
    # the constructor's check, which names the transition
    with pytest.raises(ConstructionError, match=re.escape(
            "input symbol 5 outside the alphabet in transition 1 --5|ε--> 2")):
        word_automaton([0, 5], ALPHA)


def test_empty_word_automaton(naf_acceptor):
    eps = empty_word_automaton(ALPHA)
    assert eps.accepts([])
    assert not eps.accepts([0])
    assert is_equivalent(concat(eps, naf_acceptor), naf_acceptor)


def test_contains_word_examples():
    cw = contains_word([1, 1], ALPHA)
    assert nfa_accepts(cw, word([0, 1, 1, 0]))
    assert not nfa_accepts(cw, word([1, 0, 1]))
    assert nfa_accepts(contains_word([1, -1], ALPHA), word([1, -1]))
    with pytest.raises(ConstructionError):
        contains_word([], ALPHA)


def test_contains_word_overlapping_factor():
    cw = contains_word([1, 0, 1], [0, 1])
    for letters in all_words([0, 1], 7):
        expected = any(letters[i:i + 3] == (1, 0, 1)
                       for i in range(len(letters) - 2))
        assert nfa_accepts(cw, word(letters)) == expected


# ----------------------------------------------------------------------
# regular operations
# ----------------------------------------------------------------------

def test_kleene_star_accepts_empty_word():
    starred = kleene_star(word_automaton([1, 1], ALPHA))
    assert nfa_accepts(starred, ())
    assert nfa_accepts(starred, word([1, 1, 1, 1]))
    assert not nfa_accepts(starred, word([1, 1, 1]))


def test_union_keeps_both_initial_states():
    u = union(word_automaton([1], ALPHA), word_automaton([0], ALPHA))
    assert len(u.initial_states()) == 2
    assert not u.is_deterministic()
    assert nfa_accepts(u, word([1])) and nfa_accepts(u, word([0]))


def test_operations_reject_alphabet_mismatch():
    a = word_automaton([1], [0, 1])
    b = word_automaton([1], ALPHA)
    for op in (union, concat, intersection, is_equivalent):
        with pytest.raises(MachineError, match="alphabet"):
            op(a, b)


def test_regex_shape_of_naf_language(naf_acceptor):
    w = lambda letters: word_automaton(letters, ALPHA)
    block = union(union(w([0]), concat(w([1]), w([0]))),
                  concat(w([-1]), w([0])))
    tail = union(union(w([1]), w([-1])), empty_word_automaton(ALPHA))
    rebuilt = minimize(concat(kleene_star(block), tail))
    assert rebuilt == naf_acceptor


# ----------------------------------------------------------------------
# determinisation
# ----------------------------------------------------------------------

def test_determinize_preserves_language_of_intermediates():
    pieces = [contains_word([1, 1], ALPHA), contains_word([1, -1], ALPHA),
              contains_word([-1, 1], ALPHA), contains_word([-1, -1], ALPHA)]
    machines = [union(union(pieces[0], pieces[1]),
                      union(pieces[2], pieces[3]))]
    w = lambda letters: word_automaton(letters, ALPHA)
    machines.append(kleene_star(union(union(w([0]), concat(w([1]), w([0]))),
                                      concat(w([-1]), w([0])))))
    for m in machines:
        d = determinize(m)
        assert d.is_deterministic()
        for letters in all_words(ALPHA, 5):
            assert nfa_accepts(m, word(letters)) == d.accepts(word(letters))


def test_determinize_already_deterministic(naf_acceptor):
    assert is_equivalent(determinize(naf_acceptor), naf_acceptor)


def test_determinize_exponential_blowup():
    # "third letter from the end is 1" needs 2^3 deterministic states
    rows = [("0", "0", 0, None), ("0", "0", 1, None), ("0", "1", 1, None),
            ("1", "2", 0, None), ("1", "2", 1, None),
            ("2", "3", 0, None), ("2", "3", 1, None)]
    nfa = build_machine(rows, ["0"], ["3"], input_alphabet=[0, 1],
                        kind=AUTOMATON)
    assert len(determinize(nfa).states) == 8


def test_subset_names_that_collide_get_a_suffix():
    # the subsets {a, b} and {"a,b"} both print as {a,b}
    nfa = build_machine([("s", "a", 0), ("s", "b", 0), ("s", "a,b", 1)],
                        ["s"], ["a"], input_alphabet=[0, 1], kind=AUTOMATON)
    d = determinize(nfa)
    assert [st.label for st in d.states] == ["{s}", "{a,b}", "{a,b}#1"]
    for letters in all_words([0, 1], 3):
        assert d.accepts(word(letters)) == nfa_accepts(nfa, word(letters))
    assert [st.label for st in minimize(nfa).states] == ["0", "1", "2"]


def test_determinize_respects_the_state_cap(monkeypatch):
    starred = kleene_star(word_automaton([0, 1, 0, 1, 1], [0, 1]))
    assert len(determinize(starred).states) == 6
    monkeypatch.setenv("FSMKIT_STATE_CAP", "2")
    with pytest.raises(StateCapError, match="2"):
        determinize(starred)


def test_determinize_of_a_deterministic_automaton_respects_the_state_cap(
        monkeypatch):
    chain = word_automaton([0, 1, 0, 1], [0, 1])  # 5 states, deterministic
    monkeypatch.setenv("FSMKIT_STATE_CAP", "4")
    with pytest.raises(StateCapError,
                       match="exploration exceeded the state cap of 4"):
        determinize(chain)
    monkeypatch.setenv("FSMKIT_STATE_CAP", "5")
    d = determinize(chain)
    assert [st.label for st in d.states] == ["{0}", "{1}", "{2}", "{3}", "{4}"]
    monkeypatch.setenv("FSMKIT_STATE_CAP", "4")
    with pytest.raises(StateCapError, match="4"):
        determinize(chain)  # the kept form answers to the cap too


def test_counting_reads_a_deterministic_automaton_past_the_state_cap(
        monkeypatch):
    # counting and enumeration trim a deterministic automaton as it
    # stands and never determinize it, so the state cap does not apply
    chain = word_automaton([0, 1, 0, 1], [0, 1])  # 5 states, deterministic
    monkeypatch.setenv("FSMKIT_STATE_CAP", "4")
    assert count_words(chain, 4) == 1
    assert count_words(chain, 3) == 0
    recurrence = word_count_recurrence(chain)
    assert [recurrence.term(n) for n in range(8)] == [0, 0, 0, 0, 1, 0, 0, 0]
    assert list(language(chain, 6)) == [word([0, 1, 0, 1])]
    with pytest.raises(StateCapError,
                       match="exploration exceeded the state cap of 4"):
        determinize(chain)


# ----------------------------------------------------------------------
# complete / complement / intersection
# ----------------------------------------------------------------------

def test_complete_adds_matching_sink(naf_acceptor):
    partial = naf_acceptor.coaccessible()
    completed = complete(partial)
    assert len(completed.states) == 3
    assert completed.is_complete()
    assert is_equivalent(completed, naf_acceptor)


def test_complete_leaves_complete_machine_alone(naf_acceptor):
    assert complete(naf_acceptor) == naf_acceptor


def test_complete_then_coaccessible_restores_original(naf_acceptor):
    partial = naf_acceptor.coaccessible()
    assert complete(partial).coaccessible() == partial


def test_complete_requires_determinism():
    u = union(word_automaton([1], ALPHA), word_automaton([0], ALPHA))
    with pytest.raises(MachineError):
        complete(u)


def test_complete_refuses_clashing_sink_label():
    partial = build_machine([("a", "sink", 0), ("sink", "a", 1)], ["a"],
                            ["sink"], input_alphabet=[0, 1], kind=AUTOMATON)
    with pytest.raises(ConstructionError, match="'sink' already in use"):
        complete(partial)


def test_complement_involution(naf_acceptor):
    assert is_equivalent(complement(complement(naf_acceptor)), naf_acceptor)


def test_complement_examples(all_words_acceptor):
    no_ones = complement(contains_word([1, 1], ALPHA))
    assert not no_ones.accepts([1, 1, 0])
    assert no_ones.accepts([1, 0, 1])
    nothing = complement(all_words_acceptor)
    assert list(language(nothing, 3)) == []


def test_intersection_laws(naf_acceptor, all_words_acceptor):
    assert is_equivalent(intersection(naf_acceptor, all_words_acceptor),
                         naf_acceptor)
    assert is_equivalent(intersection(naf_acceptor, naf_acceptor),
                         naf_acceptor)
    empty = intersection(naf_acceptor, complement(naf_acceptor))
    assert list(language(empty, 3)) == []


def test_intersection_with_a_deterministic_operand_respects_the_state_cap(
        monkeypatch):
    chain = word_automaton([0, 1, 0, 1], [0, 1])  # 5 states, deterministic
    # 5 states, deterministic, of which "x" and "y" are unreachable
    spare = build_machine([("a", "b", 0), ("b", "c", 1), ("x", "y", 0),
                           ("y", "a", 1)], ["a"], ["c"], [0, 1],
                          kind=AUTOMATON)
    monkeypatch.setenv("FSMKIT_STATE_CAP", "4")
    for a, b in ((chain, spare), (spare, chain), (chain, chain)):
        with pytest.raises(StateCapError,
                           match="exploration exceeded the state cap of 4"):
            intersection(a, b)
    both = intersection(spare, spare)
    assert [st.label for st in both.states] == [
        "({a},{a})", "({b},{b})", "({c},{c})"]
    assert list(language(both, 4)) == [word([0, 1])]


def test_de_morgan_on_forbidden_factors():
    factors = ([1, 1], [1, -1], [-1, 1], [-1, -1])
    machines = [contains_word(f, ALPHA) for f in factors]
    as_intersection = minimize(
        intersection(intersection(complement(machines[0]), complement(machines[1])),
                     intersection(complement(machines[2]), complement(machines[3]))))
    as_complement_of_union = minimize(complement(determinize(
        union(union(machines[0], machines[1]),
              union(machines[2], machines[3])))))
    assert is_equivalent(as_intersection, as_complement_of_union)


# ----------------------------------------------------------------------
# minimization and equivalence
# ----------------------------------------------------------------------

def test_minimize_naf_language_has_three_states(naf_acceptor):
    assert len(naf_acceptor.states) == 3  # built through minimize


def test_minimize_idempotent(naf_acceptor, machine_R):
    assert minimize(naf_acceptor) == naf_acceptor
    assert minimize(machine_R) == machine_R


def test_minimize_no_smaller_quotient_is_equivalent(naf_acceptor):
    m = naf_acceptor
    labels = [st.label for st in m.states]
    step = {(t.source, t.input[0]): t.target for t in m.transitions}

    def quotient(partition):
        block = {}
        for i, part in enumerate(partition):
            for label in part:
                block[label] = i
        rows = []
        for part in partition:
            rep = part[0]
            for letter in m.input_alphabet:
                targets = {block[step[(label, letter)]] for label in part}
                if len(targets) > 1:
                    return None  # inconsistent partition
                finals = {m.state(label).is_final for label in part}
                if len(finals) > 1:
                    return None
                rows.append((str(block[rep]), str(targets.pop()), letter, None))
        initial = str(block[m.initial_states()[0].label])
        finals = [str(block[label]) for label in labels
                  if m.state(label).is_final]
        return build_machine(rows, [initial], sorted(set(finals)),
                             input_alphabet=m.input_alphabet, kind=AUTOMATON)

    # every way of reaching fewer states: merge one pair, or merge all
    partitions = [[list(labels)]]
    for pair in combinations(labels, 2):
        rest = [x for x in labels if x not in pair]
        partitions.append([list(pair)] + [[x] for x in rest])
    for partition in partitions:
        q = quotient(partition)
        assert q is None or not is_equivalent(q, m)


def test_equivalence_examples(naf_acceptor, all_words_acceptor):
    assert not is_equivalent(naf_acceptor, all_words_acceptor)
    assert is_equivalent(naf_acceptor, naf_acceptor.relabeled())


def test_empty_languages_of_different_shapes_are_equivalent():
    no_final = build_machine([("0", "1", 0), ("1", "0", 1)], ["0"], [],
                             input_alphabet=[0, 1], kind=AUTOMATON)
    unreachable_final = build_machine(
        [("0", "0", 0), ("0", "0", 1), ("2", "2", 1)], ["0"], ["2"],
        input_alphabet=[0, 1], kind=AUTOMATON)
    assert is_equivalent(no_final, unreachable_final)
    assert is_equivalent(unreachable_final, no_final)
    assert not is_equivalent(no_final, empty_word_automaton([0, 1]))


def test_complete_and_partial_machines_meet_at_the_implicit_sinks(
        naf_acceptor):
    partial = naf_acceptor.trim()  # the dead state goes, its moves with it
    assert naf_acceptor.is_complete() and not partial.is_complete()
    assert is_equivalent(naf_acceptor, partial)
    assert is_equivalent(partial, naf_acceptor)
    # one word more on the complete side, through its dead state
    longer = determinize(union(naf_acceptor, word_automaton([1, 1], ALPHA)))
    assert not is_equivalent(partial, longer)
    assert not is_equivalent(longer, partial)


def test_equivalence_preconditions_keep_their_messages(naf_acceptor,
                                                       machine_T):
    with pytest.raises(MachineError,
                       match=r"^alphabet mismatch: \['0', '1'\] vs "
                             r"\['-1', '0', '1'\]$"):
        is_equivalent(word_automaton([1], [0, 1]), naf_acceptor)
    for a, b in ((machine_T, naf_acceptor), (naf_acceptor, machine_T)):
        with pytest.raises(MachineError,
                           match="^this operation is defined on automata "
                                 "only$"):
            is_equivalent(a, b)


@pytest.mark.parametrize("construction", [determinize, complement, minimize])
def test_determinizing_constructions_refuse_a_transducer(construction,
                                                         machine_T):
    # complement and minimize leave this check to determinize
    with pytest.raises(MachineError,
                       match="^this operation is defined on automata only$"):
        construction(machine_T)


@pytest.mark.parametrize("call, shown", [
    (lambda r: minimize(5), "5"),
    (lambda r: is_equivalent(r, 5), "5"),
    (lambda r: intersection(5, r), "5"),
    (lambda r: count_words(None, 3), "None"),
    (lambda r: union(r, "R"), "'R'"),
    (lambda r: kleene_star([]), r"\[\]"),
    (lambda r: list(language(r.states, 2)), r"\(State"),
    (lambda r: word_count_recurrence(r.transitions[0]), "Transition"),
], ids=["minimize", "is_equivalent", "intersection", "count_words", "union",
        "kleene_star", "language", "word_count_recurrence"])
def test_an_automaton_argument_that_is_no_machine_is_refused_by_name(
        call, shown, machine_R):
    with pytest.raises(ConstructionError, match=f"^not a machine: {shown}"):
        call(machine_R)


def test_equivalence_respects_the_state_cap(monkeypatch, naf_acceptor):
    starred = kleene_star(word_automaton([0, 1, 0, 1, 1], [0, 1]))
    deterministic = determinize(starred)
    monkeypatch.setenv("FSMKIT_STATE_CAP", "2")
    # a deterministic argument is used as it is, so the cap does not apply
    assert is_equivalent(deterministic, deterministic.relabeled())
    with pytest.raises(StateCapError, match="state cap of 2"):
        is_equivalent(starred, deterministic)
    with pytest.raises(StateCapError, match="state cap of 2"):
        is_equivalent(deterministic, starred)


# ----------------------------------------------------------------------
# enumeration and counting
# ----------------------------------------------------------------------

def test_language_shortlex_start(naf_acceptor):
    first = list(language(naf_acceptor, 1))
    assert first == [(), word([-1]), word([0]), word([1])]


def test_language_is_strictly_shortlex_increasing(machine_R):
    words = list(language(machine_R, 5))
    keys = [(len(w), word_key(w)) for w in words]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_language_yields_words_longer_than_the_recursion_limit():
    long = [0] * 1500 + [1]
    a = word_automaton(long, [0, 1])
    assert list(language(a, 1501)) == [word(long)]
    assert list(language(a, 1500)) == []


def test_language_of_a_finite_language_stops_after_its_longest_word():
    # a trimmed automaton without a cycle has no word as long as its
    # state count, so lengths past that cost nothing: counted in lines
    # run inside `language`, not in time
    a = word_automaton([0, 1], [0, 1])
    lines = 0

    def tracer(frame, event, arg):
        nonlocal lines
        if frame.f_code is not automata.language.__code__:
            return None
        lines += event == "line"
        return tracer

    outer = sys.gettrace()
    sys.settrace(tracer)
    try:
        words = list(language(a, 10**4))
    finally:
        sys.settrace(outer)
    assert words == [word([0, 1])]
    assert lines < 1000
    assert list(language(a, 2**70)) == words


def test_language_counts_match_count_words(naf_acceptor, machine_R):
    for m in (naf_acceptor, machine_R):
        words = list(language(m, 8))
        for n in range(9):
            assert count_words(m, n) == sum(1 for w in words if len(w) == n)


def test_count_words_small_values(naf_acceptor):
    assert count_words(naf_acceptor, 0) == 1
    assert count_words(naf_acceptor, 2) == 5


def test_count_words_recurrence_relation(naf_acceptor):
    counts = [count_words(naf_acceptor, n) for n in range(13)]
    assert counts[0] == 1 and counts[1] == 3
    for n in range(2, 13):
        assert counts[n] == counts[n - 1] + 2 * counts[n - 2]


@pytest.mark.parametrize("n, message", [
    (-1, "nonnegative"), (sys.maxsize + 1, str(sys.maxsize)),
    (10**20, "sys.maxsize")])
def test_count_words_length_out_of_range(naf_acceptor, n, message):
    with pytest.raises(ConstructionError, match=message):
        count_words(naf_acceptor, n)


@pytest.mark.parametrize("n", [2.5, True, False, "3", None])
def test_count_words_refuses_a_length_that_is_not_an_int(naf_acceptor, n):
    with pytest.raises(ConstructionError,
                       match=rf"the length must be an int, not {re.escape(repr(n))}"):
        count_words(naf_acceptor, n)


@pytest.mark.parametrize("n, message", [
    (2.5, "the length must be an int, not 2.5"),
    (True, "the length must be an int, not True"),
    (-1, "the length must be nonnegative")], ids=["float", "bool", "negative"])
def test_language_refuses_a_bad_length(naf_acceptor, n, message):
    with pytest.raises(ConstructionError, match=re.escape(message)):
        list(language(naf_acceptor, n))


@pytest.mark.parametrize("n", [2.5, True, "3"])
def test_recurrence_term_refuses_an_index_that_is_not_an_int(n):
    with pytest.raises(ConstructionError,
                       match=rf"the index must be an int, not {re.escape(repr(n))}"):
        Recurrence((1, 2), (1, 3)).term(n)


def test_recurrence_term_refuses_too_few_initial_terms():
    with pytest.raises(ConstructionError, match="order 2 needs 2 initial"):
        Recurrence((1, 2), (1,)).term(5)


def test_count_words_of_an_empty_trimmed_language_is_zero():
    # the final state is unreachable, so trimming leaves no state at all
    a = build_machine([("s", "s", 0, None), ("t", "t", 1, None)],
                      ["s"], ["t"], input_alphabet=[0, 1], kind=AUTOMATON)
    assert count_words(a, 10**4) == 0
    assert word_count_recurrence(a).term(10**4) == 0


def test_count_words_on_R_steps_below_256_and_recurs_from_there(
        machine_R, monkeypatch):
    # R's trimmed form has 16 states, so the rule's size**2 is 256; the
    # CLI's `analyze count --length 64` stays on the stepping side
    rec = word_count_recurrence(machine_R)
    assert rec.order == 16
    terms = recurrence_terms(rec.coefficients, rec.initial_terms, 1024)
    # R keeps its recurrence on the session fixture, so the counts run on
    # a fresh equal copy
    fresh = Machine(machine_R.kind, machine_R.states, machine_R.transitions,
                    machine_R.input_alphabet)
    orders = []
    monkeypatch.setattr(automata, "charpoly",
                        lambda m, real=automata.charpoly:
                        orders.append(len(m)) or real(m))
    assert count_words(fresh, 64) == terms[64]
    assert count_words(fresh, 255) == terms[255]
    assert orders == []
    assert count_words(fresh, 256) == terms[256]
    assert orders == [16]
    # the kept recurrence serves every later call on the same machine
    assert count_words(fresh, 1024) == terms[1024]
    assert word_count_recurrence(fresh) == rec
    assert orders == [16]


def test_word_count_recurrence_naf(naf_acceptor):
    rec = word_count_recurrence(naf_acceptor)
    assert rec.coefficients == (1, 2)
    assert rec.initial_terms == (1, 3)
    for n in range(rec.order + 6):
        assert rec.term(n) == count_words(naf_acceptor, n)


def test_word_count_recurrence_single_state_loops(all_words_acceptor):
    rec = word_count_recurrence(all_words_acceptor)
    assert rec.coefficients == (3,)
    assert rec.initial_terms == (1,)
    assert rec.term(4) == 81


def test_word_count_recurrence_R(machine_R):
    rec = word_count_recurrence(machine_R)
    for n in range(11):
        assert rec.term(n) == count_words(machine_R, n)


def test_recurrence_term_of_empty_language():
    nothing = build_machine([("s", "s", 0, None)], ["s"], [],
                            input_alphabet=[0], kind=AUTOMATON)
    rec = word_count_recurrence(nothing)
    assert rec.order >= 1
    assert rec.term(0) == 0 and rec.term(5) == 0


def test_recurrence_term_refuses_a_negative_index():
    with pytest.raises(ConstructionError, match="nonnegative"):
        Recurrence((1,), (1,)).term(-1)
