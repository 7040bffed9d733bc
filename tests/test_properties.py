"""Property tests on random machines: runs agree with a walk over the
transition list, also over what `word` makes of a mixed input, the
constructions agree with direct nondeterministic acceptance and with
running the argument machines one after the other, complement is an
involution, the step views of drawn machines and of construction
results agree with a label-keyed walk of the rows, and the target table
with that walk's view plus its sink, the walks over state indices
(SCCs, the period test, reachability, trimming, relabeling and the language
enumeration's pruning) agree with label-keyed copies, language equivalence agrees with comparing
minimal automata and with a walk of label pairs, the language enumeration
agrees with its label-keyed reference up to length 7, state names agree
with the first-free-suffix walk, machine files round-trip byte-identically, word counts
agree with enumeration, expansion values and renderings agree with the
per-digit Fraction sum and the per-digit rendering, the stationary
vector is fixed by the full transition matrix, and the exact linear
algebra agrees with determinant expansion, with Gauss-Jordan elimination
over Fractions and, where installed, sympy; word counts on both sides of
the recurrence rule and recurrence terms agree with stepping; and each
construction and count gives the same result when repeated on one
machine as on a fresh equal copy, with the state cap applied to a kept
determinization as to a new one."""

import random
import re
from fractions import Fraction
from itertools import zip_longest

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fsmkit import analysis, export, serialize
from fsmkit import machine as machine_module
from fsmkit.analysis import (asymptotic_moments, bellman_ford,
                             expected_density, is_aperiodic,
                             stationary_distribution,
                             strongly_connected_components, terminal_scc,
                             terminal_sccs)
from fsmkit.automata import (Recurrence, complement, complete, count_words,
                             determinize, intersection, is_equivalent,
                             kleene_star, language, minimize, union,
                             word_automaton, word_count_recurrence)
from fsmkit.digits import Expansion
from fsmkit.errors import (AnalysisError, ConstructionError, FsmError,
                           MachineError, NegativeCycleError, StateCapError)
from fsmkit.machine import (AUTOMATON, TRANSDUCER, Machine, State,
                            Transition, WeightedDigraph, build_machine)
from fsmkit.polynomial import charpoly
from fsmkit.symbols import ABSENT, Digit, Pair, word
from fsmkit.transducers import (cartesian_product, compose,
                                from_transition_function, simplify)

from oracles import (all_words, equivalent_by_minimization,
                     fraction_bellman_ford, gauss_jordan_solve,
                     label_accessible, label_coaccessible, label_determinize,
                     free_label, label_equivalent, label_is_aperiodic,
                     label_language,
                     label_product,
                     label_relabeled, label_sccs, label_terminal_scc,
                     label_terminal_sccs, label_trim, markov_constants,
                     nfa_accepts, per_digit_string, per_digit_value, rank,
                     recurrence_terms, reference_columns, run_deterministic,
                     solve, word_counts)
from test_golden_constructions import random_nfa

LETTERS = (0, 1)
WORDS = [word(w) for w in all_words(LETTERS, 6)]
SHORT_WORDS = [word(w) for w in all_words(LETTERS, 5)]
PROPERTY = settings(max_examples=100, deadline=None)


@st.composite
def random_automata(draw):
    """Up to six states, epsilon moves, several moves per letter and up
    to two initial states."""
    n = draw(st.integers(1, 6))
    state = st.integers(0, n - 1)
    rows = draw(st.lists(
        st.tuples(state, state, st.sampled_from((None,) + LETTERS)),
        max_size=14))
    initial = draw(st.sets(state, min_size=1, max_size=2))
    final = draw(st.sets(state))
    return build_machine(rows, sorted(initial), sorted(final), LETTERS,
                         kind=AUTOMATON)


@st.composite
def random_transducers(draw, complete=False, one_letter=False):
    """Deterministic transducers with up to five states and final outputs;
    `complete` gives every state a move per letter, `one_letter` makes
    every transition write exactly one letter."""
    n = draw(st.integers(1, 5))
    state = st.integers(0, n - 1)
    size = (1, 1) if one_letter else (0, 2)
    output = st.lists(st.sampled_from(LETTERS),
                      min_size=size[0], max_size=size[1])
    rows = [(s, draw(state), a, draw(output))
            for s in range(n) for a in LETTERS
            if complete or draw(st.booleans())]
    final = draw(st.sets(state))
    m = build_machine(rows, [0], sorted(final), LETTERS)
    final_output = st.lists(st.sampled_from(LETTERS), max_size=2)
    states = [State(s.label, s.is_initial, s.is_final,
                    word(draw(final_output)) if s.is_final else ())
              for s in m.states]
    return Machine(TRANSDUCER, states, m.transitions, LETTERS)


@PROPERTY
@given(random_transducers())
def test_process_agrees_with_a_walk_over_the_transition_list(t):
    for w in SHORT_WORDS:
        run = t.process(w)
        assert (run.accepted, run.stop_state, run.output) == \
            run_deterministic(t, w)


NATIVE = word(LETTERS)
FOREIGN = (Digit(7), ABSENT, Pair(Digit(1), Digit(0)))


@st.composite
def words_with_foreign_letters(draw):
    """A word over LETTERS, then a letter outside them, then a tail that
    may hold more of both."""
    head = draw(st.lists(st.sampled_from(NATIVE), max_size=5))
    tail = draw(st.lists(st.sampled_from(NATIVE + FOREIGN), max_size=3))
    return tuple(head) + (draw(st.sampled_from(FOREIGN)),) + tuple(tail)


@PROPERTY
@given(random_transducers(), words_with_foreign_letters())
def test_process_stops_at_a_foreign_letter_as_the_walk_does(t, w):
    run = t.process(w)
    assert not run.accepted
    assert (run.accepted, run.stop_state, run.output) == \
        run_deterministic(t, w)


# letters `word` reads as symbols or coerces, and letters it refuses;
# lists are unhashable
TAKEN_LETTERS = NATIVE + FOREIGN + (0, 1, 0, 1, 2, -1, None, (0, 1), [1, 0],
                                    [0, None])
REFUSED_LETTERS = ("0", "x", True, False, [1])


@st.composite
def mixed_words(draw):
    """A list of letters `word` takes, with one it refuses inserted half
    the time."""
    letters = draw(st.lists(st.sampled_from(TAKEN_LETTERS), max_size=6))
    if draw(st.booleans()):
        letters.insert(draw(st.integers(0, len(letters))),
                       draw(st.sampled_from(REFUSED_LETTERS)))
    return letters


# one state, complete over LETTERS, writing the other letter
FLIP = build_machine([(0, 0, 0, 1), (0, 0, 1, 0)], [0], [0], LETTERS)


@PROPERTY
@given(st.one_of(random_transducers(), random_transducers(complete=True)),
       mixed_words(), st.booleans())
@example(FLIP, [Digit(1), 0, 1, Digit(0)], True)
@example(FLIP, [Digit(1), (0, 1)], True)
def test_process_runs_what_word_makes_of_its_input(t, letters, as_tuple):
    w = tuple(letters) if as_tuple else letters
    try:
        coerced = word(w)
    except ConstructionError as refusal:
        with pytest.raises(ConstructionError) as raised:
            t.process(w)
        assert str(raised.value) == str(refusal)
        return
    run = t.process(w)
    assert (run.accepted, run.stop_state, run.output) == \
        run_deterministic(t, coerced)


def test_an_accepted_symbol_tuple_is_run_without_checking_its_letters(
        monkeypatch, naf_completed):
    calls = []

    def counted_word(x):
        calls.append(x)
        return word(x)

    monkeypatch.setattr(machine_module, "word", counted_word)
    letters = word([1, 0, 1, 1, 0, 1])
    assert naf_completed.process(letters).accepted
    assert calls == []
    assert not naf_completed.process(letters + (Digit(7),)).accepted
    assert len(calls) == 1  # the run stopped early, so its letters are checked


class _Alias:
    """A foreign letter that hashes like a symbol and compares equal to it."""

    def __init__(self, sym):
        self.sym = sym

    def __hash__(self):
        return hash(self.sym)

    def __eq__(self, other):
        return other is self.sym


def test_a_foreign_letter_equal_to_an_alphabet_symbol_is_read_as_it(
        naf_completed):
    letters = word([1, 0, 1])
    aliased = (letters[0], _Alias(letters[1]), letters[2])
    assert naf_completed.process(aliased) == naf_completed.process(letters)
    with pytest.raises(ConstructionError, match="cannot interpret"):
        word(aliased)


@PROPERTY
@given(random_automata(), random_automata())
def test_boolean_constructions_agree_with_nfa_acceptance(a, b):
    d, m, c, both = determinize(a), minimize(a), complement(a), \
        intersection(a, b)
    for w in WORDS:
        expected = nfa_accepts(a, w)
        assert d.accepts(w) == expected
        assert m.accepts(w) == expected
        assert c.accepts(w) != expected
        assert both.accepts(w) == (expected and nfa_accepts(b, w))


@PROPERTY
@given(random_automata())
def test_complement_is_an_involution(a):
    twice = complement(complement(a))
    for w in WORDS:
        assert twice.accepts(w) == nfa_accepts(a, w)


@PROPERTY
@given(st.one_of(random_automata(), random_transducers()))
def test_serialize_round_trips_byte_identically(m):
    text = serialize.dumps(m)
    back = serialize.loads(text)
    assert back == m
    assert serialize.dumps(back) == text


OUTPUT_ALPHABETS = st.sampled_from((None, LETTERS, (0, 1, 2)))


@PROPERTY
@given(random_transducers(), random_transducers(), OUTPUT_ALPHABETS,
       OUTPUT_ALPHABETS)
def test_equal_machines_give_equal_bytes(t, other, first, second):
    """The same rows with or without an output alphabet, in either order,
    and an unrelated machine: equal machines are exactly those whose
    files are equal, and they render equally in every export format (an
    export lists no alphabet, so unequal machines may render equally)."""
    a = Machine(t.kind, t.states, t.transitions, t.input_alphabet, first)
    b = Machine(t.kind, t.states[::-1], t.transitions[::-1],
                t.input_alphabet, second)
    for x, y in ((a, b), (a, other), (b, other)):
        assert (x == y) == (serialize.dumps(x) == serialize.dumps(y))
        if x == y:
            for fmt in export.FORMATS:
                assert export.render(x, fmt) == export.render(y, fmt)


@PROPERTY
@given(random_automata())
def test_minimize_is_idempotent(a):
    m = minimize(a)
    assert minimize(m) == m


@PROPERTY
@given(random_automata(), random_automata())
def test_equivalence_agrees_with_minimization(a, b):
    assert is_equivalent(a, b) == equivalent_by_minimization(a, b)


@PROPERTY
@given(random_automata(), random_automata())
def test_equivalence_agrees_with_the_label_pair_walk(a, b):
    # minimization reads the target table as the union-find walk does, so
    # this oracle reads none; trim leaves moves missing
    assert is_equivalent(a, b) == label_equivalent(a, b)
    for x in (a, b):
        for y in (complement(x), determinize(x).trim()):
            assert is_equivalent(x, y) == label_equivalent(x, y)


@PROPERTY
@given(random_automata())
def test_equivalence_with_its_own_forms_agrees_with_minimization(x):
    # (x, x) and x against its kept determinization, in either order,
    # resolve to one deterministic form and need no walk; the complement
    # is another machine
    d = determinize(x)
    for a, b in ((x, x), (x, d), (d, x), (x, complement(x))):
        assert is_equivalent(a, b) == equivalent_by_minimization(a, b)


@PROPERTY
@given(random_automata(), st.integers(0, len(WORDS) - 1))
def test_one_extra_word_breaks_equivalence(a, start):
    rejected = [w for w in WORDS[start:] + WORDS[:start]
                if not nfa_accepts(a, w)]
    assume(rejected)
    b = union(a, word_automaton(rejected[0], LETTERS))
    assert not equivalent_by_minimization(a, b)
    assert not is_equivalent(a, b)
    assert not is_equivalent(b, a)


@PROPERTY
@given(random_automata())
def test_equivalent_forms_are_equivalent(a):
    for b in (determinize(a), minimize(a), a.relabeled()):
        assert equivalent_by_minimization(a, b)
        assert is_equivalent(a, b)
        assert is_equivalent(b, a)


@PROPERTY
@given(random_transducers(complete=True), random_transducers())
def test_compose_runs_inner_then_outer(outer, inner):
    composed = compose(outer, inner)
    for w in SHORT_WORDS:
        first = inner.process(w)
        second = outer.process(first.output) if first.accepted else None
        got = composed.process(w)
        assert got.accepted == (second is not None and second.accepted)
        if got.accepted:
            assert got.output == second.output


@PROPERTY
@given(random_transducers())
def test_simplify_preserves_process(t):
    simple = simplify(t)
    assert len(simple.states) <= len(t.states)
    for w in SHORT_WORDS:
        want, got = t.process(w), simple.process(w)
        assert (got.accepted, got.output) == (want.accepted, want.output)


@PROPERTY
@given(random_transducers(one_letter=True),
       random_transducers(one_letter=True))
def test_product_pairs_both_runs(t1, t2):
    product = cartesian_product(t1, t2)
    for w in SHORT_WORDS:
        r1, r2, got = t1.process(w), t2.process(w), product.process(w)
        assert got.accepted == (r1.accepted and r2.accepted)
        if got.accepted:
            assert got.output == tuple(
                Pair(u, v) for u, v in
                zip_longest(r1.output, r2.output, fillvalue=ABSENT))


@PROPERTY
@given(random_automata())
def test_count_words_matches_enumeration(a):
    for n in range(7):
        expected = sum(nfa_accepts(a, w) for w in WORDS if len(w) == n)
        assert count_words(a, n) == expected


@PROPERTY
@given(random_automata())
def test_recurrence_reproduces_the_counts(a):
    rec = word_count_recurrence(a)
    for n in range(2 * rec.order + 3):
        assert rec.term(n) == count_words(a, n)


@st.composite
def labelled_machines(draw):
    """Automata and transducers with up to six states whose labels hold
    ",", "{" and "#", with epsilon moves, zero to two initial states and,
    among the random moves, dead and unreachable states."""
    labels = draw(st.lists(st.text(alphabet="ab,{}#", max_size=3),
                           min_size=1, max_size=6, unique=True))
    transducer = draw(st.booleans())
    label = st.sampled_from(labels)
    output = st.lists(st.sampled_from(LETTERS),
                      max_size=2 if transducer else 0)
    rows = draw(st.lists(
        st.tuples(label, label, st.sampled_from((None,) + LETTERS), output),
        max_size=12))
    initial = draw(st.sets(label, max_size=2))
    final = draw(st.sets(label))
    states = [State(x, x in initial, x in final,
                    word(draw(output)) if x in final else ())
              for x in labels]
    transitions = [Transition(s, t, word(a), word(out))
                   for s, t, a, out in rows]
    return Machine(TRANSDUCER if transducer else AUTOMATON, states,
                   transitions, LETTERS)


def _outcome(f, *args):
    try:
        return f(*args)
    except FsmError as e:
        return type(e).__name__, str(e)


def _rows(m):
    """A machine with its states and transitions in their listed order."""
    return (m.kind, m.input_alphabet, m.output_alphabet, repr(m.states),
            repr(m.transitions))


@settings(max_examples=300, deadline=None)
@given(labelled_machines())
def test_graph_walks_agree_with_the_label_keyed_walks(m):
    components = label_sccs(m)
    assert strongly_connected_components(m) == components
    assert terminal_sccs(m) == label_terminal_sccs(m)
    assert _outcome(terminal_scc, m) == _outcome(label_terminal_scc, m)
    for component in components:
        assert is_aperiodic(m, component) == label_is_aperiodic(m, component)
    for mine, reference in ((m.accessible(), label_accessible(m)),
                            (m.coaccessible(), label_coaccessible(m)),
                            (m.trim(), label_trim(m)),
                            (m.relabeled(), label_relabeled(m))):
        assert _rows(mine) == _rows(reference)
    if m.kind == AUTOMATON:
        assert list(language(m, 4)) == list(label_language(m, 4))
        assert [count_words(m, n) for n in range(5)] == word_counts(m, 4)


@st.composite
def shuffled_nfas(draw):
    """Automata of one to twelve states listed out of label order ("10"
    before "9"), with labels holding "," and "#", epsilon moves and up to
    three initial states.  Past eight states, a set of ranks need not
    iterate in sorted order."""
    labels = draw(st.lists(
        st.one_of(st.integers(0, 12).map(str),
                  st.text(alphabet="19,#", min_size=1, max_size=3)),
        min_size=1, max_size=12, unique=True))
    if len(labels) > 1 and labels == sorted(labels):
        labels.reverse()
    label = st.sampled_from(labels)
    rows = draw(st.lists(
        st.tuples(label, label, st.sampled_from((None,) + LETTERS)),
        max_size=24))
    initial = draw(st.sets(label, min_size=1, max_size=3))
    final = draw(st.sets(label))
    states = [State(x, x in initial, x in final) for x in labels]
    transitions = [Transition(s, t, word(a)) for s, t, a in rows]
    return Machine(AUTOMATON, states, transitions, LETTERS)


@settings(max_examples=300, deadline=None)
@given(shuffled_nfas())
def test_determinize_agrees_with_the_label_keyed_subsets(a):
    assert _rows(determinize(a)) == _rows(label_determinize(a))


@st.composite
def shuffled_dfas(draw):
    """Deterministic automata of one to twelve states listed out of label
    order, with labels holding ",", "{", "}" and "#", at most one move per
    state and letter (so complete or partial, with states nothing reaches)
    and the moves listed in a drawn order."""
    labels = draw(st.lists(
        st.one_of(st.integers(0, 12).map(str),
                  st.text(alphabet="19,#{}", min_size=1, max_size=3)),
        min_size=1, max_size=12, unique=True))
    if len(labels) > 1 and labels == sorted(labels):
        labels.reverse()
    label = st.sampled_from(labels)
    moves = [(s, draw(label), a) for s in labels for a in LETTERS
             if draw(st.booleans())]
    rows = draw(st.permutations(moves))
    initial = draw(label)
    final = draw(st.sets(label))
    states = [State(x, x == initial, x in final) for x in labels]
    transitions = [Transition(s, t, word(a)) for s, t, a in rows]
    return Machine(AUTOMATON, states, transitions, LETTERS)


@settings(max_examples=300, deadline=None)
@given(shuffled_dfas())
def test_determinize_of_a_deterministic_automaton_agrees_with_the_subsets(d):
    assert d.is_deterministic()
    assert _rows(determinize(d)) == _rows(label_determinize(d))
    c = complement(d)
    assert _rows(determinize(c)) == _rows(label_determinize(c))


@settings(max_examples=200, deadline=None)
@given(shuffled_dfas(), st.one_of(shuffled_dfas(), random_automata()))
def test_intersection_agrees_with_the_product_of_the_label_keyed_subsets(
        d, other):
    # a deterministic operand enters the product as it stands, named as
    # its subset construction would name it, in either position
    for a, b in ((d, other), (other, d)):
        assert _rows(intersection(a, b)) == _rows(
            label_product(label_determinize(a), label_determinize(b)))


@st.composite
def one_state_automata(draw):
    """One initial state, final or not, with a drawn set of loops, an
    epsilon loop included."""
    loops = draw(st.sets(st.sampled_from((None,) + LETTERS)))
    final = [0] if draw(st.booleans()) else []
    return build_machine([(0, 0, a) for a in sorted(loops, key=str)], [0],
                         final, LETTERS, kind=AUTOMATON)


@PROPERTY
@given(st.one_of(shuffled_dfas(), random_automata()), one_state_automata())
def test_intersection_with_a_one_state_operand_agrees_with_the_product(a, b):
    # the pair (i, 0) is keyed by i * 1 + 0: pair keys of width one
    assert _rows(intersection(a, b)) == _rows(
        label_product(label_determinize(a), label_determinize(b)))


@PROPERTY
@given(st.one_of(shuffled_dfas(), random_transducers()), random_automata(),
       random_transducers())
def test_step_views_agree_with_the_label_keyed_walk(d, x, t):
    # every machine's constructor builds its view from its rows, drawn
    # machines and the results of simplify, minimize, complete and
    # complement alike
    for m in (d, t, simplify(t), minimize(x), complete(determinize(x)),
              complement(x)):
        view = m._steps()
        assert view == reference_columns(m)
        start, columns = view
        assert list(columns) == list(m.input_alphabet)
        silent = [step for column in columns.values() for step in column
                  if step is not None and not step[1]]
        # every move to one target that writes nothing shares one entry
        assert len(set(map(id, silent))) == len({j for j, _ in silent})


@PROPERTY
@given(random_transducers(), random_automata())
def test_the_target_table_is_the_step_view_with_its_sink(t, x):
    # the sink is index n: a missing move goes there, and it loops
    for m in (t, determinize(x)):
        n = len(m.states)
        _, columns = reference_columns(m)
        assert m._targets() == [
            [n if step is None else step[0] for step in column] + [n]
            for column in columns.values()]
    if not x.is_deterministic():
        with pytest.raises(MachineError) as steps:
            x._steps()
        message = re.escape(str(steps.value))
        with pytest.raises(MachineError, match=f"^{message}$"):
            x._targets()


@PROPERTY
@given(random_transducers(), random_automata())
def test_simplify_and_minimize_are_their_own_relabeling(t, a):
    # relabeled and simplify name states by one breadth-first numbering,
    # on partial machines and on machines with unreachable states alike
    for m in (simplify(t), minimize(a)):
        assert _rows(m.relabeled()) == _rows(m)


# digit values of one to three decimal digits, negative (overlined) ones
# included, and the absent marker, which reads 0
DIGIT_LETTERS = [Digit(v) for v in range(-300, 301)] + [ABSENT]


@PROPERTY
@given(st.lists(st.sampled_from(DIGIT_LETTERS)), st.integers(-8, 8))
@example([], -3)
@example([], 3)
def test_expansion_value_matches_per_digit_sum(letters, offset):
    value = Expansion(tuple(letters), offset).value()
    assert type(value) is Fraction
    assert value == per_digit_value(letters, offset)


@PROPERTY
@given(st.lists(st.sampled_from(DIGIT_LETTERS)), st.integers(-40, 40))
@example([], -3)
@example([], 0)
@example([], 3)
@example([Digit(0)] * 4, -2)
@example([Digit(0)] * 4, 0)
@example([Digit(0)] * 4, 2)
def test_digit_string_matches_per_digit_rendering(letters, offset):
    assert (Expansion(tuple(letters), offset).digit_string()
            == per_digit_string(letters, offset))


def _transients_into_one_cycle(seed, terminal):
    """A complete transducer over LETTERS whose transient states lead,
    with no cycle among them, into one strongly connected terminal
    component of `terminal` states; the states are listed in a shuffled
    order that ends with a transient one.  Returns the machine and the
    component's labels."""
    rng = random.Random(seed)
    k = rng.randint(1, 4)
    n = k + terminal
    rows = []
    for s in range(k):
        # letter 0 walks the transients in order, letter 1 jumps ahead
        rows += [(s, s + 1, 0, [rng.choice(LETTERS)]),
                 (s, rng.randrange(s + 1, n), 1, [rng.choice(LETTERS)])]
    for s in range(k, n):
        # letter 0 closes a cycle through the component
        rows += [(s, k + (s - k + 1) % terminal, 0, [rng.choice(LETTERS)]),
                 (s, rng.randrange(k, n), 1, [rng.choice(LETTERS)])]
    m = build_machine(rows, [0], [], LETTERS)
    component = {str(s) for s in range(k, n)}
    *mixed, last = [st for st in m.states if st.label not in component]
    mixed += [st for st in m.states if st.label in component]
    rng.shuffle(mixed)
    return (Machine(TRANSDUCER, mixed + [last], m.transitions, LETTERS),
            component)


@pytest.mark.parametrize("seed", range(30))
def test_stationary_vector_is_fixed_by_the_full_chain(seed):
    # seeds 0, 5, ..., 25 give a single absorbing state behind the
    # transients, so the stationary vector's solve gets an empty system
    t, component = _transients_into_one_cycle(seed, 1 + seed % 5)
    labels = [st.label for st in t.states]
    assert labels[-1] not in component
    index = {label: i for i, label in enumerate(labels)}
    P = [[Fraction(0)] * len(labels) for _ in labels]
    for tr in t.transitions:
        P[index[tr.source]][index[tr.target]] += Fraction(1, len(LETTERS))
    pi = stationary_distribution(t)
    assert all(type(x) is Fraction for x in pi)
    assert [sum(pi[i] * P[i][j] for i in range(len(pi)))
            for j in range(len(pi))] == list(pi)
    assert sum(pi) == 1
    assert all((x > 0) == (label in component)
               for label, x in zip(labels, pi))
    # pi = w / sum(w) cancels a sign, so the kept weights are read directly
    assert all(x > 0 for x in analysis._terminal_chain(t, "")[3])


@st.composite
def random_chains(draw):
    """Complete deterministic transducers with up to six states, some of
    them transient or unreachable, over 2- and 3-letter digit alphabets
    with negative digits, writing up to two digits of -2..2 per letter."""
    alphabet = draw(st.sampled_from(((0, 1), (-1, 1), (-1, 0, 1), (0, 1, 2))))
    n = draw(st.integers(1, 6))
    rows = [(s, draw(st.integers(0, n - 1)), a,
             draw(st.lists(st.integers(-2, 2), max_size=2)))
            for s in range(n) for a in alphabet]
    return build_machine(rows, [0], [], alphabet)


@PROPERTY
@given(random_chains())
def test_integer_weights_match_the_fraction_formulas(t):
    terminals = terminal_sccs(t.accessible())
    assume(len(terminals) == 1 and is_aperiodic(t, terminals[0]))
    pi, constants = markov_constants(t)
    stationary = stationary_distribution(t)
    assert stationary == tuple(pi.get(st.label, 0) for st in t.states)
    m = asymptotic_moments(t)
    assert (m.expectation, m.variance, m.covariance) == constants
    assert expected_density(t) == constants[0]
    assert all(type(x) is Fraction for x in (
        *stationary, expected_density(t), m.expectation, m.variance,
        m.covariance))


def _fraction_matrix(seed):
    """Square matrix of small Fractions, up to 5x5; for odd seeds one row
    is a multiple of an earlier one, so singular matrices come up often."""
    rng = random.Random(seed)
    n = 1 + seed % 5
    m = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
         for _ in range(n)]
    if n > 1 and seed % 2:
        i, k = rng.randrange(1, n), rng.randint(-2, 2)
        m[i] = [k * x for x in m[rng.randrange(i)]]
    return m


@pytest.mark.parametrize("seed", range(30))
def test_left_kernel_and_solve_are_exact(seed):
    """`solve` meets every right-hand side exactly, or raises when the
    determinant-expansion rank says the matrix is singular.  (The name,
    kept so the test ids stay stable, is from when a left-kernel routine
    shared the elimination.)"""
    m = _fraction_matrix(seed)
    n = len(m)
    rng = random.Random(-seed)
    columns = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                for _ in range(n)] for _ in range(2)]
    if rank(m) < n:
        with pytest.raises(AnalysisError, match="singular"):
            solve(m, columns)
        return
    solutions = solve(m, columns)
    assert len(solutions) == len(columns)
    for b, x in zip(columns, solutions):
        assert all(type(v) is Fraction for v in x)
        assert [sum(m[i][j] * x[j] for j in range(n)) for i in range(n)] == b


def _solve_case(seed):
    """A square system of size 1 to 12 with up to three right-hand sides.
    By seed mod 4: small Fractions; pi-like entries with denominators
    up to 10**12; integer matrices |alphabet| * I - C of random count
    matrices C less their last row and column, as the stationary and
    moment solves build them (singular when some state cannot reach the
    last); and matrices made singular by a row that combines two others,
    or by a zero column."""
    rng = random.Random(f"solve:{seed}")
    n = 1 + seed % 12
    kind = seed % 4
    if kind == 1:
        def entry():
            return Fraction(rng.randint(-10**12, 10**12),
                            rng.randint(1, 10**12))
    else:
        def entry():
            return Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    if kind == 2:
        # C on n + 1 states, less its last row and column
        letters = rng.randint(2, 3)
        m = [[letters * (i == j) for j in range(n + 1)] for i in range(n)]
        for row in m:
            for _ in range(letters):
                row[rng.randrange(n + 1)] -= 1
            del row[n]
    else:
        m = [[entry() for _ in range(n)] for _ in range(n)]
    if kind == 3 and n > 1:
        if seed % 8 == 3:
            j = rng.randrange(n)
            for row in m:
                row[j] = Fraction(0)
        else:
            i, k = rng.sample(range(n), 2)
            r = rng.randrange(n)
            a, b = entry(), entry()
            m[r] = [a * x + b * y for x, y in zip(m[i], m[k])]
    columns = [[entry() if kind != 2 else rng.randint(-5, 5)
                for _ in range(n)] for _ in range(rng.randint(1, 3))]
    return m, columns


@pytest.mark.parametrize("seed", range(96))
def test_solve_agrees_with_gauss_jordan_over_fractions(seed):
    m, columns = _solve_case(seed)
    try:
        expected = gauss_jordan_solve(m, columns)
    except AnalysisError as error:
        with pytest.raises(AnalysisError) as caught:
            solve(m, columns)
        assert str(caught.value) == str(error)
        return
    got = solve(m, columns)
    assert got == expected
    assert all(type(x) is Fraction for column in got for x in column)


@settings(max_examples=60, deadline=None)
@given(random_automata(), st.sampled_from((-1, 0, 1, 7)))
def test_count_words_on_both_sides_of_the_recurrence_rule(a, past):
    """`count_words` steps below n = size**2 and evaluates the recurrence
    from there on; both sides match stepping per state."""
    size = len(determinize(a).trim().states)
    n = max(size * size + past, 0)
    assert count_words(a, n) == word_counts(a, n)[n]


def _fresh(x):
    """An equal machine that has computed nothing yet."""
    return Machine(x.kind, x.states, x.transitions, x.input_alphabet)


def _assert_repeats_agree(x):
    """Each construction and count, run twice on x and once on a fresh
    equal copy, gives the same bytes or the same value; the counts are
    taken on both sides of the size**2 rule."""
    size = len(determinize(_fresh(x)).trim().states)
    rule = size * size
    calls = [lambda m: serialize.dumps(determinize(m)),
             lambda m: serialize.dumps(minimize(m)),
             lambda m: serialize.dumps(complement(m)),
             lambda m: serialize.dumps(intersection(m, m)),
             lambda m: is_equivalent(m, determinize(m)),
             word_count_recurrence]
    calls += [lambda m, n=n: count_words(m, n)
              for n in (max(rule - 1, 0), rule, rule + 3)]
    for call in calls:
        assert call(x) == call(x) == call(_fresh(x))
    assert determinize(x) is determinize(x)


@settings(max_examples=60, deadline=None)
@given(random_automata())
def test_repeated_constructions_and_counts_agree(x):
    _assert_repeats_agree(x)


@pytest.mark.parametrize("seed", range(20))
def test_repeated_constructions_agree_on_the_golden_automata(seed):
    _assert_repeats_agree(random_nfa(seed))


@pytest.mark.parametrize("seed", range(20))
def test_a_kept_determinization_answers_to_the_state_cap(seed, monkeypatch):
    """A cap that a fresh subset construction would pass returns the same
    machine; one it would exceed raises the same message; a malformed cap
    is refused as before."""
    x = random_nfa(seed)
    d = determinize(x)
    k = len(d.states)
    if k < 2:
        x = kleene_star(word_automaton([0, 1, 1], [0, 1]))
        d = determinize(x)
        k = len(d.states)
    monkeypatch.setenv("FSMKIT_STATE_CAP", str(k))
    assert determinize(x) is d
    monkeypatch.setenv("FSMKIT_STATE_CAP", str(k - 1))
    with pytest.raises(StateCapError) as fresh:
        determinize(_fresh(x))
    with pytest.raises(StateCapError) as kept:
        determinize(x)
    assert str(kept.value) == str(fresh.value)
    monkeypatch.setenv("FSMKIT_STATE_CAP", "x")
    with pytest.raises(StateCapError, match="FSMKIT_STATE_CAP"):
        determinize(x)
    monkeypatch.delenv("FSMKIT_STATE_CAP")
    assert determinize(x) is d


RECURRENCES = st.lists(st.integers(-3, 3), max_size=6).flatmap(
    lambda cs: st.tuples(st.just(cs), st.lists(
        st.integers(-9, 9), min_size=len(cs), max_size=len(cs))))


@PROPERTY
@given(RECURRENCES)
@example(([2, 0], [3, -1]))
@example(([1], [3]))
@example(([], []))
def test_recurrence_term_agrees_with_stepping(recurrence):
    """Orders 0 to 6, a zero last coefficient and order 1 included."""
    coefficients, initial = recurrence
    d = len(coefficients)
    expected = recurrence_terms(coefficients, initial, 3 * d + 40)
    rec = Recurrence(tuple(coefficients), tuple(initial))
    # n < order, n = order, and on well past it
    for n in list(range(d + 2)) + [2 * d + 7, 3 * d + 40]:
        assert rec.term(n) == expected[n]


@st.composite
def sparse_recurrences(draw):
    """Orders 0 to 16 with at least half of the coefficients zero (R's
    order-16 recurrence has 9 zeros), negative coefficients and initial
    terms, and indices at order - 1, order, order + 1 and up to 300."""
    d = draw(st.integers(0, 16))
    coefficients = [0] * d
    for i in draw(st.sets(st.integers(0, max(d - 1, 0)), max_size=d // 2)):
        coefficients[i] = draw(st.integers(-3, 3).filter(bool))
    initial = draw(st.lists(st.integers(-9, 9), min_size=d, max_size=d))
    ns = [n for n in (d - 1, d, d + 1) if n >= 0]
    ns += draw(st.lists(st.integers(0, 300), min_size=1, max_size=3))
    return coefficients, initial, ns


@PROPERTY
@given(sparse_recurrences())
@example(([2, 0, 0, 1], [1, -2, 3, 0], [3, 4, 5, 300]))
@example(([0] * 8 + [-1, 0, 2, 0, 0, 3, 0, 1], list(range(-8, 8)),
          [15, 16, 17, 299]))
def test_recurrence_term_agrees_with_stepping_at_high_order(case):
    coefficients, initial, ns = case
    expected = recurrence_terms(coefficients, initial, max(ns))
    rec = Recurrence(tuple(coefficients), tuple(initial))
    for n in ns:
        assert rec.term(n) == expected[n]


@st.composite
def weighted_digraphs(draw):
    """1-8 vertices, edges with parallel copies and self-loops, vertices
    the source cannot reach, int and Fraction weights of denominators 1
    to 6, negative ones included."""
    n = draw(st.integers(1, 8))
    vertex = st.integers(0, n - 1).map(str)
    weight = st.one_of(
        st.integers(-3, 9),
        st.builds(Fraction, st.integers(-12, 40), st.integers(1, 6)))
    edges = draw(st.lists(st.tuples(vertex, vertex, weight), max_size=20))
    if edges and draw(st.booleans()):
        edges.append(draw(st.sampled_from(edges)))  # a parallel copy
    return WeightedDigraph(tuple(map(str, range(n))), tuple(edges))


@settings(max_examples=300, deadline=None)
@given(weighted_digraphs())
@example(WeightedDigraph(("0", "1", "2"), (
    ("0", "1", 1), ("0", "2", 0), ("2", "1", 1))))  # a tie at "1"
@example(WeightedDigraph(("0", "1", "2"), (
    ("0", "1", Fraction(1, 2)), ("1", "2", Fraction(-1, 3)),
    ("2", "1", Fraction(-1, 6)), ("1", "1", 0))))  # a zero-weight cycle
@example(WeightedDigraph(("0", "1", "2"), (
    ("0", "1", Fraction(1, 2)), ("1", "2", Fraction(-1, 3)),
    ("2", "1", Fraction(-1, 5)))))  # a negative cycle
def test_bellman_ford_agrees_with_the_fraction_relaxation(g):
    """The same distances, each a Fraction, the same predecessors, and on
    a negative cycle the same witness."""
    try:
        expected = fraction_bellman_ford(g, "0")
    except NegativeCycleError as reference:
        with pytest.raises(NegativeCycleError) as mine:
            bellman_ford(g, "0")
        assert mine.value.cycle == reference.cycle
        return
    paths = bellman_ford(g, "0")
    assert (paths.distance, paths.predecessor) == expected
    assert all(type(d) is Fraction for d in paths.distance.values())


@pytest.mark.parametrize("seed", range(20))
def test_charpoly_matches_sympy(seed):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(seed)
    n = 1 + seed % 10
    # even seeds: sparse count matrices as in word counting
    low, high = (0, 2) if seed % 2 == 0 else (-5, 5)
    m = [[rng.randint(low, high) for _ in range(n)] for _ in range(n)]
    expected = [int(c) for c in sympy.Matrix(m).charpoly().all_coeffs()]
    assert charpoly(m) == expected


@PROPERTY
@given(random_automata(), st.integers(0, 7))
def test_language_agrees_with_the_label_keyed_enumeration(a, max_length):
    """The same words in the same shortlex order, each a tuple."""
    words = list(language(a, max_length))
    assert words == list(label_language(a, max_length))
    assert all(type(w) is tuple for w in words)


NAMES = st.one_of(st.sampled_from(["x", "x#1", "x#2", "x#2#1", "y", ""]),
                  st.text(alphabet="xy#12", max_size=4))


@PROPERTY
@given(st.lists(NAMES, max_size=6), st.lists(NAMES, max_size=30))
@example(["x#2"], ["x", "x", "x", "x#2", "x"])
def test_state_names_agree_with_the_first_free_suffix_walk(taken, bases):
    """Each base gets the name the walk from "#1" gives, over the labels
    taken from the start and every name handed out before it."""
    name = machine_module._namer(taken)
    held = set(taken)
    for base in bases:
        expected = free_label(base, held)
        held.add(expected)
        assert name(base) == expected


class _Printed:
    """A state key that prints as its `text` whatever its `key`."""

    def __init__(self, key, text):
        self.key, self.text = key, text

    def __eq__(self, other):
        return isinstance(other, _Printed) and other.key == self.key

    def __hash__(self):
        return hash(self.key)

    def __str__(self):
        return self.text


@PROPERTY
@given(st.lists(NAMES, min_size=1, max_size=25))
@example(["x#2", "x", "x", "x", "x"])
def test_explored_names_agree_with_the_first_free_suffix_walk(texts):
    """A cycle of states printed as `texts` is named in discovery order."""
    n = len(texts)
    m = from_transition_function(
        lambda key, letter: (_Printed((key.key + 1) % n,
                                      texts[(key.key + 1) % n]), []),
        [0], [_Printed(0, texts[0])], [])
    held = set()
    for state, text in zip(m.states, texts):
        assert state.label == free_label(text, held)
        held.add(state.label)
