"""The library's constructions hand the `Machine` constructor index moves
(i, input word, j, output word), and a machine built from moves writes
its `Transition` rows on the first read of `transitions`.  These tests
pin that contract: a result rebuilt from its rows through the public
constructor is the same machine, with the same step view, index graph
and row order; reading the rows twice gives one tuple; a chain of
constructions that reads no row writes none; the rows of four
constructions on two presets read as before, text for text; and a move
is refused with the message its row would get."""

import hashlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fsmkit import automata, digits, transducers
from fsmkit.errors import ConstructionError
from fsmkit.machine import (AUTOMATON, TRANSDUCER, Machine, State,
                            Transition, _Moves)
from fsmkit.symbols import Digit

from test_properties import PROPERTY, random_automata, random_transducers


def _same_machine_from_its_rows(m, lazy=True):
    """m, rebuilt from its rows, is m: equal, with the same moves, step
    view (or refusal), index graph and rows in the same order.  A `lazy`
    m has written no row before this first read, and a second read gives
    the same tuple."""
    assert type(m._moves) is _Moves
    if lazy:
        assert "transitions" not in vars(m)
    rows = m.transitions
    assert m.transitions is rows
    again = Machine(m.kind, m.states, rows, m.input_alphabet,
                    m.output_alphabet)
    assert again == m
    assert again._moves == m._moves
    assert again._view == m._view
    assert again._edges() == m._edges()
    assert repr(again.transitions) == repr(rows)
    assert again.transitions is rows


@PROPERTY
@given(random_automata(), random_automata())
def test_automaton_constructions_rebuild_from_their_rows(a, b):
    d = automata.determinize(a)
    results = [d, automata.complement(a), automata.minimize(a),
               automata.intersection(a, b), automata.union(a, b),
               automata.concat(a, b), automata.kleene_star(a),
               a.relabeled()]
    for m in results:
        _same_machine_from_its_rows(m)
    for m in (automata.complete(d), d.trim()):
        _same_machine_from_its_rows(m, lazy=m is not d)


@PROPERTY
@given(random_transducers(complete=True), random_transducers(),
       random_transducers(one_letter=True),
       random_transducers(one_letter=True))
def test_transducer_constructions_rebuild_from_their_rows(outer, inner,
                                                          one, two):
    results = [transducers.compose(outer, inner), transducers.simplify(inner),
               transducers.cartesian_product(one, two), inner.relabeled()]
    for m in results:
        _same_machine_from_its_rows(m)
    for m in (inner.trim(), automata.complete(inner)):
        _same_machine_from_its_rows(m, lazy=m is not inner)


@PROPERTY
@given(st.integers(1, 40), st.integers(0, 3))
def test_explored_and_completed_rewriters_rebuild_from_their_rows(n, step):
    """`from_transition_function` and `with_final_word_out` on a cycle of
    n states moving `step` on letter 0 and back to 0 on letter 1."""
    m = transducers.from_transition_function(
        lambda s, a: ((s + step) % n if a == 0 else 0, [a]), [0, 1], [0],
        [n - 1])
    _same_machine_from_its_rows(m)
    try:
        completed = transducers.with_final_word_out(m, 0)
    except Exception:  # no state reaches the final one by reading 0s
        return
    _same_machine_from_its_rows(completed)


def _kth(k):
    """(0+1)* 1 (0+1)^k: the words whose letter k+1 places from the end
    is 1."""
    bits = [0, 1]
    sigma = automata.union(automata.word_automaton([0], bits),
                           automata.word_automaton([1], bits))
    x = automata.concat(automata.kleene_star(sigma),
                        automata.word_automaton([1], bits))
    for _ in range(k):
        x = automata.concat(x, sigma)
    return x


def _count_calls(monkeypatch, owner, name="__init__"):
    """A one-entry list counting the calls of owner.name from here on."""
    calls = [0]
    original = getattr(owner, name)

    def spied(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, spied)
    return calls


def test_determinize_minimize_and_equivalence_write_no_row(monkeypatch):
    x = _kth(10)
    rows = _count_calls(monkeypatch, Transition)
    machines = _count_calls(monkeypatch, Machine)
    d, m = automata.determinize(x), automata.minimize(x)
    assert automata.is_equivalent(m, d)
    assert repr(m) == "<automaton: 2048 states, 4096 transitions>"
    assert (len(d.states), len(m.states)) == (2049, 2048)
    assert rows == [0]
    assert machines[0] > 0  # the results still pass the constructor
    assert len(m.transitions) == 4096 and rows == [4096]


# sha256 of the newline-joined `str` of each row, in order, and the row
# count, as the constructions gave them while they wrote rows themselves
PINNED_ROWS = {
    ("build_T", "determinize"): (48, "5238773eb731b747961a5ac5582c3a04720fecb7b0c3370f3c9777aa948b91f0"),
    ("build_T", "complement"): (125, "2635c2e35eb1d102cada677bd0c926952289e04fd0f1994fcb34be89ab4fbf35"),
    ("build_T", "simplify"): (18, "615a3b10de14012020dbd845f6e4dcbc05ade6f84583440fb5ae637c9324ed81"),
    ("build_T", "compose"): (18, "a09e80f11bbd2f048830352afcae1104bb1da103115750366a14fda110be5364"),
    ("build_naf3n", "determinize"): (39, "4a0d310cef7b73b50184bf0dca3587e3103e6ec1badaa1d0bcc361b8956f8d9b"),
    ("build_naf3n", "complement"): (110, "1639b4bc820716420f2fc993e4ee70ca9577ecf7110002ed5b21a7bd7a51424c"),
    ("build_naf3n", "simplify"): (14, "3b8cbb56ea06791e09273d184e10494fb1f6749ca50c7381b75838b073717c6e"),
    ("build_naf3n", "compose"): (18, "8a1ba2be6f7bfa8c49916c8853b9b984812128d2cfdff9837c7bd70017708154"),
}


@pytest.mark.parametrize("preset, construction", sorted(PINNED_ROWS))
def test_rows_of_construction_results_read_as_pinned(preset, construction):
    """On the output projection for the automata, on the preset itself
    for `simplify`, and behind a weight transducer for `compose`."""
    p = getattr(digits, preset)()
    build = {
        "determinize": lambda: automata.determinize(
            transducers.output_projection(p)),
        "complement": lambda: automata.complement(
            transducers.output_projection(p)),
        "simplify": lambda: transducers.simplify(p),
        "compose": lambda: transducers.compose(
            transducers.weight_transducer(p.output_alphabet), p),
    }[construction]
    rows = [str(t) for t in build().transitions]
    digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
    assert (len(rows), digest) == PINNED_ROWS[preset, construction]


STATES = (State("a", True, True), State("b"))
ZERO, ONE, TWO = Digit(0), Digit(1), Digit(2)


@pytest.mark.parametrize("kind, move, output_alphabet, message", [
    (TRANSDUCER, (1, (TWO,), 0, ()), None,
     "input symbol 2 outside the alphabet in transition b --2|ε--> a"),
    (TRANSDUCER, (0, (ONE,), 1, (ZERO, TWO)), [0, 1],
     "output symbol 2 outside the output alphabet in a --1|0,2--> b"),
    (AUTOMATON, (0, (ONE,), 1, (ONE,)), None,
     "automaton transition with output: a --1|1--> b"),
    (TRANSDUCER, (0, (ONE,), 1, (7,)), None,
     "output letter 7 is not a symbol: Transition(source='a', target='b', "
     "input=(Digit(value=1),), output=(7,))"),
], ids=["input", "output", "automaton output", "no symbol"])
def test_a_refused_move_raises_the_message_of_its_row(
        kind, move, output_alphabet, message, monkeypatch):
    """The refused move comes after one that passes; only the refused
    row is written, for the message, and rows give the same message."""
    moves = _Moves([(0, (ZERO,), 1, ()), move])
    rows = _count_calls(monkeypatch, Transition)
    with pytest.raises(ConstructionError) as raised:
        Machine(kind, STATES, moves, [0, 1], output_alphabet)
    assert str(raised.value) == message
    assert rows == [1]
    as_rows = [Transition(STATES[i].label, STATES[j].label, inp, out)
               for i, inp, j, out in moves]
    with pytest.raises(ConstructionError) as raised:
        Machine(kind, STATES, as_rows, [0, 1], output_alphabet)
    assert str(raised.value) == message

