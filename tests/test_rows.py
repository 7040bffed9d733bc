"""The rows of a machine, `State` and `Transition`, are frozen values:
their repr, equality, hashing, immutability, lack of ordering,
`dataclasses.replace`, copying and pickling are pinned here, for the rows
alone and for a whole machine built from them."""

import copy
import dataclasses
import pickle

import pytest

from fsmkit import automata, digits
from fsmkit.machine import State, Transition
from fsmkit.symbols import Digit, Pair

ROWS = (
    State("a"),
    State("q", True, True, (Digit(1),)),
    Transition("0", "1", ()),
    Transition("0", "1", (Digit(1),), (Pair(Digit(0), Digit(-1)),)),
)

COPIES = [copy.copy, copy.deepcopy] + [
    lambda x, p=p: pickle.loads(pickle.dumps(x, protocol=p))
    for p in range(pickle.HIGHEST_PROTOCOL + 1)]


def test_state_repr_with_defaults_and_keywords():
    assert repr(State("a")) == (
        "State(label='a', is_initial=False, is_final=False, final_output=())")
    assert repr(State(label="q", is_final=True, final_output=(Digit(-1),))) == (
        "State(label='q', is_initial=False, is_final=True, "
        "final_output=(Digit(value=-1),))")
    assert repr(State("s", True)) == (
        "State(label='s', is_initial=True, is_final=False, final_output=())")


def test_transition_repr_with_defaults_and_keywords():
    assert repr(Transition("0", "1", (Digit(1),))) == (
        "Transition(source='0', target='1', input=(Digit(value=1),), "
        "output=())")
    assert repr(Transition(target="b", source="a", input=(),
                           output=(Digit(0), Digit(1)))) == (
        "Transition(source='a', target='b', input=(), "
        "output=(Digit(value=0), Digit(value=1)))")
    assert str(Transition("a", "b", (), (Digit(1),))) == "a --ε|1--> b"


def test_rows_equal_only_within_their_class():
    assert State("a", True) == State(label="a", is_initial=True)
    assert State("a") != State("a", is_final=True)
    assert Transition("a", "b", ()) == Transition("a", "b", (), ())
    assert Transition("a", "b", ()) != Transition("a", "b", (Digit(0),))
    st, t = State("a", False, False, ()), Transition("a", False, False, ())
    assert st != t and t != st
    assert st != ("a", False, False, ()) and ("a", False, False, ()) != st
    assert t != ("a", False, False, ()) and ("a", False, False, ()) != t
    assert State.__eq__(st, ("a", False, False, ())) is NotImplemented


def test_equal_rows_hash_equal():
    assert hash(State("a", True)) == hash(State(label="a", is_initial=True))
    assert hash(Transition("a", "b", (Digit(1),))) == hash(
        Transition(source="a", target="b", input=(Digit(1),), output=()))
    for row in ROWS:
        fields = tuple(getattr(row, f.name) for f in dataclasses.fields(row))
        assert hash(row) == hash(fields)
    assert len({State("a"), State("a"), State("b")}) == 2


@pytest.mark.parametrize("row", ROWS, ids=repr)
def test_rows_refuse_setting_and_deleting_a_field(row):
    for field in dataclasses.fields(row):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(row, field.name, getattr(row, field.name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(row, field.name)
    # a name that is no field is refused too; how depends on the layout
    # (a slotted frozen dataclass raises TypeError on every CPython to 3.13)
    with pytest.raises((dataclasses.FrozenInstanceError, AttributeError,
                        TypeError)):
        row.extra = 1
    assert not hasattr(row, "extra")


def test_rows_have_no_order():
    with pytest.raises(TypeError):
        State("a") < State("b")
    with pytest.raises(TypeError):
        Transition("a", "b", ()) < Transition("a", "c", ())


def test_replace_builds_a_new_row():
    st = State("a", True)
    assert dataclasses.replace(st, is_final=True) == State("a", True, True)
    assert st == State("a", True)
    t = Transition("a", "b", (Digit(1),))
    assert dataclasses.replace(t, target="c", output=(Digit(0),)) == (
        Transition("a", "c", (Digit(1),), (Digit(0),)))


@pytest.mark.parametrize("clone", COPIES)
def test_rows_copy_and_pickle_to_equal_rows(clone):
    for row in ROWS:
        other = clone(row)
        assert type(other) is type(row)
        assert other == row and hash(other) == hash(row)
        assert repr(other) == repr(row)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(other, dataclasses.fields(other)[0].name, "x")


@pytest.mark.parametrize("clone", COPIES)
def test_a_machine_copies_and_pickles_to_an_equal_machine(clone):
    t = digits.build_T()
    other = clone(t)
    assert other == t
    assert repr(other.states) == repr(t.states)
    assert repr(other.transitions) == repr(t.transitions)
    letters = t.input_alphabet[:1] * 3
    assert other.process(letters) == t.process(letters)


@pytest.mark.parametrize("clone", COPIES)
def test_a_machine_that_is_its_own_kept_form_copies_and_pickles(clone):
    m = digits.build_naf_acceptor().trim()
    assert m.trim() is m
    counts = [automata.count_words(m, n) for n in range(6)]
    words = list(automata.language(m, 4))
    terms = [automata.word_count_recurrence(m).term(n) for n in range(6)]
    other = clone(m)
    assert other == m
    assert other.trim() is other
    assert [automata.count_words(other, n) for n in range(6)] == counts
    assert list(automata.language(other, 4)) == words
    assert [automata.word_count_recurrence(other).term(n)
            for n in range(6)] == terms
