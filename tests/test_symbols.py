import copy
import dataclasses
import json
import operator
import os
import pickle
import platform
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from fsmkit import automata, digits, serialize, symbols, transducers
from fsmkit.errors import ConstructionError
from fsmkit.machine import AUTOMATON, Machine
from fsmkit.symbols import (ABSENT, AbsentType, Digit, Pair, format_word,
                            pair_depth, parse_symbol_token, parse_word_text,
                            symbol, word, word_key)


def test_digit_order_by_value():
    assert Digit(-1) < Digit(0) < Digit(1)


def test_kind_order_digit_absent_pair():
    assert Digit(999) < ABSENT < Pair(Digit(-5), Digit(-5))


def test_pair_lexicographic_order():
    assert Pair(Digit(0), Digit(5)) < Pair(Digit(1), Digit(-5))
    assert Pair(Digit(0), Digit(0)) < Pair(Digit(0), Digit(1))


def test_absent_equals_only_absent():
    assert ABSENT == ABSENT
    assert ABSENT != Digit(0)
    assert Digit(0) != Pair(Digit(0), Digit(0))


def test_pair_depth_limit():
    deep = Digit(0)
    for _ in range(4):
        deep = Pair(deep, Digit(0))
    assert pair_depth(deep) == 4
    with pytest.raises(ConstructionError):
        Pair(deep, Digit(0))


def test_symbol_coercion():
    assert symbol(3) == Digit(3)
    assert symbol(None) is ABSENT
    assert symbol((1, None)) == Pair(Digit(1), ABSENT)
    with pytest.raises(ConstructionError):
        symbol(True)
    with pytest.raises(ConstructionError):
        symbol((1, 2, 3))


def test_word_coercion():
    assert word(None) == ()
    assert word(7) == (Digit(7),)
    assert word([0, -1]) == (Digit(0), Digit(-1))
    assert word([(0, 1), None]) == (Pair(Digit(0), Digit(1)), ABSENT)
    with pytest.raises(ConstructionError,
                       match="cannot interpret 1.5 as a word"):
        word(1.5)


def test_word_of_a_symbol_tuple_is_the_tuple_itself():
    w = (Digit(0), ABSENT, Pair(Digit(1), Digit(0)))
    assert word(w) is w
    assert word(()) == ()
    assert word((0, (1, None))) == (Digit(0), Pair(Digit(1), ABSENT))
    with pytest.raises(ConstructionError):
        word((True,))
    with pytest.raises(ConstructionError):
        word((Digit(0), True))


def test_word_of_a_long_symbol_tuple_is_the_tuple_itself():
    w = tuple(Digit(i % 3) for i in range(16_383)) + (ABSENT,)
    assert word(w) is w


class _HashRefused:
    def __hash__(self):
        raise ValueError("no hash")

    def __repr__(self):
        return "<hash refused>"


def test_word_coerces_a_tuple_with_a_letter_that_is_not_a_symbol():
    assert word((Digit(0), [1, 0])) == (Digit(0), Pair(Digit(1), Digit(0)))
    assert word((Digit(0), 1)) == (Digit(0), Digit(1))
    with pytest.raises(ConstructionError,
                       match="cannot interpret <hash refused> as a symbol"):
        word((Digit(0), _HashRefused()))


def test_empty_word_differs_from_absent_letter():
    assert word(None) != word([None])
    assert word([None]) == (ABSENT,)


def test_token_round_trip_examples():
    assert parse_symbol_token("-2") == Digit(-2)
    assert parse_symbol_token("~") is ABSENT
    assert parse_symbol_token("1|~") == Pair(Digit(1), ABSENT)
    assert parse_word_text("") == ()
    assert parse_word_text("0,1,1,1") == word([0, 1, 1, 1])
    assert format_word(word([(0, None), 2])) == "0|~,2"
    with pytest.raises(ConstructionError, match="empty symbol token"):
        parse_symbol_token("")
    with pytest.raises(ConstructionError,
                       match="cannot parse symbol token 'x'"):
        parse_symbol_token("x")


@pytest.mark.parametrize("letter, text", [
    (Pair(Digit(0), Digit(1)), "0|1"), (Digit(3), "3"), (ABSENT, "~"),
    (Pair(Pair(Digit(1), ABSENT), Digit(-2)), "(1|~)|-2")])
def test_a_lone_symbol_formats_as_its_one_letter_word(letter, text):
    assert format_word(letter) == format_word(word(letter)) == text


@pytest.mark.parametrize("parse, what", [(parse_symbol_token, "symbol token"),
                                         (parse_word_text, "word text")])
@pytest.mark.parametrize("value, text", [
    ([], r"\[\]"), (None, "None"), (b"1", "b'1'"), (1, "1"),
    (10**5000, "an int of more than")],
    ids=["list", "None", "bytes", "int", "long int"])
def test_text_parsers_refuse_a_non_str_by_name(parse, what, value, text):
    with pytest.raises(ConstructionError,
                       match=f"^a {what} is not a str: {text}"):
        parse(value)


simple_symbols = st.one_of(
    st.integers(min_value=-3, max_value=3).map(Digit),
    st.just(ABSENT),
)
symbols_strategy = st.one_of(
    simple_symbols,
    st.tuples(simple_symbols, simple_symbols).map(lambda p: Pair(*p)),
)


@given(st.lists(symbols_strategy, max_size=6))
def test_sorting_by_key_is_total_and_stable(items):
    ordered = sorted(items, key=lambda s: s.sort_key())
    assert sorted(ordered, key=lambda s: s.sort_key()) == ordered
    for a, b in zip(ordered, ordered[1:]):
        assert a <= b


@given(symbols_strategy)
def test_token_format_parse_round_trip(sym):
    assert parse_symbol_token(str(sym)) == sym


def nested_symbols(depth=symbols.MAX_PAIR_DEPTH):
    """Symbols whose pairs nest at most `depth` deep."""
    if depth == 0:
        return simple_symbols
    inner = nested_symbols(depth - 1)
    return st.one_of(inner, st.tuples(inner, inner).map(lambda p: Pair(*p)))


@given(st.lists(nested_symbols(), max_size=4).map(tuple))
def test_nested_pairs_read_back_as_written(w):
    assert parse_word_text(format_word(w)) == w
    for sym in w:
        assert parse_symbol_token(str(sym)) is sym


@pytest.mark.parametrize("text, letters", [
    ("(1|~)|-2", [((1, None), -2)]),
    ("1|(0|2)", [(1, (0, 2))]),
    ("1|2|3", [(1, (2, 3))]),
    (" ( 1 | ~ ) | -2 ,0", [((1, None), -2), 0]),
    ("(((1|2)|3)|4)|(5|6)", [((((1, 2), 3), 4), (5, 6))]),
], ids=["left pair", "right pair", "unparenthesized chain", "spaces",
        "depth four"])
def test_parenthesized_pair_components_parse(text, letters):
    assert parse_word_text(text) == word(letters)


@pytest.mark.parametrize("token, message", [
    ("()", "empty parentheses in symbol token '()'"),
    ("1|()", "empty parentheses in symbol token '1|()'"),
    ("(1|2", "unbalanced parentheses in symbol token '(1|2'"),
    ("1|2)", "unbalanced parentheses in symbol token '1|2)'"),
    ("(1|2))|3", "unbalanced parentheses in symbol token '(1|2))|3'"),
    ("(" * 5000, "unbalanced parentheses in symbol token '((("),
    (")" * 5000, "unbalanced parentheses in symbol token ')))"),
    ("(" * 5000 + "1|2" + ")" * 4999,
     "unbalanced parentheses in symbol token '((("),
    ("1(0|2)", "cannot parse symbol token '1(0|2)'"),
    ("(0|2)1", "cannot parse symbol token '(0|2)1'"),
    ("((((1|2)|3)|4)|5)|6", "pair nesting deeper than 4 is not supported"),
    ("1|" * 3000 + "1", "pair nesting deeper than 4 is not supported"),
    ("1|x", "cannot parse symbol token 'x'"),
    ("1|", "empty symbol token"),
    ("(|1)", "empty symbol token"),
], ids=["empty", "empty component", "open", "close", "close early",
        "5000 open", "5000 close", "one close short", "text before",
        "text after", "depth five", "long chain", "flat bad letter",
        "flat empty component", "empty component in parentheses"])
def test_malformed_symbol_tokens_are_refused_by_name(token, message):
    # a ConstructionError, never an IndexError or a RecursionError; the
    # messages for tokens without parentheses are the ones they always were
    with pytest.raises(ConstructionError) as raised:
        parse_symbol_token(token)
    text = str(raised.value)
    assert text == message if len(token) < 100 else text.startswith(message)


@given(st.lists(symbols_strategy, max_size=5).map(tuple),
       st.lists(symbols_strategy, max_size=5).map(tuple))
def test_word_key_matches_elementwise_comparison(u, v):
    if word_key(u) < word_key(v):
        assert u != v
    if u == v:
        assert word_key(u) == word_key(v)


# ----------------------------------------------------------------------
# interning: one object per symbol value
# ----------------------------------------------------------------------

def same_objects(u, v):
    return len(u) == len(v) and all(map(operator.is_, u, v))


def test_equal_values_are_one_object_however_built():
    one, pair = Digit(1), Pair(Digit(1), ABSENT)
    assert Digit(int("1")) is one and AbsentType() is ABSENT
    assert symbol(1) is one and symbol([1, None]) is pair
    assert same_objects(word([1, (1, None)]), (one, pair))
    assert parse_symbol_token(" 1 ") is one
    assert parse_symbol_token("1|~") is pair
    assert same_objects(parse_word_text("1,1|~"), (one, pair))
    assert same_objects(digits.binary_digits(7), (one, one, one))
    minus = digits.build_minus()
    loaded = serialize.loads(serialize.dumps(minus))
    assert same_objects(loaded.input_alphabet, minus.input_alphabet)


class Loud(int):
    def __str__(self):
        return "loud"


def test_an_int_subclass_interns_as_a_plain_int():
    built_first = Digit(Loud(987_654_321))
    assert built_first is Digit(987_654_321)
    assert type(built_first.value) is int
    assert str(built_first) == "987654321"


@pytest.mark.parametrize("sym", [Digit(-2), ABSENT,
                                 Pair(Pair(Digit(0), ABSENT), Digit(1))],
                         ids=["digit", "absent", "pair"])
def test_copies_and_pickles_give_back_the_interned_object(sym):
    assert copy.copy(sym) is sym
    assert copy.deepcopy(sym) is sym
    assert pickle.loads(pickle.dumps(sym)) is sym
    assert dataclasses.replace(sym) is sym


def test_replace_gives_the_interned_object_of_the_new_value():
    assert dataclasses.replace(Digit(3), value=4) is Digit(4)
    assert dataclasses.replace(Pair(Digit(0), Digit(1)), right=ABSENT) is \
        Pair(Digit(0), ABSENT)


def test_symbols_stay_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(Digit(1), "value", 2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(Pair(Digit(0), ABSENT), "left", Digit(1))
    assert Digit(1).value == 1


@pytest.mark.parametrize("bad", [True, 1.0, "1"])
def test_non_int_digits_still_raise(bad):
    with pytest.raises(ConstructionError,
                       match=f"digit value must be an int, got {bad!r}"):
        Digit(bad)


@pytest.mark.parametrize("build", [
    lambda: automata.empty_word_automaton(1),
    lambda: automata.word_automaton([0], 5),
    lambda: Machine(AUTOMATON, (), (), 1),
    lambda: Machine(AUTOMATON, (), (), [0], 1),
    lambda: transducers.identity_transducer(1),
    lambda: automata.empty_word_automaton(10 ** 5000),
], ids=["empty-word", "word", "machine", "output-alphabet", "identity",
        "huge-int"])
def test_an_alphabet_that_is_not_iterable_is_refused_by_name(build):
    # each reaches the one helper that turns letters into an alphabet
    with pytest.raises(ConstructionError,
                       match="^an alphabet must be iterable: "):
        build()


def test_a_refused_pair_is_not_cached():
    deep = Digit(7)
    for _ in range(4):
        deep = Pair(deep, Digit(7))
    cached = len(symbols._PAIRS)
    for _ in range(2):
        with pytest.raises(ConstructionError, match="deeper than 4"):
            Pair(deep, Digit(7))
        with pytest.raises(ConstructionError, match="must be symbols"):
            Pair(deep, 7)
    assert len(symbols._PAIRS) == cached


symbol_likes = st.recursive(
    st.none() | st.integers(min_value=-2, max_value=2)
    | st.sampled_from([Digit(0), ABSENT]),
    lambda inner: st.tuples(inner, inner) | st.lists(inner, min_size=2,
                                                      max_size=2),
    max_leaves=5)


@given(symbol_likes, symbol_likes)
def test_equality_identity_and_sort_key_agree(x, y):
    a, b = symbol(x), symbol(y)
    assert (a == b) is (a is b) is (a.sort_key() == b.sort_key())


PLACEMENT = """
import json, sys
ballast = [object() for _ in range(int(sys.argv[1]))]
from fsmkit.symbols import Digit, Pair
first, second = json.loads(sys.argv[2])
digits = [Digit(v) for v in range(*first)] + [Digit(v) for v in range(*second)]
pairs = [Pair(Digit(a), Digit(b)) for a in (-1, 0, 1) for b in (-1, 0, 1)]
print(json.dumps([[hash(s) for s in digits], [hash(s) for s in pairs]]))
"""


@pytest.mark.skipif(platform.python_implementation() != "CPython",
                    reason="identity hashes are addresses on CPython only")
@pytest.mark.parametrize("allocations", [0, 1001])
@pytest.mark.parametrize("first, second", [((-2, 3), (3, 11)),
                                           ((0, 8), (-5, 0))],
                         ids=["-2..2 first", "0..7 first"])
def test_the_first_symbols_of_a_class_hash_to_distinct_slots(
        allocations, first, second):
    # a fresh interpreter, so these are the first digits and pairs built;
    # the ballast moves the allocator's layout
    env = dict(os.environ, PYTHONPATH=str(Path(symbols.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", PLACEMENT, str(allocations),
         json.dumps([first, second])],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    digit_hashes, pair_hashes = json.loads(done.stdout)
    built_first = len(range(*first))
    for hashes in (digit_hashes[:built_first], digit_hashes[:8],
                   pair_hashes[:8]):
        assert len({h & 7 for h in hashes}) == len(hashes)
    for hashes in (digit_hashes, pair_hashes):  # 9 to 16 members
        assert len({h & 15 for h in hashes}) == len(hashes)
