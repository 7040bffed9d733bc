import pytest
from hypothesis import given, strategies as st

from fsmkit.errors import ConstructionError
from fsmkit.symbols import (ABSENT, Digit, Pair, format_word, pair_depth,
                            parse_symbol_token, parse_word_text, symbol, word,
                            word_key)


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


def test_word_of_a_symbol_tuple_is_the_tuple_itself():
    w = (Digit(0), ABSENT, Pair(Digit(1), Digit(0)))
    assert word(w) is w
    assert word(()) == ()
    assert word((0, (1, None))) == (Digit(0), Pair(Digit(1), ABSENT))
    with pytest.raises(ConstructionError):
        word((True,))
    with pytest.raises(ConstructionError):
        word((Digit(0), True))


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


@given(st.lists(symbols_strategy, max_size=5).map(tuple),
       st.lists(symbols_strategy, max_size=5).map(tuple))
def test_word_key_matches_elementwise_comparison(u, v):
    if word_key(u) < word_key(v):
        assert u != v
    if u == v:
        assert word_key(u) == word_key(v)
