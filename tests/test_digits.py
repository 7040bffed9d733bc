import random
import re
import sys
from fractions import Fraction

import pytest

from fsmkit import automata, digits, serialize, transducers
from fsmkit.digits import (Expansion, binary_digits, hamming_weight, naf_of,
                           three_half_naf_of)
from fsmkit.errors import ConstructionError
from fsmkit.symbols import ABSENT, Digit, Pair, word

from oracles import (all_words, dp_stats, expansion_value, naf_digits,
                     normalized_digits)


# ----------------------------------------------------------------------
# digit utilities
# ----------------------------------------------------------------------

def test_binary_digits():
    assert binary_digits(14) == word([0, 1, 1, 1])
    assert binary_digits(0) == ()
    assert binary_digits(42) == word([0, 1, 0, 1, 0, 1])
    for n in (-3, -1):
        with pytest.raises(ConstructionError):
            binary_digits(n)


@pytest.mark.parametrize("seed", range(10))
def test_binary_digits_match_bin(seed):
    rng = random.Random(seed)
    n = rng.getrandbits(rng.randint(1, 2 ** 16))
    assert binary_digits(n) == word(int(b) for b in reversed(bin(n)[2:]))


@pytest.mark.parametrize("n", [2.5, "3", True, False, None, Fraction(4)])
@pytest.mark.parametrize("digits_of", [binary_digits, naf_of,
                                       three_half_naf_of])
def test_digit_paths_refuse_a_value_that_is_not_an_int(digits_of, n):
    with pytest.raises(ConstructionError,
                       match=re.escape(f"defined for ints, not {n!r}")):
        digits_of(n)


def test_expansion_value_of_a_pair_raises():
    with pytest.raises(ConstructionError):
        Expansion((Digit(1), Pair(Digit(0), Digit(1))), 0).value()


@pytest.mark.parametrize("method", ["value", "digit_string"])
@pytest.mark.parametrize("letters, bad", [
    ((Pair(Digit(0), Digit(1)),), Pair(Digit(0), Digit(1))),
    ((1,), 1),
    (([1],), [1]),
    ((Digit(1), Pair(Digit(0), Digit(1)), 1), Pair(Digit(0), Digit(1)))],
    ids=["pair", "int", "unhashable", "first-of-two"])
def test_a_letter_with_no_digit_value_raises_from_both_methods(letters, bad,
                                                               method):
    with pytest.raises(ConstructionError) as raised:
        getattr(Expansion(letters, 0), method)()
    assert str(raised.value) == f"{bad!r} has no digit value"


@pytest.mark.parametrize("method", ["value", "digit_string"])
@pytest.mark.parametrize("offset", [1.5, "2", True],
                         ids=["float", "str", "bool"])
def test_expansion_refuses_an_offset_that_is_not_an_int(offset, method):
    with pytest.raises(ConstructionError) as raised:
        getattr(Expansion(word([1]), offset), method)()
    assert str(raised.value) == \
        f"the exponent offset must be an int, not {offset!r}"


@pytest.mark.parametrize("offset", [sys.maxsize + 1, -sys.maxsize - 1,
                                    10**20, digits.MAX_EXPONENT_OFFSET + 1,
                                    -digits.MAX_EXPONENT_OFFSET - 1])
def test_expansion_value_names_the_offset_bound(offset):
    with pytest.raises(
            ConstructionError,
            match=f"at most MAX_EXPONENT_OFFSET = {digits.MAX_EXPONENT_OFFSET} "
                  f"in absolute value"):
        Expansion(word([1]), offset).value()


@pytest.mark.parametrize("sign", [1, -1])
def test_expansion_value_at_the_offset_bound(sign):
    offset = sign * digits.MAX_EXPONENT_OFFSET
    assert Expansion(word([1]), offset).value() == Fraction(2) ** offset


@pytest.mark.parametrize("offset", [10**12, digits.MAX_EXPONENT_OFFSET + 1,
                                    -digits.MAX_EXPONENT_OFFSET - 1])
def test_digit_string_names_the_offset_bound(offset):
    with pytest.raises(
            ConstructionError,
            match=f"at most MAX_EXPONENT_OFFSET = {digits.MAX_EXPONENT_OFFSET} "
                  f"in absolute value"):
        Expansion(word([1]), offset).digit_string()


def test_digit_string_at_the_offset_bound():
    n = digits.MAX_EXPONENT_OFFSET
    assert Expansion(word([1]), n).digit_string() == "(1" + "0" * n + ")_2"
    assert Expansion(word([1]), -n).digit_string() == \
        "(0·" + "0" * (n - 1) + "1)_2"


def test_hamming_weight():
    assert hamming_weight([0, -1, 0, 0, 1]) == 2
    assert hamming_weight([]) == 0
    assert hamming_weight([0, 0, 2, 0, 1, -1, 1]) == 4
    with pytest.raises(ConstructionError):
        hamming_weight([Pair(Digit(0), Digit(1))])
    with pytest.raises(ConstructionError):
        hamming_weight([ABSENT])


def test_digit_string_rendering():
    assert Expansion(word([0, -1, 0, 0, 1]), 0).digit_string() == "(1001̄0)_2"
    assert Expansion(word([0, 0, -1, 0, 0, 1]), -1).digit_string() == \
        "(1001̄0·0)_2"
    assert Expansion((), 0).digit_string() == "(0)_2"


# ----------------------------------------------------------------------
# builders
# ----------------------------------------------------------------------

def test_acceptor_recognizes_nonadjacent_forms(naf_acceptor):
    assert naf_acceptor.accepts([0, -1, 0, 0, 1])
    assert not naf_acceptor.accepts([0, 1, 1, 1])


def test_T_on_fourteen(machine_T):
    out = machine_T.transduce(binary_digits(14))
    expansion = Expansion(out, -2)
    assert expansion.value() == 14
    assert expansion.digit_string() == "(11̄102·0)_2"


def test_W_weighs_fourteen(machine_W):
    out = machine_W.transduce(binary_digits(14))
    assert sum(s.value for s in out) == 4


def test_R_is_minimal_and_accepts_outputs(machine_R, machine_T):
    assert automata.minimize(machine_R) == machine_R
    for n in (0, 1, 7, 14, 31, 100):
        assert machine_R.accepts(machine_T.transduce(binary_digits(n)))


def test_builder_state_counts(naf_all, machine_T):
    assert len(naf_all.states) == 6
    assert len(machine_T.states) == 9


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------

def test_naf_of_fourteen():
    e = naf_of(14)
    assert e.digits == word([0, -1, 0, 0, 1])
    assert e.value() == 14
    assert hamming_weight(e.digits) == 2
    assert e.digit_string() == "(1001̄0)_2"


def test_naf_of_zero():
    e = naf_of(0)
    assert e.value() == 0
    assert all(s.value == 0 for s in e.digits)


def test_three_half_of_fourteen():
    e = three_half_naf_of(14)
    assert e.digits == word([0, 0, 2, 0, 1, -1, 1])
    assert e.exponent_offset == -2
    assert e.value() == 14
    for letters, offset, value in [([0, -1, 0, 0, 1], 0, 14),
                                   ([0, 0, -1, 0, 0, 1], -1, 14),
                                   ([0, 0, 2, 0, 1, -1, 1], -2, 14),
                                   ([], 3, 0)]:
        assert Expansion(word(letters), offset).value() == value


def test_wrappers_on_a_long_integer():
    n = random.Random(14).getrandbits(2 ** 14) | 1 << (2 ** 14 - 1)
    assert three_half_naf_of(n).value() == n
    naf = naf_of(n)
    assert naf.value() == n
    assert expansion_value([s.value for s in naf.digits]) == n


def test_naf_of_uses_the_completed_rewriter(naf_completed):
    assert serialize.dumps(digits.build_naf2()) == \
        serialize.dumps(naf_completed)


def test_wrappers_match_fixture_machines(naf_completed, machine_T):
    for n in (0, 1, 5, 14, 100):
        assert naf_of(n).digits == naf_completed.transduce(binary_digits(n))
        assert three_half_naf_of(n).digits == \
            machine_T.transduce(binary_digits(n))


# ----------------------------------------------------------------------
# value preservation and structure, on the fixture machines
# ----------------------------------------------------------------------

def test_naf_values_and_nonadjacency_up_to_ten_thousand(naf_completed):
    for n in range(10_001):
        out = naf_completed.transduce(binary_digits(n))
        values = [s.value for s in out]
        assert expansion_value(values) == n
        assert all(v in (-1, 0, 1) for v in values)
        assert all(values[i] == 0 or values[i + 1] == 0
                   for i in range(len(values) - 1))


def test_three_half_values_up_to_ten_thousand(machine_T):
    for n in range(10_001):
        out = machine_T.transduce(binary_digits(n))
        values = [s.value for s in out]
        assert expansion_value(values, -2) == n
        assert all(v in (-2, -1, 0, 1, 2) for v in values)


def test_three_half_equals_difference_of_nafs(machine_T):
    # independent oracle: NAF(3n)/NAF(n) by arithmetic, subtracted
    # digitwise; both sit at offset -1 as expansions of 3n/2 and n/2
    for n in range(1001):
        ours = [s.value for s in machine_T.transduce(binary_digits(n))]
        a, b = naf_digits(3 * n), naf_digits(n)
        length = max(len(a), len(b))
        a += [0] * (length - len(a))
        b += [0] * (length - len(b))
        diff = [x - y for x, y in zip(a, b)]
        assert normalized_digits(ours, -2) == normalized_digits(diff, -1)


def test_naf_uniqueness_up_to_256(naf_acceptor):
    seen = {}
    for w in automata.language(naf_acceptor, 9):
        values = [s.value for s in w]
        if values and values[-1] == 0:
            continue  # same integer as its trailing-zero-free form
        value = expansion_value(values)
        if 0 <= value <= 256:
            seen[value] = seen.get(value, 0) + 1
    assert all(seen.get(n) == 1 for n in range(257))


def test_naf_weight_is_minimal_by_brute_force():
    best = {}
    for letters in all_words([-1, 0, 1], 10):
        value = expansion_value(letters)
        if value < 0 or value > 256:
            continue
        weight = sum(1 for d in letters if d)
        best[value] = min(weight, best.get(value, weight))
    for n in range(257):
        assert hamming_weight(naf_digits(n)) == best[n]


def test_mean_weights_order_naf_binary_three_half(weight_naf, machine_W):
    k = 16
    total = 2 ** k
    mean_binary = Fraction(k, 2)
    _, mean_naf, _, _, _ = dp_stats(weight_naf, k, include_final=True)
    _, mean_three_half, _, _, _ = dp_stats(machine_W, k, include_final=True)
    assert mean_naf < mean_binary < mean_three_half
