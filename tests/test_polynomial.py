"""The modular characteristic polynomial against the integer
Faddeev-LeVerrier reference: its prime, its refusal past the prime list,
and its coefficients on the shapes that stress a Hessenberg reduction;
and the int-only, square-only contract of both exact routines."""

import random
import re
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fsmkit import polynomial
from fsmkit.errors import AnalysisError
from fsmkit.polynomial import charpoly, solve_integers

from oracles import faddeev_leverrier

ENTRIES = st.integers(-5, 5)


@st.composite
def square_matrices(draw):
    """Up to 8x8 entries of -5..5, some rows zeroed; or a nilpotent
    matrix, strictly upper triangular under a random state order."""
    n = draw(st.integers(0, 8))
    m = [[draw(ENTRIES) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        order = draw(st.permutations(range(n)))
        m = [[m[i][j] if order[i] < order[j] else 0 for j in range(n)]
             for i in range(n)]
    zero_rows = draw(st.sets(st.integers(0, n - 1))) if n else ()
    return [[0] * n if i in zero_rows else row for i, row in enumerate(m)]


@settings(max_examples=300, deadline=None)
@given(square_matrices())
@example([])
@example([[0]])
@example([[-7]])
@example([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
@example([[0, 0], [5, 0]])
def test_charpoly_matches_faddeev_leverrier(m):
    assert charpoly(m) == faddeev_leverrier(m)


def _count_matrix(n, letters, rng):
    m = [[0] * n for _ in range(n)]
    for row in m:
        for _ in range(letters):
            row[rng.randrange(n)] += 1
    return m


@pytest.mark.parametrize("n, letters", [(12, 2), (16, 3), (24, 2), (40, 2)])
def test_charpoly_of_count_matrices_matches_faddeev_leverrier(n, letters):
    rng = random.Random(n * letters)
    m = _count_matrix(n, letters, rng)
    coefficients = charpoly(m)
    assert coefficients == faddeev_leverrier(m)
    # a count matrix has the letter count as its largest eigenvalue
    assert sum(c * letters ** (n - k) for k, c in enumerate(coefficients)) == 0


@pytest.mark.parametrize("m", [
    [], [[0]], [[1, 1], [1, 1]], [[-3, 2], [0, 5]], [[2] * 20] * 20,
    [[1] * 40] * 40, [[-1, 1, -1]] * 3])
def test_the_prime_is_the_smallest_listed_one_above_the_bound(m):
    n = len(m)
    rho = max((sum(abs(x) for x in row) for row in m), default=0)
    bound = 2 * (1 + rho) ** n
    # the bound covers every coefficient, sum of C(n, k) rho^k
    assert bound == 2 * sum(comb(n, k) * rho ** k for k in range(n + 1))
    p = polynomial._modulus(m)
    listed = [(1 << e) - 1 for e in polynomial._MERSENNE_EXPONENTS]
    assert p in listed
    assert p > bound
    assert all(q <= bound for q in listed if q < p)


def test_the_listed_exponents_give_mersenne_primes():
    # Lucas-Lehmer on the exponents up to 4423
    for e in polynomial._MERSENNE_EXPONENTS:
        if e > 4423:
            break
        p, s = (1 << e) - 1, 4
        for _ in range(e - 2):
            s = (s * s - 2) % p
        assert s == 0, e


def test_a_bound_past_the_prime_list_is_refused(monkeypatch):
    monkeypatch.setattr(polynomial, "_MERSENNE_EXPONENTS", (61, 89))
    # 2 * 3**55 is below 2**89 - 1, 2 * 3**57 is not
    ones = [[0] * 55 for _ in range(55)]
    for i in range(55):
        ones[i][i] = ones[i][(i + 1) % 55] = 1
    assert charpoly(ones) == faddeev_leverrier(ones)
    bigger = [[1, 1] + [0] * 55 for _ in range(57)]
    with pytest.raises(AnalysisError,
                       match=r"bound 2\*\(1\+2\)\^57 exceeds the largest "
                             r"listed prime 2\^89-1"):
        charpoly(bigger)


@pytest.mark.parametrize("call, found", [
    (lambda: charpoly([[1.5, 1, 0], [1, 0, 1], [0, 1, 1]]), "float 1.5"),
    (lambda: charpoly([[1, 0], [0, Fraction(1, 2)]]),
     "Fraction Fraction(1, 2)"),
    (lambda: charpoly([[1, True], [0, 1]]), "bool True"),
    (lambda: solve_integers([[1.5]], [[1]]), "float 1.5"),
    (lambda: solve_integers([[2, 0], [0, Fraction(3)]], [[1, 1]]),
     "Fraction Fraction(3, 1)"),
    (lambda: solve_integers([[2]], [[1], [Fraction(1, 2)]]),
     "Fraction Fraction(1, 2)"),
    (lambda: solve_integers([[1, 0], [0, 1]], [[0, False]]), "bool False"),
    (lambda: solve_integers([[1, 2.0], [0, 1.5]], [[1, 1]]), "float 2.0"),
], ids=["charpoly-float", "charpoly-fraction", "charpoly-bool",
        "solve-float", "solve-integral-fraction", "solve-fraction-rhs",
        "solve-bool-rhs", "solve-first-entry"])
def test_exact_routines_refuse_an_entry_that_is_not_an_int(call, found):
    with pytest.raises(AnalysisError, match=re.escape(
            f"exact linear algebra takes int entries only, found {found}")):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: charpoly([[1, 2, 3], [3, 4, 5]]),
     "takes a square matrix, found a row of length 3 in a matrix of 2 rows"),
    (lambda: charpoly([[1, 2], [3]]),
     "takes a square matrix, found a row of length 1 in a matrix of 2 rows"),
    (lambda: solve_integers([[1, 0, 0], [0, 1, 0]], [[1, 1]]),
     "takes a square matrix, found a row of length 3 in a matrix of 2 rows"),
    (lambda: solve_integers([[1, 0], [0, 1]], [[1, 2, 3]]),
     "a right-hand side of length 3 does not fit a matrix of 2 rows"),
    (lambda: solve_integers([[1, 0], [0, 1]], [[1]]),
     "a right-hand side of length 1 does not fit a matrix of 2 rows"),
    (lambda: solve_integers([[1, 0], [0, 1]], [[1, 1], []]),
     "a right-hand side of length 0 does not fit a matrix of 2 rows"),
], ids=["charpoly-wide", "charpoly-ragged", "solve-wide", "solve-long-rhs",
        "solve-short-rhs", "solve-second-rhs"])
def test_exact_routines_refuse_a_shape_that_does_not_fit(call, message):
    """Before, these returned wrong values ([1, -5, -2] for the wide
    charpoly, ([[0, 0]], 1) for the wide solve, x = (1, 2) for the long
    right-hand side) or raised a raw IndexError."""
    with pytest.raises(AnalysisError, match=re.escape(message)):
        call()
