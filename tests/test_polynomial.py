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

from oracles import determinant_mod, faddeev_leverrier

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


@pytest.mark.parametrize("kind", ["random", "loops"])
@pytest.mark.parametrize("n", [96, 128])
def test_charpoly_of_large_count_matrices_matches_a_modular_determinant(
        n, kind):
    """Past the Faddeev-LeVerrier oracle's reach: p(r) = det(r I - M) mod
    q at three seeded points r, for q = 2^61 - 1, a prime that `charpoly`
    does not reduce by.  The bounds 2 * 3^n have 155 and 204 bits.  A
    random count matrix's coefficients have fewer than 20 bits, so it
    checks the reduction; when every state loops on both letters, M = 2 I
    and p = (x - 2)^n, twice whose largest coefficient has 150 and 201
    bits, so it checks the modulus: the listed prime below the right one
    (143 and 191 bits) would wrap that coefficient."""
    rng = random.Random(n)
    m = (_count_matrix(n, 2, rng) if kind == "random" else
         [[2 * (i == j) for j in range(n)] for i in range(n)])
    coefficients = charpoly(m)
    assert len(coefficients) == n + 1 and coefficients[0] == 1
    # a count matrix has the letter count as its largest eigenvalue
    assert sum(c * 2 ** (n - k) for k, c in enumerate(coefficients)) == 0
    q = (1 << 61) - 1
    for _ in range(3):
        r = rng.randrange(q)
        value = 0
        for c in coefficients:
            value = (value * r + c) % q
        shifted = [[(r if i == j else 0) - x for j, x in enumerate(row)]
                   for i, row in enumerate(m)]
        assert value == determinant_mod(shifted, q)


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
    listed = [(k << m) + c for k, m, c in polynomial._PRIMES]
    assert listed == sorted(set(listed))
    assert p in listed
    assert p > bound
    assert all(q <= bound for q in listed if q < p)


@pytest.mark.parametrize("n, bits", [(16, 30), (96, 159), (128, 207)])
def test_a_count_matrix_reduces_modulo_a_prime_near_its_bound(n, bits):
    """A 2-letter count matrix of 16 states (the largest the exact
    workload draws) has the bound 2 * 3^16 < 2^30, so it reduces modulo
    998,244,353, whose residues are one 30-bit digit; at 96 and 128
    states the bounds have 155 and 204 bits."""
    m = _count_matrix(n, 2, random.Random(n))
    assert polynomial._modulus(m).bit_length() == bits


def test_the_listed_exponents_give_mersenne_primes():
    # Lucas-Lehmer on the tail's exponents up to 4423
    for k, e, c in polynomial._PRIMES:
        if (k, c) != (1, -1):
            continue
        if e > 4423:
            break
        p, s = (1 << e) - 1, 4
        for _ in range(e - 2):
            s = (s * s - 2) % p
        assert s == 0, e


def test_the_listed_proth_numbers_are_proven_prime():
    """Proth's theorem (1878): N = k * 2^m + 1 with k odd and k < 2^m is
    prime if a^((N - 1) / 2) = -1 (mod N) for some a.  Every entry before
    the Mersenne tail is such an N with a witness below 100, and each has
    at most 17 bits more than the one before."""
    proth = [(k, m) for k, m, c in polynomial._PRIMES if c == 1]
    assert polynomial._PRIMES[:len(proth)] == tuple(
        (k, m, 1) for k, m in proth)
    assert all((k, c) == (1, -1)
               for k, _, c in polynomial._PRIMES[len(proth):])
    assert proth[0] == (119, 23)
    for k, m in proth:
        assert k % 2 == 1 and k < 1 << m, (k, m)
        n = (k << m) + 1
        assert any(pow(a, n >> 1, n) == n - 1 for a in range(2, 100)), (k, m)
    bits = [((k << m) + 1).bit_length() for k, m in proth]
    assert bits[-1] == 1023
    assert all(0 < b - a <= 17 for a, b in zip(bits, bits[1:]))


def test_a_bound_past_the_prime_list_is_refused(monkeypatch):
    monkeypatch.setattr(polynomial, "_PRIMES", ((119, 23, 1), (1, 89, -1)))
    # 2 * 3**55 is below 2**89 - 1, 2 * 3**57 is not
    ones = [[0] * 55 for _ in range(55)]
    for i in range(55):
        ones[i][i] = ones[i][(i + 1) % 55] = 1
    assert polynomial._modulus(ones) == (1 << 89) - 1
    assert charpoly(ones) == faddeev_leverrier(ones)
    bigger = [[1, 1] + [0] * 55 for _ in range(57)]
    with pytest.raises(AnalysisError,
                       match=r"bound 2\*\(1\+2\)\^57 exceeds the largest "
                             r"listed prime 2\^89-1$"):
        charpoly(bigger)


def test_a_refusal_writes_a_proth_prime_as_k_times_a_power_of_two(
        monkeypatch):
    monkeypatch.setattr(polynomial, "_PRIMES", ((119, 23, 1),))
    # 2 * 3**18 is below 119 * 2**23 + 1, 2 * 3**19 is not
    assert charpoly([[1, 1] + [0] * 16] * 18)[:2] == [1, -2]
    with pytest.raises(AnalysisError, match=re.escape(
            "bound 2*(1+2)^19 exceeds the largest listed prime "
            "119*2^23+1")):
        charpoly([[1, 1] + [0] * 17] * 19)


@pytest.mark.parametrize("matrix, columns, expected", [
    # a zero first pivot: rows 0 and 1 swap, and d = 6 = -det
    ([[0, 2], [3, 1]], [[4, 5]], ([[6, 12]], 6)),
    ([[2, 1, 0], [1, 3, 1], [0, 1, 4]], [[1, 0, 0], [0, 1, 0], [5, -2, 7]],
     ([[11, -4, 1], [-4, 8, -2], [70, -50, 44]], 18)),
    # no swap and det = -2: the last pivot is negative, and so is d
    ([[1, 2], [3, 4]], [[1, 1]], ([[2, -2]], -2)),
    ([[0, 1, 2], [1, 0, 3], [4, -3, 8]], [[1, 2, 3]], ([[10, 6, -2]], 2)),
], ids=["row-swap", "three-columns", "negative-pivot", "three-rows-swap"])
def test_solve_returns_numerators_over_the_last_pivot(matrix, columns,
                                                      expected):
    """Callers read the numerators over d themselves (`_terminal_chain`
    takes their gcd with d, `asymptotic_moments` scales by d), so the pair
    itself is pinned, not only the Fractions it stands for."""
    assert solve_integers(matrix, columns) == expected


@pytest.mark.parametrize("matrix", [[[1, 2], [2, 4]], [[0, 0], [0, 1]],
                                    [[1, 2, 3], [2, 4, 6], [0, 0, 1]]])
def test_a_singular_solve_is_refused(matrix):
    with pytest.raises(AnalysisError, match="^singular linear system$"):
        solve_integers(matrix, [[1] * len(matrix)])


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
