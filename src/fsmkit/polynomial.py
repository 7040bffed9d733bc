"""Exact linear algebra: the characteristic polynomial of an integer
matrix and linear solves over the rationals.

Both compute over the integers: Faddeev-LeVerrier divides exactly by k,
and `solve` eliminates fraction-free, forming Fractions only for its
solutions.  Every result is an exact int or Fraction; the stationary
vector, the moment constants and the word-count recurrences are all built
from these two functions.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import AnalysisError


def charpoly(matrix):
    """Coefficients [1, c1, ..., cn] of det(x*I - M) for an integer matrix
    M, by the Faddeev-LeVerrier recurrence over the integers: every
    coefficient of an integer matrix is an integer, so each division by k
    is exact."""
    n = len(matrix)
    # M is a count matrix, mostly zeros: multiply by its nonzero entries only
    sparse = [[(m, x) for m, x in enumerate(row) if x] for row in matrix]
    coeffs = [1]
    work = [[0] * n for _ in range(n)]  # starts as the zero matrix
    for k in range(1, n + 1):
        # work <- M * (work + c_{k-1} * I)
        for i in range(n):
            work[i][i] += coeffs[-1]
        work = [[sum(x * work[m][j] for m, x in row) for j in range(n)]
                for row in sparse]
        coeffs.append(-sum(work[i][i] for i in range(n)) // k)
    return coeffs


def solve(matrix, columns):
    """The solutions x of M x = b, one for each right-hand side b in
    `columns`, as Fractions; a singular M raises AnalysisError.

    Fraction-free Gauss-Jordan elimination (Bareiss, "Sylvester's identity
    and multistep integer-preserving Gaussian elimination", Math. Comp.
    22, 1968): each row is scaled to integers by the lcm of its
    denominators, and every later entry is a minor of the scaled matrix,
    so each elimination step divides exactly by the previous pivot.  The
    last pivot, the scaled matrix's determinant up to sign, is the common
    denominator of the solutions; no gcd is taken until they are formed."""
    n = len(matrix)
    rows = []
    for i in range(n):
        row = list(matrix[i]) + [b[i] for b in columns]
        scale = lcm(*(x.denominator for x in row))
        rows.append([x.numerator * (scale // x.denominator) for x in row])
    previous = 1
    for c in range(n):
        pivot = next((i for i in range(c, n) if rows[i][c]), None)
        if pivot is None:
            raise AnalysisError("singular linear system")
        rows[c], rows[pivot] = rows[pivot], rows[c]
        top = rows[c]
        p, rest = top[c], top[c + 1:]
        # column c is never read again, so only the later ones are updated
        for i in range(n):
            if i != c:
                row = rows[i]
                f = row[c]
                row[c + 1:] = [(p * a - f * b) // previous
                               for a, b in zip(row[c + 1:], rest)]
        previous = p
    return [[Fraction(rows[i][n + k], previous) for i in range(n)]
            for k in range(len(columns))]
