"""Exact linear algebra: the characteristic polynomial of an integer
matrix and linear solves over the rationals.

Every result is an exact int or Fraction; the stationary vector, the
moment constants and the word-count recurrences are all built from these
two functions.
"""

from __future__ import annotations

from fractions import Fraction

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
    `columns`, by exact Gauss-Jordan elimination; a singular M raises
    AnalysisError."""
    n = len(matrix)
    rows = [list(matrix[i]) + [b[i] for b in columns] for i in range(n)]
    for c in range(n):
        pivot = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if pivot is None:
            raise AnalysisError("singular linear system")
        rows[c], rows[pivot] = rows[pivot], rows[c]
        inv = Fraction(1) / rows[c][c]
        rows[c] = [x * inv for x in rows[c]]
        for i in range(n):
            if i != c and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[c])]
    return [[rows[i][n + k] for i in range(n)] for k in range(len(columns))]
