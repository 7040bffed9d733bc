"""Exact linear algebra: the characteristic polynomial of an integer
matrix, left kernels and linear solves over the rationals.

Every result is an exact int or Fraction; the stationary vector, the
moment constants and the word-count recurrences are all built from these
three functions.
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


def _row_reduce(rows, width):
    """Bring `rows` to reduced row echelon form over their first `width`
    columns, in place, by exact Gauss-Jordan elimination; returns the
    pivot columns in order."""
    pivots = []
    for c in range(width):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    return pivots


def left_kernel(matrix):
    """Basis of {x : x^T M = 0} for a square matrix M, one vector per free
    column of M^T."""
    n = len(matrix)
    rows = [list(column) for column in zip(*matrix)]  # M^T
    pivots = _row_reduce(rows, n)
    basis = []
    for f in (c for c in range(n) if c not in pivots):
        vec = [Fraction(0)] * n
        vec[f] = Fraction(1)
        for i, c in enumerate(pivots):
            vec[c] = -rows[i][f]
        basis.append(vec)
    return basis


def solve(matrix, columns):
    """The solutions x of M x = b, one for each right-hand side b in
    `columns`; a singular M raises AnalysisError."""
    n = len(matrix)
    rows = [list(matrix[i]) + [b[i] for b in columns] for i in range(n)]
    if len(_row_reduce(rows, n)) < n:
        raise AnalysisError("singular linear system")
    return [[rows[i][n + k] for i in range(n)] for k in range(len(columns))]
