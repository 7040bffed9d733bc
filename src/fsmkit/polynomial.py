"""Exact linear algebra: the characteristic polynomial of an integer
matrix and linear solves of integer systems over the rationals.

Both take ints only (a float, Fraction or bool entry raises AnalysisError)
and a square matrix only, with right-hand sides of its order (any other
shape raises AnalysisError too).  Both compute over the integers:
`charpoly` reduces to Hessenberg form modulo one Mersenne prime chosen
above twice a bound on the coefficients, and `solve_integers` eliminates
fraction-free, returning numerators over one common denominator, which
its callers divide out only where a result must be a Fraction.  The
stationary vector, the moment constants and the word-count recurrences
are all built from these two functions.
"""

from __future__ import annotations

from .errors import AnalysisError, shown

# Exponents e of Mersenne primes 2^e - 1 (OEIS A000043) from 61 on, so
# that `charpoly` needs no primality test
_MERSENNE_EXPONENTS = (61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217,
                       4253, 4423, 9689, 9941, 11213, 19937, 21701, 23209,
                       44497, 86243, 110503, 132049)


def _require_ints(matrix, columns=()):
    """Refuse a matrix (a sequence of rows) that is not square, a column
    (a right-hand side) whose length is not the matrix's order, and the
    first entry of either that is not an int; floats, Fractions and bools
    included."""
    n = len(matrix)
    for row in matrix:
        if len(row) != n:
            raise AnalysisError(
                f"exact linear algebra takes a square matrix, found a row "
                f"of length {len(row)} in a matrix of {n} rows")
    for b in columns:
        if len(b) != n:
            raise AnalysisError(
                f"a right-hand side of length {len(b)} does not fit a "
                f"matrix of {n} rows")
    for x in (x for part in (matrix, columns) for row in part for x in row):
        if type(x) is not int:
            raise AnalysisError(
                f"exact linear algebra takes int entries only, "
                f"found {type(x).__name__} {shown(x)}")


def _modulus(matrix) -> int:
    """The smallest listed Mersenne prime p > 2 * (1 + rho)^n, rho the
    largest absolute row sum: every eigenvalue has |lam| <= rho, so |c_k|
    <= C(n, k) * rho^k, and each c_k is its symmetric residue mod p."""
    rho = max((sum(map(abs, row)) for row in matrix), default=0)
    bound = 2 * (1 + rho) ** len(matrix)
    for e in _MERSENNE_EXPONENTS:
        if (1 << e) - 1 > bound:
            return (1 << e) - 1
    raise AnalysisError(
        f"characteristic polynomial coefficient bound 2*(1+{rho})^"
        f"{len(matrix)} exceeds the largest listed prime "
        f"2^{_MERSENNE_EXPONENTS[-1]}-1")


def charpoly(matrix):
    """Coefficients [1, c1, ..., cn] of det(x*I - M) for a square integer
    matrix M, by Hessenberg reduction over GF(p), p from `_modulus` (H.
    Cohen, A Course in Computational Algebraic Number Theory, GTM 138,
    1993, Algorithm 2.2.9): O(n^3) products of residues."""
    _require_ints(matrix)
    p = _modulus(matrix)
    n = len(matrix)
    h = [[x % p for x in row] for row in matrix]
    for m in range(1, n - 1):
        # a similarity transform clears column m - 1 below row m
        pivot = next((i for i in range(m, n) if h[i][m - 1]), None)
        if pivot is None:
            continue
        h[m], h[pivot] = h[pivot], h[m]
        for row in h:
            row[m], row[pivot] = row[pivot], row[m]
        top = h[m]  # not a copy: each column step changes its entry m
        inverse = pow(top[m - 1], -1, p)
        for i in range(m + 1, n):
            row = h[i]
            u = row[m - 1] * inverse % p
            if u:  # row i -= u * row m, then column m += u * column i
                row[m - 1:] = [(a - u * b) % p
                               for a, b in zip(row[m - 1:], top[m - 1:])]
                for r in h:
                    r[m] = (r[m] + u * r[i]) % p
    # P_{m+1} = (x - h_mm) P_m - sum over i < m of h_im * h_{i+1,i} * ...
    # * h_{m,m-1} * P_i, coefficients highest power first
    polys = [[1]]
    for m in range(n):
        new = polys[m] + [0]
        for k, a in enumerate(polys[m], 1):
            new[k] -= h[m][m] * a
        chain = 1
        for i in range(m - 1, -1, -1):
            chain = chain * h[i + 1][i] % p
            if not chain:
                break
            f = h[i][m] * chain % p
            for k, a in enumerate(polys[i], m + 1 - i):
                new[k] -= f * a
        polys.append([a % p for a in new])
    return [a - p if 2 * a > p else a for a in polys[n]]


def solve_integers(matrix, columns):
    """The solutions x of M x = b, one for each right-hand side b in
    `columns`, as integer numerators over one common denominator:
    (numerators, d) with x = numerators[k] / d for the k-th column, and d
    the last pivot; a singular M raises AnalysisError.  M and every b
    take ints only; a caller with rational rows scales them first.

    Fraction-free Gauss-Jordan elimination (Bareiss, "Sylvester's identity
    and multistep integer-preserving Gaussian elimination", Math. Comp.
    22, 1968): every entry is a minor of the integer matrix, so each
    elimination step divides exactly by the previous pivot.  The last
    pivot, M's determinant up to sign, is the common denominator of the
    solutions; no gcd is taken."""
    _require_ints(matrix, columns)
    n = len(matrix)
    rows = [list(matrix[i]) + [b[i] for b in columns] for i in range(n)]
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
    return ([[rows[i][n + k] for i in range(n)] for k in range(len(columns))],
            previous)
