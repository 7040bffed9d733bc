"""Exact linear algebra: the characteristic polynomial of an integer
matrix and linear solves of integer systems over the rationals.

Both take ints only (a float, Fraction or bool entry raises AnalysisError)
and a square matrix only, with right-hand sides of its order (any other
shape raises AnalysisError too).  Both compute over the integers:
`charpoly` reduces to Hessenberg form modulo the smallest listed prime
above twice a bound on the coefficients (a Proth prime up to 1,023 bits,
a Mersenne prime past that), and `solve_integers` eliminates forward
fraction-free and substitutes back, returning numerators over one common
denominator, which its callers divide out only where a result must be a
Fraction.  The stationary vector, the moment constants and the
word-count recurrences are all built from these two functions.
"""

from __future__ import annotations

from operator import mul

from .errors import AnalysisError, shown

# Proth primes k * 2^m + 1 (k odd, k < 2^m, so Proth's theorem proves each
# with one witness; the tests do): 119 * 2^23 + 1 = 998,244,353 < 2^30,
# then for each 2^e, e = 46, 62, ..., 1022, the first one above it with
# m = e - 15 and k odd from 2^15 + 1 on
_PROTH = ((119, 23), (32775, 31), (32777, 47), (32771, 63), (32831, 79),
          (32831, 95), (32835, 111), (32957, 127), (32769, 143), (32819, 159),
          (32937, 175), (32841, 191), (33005, 207), (33089, 223), (32885, 239),
          (33185, 255), (32775, 271), (33537, 287), (33339, 303), (32915, 319),
          (32861, 335), (32799, 351), (33759, 367), (32921, 383), (32901, 399),
          (32925, 415), (32819, 431), (32831, 447), (33041, 463), (33189, 479),
          (32907, 495), (32799, 511), (34251, 527), (32897, 543), (34257, 559),
          (33011, 575), (32775, 591), (32831, 607), (32829, 623), (32865, 639),
          (33497, 655), (32819, 671), (33129, 687), (33357, 703), (34911, 719),
          (34199, 735), (33317, 751), (33491, 767), (33657, 783), (33237, 799),
          (32837, 815), (34157, 831), (33921, 847), (32931, 863), (33177, 879),
          (33075, 895), (32969, 911), (32949, 927), (32879, 943), (33569, 959),
          (32769, 975), (34305, 991), (33515, 1007))
# Exponents e of Mersenne primes 2^e - 1 (OEIS A000043) from 1279 on
_MERSENNE_EXPONENTS = (1279, 2203, 2281, 3217, 4253, 4423, 9689, 9941, 11213,
                       19937, 21701, 23209, 44497, 86243, 110503, 132049)
# `charpoly`'s moduli k * 2^m + c as (k, m, c), increasing, so that it
# needs no primality test
_PRIMES = (tuple((k, m, 1) for k, m in _PROTH)
           + tuple((1, e, -1) for e in _MERSENNE_EXPONENTS))


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
    """The smallest listed prime p > 2 * (1 + rho)^n, rho the largest
    absolute row sum: every eigenvalue has |lam| <= rho, so |c_k| <=
    C(n, k) * rho^k, and each c_k is its symmetric residue mod p.  The
    first listed prime is below 2^30, so p is one 30-bit digit for a
    bound below it (a 2-letter count matrix of up to 18 states); up to
    1,023 bits p has at most 17 bits more than the bound."""
    rho = max((sum(map(abs, row)) for row in matrix), default=0)
    bound = 2 * (1 + rho) ** len(matrix)
    for k, m, c in _PRIMES:
        if (k << m) + c > bound:
            return (k << m) + c
    k, m, c = _PRIMES[-1]
    raise AnalysisError(
        f"characteristic polynomial coefficient bound 2*(1+{rho})^"
        f"{len(matrix)} exceeds the largest listed prime "
        f"{f'{k}*' if k != 1 else ''}2^{m}{c:+d}")


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

    Fraction-free forward elimination (Bareiss, "Sylvester's identity and
    multistep integer-preserving Gaussian elimination", Math. Comp. 22,
    1968): every entry is a minor of the integer matrix, so each step
    clears the column below its pivot and divides exactly by the previous
    pivot.  The last pivot d, M's determinant up to sign, is the common
    denominator of the solutions; no gcd is taken.  Back substitution then
    finds each d x_i, the i-th Cramer numerator, from the last row up:
    d x_i = (d b'_i - sum over j > i of u_ij d x_j) / u_ii, an exact
    division since d x_i is an integer."""
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
        for row in rows[c + 1:]:
            f = row[c]
            row[c + 1:] = ([(p * a - f * b) // previous
                            for a, b in zip(row[c + 1:], rest)] if f else
                           [p * a // previous for a in row[c + 1:]])
        previous = p
    # each list holds d x_n-1, d x_n-2, ..., so row i's entries past its
    # pivot are read backwards to meet them
    solved = [[] for _ in columns]
    for i in range(n - 1, -1, -1):
        row = rows[i]
        u = row[n - 1:i:-1]
        for x, b in zip(solved, row[n:]):
            x.append((previous * b - sum(map(mul, u, x))) // row[i])
    return [x[::-1] for x in solved], previous
