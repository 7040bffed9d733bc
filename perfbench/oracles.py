"""Independent checks of the library's results.

Nothing here imports fsmkit.  Machines are read as plain data: a
deterministic table ``{(state, letter): (target, output)}`` with letters
and outputs as Python ints, or a nondeterministic table
``{(state, letter): {targets}}``.  ``table_of`` builds such a table from a
Machine's public ``states`` and ``transitions`` fields, ``table_of_doc``
from a machine file.  The checks use only exact arithmetic: ints and
Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

OVERLINE = "̄"


# ----------------------------------------------------------------------
# machines as plain tables
# ----------------------------------------------------------------------

def letter_value(s):
    """Int value of a digit symbol (read from its public ``value``)."""
    return s.value


def table_of(machine):
    """(initial label, final labels, {(label, int letter): (target, ints)},
    final outputs) of a deterministic machine, read from its fields."""
    initial = [st.label for st in machine.states if st.is_initial]
    if len(initial) != 1:
        raise ValueError(f"expected one initial state, found {len(initial)}")
    finals = {st.label for st in machine.states if st.is_final}
    final_out = {st.label: [letter_value(s) for s in st.final_output]
                 for st in machine.states}
    delta = {}
    for t in machine.transitions:
        if len(t.input) != 1:
            raise ValueError(f"not a letter transition: {t}")
        key = (t.source, letter_value(t.input[0]))
        if key in delta:
            raise ValueError(f"nondeterministic at {key}")
        delta[key] = (t.target, [letter_value(s) for s in t.output])
    return initial[0], finals, delta, final_out


def table_of_doc(doc):
    """The same table from a parsed machine file (digit letters only)."""
    initial = [st["label"] for st in doc["states"] if st["initial"]]
    if len(initial) != 1:
        raise ValueError(f"expected one initial state, found {len(initial)}")
    finals = {st["label"] for st in doc["states"] if st["final"]}
    final_out = {st["label"]: list(st.get("final_output", []))
                 for st in doc["states"]}
    delta = {}
    for t in doc["transitions"]:
        if len(t["input"]) != 1:
            raise ValueError(f"not a letter transition: {t}")
        key = (t["from"], t["input"][0])
        if key in delta:
            raise ValueError(f"nondeterministic at {key}")
        delta[key] = (t["to"], list(t["output"]))
    return initial[0], finals, delta, final_out


def run_table(table, letters):
    """(accepted, output ints) of a deterministic table on a word."""
    state, finals, delta, final_out = table
    out = []
    for a in letters:
        step = delta.get((state, a))
        if step is None:
            return False, out
        state, written = step
        out.extend(written)
    if state not in finals:
        return False, out
    return True, out + final_out[state]


def nfa_accepts(initial, finals, moves, letters):
    """Acceptance by a nondeterministic table without epsilon moves."""
    here = set(initial)
    for a in letters:
        here = {t for s in here for t in moves.get((s, a), ())}
        if not here:
            return False
    return bool(here & set(finals))


def subset_count(initial, moves, alphabet):
    """Number of nonempty subsets the subset construction reaches (subsets
    held as bitmasks over the states)."""
    states = sorted(set(initial) | {s for s, _ in moves}
                    | {t for ts in moves.values() for t in ts}, key=repr)
    bit = {s: 1 << i for i, s in enumerate(states)}
    step = {a: [0] * len(states) for a in alphabet}
    for (s, a), targets in moves.items():
        for t in targets:
            step[a][bit[s].bit_length() - 1] |= bit[t]
    start = sum(bit[s] for s in set(initial))
    seen = {start}
    stack = [start]
    while stack:
        here = stack.pop()
        for a in alphabet:
            row, there, rest = step[a], 0, here
            while rest:
                low = rest & -rest
                there |= row[low.bit_length() - 1]
                rest ^= low
            if there and there not in seen:
                seen.add(there)
                stack.append(there)
    return len(seen)


def reachable(initial, succ):
    """States reachable from `initial` in the graph {state: iterable}."""
    seen = set(initial)
    stack = list(initial)
    while stack:
        for t in succ.get(stack.pop(), ()):
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return seen


def is_aperiodic(states, succ):
    """gcd of the cycle lengths of a strongly connected graph equals 1."""
    start = states[0]
    level = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for s in frontier:
            for t in succ[s]:
                if t not in level:
                    level[t] = level[s] + 1
                    nxt.append(t)
        frontier = nxt
    period = 0
    for s in states:
        for t in succ[s]:
            period = gcd(period, level[s] + 1 - level[t])
    return period == 1


# ----------------------------------------------------------------------
# digit expansions
# ----------------------------------------------------------------------

def horner(values, offset=0):
    """Value of digits (least significant first) weighing 2**(i + offset),
    by integer Horner evaluation from the most significant digit."""
    acc = 0
    for v in reversed(values):
        acc = 2 * acc + v
    return acc * Fraction(2) ** offset


def is_non_adjacent(values):
    return all(not (a and b) for a, b in zip(values, values[1:]))


def parse_digit_string(text):
    """(digits least significant first, fractional digit count) of a
    rendering like ``(1001̄0)_2`` or ``(10·01̄)_2``."""
    if not (text.startswith("(") and text.endswith(")_2")):
        raise ValueError(f"not a base-2 rendering: {text!r}")
    body = text[1:-3]
    msd_first = []
    fractional = None
    for ch in body:
        if ch == OVERLINE:
            msd_first[-1] = -msd_first[-1]
        elif ch == "·":
            fractional = len(msd_first)
        else:
            msd_first.append(int(ch))
    places = 0 if fractional is None else len(msd_first) - fractional
    return list(reversed(msd_first)), places


def digit_string_value(text):
    digits, places = parse_digit_string(text)
    return horner(digits, -places)


# ----------------------------------------------------------------------
# word counting and recurrences
# ----------------------------------------------------------------------

def word_counts(table, alphabet, length):
    """[a(0), ..., a(length)]: accepted words of each length, by a forward
    dynamic programme over the states of a deterministic table."""
    state, finals, delta, _ = table
    row = {state: 1}
    counts = []
    for i in range(length + 1):
        counts.append(sum(c for s, c in row.items() if s in finals))
        if i == length:
            break
        nxt = {}
        for s, c in row.items():
            for a in alphabet:
                step = delta.get((s, a))
                if step is not None:
                    nxt[step[0]] = nxt.get(step[0], 0) + c
        row = nxt
    return counts


def recurrence_terms(coefficients, initial_terms, count):
    """First `count` terms of a(n) = c1 a(n-1) + ... + cd a(n-d)."""
    terms = list(initial_terms[:count])
    while len(terms) < count:
        terms.append(sum(c * terms[-1 - i] for i, c in enumerate(coefficients)))
    return terms


# ----------------------------------------------------------------------
# exact linear algebra and the moment constants
# ----------------------------------------------------------------------

def solve(matrix, rhs_rows):
    """X with X @ matrix = rhs for each row vector rhs (Gauss-Jordan over
    Fractions on the transposed system); raises on a singular matrix."""
    n = len(matrix)
    # row-vector equations x M = b  <=>  M^T x^T = b^T
    aug = [[Fraction(matrix[j][i]) for j in range(n)]
           + [Fraction(rhs[i]) for rhs in rhs_rows] for i in range(n)]
    width = len(aug[0])
    for c in range(n):
        pivot = next((r for r in range(c, n) if aug[r][c] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("singular matrix")
        aug[c], aug[pivot] = aug[pivot], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c] != 0:
                f = aug[r][c]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[c])]
    return [[aug[i][n + k] for i in range(n)] for k in range(width - n)]


def _vec_mat(v, m):
    return [sum(v[i] * m[i][j] for i in range(len(v))) for j in range(len(m[0]))]


def _dot_ones(v):
    return sum(v, Fraction(0))


def moments_oracle(states, alphabet, delta):
    """Stationary vector and moment constants of a complete, strongly
    connected, aperiodic transducer, from the fundamental matrix.

    ``delta`` maps (state, letter) to (target, output ints).  With P the
    transition matrix under uniform letters, A_y (A_z) its derivative
    marking the output (input) sum, pi the stationary row vector and
    Z = (I - P + 1 pi)^-1 - 1 pi:

        e  = pi A_y 1
        l_yy = pi A_yy 1 + 2 pi A_y Z A_y 1,   v = l_yy + e - e^2
        l_yz = pi A_yz 1 + pi A_y Z A_z 1 + pi A_z Z A_y 1,
        c  = l_yz - e * pi A_z 1
    """
    n = len(states)
    index = {s: i for i, s in enumerate(states)}
    q = Fraction(1, len(alphabet))

    def zeros():
        return [[Fraction(0)] * n for _ in range(n)]

    P, Ay, Ayy, Az, Ayz = zeros(), zeros(), zeros(), zeros(), zeros()
    for (s, a), (t, out) in delta.items():
        i, j = index[s], index[t]
        h = sum(out)
        P[i][j] += q
        Ay[i][j] += q * h
        Ayy[i][j] += q * h * (h - 1)
        Az[i][j] += q * a
        Ayz[i][j] += q * h * a

    # pi (I - P) = 0 with sum(pi) = 1: replace one equation by the sum
    system = [[(1 if i == j else 0) - P[i][j] for j in range(n)] for i in range(n)]
    for i in range(n):
        system[i][n - 1] = Fraction(1)
    rhs = [Fraction(0)] * (n - 1) + [Fraction(1)]
    pi = solve(system, [rhs])[0]

    fundamental = [[(1 if i == j else 0) - P[i][j] + pi[j] for j in range(n)]
                   for i in range(n)]
    identity = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    inverse = solve(fundamental, identity)  # rows of I @ F^-1
    Z = [[inverse[i][j] - pi[j] for j in range(n)] for i in range(n)]

    col_y = [sum(Ay[i][j] for j in range(n)) for i in range(n)]  # A_y 1
    col_z = [sum(Az[i][j] for j in range(n)) for i in range(n)]  # A_z 1

    def pi_m_z_col(m, col):  # pi M Z col
        row = _vec_mat(_vec_mat(pi, m), Z)
        return sum(r * c for r, c in zip(row, col))

    e = sum(p * c for p, c in zip(pi, col_y))
    lam_z = sum(p * c for p, c in zip(pi, col_z))
    lam_yy = _dot_ones(_vec_mat(pi, Ayy)) + 2 * pi_m_z_col(Ay, col_y)
    lam_yz = (_dot_ones(_vec_mat(pi, Ayz)) + pi_m_z_col(Ay, col_z)
              + pi_m_z_col(Az, col_y))
    return {"pi": dict(zip(states, pi)), "expectation": e,
            "variance": lam_yy + e - e * e, "covariance": lam_yz - e * lam_z}


def shortest_distances(initial, edges):
    """Bellman-Ford distances from `initial` over (source, target, weight)
    edges with no negative cycle reachable."""
    distance = {initial: Fraction(0)}
    for _ in range(len(edges) + 1):
        changed = False
        for u, v, w in edges:
            if u in distance and (v not in distance or distance[u] + w < distance[v]):
                distance[v] = distance[u] + w
                changed = True
        if not changed:
            return distance
    raise ValueError("negative cycle")
