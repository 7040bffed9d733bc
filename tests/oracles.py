"""Independent test oracles: plain arithmetic and exhaustive enumeration,
written without touching the library's algebra so that every dual check
stays a genuine cross-validation.  `contains_word` builds its automaton
state by state (Knuth-Morris-Pratt borders), as test input for the
library's constructions.  `equivalent_by_minimization` decides language
equivalence by its definition through minimal automata, a method
independent of the union-find walk in `automata.is_equivalent`.
`gauss_jordan_solve` is exact elimination over Fractions, the reference
for the library's fraction-free `polynomial.solve_integers`, and `solve`
scales rational rows to integers for that function and divides its
numerators out into the Fractions the tests compare (no library code
needs them); `faddeev_leverrier` computes
characteristic polynomials over the integers, the reference for the
modular `polynomial.charpoly`; `markov_constants` evaluates the
stationary vector and the moment formulas over Fractions, the reference
for the integer weights of `analysis`; `word_counts` and
`recurrence_terms` step one letter or one term at a time, the references
for `count_words` and `Recurrence.term`; `fraction_bellman_ford` relaxes
over Fraction sums, the reference for the integer relaxation of
`analysis.bellman_ford`.  `reference_dumps` writes a machine file through
`json.dumps(..., indent=2)` of its document (`machine_to_doc`), the
reference for the row writer `serialize.dumps`, and
`reference_machine_from_doc` decodes every word letter by letter, the
reference for the memoized reader `serialize.machine_from_doc`.
The `label_*` functions walk the transition graph through adjacency maps
keyed by state label, each built from the transition list: the reference
for the library's SCCs, period test, reachability, trimming, relabeling,
the language enumeration's pruning, the subset construction, the
product of deterministic automata and language equivalence, which walk
state indices or, for the subsets, state ranks in label order.  The subset construction and the
product build their machines through their own label-keyed breadth-first
builder (`_label_explore`), not the library's exploration kernel."""

import json
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product
from math import gcd, lcm

from fsmkit.analysis import terminal_scc
from fsmkit.automata import determinize, minimize
from fsmkit.errors import (AnalysisError, ConstructionError,
                           NegativeCycleError, shown)
from fsmkit.machine import AUTOMATON, Machine, State, Transition
from fsmkit.polynomial import solve_integers
from fsmkit.symbols import (ABSENT, Digit, Pair, digit_value, symbol, word,
                            word_key)


def naf_digits(n):
    """Non-adjacent form of n >= 0 by the classical mod-4 rule, least
    significant digit first, as plain ints."""
    digits = []
    while n:
        if n & 1:
            d = 2 - (n % 4)
            digits.append(d)
            n -= d
        else:
            digits.append(0)
        n //= 2
    return digits


def expansion_value(digits, offset=0):
    return sum(Fraction(d) * Fraction(2) ** (i + offset)
               for i, d in enumerate(digits))


def per_digit_value(letters, offset=0):
    """The value of a word of digit letters by the original per-digit
    method: one growing Fraction, adding each letter's value (the absent
    marker reads 0) times 2**(position + offset)."""
    total = Fraction(0)
    for i, s in enumerate(letters):
        total += Fraction(getattr(s, "value", 0)) * Fraction(2) ** (i + offset)
    return total


def per_digit_string(letters, offset=0):
    """The (1001̄0)_2 rendering of a word of digit letters by the original
    per-digit method: one `digit_value` and one character call per digit,
    with the offset's zeros prepended as a list."""
    e = offset
    values = [digit_value(d) for d in letters]
    if e > 0:
        values = [0] * e + values
        point = 0
    else:
        point = -e
    while len(values) <= point:
        values.append(0)
    rendered = [_digit_char(v) for v in reversed(values)]
    if point:
        integral, fractional = rendered[:-point], rendered[-point:]
        while len(fractional) > 1 and fractional[-1] == "0":
            fractional.pop()
        body = "".join(integral) + "·" + "".join(fractional)
    else:
        body = "".join(rendered) or "0"
    return f"({body})_2"


def _digit_char(v):
    return str(v) if v >= 0 else str(-v) + "̄"


def normalized_digits(digits, offset=0):
    """(digits, offset) with zeros stripped from both ends, as the digit
    function position -> digit; the all-zero expansion normalizes to ((), 0)."""
    digits = list(digits)
    while digits and digits[-1] == 0:
        digits.pop()
    while digits and digits[0] == 0:
        digits.pop(0)
        offset += 1
    return (tuple(digits), offset if digits else 0)


def all_words(values, max_length):
    """Every word over the given letter values with length <= max_length."""
    for length in range(max_length + 1):
        yield from product(values, repeat=length)


def nfa_accepts(machine, letters):
    """Direct nondeterministic acceptance (with epsilon closure), not via
    the library's determinization."""
    def closure(labels):
        todo = list(labels)
        out = set(todo)
        while todo:
            here = todo.pop()
            for t in machine.transitions:
                if t.source == here and not t.input and t.target not in out:
                    out.add(t.target)
                    todo.append(t.target)
        return out

    current = closure(st.label for st in machine.initial_states())
    for a in letters:
        step = {t.target for t in machine.transitions
                if t.source in current and t.input == (a,)}
        current = closure(step)
        if not current:
            return False
    finals = {st.label for st in machine.final_states()}
    return bool(current & finals)


def contains_word(factor, alphabet) -> Machine:
    """Automaton accepting exactly the words containing `factor` as a
    contiguous subword (prefix-matching automaton with an absorbing accept
    state)."""
    factor = word(factor)
    if not factor:
        raise ConstructionError("the factor must not be empty")
    letters = sorted({symbol(a) for a in alphabet}, key=lambda s: s.sort_key())
    for s in factor:
        if s not in letters:
            raise ConstructionError(f"factor symbol {s} outside the alphabet")
    m = len(factor)

    # border[i]: length of the longest proper border of factor[:i]
    border = [0] * (m + 1)
    k = 0
    for i in range(1, m):
        while k and factor[i] != factor[k]:
            k = border[k]
        if factor[i] == factor[k]:
            k += 1
        border[i + 1] = k

    def step(i, a):
        while True:
            if i < m and factor[i] == a:
                return i + 1
            if i == 0:
                return 0
            i = border[i]

    states = tuple(
        State(str(i), is_initial=(i == 0), is_final=(i == m))
        for i in range(m + 1))
    transitions = []
    for i in range(m):
        for a in letters:
            transitions.append(Transition(str(i), str(step(i, a)), (a,)))
    for a in letters:
        transitions.append(Transition(str(m), str(m), (a,)))
    return Machine(AUTOMATON, states, tuple(transitions), alphabet)


def run_deterministic(machine, letters):
    """Run a deterministic machine by scanning its transition list for
    every letter: (accepted, stop label, output word), where the output of
    an accepting run ends with the stop state's final output."""
    here = next(st for st in machine.states if st.is_initial)
    output = ()
    for a in letters:
        moves = [t for t in machine.transitions
                 if t.source == here.label and t.input == (a,)]
        if not moves:
            return False, here.label, output
        (move,) = moves
        output += move.output
        here = next(st for st in machine.states if st.label == move.target)
    if here.is_final:
        return True, here.label, output + here.final_output
    return False, here.label, output


def dp_stats(machine, k, include_final=True):
    """Exact statistics of the output sum S and input sum T over all
    |alphabet|**k input words of length k, by dynamic programming over
    states (an exhaustive enumeration, reorganized).

    Returns (N, E[S], E[T], Var[S], Cov[S,T]) with exact rationals."""
    letters = machine.input_alphabet
    step = {(t.source, t.input[0]): t for t in machine.transitions}
    init = machine.initial_states()[0].label
    acc = {init: [1, 0, 0, 0, 0]}  # count, sum S, sum T, sum S^2, sum S*T
    for _ in range(k):
        nxt = {}
        for label, (c, s1, t1, s2, st) in acc.items():
            for a in letters:
                tr = step[(label, a)]
                h = sum(s.value for s in tr.output)
                g = a.value
                cell = nxt.setdefault(tr.target, [0, 0, 0, 0, 0])
                cell[0] += c
                cell[1] += s1 + h * c
                cell[2] += t1 + g * c
                cell[3] += s2 + 2 * h * s1 + h * h * c
                cell[4] += st + g * s1 + h * t1 + g * h * c
        acc = nxt
    total = [0, 0, 0, 0, 0]
    for label, (c, s1, t1, s2, st) in acc.items():
        state = machine.state(label)
        assert state.is_final, "every run must accept for these statistics"
        f = sum(s.value for s in state.final_output) if include_final else 0
        total[0] += c
        total[1] += s1 + f * c
        total[2] += t1
        total[3] += s2 + 2 * f * s1 + f * f * c
        total[4] += st + f * t1
    n, s1, t1, s2, st = total
    mean_s = Fraction(s1, n)
    mean_t = Fraction(t1, n)
    var_s = Fraction(s2, n) - mean_s * mean_s
    cov = Fraction(st, n) - mean_s * mean_t
    return n, mean_s, mean_t, var_s, cov


def visit_frequencies(machine, k):
    """Expected fraction of the first k steps spent in each state, over
    uniformly random inputs of length k; exact rationals by state label."""
    letters = machine.input_alphabet
    q = len(letters)
    step = {(t.source, t.input[0]): t.target for t in machine.transitions}
    init = machine.initial_states()[0].label
    counts = {init: 1}
    visits = {st.label: 0 for st in machine.states}
    for i in range(1, k + 1):
        nxt = {}
        for label, c in counts.items():
            for a in letters:
                target = step[(label, a)]
                nxt[target] = nxt.get(target, 0) + c
        counts = nxt
        weight = q ** (k - i)  # completions of this prefix
        for label, c in counts.items():
            visits[label] += c * weight
    total = Fraction(q) ** k * k
    return {label: Fraction(v) / total for label, v in visits.items()}


@dataclass(frozen=True)
class ExponentMatrix:
    """Adjacency matrix with entries sum_h coeff * y^h stored as finite
    exponent -> coefficient maps; entry (k, l) collects 1/q * y^(output
    sum) for every transition from state k to state l."""

    state_labels: tuple
    entries: tuple  # n x n nested tuples of dict {exponent: Fraction}

    def at_one(self):
        """Evaluate at y = 1: the transition probability matrix."""
        return [[sum(cell.values(), Fraction(0)) for cell in row]
                for row in self.entries]


def exponent_adjacency_matrix(machine):
    """The marked adjacency matrix of a complete transducer with digit
    outputs, built directly from its transitions."""
    labels = tuple(st.label for st in machine.states)
    index = {label: i for i, label in enumerate(labels)}
    q = Fraction(1, len(machine.input_alphabet))
    cells = [[{} for _ in labels] for _ in labels]
    for t in machine.transitions:
        cell = cells[index[t.source]][index[t.target]]
        h = sum(s.value for s in t.output)
        cell[h] = cell.get(h, Fraction(0)) + q
    return ExponentMatrix(labels, tuple(tuple(row) for row in cells))


def _determinant(m):
    """Leibniz expansion over all permutations (small matrices only)."""
    total = 0
    for perm in permutations(range(len(m))):
        inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])
        term = -1 if inversions % 2 else 1
        for row, col in enumerate(perm):
            term *= m[row][col]
        total += term
    return total


def rank(matrix):
    """Order of the largest nonzero minor, found by determinant expansion
    rather than elimination, so it checks the library's elimination."""
    n_rows, n_cols = len(matrix), len(matrix[0]) if matrix else 0
    for k in range(min(n_rows, n_cols), 0, -1):
        for rows in combinations(range(n_rows), k):
            for cols in combinations(range(n_cols), k):
                if _determinant([[matrix[r][c] for c in cols] for r in rows]):
                    return k
    return 0


def equivalent_by_minimization(a, b):
    """Language equivalence by the definition: the canonically relabeled
    minimal complete automata of the two arguments are equal."""
    return minimize(a) == minimize(b)


def gauss_jordan_solve(matrix, columns):
    """The solutions x of M x = b, one for each right-hand side b in
    `columns`, by Gauss-Jordan elimination over Fractions, with a gcd in
    every operation; a singular M raises AnalysisError with the library's
    message."""
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


def solve(matrix, columns):
    """`polynomial.solve_integers`' solutions as Fractions, the form that
    `gauss_jordan_solve` returns.  Each rational row, with its entries of
    the right-hand sides, is first scaled to integers by the lcm of its
    denominators, since the library solve takes integers only."""
    scales = [lcm(*(Fraction(x).denominator
                    for x in [*matrix[i], *(b[i] for b in columns)]))
              for i in range(len(matrix))]
    numerators, d = solve_integers(
        [[int(x * s) for x in row] for row, s in zip(matrix, scales)],
        [[int(x * s) for x, s in zip(b, scales)] for b in columns])
    return [[Fraction(x, d) for x in column] for column in numerators]


def faddeev_leverrier(matrix):
    """Coefficients [1, c1, ..., cn] of det(x*I - M) for an integer matrix
    M by the Faddeev-LeVerrier recurrence over the integers: every
    coefficient of an integer matrix is an integer, so each division by k
    is exact."""
    n = len(matrix)
    coeffs = [1]
    work = [[0] * n for _ in range(n)]  # starts as the zero matrix
    for k in range(1, n + 1):
        # work <- M * (work + c_{k-1} * I)
        for i in range(n):
            work[i][i] += coeffs[-1]
        work = [[sum(row[m] * work[m][j] for m in range(n)) for j in range(n)]
                for row in matrix]
        coeffs.append(-sum(work[i][i] for i in range(n)) // k)
    return coeffs


def _digit_total(w):
    return sum(s.value for s in w)


def markov_constants(t):
    """The stationary vector of the terminal component (label -> Fraction)
    and the moment constants (e, v, c) of a complete transducer with
    digit inputs and outputs, over Fractions: pi solves pi (P - I) = 0
    with its entries summing to 1, and Z b is (I - P + 1 pi)^-1 b -
    (pi b) 1, in the formulas of the `analysis` module docstring."""
    reachable = t.accessible()
    scc = terminal_scc(reachable)
    labels = [st.label for st in reachable.states if st.label in scc]
    index = {label: i for i, label in enumerate(labels)}
    n = len(labels)
    q = Fraction(1, len(t.input_alphabet))
    P = [[Fraction(0)] * n for _ in range(n)]
    a_y, a_z, a_yy, a_yz = ([[Fraction(0)] * n for _ in range(n)]
                            for _ in range(4))
    for tr in reachable.transitions:
        if tr.source in scc:
            i, j = index[tr.source], index[tr.target]
            h, g = _digit_total(tr.output), _digit_total(tr.input)
            P[i][j] += q
            a_y[i][j] += q * h
            a_z[i][j] += q * g
            a_yy[i][j] += q * h * (h - 1)
            a_yz[i][j] += q * h * g
    # (P - I)^T pi^T = 0 with the last equation replaced by sum(pi) = 1
    system = [[P[j][i] - (i == j) for j in range(n)] for i in range(n - 1)]
    system.append([Fraction(1)] * n)
    (pi,) = gauss_jordan_solve(system, [[Fraction(0)] * (n - 1) + [1]])

    def times(m, x):
        return [sum(a * b for a, b in zip(row, x)) for row in m]

    def dot(x, y):
        return sum(a * b for a, b in zip(x, y))

    ones = [Fraction(1)] * n
    shifted = [[(i == j) - P[i][j] + pi[j] for j in range(n)]
               for i in range(n)]

    def fundamental(b):
        (x,) = gauss_jordan_solve(shifted, [b])
        mean = dot(pi, b)
        return [a - mean for a in x]

    a_y1, a_z1 = times(a_y, ones), times(a_z, ones)
    pi_a_y = [dot(pi, [a_y[i][j] for i in range(n)]) for j in range(n)]
    pi_a_z = [dot(pi, [a_z[i][j] for i in range(n)]) for j in range(n)]
    z_a_y, z_a_z = fundamental(a_y1), fundamental(a_z1)
    e, lam_z = dot(pi, a_y1), dot(pi, a_z1)
    lam_yy = dot(pi, times(a_yy, ones)) + 2 * dot(pi_a_y, z_a_y)
    lam_yz = (dot(pi, times(a_yz, ones)) + dot(pi_a_y, z_a_z)
              + dot(pi_a_z, z_a_y))
    return (dict(zip(labels, pi)),
            (e, lam_yy + e - e * e, lam_yz - e * lam_z))


def word_counts(automaton, n):
    """Numbers of accepted words of lengths 0..n: the number of words
    leading to each state of the determinized automaton, stepped one
    letter at a time by scanning its transition list."""
    d = automaton if automaton.is_deterministic() else determinize(automaton)
    finals = {st.label for st in d.states if st.is_final}
    here = {st.label: 1 for st in d.states if st.is_initial}
    counts = []
    for _ in range(n + 1):
        counts.append(sum(k for label, k in here.items() if label in finals))
        step = {}
        for t in d.transitions:
            if t.source in here:
                step[t.target] = step.get(t.target, 0) + here[t.source]
        here = step
    return counts


def recurrence_terms(coefficients, initial_terms, n):
    """Terms a(0)..a(n) of a(k) = c1 a(k-1) + ... + cd a(k-d), extending
    the given terms one at a time."""
    terms = list(initial_terms)
    while len(terms) <= n:
        terms.append(sum(c * terms[-i]
                         for i, c in enumerate(coefficients, 1)))
    return terms[:n + 1]


def fraction_bellman_ford(g, source):
    """Shortest-path distances and predecessors from `source` over the
    weighted digraph `g`, relaxing every edge in its listed order with
    Fraction sums and a strict `<`, |V| - 1 rounds at most; a negative
    cycle reachable from the source raises NegativeCycleError with the
    cycle read back through the predecessors.  The edges are assumed
    valid (`analysis.bellman_ford` checks them first)."""
    distance = {source: Fraction(0)}
    predecessor = {}
    for _ in range(max(len(g.vertices) - 1, 0)):
        changed = False
        for u, v, w in g.edges:
            if u not in distance:
                continue
            candidate = distance[u] + w
            if v not in distance or candidate < distance[v]:
                distance[v] = candidate
                predecessor[v] = u
                changed = True
        if not changed:
            break
    else:
        for u, v, w in g.edges:
            if u in distance and distance[u] + w < distance[v]:
                predecessor[v] = u
                x = v
                for _ in range(len(g.vertices)):
                    x = predecessor[x]
                cycle = [x, predecessor[x]]
                while cycle[-1] != x:
                    cycle.append(predecessor[cycle[-1]])
                cycle.reverse()
                raise NegativeCycleError(cycle)
    return distance, predecessor


def encode_symbol(s):
    """The JSON value of a symbol: a digit's integer, "~" for the absent
    marker, a pair's two-element array."""
    if isinstance(s, Digit):
        return s.value
    if s is ABSENT:
        return "~"
    assert isinstance(s, Pair), s
    return [encode_symbol(s.left), encode_symbol(s.right)]


def encode_word(w):
    return [encode_symbol(s) for s in w]


def machine_to_doc(m):
    """The JSON document of a machine file: states sorted by label and
    transitions by (source, target, input, output), each word keyed by
    `word_key`, independently of how `machine._listing` sorts them."""
    states = sorted(m.states, key=lambda st: st.label)
    transitions = sorted(m.transitions, key=lambda t: (
        t.source, t.target, word_key(t.input), word_key(t.output)))
    doc = {
        "kind": m.kind,
        "alphabet": encode_word(m.input_alphabet),
    }
    if m.output_alphabet is not None:
        doc["output_alphabet"] = encode_word(m.output_alphabet)
    doc["states"] = [
        {
            "label": st.label,
            "initial": st.is_initial,
            "final": st.is_final,
            "final_output": encode_word(st.final_output),
        }
        for st in states
    ]
    doc["transitions"] = [
        {
            "from": t.source,
            "to": t.target,
            "input": encode_word(t.input),
            "output": encode_word(t.output),
        }
        for t in transitions
    ]
    return doc


def reference_dumps(m):
    """The machine file of m through the standard library's encoder."""
    return json.dumps(machine_to_doc(m), indent=2) + "\n"


# The machine-file reader as it was before it decoded each distinct word
# once: one decode_symbol call per letter of every row.

def _reference_decode_symbol(x):
    if isinstance(x, bool):
        raise ConstructionError("booleans are not symbols")
    if isinstance(x, int):
        return Digit(x)
    if x == "~":
        return ABSENT
    if isinstance(x, list) and len(x) == 2:
        return Pair(_reference_decode_symbol(x[0]),
                    _reference_decode_symbol(x[1]))
    raise ConstructionError(f"cannot decode symbol {shown(x)}")


def _reference_decode_word(x):
    if not isinstance(x, list):
        raise ConstructionError(f"a word must be an array, got {shown(x)}")
    return tuple(_reference_decode_symbol(s) for s in x)


def _reference_typed(row, field, kind):
    value = row[field]
    if not isinstance(value, kind):
        expected = "boolean" if kind is bool else "string"
        raise ConstructionError(
            f"field {field!r} must be a JSON {expected}, got {shown(value)}")
    return value


def reference_machine_from_doc(doc):
    """The machine of a parsed machine file, or the ConstructionError
    that refuses it, decoding every word of every row letter by letter."""
    try:
        kind = doc["kind"]
        alphabet = [_reference_decode_symbol(s) for s in doc["alphabet"]]
        out_alphabet = None
        if "output_alphabet" in doc:
            out_alphabet = [_reference_decode_symbol(s)
                            for s in doc["output_alphabet"]]
        states = tuple(
            State(
                label=_reference_typed(row, "label", str),
                is_initial=_reference_typed(row, "initial", bool),
                is_final=_reference_typed(row, "final", bool),
                final_output=_reference_decode_word(
                    row.get("final_output", [])),
            )
            for row in doc["states"]
        )
        transitions = tuple(
            Transition(
                source=_reference_typed(row, "from", str),
                target=_reference_typed(row, "to", str),
                input=_reference_decode_word(row["input"]),
                output=_reference_decode_word(row["output"]),
            )
            for row in doc["transitions"]
        )
    except (KeyError, TypeError) as exc:
        raise ConstructionError(f"malformed machine document: {exc}") from exc
    return Machine(kind, states, transitions, alphabet, out_alphabet)


# ----------------------------------------------------------------------
# label-keyed graph walks: each builds its own adjacency keyed by state
# label from the transition list, the reference for the library's walks
# over state indices
# ----------------------------------------------------------------------

def _bfs_levels(starts, neighbours) -> dict:
    """Breadth-first distance of every vertex reachable from `starts`, in
    discovery order; `neighbours(v)` iterates the vertices one step from v."""
    level = dict.fromkeys(starts, 0)
    queue = deque(level)
    while queue:
        here = queue.popleft()
        step = level[here] + 1
        for v in neighbours(here):
            if v not in level:
                level[v] = step
                queue.append(v)
    return level


def label_successors(m):
    succ = {st.label: set() for st in m.states}
    for t in m.transitions:
        succ[t.source].add(t.target)
    return succ


def label_sccs(m):
    """SCCs of the transition graph (iterative Tarjan, successors in label
    order), as a list of label sets."""
    succ = label_successors(m)
    index = {}
    low = {}
    on_stack = set()
    stack = []
    components = []
    counter = [0]

    for root in succ:
        if root in index:
            continue
        work = [(root, iter(sorted(succ[root])))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for child in it:
                if child not in index:
                    index[child] = low[child] = counter[0]
                    counter[0] += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(sorted(succ[child]))))
                    advanced = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], index[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                component = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == node:
                        break
                components.append(component)
    return components


def label_terminal_sccs(m):
    """All strongly connected components without outgoing edges."""
    succ = label_successors(m)
    return [component for component in label_sccs(m)
            if all(target in component
                   for label in component for target in succ[label])]


def label_terminal_scc(m):
    """The unique terminal SCC; several terminal components raise."""
    terminals = label_terminal_sccs(m)
    if len(terminals) != 1:
        listing = "; ".join(
            "{" + ",".join(sorted(c)) + "}" for c in terminals)
        raise AnalysisError(
            f"expected a unique terminal strongly connected component, "
            f"found {len(terminals)}: {listing}")
    return terminals[0]


def label_is_aperiodic(m, scc):
    """gcd of cycle lengths inside a strongly connected component equals
    1, from breadth-first level differences."""
    succ = label_successors(m)
    scc = set(scc)
    level = _bfs_levels([min(scc)],
                        lambda here: scc.intersection(succ[here]))
    period = 0
    for label in scc:
        for target in succ[label]:
            if target in scc:
                period = gcd(period, level[label] + 1 - level[target])
    return period == 1


def _label_restrict(m, keep):
    states = tuple(st for st in m.states if st.label in keep)
    transitions = tuple(t for t in m.transitions
                        if t.source in keep and t.target in keep)
    return Machine(m.kind, states, transitions,
                   m.input_alphabet, m.output_alphabet)


def label_accessible(m):
    """Restrict to states reachable from the initial states."""
    succ = {st.label: [] for st in m.states}
    for t in m.transitions:
        succ[t.source].append(t.target)
    return _label_restrict(m, _bfs_levels(
        (st.label for st in m.initial_states()), succ.__getitem__))


def label_coaccessible(m):
    """Restrict to states from which some final state is reachable."""
    rev = {st.label: [] for st in m.states}
    for t in m.transitions:
        rev[t.target].append(t.source)
    return _label_restrict(m, _bfs_levels(
        (st.label for st in m.final_states()), rev.__getitem__))


def label_trim(m):
    """The coaccessible part of the accessible part, as two machines."""
    return label_coaccessible(label_accessible(m))


def label_relabeled(m):
    """States renamed 0..n-1 breadth-first from the initial states,
    following transitions in canonical (input, output) order; unreachable
    states keep their relative order at the end."""
    index = {st.label: i for i, st in enumerate(m.states)}
    by_label = {st.label: st for st in m.states}
    outgoing = {st.label: [] for st in m.states}
    for t in sorted(m.transitions,
                    key=lambda t: (word_key(t.input), word_key(t.output),
                                   index[t.target])):
        outgoing[t.source].append(t.target)
    reached = _bfs_levels((st.label for st in m.initial_states()),
                          outgoing.__getitem__)
    order = list(reached)
    order += [st.label for st in m.states if st.label not in reached]
    mapping = {old: str(i) for i, old in enumerate(order)}
    states = tuple(
        State(mapping[old], by_label[old].is_initial,
              by_label[old].is_final, by_label[old].final_output)
        for old in order)
    transitions = tuple(
        Transition(mapping[t.source], mapping[t.target], t.input, t.output)
        for t in m.transitions)
    return Machine(m.kind, states, transitions,
                   m.input_alphabet, m.output_alphabet)


def _label_explore(alphabet, start, successors, name, is_final):
    """The automaton found breadth-first from the key `start`, keyed by
    the label each key is given: `successors(key)` yields (letter, target
    key) in the order the moves are listed, and a key is named `name(key)`
    when it is first met, or, when a state already holds that label, by
    the first "#k" suffix (k = 1, 2, ...) no state holds.  States are
    listed in discovery order, the start alone initial."""
    label_of, taken = {}, set()
    queue = deque()

    def meet(key):
        if key not in label_of:
            base = label = name(key)
            k = 0
            while label in taken:
                k += 1
                label = f"{base}#{k}"
            label_of[key] = label
            taken.add(label)
            queue.append(key)
        return label_of[key]

    meet(start)
    met, transitions = [], []
    while queue:
        key = queue.popleft()
        met.append(key)
        for letter, target in successors(key):
            transitions.append(Transition(label_of[key], meet(target),
                                          (letter,)))
    states = [State(label_of[key], key == start, is_final(key))
              for key in met]
    return Machine(AUTOMATON, states, transitions, alphabet)


def label_determinize(a):
    """The subset construction on subsets of state labels: each state's
    epsilon closure and, per letter, the union of the closures of its
    targets, keyed by label; a subset is named by its sorted member
    labels."""
    finals = {st.label for st in a.final_states()}
    epsilons = {st.label: [] for st in a.states}
    for t in a.transitions:
        if not t.input:
            epsilons[t.source].append(t.target)
    closure = {label: frozenset(_bfs_levels([label], epsilons.__getitem__))
               for label in epsilons}
    by_letter = {letter: {label: set() for label in epsilons}
                 for letter in a.input_alphabet}
    for t in a.transitions:
        if t.input:
            by_letter[t.input[0]][t.source] |= closure[t.target]

    def successors(subset):
        for letter, row in by_letter.items():
            move = frozenset().union(*map(row.__getitem__, subset))
            if move:
                yield letter, move

    start = frozenset().union(
        *(closure[st.label] for st in a.initial_states()))
    return _label_explore(a.input_alphabet, start, successors,
                          lambda subset: "{" + ",".join(sorted(subset)) + "}",
                          lambda subset: bool(subset & finals))


def label_product(a, b):
    """The product of two deterministic automata over moves keyed by state
    label: from the pair of initial labels, a pair moves on each letter
    both states move on, in alphabet order, and is final when both states
    are; the pair (x, y) is named "(x,y)"."""
    def moves(m):
        table = {st.label: {} for st in m.states}
        for t in m.transitions:
            table[t.source][t.input[0]] = t.target
        return table

    one, two = moves(a), moves(b)
    finals = {(x.label, y.label)
              for x in a.final_states() for y in b.final_states()}

    def successors(pair):
        for letter in a.input_alphabet:
            x, y = one[pair[0]].get(letter), two[pair[1]].get(letter)
            if x is not None and y is not None:
                yield letter, (x, y)

    start = (a.initial_states()[0].label, b.initial_states()[0].label)
    return _label_explore(a.input_alphabet, start, successors,
                          lambda pair: f"({pair[0]},{pair[1]})",
                          lambda pair: pair in finals)


def label_equivalent(a, b):
    """Language equivalence of two automata by a breadth-first walk of
    the label pairs of `label_determinize(a)` and `label_determinize(b)`
    over moves keyed by label, None standing for the sink on either side
    (a missing move goes there and stays): False at the first pair whose
    finality differs.  No step view or target table is read."""
    sides = []
    for d in (label_determinize(a), label_determinize(b)):
        moves = {(t.source, t.input[0]): t.target for t in d.transitions}
        finals = {st.label for st in d.final_states()}
        sides.append((moves, finals, d.initial_states()[0].label))
    (moves_a, finals_a, start_a), (moves_b, finals_b, start_b) = sides
    seen = {(start_a, start_b)}
    queue = deque(seen)
    while queue:
        x, y = queue.popleft()
        if (x in finals_a) != (y in finals_b):
            return False
        for letter in a.input_alphabet:
            pair = (moves_a.get((x, letter)), moves_b.get((y, letter)))
            if pair not in seen:
                seen.add(pair)
                queue.append(pair)
    return True


def reference_columns(m):
    """The step view of the deterministic machine m, walked from its
    transition list by label, with no step table: the initial state's
    index and, per letter in alphabet order, one entry per state, its
    (target index, output word) on that letter or None."""
    index = {st.label: i for i, st in enumerate(m.states)}
    moves = {(t.source, t.input[0]): (index[t.target], t.output)
             for t in m.transitions}
    start = index[m.initial_states()[0].label]
    return start, {letter: [moves.get((st.label, letter)) for st in m.states]
                   for letter in m.input_alphabet}


def label_language(a, max_length):
    """Accepted words of length <= max_length in shortlex order, pruned by
    each deterministic state's distance to a final state over the step
    view's columns read backward."""
    d = a if a.is_deterministic() else determinize(a)
    start, columns = d._steps()
    rev = [[] for _ in d.states]
    for column in columns.values():
        for i, step in enumerate(column):
            if step is not None:
                rev[step[0]].append(i)
    dist = _bfs_levels((i for i, st in enumerate(d.states) if st.is_final),
                       rev.__getitem__)
    for length in range(max_length + 1):
        stack = [(start, ())]
        while stack:
            here, prefix = stack.pop()
            remaining = length - len(prefix)
            if dist.get(here, remaining + 1) > remaining:
                continue
            if remaining == 0:
                if d.states[here].is_final:
                    yield prefix
                continue
            for letter in reversed(d.input_alphabet):
                step = columns[letter][here]
                if step is not None:
                    stack.append((step[0], prefix + (letter,)))
