"""Exact-arithmetic analyses over machines.

Bellman-Ford shortest paths certify that a transducer never increases a
weight (expansion minimality); the marked adjacency matrix of a complete
transducer yields the stationary distribution, the expected output density
and the linear-growth constants of expectation, variance and covariance of
the output sum under uniformly random inputs of a fixed length.  Every
value is an exact rational.

The moment constants come from the dominant eigenvalue lam(y) of the
adjacency matrix A(y) marked with y^(output sum) on the terminal strongly
connected component: with p(lam, y) = det(lam*I - A(y)) and implicit
differentiation at (1, 1),

    e = lam'(1)  = -p_y / p_lam,
    lam''(1)     = -(p_yy + 2 p_ylam e + p_lamlam e^2) / p_lam,
    v = lam''(1) + lam'(1) - lam'(1)^2,

and with a second marker z^(input sum), c = lam_yz - lam_y * lam_z.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import AnalysisError, MachineError, NegativeCycleError
from .machine import Machine, WeightedDigraph, bfs_levels
from .polynomial import MPoly, charpoly
from .symbols import Digit

# ----------------------------------------------------------------------
# shortest paths
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ShortestPaths:
    source: str
    distance: dict  # label -> Fraction, reachable states only
    predecessor: dict  # label -> label, witness tree


def bellman_ford(g: WeightedDigraph, source) -> ShortestPaths:
    """Exact shortest-path distances from `source`, negative weights
    allowed; a negative cycle reachable from the source raises
    NegativeCycleError carrying a witness cycle."""
    if source not in g.vertices:
        raise AnalysisError(f"source {source!r} is not a vertex")
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
                # walk back far enough to land on the cycle, then read it off
                predecessor[v] = u
                x = v
                for _ in range(len(g.vertices)):
                    x = predecessor[x]
                cycle = [x]
                y = predecessor[x]
                while y != x:
                    cycle.append(y)
                    y = predecessor[y]
                cycle.append(x)
                cycle.reverse()
                raise NegativeCycleError(cycle)
    return ShortestPaths(source, distance, predecessor)


def check_minimality(t: Machine, weight_fn) -> tuple:
    """Weight every transition with weight_fn, run Bellman-Ford from the
    initial state and report whether all distances are nonnegative (then
    no input can beat the output's weight)."""
    initials = t.initial_states()
    if len(initials) != 1:
        raise MachineError("minimality check needs exactly one initial state")
    paths = bellman_ford(t.digraph(weight_fn), initials[0].label)
    flag = all(d >= 0 for d in paths.distance.values())
    return flag, paths


# ----------------------------------------------------------------------
# graph structure guards
# ----------------------------------------------------------------------

def _successors(m: Machine):
    succ = {st.label: set() for st in m.states}
    for t in m.transitions:
        succ[t.source].add(t.target)
    return succ


def strongly_connected_components(m: Machine):
    """SCCs of the transition graph (iterative Tarjan), as a list of sets."""
    succ = _successors(m)
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


def terminal_sccs(m: Machine):
    """All strongly connected components without outgoing edges."""
    succ = _successors(m)
    result = []
    for component in strongly_connected_components(m):
        if all(target in component
               for label in component for target in succ[label]):
            result.append(component)
    return result


def terminal_scc(m: Machine) -> set:
    """The unique terminal SCC; several terminal components raise."""
    terminals = terminal_sccs(m)
    if len(terminals) != 1:
        listing = "; ".join(
            "{" + ",".join(sorted(c)) + "}" for c in terminals)
        raise AnalysisError(
            f"expected a unique terminal strongly connected component, "
            f"found {len(terminals)}: {listing}")
    return terminals[0]


def is_aperiodic(m: Machine, scc) -> bool:
    """gcd of cycle lengths inside the component equals 1, computed from
    breadth-first level differences."""
    scc = set(scc)
    if not scc:
        raise AnalysisError("the component must not be empty")
    succ = _successors(m)
    level = bfs_levels([min(scc)], lambda here: scc.intersection(succ[here]))
    period = 0
    for label in scc:
        for target in succ[label]:
            if target in scc:
                period = gcd(period, level[label] + 1 - level[target])
    return period == 1


def _digit_sum(w, role: str) -> int:
    """Sum of a word of digits; `role` ("input" or "output") names the
    word when a letter is not a digit."""
    total = 0
    for s in w:
        if not isinstance(s, Digit):
            raise AnalysisError(f"{role} sums need digit {role}s, found {s}")
        total += s.value
    return total


# ----------------------------------------------------------------------
# stationary distribution and densities
# ----------------------------------------------------------------------

def _left_kernel(matrix):
    """Basis of {x : x^T M = 0} by exact Gaussian elimination on M^T."""
    n = len(matrix)
    rows = [[matrix[j][i] for j in range(n)] for i in range(n)]  # M^T
    pivots = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, n) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * n
        vec[f] = Fraction(1)
        for i, c in enumerate(pivots):
            vec[c] = -rows[i][f]
        basis.append(vec)
    return basis


def _terminal_component(t: Machine):
    """Reachable part, its unique terminal SCC, and the SCC state order."""
    reachable = t.accessible()
    scc = terminal_scc(reachable)
    labels = [st.label for st in reachable.states if st.label in scc]
    return reachable, scc, labels


def stationary_distribution(t: Machine):
    """The probability row vector fixed by the transition matrix on the
    terminal SCC (solved exactly as a kernel of A(1)^T - I), extended by
    zeros on transient states; entries are exact rationals summing to 1."""
    if not t.is_complete():
        raise MachineError(
            "the stationary distribution needs a complete deterministic machine")
    reachable, scc, labels = _terminal_component(t)
    index = {label: i for i, label in enumerate(labels)}
    q = Fraction(1, len(t.input_alphabet))
    P = [[Fraction(0)] * len(labels) for _ in labels]
    for tr in reachable.transitions:
        if tr.source in scc:
            P[index[tr.source]][index[tr.target]] += q
    for i in range(len(labels)):
        P[i][i] -= 1
    basis = _left_kernel(P)
    if len(basis) != 1:
        raise AnalysisError(
            f"the stationary distribution is not unique "
            f"(kernel dimension {len(basis)})")
    vec = basis[0]
    total = sum(vec, Fraction(0))
    if total == 0:
        raise AnalysisError("degenerate stationary vector")
    vec = [x / total for x in vec]
    return tuple(vec[index[st.label]] if st.label in scc else Fraction(0)
                 for st in t.states)


def expected_density(t: Machine) -> Fraction:
    """Linear-growth constant of the mean output sum: the stationary
    vector dotted with the expected per-state output."""
    v = stationary_distribution(t)
    q = Fraction(1, len(t.input_alphabet))
    per_state = {st.label: Fraction(0) for st in t.states}
    for tr in t.transitions:
        per_state[tr.source] += q * _digit_sum(tr.output, "output")
    return sum((vi * per_state[st.label] for vi, st in zip(v, t.states)),
               Fraction(0))


# ----------------------------------------------------------------------
# asymptotic moments
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class MomentsResult:
    """Linear-growth constants: the mean output sum is e*k + O(1), its
    variance v*k + O(1) and the output/input covariance c*k + O(1), under
    the uniform distribution on all input words of length k."""

    expectation: Fraction
    variance: Fraction
    covariance: Fraction


def asymptotic_moments(t: Machine) -> MomentsResult:
    if not t.is_complete():
        raise MachineError(
            "asymptotic moments need a complete deterministic machine")
    reachable, scc, labels = _terminal_component(t)
    if not is_aperiodic(reachable, scc):
        raise AnalysisError("the terminal component is periodic")
    index = {label: i for i, label in enumerate(labels)}
    n = len(labels)
    q = Fraction(1, len(t.input_alphabet))

    # B[i][j] = (1/q_alphabet) * y^(output sum) * z^(input sum), in the
    # ring Q[lam, y, z] with lam unused so charpoly can mix them in.
    zero = MPoly(3, {})
    B = [[zero] * n for _ in range(n)]
    for tr in reachable.transitions:
        if tr.source not in scc:
            continue
        if tr.target not in scc:
            raise AnalysisError("terminal component has an outgoing edge")
        h = _digit_sum(tr.output, "output")
        g = _digit_sum(tr.input, "input")
        mono = MPoly(3, {(0, h, g): q})
        i, j = index[tr.source], index[tr.target]
        B[i][j] = B[i][j] + mono

    coeffs = charpoly(B, zero=zero, one=MPoly.const(3, 1))
    p = MPoly(3, {})
    for k, ck in enumerate(coeffs):
        p = p + ck * MPoly.var(3, 0, power=n - k)

    one = (Fraction(1), Fraction(1), Fraction(1))
    p_lam = p.diff(0)
    p_y = p.diff(1)
    p_z = p.diff(2)
    d_lam = p_lam.eval(one)
    if d_lam == 0:
        raise AnalysisError("the eigenvalue 1 is not simple")
    e = -p_y.eval(one) / d_lam
    lam_z = -p_z.eval(one) / d_lam

    p_yy = p_y.diff(1).eval(one)
    p_ylam = p_y.diff(0).eval(one)
    p_lamlam = p_lam.diff(0).eval(one)
    lam_yy = -(p_yy + 2 * p_ylam * e + p_lamlam * e * e) / d_lam
    variance = lam_yy + e - e * e

    p_yz = p_y.diff(2).eval(one)
    p_zlam = p_z.diff(0).eval(one)
    lam_yz = -(p_lamlam * e * lam_z + p_zlam * e + p_ylam * lam_z + p_yz) / d_lam
    covariance = lam_yz - e * lam_z

    return MomentsResult(e, variance, covariance)
