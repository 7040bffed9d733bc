"""Exact-arithmetic analyses over machines.

The graph guards (Tarjan's SCCs, the terminal ones, the period test) walk
state indices over `Machine._edges` and report states by label.
Bellman-Ford shortest paths certify that a transducer never increases a
weight (expansion minimality); they relax over the weights scaled to ints
by their common denominator, so only the distances become Fractions.  The
marked adjacency matrix of a complete transducer yields the stationary
distribution, the expected output density and the linear-growth constants
of expectation, variance and covariance of the output sum under uniformly
random inputs of a fixed length.  Every value is an exact rational.

The moment constants come from the dominant eigenvalue lam(y, z) = 1 at
y = z = 1 of the adjacency matrix A(y, z) of the terminal strongly
connected component, marked with y^(output sum) * z^(input sum) and
weighted by the input probability.  With P = A(1, 1), its stationary row
vector pi and the fundamental matrix Z = (I - P + 1 pi)^-1 - 1 pi, the
second-order perturbation formulas for a simple eigenvalue give

    e      = lam_y  = pi A_y 1,            lam_z = pi A_z 1,
    lam_yy = pi A_yy 1 + 2 pi A_y Z A_y 1,
    lam_yz = pi A_yz 1 + pi A_y Z A_z 1 + pi A_z Z A_y 1,
    v = lam_yy + e - e^2,                  c = lam_yz - e * lam_z.

Z b is the z with (I - P) z = b - (pi b) 1 and pi z = 0 (Meyer, "The role
of the group generalized inverse in the theory of finite Markov chains",
SIAM Review 17, 1975), so I - P + 1 pi is never formed.  Both pi and Z b
come from one integer matrix, kept with the terminal chain: with C =
|input alphabet| * P the count matrix and B = |input alphabet| * I - C
less its last row and column, pi solves B^T h = (C's last row less its
last entry), and the Z b follow from one solve of B with the integer
right-hand sides |input alphabet| * A_y 1, |input alphabet| * A_z 1 and
|input alphabet| * 1, each less its last entry.  Everything stays over
the integers: pi is kept as integer weights w over D = sum(w), the
solves take integers and return numerators over one pivot, and the sums
above are integers over known denominators, so only the results are
formed as Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from math import gcd, lcm

from .errors import AnalysisError, MachineError, NegativeCycleError, shown
from .machine import Machine, WeightedDigraph, _require_machine, bfs_levels
from .polynomial import solve_integers
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
    NegativeCycleError carrying a witness cycle.  An edge must join two
    vertices and weigh an int or a Fraction (not a bool), or AnalysisError
    names it; unhashable vertices and malformed edges raise it too.

    The relaxation (Bellman, "On a routing problem", 1958) runs over ints:
    every weight is scaled by L, the lcm of the weight denominators, and
    since L > 0 each comparison, so each predecessor and the witness
    cycle, is that of the Fraction sums.  Only the returned distances
    are formed as Fractions, x / L."""
    try:
        if source not in g.vertices:
            raise AnalysisError(f"source {shown(source)} is not a vertex")
        vertices = set(g.vertices)
        for u, v, w in g.edges:
            if u not in vertices or v not in vertices:
                raise AnalysisError(
                    f"an end of the edge {(u, v, w)!r} is not a vertex")
            if type(w) not in (int, Fraction):
                raise AnalysisError(f"the weight of the edge {(u, v, w)!r} "
                                    f"is not an int or a Fraction")
    except (AttributeError, TypeError, ValueError) as exc:
        raise AnalysisError(f"not a weighted digraph: {exc}") from None
    scale = lcm(*(w.denominator for _, _, w in g.edges))
    edges = [(u, v, w.numerator * (scale // w.denominator))
             for u, v, w in g.edges]
    distance = {source: 0}
    predecessor = {}
    for _ in range(max(len(g.vertices) - 1, 0)):
        changed = False
        for u, v, w in edges:
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
        for u, v, w in edges:
            if u in distance and distance[u] + w < distance[v]:
                # walk back far enough to land on the cycle, then read it off
                predecessor[v] = u
                x = v
                for _ in range(len(g.vertices)):
                    x = predecessor[x]
                cycle = [x, predecessor[x]]
                while cycle[-1] != x:
                    cycle.append(predecessor[cycle[-1]])
                cycle.reverse()
                raise NegativeCycleError(cycle)
    return ShortestPaths(
        source, {x: Fraction(d, scale) for x, d in distance.items()},
        predecessor)


def check_minimality(t: Machine, weight_fn) -> tuple:
    """Weight every transition with weight_fn, run Bellman-Ford from the
    initial state and report whether all distances are nonnegative (then
    no input can beat the output's weight)."""
    _require_machine(t)
    initials = t.initial_states()
    if len(initials) != 1:
        raise MachineError("shortest paths need exactly one initial state")
    paths = bellman_ford(t.digraph(weight_fn), initials[0].label)
    flag = all(d >= 0 for d in paths.distance.values())
    return flag, paths


# ----------------------------------------------------------------------
# graph structure guards
# ----------------------------------------------------------------------

def _components(m: Machine):
    """Each state index's distinct successors in label order, and the
    SCCs as sets of state indices, by iterative Tarjan ("Depth-first
    search and linear graph algorithms", SIAM J. Comput. 1, 1972).
    Anything but a machine is refused (`_require_machine`)."""
    _require_machine(m)
    labels = [st.label for st in m.states]
    succ = [set() for _ in labels]
    for i, j in m._edges():
        succ[i].add(j)
    succ = [sorted(targets, key=labels.__getitem__) for targets in succ]
    index, low, on_stack = [None] * len(labels), [0] * len(labels), set()
    stack, components, work, counter = [], [], [], count()

    def visit(v):
        index[v] = low[v] = next(counter)
        stack.append(v)
        on_stack.add(v)
        work.append((v, iter(succ[v])))

    for root in range(len(labels)):
        if index[root] is None:
            visit(root)
        while work:
            node, it = work[-1]
            for child in it:
                if index[child] is None:
                    visit(child)
                    break
                if child in on_stack:
                    low[node] = min(low[node], index[child])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    component = set()
                    while node not in component:
                        component.add(stack.pop())
                    on_stack -= component
                    components.append(component)
    return succ, components


def strongly_connected_components(m: Machine):
    """SCCs of the transition graph (iterative Tarjan), as a list of sets."""
    return [{m.states[i].label for i in c} for c in _components(m)[1]]


def terminal_sccs(m: Machine):
    """All strongly connected components without outgoing edges."""
    succ, components = _components(m)
    return [{m.states[i].label for i in c} for c in components
            if all(j in c for i in c for j in succ[i])]


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
    breadth-first level differences.  The states named must be strongly
    connected among themselves; any other set raises AnalysisError."""
    _require_machine(m)
    try:
        labels = list(scc)
    except TypeError:
        raise AnalysisError(
            f"the component is not a collection of labels: {shown(scc)}"
        ) from None
    if not labels:
        raise AnalysisError("the component must not be empty")
    for label in labels:
        if type(label) is not str or not m.has_state(label):
            raise AnalysisError(
                f"the component names no state: {shown(label)}")
    members = {m._by_label[label] for label in labels}
    root = m._by_label[min(labels)]
    edges = [(i, j) for i, j in m._edges() if i in members and j in members]
    forward, backward = {i: [] for i in members}, {i: [] for i in members}
    for i, j in edges:
        forward[i].append(j)
        backward[j].append(i)
    level = bfs_levels([root], forward.__getitem__)
    unreached = members - (level.keys()
                           & bfs_levels([root], backward.__getitem__).keys())
    if unreached:
        raise AnalysisError(
            f"the component is not strongly connected: "
            f"{min(m.states[i].label for i in unreached)!r} and "
            f"{m.states[root].label!r} are not mutually reachable inside it")
    return gcd(*(level[i] + 1 - level[j] for i, j in edges)) == 1


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

def _terminal_chain(t: Machine, needs: str):
    """The Markov chain of uniformly random inputs on the unique terminal
    SCC of the accessible part of a complete deterministic machine, kept by
    `t._kept`; `needs` begins the message that refuses any other machine,
    which keeps nothing.  The chain is the SCC's labels in state order,
    (i, j, tr) per transition tr from them (i and j its ends' indices in
    the labels), the integer matrix B = |input alphabet| * I - C less its
    last row and column (C the count matrix, P = C / |input alphabet| the
    transition matrix) and the stationary row vector as coprime positive
    integer weights w (pi = w / sum(w), pi P = pi), all tuples.  Anything
    but a machine is refused first (`_require_machine`)."""
    _require_machine(t)

    def chain():
        if not t.is_complete():
            raise MachineError(f"{needs} a complete deterministic machine")
        reachable = t.accessible()
        scc = terminal_scc(reachable)
        labels = tuple(st.label for st in reachable.states if st.label in scc)
        index = {label: i for i, label in enumerate(labels)}
        inside = tuple((index[tr.source], index[tr.target], tr)
                       for tr in reachable.transitions if tr.source in scc)
        n = len(labels) - 1
        letters = len(t.input_alphabet)
        # letters * I - C less its last column; the last row is popped below
        B = [[letters * (i == j) for j in range(n)] for i in range(n + 1)]
        for i, j, _ in inside:
            if j < n:
                B[i][j] -= 1
        last = [-x for x in B.pop()]
        # pi (P - I) = 0 with pi's last entry fixed to 1, less its last
        # equation, which the others imply (each row of P - I sums to 0);
        # times |input alphabet| it reads B^T h = (C's last row less its
        # last entry) for pi's head h.  P is stochastic and irreducible, so
        # pi is positive (Kemeny and Snell, Finite Markov Chains, 1960), and
        # B^T is a nonsingular M-matrix (Berman and Plemmons, Nonnegative
        # Matrices in the Mathematical Sciences, 1979), so Bareiss never
        # swaps rows and every pivot, the denominator d included, is positive.
        (head,), d = solve_integers(list(zip(*B)), [last])
        g = gcd(*head, d)
        return (labels, inside, tuple(map(tuple, B)),
                tuple(x // g for x in head + [d]))

    return t._kept("chain", chain)


def stationary_distribution(t: Machine):
    """The probability row vector fixed by the transition matrix on the
    terminal SCC (one exact linear solve of pi (P - I) = 0 with pi's last
    entry fixed, then scaled to sum 1), extended by zeros on transient
    states; entries are exact rationals summing to 1."""
    labels, _, _, w = _terminal_chain(t, "the stationary distribution needs")
    total = sum(w)
    mass = dict(zip(labels, w))
    return tuple(Fraction(mass.get(st.label, 0), total) for st in t.states)


def expected_density(t: Machine) -> Fraction:
    """Linear-growth constant of the mean output sum: the stationary
    vector dotted with the expected per-state output.  Every output must
    be a word of digits, on transient transitions too."""
    labels, _, _, w = _terminal_chain(t, "the stationary distribution needs")
    mass = dict(zip(labels, w))
    total = sum(_digit_sum(tr.output, "output") * mass.get(tr.source, 0)
                for tr in t.transitions)
    return Fraction(total, sum(w) * len(t.input_alphabet))


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
    labels, inside, B, w = _terminal_chain(t, "asymptotic moments need")
    if not t._kept("aperiodic", lambda: is_aperiodic(t, labels)):
        raise AnalysisError("the terminal component is periodic")
    n = len(labels)
    letters = len(t.input_alphabet)
    D = sum(w)  # pi = w / D

    # Derivatives at y = z = 1 of A(y, z), whose (i, j) entry sums
    # q * y^(output sum) * z^(input sum) over the transitions i -> j, all
    # times 1 / q = |input alphabet| to keep them integers: row sums of
    # A_y, A_z, A_yy and A_yz, and the row vectors w A_y, w A_z (that is,
    # pi A_y and pi A_z times D / q).
    h_y, h_z, h_yy, h_yz, w_y, w_z = ([0] * n for _ in range(6))
    for i, j, tr in inside:
        h = _digit_sum(tr.output, "output")
        g = _digit_sum(tr.input, "input")
        h_y[i] += h
        h_z[i] += g
        h_yy[i] += h * (h - 1)
        h_yz[i] += h * g
        w_y[j] += w[i] * h
        w_z[j] += w[i] * g

    def dot(u, v):
        return sum(a * b for a, b in zip(u, v))

    # e = pi A_y 1 = E_y / (letters * D), and lam_z = E_z / (letters * D)
    E_y, E_z = dot(w, h_y), dot(w, h_z)
    # Z b for b = A 1: fixing z's last entry to 0 leaves B z' =
    # letters * (b' - (pi b) 1') on the other entries.  Split by
    # linearity, the right-hand sides stay integers: z' = u - (pi b) v
    # with B u = letters * b' and B v = letters * 1', both over d.
    (u_y, u_z, v), d = solve_integers(
        B, [h_y[:-1], h_z[:-1], [letters] * (n - 1)])
    K = d * letters * D

    def fundamental(u, E):
        """D * K * Z b, for B u = letters * b' and pi b = E / (letters * D):
        z' = u - (pi b) v is over K, and Z b = z - (pi z) 1."""
        z = [a * letters * D - E * b for a, b in zip(u, v)] + [0]
        s = dot(w, z)
        return [D * x - s for x in z]

    zb_y, zb_z = fundamental(u_y, E_y), fundamental(u_z, E_z)
    # lam_yy = pi A_yy 1 + 2 pi A_y Z A_y 1 and lam_yz = pi A_yz 1 +
    # pi A_y Z A_z 1 + pi A_z Z A_y 1 over letters * D^2 * K; then
    # v = lam_yy + e - e^2 and c = lam_yz - e lam_z over letters^2 D^2 K
    lam_yy = dot(w, h_yy) * D * K + 2 * dot(w_y, zb_y)
    lam_yz = dot(w, h_yz) * D * K + dot(w_y, zb_z) + dot(w_z, zb_y)
    den = letters * letters * D * D * K
    return MomentsResult(
        Fraction(E_y, letters * D),
        Fraction(letters * lam_yy + (letters * D - E_y) * E_y * K, den),
        Fraction(letters * lam_yz - E_y * E_z * K, den))
