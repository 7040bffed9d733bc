import re
from fractions import Fraction

import pytest

from fsmkit import analysis, digits, transducers
from fsmkit.analysis import (asymptotic_moments, bellman_ford,
                             check_minimality, expected_density, is_aperiodic,
                             stationary_distribution, terminal_scc,
                             terminal_sccs)
from fsmkit.digits import hamming_weight
from fsmkit.errors import AnalysisError, MachineError, NegativeCycleError
from fsmkit.machine import (TRANSDUCER, Machine, State, WeightedDigraph,
                            build_machine)
from fsmkit.symbols import word

from oracles import dp_stats, exponent_adjacency_matrix, visit_frequencies

HALF = Fraction(1, 2)


def in_minus_out(t):
    return hamming_weight(t.input) - hamming_weight(t.output)


# ----------------------------------------------------------------------
# Bellman-Ford
# ----------------------------------------------------------------------

def test_shortest_paths_on_signed_rewriter(naf_all):
    paths = bellman_ford(naf_all.digraph(in_minus_out), "I")
    assert paths.distance["I"] == 0
    assert paths.distance["-2"] == 1
    assert all(d >= 0 for d in paths.distance.values())


def test_distance_to_source_is_zero():
    g = WeightedDigraph(("a", "b"), (("a", "b", Fraction(5)),))
    paths = bellman_ford(g, "a")
    assert paths.distance["a"] == 0
    assert paths.distance["b"] == 5


def test_negative_cycle_detection():
    g = WeightedDigraph(("a", "b"), (
        ("a", "b", Fraction(-1)), ("b", "a", Fraction(-1))))
    with pytest.raises(NegativeCycleError) as info:
        bellman_ford(g, "a")
    cycle = info.value.cycle
    assert cycle[0] == cycle[-1]
    assert set(cycle) <= {"a", "b"}


def test_negative_weights_without_cycle_are_fine():
    g = WeightedDigraph(("a", "b", "c"), (
        ("a", "b", Fraction(5)), ("a", "c", Fraction(2)),
        ("c", "b", Fraction(-4))))
    paths = bellman_ford(g, "a")
    assert paths.distance["b"] == -2


def test_unreachable_vertices_missing_from_distances():
    g = WeightedDigraph(("a", "b", "far"), (("a", "b", Fraction(1)),))
    paths = bellman_ford(g, "a")
    assert "far" not in paths.distance


def test_bellman_ford_fixpoint_and_witness_paths(naf_all):
    g = naf_all.digraph(in_minus_out)
    paths = bellman_ford(g, "I")
    for u, v, w in g.edges:
        if u in paths.distance:
            assert paths.distance[v] <= paths.distance[u] + w
    weights = {}
    for u, v, w in g.edges:
        weights[(u, v)] = min(w, weights.get((u, v), w))
    for label, dist in paths.distance.items():
        total = Fraction(0)
        here = label
        while here != "I":
            prev = paths.predecessor[here]
            total += weights[(prev, here)]
            here = prev
        assert total == dist


def test_unknown_source_raises():
    g = WeightedDigraph(("a",), ())
    with pytest.raises(AnalysisError):
        bellman_ford(g, "zz")


@pytest.mark.parametrize("vertices, edge, message", [
    (("a",), ("a", "b", Fraction(1)),
     "an end of the edge ('a', 'b', Fraction(1, 1)) is not a vertex"),
    (("a", "c"), ("a", "b", Fraction(1)),
     "an end of the edge ('a', 'b', Fraction(1, 1)) is not a vertex"),
    (("a",), ("a", "a", 1.5),
     "the weight of the edge ('a', 'a', 1.5) is not an int or a Fraction"),
    (("a",), ("a", "a", "x"),
     "the weight of the edge ('a', 'a', 'x') is not an int or a Fraction"),
    (("a",), ("a", "a", True),
     "the weight of the edge ('a', 'a', True) is not an int or a Fraction"),
    (("a", ["b"]), ("a", "a", 1), "not a weighted digraph: unhashable"),
    (("a",), ("a", "a"), "not a weighted digraph: not enough values"),
], ids=["no-vertex-b", "b-among-other-vertices", "float-weight",
        "str-weight", "bool-weight", "unhashable-vertex", "short-edge"])
def test_bellman_ford_refuses_a_hand_built_graph_by_its_edge(vertices, edge,
                                                             message):
    # a foreign endpoint, and a weight that is not an exact int or
    # Fraction, each named before any distance is computed
    with pytest.raises(AnalysisError, match=re.escape(message)):
        bellman_ford(WeightedDigraph(vertices, (edge,)), "a")


def test_bellman_ford_refuses_what_is_no_weighted_digraph():
    with pytest.raises(AnalysisError,
                       match="^not a weighted digraph: 'list' object has no "
                             "attribute 'vertices'$"):
        bellman_ford([], 0)


# ----------------------------------------------------------------------
# minimality certificates
# ----------------------------------------------------------------------

def test_rewriter_output_is_weight_minimal(naf_all):
    flag, paths = check_minimality(naf_all, in_minus_out)
    assert flag is True
    assert paths.distance["-2"] == 1


def test_identity_zero_weights_minimal(identity01):
    flag, paths = check_minimality(identity01, lambda t: 0)
    assert flag is True
    assert set(paths.distance.values()) == {0}


def test_duplicating_rewriter_is_not_minimal():
    doubler = build_machine(
        [("a", "b", 1, [1, 1]), ("b", "b", 0, 0), ("b", "b", 1, 1),
         ("a", "a", 0, 0)],
        initial_labels=["a"], final_labels=["a", "b"],
        input_alphabet=[0, 1])
    flag, paths = check_minimality(doubler, in_minus_out)
    assert flag is False
    assert min(paths.distance.values()) < 0


@pytest.mark.parametrize("t", [
    Machine(TRANSDUCER, [State("a", False, True)], [], [0]),
    build_machine([("a", "b", 0, 0)], ["a", "b"], ["a"], input_alphabet=[0]),
], ids=["none", "two"])
def test_minimality_needs_exactly_one_initial_state(t):
    with pytest.raises(MachineError, match="shortest paths need exactly one "
                                           "initial state"):
        check_minimality(t, in_minus_out)


def test_density_needs_digit_outputs(combined_3n_n):
    with pytest.raises(AnalysisError, match=re.escape(
            "output sums need digit outputs, found 0|0")):
        expected_density(combined_3n_n)


# ----------------------------------------------------------------------
# marked adjacency matrices
# ----------------------------------------------------------------------

def test_identity_matrix_entry(identity01):
    matrix = exponent_adjacency_matrix(identity01)
    assert matrix.entries[0][0] == {0: HALF, 1: HALF}


def test_weight_transducer_matrix_entry():
    weigher = transducers.weight_transducer([-1, 0, 1])
    matrix = exponent_adjacency_matrix(weigher)
    assert matrix.entries[0][0] == {0: Fraction(1, 3), 1: Fraction(2, 3)}


@pytest.mark.parametrize("name", ["identity01", "weight_naf", "machine_W"])
def test_rows_sum_to_one_at_one(name, request):
    m = request.getfixturevalue(name)
    matrix = exponent_adjacency_matrix(m)
    for row in matrix.at_one():
        assert sum(row) == 1


def test_entries_follow_transitions(machine_W):
    matrix = exponent_adjacency_matrix(machine_W)
    arcs = {(t.source, t.target) for t in machine_W.transitions}
    labels = matrix.state_labels
    for i, row in enumerate(matrix.entries):
        for j, cell in enumerate(row):
            assert bool(cell) == ((labels[i], labels[j]) in arcs)


def test_incomplete_machine_rejected():
    lonely = build_machine([("a", "a", 0, 0)], ["a"], ["a"],
                           input_alphabet=[0, 1])
    with pytest.raises(MachineError, match="complete"):
        stationary_distribution(lonely)


# ----------------------------------------------------------------------
# structure guards
# ----------------------------------------------------------------------

def test_terminal_scc_of_rewriter(naf1):
    assert terminal_scc(naf1) == {"0", "1", "2"}


def test_self_loop_state_is_aperiodic_terminal(identity01):
    scc = terminal_scc(identity01)
    assert scc == {"0"}
    assert is_aperiodic(identity01, scc)


def test_two_cycle_is_periodic():
    swing = build_machine(
        [("a", "b", 0, 0), ("a", "b", 1, 0), ("b", "a", 0, 0),
         ("b", "a", 1, 0)],
        initial_labels=["a"], final_labels=["a"], input_alphabet=[0, 1])
    scc = terminal_scc(swing)
    assert scc == {"a", "b"}
    assert not is_aperiodic(swing, scc)
    with pytest.raises(AnalysisError, match="periodic"):
        asymptotic_moments(swing)


def test_is_aperiodic_refuses_an_empty_component(identity01):
    with pytest.raises(AnalysisError, match="must not be empty"):
        is_aperiodic(identity01, [])


@pytest.mark.parametrize("scc, message", [
    ({"zz"}, "the component names no state: 'zz'"),
    (["0", 5], "the component names no state: 5"),
    ([["0"]], "the component names no state: ['0']")],
    ids=["set", "mixed", "unhashable"])
def test_is_aperiodic_refuses_an_unknown_label(identity01, scc, message):
    with pytest.raises(AnalysisError) as raised:
        is_aperiodic(identity01, scc)
    assert str(raised.value) == message


@pytest.mark.parametrize("scc, named", [(5, "5"), (float("nan"), "nan")],
                         ids=["int", "nan"])
def test_is_aperiodic_refuses_a_component_that_is_no_collection(identity01,
                                                                scc, named):
    with pytest.raises(AnalysisError) as raised:
        is_aperiodic(identity01, scc)
    assert str(raised.value) == (
        f"the component is not a collection of labels: {named}")


@pytest.mark.parametrize("rows, scc, named", [
    # b moves to a, a never back to b: a KeyError before
    ([("b", "a", 0), ("a", "a", 1)], ["a", "b"], "'b' and 'a'"),
    # one cycle a -> b -> c -> a; without b, a does not reach c
    ([("a", "b", 0), ("b", "c", 0), ("c", "a", 0)], {"c", "a"}, "'c' and 'a'"),
    # a reaches b, b never back to a
    ([("a", "a", 0), ("a", "b", 1), ("b", "b", 1)], ("b", "a"), "'b' and 'a'")])
def test_is_aperiodic_refuses_states_not_strongly_connected(rows, scc, named):
    m = build_machine(rows, ["a"], ["a"], [0, 1])
    with pytest.raises(AnalysisError) as raised:
        is_aperiodic(m, scc)
    assert str(raised.value) == (
        f"the component is not strongly connected: {named} are not "
        f"mutually reachable inside it")


def test_moments_refuse_an_incomplete_machine():
    partial = build_machine([("a", "a", 0, 0)], initial_labels=["a"],
                            final_labels=["a"], input_alphabet=[0, 1])
    with pytest.raises(MachineError, match="complete deterministic"):
        asymptotic_moments(partial)


def test_multiple_terminal_components_listed():
    forked = build_machine(
        [("i", "a", 0, 0), ("i", "b", 1, 0), ("a", "a", 0, 0),
         ("a", "a", 1, 0), ("b", "b", 0, 0), ("b", "b", 1, 0)],
        initial_labels=["i"], final_labels=["a", "b"], input_alphabet=[0, 1])
    assert len(terminal_sccs(forked)) == 2
    with pytest.raises(AnalysisError, match="found 2"):
        stationary_distribution(forked)


# ----------------------------------------------------------------------
# stationary distribution and density
# ----------------------------------------------------------------------

def test_one_state_distribution(identity01):
    assert stationary_distribution(identity01) == (Fraction(1),)


def test_symmetric_two_state_distribution():
    seesaw = build_machine(
        [("a", "a", 0, 0), ("a", "b", 1, 0), ("b", "b", 0, 0),
         ("b", "a", 1, 0)],
        initial_labels=["a"], final_labels=["a", "b"], input_alphabet=[0, 1])
    assert stationary_distribution(seesaw) == (HALF, HALF)


def test_transient_states_get_zero_mass(weight_naf):
    v = dict(zip((st.label for st in weight_naf.states),
                 stationary_distribution(weight_naf)))
    transient = next(label for label in v if label.startswith("(I"))
    assert v[transient] == 0
    assert sum(v.values()) == 1


def test_stationary_matches_visit_frequencies(machine_W):
    v = dict(zip((st.label for st in machine_W.states),
                 stationary_distribution(machine_W)))
    freq = visit_frequencies(machine_W, 16)
    for label, expected in v.items():
        assert abs(freq[label] - expected) <= Fraction(2, 16)


def test_stationarity_is_exact(machine_W):
    v = stationary_distribution(machine_W)
    matrix = exponent_adjacency_matrix(machine_W).at_one()
    n = len(v)
    for j in range(n):
        assert sum(v[i] * matrix[i][j] for i in range(n)) == v[j]
    assert sum(v) == 1


def test_terminal_chain_is_built_once_as_tuples(weight_naf):
    first = stationary_distribution(weight_naf)
    needs = "the stationary distribution needs"
    chain = analysis._terminal_chain(weight_naf, needs)
    assert analysis._terminal_chain(weight_naf, needs) is chain
    labels, inside, B, w = chain
    assert all(type(part) is tuple for part in (labels, inside, B, w, *B))
    assert [len(row) for row in B] == [len(labels) - 1] * (len(labels) - 1)
    assert stationary_distribution(weight_naf) == first
    assert expected_density(weight_naf) == \
        asymptotic_moments(weight_naf).expectation


def test_density_identity(identity01):
    assert expected_density(identity01) == HALF


def test_density_weight_of_naf(weight_naf):
    assert expected_density(weight_naf) == Fraction(1, 3)


def test_density_of_W_exceeds_half(machine_W):
    density = expected_density(machine_W)
    assert density > HALF
    assert density == Fraction(5, 9)


# ----------------------------------------------------------------------
# asymptotic moments
# ----------------------------------------------------------------------

def test_identity_moments(identity01):
    m = asymptotic_moments(identity01)
    assert (m.expectation, m.variance, m.covariance) == \
        (HALF, Fraction(1, 4), Fraction(1, 4))


def test_weight_of_naf_moments(weight_naf):
    m = asymptotic_moments(weight_naf)
    assert m.expectation == Fraction(1, 3)
    assert m.variance == Fraction(2, 27)


def test_W_moments_match_density(machine_W):
    m = asymptotic_moments(machine_W)
    assert m.expectation == expected_density(machine_W)
    assert m.variance > 0
    assert m.variance == Fraction(44, 243)


@pytest.mark.parametrize("name", ["identity01", "weight_naf", "machine_W"])
def test_expectation_agrees_with_density(name, request):
    m = request.getfixturevalue(name)
    assert asymptotic_moments(m).expectation == expected_density(m)


@pytest.mark.parametrize("name", ["identity01", "weight_naf", "machine_W"])
def test_empirical_mean_concordance(name, request):
    m = request.getfixturevalue(name)
    k = 16
    _, mean_s, _, _, _ = dp_stats(m, k, include_final=True)
    e = asymptotic_moments(m).expectation
    assert abs(mean_s / k - e) <= Fraction(2, k)


@pytest.mark.parametrize("name", ["weight_naf", "machine_W"])
def test_empirical_variance_concordance(name, request):
    # transition-output statistics: the quantity the matrix model describes
    m = request.getfixturevalue(name)
    k = 14
    moments = asymptotic_moments(m)
    _, _, _, var_s, _ = dp_stats(m, k, include_final=False)
    assert abs(var_s / k - moments.variance) <= \
        Fraction(1, 10) * moments.variance


@pytest.mark.parametrize("name", ["identity01", "weight_naf", "machine_W"])
def test_empirical_covariance_growth(name, request):
    # the covariance constant is the growth rate of the sample covariance;
    # differencing two lengths cancels the O(1) term
    m = request.getfixturevalue(name)
    moments = asymptotic_moments(m)
    _, _, _, _, cov10 = dp_stats(m, 10, include_final=False)
    _, _, _, _, cov14 = dp_stats(m, 14, include_final=False)
    slope = (cov14 - cov10) / 4
    scale = max(abs(moments.covariance), moments.variance)
    assert abs(slope - moments.covariance) <= Fraction(1, 10) * scale


def test_variance_zero_for_constant_writer():
    stamper = build_machine(
        [("a", "a", 0, 1), ("a", "a", 1, 1)],
        initial_labels=["a"], final_labels=["a"], input_alphabet=[0, 1])
    m = asymptotic_moments(stamper)
    assert m.expectation == 1
    assert m.variance == 0
    assert m.covariance == 0


@pytest.mark.parametrize("name", ["identity01", "weight_naf", "machine_W"])
def test_variance_nonnegative(name, request):
    assert asymptotic_moments(request.getfixturevalue(name)).variance >= 0


def test_output_equals_input_forces_variance_equals_covariance(identity01):
    m = asymptotic_moments(identity01)
    assert m.variance == m.covariance
