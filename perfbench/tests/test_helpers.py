"""Tests of the benchmark's own helpers: the oracles, the self-time
arithmetic, the percentile choice and the speed correction.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import itertools
import json
import random
import statistics
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import pytest  # noqa: E402

import gc  # noqa: E402

import oracles  # noqa: E402
import speed  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
from fsmkit import analysis, automata, digits  # noqa: E402
from fsmkit.machine import AUTOMATON  # noqa: E402
from report import verdict  # noqa: E402
from workloads import (WORKLOADS, _machine, random_dfa,  # noqa: E402
                       random_transducer)


# ----------------------------------------------------------------------
# percentiles
# ----------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 5, 10, 37, 100])
def test_median_and_quartiles_match_statistics_quantiles(n):
    values = [random.Random(n).random() for _ in range(n)]
    if n > 1:
        q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
        s = stats.summary(values)
        assert (s["q1"], s["median"], s["q3"]) == pytest.approx((q1, q2, q3))
    assert stats.percentile(values, 50) == pytest.approx(statistics.median(values))


def test_percentile_interpolates_between_ranks():
    assert stats.percentile([10, 20, 30, 40], 50) == 25
    assert stats.percentile(list(range(11)), 90) == 9
    assert stats.percentile([3], 90) == 3


def test_tail_percentile_leaves_ten_samples_beyond():
    n = stats.min_samples_for_tail()
    assert stats.samples_beyond(n, 90) >= 10
    assert stats.samples_beyond(n - 1, 90) < 10
    values = list(range(n))
    p90 = stats.percentile(values, 90)
    assert sum(v > p90 for v in values) >= 10


def test_growth_exponent_recovers_a_power_law():
    sizes = [8, 16, 24, 32]
    assert stats.growth_exponent(sizes, [s ** 3 * 1e-6 for s in sizes]) == \
        pytest.approx(3)
    assert stats.growth_exponent([8], [1.0]) is None


def test_verdicts_against_a_bound():
    base = {"median": 100, "q1": 99, "q3": 101, "values": [99, 100, 101]}
    worse = {"median": 80, "q1": 79, "q3": 81, "values": [79, 80, 81]}
    better = {"median": 130, "q1": 129, "q3": 131, "values": [129, 130, 131]}
    noisy = {"median": 100, "q1": 70, "q3": 130, "values": [70, 100, 130]}
    assert verdict(base, worse, "higher", 0.1)[1] == "worse"
    assert verdict(base, better, "higher", 0.1)[1] == "better"
    assert verdict(base, better, "lower", 0.1)[1] == "worse"
    assert verdict(base, noisy, "higher", 0.1)[1] == "unresolved"
    assert verdict(base, base, "higher", 0.1)[1] == "same"


def test_speed_factors_use_the_median_of_nearby_probes():
    ref = speed.REFERENCE_S
    f = speed.factors([p * ref for p in [1, 1, 2, 1, 1, 4, 4, 4]])
    assert len(f) == 8
    assert f[0] == pytest.approx(1)      # median of 1, 1, 2
    assert f[2] == pytest.approx(1)      # median of 1, 1, 2, 1, 1
    assert f[6] == pytest.approx(0.25)   # median of 1, 4, 4, 4
    assert f[7] == pytest.approx(0.25)


def test_speed_probe_restores_the_garbage_collector():
    assert gc.isenabled()
    assert speed.probe() > 0
    assert gc.isenabled()
    gc.disable()
    try:
        speed.probe()
        assert not gc.isenabled()
    finally:
        gc.enable()


# ----------------------------------------------------------------------
# self-time arithmetic
# ----------------------------------------------------------------------

def _span(name, start, end, parent, op=0, extra=None):
    return [name, start, end, parent, op, extra]


def test_self_time_subtracts_direct_children_only():
    spans = [_span("bench.op", 0, 100, -1),
             _span("a.f", 10, 60, 0),
             _span("b.g", 20, 30, 1),
             _span("b.g", 35, 50, 1),
             _span("c.h", 70, 90, 0)]
    assert tracing.self_times(spans) == [30, 25, 10, 15, 20]


def test_span_check_accepts_nested_spans():
    spans = [_span("bench.op", 0, 100, -1),
             _span("a.f", 10, 60, 0),
             _span("b.g", 20, 30, 1),
             _span("bench.op", 200, 250, -1, op=1),
             _span("c.h", 210, 240, 3, op=1)]
    assert tracing.span_problems(spans) == []


@pytest.mark.parametrize("bad, expected", [
    (_span("a.f", 90, 110, 0), "not inside its parent"),
    (_span("a.f", 10, 60, 0, op=1), "has op 1"),
    (_span("a.f", 60, 10, 0), "ends before it starts"),
    (_span("a.f", 10, 60, 2), "comes before its parent"),
])
def test_span_check_finds_a_misplaced_span(bad, expected):
    spans = [_span("bench.op", 0, 100, -1), bad,
             _span("b.g", 20, 30, 0)]
    problems = tracing.span_problems(spans)
    assert any(expected in p for p in problems), problems


def test_span_check_finds_overlapping_siblings():
    spans = [_span("bench.op", 0, 100, -1),
             _span("a.f", 10, 80, 0),
             _span("b.g", 20, 70, 0)]
    # each sibling lies inside the root, but together they cover more
    problems = tracing.span_problems(spans)
    assert problems == ["span 0 (bench.op) has negative self time"]


def test_module_shares_add_up_to_one():
    spans = [_span("bench.op", 0, 100, -1),
             _span("automata.f", 10, 60, 0),
             _span("machine.init", 20, 30, 1),
             _span("bench.op", 200, 250, -1, op=1),
             _span("polynomial.charpoly", 210, 240, 3, op=1, extra=4)]
    m = tracing.layer_metrics(spans, overhead_frac=0.2)
    shares = {k: v for k, v in m.items() if k.endswith(".share")}
    assert sum(shares.values()) == pytest.approx(1)
    assert m["automata.share"] == pytest.approx(40 / 150)
    assert m["polynomial.charpoly.max_n"] == 4
    assert m["polynomial.charpoly.self_s"] == pytest.approx(30e-9 / 2)
    assert m["trace.overhead_frac"] == 0.2


def test_layer_metric_names_match_benchmark_json():
    spans = [_span("bench.op", 0, 10, -1)]
    names = set(tracing.layer_metrics(spans, overhead_frac=0.0))
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert names == {m["name"] for m in spec["per_layer"]}
    for m in spec["per_layer"]:
        assert tracing.unit_of(m["name"]) == m["unit"]


def test_installed_wrappers_record_nested_spans_and_come_off():
    original = automata.minimize
    recorder = tracing.Recorder()
    uninstall = tracing.install(recorder)
    try:
        assert automata.minimize is not original
        recorder.run_op(lambda: digits.naf_of(14).digit_string())
        recorder.run_op(lambda: automata.minimize(digits.build_naf_acceptor()))
    finally:
        uninstall()
    assert automata.minimize is original
    names = [s[0] for s in recorder.spans]
    assert names.count("bench.op") == 2
    assert {"digits.naf_of", "digits.build_naf1", "machine.init",
            "machine.process", "symbols.word", "automata.determinize",
            "digits.Expansion.digit_string"} <= set(names)
    assert tracing.span_problems(recorder.spans) == []
    own = tracing.self_times(recorder.spans)
    roots = [s for s in recorder.spans if s[3] < 0]
    assert sum(own) == sum(s[2] - s[1] for s in roots)
    # calls outside an operation are not recorded
    uninstall = tracing.install(recorder)
    try:
        before = len(recorder.spans)
        digits.build_naf1()
        assert len(recorder.spans) == before
    finally:
        uninstall()


# ----------------------------------------------------------------------
# oracles
# ----------------------------------------------------------------------

def test_horner_and_non_adjacency():
    assert oracles.horner([0, -1, 0, 0, 1]) == 14
    assert oracles.horner([1, 0, 1], -2) == Fraction(5, 4)
    assert oracles.is_non_adjacent([0, -1, 0, 0, 1])
    assert not oracles.is_non_adjacent([1, 1, 0])


def test_digit_string_parser_reads_library_renderings():
    for n in (0, 1, 14, 255, 3 ** 40):
        assert oracles.digit_string_value(digits.naf_of(n).digit_string()) == n
        text = digits.three_half_naf_of(n).digit_string()
        assert oracles.digit_string_value(text) == n
    assert oracles.parse_digit_string("(1001̄0)_2") == ([0, -1, 0, 0, 1], 0)
    assert oracles.parse_digit_string("(10·2̄1)_2") == ([1, -2, 0, 1], 2)


def test_word_counts_match_brute_force():
    rng = random.Random(5)
    alphabet = (0, 1, 2)
    delta, finals = random_dfa(rng, 6, alphabet)
    table = oracles.table_of(_machine(delta, finals, alphabet, kind=AUTOMATON))
    counts = oracles.word_counts(table, alphabet, 6)
    for length in range(7):
        brute = sum(oracles.run_table(table, w)[0]
                    for w in itertools.product(alphabet, repeat=length))
        assert counts[length] == brute


def test_recurrence_terms_and_library_recurrence():
    assert oracles.recurrence_terms([1, 1], [0, 1], 10) == \
        [0, 1, 1, 2, 3, 5, 8, 13, 21, 34]
    acceptor = digits.build_naf_acceptor()
    rec = automata.word_count_recurrence(acceptor)
    own = oracles.word_counts(oracles.table_of(acceptor), (-1, 0, 1), 12)
    assert oracles.recurrence_terms(rec.coefficients, rec.initial_terms, 13) == own
    # a(n) = a(n-1) + 2 a(n-2), a(0) = 1, a(1) = 3
    assert own[11:] == [2731, 5461]


def test_moments_oracle_on_the_identity_transducer():
    delta = {(0, a): (0, [a]) for a in (0, 1)}
    ref = oracles.moments_oracle([0], (0, 1), delta)
    assert (ref["expectation"], ref["variance"], ref["covariance"]) == \
        (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))


@pytest.mark.parametrize("n,alphabet", [(3, (0, 1)), (5, (-1, 0, 1)), (7, (0, 1))])
def test_moments_oracle_agrees_with_the_library(n, alphabet):
    delta = random_transducer(random.Random(n), n, alphabet)
    machine = _machine(delta, range(n), alphabet)
    ref = oracles.moments_oracle(list(range(n)), alphabet, delta)
    m = analysis.asymptotic_moments(machine)
    assert (m.expectation, m.variance, m.covariance) == \
        (ref["expectation"], ref["variance"], ref["covariance"])
    pi = analysis.stationary_distribution(machine)
    assert {st.label: p for st, p in zip(machine.states, pi)} == \
        {str(s): p for s, p in ref["pi"].items()}


def test_random_dfa_is_trimmed_and_has_n_states():
    for n in (4, 9, 16):
        delta, finals = random_dfa(random.Random(n), n, (0, 1))
        machine = _machine(delta, finals, (0, 1), kind=AUTOMATON)
        assert len(machine.states) == n
        assert len(machine.trim().states) == n


def test_shortest_distances():
    edges = [("0", "1", 2), ("0", "2", 5), ("1", "2", 1), ("2", "0", 0)]
    assert oracles.shortest_distances("0", edges) == {"0": 0, "1": 2, "2": 3}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_rounds_depend_only_on_seed_and_index(name, tmp_path):
    a = WORKLOADS[name](7, tmp_path / "a")
    b = WORKLOADS[name](7, tmp_path / "b")
    try:
        assert [op.kind for op in a.round(1)] == [op.kind for op in b.round(1)]
        assert [op.kind for op in a.round(0)] == [op.kind for op in b.round(0)]
    finally:
        a.close()
        b.close()
