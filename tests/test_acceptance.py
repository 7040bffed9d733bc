"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
Tolerances are exact unless stated otherwise in the test body.
"""

from fractions import Fraction

from fsmkit import automata, digits, serialize, transducers
from fsmkit.analysis import (asymptotic_moments, bellman_ford,
                             expected_density)
from fsmkit.cli import main as cli_main
from fsmkit.digits import Expansion, binary_digits, hamming_weight
from fsmkit.symbols import word

from oracles import (all_words, contains_word, dp_stats, naf_digits,
                     normalized_digits)

ALPHA = [-1, 0, 1]


def report(number, text):
    print(f"ACCEPTANCE {number}: PASS - {text}")


def test_criterion_1_naf_acceptor_constructions_agree(naf_acceptor, naf_all):
    regex_built = naf_acceptor

    cw = lambda f: contains_word(f, ALPHA)
    intersection_built = automata.minimize(
        automata.intersection(
            automata.intersection(automata.complement(cw([1, 1])),
                                  automata.complement(cw([1, -1]))),
            automata.intersection(automata.complement(cw([-1, 1])),
                                  automata.complement(cw([-1, -1])))))

    union_complement_built = automata.minimize(automata.complement(
        automata.determinize(
            automata.union(automata.union(cw([1, 1]), cw([1, -1])),
                           automata.union(cw([-1, 1]), cw([-1, -1]))))))

    projection_built = automata.minimize(
        transducers.output_projection(naf_all))

    machines = [regex_built, intersection_built, union_complement_built,
                projection_built]
    for i, a in enumerate(machines):
        for b in machines[i + 1:]:
            assert automata.is_equivalent(a, b)
    assert regex_built.accepts([0, -1, 0, 0, 1])
    assert not regex_built.accepts([0, 1, 1, 1])
    report(1, "four acceptor constructions pairwise equivalent, "
              "accepts 0,-1,0,0,1 and rejects 0,1,1,1")


def test_criterion_2_minimal_acceptor_shape(naf_acceptor):
    assert len(naf_acceptor.states) == 3
    assert len(naf_acceptor.coaccessible().states) == 2
    report(2, "minimal complete acceptor has 3 states, coaccessible part 2")


def test_criterion_3_counting_and_recurrence(naf_acceptor):
    counts = []
    words = list(automata.language(naf_acceptor, 12))
    for n in range(13):
        by_matrix = automata.count_words(naf_acceptor, n)
        by_enumeration = sum(1 for w in words if len(w) == n)
        assert by_matrix == by_enumeration
        counts.append(by_matrix)
    assert counts[0] == 1 and counts[1] == 3
    for n in range(2, 13):
        assert counts[n] == counts[n - 1] + 2 * counts[n - 2]
    report(3, "counts match enumeration for n <= 12 and satisfy "
              "a(n) = a(n-1) + 2a(n-2), a(0)=1, a(1)=3")


def test_criterion_4_worked_values(naf1, naf_completed, triple, machine_T):
    bin14 = binary_digits(14)

    assert Expansion(triple.transduce(bin14), 0).value() == 42

    naf14 = naf_completed.transduce(bin14)
    assert naf14 == word([0, -1, 0, 0, 1])
    assert Expansion(naf14, 0).value() == 14
    assert hamming_weight(naf14) == 2

    completed = transducers.with_final_word_out(naf1, 0)
    assert completed.relabeled() == digits.build_naf2().relabeled()

    e = Expansion(machine_T.transduce(bin14), -2)
    assert e.value() == 14
    assert e.digit_string() == "(11̄102·0)_2"
    report(4, "triple(14)=42; completed rewriter gives (1001̄0)_2; "
              "both rewriter constructions equal; T(14)=(11̄102·0)_2")


def test_criterion_5_minimality_certificate(naf_all):
    graph = naf_all.digraph(
        lambda t: hamming_weight(t.input) - hamming_weight(t.output))
    paths = bellman_ford(graph, "I")  # raises on a negative cycle
    assert all(d >= 0 for d in paths.distance.values())
    assert paths.distance["-2"] == 1
    report(5, "no negative cycle, all distances >= 0, distance to -2 is 1")


def test_criterion_6_language_count_consistency(machine_R):
    total = sum(automata.count_words(machine_R, i) for i in range(6))
    enumerated = len(list(automata.language(machine_R, 5)))
    assert total == enumerated
    report(6, f"sum of counts 0..5 equals enumerated words ({total})")


def test_criterion_7_densities(identity01, weight_naf, machine_W):
    assert expected_density(identity01) == Fraction(1, 2)
    assert expected_density(weight_naf) == Fraction(1, 3)

    density = expected_density(machine_W)
    assert density > Fraction(1, 2)
    assert asymptotic_moments(machine_W).expectation == density
    k = 16
    _, mean_s, _, _, _ = dp_stats(machine_W, k, include_final=True)
    assert abs(mean_s / k - density) <= Fraction(2, k)
    report(7, f"densities 1/2, 1/3 exact; W density {density} > 1/2, "
              f"confirmed by moments and by the 2^16 empirical mean")


def test_criterion_8_moments(identity01, weight_naf, machine_W):
    m = asymptotic_moments(identity01)
    assert (m.expectation, m.variance, m.covariance) == \
        (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))

    for machine in (weight_naf, machine_W):
        moments = asymptotic_moments(machine)
        assert moments.variance >= 0
        k = 14
        _, _, _, var_s, _ = dp_stats(machine, k, include_final=False)
        assert abs(var_s / k - moments.variance) <= \
            Fraction(1, 10) * moments.variance
        # the covariance constant is the growth rate of the sample
        # covariance; differencing two lengths cancels the O(1) term
        _, _, _, _, cov10 = dp_stats(machine, 10, include_final=False)
        _, _, _, _, cov14 = dp_stats(machine, k, include_final=False)
        slope = (cov14 - cov10) / 4
        scale = max(abs(moments.covariance), moments.variance)
        assert abs(slope - moments.covariance) <= Fraction(1, 10) * scale
    report(8, "identity moments (1/2, 1/4, 1/4) exact; enumeration at k=14 "
              "confirms variance within 10% and the covariance growth rate")


def test_criterion_9_definition_agreement(machine_T):
    for n in range(1001):
        ours = [s.value for s in machine_T.transduce(binary_digits(n))]
        assert Expansion(word(ours), -2).value() == n
        a, b = naf_digits(3 * n), naf_digits(n)
        length = max(len(a), len(b))
        a += [0] * (length - len(a))
        b += [0] * (length - len(b))
        diff = [x - y for x, y in zip(a, b)]
        assert normalized_digits(ours, -2) == normalized_digits(diff, -1)
    report(9, "three-half expansion equals digitwise NAF(3n/2) - NAF(n/2) "
              "and evaluates to n for all n <= 1000")


def test_criterion_10_round_trip_and_determinism(tmp_path, capsys,
                                                 naf_acceptor, naf1,
                                                 naf_completed, naf_all,
                                                 triple, combined_3n_n, naf3,
                                                 machine_T, machine_W,
                                                 machine_R, identity01):
    cases = {
        "naf_acceptor": naf_acceptor, "naf1": naf1,
        "naf_completed": naf_completed, "naf_all": naf_all, "triple": triple,
        "combined": combined_3n_n, "naf3": naf3, "T": machine_T,
        "W": machine_W, "R": machine_R, "identity": identity01,
    }
    for name, machine in cases.items():
        back = serialize.loads(serialize.dumps(machine))
        if machine.kind == "automaton":
            assert automata.is_equivalent(back, machine)
        else:
            assert back.relabeled() == machine.relabeled()
        assert serialize.dumps(back) == serialize.dumps(machine)

    for preset in ("T", "W", "R", "naf-all"):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert cli_main(["build", preset, "-o", str(a)]) == 0
        assert cli_main(["build", preset, "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        dot1 = tmp_path / "a.dot"
        dot2 = tmp_path / "b.dot"
        assert cli_main(["export", str(a), "--format", "dot",
                         "-o", str(dot1)]) == 0
        assert cli_main(["export", str(b), "--format", "dot",
                         "-o", str(dot2)]) == 0
        assert dot1.read_bytes() == dot2.read_bytes()
    capsys.readouterr()  # swallow the build reports
    report(10, "serialize/deserialize is isomorphism-preserving and CLI "
               "outputs are byte-stable")
