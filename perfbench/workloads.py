"""The four seeded workloads.

Each workload is a closed loop with one client: the runner calls one
operation, waits for it, checks its result, then calls the next.  A
workload is built from its seed (``__init__`` is the set-up: it builds the
machines the operations reuse and the inputs of round 0) and hands out
rounds of operations; ``round(r)`` depends only on the seed and r, so a
traced pass can replay the operations of an untraced one.  Every round
holds the same mix of operation kinds and sizes in a seeded order, so a
run of whole rounds measures the same mix whatever the seed.

Operations call the library only through its public functions.  Their
checks (``Op.check``) use ``oracles`` and return None or a failure message.
See README.md for why each workload was chosen.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
from fractions import Fraction
from pathlib import Path
from time import perf_counter_ns

import fsmkit.cli as cli
from fsmkit import analysis, automata, digits, transducers
from fsmkit.machine import AUTOMATON, build_machine

import oracles
from oracles import letter_value


class Op:
    __slots__ = ("kind", "run", "check")

    def __init__(self, kind, run, check):
        self.kind = kind
        self.run = run
        self.check = check


class Workload:
    name = ""

    def __init__(self, seed, workdir):
        self.seed = seed
        self.totals = {}
        self._round0 = self._make_round(0)

    def rng(self, r):
        return random.Random(f"{self.name}:inputs:{self.seed}:{r}")

    def round(self, r):
        """The operations of round r (round 0 was made during set-up)."""
        if r == 0 and self._round0 is not None:
            ops, self._round0 = self._round0, None
            return ops
        return self._make_round(r)

    def _make_round(self, r):
        raise NotImplementedError

    def close(self):
        pass


def _binary(n):
    return [(n >> i) & 1 for i in range(n.bit_length())]


def _values(word):
    return [letter_value(s) for s in word]


# ----------------------------------------------------------------------
# casestudy: the paper's worked example, driven through the CLI
# ----------------------------------------------------------------------

class CaseStudy(Workload):
    name = "casestudy"
    WRAPPER_CALLS = 10

    def __init__(self, seed, workdir):
        self.dir = Path(workdir) / "casestudy"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.reference = None
        super().__init__(seed, workdir)

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def _path(self, name):
        return str(self.dir / name)

    def _script(self, n):
        p = self._path
        builds = [("T", "T.json"), ("W", "W.json"), ("naf1", "naf1.json"),
                  ("naf-all", "nall.json"), ("minus", "minus.json"),
                  ("combined-3n-n", "comb.json"),
                  ("naf-acceptor", "nacc.json")]
        return [["build", preset, "-o", p(f)] for preset, f in builds] + [
            ["project-output", p("T.json"), "-o", p("RT.json")],
            ["minimize", p("RT.json"), "-o", p("R.json")],
            ["compose", "--outer", p("minus.json"), "--inner", p("comb.json"),
             "-o", p("naf3.json")],
            ["final-word-out", p("naf1.json"), "--letter", "0",
             "-o", p("nafc.json")],
            ["run", p("T.json"), "--digits-of", str(n), "--eval-offset", "-2"],
            ["analyze", "count", p("R.json"), "--length", "64"],
            ["analyze", "density", p("W.json")],
            ["analyze", "check-minimality", p("nall.json"),
             "--weight", "in-minus-out"],
            ["export", p("T.json"), "--format", "dot", "-o", p("T.dot")],
            ["export", p("T.json"), "--format", "tikz", "-o", p("T.tex")],
        ]

    def _make_round(self, r):
        rng = self.rng(r)
        n = rng.getrandbits(64)
        ms = [rng.getrandbits(rng.randint(1, 256))
              for _ in range(self.WRAPPER_CALLS)]
        script = self._script(n)

        def run():
            for f in self.dir.iterdir():  # every round writes its files anew
                f.unlink()
            verbs = []
            for argv in script:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    code = cli.main(argv)
                verbs.append((argv, code, out.getvalue(), err.getvalue()))
            wrappers = [(digits.naf_of(m).digit_string(),
                         digits.three_half_naf_of(m).value()) for m in ms]
            return verbs, wrappers

        return [Op("round", run, lambda result: self._check(n, ms, result))]

    def _check(self, n, ms, result):
        verbs, wrappers = result
        files = {f.name: f.read_bytes() for f in sorted(self.dir.iterdir())}
        stdout = {}
        for argv, code, out, err in verbs:
            if code != 0 or err:
                return f"{' '.join(argv[:2])} exited {code}: {err.strip()}"
            stdout[" ".join(a for a in argv if not a.startswith("/"))] = out
        run_out = stdout.pop(f"run --digits-of {n} --eval-offset -2")

        t_table = oracles.table_of_doc(json.loads(files["T.json"]))
        accepted, expected = oracles.run_table(t_table, _binary(n))
        if not (accepted and run_out.startswith("accepted: true\n")
                and run_out.endswith(f"output: {','.join(map(str, expected))}"
                                     f"\nvalue: {n}\n")):
            return f"run on {n} printed {run_out!r}"
        if stdout["analyze density"] != "5/9\n":
            return f"density printed {stdout['analyze density']!r}"
        if not stdout["analyze check-minimality --weight in-minus-out"] \
                .startswith("minimal: true\n"):
            return "naf-all is not certified minimal"
        r_doc = json.loads(files["R.json"])
        count = oracles.word_counts(oracles.table_of_doc(r_doc),
                                    r_doc["alphabet"], 64)[64]
        if stdout["analyze count --length 64"] != f"{count}\n":
            return "count of R's words of length 64 is wrong"
        if self.reference is None:
            self.reference = (files, stdout)
        elif (files, stdout) != self.reference:
            changed = sorted(k for k in set(files) | set(self.reference[0])
                             if files.get(k) != self.reference[0].get(k))
            return f"outputs differ from the first round's: {changed or 'stdout'}"

        for m, (naf_text, three_half) in zip(ms, wrappers):
            naf_digits, places = oracles.parse_digit_string(naf_text)
            if places or oracles.horner(naf_digits) != m \
                    or not oracles.is_non_adjacent(naf_digits):
                return f"naf_of({m}) rendered {naf_text}"
            if three_half != m:
                return f"three_half_naf_of({m}).value() = {three_half}"
        return None


# ----------------------------------------------------------------------
# transduce: long words through the run loop and the digit paths
# ----------------------------------------------------------------------

class Transduce(Workload):
    name = "transduce"
    # operations per round; with 35 the 50th and 90th percentiles of whole
    # rounds fall mid-way through a size's group of operations, not at a
    # boundary between two sizes
    STRATA = 35
    MIN_LOG2, MAX_LOG2 = 6, 14

    def __init__(self, seed, workdir):
        self.T = digits.build_T()
        self.naf = transducers.with_final_word_out(digits.build_naf1(), 0)
        self.W = digits.build_W()
        self.R = digits.build_R()
        super().__init__(seed, workdir)

    def _make_round(self, r):
        # log-uniform bit lengths on a fixed grid (the midpoints of STRATA
        # equal strata), so every round has the same sizes; the seed and
        # the round choose the integers
        rng = self.rng(r)
        width = (self.MAX_LOG2 - self.MIN_LOG2) / self.STRATA
        ops = []
        for i in range(self.STRATA):
            bits = round(2 ** (self.MIN_LOG2 + width * (i + 0.5)))
            n = rng.getrandbits(bits - 1) | 1 << (bits - 1)
            ops.append(Op("convert", self._run(n),
                          lambda result, n=n: self._check(n, result)))
        rng.shuffle(ops)
        return ops

    def _run(self, n):
        totals = self.totals

        def run():
            t0 = perf_counter_ns()
            b = digits.binary_digits(n)
            t_out = self.T.transduce(b)
            naf = self.naf.transduce(b)
            weight = self.W.process(b)
            accepted = self.R.accepts(t_out)
            t1 = perf_counter_ns()
            e_t, e_n = digits.Expansion(t_out, -2), digits.Expansion(naf, 0)
            values = (e_t.value(), e_n.value())
            strings = (e_t.digit_string(), e_n.digit_string())
            t2 = perf_counter_ns()
            for key, amount in (("letters", 3 * len(b) + len(t_out)),
                                ("run_ns", t1 - t0),
                                ("eval_digits", 2 * (len(t_out) + len(naf))),
                                ("eval_ns", t2 - t1)):
                totals[key] = totals.get(key, 0) + amount
            return t_out, naf, weight, accepted, values, strings

        return run

    @staticmethod
    def _check(n, result):
        t_out, naf, weight, accepted, values, strings = result
        tv, nv = _values(t_out), _values(naf)
        if oracles.horner(tv, -2) != n:
            return f"T's output does not evaluate to n ({n.bit_length()} bits)"
        if oracles.horner(nv) != n or not oracles.is_non_adjacent(nv):
            return f"the NAF of n ({n.bit_length()} bits) is wrong"
        if not weight.accepted or \
                sum(_values(weight.output)) != sum(1 for v in tv if v):
            return "W's output sum is not the Hamming weight of T's output"
        if not accepted:
            return "R rejects T's output"
        if values != (n, n):
            return "Expansion.value differs from n"
        if oracles.digit_string_value(strings[0]) != n or \
                oracles.digit_string_value(strings[1]) != n:
            return "digit_string does not render n"
        return None


# ----------------------------------------------------------------------
# exact: the exact analyses on random machines, W and R
# ----------------------------------------------------------------------

# Per round: 8 operations below about 60 ms, 5 of 60 to 90 ms (two 9-state
# transducers, W, DFAs of 8 and 9 states) and 8 above, so the median
# latency falls inside the middle group rather than in a gap between kinds.
MOMENT_MIX = ((4, 2), (4, 3), (5, 2), (6, 3), (7, 2), (9, 2), (9, 2),
              (10, 2), (11, 2), (8, 3), (12, 2))   # (states, alphabet size)
DFA_SIZES = (4, 5, 6, 8, 9, 12, 14, 16)
ALPHABETS = {2: (0, 1), 3: (-1, 0, 1)}
COUNT_LENGTH = 2000


def random_transducer(rng, n, alphabet):
    """Table of a random complete, strongly connected, aperiodic
    transducer writing one digit in -1..1 per letter."""
    while True:
        delta = {(s, a): (rng.randrange(n), [rng.choice((-1, 0, 1))])
                 for s in range(n) for a in alphabet}
        succ = {s: [delta[(s, a)][0] for a in alphabet] for s in range(n)}
        pred = {s: [] for s in range(n)}
        for s, targets in succ.items():
            for t in targets:
                pred[t].append(s)
        if (len(oracles.reachable([0], succ)) == n
                and len(oracles.reachable([0], pred)) == n
                and oracles.is_aperiodic(list(range(n)), succ)):
            return delta


def random_dfa(rng, n, alphabet):
    """(table, finals) of a random trimmed deterministic automaton with
    exactly n states: every state accessible and coaccessible."""
    while True:
        delta = {}
        # a random spanning tree from state 0 keeps every state accessible
        for s in range(1, n):
            while True:
                key = (rng.randrange(s), rng.choice(alphabet))
                if key not in delta:
                    delta[key] = (s, [])
                    break
        for s in range(n):
            for a in alphabet:
                if (s, a) not in delta and rng.random() < 0.7:
                    delta[(s, a)] = (rng.randrange(n), [])
        finals = {s for s in range(n) if rng.random() < 0.3}
        pred = {s: [] for s in range(n)}
        for (s, _), (t, _) in delta.items():
            pred[t].append(s)
        if finals and len(oracles.reachable(finals, pred)) == n:
            return delta, finals


def _machine(delta, finals, alphabet, kind="transducer"):
    rows = [(s, t, a, out) if kind == "transducer" else (s, t, a)
            for (s, a), (t, out) in sorted(delta.items())]
    return build_machine(rows, [0], sorted(finals), alphabet, kind=kind)


def _output_weight(transition):
    return digits.hamming_weight(transition.output)


class Exact(Workload):
    name = "exact"

    def __init__(self, seed, workdir):
        self.W = digits.build_W()
        self.R = digits.build_R()
        super().__init__(seed, workdir)

    def _make_round(self, r):
        rng = self.rng(r)
        ops = [Op("moments-W", self._run_w, self._check_w),
               self._recurrence_op("recurrence-R", self.R, None)]
        for n, k in MOMENT_MIX:
            alphabet = ALPHABETS[k]
            delta = random_transducer(rng, n, alphabet)
            ops.append(self._moments_op(n, alphabet, delta))
        for n in DFA_SIZES:
            alphabet = ALPHABETS[2 + n % 4 // 2]
            delta, finals = random_dfa(rng, n, alphabet)
            machine = _machine(delta, finals, alphabet, kind=AUTOMATON)
            ops.append(self._recurrence_op(f"recurrence-{n}", machine,
                                           COUNT_LENGTH))
        rng.shuffle(ops)
        return ops

    def _run_w(self):
        return analysis.asymptotic_moments(self.W)

    @staticmethod
    def _check_w(m):
        if (m.expectation, m.variance, m.covariance) != \
                (Fraction(5, 9), Fraction(44, 243), 0):
            return f"W's moments are {m}"
        return None

    def _moments_op(self, n, alphabet, delta):
        machine = _machine(delta, range(n), alphabet)

        def run():
            return (analysis.stationary_distribution(machine),
                    analysis.expected_density(machine),
                    analysis.asymptotic_moments(machine),
                    analysis.check_minimality(machine, _output_weight))

        def check(result):
            pi, density, moments, (minimal, paths) = result
            ref = oracles.moments_oracle(list(range(n)), alphabet, delta)
            if {st.label: p for st, p in zip(machine.states, pi)} != \
                    {str(s): p for s, p in ref["pi"].items()}:
                return "stationary distribution differs"
            if density != ref["expectation"] or \
                    moments.expectation != density:
                return "expectation differs from the expected density"
            if moments.variance != ref["variance"]:
                return "variance differs from the fundamental-matrix formula"
            if moments.covariance != ref["covariance"]:
                return "covariance differs from the fundamental-matrix formula"
            edges = [(str(s), str(t), sum(1 for v in out if v))
                     for (s, _), (t, out) in delta.items()]
            if not minimal or dict(paths.distance) != \
                    oracles.shortest_distances("0", edges):
                return "minimality certificate differs"
            return None

        return Op(f"moments-{n}x{len(alphabet)}", run, check)

    @staticmethod
    def _recurrence_op(kind, machine, length):
        def run():
            rec = automata.word_count_recurrence(machine)
            count = automata.count_words(machine, length) if length else None
            return rec, count

        def check(result):
            rec, count = result
            table = oracles.table_of(machine)
            alphabet = _values(machine.input_alphabet)
            own = oracles.word_counts(table, alphabet,
                                      max(2 * rec.order, length or 0))
            terms = oracles.recurrence_terms(rec.coefficients,
                                             rec.initial_terms, 2 * rec.order)
            if terms != own[:2 * rec.order]:
                return "recurrence terms differ from the word counts"
            if length and count != own[length]:
                return f"count_words(., {length}) differs"
            return None

        return Op(kind, run, check)


# ----------------------------------------------------------------------
# blowup: few, large constructions
# ----------------------------------------------------------------------

# Per round: 5 operations below about 50 ms (the chains, kth-6, nfa-128),
# 4 of about 80 ms (three nfa-256, kth-7) and 4 above, so the median
# latency falls inside the middle group.
KTH = (6, 7, 8, 9, 10)
NFA_STATES = 16
NFA_TARGETS = (128, 256, 256, 256, 384)   # subset counts in [t, 1.25 t)
CHAIN = (3, 4, 5)
BITS = (0, 1)
CHECK_WORDS = 24


class Blowup(Workload):
    name = "blowup"

    def __init__(self, seed, workdir):
        self.triple = digits.build_triple()
        super().__init__(seed, workdir)

    def _make_round(self, r):
        rng = self.rng(r)
        ops = [self._kth_op(k, rng) for k in KTH]
        ops += [self._nfa_op(target, rng) for target in NFA_TARGETS]
        ops += [self._chain_op(k, rng) for k in CHAIN]
        rng.shuffle(ops)
        return ops

    @staticmethod
    def _words(rng, max_length):
        return [[rng.choice(BITS) for _ in range(rng.randint(0, max_length))]
                for _ in range(CHECK_WORDS)]

    def _kth_op(self, k, rng):
        """Words whose letter k+1 places from the end is 1: (0+1)* 1 (0+1)^k."""
        words = self._words(rng, 2 * k + 4)

        def run():
            sigma = automata.union(automata.word_automaton([0], BITS),
                                   automata.word_automaton([1], BITS))
            x = automata.concat(automata.kleene_star(sigma),
                                automata.word_automaton([1], BITS))
            for _ in range(k):
                x = automata.concat(x, sigma)
            d = automata.determinize(x)
            m = automata.minimize(x)
            return d, m, automata.is_equivalent(m, d)

        def check(result):
            d, m, equivalent = result
            if len(m.states) != 2 ** (k + 1):
                return f"minimal automaton has {len(m.states)} states"
            if not equivalent:
                return "minimize(x) is not equivalent to determinize(x)"
            table = oracles.table_of(m)
            for w in words:
                if oracles.run_table(table, w)[0] != \
                        (len(w) > k and w[-k - 1] == 1):
                    return f"minimal automaton misjudges {w}"
            return None

        return Op(f"kth-{k}", run, check)

    def _nfa_op(self, target, rng):
        while True:
            moves = {(s, a): set(rng.sample(range(NFA_STATES),
                                            rng.choice((1, 1, 2))))
                     for s in range(NFA_STATES) for a in BITS}
            size = oracles.subset_count([0], moves, BITS)
            if target <= size < target + target // 4:
                break
        finals = {s for s in range(NFA_STATES) if rng.random() < 0.3} or {0}
        rows = [(s, t, a) for (s, a), ts in sorted(moves.items())
                for t in sorted(ts)]
        x = build_machine(rows, [0], sorted(finals), BITS, kind=AUTOMATON)
        words = self._words(rng, 24)

        def run():
            d = automata.determinize(x)
            c = automata.complement(x)
            both = automata.intersection(x, c)
            return d, c, both, automata.is_equivalent(x, d)

        def check(result):
            d, c, both, equivalent = result
            if len(d.states) != size:
                return f"determinize reached {len(d.states)} states, not {size}"
            if not equivalent:
                return "the NFA is not equivalent to its determinization"
            if any(st.is_final for st in both.states):
                return "L and its complement intersect"
            d_table, c_table = oracles.table_of(d), oracles.table_of(c)
            str_moves = {(str(s), a): {str(t) for t in ts}
                         for (s, a), ts in moves.items()}
            for w in words:
                want = oracles.nfa_accepts(["0"], {str(f) for f in finals},
                                           str_moves, w)
                if oracles.run_table(d_table, w)[0] != want or \
                        oracles.run_table(c_table, w)[0] == want:
                    return f"determinize or complement misjudges {w}"
            return None

        return Op(f"nfa-{target}", run, check)

    def _chain_op(self, k, rng):
        """Multiply by 3**k: k multiply-by-three transducers composed."""
        numbers = [rng.getrandbits(rng.randint(1, 64)) for _ in range(CHECK_WORDS)]

        def run():
            chain = self.triple
            for _ in range(k - 1):
                chain = transducers.compose(self.triple, chain)
            return chain, transducers.simplify(chain)

        def check(result):
            chain, simple = result
            if len(chain.states) != 3 ** k:
                return f"the chain has {len(chain.states)} states"
            table = oracles.table_of(simple)
            for n in numbers:
                accepted, out = oracles.run_table(table, _binary(n))
                if not accepted or oracles.horner(out) != 3 ** k * n:
                    return f"the simplified chain maps {n} wrongly"
            return None

        return Op(f"compose-{k}", run, check)


WORKLOADS = {w.name: w for w in (CaseStudy, Transduce, Exact, Blowup)}
