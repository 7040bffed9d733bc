"""Size sweep: how the cost of three analyses grows with machine size.

Reported, never gated.  Each point runs in a fresh process killed after
its per-call time budget; a point over budget is reported as such, not
dropped.  The growth exponent k (time ~ size^k) is fitted by least squares
over the points within budget.

    asymptotic_moments     random transducers, 8, 12, 16, 24, 32 states
    word_count_recurrence  random trimmed DFAs, 8, 16, 24, 32 states
    minimize               (0+1)* 1 (0+1)^k for k = 6..12
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from pathlib import Path

from fsmkit import analysis, automata
from fsmkit.machine import AUTOMATON

import oracles
from stats import growth_exponent
from workloads import (ALPHABETS, BITS, _machine, random_dfa,
                       random_transducer)

HERE = Path(__file__).resolve().parent
SIZES = {"moments": (8, 12, 16, 24, 32),
         "recurrence": (8, 16, 24, 32),
         "minimize": (6, 7, 8, 9, 10, 11, 12)}
SWEEP_BUDGET_S = 30  # per-call time budget of one point
START_SLACK_S = 10   # interpreter start and input construction


def _kth(k):
    sigma = automata.union(automata.word_automaton([0], BITS),
                           automata.word_automaton([1], BITS))
    x = automata.concat(automata.kleene_star(sigma),
                        automata.word_automaton([1], BITS))
    for _ in range(k):
        x = automata.concat(x, sigma)
    return x


def point(kind, size, seed):
    """Time one call at one size and check its result; prints JSON."""
    rng = random.Random(f"sweep:{kind}:{seed}:{size}")
    alphabet = ALPHABETS[2]
    if kind == "moments":
        delta = random_transducer(rng, size, alphabet)
        machine = _machine(delta, range(size), alphabet)
        call = lambda: analysis.asymptotic_moments(machine)  # noqa: E731
        ref = oracles.moments_oracle(list(range(size)), alphabet, delta)
        ok = lambda m: (m.expectation, m.variance, m.covariance) == (  # noqa: E731
            ref["expectation"], ref["variance"], ref["covariance"])
    elif kind == "recurrence":
        delta, finals = random_dfa(rng, size, alphabet)
        machine = _machine(delta, finals, alphabet, kind=AUTOMATON)
        call = lambda: automata.word_count_recurrence(machine)  # noqa: E731
        own = oracles.word_counts(oracles.table_of(machine), alphabet, 2 * size)
        ok = lambda rec: oracles.recurrence_terms(  # noqa: E731
            rec.coefficients, rec.initial_terms, 2 * size) == own[:2 * size]
    elif kind == "minimize":
        x = _kth(size)
        call = lambda: automata.minimize(x)  # noqa: E731
        ok = lambda m: len(m.states) == 2 ** (size + 1)  # noqa: E731
    else:
        raise SystemExit(f"unknown sweep kind {kind!r}")
    start = time.perf_counter()
    result = call()
    elapsed = time.perf_counter() - start
    print(json.dumps({"seconds": elapsed, "correct": bool(ok(result))}))
    return 0


def run(seed):
    budget = SWEEP_BUDGET_S
    report = {"budget_s": budget, "seed": seed, "kinds": {}}
    for kind, sizes in SIZES.items():
        rows = []
        for size in sizes:
            argv = [sys.executable, str(HERE / "run.py"), "--sweep-point",
                    kind, str(size), "--seed", str(seed)]
            try:
                proc = subprocess.run(argv, capture_output=True, text=True,
                                      timeout=budget + START_SLACK_S)
            except subprocess.TimeoutExpired:
                rows.append({"size": size, "seconds": None, "over_budget": True})
            else:
                if proc.returncode != 0:
                    raise RuntimeError(f"sweep point {kind} {size}:\n{proc.stderr}")
                out = json.loads(proc.stdout.strip().splitlines()[-1])
                rows.append({"size": size, "seconds": out["seconds"],
                             "correct": out["correct"],
                             "over_budget": out["seconds"] > budget})
            row = rows[-1]
            shown = ("over budget" if row["over_budget"] and row["seconds"] is None
                     else f"{row['seconds']:.4f} s"
                     + (" (over budget)" if row["over_budget"] else "")
                     + ("" if row.get("correct", True) else " WRONG RESULT"))
            print(f"{kind:<11} size {size:>3}: {shown}", flush=True)
        # minimize is fitted against its output size, 2**(k+1) states
        fit = [(2 ** (r["size"] + 1) if kind == "minimize" else r["size"],
                r["seconds"]) for r in rows if not r["over_budget"]]
        exponent = growth_exponent([s for s, _ in fit], [t for _, t in fit])
        report["kinds"][kind] = {"points": rows, "exponent": exponent}
        print(f"{kind:<11} fitted growth exponent: "
              + ("n/a" if exponent is None else f"{exponent:.2f}"), flush=True)
    out = HERE.parent / ".bench_work" / f"sweep-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"written to {out}")
    return 0
