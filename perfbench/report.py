"""Whole-benchmark report and comparison of two reports.

``run_all`` runs every workload ``REPEATS`` times, each run in a fresh
process with its own seed (``--seed``, ``--seed`` + 1, ...), and prints
every end-to-end metric per workload with its unit, sample count, median
and quartiles.  The raw (uncorrected) timings, the transduce-only rates
and the failure share come from each run's ``details:`` line.  The result file records the Python version,
git revision, nproc and seeds.  ``compare`` reads two result files and
gives a verdict per workload and metric against the bounds in
BENCHMARK.json.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

from stats import summary

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 900
REPEATS = 3  # runs per workload, enough for quartiles
EXTRA_UNITS = {"letters_per_s": "1/s", "eval_digits_per_s": "1/s",
               "failed_frac": "ratio"}


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _git_revision():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _one_run(workload, seed, seconds):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr}")
    details = next((json.loads(line[len("details: "):]) for line in lines
                    if line.startswith("details: ")), {})
    return json.loads(lines[-1]), details


def run_all(args):
    spec = _spec()
    seeds = list(range(args.seed, args.seed + REPEATS))
    result = {"python": platform.python_version(), "git": _git_revision(),
              "nproc": os.cpu_count(), "seeds": seeds,
              "seconds": args.seconds, "workloads": {}}
    for w in spec["workloads"]:
        values, correct = {}, True
        for seed in seeds:
            run, details = _one_run(w["name"], seed, args.seconds)
            correct = correct and run["correct"]
            for name, m in run["metrics"].items():
                values.setdefault(name, ([], m["unit"]))[0].append(m["value"])
            for name, unit in EXTRA_UNITS.items():
                if name in details:
                    values.setdefault(name, ([], unit))[0].append(details[name])
            for name, value in details.get("raw", {}).items():
                unit = run["metrics"][name]["unit"]
                values.setdefault(f"raw.{name}", ([], unit))[0].append(value)
        result["workloads"][w["name"]] = {
            "correct": correct,
            "metrics": {name: {"unit": unit, **summary(vals), "values": vals}
                        for name, (vals, unit) in values.items()}}
        _print_workload(w["name"], result["workloads"][w["name"]])
    out = Path(args.out) if args.out else (
        ROOT / ".bench_work" / f"results-{time.strftime('%Y%m%d-%H%M%S')}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(f"python {result['python']}, git {result['git']}, "
          f"nproc {result['nproc']}, seeds {seeds}; written to {out}")
    return 0 if all(w["correct"] for w in result["workloads"].values()) else 1


def _print_workload(name, entry):
    print(f"{name}  (correct: {str(entry['correct']).lower()})")
    for metric, s in entry["metrics"].items():
        print(f"  {metric:<18} {s['unit']:<6} n={s['n']:<3} "
              f"median={s['median']:<12.6g} q1={s['q1']:<12.6g} "
              f"q3={s['q3']:.6g}")


def verdict(base, new, better, bound):
    """Verdict on one metric from its base and new summaries.

    ``worse`` when the new median is worse than the base median by more
    than `bound` (a share of the base median); ``unresolved`` when either
    side's own interquartile spread exceeds the bound, unless every new
    value beats every base value; ``better`` when the new median beats the
    base by more than both the bound and the base's own spread; otherwise
    ``same``.
    """
    sign = 1 if better == "higher" else -1
    change = sign * (new["median"] - base["median"]) / base["median"]
    spreads = [(s["q3"] - s["q1"]) / s["median"] for s in (base, new)]
    new_vals, base_vals = new.get("values", []), base.get("values", [])
    all_better = bool(new_vals and base_vals) and (
        min(sign * v for v in new_vals) > max(sign * v for v in base_vals))
    if change < -bound:
        return change, "worse"
    if max(spreads) > bound and not all_better:
        return change, "unresolved"
    if change > bound and change > spreads[0]:
        return change, "better"
    return change, "same"


def compare(base_path, new_path):
    spec = _spec()
    base = json.loads(Path(base_path).read_text(encoding="utf-8"))
    new = json.loads(Path(new_path).read_text(encoding="utf-8"))
    regressions = 0
    print(f"base git {base['git']} seeds {base['seeds']}; "
          f"new git {new['git']} seeds {new['seeds']}")
    for w in spec["workloads"]:
        name = w["name"]
        if name not in base["workloads"] or name not in new["workloads"]:
            print(f"{name}: missing from one side")
            continue
        print(name)
        for m in spec["end_to_end"]:
            b = base["workloads"][name]["metrics"][m["name"]]
            n = new["workloads"][name]["metrics"][m["name"]]
            change, word = verdict(b, n, m["better"], m["bound"])
            regressions += word == "worse"
            print(f"  {m['name']:<14} {b['median']:<12.6g} -> "
                  f"{n['median']:<12.6g} {change:+.1%} (bound {m['bound']:.0%})"
                  f"  {word}")
    return 1 if regressions else 0
