"""fsmkit benchmark: one seeded workload per run, or a whole report.

    python3 perfbench/run.py --workload transduce --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all [--seed 1 --seconds 20 --out F]
    python3 perfbench/run.py --compare BASE.json NEW.json
    python3 perfbench/run.py --sweep

A workload run imports fsmkit from ``src/`` of the checkout this file
sits in, measures set-up time in fresh interpreters, then runs whole
rounds of operations until ``--seconds`` of wall time have passed and
enough operations have run for the 90th-percentile latency to have ten
samples beyond it.  Every result is checked.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and the
metrics (end-to-end ones with ``--trace 0``, per-layer ones with
``--trace 1``).  Files go to ``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
from stats import TAIL_PERCENTILE, min_samples_for_tail, percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 7
SPEED_PROBES = 5
PROBE_TIMEOUT_S = 120


def load_library():
    """Put the checkout's src/ first on sys.path and import fsmkit from it."""
    if not (SRC / "fsmkit" / "__init__.py").is_file():
        raise SystemExit(f"error: no fsmkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import fsmkit
    if Path(fsmkit.__file__).resolve().parent != SRC / "fsmkit":
        raise SystemExit(f"error: fsmkit was imported from {fsmkit.__file__}")


def probe_setup(workload, seed):
    """Set-up times, in seconds, of `SETUP_PROBES` fresh interpreters: from
    process start until the workload's inputs and machines are ready.
    Returns the raw times and the times corrected for machine speed by the
    speed probes each child runs once it is ready."""
    times, corrected = [], []
    argv = [sys.executable, str(HERE / "run.py"), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE,
                                text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            child_probe = proc.stdout.read()
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe of {workload} failed")
        times.append(elapsed)
        corrected.append(elapsed * speed.REFERENCE_S / float(child_probe))
    return times, corrected


class Pass:
    """Latencies, speed probes and failures of a sequence of operations."""

    def __init__(self):
        self.latencies_ns = []
        self.probes = []
        self.failures = []
        self.rounds = 0

    def corrected_ns(self):
        """Latencies corrected for the machine's speed (see speed.py)."""
        return [ns * f for ns, f in zip(self.latencies_ns,
                                         speed.factors(self.probes))]


def run_pass(workload, seconds, min_ops, rounds=None, recorder=None):
    """Run whole rounds: exactly `rounds` of them, or until both `seconds`
    of wall time and `min_ops` operations are reached."""
    result = Pass()
    start = time.perf_counter()
    while True:
        for op in workload.round(result.rounds):
            run_op(op, result, recorder)
        result.rounds += 1
        if rounds is not None:
            if result.rounds >= rounds:
                return result
        elif (time.perf_counter() - start >= seconds
              and len(result.latencies_ns) >= min_ops):
            return result


def run_op(op, into, recorder=None):
    into.probes.append(speed.probe())
    t0 = time.perf_counter_ns()
    try:
        value = op.run() if recorder is None else recorder.run_op(op.run)
    except Exception as exc:  # an operation that raises counts as failed
        into.latencies_ns.append(time.perf_counter_ns() - t0)
        into.failures.append(f"{op.kind}: raised {type(exc).__name__}: {exc}")
        return
    into.latencies_ns.append(time.perf_counter_ns() - t0)
    try:
        problem = op.check(value)
    except Exception as exc:  # a result the check cannot read is wrong
        problem = f"check raised {type(exc).__name__}: {exc}"
    if problem:
        into.failures.append(f"{op.kind}: {problem}")


def metric(value, unit):
    return {"value": value, "unit": unit}


def _timings(setup_times, latencies_ns):
    lat_ms = [ns / 1e6 for ns in latencies_ns]
    return {"setup_s": statistics.median(setup_times),
            "ops_per_s": len(lat_ms) / (sum(lat_ms) / 1e3),
            "op_p50_ms": percentile(lat_ms, 50),
            "op_p90_ms": percentile(lat_ms, TAIL_PERCENTILE)}


def end_to_end(setup, measured, totals):
    """Gated metrics from speed-corrected timings; the raw ones, the
    quartiles of corrected latency and the transduce-only rates go to the
    details."""
    raw_setup, corrected_setup = setup
    corrected = measured.corrected_ns()
    units = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
             "op_p90_ms": "ms"}
    metrics = {name: metric(value, units[name]) for name, value
               in _timings(corrected_setup, corrected).items()}
    metrics["peak_rss_mb"] = metric(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
    details = {"ops": len(corrected), "rounds": measured.rounds,
               "raw": _timings(raw_setup, measured.latencies_ns),
               "setup_samples_s": raw_setup,
               "op_ms": {"q1": percentile(corrected, 25) / 1e6,
                         "q3": percentile(corrected, 75) / 1e6}}
    if "letters" in totals:  # transduce only
        details["letters_per_s"] = totals["letters"] / totals["run_ns"] * 1e9
        details["eval_digits_per_s"] = (totals["eval_digits"]
                                        / totals["eval_ns"] * 1e9)
    return metrics, details


def run_workload(args):
    load_library()
    from workloads import WORKLOADS
    import tracing

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_probe:
            WORKLOADS[args.workload](args.seed, workdir).close()
            print("ready", flush=True)
            # the machine's speed on this child's CPU, for the correction
            print(statistics.median(speed.probe() for _ in range(SPEED_PROBES)))
            return 0
        workload = WORKLOADS[args.workload](args.seed, workdir)
        try:
            warm = Pass()  # lazy set-up inside the library, and checked too
            run_op(workload.round(0)[0], warm)
            workload.totals.clear()  # the rates cover the measured pass only
            if not args.trace:
                setup = probe_setup(args.workload, args.seed)
                measured = run_pass(workload, args.seconds, min_samples_for_tail())
                metrics, details = end_to_end(setup, measured,
                                              workload.totals)
                passes = [warm, measured]
                correct = True
            else:
                plain = run_pass(workload, args.seconds / 2, 1)
                recorder = tracing.Recorder()
                uninstall = tracing.install(recorder)
                try:
                    traced = run_pass(workload, 0, 0, rounds=plain.rounds,
                                      recorder=recorder)
                finally:
                    uninstall()
                recorder.write(WORK / f"trace-{args.workload}-{args.seed}.jsonl")
                overhead = (sum(traced.corrected_ns())
                            / sum(plain.corrected_ns()) - 1)
                metrics = {name: metric(value, tracing.unit_of(name))
                           for name, value in tracing.layer_metrics(
                               recorder.spans, overhead).items()}
                problems = tracing.span_problems(recorder.spans)
                for problem in problems[:20]:
                    print(f"BAD SPAN {problem}")
                correct = not problems
                details = {"ops": len(traced.latencies_ns),
                           "rounds": traced.rounds, "spans": len(recorder.spans)}
                passes = [warm, plain, traced]
        finally:
            workload.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(p.latencies_ns) for p in passes)
    failures = [f for p in passes for f in p.failures]
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    details["failed_frac"] = len(failures) / attempted
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{attempted} operations, {len(failures)} failed")
    for name, m in metrics.items():
        print(f"  {name:<42} {m['value']:.6g} {m['unit']}")
    print("details: " + json.dumps(details))
    print(json.dumps({"correct": correct and not failures,
                      "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload",
                        choices=("casestudy", "transduce", "exact", "blowup"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--all", action="store_true",
                        help="run every workload in fresh processes and "
                             "print each end-to-end metric's summary")
    parser.add_argument("--out", help="result file of --all")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    parser.add_argument("--sweep", action="store_true",
                        help="size sweep, reported and never gated")
    parser.add_argument("--sweep-point", nargs=2, metavar=("KIND", "SIZE"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.compare or args.all:
        import report
        if args.compare:
            return report.compare(*args.compare)
        return report.run_all(args)
    if args.sweep or args.sweep_point:
        load_library()
        import sweep
        if args.sweep_point:
            return sweep.point(args.sweep_point[0], int(args.sweep_point[1]),
                               args.seed)
        return sweep.run(args.seed)
    if not args.workload:
        parser.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
