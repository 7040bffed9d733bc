"""Spans around calls into fsmkit, for the traced run only.

``install(recorder)`` replaces each public function of the library's
modules, wherever a module looks the name up (``charpoly`` is imported by
name into ``analysis`` and ``automata``, the CLI keeps the build functions in its
``PRESETS`` table), and the traced ``Machine`` and ``Expansion`` methods on
their classes, with wrappers that record one span per call.  The returned
function puts every original back.  Untraced runs never call ``install``.

A span is ``[name, start_ns, end_ns, parent, op, extra]``: ``parent`` is
the index of the enclosing span (-1 for an operation's root span), ``op``
the operation id, ``extra`` a size the wrapper measured on the call (states
out, letters in, matrix order, bytes).  Calls made outside an operation
are not recorded.  The self time of a span is its duration minus the
durations of its direct children; calls are nested and single-threaded,
so the self times of an operation's spans add up to the duration of its
root span.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time

MODULES = ("symbols", "machine", "automata", "transducers", "analysis",
           "polynomial", "digits", "serialize", "export", "cli")
ROOT = "bench.op"

#: Public functions left unwrapped because they run once per letter or per
#: symbol inside the calls that are wrapped; their time counts there.  The
#: same holds for MPoly arithmetic inside charpoly and asymptotic_moments.
PER_LETTER = {
    "symbols": {"symbol", "word_key", "digit_value", "pair_depth",
                "parse_symbol_token"},
    "machine": {"as_label"},
    "serialize": {"encode_symbol", "decode_symbol", "encode_word",
                  "decode_word"},
    "export": {"format_letter_plain", "format_letter_negative"},
    # argparse set-up is part of what cli.main's self time measures
    "cli": {"build_parser", "console_main"},
}

#: Methods wrapped on their classes, with the span names they record.
METHODS = {
    ("machine", "Machine"): {"__init__": "machine.init",
                             "process": "machine.process",
                             "transduce": "machine.transduce",
                             "accepts": "machine.accepts",
                             "accessible": "machine.accessible",
                             "coaccessible": "machine.coaccessible",
                             "trim": "machine.trim",
                             "relabeled": "machine.relabeled"},
    ("digits", "Expansion"): {"value": "digits.Expansion.value",
                              "digit_string": "digits.Expansion.digit_string"},
}


class Recorder:
    """Spans of one traced run, kept in memory until the run ends."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1

    def run_op(self, thunk):
        """Call thunk() as one operation under a root span."""
        self.op += 1
        span = [ROOT, 0, 0, -1, self.op, None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter_ns()
        try:
            return thunk()
        finally:
            span[2] = time.perf_counter_ns()
            self.stack.pop()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _wrap(recorder, name, fn, measure):
    spans, stack, clock = recorder.spans, recorder.stack, time.perf_counter_ns

    def traced(*args, **kwargs):
        if not stack:
            return fn(*args, **kwargs)
        index = len(spans)
        span = [name, 0, 0, stack[-1], spans[stack[0]][4], None]
        spans.append(span)
        stack.append(index)
        span[1] = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = clock()
            stack.pop()
        if measure is not None:
            span[5] = measure(args, result)
        return result

    traced.__name__ = getattr(fn, "__name__", name)
    traced.__doc__ = fn.__doc__
    traced.__wrapped__ = fn
    return traced


def _sized(value):
    try:
        return len(value)
    except TypeError:
        return None


def _measure_for(name, machine_cls):
    if name == "machine.process":
        return lambda args, result: _sized(args[1])
    if name == "polynomial.charpoly":
        return lambda args, result: len(args[0])
    if name == "serialize.dumps":
        return lambda args, result: len(result.encode("utf-8"))
    if name == "serialize.loads":
        return lambda args, result: len(args[0].encode("utf-8"))
    return (lambda args, result: len(result.states)
            if isinstance(result, machine_cls) else None)


def public_functions(module):
    """Public plain functions defined in `module` (not generators)."""
    return {n: f for n, f in vars(module).items()
            if inspect.isfunction(f) and f.__module__ == module.__name__
            and not n.startswith("_") and not inspect.isgeneratorfunction(f)}


def install(recorder):
    """Wrap the library for `recorder`; returns a function that unwraps."""
    package = sys.modules["fsmkit"]
    modules = {m: importlib.import_module(f"fsmkit.{m}") for m in MODULES}
    machine_cls = modules["machine"].Machine
    wrapped = {}
    for short, module in modules.items():
        for fname, fn in public_functions(module).items():
            if fname in PER_LETTER.get(short, ()):
                continue
            name = f"{short}.{fname}"
            wrapped[id(fn)] = _wrap(recorder, name, fn,
                                    _measure_for(name, machine_cls))
    undo = []
    for holder in [package, *modules.values(), sys.modules["fsmkit.errors"]]:
        for attr, value in list(vars(holder).items()):
            if id(value) in wrapped:
                undo.append((holder, attr, value))
                setattr(holder, attr, wrapped[id(value)])
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if id(item) in wrapped:
                        undo.append((value, key, item))
                        value[key] = wrapped[id(item)]
    for (short, cls_name), methods in METHODS.items():
        cls = getattr(modules[short], cls_name)
        for attr, name in methods.items():
            fn = vars(cls)[attr]
            undo.append((cls, attr, fn))
            setattr(cls, attr, _wrap(recorder, name, fn,
                                     _measure_for(name, machine_cls)))

    def uninstall():
        for holder, key, original in reversed(undo):
            if isinstance(holder, dict):
                holder[key] = original
            else:
                setattr(holder, key, original)

    return uninstall


# ----------------------------------------------------------------------
# from spans to per-layer metrics
# ----------------------------------------------------------------------

def self_times(spans):
    """Self time of every span: its duration minus its children's."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def span_problems(spans):
    """What is wrong with the nesting of `spans`, as a list of messages
    (empty when nothing is): every span must end after it starts, lie
    inside its parent, carry its parent's operation id and have a self
    time that is not negative."""
    problems = []
    for index, ((name, start, end, parent, op, _), own) in enumerate(
            zip(spans, self_times(spans))):
        if end < start:
            problems.append(f"span {index} ({name}) ends before it starts")
        if parent >= 0:
            if parent >= index:
                problems.append(f"span {index} ({name}) comes before "
                                f"its parent")
                continue
            _, p_start, p_end, _, p_op, _ = spans[parent]
            if start < p_start or end > p_end:
                problems.append(f"span {index} ({name}) is not inside "
                                f"its parent")
            if op != p_op:
                problems.append(f"span {index} ({name}) has op {op}, "
                                f"its parent op {p_op}")
        if own < 0:
            problems.append(f"span {index} ({name}) has negative self time")
    return problems


def unit_of(name):
    """Unit of a per-layer metric, from the last part of its name."""
    measure = name.rsplit(".", 1)[1]
    if measure == "self_s":
        return "s"
    if measure == "ns_per_letter":
        return "ns"
    if measure == "bytes":
        return "bytes"
    if measure in ("kept_ratio", "share", "overhead_frac"):
        return "ratio"
    return "count"


def module_of(name):
    return name.split(".", 1)[0]


def layer_metrics(spans, overhead_frac):
    """Every per-layer metric, from the spans of a traced run and its
    measured tracing overhead (traced ÷ untraced time − 1)."""
    own = self_times(spans)
    roots = [i for i, s in enumerate(spans) if s[3] < 0]
    ops = len(roots)
    op_ns = sum(spans[i][2] - spans[i][1] for i in roots)
    if ops == 0 or op_ns <= 0:
        raise ValueError("no traced operation")

    self_ns, calls, extra_sum, extra_max = {}, {}, {}, {}
    for span, ns in zip(spans, own):
        name, extra = span[0], span[5]
        self_ns[name] = self_ns.get(name, 0) + ns
        calls[name] = calls.get(name, 0) + 1
        if extra is not None:
            extra_sum[name] = extra_sum.get(name, 0) + extra
            extra_max[name] = max(extra_max.get(name, 0), extra)

    def self_s(*names):
        return sum(self_ns.get(n, 0) for n in names) / 1e9 / ops

    def self_prefix(prefix):
        return sum(v for k, v in self_ns.items()
                   if k.startswith(prefix)) / 1e9 / ops

    def per_call(name):
        return extra_sum.get(name, 0) / calls[name] if calls.get(name) else 0.0

    def inside(index, parents):
        """Whether span `index` has an ancestor named in `parents`."""
        parent = spans[index][3]
        while parent >= 0:
            if spans[parent][0] in parents:
                return True
            parent = spans[parent][3]
        return False

    wrappers = ("digits.naf_of", "digits.three_half_naf_of")
    wrapper_calls = sum(calls.get(n, 0) for n in wrappers)
    builds_in_wrappers = sum(
        1 for i, s in enumerate(spans)
        if s[0].startswith("digits.build_") and inside(i, wrappers))
    recurrences = calls.get("automata.word_count_recurrence", 0)
    counts_in_recurrence = sum(
        1 for s in spans if s[0] == "automata.count_words"
        and spans[s[3]][0] == "automata.word_count_recurrence")
    minimize_in = sum(  # states of minimize's completed determinized input
        s[5] or 0 for s in spans
        if s[0] == "automata.complete" and spans[s[3]][0] == "automata.minimize")
    letters = extra_sum.get("machine.process", 0)

    m = {
        "symbols.word.calls": calls.get("symbols.word", 0) / ops,
        "symbols.word.self_s": self_s("symbols.word"),
        "digits.binary_digits.self_s": self_s("digits.binary_digits"),
        "machine.process.self_s": self_s("machine.process"),
        "machine.process.ns_per_letter":
            self_ns.get("machine.process", 0) / letters if letters else 0.0,
        "digits.Expansion.value.self_s": self_s("digits.Expansion.value"),
        "digits.Expansion.digit_string.self_s":
            self_s("digits.Expansion.digit_string"),
        "machine.init.calls_per_op": calls.get("machine.init", 0) / ops,
        "machine.init.self_s": self_s("machine.init"),
        "machine.relabeled.self_s": self_s("machine.relabeled"),
        "machine.trim.self_s": self_s("machine.trim", "machine.accessible",
                                      "machine.coaccessible"),
        "digits.build.self_s": self_prefix("digits.build_"),
        "digits.build.calls_per_wrapper":
            builds_in_wrappers / wrapper_calls if wrapper_calls else 0.0,
    }
    for fn in ("from_transition_function", "cartesian_product",
               "with_final_word_out", "output_projection", "compose",
               "simplify"):
        m[f"transducers.{fn}.self_s"] = self_s(f"transducers.{fn}")
    m["transducers.compose.out_states"] = per_call("transducers.compose")
    m["transducers.simplify.out_states"] = per_call("transducers.simplify")
    m["automata.determinize.self_s"] = self_s("automata.determinize")
    m["automata.determinize.out_states"] = per_call("automata.determinize")
    m["automata.minimize.self_s"] = self_s("automata.minimize")
    m["automata.minimize.kept_ratio"] = (
        extra_sum.get("automata.minimize", 0) / minimize_in
        if minimize_in else 0.0)
    for fn in ("union", "concat", "kleene_star", "complement",
               "intersection", "is_equivalent", "count_words"):
        m[f"automata.{fn}.self_s"] = self_s(f"automata.{fn}")
    m["automata.count_words.calls_per_recurrence"] = (
        counts_in_recurrence / recurrences if recurrences else 0.0)
    m["polynomial.charpoly.self_s"] = self_s("polynomial.charpoly")
    m["polynomial.charpoly.calls"] = calls.get("polynomial.charpoly", 0) / ops
    m["polynomial.charpoly.max_n"] = extra_max.get("polynomial.charpoly", 0)
    for fn in ("asymptotic_moments", "stationary_distribution",
               "expected_density", "bellman_ford"):
        m[f"analysis.{fn}.self_s"] = self_s(f"analysis.{fn}")
    m["analysis.terminal_scc.self_s"] = self_s(
        "analysis.terminal_scc", "analysis.terminal_sccs",
        "analysis.strongly_connected_components")
    m["serialize.dumps.self_s"] = self_s("serialize.dumps")
    m["serialize.loads.self_s"] = self_s("serialize.loads")
    m["serialize.bytes"] = (extra_sum.get("serialize.dumps", 0)
                            + extra_sum.get("serialize.loads", 0)) / ops
    m["export.render.self_s"] = self_s("export.render")
    m["cli.main.self_s"] = self_s("cli.main")

    share = {module: 0 for module in MODULES + ("bench",)}
    for name, ns in self_ns.items():
        share[module_of(name)] += ns
    for module, ns in share.items():
        m[f"{module}.share"] = ns / op_ns
    m["trace.overhead_frac"] = overhead_frac
    return m
