"""Command-line interface over the machine file format.

One verb per invocation; exit status 0 on success, 1 on domain errors
(including a rejected run, unless --allow-reject), 2 on usage errors.
All outputs are deterministic: identical invocations write identical bytes.
Each operation verb writes what one library function returns (the
`MACHINE_VERBS` table, and `final-word-out`), and `analyze shortest-paths`
prints `check-minimality`'s distances without its verdict.
"""

from __future__ import annotations

import argparse
import decimal
import functools
import json
import re
import sys
from fractions import Fraction

from . import analysis, automata, digits, serialize, transducers
from .digits import Expansion, hamming_weight
from .errors import FsmError
from .machine import Machine
from .symbols import format_word, parse_symbol_token, parse_word_text

PRESETS = {
    "naf-acceptor": digits.build_naf_acceptor,
    "naf1": digits.build_naf1,
    "naf2": digits.build_naf2,
    "naf-all": digits.build_naf_all,
    "triple": digits.build_triple,
    "identity": lambda: transducers.identity_transducer([0, 1]),
    "weight": lambda: transducers.weight_transducer(range(-2, 3)),
    "abs": lambda: transducers.abs_transducer([-1, 0, 1]),
    "minus": digits.build_minus,
    "naf3": digits.build_naf3,
    "combined-3n-n": digits.build_combined_3n_n,
    "T": digits.build_T,
    "W": digits.build_W,
    "R": digits.build_R,
}

WEIGHT_FUNCTIONS = {
    "in-minus-out": lambda t: hamming_weight(t.input) - hamming_weight(t.output),
    "out-minus-in": lambda t: hamming_weight(t.output) - hamming_weight(t.input),
    "zero": lambda t: 0,
}

# Each verb that writes the machine one library function builds: the
# function's owner and name, and the machine files it loads, in argument
# order ("--outer" is a required option, "machine" a positional).  The
# function is looked up by name when the verb runs, so the verb calls
# whatever the owner holds then, a tracing wrapper included.
MACHINE_VERBS = {
    "minimize": (automata, "minimize", ("machine",)),
    "determinize": (automata, "determinize", ("machine",)),
    "complement": (automata, "complement", ("machine",)),
    "star": (automata, "kleene_star", ("machine",)),
    "project-output": (transducers, "output_projection", ("machine",)),
    "simplify": (transducers, "simplify", ("machine",)),
    "trim": (Machine, "trim", ("machine",)),
    "intersect": (automata, "intersection", ("left", "right")),
    "union": (automata, "union", ("left", "right")),
    "concat": (automata, "concat", ("left", "right")),
    "product": (transducers, "cartesian_product", ("left", "right")),
    "compose": (transducers, "compose", ("--outer", "--inner")),
}


def _exact(x) -> str:
    """An int or Fraction as str() prints it, at any size: formatting a
    Decimal is exact and not subject to CPython's 4,300-digit limit on
    int-to-str conversion."""
    x = Fraction(x)
    text = format(decimal.Decimal(x.numerator), "f")
    if x.denominator != 1:
        text += "/" + format(decimal.Decimal(x.denominator), "f")
    return text


# The strings int() reads: whitespace (\s less the separators \x1c-\x1f,
# which int() does not strip), a sign, digits with "_" separators.
_INT_TEXT = re.compile(r"[^\S\x1c-\x1f]*[+-]?\d+(_\d+)*[^\S\x1c-\x1f]*")


def integer(text: str) -> int:
    """The int that int(text) reads, at any length: converting through a
    Decimal is exact and not subject to CPython's 4,300-digit limit on
    str-to-int conversion."""
    if not _INT_TEXT.fullmatch(text):
        raise ValueError(f"not an integer: {text!r}")
    return int(decimal.Decimal(text))


def _emit(text: str, path):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _write_machine(m: Machine, path):
    serialize.save(m, path)
    print(f"{len(m.states)} states, {len(m.transitions)} transitions -> {path}")


def _load(path) -> Machine:
    try:
        return serialize.load(path)
    except OSError as exc:
        raise FsmError(f"cannot read {path}: {exc}") from exc


def _parse_input(args) -> tuple:
    if args.digits_of is not None:
        return digits.binary_digits(args.digits_of)
    if args.input is not None:
        return parse_word_text(args.input)
    raise FsmError("provide --input or --digits-of")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process and shared by every `main` call:
    argparse reads the output streams and the terminal width only when it
    prints, and each parse returns a new namespace."""
    parser = argparse.ArgumentParser(
        prog="fsmkit",
        description="Finite automata and transducers with exact analyses.")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("build", help="write a prebuilt machine")
    p.add_argument("preset")
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("run", help="process an input word")
    p.add_argument("machine")
    p.add_argument("--input", help="comma-separated letters, e.g. 0,1,1,1")
    p.add_argument("--digits-of", type=integer,
                   help="use the binary digits of this number as input")
    p.add_argument("--eval-offset", type=int, default=None,
                   help="also print the value of the output expansion, "
                        "least significant digit weighing 2**offset")
    p.add_argument("--allow-reject", action="store_true",
                   help="exit 0 even when the input is rejected")

    for verb, (_, _, files) in MACHINE_VERBS.items():
        p = sub.add_parser(verb)
        for file in files:
            if file.startswith("-"):
                p.add_argument(file, required=True)
            else:
                p.add_argument(file)
        p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("final-word-out")
    p.add_argument("machine")
    p.add_argument("--letter", required=True)
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("export")
    p.add_argument("machine")
    p.add_argument("--format", required=True, choices=("dot", "tikz"))
    p.add_argument("--coords", help="JSON file mapping labels to [x, y]")
    p.add_argument("--negative-overline", action="store_true",
                   help="render negative digits with an overline (tikz)")
    p.add_argument("-o", "--output")

    analyze = sub.add_parser("analyze").add_subparsers(dest="analysis",
                                                       required=True)

    p = analyze.add_parser("count")
    p.add_argument("machine")
    p.add_argument("--length", type=int, required=True)

    p = analyze.add_parser("recurrence")
    p.add_argument("machine")

    p = analyze.add_parser("equivalent")
    p.add_argument("left")
    p.add_argument("right")

    for verb in ("shortest-paths", "check-minimality"):
        p = analyze.add_parser(verb)
        p.add_argument("machine")
        p.add_argument("--weight", default="in-minus-out",
                       choices=sorted(WEIGHT_FUNCTIONS))

    for verb in ("density", "moments"):
        p = analyze.add_parser(verb)
        p.add_argument("machine")

    return parser


def _cmd_build(args) -> int:
    if args.preset not in PRESETS:
        raise FsmError(f"unknown preset {args.preset!r}; "
                       f"choose from {', '.join(sorted(PRESETS))}")
    _write_machine(PRESETS[args.preset](), args.output)
    return 0


def _cmd_run(args) -> int:
    m = _load(args.machine)
    result = m.process(_parse_input(args))
    print(f"accepted: {'true' if result.accepted else 'false'}")
    print(f"stop: {result.stop_state}")
    print("output: " + format_word(result.output))
    if args.eval_offset is not None:
        value = Expansion(result.output, args.eval_offset).value()
        print(f"value: {_exact(value)}")
    if not result.accepted and not args.allow_reject:
        return 1
    return 0


def _cmd_op(args) -> int:
    if args.verb == "final-word-out":
        out = transducers.with_final_word_out(
            _load(args.machine), parse_symbol_token(args.letter))
    else:
        owner, name, files = MACHINE_VERBS[args.verb]
        out = getattr(owner, name)(
            *(_load(getattr(args, file.lstrip("-"))) for file in files))
    _write_machine(out, args.output)
    return 0


def _load_coordinates(path) -> dict:
    """The JSON object of a coordinates file, whose entries the TikZ export
    checks; a file that is not JSON, or that nests arrays past the
    recursion limit, is not a coordinates file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            # integers are read as floats, so a huge one becomes inf
            raw = json.load(handle, parse_int=float)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise FsmError(f"not a coordinates file: {exc}") from exc
    if not isinstance(raw, dict):
        raise FsmError("coordinates must be a JSON object mapping labels "
                       "to [x, y]")
    return raw


def _cmd_export(args) -> int:
    m = _load(args.machine)
    coordinates = None
    if args.coords:
        coordinates = _load_coordinates(args.coords)
    format_letter = None
    if args.negative_overline:
        from .export import format_letter_negative
        format_letter = format_letter_negative
    text = m.export(args.format, coordinates=coordinates,
                    format_letter=format_letter)
    _emit(text, args.output)
    return 0


def _cmd_analyze(args) -> int:
    if args.analysis == "count":
        print(_exact(automata.count_words(_load(args.machine), args.length)))
    elif args.analysis == "recurrence":
        rec = automata.word_count_recurrence(_load(args.machine))
        terms = " + ".join(f"{_exact(c)}*a(n-{i + 1})"
                           for i, c in enumerate(rec.coefficients))
        print(f"a(n) = {terms}")
        print("initial: " + ", ".join(map(_exact, rec.initial_terms)))
    elif args.analysis == "equivalent":
        flag = automata.is_equivalent(_load(args.left), _load(args.right))
        print(f"equivalent: {'true' if flag else 'false'}")
    elif args.analysis in ("shortest-paths", "check-minimality"):
        flag, paths = analysis.check_minimality(
            _load(args.machine), WEIGHT_FUNCTIONS[args.weight])
        if args.analysis == "check-minimality":
            print(f"minimal: {'true' if flag else 'false'}")
        for label in sorted(paths.distance):
            print(f"{label}: {paths.distance[label]}")
    elif args.analysis == "density":
        print(_exact(analysis.expected_density(_load(args.machine))))
    else:  # moments
        moments = analysis.asymptotic_moments(_load(args.machine))
        print(f"expectation: {_exact(moments.expectation)}")
        print(f"variance: {_exact(moments.variance)}")
        print(f"covariance: {_exact(moments.covariance)}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = {"build": _cmd_build, "run": _cmd_run, "export": _cmd_export,
               "analyze": _cmd_analyze}.get(args.verb, _cmd_op)
    try:
        return command(args)
    except (FsmError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
