import argparse
import decimal
import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

import fsmkit
from fsmkit import automata, digits, export, serialize, transducers
from fsmkit.cli import build_parser, main
from fsmkit.machine import Machine

from test_golden import GOLDEN


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def build(tmp_path, capsys, preset, name=None):
    path = tmp_path / f"{name or preset}.json"
    code, out, _ = run_cli(capsys, "build", preset, "-o", str(path))
    assert code == 0
    return path


def test_build_presets_report_sizes(tmp_path, capsys):
    path = tmp_path / "T.json"
    code, out, _ = run_cli(capsys, "build", "T", "-o", str(path))
    assert code == 0
    assert out.startswith("9 states, 18 transitions")
    assert path.exists()
    code, out, _ = run_cli(capsys, "build", "naf-all",
                           "-o", str(tmp_path / "nall.json"))
    assert code == 0 and out.startswith("6 states")
    code, out, _ = run_cli(capsys, "build", "identity",
                           "-o", str(tmp_path / "id.json"))
    assert code == 0 and out.startswith("1 states")


def test_build_unknown_preset_fails(tmp_path, capsys):
    code, _, err = run_cli(capsys, "build", "nope",
                           "-o", str(tmp_path / "x.json"))
    assert code == 1
    assert "unknown preset" in err


def test_build_output_is_byte_stable(tmp_path, capsys):
    first = build(tmp_path, capsys, "W", "w1")
    second = build(tmp_path, capsys, "W", "w2")
    assert first.read_bytes() == second.read_bytes()


def test_run_rejects_then_accepts(tmp_path, capsys):
    naf1 = build(tmp_path, capsys, "naf1")
    code, out, _ = run_cli(capsys, "run", str(naf1), "--digits-of", "14")
    assert code == 1
    assert "accepted: false" in out and "stop: 2" in out
    code, out, _ = run_cli(capsys, "run", str(naf1), "--digits-of", "14",
                           "--allow-reject")
    assert code == 0

    completed = tmp_path / "nafc.json"
    code, _, _ = run_cli(capsys, "final-word-out", str(naf1), "--letter", "0",
                         "-o", str(completed))
    assert code == 0
    code, out, _ = run_cli(capsys, "run", str(completed), "--digits-of", "14",
                           "--eval-offset", "0")
    assert code == 0
    assert "output: 0,-1,0,0,1" in out
    assert "value: 14" in out


def test_final_word_out_writes_an_automaton_file_for_an_automaton(
        tmp_path, capsys):
    acceptor = build(tmp_path, capsys, "naf-acceptor")
    completed, result = tmp_path / "completed.json", tmp_path / "result.json"
    code, _, _ = run_cli(capsys, "final-word-out", str(acceptor), "--letter",
                         "0", "-o", str(completed))
    assert code == 0
    assert json.loads(completed.read_text())["kind"] == "automaton"
    for verb in ("minimize", "complement"):
        code, _, err = run_cli(capsys, verb, str(completed), "-o", str(result))
        assert (code, err) == (0, "")
    code, out, _ = run_cli(capsys, "analyze", "equivalent", str(acceptor),
                           str(completed))
    assert (code, out) == (0, "equivalent: true\n")


def test_run_T_evaluates_at_quarter_offset(tmp_path, capsys):
    t_path = build(tmp_path, capsys, "T")
    code, out, _ = run_cli(capsys, "run", str(t_path), "--digits-of", "14",
                           "--eval-offset", "-2")
    assert code == 0
    assert "value: 14" in out


def test_run_with_explicit_word(tmp_path, capsys):
    acc = build(tmp_path, capsys, "naf-acceptor")
    code, out, _ = run_cli(capsys, "run", str(acc), "--input", "0,-1,0,0,1")
    assert code == 0 and "accepted: true" in out


def test_run_unreadable_file(tmp_path, capsys):
    code, _, err = run_cli(capsys, "run", str(tmp_path / "missing.json"),
                           "--input", "0")
    assert code == 1 and "error" in err


def test_compose_pipeline_behaves_like_preset(tmp_path, capsys):
    minus = build(tmp_path, capsys, "minus")
    combined = build(tmp_path, capsys, "combined-3n-n")
    composed = tmp_path / "composed.json"
    code, _, _ = run_cli(capsys, "compose", "--outer", str(minus),
                         "--inner", str(combined), "-o", str(composed))
    assert code == 0
    code, out, _ = run_cli(capsys, "run", str(composed), "--digits-of", "14",
                           "--eval-offset", "-1")
    assert code == 0
    assert "output: 0,0,-1,0,0,1" in out
    assert "value: 14" in out


def test_minimize_is_file_idempotent(tmp_path, capsys):
    acc = build(tmp_path, capsys, "naf-acceptor")
    once = tmp_path / "m1.json"
    twice = tmp_path / "m2.json"
    assert run_cli(capsys, "minimize", str(acc), "-o", str(once))[0] == 0
    assert run_cli(capsys, "minimize", str(once), "-o", str(twice))[0] == 0
    assert once.read_bytes() == twice.read_bytes()


def test_projection_pipeline_builds_R(tmp_path, capsys):
    t_path = build(tmp_path, capsys, "T")
    projected = tmp_path / "proj.json"
    minimized = tmp_path / "projmin.json"
    assert run_cli(capsys, "project-output", str(t_path),
                   "-o", str(projected))[0] == 0
    assert run_cli(capsys, "minimize", str(projected),
                   "-o", str(minimized))[0] == 0
    r_path = build(tmp_path, capsys, "R")
    code, out, _ = run_cli(capsys, "analyze", "equivalent", str(minimized),
                           str(r_path))
    assert code == 0
    assert out.strip() == "equivalent: true"


def test_trim_and_boolean_verbs(tmp_path, capsys):
    acc = build(tmp_path, capsys, "naf-acceptor")
    trimmed = tmp_path / "trimmed.json"
    assert run_cli(capsys, "trim", str(acc), "-o", str(trimmed))[0] == 0
    assert len(serialize.load(trimmed).states) == 2
    comp = tmp_path / "comp.json"
    assert run_cli(capsys, "complement", str(acc), "-o", str(comp))[0] == 0
    inter = tmp_path / "inter.json"
    assert run_cli(capsys, "intersect", str(acc), str(comp),
                   "-o", str(inter))[0] == 0
    code, out, _ = run_cli(capsys, "analyze", "count", str(inter),
                           "--length", "4")
    assert code == 0 and out.strip() == "0"


def test_analyze_count_and_recurrence(tmp_path, capsys):
    acc = build(tmp_path, capsys, "naf-acceptor")
    code, out, _ = run_cli(capsys, "analyze", "count", str(acc),
                           "--length", "2")
    assert code == 0 and out.strip() == "5"
    code, out, _ = run_cli(capsys, "analyze", "recurrence", str(acc))
    assert code == 0
    assert "a(n) = 1*a(n-1) + 2*a(n-2)" in out
    assert "initial: 1, 3" in out


def test_analyze_minimality_and_paths(tmp_path, capsys):
    nall = build(tmp_path, capsys, "naf-all")
    code, out, _ = run_cli(capsys, "analyze", "check-minimality", str(nall),
                           "--weight", "in-minus-out")
    assert code == 0
    assert out.splitlines()[0] == "minimal: true"
    assert "-2: 1" in out
    code, out2, _ = run_cli(capsys, "analyze", "shortest-paths", str(nall),
                            "--weight", "in-minus-out")
    assert code == 0


def test_analyze_density_and_moments(tmp_path, capsys):
    w_path = build(tmp_path, capsys, "W")
    code, out, _ = run_cli(capsys, "analyze", "density", str(w_path))
    assert code == 0 and out.strip() == "5/9"
    code, out, _ = run_cli(capsys, "analyze", "moments", str(w_path))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "expectation: 5/9"
    assert lines[1] == "variance: 44/243"
    assert lines[2] == "covariance: 0"


def test_analyze_errors_exit_one(tmp_path, capsys):
    naf1 = build(tmp_path, capsys, "naf1")
    id_path = build(tmp_path, capsys, "identity")
    code, _, err = run_cli(capsys, "analyze", "equivalent", str(naf1),
                           str(id_path))
    assert code == 1 and "error" in err


def test_export_dot_and_tikz(tmp_path, capsys):
    id_path = build(tmp_path, capsys, "identity")
    code, out, _ = run_cli(capsys, "export", str(id_path), "--format", "dot")
    assert code == 0
    assert out.startswith("digraph")
    assert out.count('label="0"') == 1

    t_path = build(tmp_path, capsys, "T")
    coords = tmp_path / "coords.json"
    coords.write_text(json.dumps({str(i): [float(i), 0.0] for i in range(9)}))
    out_file = tmp_path / "T.tex"
    code, _, _ = run_cli(capsys, "export", str(t_path), "--format", "tikz",
                         "--coords", str(coords), "-o", str(out_file))
    assert code == 0
    text = out_file.read_text()
    assert text.count("\\node[") == 9


def test_export_repeats_identically(tmp_path, capsys):
    t_path = build(tmp_path, capsys, "T")
    first = tmp_path / "a.dot"
    second = tmp_path / "b.dot"
    assert run_cli(capsys, "export", str(t_path), "--format", "dot",
                   "-o", str(first))[0] == 0
    assert run_cli(capsys, "export", str(t_path), "--format", "dot",
                   "-o", str(second))[0] == 0
    assert first.read_bytes() == second.read_bytes()


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["build"])  # missing arguments
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["no-such-verb"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["run", "T.json", "--digits-of", "1.5"])
    assert info.value.code == 2
    assert "invalid integer value: '1.5'" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (("run", "T.json"), "error: provide --input or --digits-of\n"),
    (("export", "T.json", "--format", "tikz", "--coords", "text.json"),
     "error: not a coordinates file: Expecting value"),
    (("export", "T.json", "--format", "tikz", "--coords", "list.json"),
     "error: coordinates must be a JSON object mapping labels to [x, y]\n"),
], ids=["run-without-input", "coordinates-not-json", "coordinates-list"])
def test_refusals_exit_one_in_process(tmp_path, capsys, monkeypatch, argv,
                                      message):
    build(tmp_path, capsys, "T")
    (tmp_path / "text.json").write_text("not json")
    (tmp_path / "list.json").write_text("[[0, 0]]")
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(message)


def test_every_preset_round_trips(tmp_path, capsys):
    presets = ["naf-acceptor", "naf1", "naf2", "naf-all", "triple",
               "identity", "weight", "abs", "minus", "naf3",
               "combined-3n-n", "T", "W", "R"]
    for preset in presets:
        path = build(tmp_path, capsys, preset)
        machine = serialize.load(path)
        again = tmp_path / f"{preset}-again.json"
        serialize.save(machine, again)
        assert path.read_bytes() == again.read_bytes()


# Each verb writes exactly the file of the library call on the same inputs.
# Each entry is the construction, then the verb's arguments, where a name
# in MACHINE_FILES stands for that file: A.json is the NAF acceptor, N.json
# its nondeterministic union with itself, the others are presets.
MACHINE_FILES = {"A", "N", "T", "triple", "identity", "minus", "comb",
                 "naf1"}
OP_VERBS = {
    "minimize": (automata.minimize, "N"),
    "determinize": (automata.determinize, "N"),
    "complement": (automata.complement, "N"),
    "star": (automata.kleene_star, "A"),
    "project-output": (transducers.output_projection, "T"),
    "simplify": (transducers.simplify, "T"),
    "trim": (Machine.trim, "A"),
    "intersect": (automata.intersection, "A", "N"),
    "union": (automata.union, "A", "N"),
    "concat": (automata.concat, "N", "A"),
    "product": (transducers.cartesian_product, "triple", "identity"),
    "compose": (transducers.compose, "--outer", "minus", "--inner", "comb"),
    "final-word-out": (lambda m: transducers.with_final_word_out(m, 0),
                       "naf1", "--letter", "0"),
}


def build_machine_files(tmp_path, capsys):
    a = serialize.load(build(tmp_path, capsys, "naf-acceptor", "A"))
    serialize.save(automata.union(a, a), tmp_path / "N.json")
    for preset, name in (("T", "T"), ("triple", "triple"),
                         ("identity", "identity"), ("minus", "minus"),
                         ("combined-3n-n", "comb"), ("naf1", "naf1")):
        build(tmp_path, capsys, preset, name)


def verb_arguments(tmp_path, words):
    """The machine files among a verb's argument words, and its argv."""
    paths = [tmp_path / f"{w}.json" for w in words if w in MACHINE_FILES]
    argv = [str(tmp_path / f"{w}.json") if w in MACHINE_FILES else w
            for w in words]
    return paths, argv


@pytest.mark.parametrize("verb", OP_VERBS)
def test_op_verb_writes_what_the_library_builds(tmp_path, capsys, verb):
    construction, *words = OP_VERBS[verb]
    build_machine_files(tmp_path, capsys)
    paths, argv = verb_arguments(tmp_path, words)
    out = tmp_path / "out.json"
    code, _, _ = run_cli(capsys, verb, *argv, "-o", str(out))
    assert code == 0
    assert out.read_text(encoding="utf-8") == serialize.dumps(
        construction(*map(serialize.load, paths)))


# The attribute holding the library function each machine-writing verb
# calls.  Tracing replaces these attributes, so a verb must look its
# function up when it runs.
MACHINE_VERB_CALLS = {
    "minimize": (automata, "minimize"),
    "determinize": (automata, "determinize"),
    "complement": (automata, "complement"),
    "star": (automata, "kleene_star"),
    "project-output": (transducers, "output_projection"),
    "simplify": (transducers, "simplify"),
    "trim": (Machine, "trim"),
    "intersect": (automata, "intersection"),
    "union": (automata, "union"),
    "concat": (automata, "concat"),
    "product": (transducers, "cartesian_product"),
    "compose": (transducers, "compose"),
}


@pytest.mark.parametrize("verb", MACHINE_VERB_CALLS)
def test_machine_verbs_call_the_library_at_run_time(tmp_path, capsys,
                                                    monkeypatch, verb):
    owner, name = MACHINE_VERB_CALLS[verb]
    _, *words = OP_VERBS[verb]
    build_machine_files(tmp_path, capsys)
    paths, argv = verb_arguments(tmp_path, words)
    calls = []

    def spy(*machines):
        calls.append(machines)
        return machines[0]

    monkeypatch.setattr(owner, name, spy)
    out = tmp_path / "out.json"
    code, _, _ = run_cli(capsys, verb, *argv, "-o", str(out))
    assert code == 0
    assert calls == [tuple(map(serialize.load, paths))]
    assert out.read_bytes() == paths[0].read_bytes()


# Every verb's arguments, in order: option strings (or the dest of a
# positional), required, choices, default, type and action class.
HELP = ("-h/--help", False, None, "==SUPPRESS==", None, "_HelpAction")
MACHINE = ("machine", True, None, None, None, "_StoreAction")
LEFT = ("left", True, None, None, None, "_StoreAction")
RIGHT = ("right", True, None, None, None, "_StoreAction")
OUTPUT = ("-o/--output", True, None, None, None, "_StoreAction")
CLI_SURFACE = {
    "": [
        HELP,
        ("verb", True,
         ["build", "run", "minimize", "determinize", "complement", "star",
          "project-output", "simplify", "trim", "intersect", "union", "concat",
          "product", "compose", "final-word-out", "export", "analyze"],
         None, None, "_SubParsersAction"),
    ],
    "build": [
        HELP,
        ("preset", True, None, None, None, "_StoreAction"),
        OUTPUT,
    ],
    "run": [
        HELP,
        MACHINE,
        ("--input", False, None, None, None, "_StoreAction"),
        ("--digits-of", False, None, None, "integer", "_StoreAction"),
        ("--eval-offset", False, None, None, "int", "_StoreAction"),
        ("--allow-reject", False, None, False, None, "_StoreTrueAction"),
    ],
    "minimize": [HELP, MACHINE, OUTPUT],
    "determinize": [HELP, MACHINE, OUTPUT],
    "complement": [HELP, MACHINE, OUTPUT],
    "star": [HELP, MACHINE, OUTPUT],
    "project-output": [HELP, MACHINE, OUTPUT],
    "simplify": [HELP, MACHINE, OUTPUT],
    "trim": [HELP, MACHINE, OUTPUT],
    "intersect": [HELP, LEFT, RIGHT, OUTPUT],
    "union": [HELP, LEFT, RIGHT, OUTPUT],
    "concat": [HELP, LEFT, RIGHT, OUTPUT],
    "product": [HELP, LEFT, RIGHT, OUTPUT],
    "compose": [
        HELP,
        ("--outer", True, None, None, None, "_StoreAction"),
        ("--inner", True, None, None, None, "_StoreAction"),
        OUTPUT,
    ],
    "final-word-out": [
        HELP,
        MACHINE,
        ("--letter", True, None, None, None, "_StoreAction"),
        OUTPUT,
    ],
    "export": [
        HELP,
        MACHINE,
        ("--format", True, ["dot", "tikz"], None, None, "_StoreAction"),
        ("--coords", False, None, None, None, "_StoreAction"),
        ("--negative-overline", False, None, False, None, "_StoreTrueAction"),
        ("-o/--output", False, None, None, None, "_StoreAction"),
    ],
    "analyze": [
        HELP,
        ("analysis", True,
         ["count", "recurrence", "equivalent", "shortest-paths",
          "check-minimality", "density", "moments"],
         None, None, "_SubParsersAction"),
    ],
    "analyze count": [
        HELP,
        MACHINE,
        ("--length", True, None, None, "int", "_StoreAction"),
    ],
    "analyze recurrence": [HELP, MACHINE],
    "analyze equivalent": [HELP, LEFT, RIGHT],
    "analyze shortest-paths": [
        HELP,
        MACHINE,
        ("--weight", False,
         ["in-minus-out", "out-minus-in", "zero"],
         "in-minus-out", None, "_StoreAction"),
    ],
    "analyze check-minimality": [
        HELP,
        MACHINE,
        ("--weight", False,
         ["in-minus-out", "out-minus-in", "zero"],
         "in-minus-out", None, "_StoreAction"),
    ],
    "analyze density": [HELP, MACHINE],
    "analyze moments": [HELP, MACHINE],
}



def parser_surface(parser, path=""):
    """(verb path, its arguments) for `parser` and, depth first in order,
    each of its subparsers."""
    rows = [(path, [("/".join(a.option_strings) or a.dest, a.required,
                     None if a.choices is None else list(a.choices),
                     a.default, getattr(a.type, "__name__", None),
                     type(a).__name__) for a in parser._actions])]
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for verb, sub in action.choices.items():
                rows += parser_surface(sub, f"{path} {verb}".strip())
    return rows


def test_cli_surface_is_pinned():
    assert parser_surface(build_parser()) == list(CLI_SURFACE.items())


@pytest.mark.parametrize("preset", ["T", "combined-3n-n"])
def test_export_negative_overline_prints_the_library_render(tmp_path, capsys,
                                                           preset):
    # T writes negative digits, combined-3n-n pair letters
    path = build(tmp_path, capsys, preset)
    code, out, _ = run_cli(capsys, "export", str(path), "--format", "tikz",
                           "--negative-overline")
    assert code == 0
    assert out == export.render(serialize.load(path), "tikz",
                                format_letter=export.format_letter_negative)
    assert ("\\overline{" in out) == (preset == "T")


def run_fresh(tmp_path, *argv, **env):
    """The CLI in a fresh process, so nothing a test set up in this one
    (a cached preset, a caught exception) hides what a user would see."""
    env = dict(os.environ, **env,
               PYTHONPATH=str(Path(fsmkit.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "fsmkit.cli", *argv],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=60)


def test_console_script_entry_point_writes_the_golden_file(tmp_path):
    # console_main is the [project.scripts] target; it reads sys.argv and
    # exits with main's status
    script = ("import sys\n"
              "from fsmkit.cli import console_main\n"
              "sys.argv = ['fsmkit', 'build', 'T', '-o', 'T.json']\n"
              "console_main()\n")
    env = dict(os.environ, PYTHONPATH=str(Path(fsmkit.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    digest = hashlib.sha256((tmp_path / "T.json").read_bytes()).hexdigest()
    assert digest == GOLDEN["T"][0]


def test_bad_state_cap_exits_one_without_traceback(tmp_path):
    done = run_fresh(tmp_path, "build", "triple", "-o", "t.json",
                     FSMKIT_STATE_CAP="x")
    assert done.returncode == 1
    assert "FSMKIT_STATE_CAP" in done.stderr
    assert "Traceback" not in done.stderr


def test_deeply_nested_json_exits_one_without_traceback(tmp_path):
    (tmp_path / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
    done = run_fresh(tmp_path, "analyze", "density", "deep.json")
    assert done.returncode == 1
    assert "not a machine file" in done.stderr
    assert "Traceback" not in done.stderr


def parse_exact(text):
    """The int or Fraction a CLI line prints, read in chunks of 1,000
    digits, below CPython's limit on str-to-int conversion."""
    def integer(digits):
        sign = -1 if digits.startswith("-") else 1
        digits = digits.lstrip("-")
        n = 0
        for i in range(0, len(digits), 1000):
            chunk = digits[i:i + 1000]
            n = n * 10 ** len(chunk) + int(chunk)
        return sign * n

    numerator, _, denominator = text.partition("/")
    return Fraction(integer(numerator), integer(denominator or "1"))


def test_exact_values_past_the_int_digit_limit_print_in_full(tmp_path,
                                                             capsys):
    acceptor = serialize.load(build(tmp_path, capsys, "naf-acceptor", "A"))
    machine_T = serialize.load(build(tmp_path, capsys, "T"))
    done = run_fresh(tmp_path, "analyze", "count", "A.json",
                     "--length", "20000")
    assert done.returncode == 0 and "Traceback" not in done.stderr
    count = done.stdout.strip()
    assert len(count) > 4300
    assert parse_exact(count) == automata.count_words(acceptor, 20000)
    output = machine_T.transduce(digits.binary_digits(14))
    for offset in (100_000, -100_000):
        done = run_fresh(tmp_path, "run", "T.json", "--digits-of", "14",
                         "--eval-offset", str(offset))
        assert done.returncode == 0 and "Traceback" not in done.stderr
        value = done.stdout.splitlines()[-1].removeprefix("value: ")
        assert len(value) > 4300
        assert parse_exact(value) == \
            digits.Expansion(output, offset).value()


def test_digits_of_past_the_int_digit_limit(tmp_path, capsys):
    build(tmp_path, capsys, "T")
    n = 7 ** 23_665  # 20,000 decimal digits, about 66,400 bits
    text = format(decimal.Decimal(n), "f")
    assert len(text) == 20_000
    done = run_fresh(tmp_path, "run", "T.json", "--digits-of", text,
                     "--eval-offset", "-2")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "accepted: true"
    assert lines[-1] == "value: " + text


def test_non_utf8_machine_file_exits_one_without_traceback(tmp_path):
    (tmp_path / "bad.json").write_bytes(b"\xff\xfe")
    done = run_fresh(tmp_path, "analyze", "moments", "bad.json")
    assert done.returncode == 1
    assert "not a machine file" in done.stderr
    assert "Traceback" not in done.stderr


def test_huge_integer_in_a_machine_file_exits_one_without_traceback(
        tmp_path):
    doc = {"kind": "automaton", "alphabet": [0, 1],
           "states": [{"label": "a", "initial": True, "final": True}],
           "transitions": []}
    text = json.dumps(doc).replace("[0, 1]", "[0, " + "1" * 5001 + "]")
    (tmp_path / "big.json").write_text(text)
    done = run_fresh(tmp_path, "minimize", "big.json", "-o", "o.json",
                     PYTHONINTMAXSTRDIGITS="4300")
    assert done.returncode == 1
    assert "not a machine file" in done.stderr
    assert "Traceback" not in done.stderr
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("content, message", [
    (b"not json", "not a coordinates file"),
    (b"\xff\xfe", "not a coordinates file"),
    (b"[[0, 0]]", "JSON object"),
    (b'{"0": [1]}', "'0'"),
    (b'{"a": "x"}', "'a'"),
    (b'{"0": [1, 2, 3]}', "'0'"),
    (b'{"0": [1e999, 2]}', "'0'"),
    (b'{"0": [1' + b"0" * 400 + b', 2]}', "'0'"),
    (b'{"0": [true, 2]}', "'0'"),
], ids=["not-json", "not-utf8", "list", "one-number", "string",
        "three-numbers", "overflow", "huge-integer", "boolean"])
def test_bad_coordinates_exit_one_without_traceback(tmp_path, capsys,
                                                    content, message):
    build(tmp_path, capsys, "T")
    (tmp_path / "coords.json").write_bytes(content)
    done = run_fresh(tmp_path, "export", "T.json", "--format", "tikz",
                     "--coords", "coords.json")
    assert done.returncode == 1
    assert message in done.stderr
    assert "Traceback" not in done.stderr
    assert done.stdout == ""


# One process, several verbs: each call must print what a fresh `fsmkit`
# process prints, so the parser shared between calls carries nothing over.
ONE_PROCESS_CALLS = [
    ("build", "W", "-o", "W.json"),
    ("run", "naf1.json", "--digits-of", "14"),  # rejected: exit 1
    ("build",),  # usage error: exit 2
    ("analyze", "count", "A.json", "--length", "12"),
    ("export", "T.json", "--format", "tikz"),
    ("analyze", "equivalent", "A.json", "A.json"),
]


def run_in_process(argv):
    """Exit code, stdout and stderr of one `main` call, each call writing
    to streams of its own."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_calls_in_one_process_match_fresh_processes(tmp_path, capsys,
                                                     monkeypatch):
    for preset, name in (("naf1", "naf1"), ("naf-acceptor", "A"),
                         ("T", "T")):
        build(tmp_path, capsys, preset, name)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    fresh = {}
    for argv in ONE_PROCESS_CALLS:
        done = run_fresh(tmp_path, *argv, COLUMNS="80")
        fresh[argv] = (done.returncode, done.stdout, done.stderr)
    assert [code for code, _, _ in fresh.values()] == [0, 1, 2, 0, 0, 0]
    for argv in ONE_PROCESS_CALLS + ONE_PROCESS_CALLS[::-1]:
        assert run_in_process(argv) == fresh[argv], argv


# Bad input to every file-reading verb, in fresh processes: a usage error
# exits 2, any other fault exits 1, and neither prints a traceback.
# A.json is an automaton, T.json a transducer, N.json the nondeterministic
# union of A with itself, I2.json T with a second initial state, E.json
# T with an empty alphabet, minus.json a transducer reading pairs,
# comb.json one writing pairs and deep.json 100,000 nested JSON arrays.
BAD_INPUTS = {
    "missing-run": ("run", "missing.json", "--input", "0"),
    "missing-minimize": ("minimize", "missing.json", "-o", "out.json"),
    "missing-determinize": ("determinize", "missing.json", "-o", "out.json"),
    "missing-complement": ("complement", "missing.json", "-o", "out.json"),
    "missing-star": ("star", "missing.json", "-o", "out.json"),
    "missing-project-output": ("project-output", "missing.json",
                               "-o", "out.json"),
    "missing-simplify": ("simplify", "missing.json", "-o", "out.json"),
    "missing-trim": ("trim", "missing.json", "-o", "out.json"),
    "missing-intersect": ("intersect", "missing.json", "A.json",
                          "-o", "out.json"),
    "missing-union": ("union", "A.json", "missing.json", "-o", "out.json"),
    "missing-concat": ("concat", "missing.json", "A.json", "-o", "out.json"),
    "missing-product": ("product", "missing.json", "T.json",
                        "-o", "out.json"),
    "missing-compose": ("compose", "--outer", "T.json",
                        "--inner", "missing.json", "-o", "out.json"),
    "missing-final-word-out": ("final-word-out", "missing.json",
                               "--letter", "0", "-o", "out.json"),
    "missing-export": ("export", "missing.json", "--format", "dot"),
    "missing-count": ("analyze", "count", "missing.json", "--length", "3"),
    "missing-recurrence": ("analyze", "recurrence", "missing.json"),
    "missing-equivalent": ("analyze", "equivalent", "A.json",
                           "missing.json"),
    "missing-shortest-paths": ("analyze", "shortest-paths", "missing.json"),
    "missing-check-minimality": ("analyze", "check-minimality",
                                 "missing.json"),
    "missing-density": ("analyze", "density", "missing.json"),
    "missing-moments": ("analyze", "moments", "missing.json"),
    "transducer-minimize": ("minimize", "T.json", "-o", "out.json"),
    "transducer-union": ("union", "A.json", "T.json", "-o", "out.json"),
    "transducer-count": ("analyze", "count", "T.json", "--length", "3"),
    "transducer-recurrence": ("analyze", "recurrence", "T.json"),
    "transducer-equivalent": ("analyze", "equivalent", "T.json", "A.json"),
    "automaton-project-output": ("project-output", "A.json",
                                 "-o", "out.json"),
    "negative-length": ("analyze", "count", "A.json", "--length", "-1"),
    "huge-length": ("analyze", "count", "A.json", "--length", str(10**20)),
    "float-digits-of": ("run", "T.json", "--digits-of", "1e5"),
    "negative-digits-of": ("run", "T.json", "--digits-of", "-5"),
    "huge-eval-offset": ("run", "T.json", "--digits-of", "14",
                         "--eval-offset", str(10**20)),
    "large-eval-offset": ("run", "T.json", "--digits-of", "14",
                          "--eval-offset", str(10**15)),
    "nfa-density": ("analyze", "density", "N.json"),
    "nfa-moments": ("analyze", "moments", "N.json"),
    "two-initial-shortest-paths": ("analyze", "shortest-paths", "I2.json"),
    "two-initial-check-minimality": ("analyze", "check-minimality",
                                     "I2.json"),
    "empty-alphabet-run": ("run", "E.json", "--input", "0"),
    "empty-alphabet-density": ("analyze", "density", "E.json"),
    "unknown-preset": ("build", "no-such-preset", "-o", "out.json"),
    "no-run-input": ("run", "T.json"),
    "pair-inputs-moments": ("analyze", "moments", "minus.json"),
    "pair-outputs-density": ("analyze", "density", "comb.json"),
    "deep-coords": ("export", "T.json", "--format", "tikz",
                    "--coords", "deep.json"),
}

# What some of the cases above must print; each of them exits 1.
BAD_INPUT_MESSAGES = {
    "no-run-input": "provide --input or --digits-of",
    "negative-digits-of": "binary digits are defined for n >= 0",
    "pair-inputs-moments": "input sums need digit inputs",
    "pair-outputs-density": "output sums need digit outputs",
    "deep-coords": "not a coordinates file",
}


@pytest.mark.parametrize("case", BAD_INPUTS)
def test_bad_input_exits_without_traceback(tmp_path, capsys, case):
    a = serialize.load(build(tmp_path, capsys, "naf-acceptor", "A"))
    build(tmp_path, capsys, "minus")
    build(tmp_path, capsys, "combined-3n-n", "comb")
    (tmp_path / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
    serialize.save(automata.union(a, a), tmp_path / "N.json")
    text = build(tmp_path, capsys, "T").read_text()
    doc = json.loads(text)
    next(row for row in doc["states"] if not row["initial"])["initial"] = True
    (tmp_path / "I2.json").write_text(json.dumps(doc))
    doc = json.loads(text)
    doc["alphabet"] = []
    (tmp_path / "E.json").write_text(json.dumps(doc))
    done = run_fresh(tmp_path, *BAD_INPUTS[case])
    assert done.returncode in (1, 2)
    assert done.stderr
    if case in BAD_INPUT_MESSAGES:
        assert done.returncode == 1
        assert BAD_INPUT_MESSAGES[case] in done.stderr
    assert "Traceback" not in done.stderr
    assert not (tmp_path / "out.json").exists()


# The README pipeline, one fresh process per verb.  Identity hashes depend
# on memory addresses and string hashes on PYTHONHASHSEED, so a set of
# symbols or labels iterated in hash order would show up here as files or
# stdout that differ between the three runs.
README_PIPELINE = [
    ("build", "T", "-o", "T.json"),
    ("project-output", "T.json", "-o", "RT.json"),
    ("minimize", "RT.json", "-o", "R.json"),
    ("analyze", "recurrence", "R.json"),
    ("export", "R.json", "--format", "dot", "-o", "R.dot"),
    ("export", "T.json", "--format", "tikz", "-o", "T.tex"),
    ("build", "W", "-o", "W.json"),
    ("analyze", "moments", "W.json"),
]

# Allocates `n` objects, kept alive, before fsmkit is imported, which moves
# the addresses of every object fsmkit creates afterwards.
CLI_AFTER_ALLOCATIONS = """
import sys
ballast = [object() for _ in range(int(sys.argv[1]))]
from fsmkit.cli import main
sys.exit(main(sys.argv[2:]))
"""


def run_readme_pipeline(directory, allocations, hash_seed):
    directory.mkdir()
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=str(Path(fsmkit.__file__).parents[1]))
    stdout = []
    for argv in README_PIPELINE:
        done = subprocess.run(
            [sys.executable, "-c", CLI_AFTER_ALLOCATIONS, str(allocations),
             *argv],
            cwd=directory, env=env, capture_output=True, text=True,
            timeout=60)
        assert done.returncode == 0, (argv, done.stderr)
        stdout.append(done.stdout)
    files = {p.name: p.read_bytes() for p in sorted(directory.iterdir())}
    return stdout, files


def test_readme_pipeline_output_is_independent_of_hashes_and_addresses(
        tmp_path):
    runs = [run_readme_pipeline(tmp_path / name, allocations, seed)
            for name, allocations, seed in (("seed0", 0, "0"),
                                            ("seed1", 0, "1"),
                                            ("ballast", 100_000, "0"))]
    assert set(runs[0][1]) == {"T.json", "RT.json", "R.json", "R.dot",
                               "T.tex", "W.json"}
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]
