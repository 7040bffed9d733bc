"""Text export of machines: Graphviz DOT and TikZ (automata library).

Output is deterministic: states and transitions are visited in the one
canonical order of `machine._listing` (states by label, transitions by
source, target, input and output), so equal machines export to
identical bytes.
TikZ coordinates are a user-supplied mapping from state labels to points,
each two finite ints, floats or Fractions; a key is read as a label as
`Machine.state` reads one (`machine.as_label`), so 0 and "0" place the
same state; two keys that name one label, or an int too long to write
as a label, are refused.  States without coordinates are placed on a
circle.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from fractions import Fraction

from .errors import ConstructionError, MachineError, shown
from .machine import Machine, _listing, as_label
from .symbols import AbsentType, Digit, Pair, Symbol, format_word

FORMATS = ("dot", "tikz")


def render(machine: Machine, fmt: str, coordinates=None, format_letter=None) -> str:
    if fmt == "dot":
        return _dot(machine)
    if fmt == "tikz":
        if coordinates is not None and not isinstance(coordinates, Mapping):
            raise MachineError(
                f"coordinates must map state labels to points, not a "
                f"{type(coordinates).__name__}")
        points = {}
        for key, xy in (coordinates or {}).items():
            point = _point(key, xy)
            try:
                label = as_label(key)
            except ConstructionError:
                raise MachineError(f"coordinate {shown(key)} cannot be read "
                                   f"as a state label") from None
            if label in points:
                raise MachineError(f"two coordinates name state {label!r}")
            points[label] = point
        return _tikz(machine, points, format_letter or format_letter_plain)
    raise MachineError(
        f"unknown export format {shown(fmt)}; expected one of {FORMATS}")


def _point(label, xy) -> tuple:
    """xy as two floats; MachineError unless it is a tuple or list of two
    finite ints, floats or Fractions (bools are refused)."""
    try:
        if type(xy) in (tuple, list) and {type(v) for v in xy} <= {int, float, Fraction}:
            x, y = map(float, xy)  # OverflowError past the float range
            if math.isfinite(x) and math.isfinite(y):
                return x, y
    except (ValueError, OverflowError):
        pass
    raise MachineError(f"coordinates of {shown(label)} must be two finite numbers")


# ----------------------------------------------------------------------
# DOT
# ----------------------------------------------------------------------

def _quote(s: str) -> str:
    return '"{}"'.format(s.replace("\\", "\\\\").replace('"', '\\"'))


def _word_text(w) -> str:
    return format_word(w) or "ε"


def _dot(machine: Machine) -> str:
    states, transitions = _listing(machine)
    lines = ["digraph machine {", "  rankdir=LR;", "  node [shape=circle];"]
    for i, st in enumerate(states):
        shape = "doublecircle" if st.is_final else "circle"
        text = st.label
        if st.final_output:
            text += " / $:" + _word_text(st.final_output)
        lines.append(f"  {_quote(st.label)} [shape={shape}, label={_quote(text)}];")
        if st.is_initial:
            lines.append(f"  __initial_{i} [shape=point, style=invis];")
            lines.append(f"  __initial_{i} -> {_quote(st.label)};")
    for t in transitions:
        if machine.kind == "transducer":
            label = f"{_word_text(t.input)} | {_word_text(t.output)}"
        else:
            label = _word_text(t.input)
        lines.append(
            f"  {_quote(t.source)} -> {_quote(t.target)} [label={_quote(label)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# TikZ
# ----------------------------------------------------------------------

def format_letter_plain(s: Symbol) -> str:
    if isinstance(s, Digit):
        return str(s)
    if isinstance(s, AbsentType):
        return r"\sim"
    if isinstance(s, Pair):
        return f"({format_letter_plain(s.left)}, {format_letter_plain(s.right)})"
    raise MachineError(f"cannot format {shown(s)}")


def format_letter_negative(s: Symbol) -> str:
    """Render negative digits with an overline, e.g. -1 as \\overline{1}."""
    if isinstance(s, Digit) and s.value < 0:
        return r"\overline{" + str(s).lstrip("-") + "}"
    if isinstance(s, Pair):
        return (f"({format_letter_negative(s.left)}, "
                f"{format_letter_negative(s.right)})")
    return format_letter_plain(s)


def _tex_escape(text: str) -> str:
    # a group keeps a letter that follows it from joining its command
    return text.translate(str.maketrans({
        "{": r"\{", "}": r"\}", "_": r"\_", "#": r"\#", "%": r"\%", "&": r"\&",
        "$": r"\$", "\\": r"{\backslash}", "^": r"{\hat{}}", "~": r"{\sim}"}))


def _tikz_word(w, fmt) -> str:
    return r"\varepsilon" if not w else " ".join(fmt(s) for s in w)


def _tikz(machine: Machine, coordinates, fmt) -> str:
    states, transitions = _listing(machine)
    n = max(len(states), 1)
    ids = {st.label: f"v{i}" for i, st in enumerate(states)}
    lines = [r"\begin{tikzpicture}[auto, initial text=, >=latex]"]
    for i, st in enumerate(states):
        angle = 2.0 * math.pi * i / n  # on a circle, unless placed
        x, y = coordinates.get(st.label, (3.0 * math.cos(angle),
                                          3.0 * math.sin(angle)))
        options = ["state"]
        if st.is_initial:
            options.append("initial")
        if st.is_final:
            options.append("accepting")
        lines.append(
            "  \\node[%s] (%s) at (%.3f, %.3f) {$%s$};"
            % (", ".join(options), ids[st.label], x, y,
               _tex_escape(st.label)))

    # merge parallel transitions into one labeled edge, in listing order
    grouped: dict = {}
    for t in transitions:
        if machine.kind == "transducer":
            label = (f"{_tikz_word(t.input, fmt)} \\mid "
                     f"{_tikz_word(t.output, fmt)}")
        else:
            label = _tikz_word(t.input, fmt)
        grouped.setdefault((t.source, t.target), []).append(label)

    for (source, target), labels in grouped.items():
        if source == target:
            style = "[loop above]"
        elif (target, source) in grouped:
            style = "[bend left]"
        else:
            style = ""
        lines.append(
            f"  \\path[->] ({ids[source]}) edge{style} "
            f"node {{${', '.join(labels)}$}} ({ids[target]});")

    for st in states:
        if st.is_final and st.final_output:
            label = r"\$ \mid " + _tikz_word(st.final_output, fmt)
            lines.append(
                f"  \\path[->] ({ids[st.label]}.45) edge "
                f"node {{${label}$}} ++(45:12mm);")

    lines.append(r"\end{tikzpicture}")
    return "\n".join(lines) + "\n"
