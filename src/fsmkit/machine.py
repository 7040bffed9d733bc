"""The machine data model and its run semantics.

A Machine is an immutable value covering both automata (transitions carry
no output) and transducers (transitions write output words; states may
carry a final output word that is appended when a run stops there).  All
operations return new machines, so values can be shared freely.

States are identified by their label, a display string that is unique
within a machine.  Transition inputs are words of length at most one; a
length-zero input is an epsilon transition, which the nondeterministic
construction layers use and deterministic execution refuses.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .errors import (ConstructionError, InvalidInputError, MachineError,
                     StateCapError)
from .symbols import Word, format_word, symbol, word, word_key

AUTOMATON = "automaton"
TRANSDUCER = "transducer"

DEFAULT_STATE_CAP = 10_000
STATE_CAP_ENV = "FSMKIT_STATE_CAP"


@dataclass(frozen=True)
class State:
    label: str
    is_initial: bool = False
    is_final: bool = False
    final_output: Word = ()


@dataclass(frozen=True)
class Transition:
    source: str
    target: str
    input: Word
    output: Word = ()

    def __str__(self):
        inp = format_word(self.input) or "ε"
        out = format_word(self.output) or "ε"
        return f"{self.source} --{inp}|{out}--> {self.target}"


@dataclass(frozen=True)
class RunResult:
    """Outcome of processing an input word: acceptance flag, the label of
    the state where the run stopped, and the accumulated output word (the
    output is reported whether or not the run accepted; the stop state's
    final output is appended only on acceptance)."""

    accepted: bool
    stop_state: str
    output: Word


@dataclass(frozen=True)
class WeightedDigraph:
    """State graph with one exact-rational weighted edge per transition."""

    vertices: tuple
    edges: tuple  # of (source, target, Fraction)


def as_label(x) -> str:
    return x if isinstance(x, str) else str(x)


class Machine:
    """An automaton or transducer; immutable after construction."""

    def __init__(self, kind, states, transitions, input_alphabet,
                 output_alphabet=None):
        if kind not in (AUTOMATON, TRANSDUCER):
            raise ConstructionError(f"unknown machine kind {kind!r}")
        alphabet = tuple(sorted({s for s in map(symbol, input_alphabet)},
                                key=lambda s: s.sort_key()))
        if not alphabet:
            raise ConstructionError("the input alphabet must not be empty")
        out_alphabet = None
        if output_alphabet is not None:
            out_alphabet = tuple(sorted({s for s in map(symbol, output_alphabet)},
                                        key=lambda s: s.sort_key()))

        self.kind = kind
        self.states = tuple(states)
        self.transitions = tuple(transitions)
        self.input_alphabet = alphabet
        self.output_alphabet = out_alphabet

        self._by_label = {}
        for st in self.states:
            if not isinstance(st, State):
                raise ConstructionError(f"not a state: {st!r}")
            if st.label in self._by_label:
                raise ConstructionError(f"duplicate state label {st.label!r}")
            if st.final_output and not st.is_final:
                raise ConstructionError(
                    f"non-final state {st.label!r} carries a final output")
            self._by_label[st.label] = st
        self._index = {st.label: i for i, st in enumerate(self.states)}

        self._out = {st.label: [] for st in self.states}
        alphaset = set(alphabet)
        for t in self.transitions:
            if t.source not in self._by_label or t.target not in self._by_label:
                raise ConstructionError(f"transition endpoints unknown: {t}")
            if len(t.input) > 1:
                raise ConstructionError(f"transition input longer than one letter: {t}")
            for s in t.input:
                if s not in alphaset:
                    raise ConstructionError(
                        f"input symbol {s} outside the alphabet in transition {t}")
            if out_alphabet is not None:
                for s in t.output:
                    if s not in out_alphabet:
                        raise ConstructionError(
                            f"output symbol {s} outside the output alphabet in {t}")
            self._out[t.source].append(t)

        if kind == AUTOMATON:
            for t in self.transitions:
                if t.output:
                    raise ConstructionError(f"automaton transition with output: {t}")
            for st in self.states:
                if st.final_output:
                    raise ConstructionError(
                        f"automaton state {st.label!r} with final output")

        self._step_map = None  # lazy (label, symbol) -> Transition
        self._chain = None  # lazy analysis._terminal_chain result

    # ------------------------------------------------------------------
    # basic views
    # ------------------------------------------------------------------

    def __repr__(self):
        return (f"<{self.kind}: {len(self.states)} states, "
                f"{len(self.transitions)} transitions>")

    def state(self, label) -> State:
        label = as_label(label)
        try:
            return self._by_label[label]
        except KeyError:
            raise MachineError(f"no state labeled {label!r}") from None

    def has_state(self, label) -> bool:
        return as_label(label) in self._by_label

    def initial_states(self):
        return tuple(st for st in self.states if st.is_initial)

    def final_states(self):
        return tuple(st for st in self.states if st.is_final)

    def transitions_from(self, label):
        return tuple(self._out[as_label(label)])

    def _canonical(self):
        state_set = frozenset(
            (st.label, st.is_initial, st.is_final, st.final_output)
            for st in self.states)
        trans = tuple(sorted(
            ((t.source, t.target, t.input, t.output) for t in self.transitions),
            key=lambda r: (r[0], r[1], word_key(r[2]), word_key(r[3]))))
        return (self.kind, self.input_alphabet, state_set, trans)

    def __eq__(self, other):
        if not isinstance(other, Machine):
            return NotImplemented
        return self._canonical() == other._canonical()

    __hash__ = None

    # ------------------------------------------------------------------
    # predicates
    # ------------------------------------------------------------------

    def is_deterministic(self) -> bool:
        """Single initial state, no epsilon inputs, at most one transition
        per (state, letter)."""
        try:
            self._deterministic_steps()
        except MachineError:
            return False
        return True

    def is_complete(self) -> bool:
        """Deterministic with exactly one transition per (state, letter)."""
        return (self.is_deterministic() and len(self._step_map)
                == len(self.states) * len(self.input_alphabet))

    def _deterministic_steps(self):
        """The (label, letter) -> Transition map of a deterministic
        machine, built once; any other machine raises MachineError."""
        if self._step_map is not None:
            return self._step_map
        initials = self.initial_states()
        if len(initials) != 1:
            raise MachineError(
                f"a deterministic run needs exactly one initial state, "
                f"found {len(initials)}")
        steps = {}
        for t in self.transitions:
            if len(t.input) == 0:
                raise MachineError(f"epsilon transition blocks execution: {t}")
            key = (t.source, t.input[0])
            if key in steps:
                raise MachineError(
                    f"nondeterministic on state {t.source!r}, letter {t.input[0]}")
            steps[key] = t
        self._step_map = steps
        return steps

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------

    def process(self, input_word) -> RunResult:
        """Run the machine on a word.

        Follows transitions letter by letter from the single initial state.
        The run accepts when every letter was consumed and the stop state is
        final; if some letter has no transition the run stops there and
        rejects.  Rejection is a value, not an error.
        """
        steps = self._deterministic_steps()
        label = self.initial_states()[0].label
        out = []
        for sym in word(input_word):
            t = steps.get((label, sym))
            if t is None:
                return RunResult(False, label, tuple(out))
            out.extend(t.output)
            label = t.target
        st = self._by_label[label]
        if st.is_final:
            out.extend(st.final_output)
            return RunResult(True, label, tuple(out))
        return RunResult(False, label, tuple(out))

    def _run_from(self, label, w):
        """Follow letters of w from `label`; returns (stop label, output,
        consumed everything?).  Shared by composition and completion."""
        steps = self._deterministic_steps()
        out = []
        for sym in w:
            t = steps.get((label, sym))
            if t is None:
                return label, tuple(out), False
            out.extend(t.output)
            label = t.target
        return label, tuple(out), True

    def transduce(self, input_word) -> Word:
        """Output word of an accepting run; rejection raises."""
        result = self.process(input_word)
        if not result.accepted:
            raise InvalidInputError("invalid input sequence")
        return result.output

    def accepts(self, input_word) -> bool:
        return self.process(input_word).accepted

    # ------------------------------------------------------------------
    # incremental construction (returning new machines)
    # ------------------------------------------------------------------

    def add_state(self, label, is_initial=False, is_final=False,
                  final_output=()) -> "Machine":
        label = as_label(label)
        if label in self._by_label:
            raise ConstructionError(f"duplicate state label {label!r}")
        st = State(label, is_initial, is_final, word(final_output))
        return Machine(self.kind, self.states + (st,), self.transitions,
                       self.input_alphabet, self.output_alphabet)

    def add_transition(self, source, target, input_word, output_word=None) -> "Machine":
        source, target = as_label(source), as_label(target)
        for endpoint in (source, target):
            if endpoint not in self._by_label:
                raise ConstructionError(f"unknown transition endpoint {endpoint!r}")
        t = Transition(source, target, word(input_word), word(output_word))
        return Machine(self.kind, self.states, self.transitions + (t,),
                       self.input_alphabet, self.output_alphabet)

    # ------------------------------------------------------------------
    # trimming
    # ------------------------------------------------------------------

    def accessible(self) -> "Machine":
        """Restrict to states reachable from the initial states."""
        return self._restrict(bfs_levels(
            (st.label for st in self.initial_states()),
            lambda here: (t.target for t in self._out[here])))

    def coaccessible(self) -> "Machine":
        """Restrict to states from which some final state is reachable."""
        rev = {st.label: [] for st in self.states}
        for t in self.transitions:
            rev[t.target].append(t.source)
        return self._restrict(bfs_levels(
            (st.label for st in self.final_states()), rev.__getitem__))

    def trim(self) -> "Machine":
        return self.accessible().coaccessible()

    def _restrict(self, keep) -> "Machine":
        states = tuple(st for st in self.states if st.label in keep)
        transitions = tuple(t for t in self.transitions
                            if t.source in keep and t.target in keep)
        return Machine(self.kind, states, transitions,
                       self.input_alphabet, self.output_alphabet)

    # ------------------------------------------------------------------
    # relabeling
    # ------------------------------------------------------------------

    def relabeled(self) -> "Machine":
        """Rename states 0..n-1 in breadth-first order from the initial
        states, following transitions in canonical (input, output) order;
        unreachable states keep their relative order at the end."""
        def outgoing(here):
            return (t.target for t in sorted(
                self._out[here],
                key=lambda t: (word_key(t.input), word_key(t.output),
                               self._index[t.target])))

        reached = bfs_levels((st.label for st in self.initial_states()),
                             outgoing)
        order = list(reached)
        order += [st.label for st in self.states if st.label not in reached]
        mapping = {old: str(i) for i, old in enumerate(order)}
        states = tuple(
            State(mapping[old], self._by_label[old].is_initial,
                  self._by_label[old].is_final, self._by_label[old].final_output)
            for old in order)
        transitions = tuple(
            Transition(mapping[t.source], mapping[t.target], t.input, t.output)
            for t in self.transitions)
        return Machine(self.kind, states, transitions,
                       self.input_alphabet, self.output_alphabet)

    # ------------------------------------------------------------------
    # graph view and export
    # ------------------------------------------------------------------

    def digraph(self, edge_weight: Callable[[Transition], object]) -> WeightedDigraph:
        """One weighted edge per transition; weights become exact rationals."""
        vertices = tuple(st.label for st in self.states)
        edges = tuple((t.source, t.target, Fraction(edge_weight(t)))
                      for t in self.transitions)
        return WeightedDigraph(vertices, edges)

    def export(self, fmt: str, coordinates=None, format_letter=None) -> str:
        from . import export as _export
        return _export.render(self, fmt, coordinates=coordinates,
                              format_letter=format_letter)


def _state_cap(explicit=None) -> int:
    """The most states an exploration may discover: `explicit` when given,
    else the FSMKIT_STATE_CAP environment variable, else 10**4."""
    if explicit is not None:
        return explicit
    raw = os.environ.get(STATE_CAP_ENV)
    if not raw:
        return DEFAULT_STATE_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise StateCapError(
            f"{STATE_CAP_ENV} must be a positive integer, got {raw!r}")
    return cap


def _pair_label(pair) -> str:
    return f"({pair[0]},{pair[1]})"


def explore(kind, alphabet, starts, successors, name, final,
            output_alphabet=None, cap=None) -> Machine:
    """Build a machine breadth-first from the state keys `starts`.

    `successors(key)` yields (input word, target key, output word) for each
    transition leaving a state, in the order the transitions are listed;
    `name(key)` labels a state once, when it is discovered; `final(key)` is
    None for a non-final state and its final output word otherwise.  States
    are listed in discovery order; discovering more than the state cap
    (see `_state_cap`) raises StateCapError."""
    cap = _state_cap(cap)
    labels = {key: name(key) for key in dict.fromkeys(starts)}
    order = list(labels)
    initial_count = len(order)
    transitions = []
    for here in order:  # order grows while it is walked
        source = labels[here]
        for inp, target, out in successors(here):
            if target not in labels:
                if len(order) >= cap:
                    raise StateCapError(
                        f"exploration exceeded the state cap of {cap}")
                labels[target] = name(target)
                order.append(target)
            transitions.append(Transition(source, labels[target], inp, out))
    states = []
    for i, key in enumerate(order):
        final_output = final(key)
        states.append(State(labels[key], i < initial_count,
                            final_output is not None, final_output or ()))
    return Machine(kind, states, transitions, alphabet, output_alphabet)


def bfs_levels(starts, neighbours) -> dict:
    """Breadth-first distance of every vertex reachable from `starts`, in
    discovery order; `neighbours(v)` iterates the vertices one step from v."""
    level = dict.fromkeys(starts, 0)
    queue = deque(level)
    while queue:
        here = queue.popleft()
        step = level[here] + 1
        for v in neighbours(here):
            if v not in level:
                level[v] = step
                queue.append(v)
    return level


def build_machine(transitions, initial_labels, final_labels, input_alphabet,
                  kind=TRANSDUCER, output_alphabet=None) -> Machine:
    """Assemble a machine from a list of (source, target, input, output)
    rows.  States are created from endpoint labels in order of first
    appearance; labels listed as initial or final but absent from the rows
    are created too (so an empty row list still yields a usable machine).
    Inputs and outputs are word-like: None is the empty word, an int a
    single letter, a list a whole word.
    """
    initial = [as_label(x) for x in initial_labels]
    final = [as_label(x) for x in final_labels]
    order: list = []
    seen = set()

    def note(label):
        if label not in seen:
            seen.add(label)
            order.append(label)

    rows = []
    for row in transitions:
        if len(row) == 3:
            source, target, inp = row
            outp = None
        elif len(row) == 4:
            source, target, inp, outp = row
        else:
            raise ConstructionError(f"transition row must have 3 or 4 entries: {row!r}")
        source, target = as_label(source), as_label(target)
        note(source)
        note(target)
        rows.append(Transition(source, target, word(inp), word(outp)))
    for label in initial + final:
        note(label)
    if order and not initial:
        raise ConstructionError("at least one initial state is required")

    states = tuple(
        State(label, label in initial, label in final) for label in order)
    return Machine(kind, states, rows, input_alphabet, output_alphabet)
