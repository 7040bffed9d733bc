"""The machine data model and its run semantics.

A Machine is an immutable value covering both automata (transitions carry
no output) and transducers (transitions write output words; states may
carry a final output word that is appended when a run stops there).  All
operations return new machines, so values can be shared freely.

States are identified by their label, a display string that is unique
within a machine.  Transition inputs are words of length at most one; a
length-zero input is an epsilon transition, which the nondeterministic
construction layers use and deterministic execution refuses.

The one constructor validates every machine, construction results
included, and indexes its states by label (`_by_label`).  The index graph
(`_edges`: source and target index per transition) is what reachability,
trimming, relabeling, the SCCs and the word counts walk.  A machine never
changes, so `_kept` keeps each derived form, built on first use: the step
table (`_steps`: per state index, a dict from letter to (target index,
output word)), the subset construction, the word count recurrence and the
terminal chain.  Nothing else changes a machine after its constructor.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .errors import (ConstructionError, InvalidInputError, MachineError,
                     StateCapError)
from .symbols import (Symbol, Word, _sorted_symbols, format_word, word,
                      word_key)

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
    """An automaton or transducer; immutable after construction.

    The constructor refuses malformed rows with a ConstructionError naming
    the row: states must be `State`s with a str label, bool flags and a
    tuple of symbols as final output, transitions `Transition`s with str
    endpoints and tuple input and output words whose letters are symbols;
    every output letter, final ones included, must be in the output
    alphabet when there is one.  Machines are equal when their kinds,
    both alphabets, states and transitions are."""

    def __init__(self, kind, states, transitions, input_alphabet,
                 output_alphabet=None):
        if kind not in (AUTOMATON, TRANSDUCER):
            raise ConstructionError(f"unknown machine kind {kind!r}")
        alphabet = _sorted_symbols(input_alphabet)
        if not alphabet:
            raise ConstructionError("the input alphabet must not be empty")
        out_alphabet = None
        if output_alphabet is not None:
            out_alphabet = _sorted_symbols(output_alphabet)

        self.kind = kind
        self.states = tuple(states)
        self.transitions = tuple(transitions)
        self.input_alphabet = alphabet
        self.output_alphabet = out_alphabet

        automaton = kind == AUTOMATON
        writable = None if out_alphabet is None else set(out_alphabet)
        self._by_label = by_label = {}  # label -> state index
        for i, st in enumerate(self.states):
            if not isinstance(st, State):
                raise ConstructionError(f"not a state: {st!r}")
            if type(st.label) is not str:
                raise ConstructionError(f"state label is not a string: {st!r}")
            if type(st.is_initial) is not bool or type(st.is_final) is not bool:
                raise ConstructionError(f"state flags are not booleans: {st!r}")
            if type(st.final_output) is not tuple:
                raise ConstructionError(f"final output is not a tuple: {st!r}")
            if st.label in by_label:
                raise ConstructionError(f"duplicate state label {st.label!r}")
            if st.final_output:
                if not st.is_final:
                    raise ConstructionError(
                        f"non-final state {st.label!r} carries a final output")
                if automaton:
                    raise ConstructionError(
                        f"automaton state {st.label!r} with final output")
                for s in st.final_output:
                    if not isinstance(s, Symbol):
                        raise ConstructionError(
                            f"final output letter {s!r} is not a symbol: {st!r}")
                    if writable is not None and s not in writable:
                        raise ConstructionError(
                            f"final output symbol {s} outside the output "
                            f"alphabet in state {st.label!r}")
            by_label[st.label] = i

        letters = set(alphabet)
        for t in self.transitions:
            if type(t) is not Transition:
                raise ConstructionError(f"not a transition: {t!r}")
            inp, out = t.input, t.output
            if type(inp) is not tuple:
                raise ConstructionError(f"transition input is not a tuple: {t!r}")
            if type(out) is not tuple:
                raise ConstructionError(f"transition output is not a tuple: {t!r}")
            if type(t.source) is not str or type(t.target) is not str:
                raise ConstructionError(
                    f"transition endpoint is not a string: {t!r}")
            if t.source not in by_label or t.target not in by_label:
                raise ConstructionError(f"transition endpoints unknown: {t}")
            if len(inp) > 1:
                raise ConstructionError(f"transition input longer than one letter: {t}")
            if inp:
                if not isinstance(inp[0], Symbol):
                    raise ConstructionError(
                        f"input letter {inp[0]!r} is not a symbol: {t!r}")
                if inp[0] not in letters:
                    raise ConstructionError(
                        f"input symbol {inp[0]} outside the alphabet in transition {t}")
            if out:
                for s in out:
                    if not isinstance(s, Symbol):
                        raise ConstructionError(
                            f"output letter {s!r} is not a symbol: {t!r}")
                    if writable is not None and s not in writable:
                        raise ConstructionError(
                            f"output symbol {s} outside the output alphabet in {t}")
                if automaton:
                    raise ConstructionError(f"automaton transition with output: {t}")

        self._forms = {}  # derived forms by name, see _kept

    # ------------------------------------------------------------------
    # basic views
    # ------------------------------------------------------------------

    def __repr__(self):
        return (f"<{self.kind}: {len(self.states)} states, "
                f"{len(self.transitions)} transitions>")

    def state(self, label) -> State:
        label = as_label(label)
        try:
            return self.states[self._by_label[label]]
        except KeyError:
            raise MachineError(f"no state labeled {label!r}") from None

    def has_state(self, label) -> bool:
        return as_label(label) in self._by_label

    def initial_states(self):
        return tuple(st for st in self.states if st.is_initial)

    def final_states(self):
        return tuple(st for st in self.states if st.is_final)

    def _canonical(self):
        return (self.kind, self.input_alphabet, self.output_alphabet,
                *_listing(self))

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
            self._steps()
        except MachineError:
            return False
        return True

    def is_complete(self) -> bool:
        """Deterministic with exactly one transition per (state, letter)."""
        return self.is_deterministic() and all(
            len(row) == len(self.input_alphabet) for row in self._steps()[1])

    def _kept(self, form, build):
        """`form`'s value, kept from the first `build()` call that returns."""
        if form not in self._forms:
            self._forms[form] = build()
        return self._forms[form]

    def _steps(self):
        """The step table of a deterministic machine, built once: the index
        of the initial state and, for each state index i, a dict mapping
        every letter that has a move from states[i] to (target index,
        output word).  Any other machine raises MachineError.  Every run
        reads the kept table, a nonempty tuple, with one dict lookup."""
        return self._forms.get("steps") or self._kept("steps", self._step_table)

    def _step_table(self):
        initials = [i for i, st in enumerate(self.states) if st.is_initial]
        if len(initials) != 1:
            raise MachineError(
                f"a deterministic run needs exactly one initial state, "
                f"found {len(initials)}")
        index = self._by_label
        rows = [{} for _ in self.states]
        for t in self.transitions:
            if not t.input:
                raise MachineError(f"epsilon transition blocks execution: {t}")
            row = rows[index[t.source]]
            if t.input[0] in row:
                raise MachineError(
                    f"nondeterministic on state {t.source!r}, letter {t.input[0]}")
            row[t.input[0]] = (index[t.target], t.output)
        return initials[0], rows

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
        here, out, consumed = self._run_from(self._steps()[0],
                                             word(input_word))
        st = self.states[here]
        accepted = consumed and st.is_final
        if accepted:
            out.extend(st.final_output)
        return RunResult(accepted, st.label, tuple(out))

    def _run_from(self, here, w):
        """Follow letters of w from state index `here`; returns (stop index,
        output as a list, consumed everything?).  The one run loop, shared
        by `process` and composition."""
        _, rows = self._steps()
        out = []
        for sym in w:
            step = rows[here].get(sym)
            if step is None:
                return here, out, False
            here, written = step
            out.extend(written)
        return here, out, True

    def transduce(self, input_word) -> Word:
        """Output word of an accepting run; rejection raises."""
        result = self.process(input_word)
        if not result.accepted:
            raise InvalidInputError("invalid input sequence")
        return result.output

    def accepts(self, input_word) -> bool:
        return self.process(input_word).accepted

    # ------------------------------------------------------------------
    # trimming
    # ------------------------------------------------------------------

    def _edges(self) -> list:
        """(source index, target index) per transition, in their order."""
        index = self._by_label
        return [(index[t.source], index[t.target]) for t in self.transitions]

    def _levels(self, backward=False) -> dict:
        """`bfs_levels` of the state indices from the initial states or,
        `backward`, against the moves from the final states."""
        adjacent = [[] for _ in self.states]
        for i, j in self._edges():
            adjacent[j if backward else i].append(i if backward else j)
        return bfs_levels((i for i, st in enumerate(self.states)
                           if (st.is_final if backward else st.is_initial)),
                          adjacent.__getitem__)

    def accessible(self) -> "Machine":
        """Restrict to states reachable from the initial states."""
        return self._restrict(self._levels())

    def coaccessible(self) -> "Machine":
        """Restrict to states from which some final state is reachable."""
        return self._restrict(self._levels(backward=True))

    def trim(self) -> "Machine":
        """Restrict to states both accessible and coaccessible at once (a
        path from an accessible state never leaves the accessible part)."""
        return self._restrict(self._levels().keys()
                              & self._levels(backward=True).keys())

    def _restrict(self, keep) -> "Machine":
        """The machine on the state indices in `keep`, in state order."""
        index = self._by_label
        states = tuple(st for i, st in enumerate(self.states) if i in keep)
        transitions = tuple(t for t in self.transitions if index[t.source]
                            in keep and index[t.target] in keep)
        return Machine(self.kind, states, transitions,
                       self.input_alphabet, self.output_alphabet)

    # ------------------------------------------------------------------
    # relabeling
    # ------------------------------------------------------------------

    def relabeled(self) -> "Machine":
        """Rename states 0..n-1 in breadth-first order from the initial
        states, following transitions in canonical (input, output) order;
        unreachable states keep their relative order at the end."""
        edges = list(zip(self.transitions, self._edges()))
        outgoing = [[] for _ in self.states]
        # a stable sort, so each state's moves come out in canonical order
        for t, (i, j) in sorted(edges, key=lambda e: (
                word_key(e[0].input), word_key(e[0].output), e[1][1])):
            outgoing[i].append(j)

        starts = (i for i, st in enumerate(self.states) if st.is_initial)
        reached = bfs_levels(starts, outgoing.__getitem__)
        order = list(reached)
        order += [i for i in range(len(self.states)) if i not in reached]
        names, old = {i: str(k) for k, i in enumerate(order)}, self.states
        states = tuple(State(names[i], old[i].is_initial, old[i].is_final,
                             old[i].final_output) for i in order)
        transitions = tuple(Transition(names[i], names[j], t.input, t.output)
                            for t, (i, j) in edges)
        return Machine(self.kind, states, transitions,
                       self.input_alphabet, self.output_alphabet)

    # ------------------------------------------------------------------
    # graph view and export
    # ------------------------------------------------------------------

    def digraph(self, edge_weight) -> WeightedDigraph:
        """One edge per transition t, weighted by edge_weight(t) as an exact
        rational; a weight `Fraction()` cannot take raises ConstructionError."""
        edges = []
        for t in self.transitions:
            weight = edge_weight(t)
            try:
                edges.append((t.source, t.target, Fraction(weight)))
            except (TypeError, ValueError, OverflowError):
                raise ConstructionError(
                    f"the weight {weight!r} of {t} is not a rational") from None
        return WeightedDigraph(tuple(st.label for st in self.states),
                               tuple(edges))

    def export(self, fmt: str, coordinates=None, format_letter=None) -> str:
        from . import export as _export
        return _export.render(self, fmt, coordinates=coordinates,
                              format_letter=format_letter)


def _state_cap() -> int:
    """The most states an exploration may discover: the FSMKIT_STATE_CAP
    environment variable, else 10**4."""
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


def _refuse_past_cap(count, cap):
    """Raise StateCapError when `count` states exceed `cap`, as an
    exploration does on discovering one state too many."""
    if count > cap:
        raise StateCapError(f"exploration exceeded the state cap of {cap}")


def _transition_key(t: Transition):
    """The canonical transition order: by source and target label, then
    by input and output word in the canonical symbol order."""
    return (t.source, t.target, word_key(t.input), word_key(t.output))


def _listing(m: Machine):
    """The states of m sorted by label and its transitions in canonical
    order: the order of machine files and exports, and what machine
    equality compares (labels are unique, so sorted states compare as
    sets)."""
    return (sorted(m.states, key=lambda st: st.label),
            sorted(m.transitions, key=_transition_key))


def _free_label(base: str, taken) -> str:
    """`base`, or its first free suffix "#k" when `taken` holds it."""
    label, k = base, 0
    while label in taken:
        k += 1
        label = f"{base}#{k}"
    return label


def _pair_label(first: Machine, second: Machine):
    """Names (state index of `first`, state index of `second`) pairs."""
    one, two = first.states, second.states
    return lambda pair: f"({one[pair[0]].label},{two[pair[1]].label})"


def _lockstep(kind, first: Machine, second: Machine, write,
              final_word) -> Machine:
    """The product of two deterministic machines over `first`'s alphabet,
    explored from the pair of initial states and named by `_pair_label`.
    A pair moves on each letter both states move on, writing
    `write(output1, output2)`; it is final when both states are, with
    final output `final_word(state1, state2)`."""
    (start1, rows1), (start2, rows2) = first._steps(), second._steps()
    letters = first.input_alphabet

    def successors(pair):
        row1, row2 = rows1[pair[0]], rows2[pair[1]]
        for letter in letters:
            a, b = row1.get(letter), row2.get(letter)
            if a is not None and b is not None:
                yield (letter,), (a[0], b[0]), write(a[1], b[1])

    def final(pair):
        s1, s2 = first.states[pair[0]], second.states[pair[1]]
        return final_word(s1, s2) if s1.is_final and s2.is_final else None

    return explore(kind, letters, [(start1, start2)], successors,
                   _pair_label(first, second), final)


def explore(kind, alphabet, starts, successors, name, final,
            output_alphabet=None) -> Machine:
    """Build a machine breadth-first from the state keys `starts`.

    `successors(key)` yields (input word, target key, output word) for each
    transition leaving a state, in the order the transitions are listed;
    `name(key)` labels a state once, when it is discovered, and a name
    already taken gets the first free suffix "#k" (`_free_label`);
    `final(key)` is None for a non-final state and its final output word
    otherwise.  States are listed in discovery order; more states than the
    state cap (`_state_cap`), starts included, raise StateCapError."""
    cap = _state_cap()
    taken = set()

    def fresh(key):
        label = _free_label(name(key), taken)
        taken.add(label)
        return label

    order = list(dict.fromkeys(starts))
    initial_count = len(order)
    _refuse_past_cap(initial_count, cap)
    labels = {key: fresh(key) for key in order}
    transitions = []
    for here in order:  # order grows while it is walked
        source = labels[here]
        for inp, target, out in successors(here):
            if target not in labels:
                _refuse_past_cap(len(order) + 1, cap)
                labels[target] = fresh(target)
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
        rows.append(Transition(source, target, word(inp), word(outp)))
    # the labels, in order of first appearance
    order = dict.fromkeys(
        [label for t in rows for label in (t.source, t.target)] + initial + final)
    if order and not initial:
        raise ConstructionError("at least one initial state is required")

    states = tuple(
        State(label, label in initial, label in final) for label in order)
    return Machine(kind, states, rows, input_alphabet, output_alphabet)
