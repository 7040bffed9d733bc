"""The machine data model and its run semantics.

A Machine is an immutable value covering both automata (transitions carry
no output) and transducers (transitions write output words; states may
carry a final output word that is appended when a run stops there).  No
operation changes a machine it is given, so values can be shared freely,
and an operation with nothing to change may return its argument.

States are identified by their label, a display string that is unique
within a machine.  Transition inputs are words of length at most one; a
length-zero input is an epsilon transition, which the nondeterministic
construction layers use and deterministic execution refuses.  The rows,
`State` and `Transition`, are slotted frozen dataclasses whose
constructors fill the slots through the slots' own descriptors, since a
frozen row refuses assignment; a construction builds thousands of
states.

The constructor works from index moves, (i, input word, j, output word)
per transition, i and j the indices of its source and target states.  It
takes `Transition` rows, which it checks, turns into moves and keeps as
given, or a `_Moves` tuple, the form the library's constructions hand
it.  One loop over the moves checks each against the alphabets and the
kind and builds the step view (`_steps`: per letter, a column with one
entry per state index, (target index, output word) or None for a missing
move, every move to one target that writes nothing sharing one entry; or
the message refusing a machine that is not deterministic).  A machine
built from moves writes its rows on the first read of `transitions`
(files, exports, equality, `digraph`, output projection), once, in move
order; a refusal writes only the offending row, for its message.  `_targets` is the one
sink rule: per letter, each state's target index, a missing move going
to index n, a non-final sink past the states that loops on every letter.
The index graph (`_edges`: source and target index per move) is what
reachability, trimming, the SCCs and the word counts walk.  A machine
never changes, so `_kept` keeps each derived form, built on first use,
and a later call reads it instead of deriving it again: the subset
construction, the trimmed deterministic form that counting and
enumeration read, the word count recurrence, the terminal chain and its
period test.  A form that is the machine itself, such as the trimmed
form of a machine that `trim` leaves whole (a restriction that drops no
state returns the machine), is kept as None, so no machine refers to
itself.  Nothing changes a machine after its constructor but `_kept`
and those first reads, which write what its states and moves fix.
`explore` is the one breadth-first construction: each move costs one
dict probe for its target, and only a new key is named and counted
against the state cap; a name already taken costs O(1) more
(`_namer`).  A product keys the index pair (i, j) by the int
i * n + j, n being the second side's state count, and every construction
builds one `(letter,)` input word per letter for all its transitions on
that letter, so a move creates no tuple that could be shared.
`_run` is the one run loop: it follows a word through the columns of a
step view, for `Machine.process` and for composition, with two
subscripts per letter; a letter without a move, or one the view cannot
look up, ends the run.  The columns are keyed by symbols only, so
`process` checks a tuple's letters (`symbols.word`) only when its run
stops early, and a foreign letter that hashes like an alphabet symbol and
compares equal to it is read as that symbol.
"""

from __future__ import annotations

import os
import sys
from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .errors import (ConstructionError, InvalidInputError, MachineError,
                     StateCapError, shown)
from .symbols import (Symbol, Word, _sorted_symbols, format_word, word,
                      word_key)

AUTOMATON = "automaton"
TRANSDUCER = "transducer"

DEFAULT_STATE_CAP = 10_000
STATE_CAP_ENV = "FSMKIT_STATE_CAP"


@dataclass(frozen=True, slots=True, init=False)
class State:
    label: str
    is_initial: bool = False
    is_final: bool = False
    final_output: Word = ()

    def __init__(self, label, is_initial=False, is_final=False,
                 final_output=()):
        _set_label(self, label)
        _set_is_initial(self, is_initial)
        _set_is_final(self, is_final)
        _set_final_output(self, final_output)


@dataclass(frozen=True, slots=True, init=False)
class Transition:
    source: str
    target: str
    input: Word
    output: Word = ()

    def __init__(self, source, target, input, output=()):
        _set_source(self, source)
        _set_target(self, target)
        _set_input(self, input)
        _set_output(self, output)

    def __str__(self):
        inp = format_word(self.input) or "ε"
        out = format_word(self.output) or "ε"
        return f"{self.source} --{inp}|{out}--> {self.target}"


# the slots' own setters: a frozen row's __setattr__ refuses every field
_set_label, _set_is_initial, _set_is_final, _set_final_output = (
    State.label.__set__, State.is_initial.__set__, State.is_final.__set__,
    State.final_output.__set__)
_set_source, _set_target, _set_input, _set_output = (
    Transition.source.__set__, Transition.target.__set__,
    Transition.input.__set__, Transition.output.__set__)


class _Moves(tuple):
    """A machine's transitions as index moves (i, input word, j, output
    word), in transition order, i and j the indices of the source and the
    target state: the form the constructor works from, and the one the
    library's constructions hand it in place of `Transition` rows."""

    __slots__ = ()


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
    """`x` if it is a str, else its text; an int too long to write as
    text (past sys.get_int_max_str_digits()) is refused by name."""
    if isinstance(x, str):
        return x
    try:
        return str(x)
    except ValueError:
        raise ConstructionError(
            f"cannot write the label: it has more than "
            f"{sys.get_int_max_str_digits()} decimal digits") from None


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
            raise ConstructionError(f"unknown machine kind {shown(kind)}")
        alphabet = _sorted_symbols(input_alphabet)
        if not alphabet:
            raise ConstructionError("the input alphabet must not be empty")
        out_alphabet = None
        if output_alphabet is not None:
            out_alphabet = _sorted_symbols(output_alphabet)

        for role, rows in (("states", states), ("transitions", transitions)):
            if not isinstance(rows, Iterable):
                raise ConstructionError(f"the {role} must be iterable: {shown(rows)}")

        self.kind = kind
        self.states = tuple(states)
        if type(transitions) is not _Moves:
            self.transitions = tuple(transitions)
        self.input_alphabet = alphabet
        self.output_alphabet = out_alphabet

        automaton = kind == AUTOMATON
        writable = None if out_alphabet is None else set(out_alphabet)
        self._by_label = by_label = {}  # label -> state index
        initials = []
        for i, st in enumerate(self.states):
            if not isinstance(st, State):
                raise ConstructionError(f"not a state: {shown(st)}")
            if type(st.label) is not str:
                raise ConstructionError(f"state label is not a string: {shown(st)}")
            if type(st.is_initial) is not bool or type(st.is_final) is not bool:
                raise ConstructionError(
                    f"state flags are not booleans: {shown(st)}")
            if type(st.final_output) is not tuple:
                raise ConstructionError(f"final output is not a tuple: {shown(st)}")
            if st.label in by_label:
                raise ConstructionError(f"duplicate state label {st.label!r}")
            if st.final_output:
                if not st.is_final:
                    raise ConstructionError(
                        f"non-final state {st.label!r} carries a final output")
                if automaton:
                    raise ConstructionError(
                        f"automaton state {st.label!r} with final output")
                _check_output(st.final_output, writable, lambda: st)
            by_label[st.label] = i
            if st.is_initial:
                initials.append(i)

        # the moves, each checked in turn (a row first by `_row_moves`)
        # and entered in the step view (see _steps) until the first
        # refusal, which is kept in its place; the view's columns also
        # tell the alphabet's letters
        if type(transitions) is _Moves:
            moves = given = transitions
        else:
            moves = []
            given = _row_moves(self.transitions, by_label, moves.append)
        refusal = None
        if len(initials) != 1:
            refusal = (f"a deterministic run needs exactly one initial state, "
                       f"found {len(initials)}")
        columns = {letter: [None] * len(self.states) for letter in alphabet}
        silent = {}  # target j -> its shared (j, ()) entry
        for move in given:
            i, inp, j, out = move
            if inp:
                column = columns.get(inp[0])
                if column is None:
                    raise ConstructionError(
                        f"input symbol {inp[0]} outside the alphabet in "
                        f"transition {self._row(move)}")
            if out:
                _check_output(out, writable, lambda: self._row(move))
                if automaton:
                    raise ConstructionError(
                        f"automaton transition with output: {self._row(move)}")
            if refusal is not None:
                continue
            if not inp:
                refusal = f"epsilon transition blocks execution: {self._row(move)}"
            elif column[i] is not None:
                refusal = (f"nondeterministic on state {self.states[i].label!r}, "
                           f"letter {inp[0]}")
            elif out:
                column[i] = (j, out)
            else:
                column[i] = silent.get(j) or silent.setdefault(j, (j, ()))

        self._moves = moves if given is moves else _Moves(moves)
        self._view = refusal or (initials[0], columns)
        self._forms = {}  # derived forms by name, see _kept

    @cached_property
    def transitions(self):
        """The `Transition` rows, in move order: those given to the
        constructor, or, for a machine built from moves, written on the
        first read and kept."""
        labels = _labels(self)
        return tuple(Transition(labels[i], labels[j], inp, out)
                     for i, inp, j, out in self._moves)

    def _row(self, move) -> Transition:
        """The `Transition` row of one of the machine's moves."""
        i, inp, j, out = move
        return Transition(self.states[i].label, self.states[j].label, inp, out)

    # ------------------------------------------------------------------
    # basic views
    # ------------------------------------------------------------------

    def __repr__(self):
        return (f"<{self.kind}: {len(self.states)} states, "
                f"{len(self._moves)} transitions>")

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
        return type(self._view) is not str

    def is_complete(self) -> bool:
        """Deterministic with exactly one transition per (state, letter)."""
        return self.is_deterministic() and all(
            None not in column for column in self._steps()[1].values())

    def _kept(self, form, build):
        """`form`'s value, kept from the first `build()` call that returns.
        A value that is the machine itself (a trimmed form that drops no
        state) is kept as None, which no form is, never as a reference to
        the machine: so no machine refers to itself, reference counting
        alone frees it, and copies and pickles read their own selves."""
        forms = self._forms
        if form not in forms:
            value = build()
            forms[form] = None if value is self else value
            return value
        value = forms[form]
        return self if value is None else value

    def _steps(self):
        """The letter-major step view of a deterministic machine, built by
        the constructor: the index of the initial state and a dict from
        each letter of the input alphabet, in alphabet order, to its
        column, a list with one entry per state index: (target index,
        output word) for the state's move on the letter, None when it has
        none.  Every move to one target that writes nothing shares one
        (target, ()) entry.  Any other machine raises MachineError: the
        constructor keeps the message of its first refusal (the initial
        state count, then the first epsilon or nondeterministic pair in
        transition order), and each call raises a fresh error with it."""
        view = self._view
        if type(view) is str:
            raise MachineError(view)
        return view

    def _targets(self) -> list:
        """The one sink rule: per letter, in alphabet order, each state's
        target index, n (the state count) for a missing move, and a last
        entry n, the sink's own move: index n is a non-final sink that
        loops on every letter.  Raises `_steps`' MachineError."""
        n = len(self.states)
        return [[n if step is None else step[0] for step in column] + [n]
                for column in self._steps()[1].values()]

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------

    def process(self, input_word) -> RunResult:
        """Run the machine on a word.

        Follows transitions letter by letter from the single initial state.
        The run accepts when every letter was consumed and the stop state is
        final; if some letter has no transition the run stops there and
        rejects.  Rejection is a value, not an error.

        A tuple is run as given, and its letters are checked only when the
        run stops early: `word` then refuses a letter that is no symbol as
        it refuses any other input, and a tuple it coerces (ints, None or
        pairs written as tuples or lists) is run again as coerced.  A
        foreign letter that hashes like an alphabet symbol and compares
        equal to it is read as that symbol.
        """
        start, columns = self._steps()
        w = input_word if type(input_word) is tuple else word(input_word)
        here, out, consumed = _run(columns, start, w)
        if not consumed and w is input_word:  # letters not checked yet
            coerced = word(w)
            if coerced is not w:
                here, out, consumed = _run(columns, start, coerced)
        st = self.states[here]
        accepted = consumed and st.is_final
        if accepted:
            out.extend(st.final_output)
        return RunResult(accepted, st.label, tuple(out))

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
        """(source index, target index) per move, in transition order."""
        return [(i, j) for i, _, j, _ in self._moves]

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
        """Restrict to states reachable from the initial states; the
        machine itself when every state is."""
        return self._restrict(self._levels())

    def coaccessible(self) -> "Machine":
        """Restrict to states from which some final state is reachable;
        the machine itself when every state is."""
        return self._restrict(self._levels(backward=True))

    def trim(self) -> "Machine":
        """Restrict to states both accessible and coaccessible at once (a
        path from an accessible state never leaves the accessible part);
        the machine itself when that drops no state."""
        return self._restrict(self._levels().keys()
                              & self._levels(backward=True).keys())

    def _restrict(self, keep) -> "Machine":
        """The machine on the state indices in `keep`, in state order:
        `self` when `keep` holds every state, since a machine never
        changes, else a new machine."""
        if len(keep) == len(self.states):
            return self
        index = {i: k for k, i in enumerate(sorted(keep))}  # old -> new
        states = tuple(map(self.states.__getitem__, index))
        moves = _Moves((index[i], inp, index[j], out)
                       for i, inp, j, out in self._moves
                       if i in index and j in index)
        return Machine(self.kind, states, moves,
                       self.input_alphabet, self.output_alphabet)

    # ------------------------------------------------------------------
    # relabeling
    # ------------------------------------------------------------------

    def relabeled(self) -> "Machine":
        """Rename states 0..n-1 by `_bfs_names` from the initial states,
        following transitions in canonical (input, output) order;
        unreachable states keep their relative order at the end."""
        moves = self._moves
        outgoing = [[] for _ in self.states]
        # a stable sort, so each state's moves come out in canonical order
        for i, _, j, _ in sorted(moves, key=lambda move: (
                word_key(move[1]), word_key(move[3]), move[2])):
            outgoing[i].append(j)

        starts = (i for i, st in enumerate(self.states) if st.is_initial)
        names, old = _bfs_names(starts, outgoing), self.states
        states = tuple(State(name, old[i].is_initial, old[i].is_final,
                             old[i].final_output) for i, name in names.items())
        index = {i: k for k, i in enumerate(names)}  # old -> new index
        return Machine(self.kind, states, _Moves(
            (index[i], inp, index[j], out) for i, inp, j, out in moves),
            self.input_alphabet, self.output_alphabet)

    # ------------------------------------------------------------------
    # graph view and export
    # ------------------------------------------------------------------

    def digraph(self, edge_weight) -> WeightedDigraph:
        """One edge per transition t, weighted by edge_weight(t) as an exact
        rational; a failing edge_weight call, or a weight `Fraction()`
        cannot take, raises ConstructionError naming the transition."""
        edges = []
        for t in self.transitions:
            try:
                weight = edge_weight(t)
            except Exception as exc:
                raise ConstructionError(
                    f"the weight function failed on {t}: {exc}") from exc
            try:
                edges.append((t.source, t.target, Fraction(weight)))
            except (TypeError, ValueError, OverflowError):
                raise ConstructionError(
                    f"the weight {shown(weight)} of {t} is not a rational") from None
        return WeightedDigraph(tuple(_labels(self)), tuple(edges))

    def export(self, fmt: str, coordinates=None, format_letter=None) -> str:
        from . import export as _export
        return _export.render(self, fmt, coordinates=coordinates,
                              format_letter=format_letter)


def _row_moves(rows, by_label, keep):
    """Each `Transition` row's move (i, input word, j, output word),
    yielded once the row passes the checks that only rows need: its type
    and its fields' types, known endpoints, and an input of at most one
    letter that is a symbol."""
    for t in rows:
        if type(t) is not Transition:
            raise ConstructionError(f"not a transition: {shown(t)}")
        inp, out = t.input, t.output
        if type(inp) is not tuple:
            raise ConstructionError(
                f"transition input is not a tuple: {shown(t)}")
        if type(out) is not tuple:
            raise ConstructionError(
                f"transition output is not a tuple: {shown(t)}")
        source, target = t.source, t.target
        if type(source) is not str or type(target) is not str:
            raise ConstructionError(
                f"transition endpoint is not a string: {shown(t)}")
        i, j = by_label.get(source), by_label.get(target)
        if i is None or j is None:
            raise ConstructionError(f"transition endpoints unknown: {t}")
        if len(inp) > 1:
            raise ConstructionError(f"transition input longer than one letter: {t}")
        if inp and not isinstance(inp[0], Symbol):
            raise ConstructionError(
                f"input letter {shown(inp[0])} is not a symbol: {shown(t)}")
        move = (i, inp, j, out)
        keep(move)
        yield move


def _check_output(w, writable, row):
    """Refuse a letter of output word w that is no symbol or, given
    `writable`, not in it.  `row()` gives the state whose final output w
    is, or the transition whose output it is; it is called only to
    refuse, so a move's row is written only then."""
    for s in w:
        if not isinstance(s, Symbol) or writable is not None and s not in writable:
            row = row()
            final = "final " if type(row) is State else ""
            if not isinstance(s, Symbol):
                raise ConstructionError(
                    f"{final}output letter {shown(s)} is not a symbol: {shown(row)}")
            place = f"state {row.label!r}" if final else row
            raise ConstructionError(
                f"{final}output symbol {s} outside the output alphabet in {place}")


def _run(columns, here, w):
    """Follow w through the columns of a step view (`Machine._steps`) from
    state index `here`; returns (stop index, output as a list, consumed
    everything?).  The one run loop, shared by `Machine.process` and
    composition.  Each letter costs two subscripts, its column and the
    state's entry in it: a letter the view does not hold raises KeyError,
    one without a move unpacks None and raises TypeError, and one that
    cannot be hashed TypeError (or whatever its hash or comparison
    raises), before `here` is assigned, so the run stops at the state that
    could not read it, with the output written up to there."""
    out = []
    extend = out.extend
    try:
        for sym in w:
            here, written = columns[sym][here]
            extend(written)
    except MemoryError:  # the output could not grow: no letter's doing
        raise
    except Exception:  # KeyError, TypeError or a foreign letter's own error
        return here, out, False
    return here, out, True


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


def _require_machine(m):
    """Refuse anything but a Machine as a machine argument."""
    if not isinstance(m, Machine):
        raise ConstructionError(f"not a machine: {shown(m)}")


def _listing(m: Machine):
    """The states of m sorted by label and its transitions sorted by
    source label, target label, input word and output word, each word in
    the canonical symbol order: the order of machine files and exports,
    and what machine equality compares (labels are unique, so sorted
    states compare as sets).  The distinct words are ranked once by
    `word_key`, which is injective on words, and the transitions sorted
    by their words' ranks, so the order is the one `word_key` gives.
    Anything but a machine is refused (`_require_machine`)."""
    _require_machine(m)
    words = {t.input for t in m.transitions}
    words.update(t.output for t in m.transitions)
    rank = {w: i for i, w in enumerate(sorted(words, key=word_key))}
    return (sorted(m.states, key=lambda st: st.label),
            sorted(m.transitions, key=lambda t: (
                t.source, t.target, rank[t.input], rank[t.output])))


def _namer(taken=()):
    """A function that names a state from its base name, once per state:
    the base or, when a state already holds it (the labels `taken` hold
    from the start, and each name handed out), its first free suffix
    "#k".  Every suffix up to the last one handed out for a base is held,
    so the search for the next starts past it, and a run of collisions
    costs O(1) a name."""
    held, last = set(taken), {}

    def name(base):
        label = base
        if label in held:
            k = last.get(base, 0)
            while label in held:
                k += 1
                label = f"{base}#{k}"
            last[base] = k
        held.add(label)
        return label

    return name


def _labels(m: Machine):
    """The labels of m's states, in state order."""
    return [st.label for st in m.states]


def _pair_label(one, two):
    """The one pair-naming rule: the index pair (i, j), keyed by the int
    i * len(two) + j, is "(one[i],two[j])"."""
    width = len(two)
    return lambda key: f"({one[key // width]},{two[key % width]})"


def _lockstep(kind, first: Machine, first_names, second: Machine,
              second_names, write, final_word) -> Machine:
    """The product of two deterministic machines over `first`'s alphabet,
    explored from the pair of initial states and named by `_pair_label`
    from the given state names.  A pair (i, j) is keyed by the int
    i * len(second.states) + j.  It moves on each letter both states move
    on, writing `write(output1, output2)`; it is final when both states
    are, with final output `final_word(state1, state2)`."""
    (start1, columns1), (start2, columns2) = first._steps(), second._steps()
    width = len(second.states)
    moves = [((letter,), column, columns2[letter])
             for letter, column in columns1.items()]

    def successors(key):
        i, j = divmod(key, width)
        for one, column1, column2 in moves:
            a, b = column1[i], column2[j]
            if a is not None and b is not None:
                yield one, a[0] * width + b[0], write(a[1], b[1])

    def final(key):
        i, j = divmod(key, width)
        s1, s2 = first.states[i], second.states[j]
        return final_word(s1, s2) if s1.is_final and s2.is_final else None

    return explore(kind, first.input_alphabet, [start1 * width + start2],
                   successors, _pair_label(first_names, second_names), final)


def explore(kind, alphabet, starts, successors, name, final,
            output_alphabet=None) -> Machine:
    """Build a machine breadth-first from the state keys `starts`.

    `successors(key)` yields (input word, target key, output word) for each
    transition leaving a state, in the order the transitions are listed;
    `name(key)` labels a state once, when it is discovered, and a name
    already taken gets the first free suffix "#k" (`_namer`);
    `final(key)` is None for a non-final state and its final output word
    otherwise.  States are listed in discovery order; more states than the
    state cap (`_state_cap`), starts included, raise StateCapError.  Each
    move costs one dict probe for its target; only a newly discovered key
    is named and counted against the cap.  The machine is built from its
    moves, so it writes no `Transition` row until one is read."""
    cap = _state_cap()
    fresh = _namer()
    order = list(dict.fromkeys(starts))
    initial_count = len(order)
    _refuse_past_cap(initial_count, cap)
    index = {key: i for i, key in enumerate(order)}
    labels = [fresh(name(key)) for key in order]
    index_of = index.get
    moves = []
    for here in order:  # order grows while it is walked
        i = index[here]  # the int the moves into `here` hold, shared
        for inp, target, out in successors(here):
            j = index_of(target)
            if j is None:
                j = len(order)
                if j >= cap:
                    _refuse_past_cap(j + 1, cap)
                index[target] = j
                labels.append(fresh(name(target)))
                order.append(target)
            moves.append((i, inp, j, out))
    states = []
    for i, key in enumerate(order):
        final_output = final(key)
        states.append(State(labels[i], i < initial_count,
                            final_output is not None, final_output or ()))
    del order, index, index_of, fresh  # the keys and names, before the tables
    return Machine(kind, states, _Moves(moves), alphabet, output_alphabet)


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


def _bfs_names(starts, moves) -> dict:
    """The canonical names "0", "1", ... of the indices of `moves`, as a
    dict in name order: breadth-first from `starts` along each `moves[i]`
    in order, then the unreached indices in index order."""
    reached = bfs_levels(starts, moves.__getitem__)
    order = list(reached) + [i for i in range(len(moves)) if i not in reached]
    return {i: str(k) for k, i in enumerate(order)}


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
        if len(row) not in (3, 4):
            raise ConstructionError(
                f"transition row must have 3 or 4 entries: {shown(row)}")
        source, target, inp, outp = (*row, None)[:4]  # no output: None
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
