"""Transducer constructions: transition-function exploration, one-state
letterwise transducers, cartesian product, composition, output projection,
final-word completion and state-merging simplification."""

from __future__ import annotations

from itertools import count, zip_longest

from .errors import ConstructionError, MachineError, shown
from .machine import (AUTOMATON, TRANSDUCER, Machine, State, Transition,
                      _bfs_names, _labels, _lockstep, _Moves, _namer,
                      _pair_label, _require_machine, _run, as_label,
                      explore)
from .symbols import (ABSENT, AbsentType, Digit, Pair, Symbol,
                      _sorted_symbols, digit_value, symbol, word)


def _raw(s: Symbol):
    """The plain-Python value handed to user transition functions."""
    if isinstance(s, Digit):
        return s.value
    if isinstance(s, AbsentType):
        return None
    if isinstance(s, Pair):
        return (_raw(s.left), _raw(s.right))
    raise ConstructionError(f"cannot unwrap {s!r}")


def from_transition_function(fn, input_alphabet, initial_labels,
                             final_labels) -> Machine:
    """Explore fn(state, letter) -> (next_state, written word) breadth-first
    from the initial labels, one transition per letter, until no new state
    appears.  Letters are passed as plain values (ints, None for the absent
    marker, nested tuples for pairs).  Exploration stops with an error when
    more states show up than the state cap (10**4, or the FSMKIT_STATE_CAP
    environment variable).  A bad label or fn call raises ConstructionError."""
    letters = _sorted_symbols(input_alphabet)
    starts, finals = list(initial_labels), list(final_labels)
    for role, labels in (("initial", starts), ("final", finals)):
        for label in labels:
            try:
                hash(label)
            except TypeError:
                raise ConstructionError(
                    f"the {role} label {shown(label)} is unhashable") from None
    final = set(finals)
    moves = [(letter, (letter,)) for letter in letters]

    def successors(state):
        for letter, one in moves:
            try:
                target, written = fn(state, _raw(letter))
                hash(target)
                written = word(written)
            except Exception as exc:
                raise ConstructionError(
                    f"the transition function failed on state {state!r}, "
                    f"letter {letter}: {exc}") from exc
            yield one, target, written

    return explore(TRANSDUCER, letters, starts, successors, as_label,
                   lambda state: () if state in final else None)


# ----------------------------------------------------------------------
# one-state letterwise transducers
# ----------------------------------------------------------------------

def _one_state(alphabet, write, output_alphabet=None) -> Machine:
    """One initial and final state with a loop on each letter a of the
    alphabet writing write(a); the output alphabet defaults to the
    letters written."""
    letters = _sorted_symbols(alphabet)
    transitions = tuple(
        Transition("0", "0", (a,), word(write(a))) for a in letters)
    if output_alphabet is None:
        output_alphabet = [s for t in transitions for s in t.output]
    return Machine(TRANSDUCER, (State("0", True, True),), transitions,
                   letters, output_alphabet)


def identity_transducer(alphabet) -> Machine:
    """Writes out every letter it reads."""
    return _one_state(alphabet, lambda a: a)


def weight_transducer(alphabet) -> Machine:
    """Writes 1 for every nonzero digit and 0 otherwise, so the output sum
    is the Hamming weight of the input."""
    return _one_state(alphabet,
                      lambda a: Digit(1 if digit_value(a) != 0 else 0),
                      output_alphabet=[Digit(0), Digit(1)])


def abs_transducer(alphabet) -> Machine:
    """Writes the absolute value of every digit it reads."""
    return _one_state(alphabet, lambda a: Digit(abs(digit_value(a))))


def operator_lift(fn, alphabet) -> Machine:
    """One-state transducer applying fn letterwise; fn receives a Symbol
    and may return anything `symbol` coerces."""
    def write(a):
        try:
            return symbol(fn(a))
        except Exception as exc:
            raise ConstructionError(
                f"the lifted operator failed on {a}: {exc}") from exc

    return _one_state(alphabet, write)


# ----------------------------------------------------------------------
# product and composition
# ----------------------------------------------------------------------

def _steps_of(m: Machine, role: str):
    """`m._steps()`, its MachineError naming m's role in the construction;
    anything but a machine is refused (`_require_machine`)."""
    _require_machine(m)
    try:
        return m._steps()
    except MachineError as exc:
        raise MachineError(f"the {role} machine: {exc}") from exc


def cartesian_product(t1: Machine, t2: Machine) -> Machine:
    """Run both transducers in parallel on the same input, writing pairs.

    Requires both factors to be deterministic with exactly one output
    symbol per transition.  A product state is final when both components
    are; its final output zips the component final outputs, padding the
    shorter one with the absent marker."""
    _require_machine(t1)
    _require_machine(t2)
    if t1.input_alphabet != t2.input_alphabet:
        raise MachineError("cartesian product needs equal input alphabets")
    for m in (t1, t2):
        for move in m._moves:
            if len(move[3]) != 1:
                raise MachineError(
                    f"cartesian product needs exactly one output symbol per "
                    f"transition, offending transition: {m._row(move)}")
    _steps_of(t1, "left")
    _steps_of(t2, "right")

    def final_word(s1, s2):
        return tuple(Pair(u, v) for u, v in zip_longest(
            s1.final_output, s2.final_output, fillvalue=ABSENT))

    return _lockstep(TRANSDUCER, t1, _labels(t1), t2, _labels(t2),
                     lambda u, v: (Pair(u[0], v[0]),), final_word)


def compose(outer: Machine, inner: Machine) -> Machine:
    """Feed every output of `inner` through `outer` (run inner first).

    States are (inner state, outer state) pairs, the pair (i, j) keyed by
    the int i * len(outer.states) + j.  A pair is final when the inner
    state is final and the outer machine, after consuming the inner final
    output, stops in a final state; the composed final output is what the
    outer machine writes while consuming it, followed by the outer final
    output."""
    inner_start, inner_columns = _steps_of(inner, "inner")
    outer_start, outer_columns = _steps_of(outer, "outer")
    width = len(outer.states)
    moves = [((letter,), column) for letter, column in inner_columns.items()]

    def successors(key):
        i, j = divmod(key, width)
        for one, column in moves:
            step = column[i]
            if step is None:
                continue
            target, read = step
            stop, written, complete_run = _run(outer_columns, j, read)
            if not complete_run:
                t = Transition(inner.states[i].label,
                               inner.states[target].label, one, read)
                raise MachineError(
                    f"the outer machine blocks on the output of {t}")
            yield one, target * width + stop, tuple(written)

    def final(key):
        i, j = divmod(key, width)
        inner_state = inner.states[i]
        if inner_state.is_final:
            stop, written, complete_run = _run(
                outer_columns, j, inner_state.final_output)
            if complete_run and outer.states[stop].is_final:
                return tuple(written) + outer.states[stop].final_output
        return None

    return explore(TRANSDUCER, inner.input_alphabet,
                   [inner_start * width + outer_start], successors,
                   _pair_label(_labels(inner), _labels(outer)), final,
                   outer.output_alphabet)


# ----------------------------------------------------------------------
# projection, completion, simplification
# ----------------------------------------------------------------------

def output_projection(t: Machine) -> Machine:
    """Forget inputs: the automaton over the output alphabet accepting
    exactly the outputs of accepting runs (final outputs included)."""
    _require_machine(t)
    if t.kind != TRANSDUCER:
        raise MachineError("output projection is defined on transducers")
    alphabet = t.output_alphabet
    if alphabet is None:
        alphabet = {s for tr in t.transitions for s in tr.output}
        alphabet.update(s for st in t.states for s in st.final_output)
        if not alphabet:
            raise MachineError(
                "cannot infer an output alphabet from a machine that never writes")

    states = {st.label: State(st.label, st.is_initial, st.is_final and
                              not st.final_output) for st in t.states}
    transitions = []
    fresh, name = count(), _namer(states)

    def add(base, is_final=False):
        """A new state named `base`, or its first free "#k" suffix."""
        label = name(base)
        states[label] = State(label, False, is_final)
        return label

    def chain(source, target, output_word):
        """Spell output_word from source to target through fresh states."""
        here = source
        for s in output_word[:-1]:
            label = add(f"{source}.out{next(fresh)}")
            transitions.append(Transition(here, label, (s,)))
            here = label
        transitions.append(Transition(here, target, output_word[-1:]))

    for tr in t.transitions:
        chain(tr.source, tr.target, tr.output)
    for st in t.states:
        if st.is_final and st.final_output:
            chain(st.label, add(f"{st.label}.accept", True), st.final_output)

    # t's states first, in order, then the fresh ones as they were added
    return Machine(AUTOMATON, tuple(states.values()), tuple(transitions),
                   alphabet)


def with_final_word_out(t: Machine, letter) -> Machine:
    """Complete a deterministic transducer into a subsequential one: every
    state whose `letter`-path reaches a final state becomes final, with the
    outputs written along that path as its final output.  States whose
    path cycles without meeting a final state stay non-final.  The result
    keeps t's kind, an automaton included."""
    letter = symbol(letter)
    _require_machine(t)
    if letter not in t.input_alphabet:
        raise MachineError(f"letter {letter} is not in the input alphabet")
    column = t._steps()[1][letter]

    new_states = []
    for here, st in enumerate(t.states):
        collected, visited = [], set()
        while not t.states[here].is_final and here not in visited:
            visited.add(here)
            step = column[here]
            if step is None:
                break
            here, written = step
            collected.extend(written)
        end = t.states[here]
        if st.is_final or not end.is_final:
            new_states.append(st)
        else:
            new_states.append(State(st.label, st.is_initial, True,
                                    tuple(collected) + end.final_output))
    if not any(st.is_final for st in new_states):
        raise MachineError(
            f"no state reaches a final state by reading {letter}")
    return Machine(t.kind, tuple(new_states), t._moves,
                   t.input_alphabet, t.output_alphabet)


def _first_appearance(keys) -> list:
    """Number the distinct keys in order of first appearance."""
    numbers = {}
    return [numbers.setdefault(key, len(numbers)) for key in keys]


def simplify(t: Machine) -> Machine:
    """Merge behaviorally equivalent states of a deterministic machine:
    same finality and final output and, letter by letter, the same output
    word into the same block (Moore refinement).  The result keeps the
    machine's kind and computes the same input-output function; on a
    complete automaton it is the minimal automaton, on a transducer it is
    not guaranteed to be globally minimal.  Blocks are named by
    `_bfs_names`, as `Machine.relabeled` names states.  The refinement
    reads `Machine._targets` (the one sink rule), and the result's moves
    are written from the step view's columns."""
    _require_machine(t)
    start, view = t._steps()
    n = len(t.states)
    columns = list(view.values())
    targets = t._targets()

    # the first key holds everything but the targets, so that each round
    # of refinement compares target blocks only; the sink's first key,
    # None, is no state's, so it keeps a block of its own
    block = _first_appearance([*zip(
        ((st.is_final, st.final_output) for st in t.states),
        *([None if step is None else step[1] for step in column]
          for column in columns)), None])
    while True:
        refined = _first_appearance(zip(
            block, *(map(block.__getitem__, column) for column in targets)))
        if refined == block:
            break
        block = refined

    representative = {}  # the first state of each block, in block order
    for i in range(n):
        representative.setdefault(block[i], i)
    initial_block = block[start]
    # deterministic, so the canonical order follows letters in order
    name = _bfs_names([initial_block], [
        [block[column[i]] for column in targets if column[i] < n]
        for i in representative.values()])
    states = []
    for b, label in name.items():
        st = t.states[representative[b]]
        states.append(State(label, b == initial_block, st.is_final,
                            st.final_output))
    index = {b: k for k, b in enumerate(name)}  # block -> state index
    words = [(letter,) for letter in view]
    moves = []
    for b, i in representative.items():
        for one, column in zip(words, columns):
            step = column[i]
            if step is not None:
                moves.append((index[b], one, index[block[step[0]]], step[1]))
    return Machine(t.kind, states, _Moves(moves), t.input_alphabet,
                   t.output_alphabet)
