"""Transducer constructions: transition-function exploration, one-state
letterwise transducers, cartesian product, composition, output projection,
final-word completion and state-merging simplification."""

from __future__ import annotations

from itertools import zip_longest

from .errors import ConstructionError, MachineError
from .machine import (AUTOMATON, TRANSDUCER, Machine, State, Transition,
                      _pair_label, as_label, bfs_levels, explore)
from .symbols import (ABSENT, AbsentType, Digit, Pair, Symbol, digit_value,
                      symbol, word)


def _raw(s: Symbol):
    """The plain-Python value handed to user transition functions."""
    if isinstance(s, Digit):
        return s.value
    if isinstance(s, AbsentType):
        return None
    if isinstance(s, Pair):
        return (_raw(s.left), _raw(s.right))
    raise ConstructionError(f"cannot unwrap {s!r}")


def from_transition_function(fn, input_alphabet, initial_labels, final_labels,
                             state_cap=None) -> Machine:
    """Explore fn(state, letter) -> (next_state, written word) breadth-first
    from the initial labels, one transition per letter, until no new state
    appears.  Letters are passed as plain values (ints, None for the absent
    marker, nested tuples for pairs).  Exploration stops with an error when
    more than `state_cap` states show up (default 10**4, overridable via
    the FSMKIT_STATE_CAP environment variable)."""
    letters = sorted({symbol(a) for a in input_alphabet},
                     key=lambda s: s.sort_key())
    final = set(final_labels)

    def successors(state):
        for letter in letters:
            target, written = fn(state, _raw(letter))
            yield (letter,), target, word(written)

    return explore(TRANSDUCER, letters, initial_labels, successors, as_label,
                   lambda state: () if state in final else None,
                   cap=state_cap)


# ----------------------------------------------------------------------
# one-state letterwise transducers
# ----------------------------------------------------------------------

def _one_state(alphabet, write, output_alphabet=None) -> Machine:
    letters = sorted({symbol(a) for a in alphabet}, key=lambda s: s.sort_key())
    transitions = tuple(
        Transition("0", "0", (a,), word(write(a))) for a in letters)
    return Machine(TRANSDUCER, (State("0", True, True),), transitions,
                   letters, output_alphabet)


def identity_transducer(alphabet) -> Machine:
    """Writes out every letter it reads."""
    letters = [symbol(a) for a in alphabet]
    return _one_state(letters, lambda a: a, output_alphabet=letters)


def weight_transducer(alphabet) -> Machine:
    """Writes 1 for every nonzero digit and 0 otherwise, so the output sum
    is the Hamming weight of the input."""
    return _one_state(alphabet,
                      lambda a: Digit(1 if digit_value(a) != 0 else 0),
                      output_alphabet=[Digit(0), Digit(1)])


def abs_transducer(alphabet) -> Machine:
    """Writes the absolute value of every digit it reads."""
    letters = sorted({symbol(a) for a in alphabet},
                     key=lambda s: s.sort_key())
    out = sorted({Digit(abs(digit_value(a))) for a in letters},
                 key=lambda s: s.sort_key())
    return _one_state(letters, lambda a: Digit(abs(digit_value(a))),
                      output_alphabet=out)


def operator_lift(fn, alphabet) -> Machine:
    """One-state transducer applying fn letterwise; fn receives a Symbol
    and may return anything `symbol` coerces."""
    letters = sorted({symbol(a) for a in alphabet},
                     key=lambda s: s.sort_key())
    outputs = {}
    for a in letters:
        try:
            outputs[a] = symbol(fn(a))
        except Exception as exc:
            raise ConstructionError(
                f"the lifted operator failed on {a}: {exc}") from exc
    out_alphabet = sorted(set(outputs.values()), key=lambda s: s.sort_key())
    return _one_state(letters, lambda a: outputs[a],
                      output_alphabet=out_alphabet)


# ----------------------------------------------------------------------
# product and composition
# ----------------------------------------------------------------------

def _single_initial(m: Machine, role: str) -> int:
    initials = [i for i, st in enumerate(m.states) if st.is_initial]
    if len(initials) != 1:
        raise MachineError(f"the {role} machine needs exactly one initial state")
    return initials[0]


def cartesian_product(t1: Machine, t2: Machine) -> Machine:
    """Run both transducers in parallel on the same input, writing pairs.

    Requires both factors to be deterministic with exactly one output
    symbol per transition.  A product state is final when both components
    are; its final output zips the component final outputs, padding the
    shorter one with the absent marker."""
    if t1.input_alphabet != t2.input_alphabet:
        raise MachineError("cartesian product needs equal input alphabets")
    for t in t1.transitions + t2.transitions:
        if len(t.output) != 1:
            raise MachineError(
                f"cartesian product needs exactly one output symbol per "
                f"transition, offending transition: {t}")
    start = (_single_initial(t1, "left"), _single_initial(t2, "right"))
    (_, rows1), (_, rows2) = t1._steps(), t2._steps()

    def successors(pair):
        row1, row2 = rows1[pair[0]], rows2[pair[1]]
        for letter in t1.input_alphabet:
            a, b = row1.get(letter), row2.get(letter)
            if a is not None and b is not None:
                yield (letter,), (a[0], b[0]), (Pair(a[1][0], b[1][0]),)

    def final(pair):
        s1, s2 = t1.states[pair[0]], t2.states[pair[1]]
        if not (s1.is_final and s2.is_final):
            return None
        return tuple(Pair(u, v) for u, v in zip_longest(
            s1.final_output, s2.final_output, fillvalue=ABSENT))

    return explore(TRANSDUCER, t1.input_alphabet, [start], successors,
                   _pair_label(t1, t2), final)


def compose(outer: Machine, inner: Machine) -> Machine:
    """Feed every output of `inner` through `outer` (run inner first).

    States are (inner state, outer state) pairs.  A pair is final when the
    inner state is final and the outer machine, after consuming the inner
    final output, stops in a final state; the composed final output is what
    the outer machine writes while consuming it, followed by the outer
    final output."""
    start = (_single_initial(inner, "inner"), _single_initial(outer, "outer"))
    if not inner.is_deterministic() or not outer.is_deterministic():
        raise MachineError("composition requires deterministic machines")
    _, inner_rows = inner._steps()

    def successors(pair):
        row = inner_rows[pair[0]]
        for letter in inner.input_alphabet:
            if letter not in row:
                continue
            target, read = row[letter]
            stop, written, complete_run = outer._run_from(pair[1], read)
            if not complete_run:
                t = Transition(inner.states[pair[0]].label,
                               inner.states[target].label, (letter,), read)
                raise MachineError(
                    f"the outer machine blocks on the output of {t}")
            yield (letter,), (target, stop), written

    def final(pair):
        inner_state = inner.states[pair[0]]
        if inner_state.is_final:
            stop, written, complete_run = outer._run_from(
                pair[1], inner_state.final_output)
            if complete_run and outer.states[stop].is_final:
                return written + outer.states[stop].final_output
        return None

    return explore(TRANSDUCER, inner.input_alphabet, [start], successors,
                   _pair_label(inner, outer), final, outer.output_alphabet)


# ----------------------------------------------------------------------
# projection, completion, simplification
# ----------------------------------------------------------------------

def output_projection(t: Machine) -> Machine:
    """Forget inputs: the automaton over the output alphabet accepting
    exactly the outputs of accepting runs (final outputs included)."""
    if t.kind != TRANSDUCER:
        raise MachineError("output projection is defined on transducers")
    alphabet = t.output_alphabet
    if alphabet is None:
        observed = {s for tr in t.transitions for s in tr.output}
        observed.update(s for st in t.states for s in st.final_output)
        alphabet = sorted(observed, key=lambda s: s.sort_key())
        if not alphabet:
            raise MachineError(
                "cannot infer an output alphabet from a machine that never writes")

    states = {st.label: State(st.label, st.is_initial, st.is_final and
                              not st.final_output) for st in t.states}
    transitions = []
    fresh = 0

    def add(base, is_final=False):
        """A new state named `base`, or its first free suffix "#k" when
        that name is taken."""
        label, k = base, 0
        while label in states:
            k += 1
            label = f"{base}#{k}"
        states[label] = State(label, False, is_final)
        return label

    def chain(source, target, output_word):
        """Spell output_word from source to target through fresh states."""
        nonlocal fresh
        if len(output_word) <= 1:
            transitions.append(Transition(source, target, tuple(output_word)))
            return
        here = source
        for s in output_word[:-1]:
            label = add(f"{source}.out{fresh}")
            fresh += 1
            transitions.append(Transition(here, label, (s,)))
            here = label
        transitions.append(Transition(here, target, (output_word[-1],)))

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
    path cycles without meeting a final state stay non-final."""
    letter = symbol(letter)
    if letter not in t.input_alphabet:
        raise MachineError(f"letter {letter} is not in the input alphabet")
    _, rows = t._steps()

    new_states = []
    for here, st in enumerate(t.states):
        collected, visited = [], set()
        while not t.states[here].is_final and here not in visited:
            visited.add(here)
            step = rows[here].get(letter)
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
    return Machine(TRANSDUCER, tuple(new_states), t.transitions,
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
    not guaranteed to be globally minimal.  Blocks are numbered in the
    breadth-first order of `Machine.relabeled`."""
    if not t.is_deterministic():
        raise MachineError("simplify() requires a deterministic machine")
    start, rows = t._steps()
    n = len(t.states)
    moves = [[row.get(letter) for row in rows] for letter in t.input_alphabet]
    # one target column per letter; a missing move targets the sentinel
    # index n, whose block is always -1
    columns = [[n if step is None else step[0] for step in column]
               for column in moves]

    # the first key holds everything but the targets, so that each round
    # of refinement compares target blocks only; block[n] stays -1, and
    # zip stops before it
    block = _first_appearance(zip(
        ((st.is_final, st.final_output) for st in t.states),
        *([None if step is None else step[1] for step in column]
          for column in moves))) + [-1]
    while True:
        refined = _first_appearance(zip(
            block, *(map(block.__getitem__, column) for column in columns)))
        refined.append(-1)
        if refined == block:
            break
        block = refined

    representative = {}
    for i in range(n):
        representative.setdefault(block[i], i)
    successors = [[block[column[i]] for column in columns]
                  for i in representative.values()]
    initial_block = block[start]
    # deterministic, so the canonical order follows letters in order
    reached = bfs_levels([initial_block], lambda b: (
        c for c in successors[b] if c >= 0))
    order = list(reached) + [b for b in representative if b not in reached]
    name = {b: str(i) for i, b in enumerate(order)}
    states = []
    for b in order:
        st = t.states[representative[b]]
        states.append(State(name[b], b == initial_block, st.is_final,
                            st.final_output))
    transitions = tuple(
        Transition(name[b], name[block[targets[i]]], (letter,),
                   column[i][1])
        for b, i in representative.items()
        for letter, column, targets in zip(t.input_alphabet, moves, columns)
        if column[i] is not None)
    return Machine(t.kind, states, transitions,
                   t.input_alphabet, t.output_alphabet)
