"""A machine is a value: only `fsmkit.machine` writes a Machine's state.
Every other module stores into (or deletes from) attributes of `self`
only, so no construction or analysis can change a machine it was given;
what they derive from a machine is kept through `Machine._kept`."""

import ast
import gc
import weakref
from pathlib import Path

import pytest

import fsmkit
from fsmkit import analysis, automata, digits, transducers
from fsmkit.errors import MachineError
from fsmkit.machine import AUTOMATON, Machine, build_machine
from oracles import reference_columns

PACKAGE = Path(fsmkit.__file__).parent


def _foreign_writes(path):
    """`file:line` of each store or deletion, in any target (assignment,
    loop, `with`, comprehension), into an attribute of anything but
    `self`, or into an item of such an attribute (`m._forms[k] = v`)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if not isinstance(getattr(node, "ctx", None), (ast.Store, ast.Del)):
            continue
        written = node
        while isinstance(written, ast.Subscript):
            written = written.value
        if isinstance(written, ast.Attribute) and not (
                isinstance(written.value, ast.Name)
                and written.value.id == "self"):
            found.append(f"{path.name}:{node.lineno}")
    return found


def test_only_the_machine_module_writes_attributes_of_other_objects():
    modules = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "machine.py" in modules
    writes = [where for path in modules if path.name != "machine.py"
              for where in _foreign_writes(path)]
    assert writes == []


def _spy(monkeypatch):
    """The names of the spied calls made from here on: constructing a
    Machine, `trim`, `accessible`, `is_complete` and `is_aperiodic`."""
    calls = []

    def spy(owner, name):
        original = getattr(owner, name)

        def spied(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, spied)

    for name in ("__init__", "trim", "accessible", "is_complete"):
        spy(Machine, name)
    spy(analysis, "is_aperiodic")
    return calls


def _star():
    """A nondeterministic automaton whose trimmed deterministic form has
    4 states, so the count rule switches at length 16."""
    return automata.kleene_star(automata.word_automaton([0, 1, 1], [0, 1]))


@pytest.mark.parametrize("build, call", [
    (_star, automata.word_count_recurrence),
    (_star, lambda a: automata.count_words(a, 15)),
    (_star, lambda a: automata.count_words(a, 16)),
    (_star, lambda a: list(automata.language(a, 7))),
    (digits.build_naf_acceptor, lambda a: automata.count_words(a, 8)),
    (digits.build_naf_acceptor, lambda a: list(automata.language(a, 4))),
    (digits.build_W, analysis.stationary_distribution),
    (digits.build_W, analysis.asymptotic_moments),
], ids=["recurrence", "count below size**2", "count at size**2", "language",
        "deterministic count", "deterministic language", "stationary",
        "moments"])
def test_a_second_call_reads_the_kept_forms(build, call, monkeypatch):
    """Once a machine keeps its forms, a call on it builds no machine and
    runs none of trim, accessible, is_complete or is_aperiodic again."""
    m = build()
    first = call(m)
    calls = _spy(monkeypatch)
    assert call(m) == first
    assert calls == []


def test_a_refused_step_table_is_built_once():
    """The constructor keeps a nondeterministic machine's refusal in place
    of its step view: determinism checks and counts read it, and each
    `_steps()` call raises a fresh MachineError with its message."""
    nfa = _star()
    kept = nfa._view
    assert type(kept) is str
    for _ in range(5):
        assert not nfa.is_deterministic()
    assert automata.count_words(nfa, 3) == automata.count_words(nfa, 3)
    refusals = []
    for _ in range(2):
        with pytest.raises(MachineError) as raised:
            nfa._steps()
        refusals.append(raised.value)
    assert refusals[0] is not refusals[1]
    assert str(refusals[0]) == str(refusals[1]) == kept != ""
    assert nfa._view is kept


def test_equivalence_of_the_minimal_and_the_subset_automaton_builds_no_machine(
        monkeypatch):
    """Each machine's constructor builds its step view, so deciding
    minimize(x) against determinize(x) reads the two kept views and
    constructs no machine."""
    bits = [0, 1]
    sigma = automata.union(automata.word_automaton([0], bits),
                           automata.word_automaton([1], bits))
    x = automata.concat(automata.kleene_star(sigma),
                        automata.word_automaton([1], bits))
    for _ in range(6):  # the 7th letter from the end is 1
        x = automata.concat(x, sigma)
    m, d = automata.minimize(x), automata.determinize(x)
    calls = _spy(monkeypatch)
    assert automata.is_equivalent(m, d)
    assert calls == []
    assert (len(d.states), len(m.states)) == (129, 128)
    assert m._steps() == reference_columns(m)


def test_intersection_keeps_no_subset_construction_of_a_deterministic_operand():
    """A deterministic operand enters the product as it stands, in either
    position: no determinized copy of it is built or kept."""
    x = _star()
    c = automata.complement(x)
    assert c.is_deterministic()
    assert automata.is_equivalent(automata.intersection(x, c),
                                  automata.intersection(c, x))
    assert "dfa" not in c._forms
    assert "dfa" in x._forms


def test_complement_of_an_incomplete_determinization_builds_one_machine(
        monkeypatch):
    """RT's subset construction misses moves, so its complement gains the
    sink: the completion and the flipped finality are written as one
    machine, whose constructor builds the completed step view."""
    rt = transducers.output_projection(digits.build_T())
    d = automata.determinize(rt)
    assert (len(d.states), d.is_complete()) == (24, False)
    calls = _spy(monkeypatch)
    c = automata.complement(rt)
    assert calls == ["__init__"]
    assert len(c.states) == 25 and c.is_complete()
    assert c._steps() == reference_columns(c)


def _fresh(m):
    """An equal machine that nothing else holds (the presets are cached)."""
    return Machine(m.kind, m.states, m.transitions, m.input_alphabet,
                   m.output_alphabet)


def _with_spare_states():
    """States a and b reach each other and are final; "lost" moves into
    them but nothing reaches it, and "dead" is reached but reaches no
    final state."""
    return build_machine([("a", "b", 0), ("b", "a", 1), ("lost", "a", 0),
                          ("b", "dead", 0)], ["a"], ["a", "b"], [0, 1],
                         kind=AUTOMATON)


@pytest.mark.parametrize("name, dropped", [
    ("trim", {"lost", "dead"}), ("accessible", {"lost"}),
    ("coaccessible", {"dead"})])
def test_a_restriction_that_drops_nothing_returns_the_machine(name, dropped):
    m = _with_spare_states()
    restricted = getattr(m, name)()
    assert restricted is not m
    assert {st.label for st in m.states} - {
        st.label for st in restricted.states} == dropped
    assert getattr(restricted, name)() is restricted
    kept = build_machine([("a", "b", 0), ("b", "a", 1)], ["a"], ["a", "b"],
                         [0, 1], kind=AUTOMATON)
    assert getattr(kept, name)() is kept


@pytest.mark.parametrize("build, calls", [
    (lambda: digits.build_naf_acceptor().trim(), (
        lambda a: automata.count_words(a, 3),
        lambda a: automata.count_words(a, 100),
        automata.word_count_recurrence, automata.determinize,
        lambda a: list(automata.language(a, 4)))),
    (lambda: _fresh(digits.build_W()), (analysis.stationary_distribution,
                                        analysis.asymptotic_moments)),
], ids=["trimmed automaton", "W"])
def test_a_machine_that_keeps_itself_as_a_form_is_freed_at_del(build, calls):
    """A kept form that is the machine itself (its trimmed form or its
    accessible part) leaves no reference cycle: with the cyclic collector
    off, reference counting frees the machine as soon as the last name
    goes."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        m = build()
        assert m.trim() is m
        for call in calls:
            call(m)
        ref = weakref.ref(m)
        del m
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
