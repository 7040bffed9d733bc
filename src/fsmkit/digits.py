"""Binary digit utilities and the built-in case-study machines.

The builders assemble, from the algebra modules, the non-adjacent-form
family (the NAF acceptor, the binary-to-NAF rewriters, the any-digit
rewriter), the multiply-by-three transducer, the pairing/difference chain
that rewrites a binary expansion into the 3/2-1/2 non-adjacent form (the
digitwise difference of the NAFs of 3n/2 and n/2, digits -2..2), the
Hamming-weight composition over it and the acceptor of its outputs.
Machines are immutable, so each builder runs once per process and later
calls return the same machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import chain

from . import automata, transducers
from .errors import ConstructionError, shown
from .machine import Machine, build_machine
from .symbols import ABSENT, AbsentType, Digit, Pair, Word, digit_value, word


# The eight digits of each byte value, least significant first; a list
# subscript by the byte itself, so no lookup hashes.
_BITS = (Digit(0), Digit(1))
_OCTETS = [tuple(_BITS[b >> i & 1] for i in range(8)) for b in range(256)]

# Bound on |exponent_offset|: it keeps a value within about 2**20 bits
# (128 KiB) beyond its digits.  The CLI prints such a value in about 2 s,
# and printing time grows quadratically with the size (32 s at 2**22;
# Python 3.11 on a 2-core VM).
MAX_EXPONENT_OFFSET = 2**20


def binary_digits(n: int) -> Word:
    """Standard binary digits of an int n >= 0, least significant first;
    0 has no digits.  Read off n's little-endian bytes, eight digits per
    byte through `_OCTETS`, so the cost is linear in the length."""
    if isinstance(n, bool) or not isinstance(n, int):
        raise ConstructionError(
            f"binary digits are defined for ints, not {shown(n)}")
    if n < 0:
        raise ConstructionError("binary digits are defined for n >= 0")
    size = n.bit_length()
    octets = n.to_bytes((size + 7) // 8, "little")
    return tuple(chain.from_iterable(map(_OCTETS.__getitem__, octets)))[:size]


@dataclass(frozen=True)
class Expansion:
    """A base-2 expansion, least significant digit first; digit i weighs
    2**(i + exponent_offset)."""

    digits: Word
    exponent_offset: int = 0

    def value(self) -> Fraction:
        """The exact value, a Fraction (also for the empty word), in
        O(n log n) bit operations for n digits: neighbouring values are
        folded pairwise into integers of twice the width, pass after pass,
        and the offset is applied once to the total.  The first pass reads
        the two digit values of each step from `_VALUES` itself; a letter
        missing there sends the digits through `_read` once, which enters
        them or raises.  An offset beyond MAX_EXPONENT_OFFSET in absolute
        value raises ConstructionError."""
        e = self._bounded_offset()
        letters = tuple(self.digits)
        try:
            values = _paired_values(letters)
        except (KeyError, TypeError):  # a new symbol, or no symbol at all
            _read(_VALUES, int, letters)
            values = _paired_values(letters)
        width = 2
        while len(values) > 1:
            if len(values) % 2:
                values.append(0)
            values = [low + (high << width)
                      for low, high in zip(values[::2], values[1::2])]
            width *= 2
        total = values[0] if values else 0
        return Fraction(total << e) if e >= 0 else Fraction(total, 1 << -e)

    def digit_string(self) -> str:
        """Most-significant-first rendering like (1001̄0)_2, with a centered
        dot before the fractional digits and negative digits overlined.
        An offset beyond MAX_EXPONENT_OFFSET in absolute value raises
        ConstructionError."""
        e = self._bounded_offset()
        rendered = _read(_CHARS, _digit_char, self.digits)[::-1]
        if e > 0:
            return f"({''.join(rendered)}{'0' * e})_2"
        rendered[:0] = ["0"] * (1 - e - len(rendered))
        if e:
            integral, fractional = rendered[:e], rendered[e:]
            while len(fractional) > 1 and fractional[-1] == "0":
                fractional.pop()
            body = "".join(integral) + "·" + "".join(fractional)
        else:
            body = "".join(rendered)
        return f"({body})_2"

    def _bounded_offset(self) -> int:
        e = self.exponent_offset
        if isinstance(e, bool) or not isinstance(e, int):
            raise ConstructionError(
                f"the exponent offset must be an int, not {shown(e)}")
        if abs(e) > MAX_EXPONENT_OFFSET:
            raise ConstructionError(
                f"the exponent offset must be at most MAX_EXPONENT_OFFSET = "
                f"{MAX_EXPONENT_OFFSET} in absolute value")
        return e


def _digit_char(v: int) -> str:
    """The text of digit v; `Digit`'s str refuses one past the int limit."""
    return str(Digit(v)) if v >= 0 else str(Digit(-v)) + "̄"


# Digit symbol -> its value, and -> its rendered text.  Symbols are
# interned, so a lookup hashes by identity, in C; one entry per symbol.
_VALUES, _CHARS = {}, {}


def _read(table, render, letters) -> list:
    """render(digit_value(d)) for each letter d through `table`, which a
    miss fills; the first letter with no digit value raises there."""
    try:
        return list(map(table.__getitem__, letters))
    except (KeyError, TypeError):  # a new symbol, or no symbol at all
        table.update((d, render(digit_value(d))) for d in letters)
    return list(map(table.__getitem__, letters))


def _paired_values(letters) -> list:
    """v(low) + 2 v(high) for each pair of neighbouring letters, and v of
    a last letter left without a pair, where v reads `_VALUES`."""
    v = _VALUES
    values = [v[low] + (v[high] << 1)
              for low, high in zip(letters[::2], letters[1::2])]
    if len(letters) % 2:
        values.append(v[letters[-1]])
    return values


def hamming_weight(w) -> int:
    """Number of nonzero digits; pairs and the absent marker are not
    digits and raise."""
    total = 0
    for s in word(w):
        if isinstance(s, (Pair, AbsentType)):
            raise ConstructionError(f"{s} has no Hamming weight")
        if s.value != 0:
            total += 1
    return total


# ----------------------------------------------------------------------
# transition functions
# ----------------------------------------------------------------------

def _naf_transition(state, read):
    """Rewrite a binary (or signed binary) expansion into its NAF: the
    first digit is stored, afterwards the pending value 2*read + carry
    decides the written digit by its residue mod 4."""
    if state == "I":
        return read, None
    current = 2 * read + state
    if current % 2 == 0:
        write = 0
    elif current % 4 == 1:
        write = 1
    else:
        write = -1
    return (current - write) // 2, write


def _triple_transition(carry, read):
    current = 3 * read + carry
    write = current % 2
    return (current - write) // 2, write


# ----------------------------------------------------------------------
# builders
# ----------------------------------------------------------------------

def _completed(fn, alphabet, initial) -> Machine:
    """The rewriter explored from transition function fn, starting at
    `initial` with final state 0, completed with final outputs by reading
    zeros."""
    m = transducers.from_transition_function(fn, alphabet, [initial], [0])
    return transducers.with_final_word_out(m, 0)


@cache
def build_naf_acceptor() -> Machine:
    """Minimal complete acceptor of non-adjacent forms over {-1, 0, 1}:
    words where no two adjacent digits are both nonzero, built from
    (0 + 10 + (-1)0)* (1 + -1 + eps)."""
    alphabet = [-1, 0, 1]
    w = lambda letters: automata.word_automaton(letters, alphabet)
    block = automata.union(automata.union(w([0]), automata.concat(w([1]), w([0]))),
                           automata.concat(w([-1]), w([0])))
    tail = automata.union(automata.union(w([1]), w([-1])),
                          automata.empty_word_automaton(alphabet))
    return automata.minimize(automata.concat(automata.kleene_star(block), tail))


@cache
def build_naf1() -> Machine:
    """Binary-to-NAF rewriter given by its eight transitions; the initial
    state stores the first digit, states 0..2 the pending carry."""
    return build_machine(
        [("I", 0, 0, None), ("I", 1, 1, None),
         (0, 0, 0, 0), (0, 1, 1, 0),
         (1, 0, 0, 1), (1, 2, 1, -1),
         (2, 1, 0, 0), (2, 2, 1, 0)],
        initial_labels=["I"], final_labels=[0], input_alphabet=[0, 1])


@cache
def build_naf2() -> Machine:
    """The same rewriter from its transition function, completed with
    final outputs by reading zeros."""
    return _completed(_naf_transition, [0, 1], "I")


@cache
def build_naf_all() -> Machine:
    """NAF rewriter for any expansion over digits {-1, 0, 1}, completed
    with final outputs; six states."""
    return _completed(_naf_transition, [-1, 0, 1], "I")


@cache
def build_triple() -> Machine:
    """Multiply a binary expansion by three, completed with final outputs."""
    return _completed(_triple_transition, [0, 1], 0)


@cache
def build_minus() -> Machine:
    """Componentwise difference on pairs of digits -1, 0, 1 or the absent
    marker: writes left - right with the absent marker read as zero."""
    components = [ABSENT, Digit(-1), Digit(0), Digit(1)]
    alphabet = [Pair(a, b) for a in components for b in components]
    return transducers.operator_lift(
        lambda p: Digit(digit_value(p.left) - digit_value(p.right)), alphabet)


@cache
def build_combined_3n_n() -> Machine:
    """Pairs of the binary digits of 3n and of n, read from n in binary."""
    return transducers.cartesian_product(
        build_triple(),
        transducers.identity_transducer([0, 1])).relabeled()


@cache
def build_naf3() -> Machine:
    """NAF of 2n from n in binary (each output digit weighs half the
    matching input digit), as difference-of-digits of 3n and n."""
    return transducers.compose(build_minus(), build_combined_3n_n()).relabeled()


@cache
def build_naf3n() -> Machine:
    """NAF of 6n from n in binary (the rewriter applied behind the
    multiply-by-three transducer)."""
    return transducers.compose(build_naf3(), build_triple())


@cache
def build_T() -> Machine:
    """The 3/2-1/2 rewriter: digitwise NAF(3n/2) - NAF(n/2) with output
    digits -2..2 starting at the digit weighing 1/4."""
    combined = transducers.cartesian_product(build_naf3n(), build_naf3()).relabeled()
    return transducers.compose(build_minus(), combined).relabeled()


@cache
def build_W() -> Machine:
    """Hamming weight of the 3/2-1/2 expansion, unary in the output sum;
    simplified by merging behaviorally equivalent states."""
    raw = transducers.compose(
        transducers.weight_transducer(range(-2, 3)), build_T())
    return transducers.simplify(raw)


@cache
def build_R() -> Machine:
    """Minimal acceptor of the outputs of the 3/2-1/2 rewriter."""
    return automata.minimize(transducers.output_projection(build_T()))


# ----------------------------------------------------------------------
# convenience wrappers
# ----------------------------------------------------------------------

def naf_of(n: int) -> Expansion:
    """Non-adjacent form of n >= 0 computed by the completed rewriter."""
    return Expansion(build_naf2().transduce(binary_digits(n)), 0)


def three_half_naf_of(n: int) -> Expansion:
    """3/2-1/2 non-adjacent form of n >= 0; digits in -2..2, least
    significant digit weighing 1/4.  Leading and trailing zeros from the
    rewriter are kept."""
    return Expansion(build_T().transduce(binary_digits(n)), -2)
