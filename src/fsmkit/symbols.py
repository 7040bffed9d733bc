"""Letters read and written by machines.

A symbol is an integer digit, the absent marker (used to pad the shorter
component of a product machine's final output), or a pair of symbols
(written by product machines).  Symbols are immutable, hashable and
totally ordered: digits first (by value), then the absent marker, then
pairs (lexicographically).  That order fixes the iteration order of every
construction in the toolkit, which makes all outputs reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering
from itertools import repeat
from typing import Iterable, Union

from .errors import ConstructionError

MAX_PAIR_DEPTH = 4


@total_ordering
class Symbol:
    """Base class; concrete symbols are Digit, the absent marker and Pair."""

    __slots__ = ()

    def sort_key(self):
        raise NotImplementedError

    def __lt__(self, other):
        if not isinstance(other, Symbol):
            return NotImplemented
        return self.sort_key() < other.sort_key()


@dataclass(frozen=True, slots=True)
class Digit(Symbol):
    value: int

    def __post_init__(self):
        if isinstance(self.value, bool) or not isinstance(self.value, int):
            raise ConstructionError(f"digit value must be an int, got {self.value!r}")

    def sort_key(self):
        return (0, self.value)

    def __str__(self):
        return str(self.value)


@dataclass(frozen=True, slots=True)
class AbsentType(Symbol):
    def sort_key(self):
        return (1,)

    def __repr__(self):
        return "Absent"

    def __str__(self):
        return "~"


#: The one absent marker; all AbsentType instances compare equal anyway.
ABSENT = AbsentType()


@dataclass(frozen=True, slots=True)
class Pair(Symbol):
    left: Symbol
    right: Symbol

    def __post_init__(self):
        if not isinstance(self.left, Symbol) or not isinstance(self.right, Symbol):
            raise ConstructionError("pair components must be symbols")
        if pair_depth(self) > MAX_PAIR_DEPTH:
            raise ConstructionError(
                f"pair nesting deeper than {MAX_PAIR_DEPTH} is not supported"
            )

    def sort_key(self):
        return (2, self.left.sort_key(), self.right.sort_key())

    def __str__(self):
        return f"{_component_str(self.left)}|{_component_str(self.right)}"


def _component_str(s: Symbol) -> str:
    return f"({s})" if isinstance(s, Pair) else str(s)


def pair_depth(s: Symbol) -> int:
    if isinstance(s, Pair):
        return 1 + max(pair_depth(s.left), pair_depth(s.right))
    return 0


SymbolLike = Union[Symbol, int, None, tuple]
Word = tuple  # tuple[Symbol, ...]


def symbol(x: SymbolLike) -> Symbol:
    """Coerce x to a Symbol: int -> Digit, None -> ABSENT, 2-tuple -> Pair."""
    if isinstance(x, Symbol):
        return x
    if x is None:
        return ABSENT
    if isinstance(x, bool):
        raise ConstructionError("booleans are not symbols")
    if isinstance(x, int):
        return Digit(x)
    if isinstance(x, (tuple, list)):
        if len(x) != 2:
            raise ConstructionError(f"a pair needs exactly two components, got {x!r}")
        return Pair(symbol(x[0]), symbol(x[1]))
    raise ConstructionError(f"cannot interpret {x!r} as a symbol")


def word(x) -> Word:
    """Coerce x to a word (tuple of symbols).

    None is the empty word, a single int or Symbol is a one-letter word,
    and any other iterable is coerced elementwise (so a 2-tuple inside a
    list becomes a Pair letter, while a top-level list is a sequence).  A
    tuple of symbols is already a word and is returned as is.
    """
    if type(x) is tuple and all(map(isinstance, x, repeat(Symbol))):
        return x
    if x is None:
        return ()
    if isinstance(x, Symbol):
        return (x,)
    if isinstance(x, bool):
        raise ConstructionError("booleans are not symbols")
    if isinstance(x, int):
        return (Digit(x),)
    if isinstance(x, Iterable):
        return tuple(symbol(e) for e in x)
    raise ConstructionError(f"cannot interpret {x!r} as a word")


def word_key(w: Word):
    """Lexicographic sort key for words under the canonical symbol order."""
    return tuple(s.sort_key() for s in w)


def digit_value(s: Symbol) -> int:
    """The integer value of a digit; the absent marker counts as 0."""
    if isinstance(s, Digit):
        return s.value
    if isinstance(s, AbsentType):
        return 0
    raise ConstructionError(f"{s!r} has no digit value")


def format_word(w: Word) -> str:
    return ",".join(str(s) for s in w)


def parse_symbol_token(token: str) -> Symbol:
    """Parse one textual symbol: an integer, "~", or "a|b" for a pair."""
    token = token.strip()
    if not token:
        raise ConstructionError("empty symbol token")
    if token == "~":
        return ABSENT
    if "|" in token:
        left, sep, right = token.partition("|")
        return Pair(parse_symbol_token(left), parse_symbol_token(right))
    try:
        return Digit(int(token))
    except ValueError:
        raise ConstructionError(f"cannot parse symbol token {token!r}") from None


def parse_word_text(text: str) -> Word:
    """Parse a comma-separated list of symbol tokens; "" is the empty word."""
    text = text.strip()
    if not text:
        return ()
    return tuple(parse_symbol_token(tok) for tok in text.split(","))
