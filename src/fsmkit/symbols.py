"""Letters read and written by machines.

A symbol is an integer digit, the absent marker (used to pad the shorter
component of a product machine's final output), or a pair of symbols
(written by product machines).  Symbols are immutable, hashable and
totally ordered: digits first (by value), then the absent marker, then
pairs (lexicographically).  That order fixes the iteration order of every
construction in the toolkit, which makes all outputs reproducible.

Symbols are interned (hash-consed): `Digit(v)`, `Pair(l, r)` and
`AbsentType()` return the one object that exists for their value.  Equal
symbols are then the same object, so equality and hashing are `object`'s
identity ones, which run in C.  A machine run does one step-table lookup
per letter, and value-based dataclass methods would cost each lookup a
Python-level `__hash__` and `__eq__` call.  The caches keep one object per
distinct value ever built, for the life of the process: a machine uses a
handful of letters, and pairs nest at most MAX_PAIR_DEPTH deep.

Identity hashes depend on memory addresses, so a set of symbols is sorted
before its order can reach an output; `_sorted_symbols` and `word_key` are
the only places outside the symbol classes that read `sort_key`.  Where a
symbol lives is chosen, though (`_placed`): a new digit or pair is the
first fresh object whose hash differs in its low bits from the hash of
every digit (or pair) interned before it, three bits while the class has
at most eight members, more as it grows.  A dict probes the slot of a
key's low hash bits first, so the step views (a dict from letter to
column), the digit tables of `digits` and the alphabet sets, which hold a
few letters, find each letter in its first slot whatever the allocator's
layout.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Iterable
from dataclasses import dataclass
from functools import total_ordering
from itertools import repeat

from .errors import ConstructionError, shown

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

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through the constructor, which
        # returns the interned object.
        return type(self), tuple(getattr(self, f) for f in self.__slots__)


# The intern tables.  A constructor validates before it inserts, and
# inserts with setdefault, so concurrent callers share the one object that
# won.  No __init__ is generated (init=False): it would rewrite the fields
# of a shared object on every call.  A digit keeps a plain int, so an int
# subclass built first does not decide how every equal digit prints.
_DIGITS: dict = {}
_PAIRS: dict = {}

# Bound on the fresh objects `_placed` tries for one new symbol; a class
# of n members leaves at least one free residue among 2**k >= n + 1, and
# consecutive small objects step through the residues.
_PLACEMENT_TRIES = 64
_TAKEN: dict = {}  # class -> (mask, the residues `hash & mask` of its members)


def _placed(cls, table, key, values):
    """The object interned for `key` in `table` (setdefault: a concurrent
    caller's may win), made as a fresh object of cls with its slots filled
    by `values`.  It is the first of at most _PLACEMENT_TRIES fresh objects
    whose `hash & mask` no member of the class has, where mask + 1 is the
    smallest power of two of at least 8 that exceeds the class's size.
    The objects passed over stay alive until one is chosen, so each try
    gets a new address."""
    size = 8
    while size <= len(table):
        size *= 2
    mask = size - 1
    kept_mask, taken = _TAKEN.get(cls, (0, None))
    if kept_mask != mask:
        taken = {hash(m) & mask for m in table.values()}
        _TAKEN[cls] = (mask, taken)
    passed_over = []
    for _ in range(_PLACEMENT_TRIES):
        fresh = object.__new__(cls)
        if hash(fresh) & mask not in taken:
            break
        passed_over.append(fresh)
    for name, value in zip(cls.__slots__, values):
        object.__setattr__(fresh, name, value)
    found = table.setdefault(key, fresh)
    taken.add(hash(found) & mask)
    return found


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Digit(Symbol):
    value: int

    def __new__(cls, value):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConstructionError(
                f"digit value must be an int, got {shown(value)}")
        found = _DIGITS.get(value)
        if found is None:
            found = _placed(cls, _DIGITS, value, (int(value),))
        return found

    def sort_key(self):
        return (0, self.value)

    def __str__(self):
        try:
            return str(self.value)
        except ValueError:  # past sys.get_int_max_str_digits()
            raise ConstructionError(
                f"cannot write the {self.value.bit_length()}-bit digit: it "
                f"has more than {sys.get_int_max_str_digits()} decimal "
                "digits") from None

    def __repr__(self):
        return f"Digit(value={self})"


@dataclass(frozen=True, slots=True, eq=False, init=False)
class AbsentType(Symbol):
    def __new__(cls):
        return ABSENT

    def sort_key(self):
        return (1,)

    def __repr__(self):
        return "Absent"

    def __str__(self):
        return "~"


#: The one absent marker; `AbsentType()` returns it.
ABSENT = object.__new__(AbsentType)


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Pair(Symbol):
    left: Symbol
    right: Symbol

    def __new__(cls, left, right):
        if not isinstance(left, Symbol) or not isinstance(right, Symbol):
            raise ConstructionError("pair components must be symbols")
        found = _PAIRS.get((left, right))
        if found is None:
            if 1 + max(pair_depth(left), pair_depth(right)) > MAX_PAIR_DEPTH:
                raise ConstructionError(
                    f"pair nesting deeper than {MAX_PAIR_DEPTH} is not supported")
            found = _placed(cls, _PAIRS, (left, right), (left, right))
        return found

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


Word = tuple  # tuple[Symbol, ...]


def symbol(x) -> Symbol:
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
            raise ConstructionError(
                f"a pair needs exactly two components, got {shown(x)}")
        return Pair(symbol(x[0]), symbol(x[1]))
    raise ConstructionError(f"cannot interpret {shown(x)} as a symbol")


def _sorted_symbols(xs) -> tuple:
    """The distinct symbols of xs, coerced by `symbol`, in the canonical
    order: the one way the toolkit turns a collection of letters into an
    alphabet."""
    if not isinstance(xs, Iterable):
        raise ConstructionError(f"an alphabet must be iterable: {shown(xs)}")
    return tuple(sorted(set(map(symbol, xs)), key=lambda s: s.sort_key()))


def word(x) -> Word:
    """Coerce x to a word (tuple of symbols).

    None is the empty word, a single int or Symbol is a one-letter word,
    and any other iterable is coerced elementwise (so a 2-tuple inside a
    list becomes a Pair letter, while a top-level list is a sequence).  A
    tuple of symbols is already a word and is returned as is: it is
    recognised by checking each distinct letter once, over a `set` of its
    letters.  A tuple with a letter that cannot be hashed is coerced
    elementwise like any other iterable.
    """
    if type(x) is tuple:
        try:
            if all(map(isinstance, set(x), repeat(Symbol))):
                return x
        except Exception:  # a letter whose hash fails, however it fails
            pass
    if x is None:
        return ()
    if isinstance(x, (Symbol, int)):  # `symbol` refuses a bool
        return (symbol(x),)
    if isinstance(x, Iterable):
        return tuple(symbol(e) for e in x)
    raise ConstructionError(f"cannot interpret {shown(x)} as a word")


def word_key(w: Word):
    """Lexicographic sort key for words under the canonical symbol order."""
    return tuple(s.sort_key() for s in w)


def digit_value(s: Symbol) -> int:
    """The integer value of a digit; the absent marker counts as 0."""
    if isinstance(s, Digit):
        return s.value
    if isinstance(s, AbsentType):
        return 0
    raise ConstructionError(f"{shown(s)} has no digit value")


def format_word(w: Word) -> str:
    """The one text of a word: its letters joined by commas.  A lone
    symbol is the one-letter word, as `word` reads it."""
    if isinstance(w, Symbol):
        w = (w,)
    return ",".join(map(str, w))


# splits a symbol token into text and the punctuation around it, which it
# keeps: the text sits at even positions and the marks at odd ones
_SYMBOL_PUNCTUATION = re.compile(r"([()|])")


def parse_symbol_token(token: str) -> Symbol:
    """Parse one textual symbol: an integer, "~", or "a|b" for the pair of
    the symbols a and b.  A component in parentheses is one symbol, as
    `format_word` writes a pair component, so "(1|~)|-2" is a pair whose
    left component is a pair; without them "a|b|c" is "a|(b|c)".  The
    text is read in one pass, with a list of the open parentheses, so no
    nesting exhausts the recursion limit; unbalanced or empty parentheses
    are refused by name."""
    if not isinstance(token, str):
        raise ConstructionError(f"a symbol token is not a str: {shown(token)}")
    groups = [[]]  # the components read so far, per open parenthesis
    last = None  # the component just read, until "|" or ")" takes it
    for k, piece in enumerate(_SYMBOL_PUNCTUATION.split(token)):
        if k % 2 == 0:  # the text between two punctuation marks
            piece = piece.strip()
            if piece:
                if last is not None:  # text right after ")"
                    raise ConstructionError(
                        f"cannot parse symbol token {token.strip()!r}")
                last = _parse_leaf(piece)
        elif piece == "(":
            if last is not None:
                raise ConstructionError(
                    f"cannot parse symbol token {token.strip()!r}")
            groups.append([])
        else:  # "|" or ")" ends a component
            if piece == ")" and len(groups) == 1:
                raise ConstructionError(
                    f"unbalanced parentheses in symbol token {token.strip()!r}")
            if last is None:
                if piece == ")" and not groups[-1]:
                    raise ConstructionError(
                        f"empty parentheses in symbol token {token.strip()!r}")
                raise ConstructionError("empty symbol token")
            groups[-1].append(last)
            last = _chained(groups.pop()) if piece == ")" else None
    if len(groups) > 1:
        raise ConstructionError(
            f"unbalanced parentheses in symbol token {token.strip()!r}")
    if last is None:
        raise ConstructionError("empty symbol token")
    groups[0].append(last)
    return _chained(groups[0])


def _parse_leaf(text: str) -> Symbol:
    """An integer digit or "~", from text with no punctuation."""
    if text == "~":
        return ABSENT
    try:
        return Digit(int(text))
    except ValueError:
        raise ConstructionError(f"cannot parse symbol token {text!r}") from None


def _chained(components) -> Symbol:
    """The components a, b, ..., z read as "a|(b|(...|z))", built from
    the right, so the innermost pair is checked against MAX_PAIR_DEPTH
    first."""
    result = components[-1]
    for left in reversed(components[:-1]):
        result = Pair(left, result)
    return result


def parse_word_text(text: str) -> Word:
    """Parse a comma-separated list of symbol tokens; "" is the empty word."""
    if not isinstance(text, str):
        raise ConstructionError(f"a word text is not a str: {shown(text)}")
    text = text.strip()
    if not text:
        return ()
    return tuple(parse_symbol_token(tok) for tok in text.split(","))
