"""Executable language semantics, truncated at a word-length bound.

A synchronous word is a tuple of :class:`SymSet` symbols; the empty tuple
is the empty word. A :class:`BoundedLang` holds the words of a language up
to a fixed length bound. Every operator below discards words longer than
the bound, which is harmless for checking membership of words within the
bound: sequencing never shortens a word, and the synchronous product of
two words is as long as the longer operand, so no word within the bound
ever needs an operand word beyond it.

``sem_bounded`` is one ``terms.evaluate`` call, with the operators below
and the constants for its bound as the ``Ops`` record, so each distinct
subterm is evaluated once.
"""

from __future__ import annotations

from collections.abc import Iterable

from .semilattice import SymSet, parse_symset
from .terms import Ops, Term, evaluate

SyncWord = tuple[SymSet, ...]


class BoundMismatchError(ValueError):
    """Raised when an operation mixes languages with different bounds."""


def word_sync(u: SyncWord, v: SyncWord) -> SyncWord:
    """Synchronous product of two words: pointwise union of symbols, with
    the tail of the longer word surviving unchanged."""
    if len(u) < len(v):
        u, v = v, u
    head = tuple(x.union(y) for x, y in zip(u, v))
    return head + u[len(v):]


def format_word(word: SyncWord) -> str:
    return "".join(str(sym) for sym in word) if word else "eps"


def parse_word(text: str) -> SyncWord:
    """Parse a word literal: concatenated ``{a,b}`` groups, or ``eps``."""
    stripped = text.strip()
    if stripped == "eps":
        return ()
    if not stripped:
        raise ValueError("empty word literal; write eps for the empty word")
    symbols = []
    rest = stripped
    while rest:
        if not rest.startswith("{"):
            raise ValueError("malformed word literal %r" % (text,))
        end = rest.find("}")
        if end < 0:
            raise ValueError("unterminated symbol set in %r" % (text,))
        symbols.append(parse_symset(rest[: end + 1]))
        rest = rest[end + 1:].lstrip()
    return tuple(symbols)


class BoundedLang:
    """A finite set of words, all of length at most ``bound``."""

    __slots__ = ("bound", "words", "_hash")

    def __init__(self, bound: int, words: Iterable[SyncWord] = ()):
        if bound < 0:
            raise ValueError("bound must be nonnegative")
        ws = frozenset(words)
        for w in ws:
            if len(w) > bound:
                raise ValueError("word %s exceeds bound %d" % (format_word(w), bound))
        self.bound = bound
        self.words = ws
        self._hash = hash((bound, ws))

    def sorted_words(self) -> list[SyncWord]:
        """Words in shortlex order (length first, then symbol order)."""
        return sorted(self.words, key=lambda w: (len(w), w))

    def __contains__(self, word: SyncWord) -> bool:
        return word in self.words

    def __len__(self) -> int:
        return len(self.words)

    def __iter__(self):
        return iter(self.sorted_words())

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BoundedLang)
            and self.bound == other.bound
            and self.words == other.words
        )

    def __str__(self) -> str:
        return "\n".join(format_word(w) for w in self.sorted_words())

    def __repr__(self) -> str:
        return "BoundedLang(bound=%d, words=%d)" % (self.bound, len(self.words))


def _same_bound(*langs: BoundedLang) -> int:
    bounds = {l.bound for l in langs}
    if len(bounds) != 1:
        raise BoundMismatchError("operands have different bounds: %s" % sorted(bounds))
    return bounds.pop()


def lang_union(k: BoundedLang, l: BoundedLang) -> BoundedLang:
    bound = _same_bound(k, l)
    return BoundedLang(bound, k.words | l.words)


def lang_concat(k: BoundedLang, l: BoundedLang) -> BoundedLang:
    bound = _same_bound(k, l)
    words = set()
    for u in k.words:
        room = bound - len(u)
        for v in l.words:
            if len(v) <= room:
                words.add(u + v)
    return BoundedLang(bound, words)


def lang_sync(k: BoundedLang, l: BoundedLang) -> BoundedLang:
    bound = _same_bound(k, l)
    return BoundedLang(bound, (word_sync(u, v) for u in k.words for v in l.words))


def lang_star(k: BoundedLang) -> BoundedLang:
    """Iteration as the least fixed point of ``L -> {eps} | K.L``.

    Fixed-point iteration terminates even when ``eps`` is in ``K`` (plain
    power iteration would not), because the bounded languages form a
    finite lattice.
    """
    current = BoundedLang(k.bound)
    eps = BoundedLang(k.bound, ((),))
    while True:
        step = lang_union(eps, lang_concat(k, current))
        if step == current:
            return current
        current = step


def lang_h(k: BoundedLang) -> BoundedLang:
    return BoundedLang(k.bound, (w for w in k.words if not w))


def sem_bounded(term: Term, bound: int) -> BoundedLang:
    """All words of the language of ``term`` of length at most ``bound``.

    Each distinct subterm is computed once per call, by ``evaluate``, so
    the recursion limit does not bound the term's depth. Nothing is kept
    between calls.
    """
    ops = Ops(plus=lang_union, dot=lang_concat, sync=lang_sync, star=lang_star,
              zero=BoundedLang(bound), one=BoundedLang(bound, ((),)), h=lang_h)
    return evaluate(term, ops,
                    lambda letter: BoundedLang(bound, ((SymSet(letter),),) if bound >= 1 else ()))

