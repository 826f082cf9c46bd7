"""Letter sets and canonical semilattice terms.

A semilattice term is a term built from letters and ``&`` alone. Its value
is simply the set of letters it mentions, so two semilattice terms are
equal up to associativity, commutativity and idempotence exactly when
their letter sets coincide. ``canonical_atom`` fixes one representative
per letter set (letters in order, nested to the left), which makes the
value map invertible on canonical terms.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable

from .terms import Atom, Sync, Term, letters, sorted_letters


class SymSet:
    """A nonempty set of letters, stored in the fixed alphabetical order.

    Instances are immutable, hashable, iterable in letter order, and
    totally ordered lexicographically. The printed form is ``{a,b}``.
    """

    __slots__ = ("letters", "_hash")

    def __init__(self, letters: Iterable[str]):
        self.letters = sorted_letters(letters)
        self._hash = hash(self.letters)

    def union(self, other: SymSet) -> SymSet:
        return SymSet(self.letters + other.letters)

    def __contains__(self, letter: str) -> bool:
        return letter in self.letters

    def __iter__(self):
        return iter(self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return isinstance(other, SymSet) and self.letters == other.letters

    def __lt__(self, other: SymSet) -> bool:
        return self.letters < other.letters

    def __le__(self, other: SymSet) -> bool:
        return self.letters <= other.letters

    def __str__(self) -> str:
        return "{%s}" % ",".join(self.letters)

    def __repr__(self) -> str:
        return "SymSet(%r)" % ("".join(self.letters),)


def parse_symset(text: str) -> SymSet:
    """Parse a ``{a,b}`` literal."""
    stripped = text.strip()
    if not (stripped.startswith("{") and stripped.endswith("}")):
        raise ValueError("symbol set literal must look like {a,b}, got %r" % (text,))
    body = stripped[1:-1]
    parts = [p.strip() for p in body.split(",")] if body.strip() else []
    if not parts or any(not p for p in parts):
        raise ValueError("symbol set literal must list letters, got %r" % (text,))
    return SymSet(parts)


def nonempty_subsets(alphabet: Iterable[str]) -> tuple[SymSet, ...]:
    """All nonempty subsets of ``alphabet``, in lexicographic order."""
    base = sorted(set(alphabet))
    subsets = []
    for r in range(1, len(base) + 1):
        for combo in itertools.combinations(base, r):
            subsets.append(SymSet(combo))
    return tuple(sorted(subsets))


def is_sl_term(term: Term) -> bool:
    """True when ``term`` uses letters and ``&`` only."""
    return term._sl


def sl_value(term: Term) -> SymSet:
    """The letter set denoted by a semilattice term.

    Raises ``ValueError`` when ``term`` contains anything other than
    letters and ``&``.
    """
    if not is_sl_term(term):
        raise ValueError("not a semilattice term: %s" % term)
    return SymSet(letters(term))


def canonical_atom(symbols: SymSet) -> Term:
    """The canonical semilattice term for a letter set.

    Letters appear in alphabetical order and are combined to the left,
    e.g. ``{a,b,c}`` becomes ``(a & b) & c``. This is a right inverse of
    ``sl_value``: distinct letter sets map to structurally distinct terms
    whose value is the original set.
    """
    term: Term = Atom(symbols.letters[0])
    for letter in symbols.letters[1:]:
        term = Sync(term, Atom(letter))
    return term


def normalize_sl(term: Term) -> Term:
    """Rewrite a semilattice term to the canonical representative of its
    letter set."""
    return canonical_atom(sl_value(term))


def sl_equal(e: Term, f: Term) -> bool:
    """Decide equality of semilattice terms up to ACI of ``&``."""
    return sl_value(e) == sl_value(f)
