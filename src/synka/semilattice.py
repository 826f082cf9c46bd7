"""Letter sets and canonical semilattice terms.

A semilattice term is a term built from letters and ``&`` alone. Its value
is simply the set of letters it mentions, so two semilattice terms are
equal up to associativity, commutativity and idempotence exactly when
their letter sets coincide. ``sl_value`` walks the term's distinct nodes
once, in ``postorder``. ``canonical_atom`` fixes one representative per
letter set (letters in order, nested to the left), which makes the value
map invertible on canonical terms: two semilattice terms are equal up to
ACI exactly when they have one canonical representative.

A letter set, the symbol a synchronous word reads at one step, is a
``SymSet``: the tuple of its letters in alphabetical order. Building one
from outside text checks every letter; the union of two sets, taken at
every ``&`` transition and every step of a word product, only merges them.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable

from .terms import Atom, Sync, Term, postorder, sorted_letters


class SymSet(tuple):
    """A nonempty set of letters: the tuple of its letters in alphabetical
    order, so hashing, equality, iteration and the lexicographic order are
    the tuple's. The printed form is ``{a,b}``.
    """

    __slots__ = ()

    def __new__(cls, letters: Iterable[str]) -> SymSet:
        return tuple.__new__(cls, sorted_letters(letters))

    def union(self, other: SymSet) -> SymSet:
        # Both operands were checked when they were built, so their letters
        # need only be merged, not validated again.
        return tuple.__new__(SymSet, sorted(set(self + other)))

    def __str__(self) -> str:
        return "{%s}" % ",".join(self)

    def __repr__(self) -> str:
        return "SymSet(%r)" % ("".join(self),)


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


def sl_value(term: Term) -> SymSet:
    """The letter set denoted by a semilattice term.

    Raises ``ValueError`` when ``term`` contains anything other than
    letters and ``&``.
    """
    used = []
    for t in postorder(term):
        if type(t) is Atom:
            used.append(t.letter)
        elif type(t) is not Sync:
            raise ValueError("not a semilattice term: %s" % term)
    return SymSet(used)


def canonical_atom(symbols: SymSet) -> Term:
    """The canonical semilattice term for a letter set.

    Letters appear in alphabetical order and are combined to the left,
    e.g. ``{a,b,c}`` becomes ``(a & b) & c``. This is a right inverse of
    ``sl_value``: distinct letter sets map to structurally distinct terms
    whose value is the original set.
    """
    term: Term = Atom(symbols[0])
    for letter in symbols[1:]:
        term = Sync(term, Atom(letter))
    return term

