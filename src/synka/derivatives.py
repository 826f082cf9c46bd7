"""Partial derivatives and the syntactic automaton.

``nullable`` tells whether a term accepts the empty word, and
``transitions`` gives a term's one-step behaviour as a table from each
symbol set the term can read to its continuation terms (the linear forms
of Antimirov, "Partial derivatives of regular expressions and finite
automaton constructions", 1996). It is the only function that encodes the
derivative rules: ``derive``, the determinized ``step``, ``unfold``, the
automaton, equivalence and normal forms all read its tables.
``reachable_terms`` over-approximates everything reachable by iterated
derivatives. Together they present a term as a state of a nondeterministic
automaton whose symbols are nonempty letter sets.

A table lists only the symbols its term can read, and each of them is a
subset of the term's letters: an atom reads its own letter, and a product
reads unions of symbols its operands read. Nothing walks the full set of
nonempty letter subsets to find a term's transitions.
"""

from __future__ import annotations

import functools
import warnings
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from types import MappingProxyType

from .language import SyncWord
from .semilattice import SymSet, canonical_atom, nonempty_subsets
from .terms import Atom, H, One, Plus, Seq, Star, Sync, Term, Zero, letters

# Alphabets beyond this many letters make the automaton's subset alphabet
# (2^|A| - 1 symbols, listed and rendered in full) impractical on a desk
# machine.
SUPPORT_WARN_LIMIT = 8


@functools.lru_cache(maxsize=None)
def nullable(term: Term) -> bool:
    """True when the empty word belongs to the language of ``term``."""
    if isinstance(term, (Zero, Atom)):
        return False
    if isinstance(term, One) or isinstance(term, Star):
        return True
    if isinstance(term, Plus):
        return nullable(term.left) or nullable(term.right)
    if isinstance(term, (Seq, Sync)):
        return nullable(term.left) and nullable(term.right)
    if isinstance(term, H):
        return nullable(term.inner)
    raise TypeError("unknown term node %r" % (term,))


def _merge(into: dict[SymSet, frozenset[Term]], table: Mapping[SymSet, frozenset[Term]]) -> None:
    for symbol, targets in table.items():
        seen = into.get(symbol)
        into[symbol] = targets if seen is None else seen | targets


@functools.lru_cache(maxsize=None)
def transitions(term: Term) -> Mapping[SymSet, frozenset[Term]]:
    """The one-step behaviour of ``term``: each symbol set it can read,
    mapped to the nonempty set of continuation terms.

    A product ``e & f`` reads the union of one symbol of each operand and
    continues with the product of their continuations; it also steps as
    ``e`` alone when ``f`` accepts the empty word, and as ``f`` alone when
    ``e`` does. The table is shared by every caller and is read-only.
    """
    table: dict[SymSet, frozenset[Term]] = {}
    if isinstance(term, Atom):
        table[SymSet(term.letter)] = frozenset((One(),))
    elif isinstance(term, Plus):
        _merge(table, transitions(term.left))
        _merge(table, transitions(term.right))
    elif isinstance(term, Seq):
        for symbol, targets in transitions(term.left).items():
            table[symbol] = frozenset(Seq(t, term.right) for t in targets)
        if nullable(term.left):
            _merge(table, transitions(term.right))
    elif isinstance(term, Star):
        for symbol, targets in transitions(term.inner).items():
            table[symbol] = frozenset(Seq(t, term) for t in targets)
    elif isinstance(term, Sync):
        lefts = transitions(term.left)
        rights = transitions(term.right)
        for left_symbol, left_targets in lefts.items():
            for right_symbol, right_targets in rights.items():
                symbol = left_symbol.union(right_symbol)
                product = {Sync(lt, rt) for lt in left_targets for rt in right_targets}
                table[symbol] = table.get(symbol, frozenset()) | product
        if nullable(term.right):
            _merge(table, lefts)
        if nullable(term.left):
            _merge(table, rights)
    elif not isinstance(term, (Zero, One, H)):
        raise TypeError("unknown term node %r" % (term,))
    return MappingProxyType(table)


def derive(term: Term, symbols: SymSet) -> frozenset[Term]:
    """Partial derivative: the terms reachable from ``term`` by reading the
    symbol set ``symbols`` in one step."""
    return transitions(term).get(symbols, frozenset())


def step(states: Iterable[Term]) -> dict[SymSet, frozenset[Term]]:
    """Determinized transition on a set of states: each symbol some state
    can read, mapped to all continuations on it."""
    merged: dict[SymSet, frozenset[Term]] = {}
    for state in states:
        _merge(merged, transitions(state))
    return merged


@functools.lru_cache(maxsize=None)
def reachable_terms(term: Term) -> frozenset[Term]:
    """A finite set containing every term reachable from ``term`` by
    iterated derivatives (the term itself may be absent)."""
    if isinstance(term, Zero):
        return frozenset()
    if isinstance(term, One):
        return frozenset((One(),))
    if isinstance(term, Atom):
        return frozenset((One(), term))
    if isinstance(term, H):
        return frozenset((One(),))
    if isinstance(term, Plus):
        return reachable_terms(term.left) | reachable_terms(term.right)
    if isinstance(term, Seq):
        out = {Seq(t, term.right) for t in reachable_terms(term.left)}
        return frozenset(out) | reachable_terms(term.right)
    if isinstance(term, Star):
        out = {Seq(t, term) for t in reachable_terms(term.inner)}
        out.add(One())
        return frozenset(out)
    if isinstance(term, Sync):
        lefts = reachable_terms(term.left)
        rights = reachable_terms(term.right)
        out = {Sync(lt, rt) for lt in lefts for rt in rights}
        return frozenset(out) | lefts | rights
    raise TypeError("unknown term node %r" % (term,))


@dataclass(frozen=True)
class Automaton:
    """The syntactic automaton of a term, restricted to its reachable
    state set. States are terms compared structurally."""

    initial: Term
    states: tuple[Term, ...]
    alphabet: tuple[SymSet, ...]
    accepting: frozenset[Term]
    transitions: dict[tuple[Term, SymSet], frozenset[Term]]


def build_automaton(term: Term) -> Automaton:
    """Build the automaton whose states are ``reachable_terms(term)`` plus
    the term itself, with transitions over the nonempty subsets of the
    term's letters."""
    support = letters(term)
    if len(support) > SUPPORT_WARN_LIMIT:
        warnings.warn(
            "term uses %d letters; the subset alphabet has %d symbols"
            % (len(support), 2 ** len(support) - 1),
            stacklevel=2,
        )
    reach = reachable_terms(term)
    states = tuple(sorted(reach | {term}, key=str))
    edges: dict[tuple[Term, SymSet], frozenset[Term]] = {}
    for state in states:
        for symbol, targets in transitions(state).items():
            if not targets <= reach:
                raise AssertionError(
                    "derivative escaped the reachable set: %s --%s--> %s"
                    % (state, symbol, sorted(map(str, targets - reach)))
                )
            edges[(state, symbol)] = targets
    accepting = frozenset(s for s in states if nullable(s))
    return Automaton(
        initial=term,
        states=states,
        alphabet=nonempty_subsets(support),
        accepting=accepting,
        transitions=edges,
    )


def accepts(automaton: Automaton, word: SyncWord) -> bool:
    """Standard nondeterministic acceptance; a symbol no current state can
    read rejects immediately."""
    current = frozenset((automaton.initial,))
    for symbol in word:
        current = step(current).get(symbol)
        if not current:
            return False
    return any(state in automaton.accepting for state in current)


def unfold(term: Term) -> tuple[bool, list[tuple[SymSet, Term]]]:
    """One-step decomposition: the empty-word bit plus all (symbol,
    continuation) summands, sorted by symbol and then printed term."""
    summands = [
        (symbol, target)
        for symbol, targets in transitions(term).items()
        for target in targets
    ]
    summands.sort(key=lambda item: (item[0], str(item[1])))
    return nullable(term), summands


def unfold_as_term(term: Term) -> Term:
    """Reassemble :func:`unfold` output as a term: the empty-word constant
    plus one ``atom ; continuation`` summand per transition."""
    empty_part, summands = unfold(term)
    acc: Term = One() if empty_part else Zero()
    for symbol, target in summands:
        acc = Plus(acc, Seq(canonical_atom(symbol), target))
    return acc


def to_dot(automaton: Automaton) -> str:
    """Render an automaton in Graphviz DOT format. Accepting states are
    double-circled; edges carry symbol-set labels."""

    def quote(text: str) -> str:
        return '"%s"' % text.replace("\\", "\\\\").replace('"', '\\"')

    lines = ["digraph {", "  rankdir=LR;", '  __start [shape=point, label=""];']
    for state in automaton.states:
        shape = "doublecircle" if state in automaton.accepting else "circle"
        lines.append("  %s [shape=%s];" % (quote(str(state)), shape))
    lines.append("  __start -> %s;" % quote(str(automaton.initial)))
    for state in automaton.states:
        for symbol in automaton.alphabet:
            targets = automaton.transitions.get((state, symbol))
            if not targets:
                continue
            for target in sorted(targets, key=str):
                lines.append(
                    "  %s -> %s [label=%s];"
                    % (quote(str(state)), quote(str(target)), quote(str(symbol)))
                )
    lines.append("}")
    return "\n".join(lines) + "\n"
