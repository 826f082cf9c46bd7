"""Partial derivatives and the syntactic automaton.

``nullable`` reads off a term's node whether it accepts the empty word,
and ``transitions`` gives a term's one-step behaviour as a table, kept on
the node, from each symbol set the term can read to its continuation terms
(the linear forms of Antimirov, "Partial derivatives of regular expressions
and finite automaton constructions", 1996). It is the only function that
encodes the derivative rules: ``derive``, the determinized ``step``, word
``member``ship, ``unfold``, the DOT rendering, equivalence and normal forms
all read its tables.
``reachable_states`` is the closure of a term under ``transitions``, sorted
by printed form. Together the three present a term as the initial state of
a nondeterministic automaton whose symbols are nonempty letter sets: its
states are ``reachable_states``, its accepting states the ``nullable``
ones and its edges the ``transitions`` tables. No other record of that
automaton is kept; ``to_dot``, the linear systems of ``normalform`` and
the ``automaton`` command read the three functions directly.

A table lists only the symbols its term can read, and each of them is a
subset of the term's letters: an atom reads its own letter, and a product
reads unions of symbols its operands read. Nothing, the DOT rendering
included, walks the full set of nonempty letter subsets.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from types import MappingProxyType

from .semilattice import SymSet, canonical_atom
from .terms import (Atom, H, One, Plus, Seq, Star, Sync, Term, Zero, printed_forms,
                    right_associated)


def nullable(term: Term) -> bool:
    """True when the empty word belongs to the language of ``term``."""
    return term._nullable


def _merge(into: dict[SymSet, frozenset[Term]], table: Mapping[SymSet, frozenset[Term]]) -> None:
    for symbol, targets in table.items():
        seen = into.get(symbol)
        into[symbol] = targets if seen is None else seen | targets


def transitions(term: Term) -> Mapping[SymSet, frozenset[Term]]:
    """The one-step behaviour of ``term``: each symbol set it can read,
    mapped to the nonempty set of continuation terms.

    A product ``e & f`` reads the union of one symbol of each operand and
    continues with the product of their continuations; it also steps as
    ``e`` alone when ``f`` accepts the empty word, and as ``f`` alone when
    ``e`` does. The table is built once per node, kept on it, shared by
    every caller and read-only.
    """
    cached = term._transitions
    if cached is not None:
        return cached
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
    term._transitions = MappingProxyType(table)
    return term._transitions


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


def member(word: tuple[SymSet, ...], term: Term) -> bool:
    """Word membership by iterated derivatives; no automaton is built. A
    symbol no current state can read rejects immediately. The steps start
    from ``right_associated(term)``, whose states each need O(1) new nodes,
    so a word and a ``;``-chain of any length are answered."""
    current: frozenset[Term] | None = frozenset((right_associated(term),))
    for symbol in word:
        current = step(current).get(symbol)
        if not current:
            return False
    return any(nullable(state) for state in current)


def reachable_states(term: Term) -> tuple[Term, ...]:
    """``term`` plus every term its transitions reach, in any number of
    steps, sorted by printed form: the states of the term's automaton and
    linear system, in the one order both are read in. The closure is found
    with an explicit stack. The states are printed by one
    ``printed_forms`` walk, so a node that several states share, such as
    the ``e*`` in each ``e' ; e*``, is visited once, not once per state.
    Distinct terms print differently, so the order is that of
    ``sorted(states, key=str)``."""
    seen = {term}
    stack = [term]
    while stack:
        for targets in transitions(stack.pop()).values():
            for target in targets:
                if target not in seen:
                    seen.add(target)
                    stack.append(target)
    states = list(seen)
    forms = dict(zip(states, printed_forms(states)))
    return tuple(sorted(states, key=forms.__getitem__))


def unfold(term: Term) -> tuple[bool, list[tuple[SymSet, Term]]]:
    """One-step decomposition: the empty-word bit plus all (symbol,
    continuation) summands, sorted by symbol and then printed term. Only
    continuations that share a symbol are printed."""
    table = transitions(term)
    summands = []
    for symbol in sorted(table):
        targets = table[symbol]
        if len(targets) > 1:
            targets = sorted(targets, key=str)
        summands.extend((symbol, target) for target in targets)
    return nullable(term), summands


def unfold_as_term(term: Term) -> Term:
    """Reassemble :func:`unfold` output as a term: the empty-word constant
    plus one ``atom ; continuation`` summand per transition."""
    empty_part, summands = unfold(term)
    acc: Term = One() if empty_part else Zero()
    for symbol, target in summands:
        acc = Plus(acc, Seq(canonical_atom(symbol), target))
    return acc


def to_dot(term: Term) -> str:
    """Render the automaton of ``term`` in Graphviz DOT format: one node
    per reachable state, accepting states double-circled, and one edge per
    transition, labelled with its symbol set."""

    def quote(text: str) -> str:
        return '"%s"' % text.replace("\\", "\\\\").replace('"', '\\"')

    states = reachable_states(term)
    order = {state: i for i, state in enumerate(states)}
    names = [quote(form) for form in printed_forms(states)]
    lines = ["digraph {", "  rankdir=LR;", '  __start [shape=point, label=""];']
    for i, state in enumerate(states):
        shape = "doublecircle" if nullable(state) else "circle"
        lines.append("  %s [shape=%s];" % (names[i], shape))
    lines.append("  __start -> %s;" % names[order[term]])
    for i, state in enumerate(states):
        table = transitions(state)
        for symbol in sorted(table):
            label = quote(str(symbol))
            for j in sorted(order[target] for target in table[symbol]):
                lines.append("  %s -> %s [label=%s];" % (names[i], names[j], label))
    lines.append("}")
    return "\n".join(lines) + "\n"
