"""Partial derivatives and the syntactic automaton.

``nullable`` reads off a term's node whether it accepts the empty word,
and ``transitions`` gives a term's one-step behaviour as a table, kept on
the node, from each symbol set the term can read to its continuation terms
(the linear forms of Antimirov, "Partial derivatives of regular expressions
and finite automaton constructions", 1996): the partial derivative of a
term by a symbol is its table's entry for the symbol. Continuations are
concatenated with Antimirov's unit rule ``{1} ⊙ F = F``, so ``a ; e`` steps
on ``a`` to ``e`` itself and ``a*`` to ``a*``, and a product continuation
drops a ``1`` operand by the unit law ``1 & e = e & 1 = e``, so ``a & b``
steps on ``{a,b}`` to ``1`` and ``a* & b`` to ``a*``. It is the only function
that encodes the derivative rules: the determinized ``step``, word
``member``ship, ``unfold``, the DOT rendering, equivalence and normal
forms all read its tables. A ``&`` table reads many more symbols than it
has distinct continuation sets, so each distinct pair of operand sets is
multiplied once per table, and ``unfold`` prints the continuations of all
its symbols in one walk per call.
``explore`` numbers a term's closure under ``transitions`` once, the term
itself as state 0 and the other states by printed form, and reads each
table into a row of state indices. So the three present a term as the
initial state of a nondeterministic automaton whose symbols are nonempty
letter sets, with the ``nullable`` states accepting; ``to_dot``, the
linear systems of ``normalform`` and the ``automaton`` command read that
one numbering.

A table lists only the symbols its term can read, and each of them is a
subset of the term's letters: an atom reads its own letter, and a product
reads unions of symbols its operands read. Nothing, the DOT rendering
included, walks the full set of nonempty letter subsets.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Mapping
from types import MappingProxyType

from .semilattice import SymSet, canonical_atom
from .terms import Atom, H, One, Plus, Seq, Star, Sync, Term, Zero, printed_forms, then


def nullable(term: Term) -> bool:
    """True when the empty word belongs to the language of ``term``."""
    return term._nullable


def _merge(into: dict[SymSet, frozenset[Term]], table: Mapping[SymSet, frozenset[Term]]) -> None:
    for symbol, targets in table.items():
        seen = into.get(symbol)
        into[symbol] = targets if seen is None else seen | targets


def _fill_left_spine(term: Plus | Sync) -> None:
    """Build, bottom up, the missing tables down the left spine of a sum or
    product whose left operand has the same operator, so that each call
    finds its left operand's table built and recurses only to the right.
    The parser nests a flat ``a + b + …`` or ``a & b & …`` to the left."""
    spine = []
    left = term.left
    while type(left) is type(term) and left._transitions is None:
        spine.append(left)
        left = left.left
    for left in reversed(spine):
        transitions(left)


def transitions(term: Term) -> Mapping[SymSet, frozenset[Term]]:
    """The one-step behaviour of ``term``: each symbol set it can read,
    mapped to the nonempty set of continuation terms.

    A product ``e & f`` reads the union of one symbol of each operand and
    continues with the product of their continuations, or with one of them
    alone when the other is ``1``, by the unit law ``1 & e = e & 1 = e``; it
    also steps as ``e`` alone when ``f`` accepts the empty word, and as ``f``
    alone when ``e`` does. Each distinct pair of operand continuation sets is
    multiplied once, and every symbol that reaches the pair shares the one
    product set. The continuations of ``e ; f`` and ``e*`` are built by
    ``then``, which drops a continuation ``1`` of ``e`` by the unit law, so
    ``a ; f`` steps to ``f`` and ``a*`` to itself, and every state reached
    from a right-nested term is nested to the right too; a ``;`` whose left
    operand is a ``;`` takes the table of its chain nested to the right.
    A sum or product first builds the missing tables down its left spine,
    so a flat one of any length is answered. The table is built once per
    node, kept on it, shared by every caller and read-only.
    """
    cached = term._transitions
    if cached is not None:
        return cached
    table: dict[SymSet, frozenset[Term]] = {}
    if isinstance(term, Atom):
        table[SymSet(term.letter)] = frozenset((One(),))
    elif isinstance(term, Plus):
        _fill_left_spine(term)
        _merge(table, transitions(term.left))
        _merge(table, transitions(term.right))
    elif isinstance(term, Seq):
        if type(term.left) is Seq:
            # The rule's table, without recursing down the left spine.
            term._transitions = transitions(then(term.left, term.right))
            return term._transitions
        for symbol, targets in transitions(term.left).items():
            table[symbol] = frozenset(then(t, term.right) for t in targets)
        if nullable(term.left):
            _merge(table, transitions(term.right))
    elif isinstance(term, Star):
        for symbol, targets in transitions(term.inner).items():
            table[symbol] = frozenset(then(t, term) for t in targets)
    elif isinstance(term, Sync):
        _fill_left_spine(term)
        one = One()
        lefts = transitions(term.left)
        rights = transitions(term.right)
        products: dict[tuple[frozenset[Term], frozenset[Term]], frozenset[Term]] = {}
        for left_symbol, left_targets in lefts.items():
            for right_symbol, right_targets in rights.items():
                symbol = left_symbol.union(right_symbol)
                key = (left_targets, right_targets)
                product = products.get(key)
                if product is None:
                    # The unit law 1 & e = e & 1 = e.
                    product = products[key] = frozenset({
                        rt if lt is one else lt if rt is one else Sync(lt, rt)
                        for lt in left_targets for rt in right_targets})
                seen = table.get(symbol)
                table[symbol] = product if seen is None else seen | product
        if nullable(term.right):
            _merge(table, lefts)
        if nullable(term.left):
            _merge(table, rights)
    elif not isinstance(term, (Zero, One, H)):
        raise TypeError("unknown term node %r" % (term,))
    term._transitions = MappingProxyType(table)
    return term._transitions


def step(states: Iterable[Term]) -> dict[SymSet, frozenset[Term]]:
    """Determinized transition on a set of states: each symbol some state
    can read, mapped to all continuations on it."""
    merged: dict[SymSet, frozenset[Term]] = {}
    for state in states:
        _merge(merged, transitions(state))
    return merged


def member(word: tuple[SymSet, ...], term: Term) -> bool:
    """Word membership by iterated derivatives; no automaton is built. Each
    step reads only the word's own symbol in the current states' tables, and
    a symbol no current state can read rejects immediately. A state derived
    from a ``;``-chain needs O(1) new nodes, so a word and a chain of any
    length, nested either way, are answered."""
    current = frozenset((term,))
    for symbol in word:
        current = frozenset().union(*(transitions(state).get(symbol, ()) for state in current))
        if not current:
            return False
    return any(nullable(state) for state in current)


Automaton = namedtuple("Automaton", "states forms rows")


def explore(term: Term) -> Automaton:
    """The automaton of ``term``, numbered once: ``states[0]`` is ``term``
    and the other terms its transitions reach follow by printed form, and
    ``forms`` holds their printed forms. ``rows[i]`` lists the symbols state
    ``i`` reads, sorted, each with its targets' sorted indices. One
    ``printed_forms`` walk prints every state, so a node that several states
    share, such as the ``e*`` in each ``e' ; e*``, is visited once; distinct
    terms print differently, so the order does not depend on hashing."""
    seen = {term: None}  # a dict keeps insertion order, so term comes first
    stack = [term]
    while stack:
        for targets in transitions(stack.pop()).values():
            for target in targets:
                if target not in seen:
                    seen[target] = None
                    stack.append(target)
    first, *rest = zip(printed_forms(seen), seen)
    forms, states = zip(first, *sorted(rest))
    index = {state: i for i, state in enumerate(states)}
    rows = [[(symbol, sorted(map(index.__getitem__, table[symbol])))
             for symbol in sorted(table)] for table in map(transitions, states)]
    return Automaton(states, forms, rows)


def unfold(term: Term) -> tuple[bool, list[tuple[SymSet, Term]]]:
    """One-step decomposition: the empty-word bit plus all (symbol,
    continuation) summands, sorted by symbol and then printed term. Only
    continuations that share a symbol are printed, all of them in one walk
    per call, so a continuation of many symbols is printed once."""
    table = transitions(term)
    shared = {target for targets in table.values() if len(targets) > 1 for target in targets}
    form = dict(zip(shared, printed_forms(shared))).__getitem__ if shared else None
    summands = []
    for symbol in sorted(table):
        targets = table[symbol]
        if len(targets) > 1:
            summands += [(symbol, target) for target in sorted(targets, key=form)]
        else:
            summands.append((symbol, *targets))
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
    """Render an automaton that ``explore`` returned in Graphviz DOT format:
    one node per state in state order, accepting states double-circled, an
    arrow from ``__start`` into state 0, and one edge per transition,
    labelled with its symbol set."""

    def quote(text: str) -> str:
        return '"%s"' % text.replace("\\", "\\\\").replace('"', '\\"')

    names = [quote(form) for form in automaton.forms]
    lines = ["digraph {", "  rankdir=LR;", '  __start [shape=point, label=""];']
    for name, state in zip(names, automaton.states):
        shape = "doublecircle" if nullable(state) else "circle"
        lines.append("  %s [shape=%s];" % (name, shape))
    lines.append("  __start -> %s;" % names[0])
    for name, row in zip(names, automaton.rows):
        for symbol, targets in row:
            label = quote(str(symbol))
            lines.extend("  %s -> %s [label=%s];" % (name, names[j], label) for j in targets)
    lines.append("}")
    return "\n".join(lines) + "\n"
