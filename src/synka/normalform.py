"""Normal forms through guarded linear systems.

A term's one-step behaviour yields a linear system over the states its
transitions reach: the vector records which states accept the empty word,
and the matrix entry for a state pair sums the canonical atoms of all
symbols stepping from one to the other. Such a matrix is guarded (no entry
accepts the empty word), so Gaussian-style elimination with the star rule
yields a solution vector; the entry at the original term is an equivalent
term that uses only ``0``, ``1``, canonical semilattice atoms, ``+``, ``;``
and ``*``.

``solve`` works on the quotient of the system by bisimulation: states with
the same vector entry whose summands lead to the same classes get one
solution, found by partition refinement before anything is eliminated.
Eliminating fewer states keeps the normal forms small, and so does the
order: classes go by fewest fill-in pairs (Markowitz 1957), counted once
before anything is eliminated. The four-fold ``&`` of ``(a+b;a)*`` has 30
states and 14 classes, and its normal form has 1,060 nodes as a tree;
eliminating the classes from the back of the class order gives 1,957, and
eliminating every state 7,164,566. Every step follows the state order or
the class numbers, never the hash order of terms, so the output is the
same in every run.
"""

from __future__ import annotations

from collections import namedtuple

from .derivatives import explore, nullable
from .semilattice import canonical_atom
from .terms import One, Plus, Star, Term, Zero, chain, then


class NotGuardedError(ValueError):
    """Raised when a matrix entry accepts the empty word."""


class LinearSystem(namedtuple("LinearSystem", "states matrix vector")):
    """A square system over an ordered list of term-labelled states.

    ``states`` is a tuple of terms, ``matrix`` a dict from ``(source,
    target)`` state pairs to terms and ``vector`` a dict from states to
    terms. ``vector`` is total over ``states``; ``matrix`` holds only the
    nonzero entries, and a missing pair stands for ``0``. A vector ``y``
    solves the system when ``matrix . y + vector`` is language-equal to
    ``y`` at every state.
    """

    __slots__ = ()

    def rows(self) -> list[list[tuple[int, Term]]]:
        """Each state's nonzero entries as ``(target index, entry)`` pairs in
        target order, indexed like ``states``. A system that lists a state
        twice, lacks a vector entry or has a matrix entry at a state outside
        ``states`` raises ``ValueError`` naming the state."""
        index = {state: i for i, state in enumerate(self.states)}
        for i, state in enumerate(self.states):
            if index[state] != i:
                raise ValueError("state %s is listed twice" % state)
            if state not in self.vector:
                raise ValueError("the vector has no entry for state %s" % state)
        rows: list[list[tuple[int, Term]]] = [[] for _ in self.states]
        try:
            for (source, target), entry in self.matrix.items():
                rows[index[source]].append((index[target], entry))
        except KeyError as error:
            raise ValueError("matrix entry (%s, %s) names %s, which is not a state"
                             % (source, target, error.args[0])) from None
        for row in rows:
            row.sort()
        return rows


def build_system(term: Term) -> LinearSystem:
    """The linear system of a term over the states its transitions reach,
    numbered as ``explore`` numbers them: the term first, then the others
    by printed form. A matrix entry sums the canonical atoms of its symbols
    in symbol order, and ``LinearSystem.rows`` sorts a row by target. No
    step depends on how terms hash, so equal inputs build identical
    systems.
    """
    automaton = explore(term)
    states = automaton.states
    matrix: dict[tuple[Term, Term], Term] = {}
    vector: dict[Term, Term] = {}
    for source, row in zip(states, automaton.rows):
        vector[source] = One() if nullable(source) else Zero()
        for symbol, targets in row:
            atom = canonical_atom(symbol)
            for j in targets:
                key = (source, states[j])
                seen = matrix.get(key)
                matrix[key] = atom if seen is None else Plus(seen, atom)
    return LinearSystem(states=states, matrix=matrix, vector=vector)


def _plus(a: Term, b: Term) -> Term:
    if isinstance(a, Zero) or a is b:
        return b
    if isinstance(b, Zero):
        return a
    return Plus(a, b)


def _seq(a: Term, b: Term) -> Term:
    if isinstance(a, Zero) or isinstance(b, Zero):
        return Zero()
    if isinstance(b, One):
        return a
    return then(a, b)


def _star(a: Term) -> Term:
    if isinstance(a, (Zero, One)):
        return One()
    return Star(a)


def _bisimulation_classes(vector: list[Term], edges: list[list[tuple[Term, int]]]) -> list[int]:
    """The class number of each state under the coarsest bisimulation.

    States are indices. ``vector`` holds each state's vector entry and
    ``edges`` its (summand, target) pairs. The start blocks group states
    by vector entry; each round splits a block by the set of (summand,
    target block) pairs of its states (Kanellakis and Smolka 1990), until
    the partition is stable or every block is a single state. Blocks are
    numbered in the order of their first state, so the numbering does not
    depend on how terms hash.
    """
    numbers: dict = {}
    block = [numbers.setdefault(entry, len(numbers)) for entry in vector]
    count = len(numbers)
    while count < len(vector):
        numbers = {}
        block = [
            numbers.setdefault((block[i], frozenset((s, block[t]) for s, t in pairs)), len(numbers))
            for i, pairs in enumerate(edges)
        ]
        if len(numbers) == count:
            break
        count = len(numbers)
    return block


def solve(system: LinearSystem) -> dict[Term, Term]:
    """Solve a guarded system; the result maps each state to a term.

    Bisimilar states have the same solution, so the system is first
    quotiented by bisimulation: the first state of each class in state
    order stands for it, and its row sums the distinct summands of its
    entries into each class. The classes are then eliminated over sparse
    rows, with a column index of the rows that point at each class, in one
    order fixed up front: fewest fill-in pairs first (the other classes
    pointing at a class times the other classes it points at), ties from
    the back of the class order, and the start's class last. Each
    elimination substitutes into every class not yet eliminated, and
    back-substitution runs in reverse elimination order; every state gets
    its class's solution. When every entry of the system is in normal
    form, so is every entry of the solution.
    Unit laws for ``0`` and ``1`` and ``x + x = x`` for one node ``x`` are
    applied while building terms, and a ``;`` is built by ``then``, so its
    chain nests to the right; nothing else is rewritten.
    """
    states = system.states
    # Each state's (summand, target) pairs, in target order.
    edges: list[list[tuple[Term, int]]] = []
    for source, row in zip(states, system.rows()):
        for target, entry in row:
            if nullable(entry):
                raise NotGuardedError("matrix entry (%s, %s) = %s accepts the empty word"
                                      % (source, states[target], entry))
        edges.append([(s, t) for t, entry in row for s in chain(entry, Plus)])
    classes = _bisimulation_classes([system.vector[state] for state in states], edges)

    # The quotient system over class numbers: one sparse row per class, from
    # its first state, and the set of classes whose rows point at each class.
    rows: list[dict[int, Term]] = []
    vector: list[Term] = []
    for i, state in enumerate(states):
        if classes[i] < len(rows):
            continue
        row: dict[int, Term] = {}
        seen = set()
        for s, t in edges[i]:
            if (s, classes[t]) not in seen:
                seen.add((s, classes[t]))
                row[classes[t]] = _plus(row.get(classes[t], Zero()), s)
        rows.append(row)
        vector.append(system.vector[state])
    pointing: list[set[int]] = [set() for _ in rows]
    for source, row in enumerate(rows):
        for target in row:
            pointing[target].add(source)

    # Fewest fill-in pairs first, counted once on the quotient; ties from the
    # back of the class order, and the start's class (number 0) last.
    def fill_in(state: int) -> int:
        loop = state in rows[state]
        return (len(pointing[state]) - loop) * (len(rows[state]) - loop)

    order = sorted(range(len(rows) - 1, -1, -1), key=lambda state: (state == 0, fill_in(state)))
    done = [False] * len(rows)
    eliminated: list[tuple[int, Term, list[tuple[int, Term]], Term]] = []
    for state in order:
        done[state] = True
        row = rows[state]
        loop = row.pop(state, Zero())
        rest = sorted(row.items())
        eliminated.append((state, loop, rest, vector[state]))
        factor = _star(loop)
        for source in sorted(pointing[state]):
            if done[source]:
                continue
            source_row = rows[source]
            lead = _seq(source_row.pop(state), factor)
            for target, coefficient in rest:
                entry = _plus(_seq(lead, coefficient), source_row.get(target, Zero()))
                assert not nullable(entry), "elimination must preserve guardedness"
                source_row[target] = entry
                pointing[target].add(source)
            vector[source] = _plus(vector[source], _seq(lead, vector[state]))
    solution: list[Term] = [Zero()] * len(rows)
    for state, loop, rest, base in reversed(eliminated):
        acc = base
        for other, coefficient in rest:
            acc = _plus(acc, _seq(coefficient, solution[other]))
        solution[state] = _seq(_star(loop), acc)
    return {state: solution[classes[i]] for i, state in enumerate(states)}


def to_normal_form(term: Term) -> Term:
    """An equivalent term in the star-plus-sequence fragment over
    canonical semilattice atoms."""
    system = build_system(term)
    return solve(system)[term]


def format_system(system: LinearSystem) -> str:
    """Tabular rendering: one row per state with its vector entry and the
    nonzero matrix entries."""
    lines = []
    for source, row in zip(system.states, system.rows()):
        cells = ["state %s" % source, "out %s" % system.vector[source]]
        cells.extend("[%s] %s" % (system.states[target], entry) for target, entry in row)
        lines.append(" | ".join(cells))
    return "\n".join(lines)
