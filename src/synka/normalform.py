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
Eliminating fewer states keeps the normal forms small: the four-fold ``&``
of ``(a+b;a)*`` has 31 states and 14 classes, and its normal form has
1,957 nodes as a tree, where eliminating every state gives 7,164,566.
Every step follows the state order or the class numbers, never the hash
order of terms, so the output is the same in every run.
"""

from __future__ import annotations

from dataclasses import dataclass

from .derivatives import nullable, reachable_states, transitions
from .semilattice import canonical_atom
from .terms import One, Plus, Seq, Star, Term, Zero


class NotGuardedError(ValueError):
    """Raised when a matrix entry accepts the empty word."""


@dataclass(frozen=True)
class LinearSystem:
    """A square system over an ordered list of term-labelled states.

    ``matrix`` and ``vector`` are total over ``states``; a vector ``y``
    solves the system when ``matrix . y + vector`` is language-equal to
    ``y`` at every state.
    """

    states: tuple[Term, ...]
    matrix: dict[tuple[Term, Term], Term]
    vector: dict[Term, Term]


def build_system(term: Term) -> LinearSystem:
    """The linear system of a term over the states its transitions reach.

    The initial term comes first in the state order; the remaining states
    are sorted by their printed form. Matrix entries sum canonical atoms in
    symbol order, so equal inputs build identical systems.
    """
    reach = reachable_states(term)
    states = (term, *sorted((q for q in reach if q != term), key=str))
    matrix: dict[tuple[Term, Term], Term] = {}
    vector: dict[Term, Term] = {}
    for source in states:
        vector[source] = One() if nullable(source) else Zero()
        sums: dict[Term, Term] = {}
        table = transitions(source)
        for symbol in sorted(table):
            atom = canonical_atom(symbol)
            for target in table[symbol]:
                seen = sums.get(target)
                sums[target] = atom if seen is None else Plus(seen, atom)
        for target in states:
            matrix[(source, target)] = sums.get(target, Zero())
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
    if isinstance(a, One):
        return b
    if isinstance(b, One):
        return a
    return Seq(a, b)


def _star(a: Term) -> Term:
    if isinstance(a, (Zero, One)):
        return One()
    return Star(a)


def _summands(entry: Term) -> list[Term]:
    """The operands of the ``+`` chain of ``entry``, left to right."""
    out = []
    stack = [entry]
    while stack:
        term = stack.pop()
        if isinstance(term, Plus):
            stack.append(term.right)
            stack.append(term.left)
        else:
            out.append(term)
    return out


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
    entries into each class. The representatives are then eliminated from
    the back of the state order over sparse rows, with a column index of
    the rows that point at each state, and back-substitution finishes at
    the first one; every state gets its class's solution. When every entry
    of the system is in normal form, so is every entry of the solution.
    Unit laws for ``0`` and ``1`` and ``x + x = x`` for one node ``x`` are
    applied while building terms; nothing else is rewritten.
    """
    states = system.states
    index = {state: i for i, state in enumerate(states)}
    entries: list[list[tuple[int, Term]]] = [[] for _ in states]
    for (source, target), entry in system.matrix.items():
        if isinstance(entry, Zero):
            continue
        if nullable(entry):
            raise NotGuardedError(
                "matrix entry (%s, %s) = %s accepts the empty word" % (source, target, entry)
            )
        entries[index[source]].append((index[target], entry))
    # Each state's (summand, target) pairs, in target order.
    edges = [[(s, t) for t, entry in sorted(row, key=lambda item: item[0]) for s in _summands(entry)]
             for row in entries]
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

    eliminated: list[tuple[Term, list[tuple[int, Term]], Term]] = []
    for state in range(len(rows) - 1, -1, -1):
        row = rows[state]
        loop = row.pop(state, Zero())
        rest = sorted(row.items())
        eliminated.append((loop, rest, vector[state]))
        factor = _star(loop)
        for source in sorted(pointing[state]):
            if source >= state:
                continue
            source_row = rows[source]
            lead = _seq(source_row.pop(state), factor)
            for target, coefficient in rest:
                entry = _plus(_seq(lead, coefficient), source_row.get(target, Zero()))
                assert not nullable(entry), "elimination must preserve guardedness"
                source_row[target] = entry
                pointing[target].add(source)
            vector[source] = _plus(vector[source], _seq(lead, vector[state]))
    solution: list[Term] = []
    for loop, rest, base in reversed(eliminated):
        acc = base
        for other, coefficient in rest:
            acc = _plus(acc, _seq(coefficient, solution[other]))
        solution.append(_seq(_star(loop), acc))
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
    for source in system.states:
        cells = ["state %s" % source, "out %s" % system.vector[source]]
        for target in system.states:
            entry = system.matrix[(source, target)]
            if not isinstance(entry, Zero):
                cells.append("[%s] %s" % (target, entry))
        lines.append(" | ".join(cells))
    return "\n".join(lines)
