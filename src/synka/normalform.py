"""Normal forms through guarded linear systems.

A term's one-step behaviour yields a linear system over the states its
transitions reach: the vector records which states accept the empty word,
and the matrix entry for a state pair sums the canonical atoms of all
symbols stepping from one to the other. Such a matrix is guarded (no entry
accepts the empty word), so Gaussian-style elimination with the star rule
yields a solution vector; the entry at the original term is an equivalent
term that uses only ``0``, ``1``, canonical semilattice atoms, ``+``, ``;``
and ``*``.
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
    if isinstance(a, Zero):
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


def solve(system: LinearSystem) -> dict[Term, Term]:
    """Solve a guarded system; the result maps each state to a term.

    States are eliminated from the back of the state order, so
    back-substitution finishes at the first state. When every entry of the
    system is in normal form, so is every entry of the solution. Unit laws
    for ``0`` and ``1`` are applied while building terms; nothing else is
    rewritten. Each step visits only the nonzero entries of the eliminated
    state's row: a zero entry would leave every other entry as it is.
    """
    for (source, target), entry in system.matrix.items():
        if nullable(entry):
            raise NotGuardedError(
                "matrix entry (%s, %s) = %s accepts the empty word" % (source, target, entry)
            )
    states = list(system.states)
    matrix = dict(system.matrix)
    vector = dict(system.vector)
    eliminated: list[tuple[Term, Term, list[tuple[Term, Term]], Term]] = []
    for index in range(len(states) - 1, -1, -1):
        state = states[index]
        rest = states[:index]
        loop = matrix[(state, state)]
        row = [(other, matrix[(state, other)]) for other in rest]
        row = [(other, coefficient) for other, coefficient in row
               if not isinstance(coefficient, Zero)]
        eliminated.append((state, loop, row, vector[state]))
        factor = _star(loop)
        for source in rest:
            lead = _seq(matrix[(source, state)], factor)
            if isinstance(lead, Zero):
                continue
            for target, coefficient in row:
                entry = _plus(_seq(lead, coefficient), matrix[(source, target)])
                assert not nullable(entry), "elimination must preserve guardedness"
                matrix[(source, target)] = entry
            vector[source] = _plus(vector[source], _seq(lead, vector[state]))
    assignment: dict[Term, Term] = {}
    for state, loop, row, base in reversed(eliminated):
        acc = base
        for other, coefficient in row:
            acc = _plus(acc, _seq(coefficient, assignment[other]))
        assignment[state] = _seq(_star(loop), acc)
    return assignment


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
