"""Independent oracles and generator strategies shared by the tests.

The oracles here deliberately avoid the code paths they are used to
check: equivalence is re-decided by materialized subset construction over
a product, derivatives are recomputed one symbol at a time by enumerating
product splits, linear systems are built over the syntactic
over-approximation of the reachable states, the countermodel value of a
term is recomputed by a plain recursive tree walk, and the unary-set
operators are recomputed by plain enumeration up to a horizon.
"""

from __future__ import annotations

import functools
import itertools

from hypothesis import strategies as st

from synka import (
    Atom,
    H,
    LinearSystem,
    One,
    Plus,
    Seq,
    Star,
    SymSet,
    Sync,
    UnaryLang,
    Zero,
    build_automaton,
    canonical_atom,
    cm_dot,
    cm_plus,
    cm_star,
    cm_sync,
    letters,
    nonempty_subsets,
    nullable,
    reachable_terms,
    transitions,
)


def brute_force_equiv(e, f) -> bool:
    """Language equality by full subset construction on both automata and
    reachability of the product; no union-find, no laziness."""
    auto_e = build_automaton(e)
    auto_f = build_automaton(f)
    alphabet = nonempty_subsets(letters(e) | letters(f))

    def step(auto, subset, symbol):
        out = set()
        for state in subset:
            out |= auto.transitions.get((state, symbol), frozenset())
        return frozenset(out)

    start = (frozenset((e,)), frozenset((f,)))
    seen = {start}
    stack = [start]
    while stack:
        left, right = stack.pop()
        accept_left = any(q in auto_e.accepting for q in left)
        accept_right = any(q in auto_f.accepting for q in right)
        if accept_left != accept_right:
            return False
        for symbol in alphabet:
            pair = (step(auto_e, left, symbol), step(auto_f, right, symbol))
            if pair not in seen:
                seen.add(pair)
                stack.append(pair)
    return True


def _splits(symbols: SymSet):
    """All ordered pairs of nonempty sets whose union is ``symbols``.

    Each letter goes to the left side, the right side, or both, except for
    the two assignments that leave a side empty.
    """
    elems = symbols.letters
    for assignment in itertools.product((0, 1, 2), repeat=len(elems)):
        left = tuple(ch for ch, a in zip(elems, assignment) if a != 1)
        right = tuple(ch for ch, a in zip(elems, assignment) if a != 0)
        if left and right:
            yield SymSet(left), SymSet(right)


@functools.lru_cache(maxsize=None)
def reference_derive(term, symbols: SymSet) -> frozenset:
    """Partial derivative by one symbol, computed by structural recursion
    on that symbol alone; a product tries every split of it."""
    if isinstance(term, (Zero, One, H)):
        return frozenset()
    if isinstance(term, Atom):
        if len(symbols) == 1 and term.letter in symbols:
            return frozenset((One(),))
        return frozenset()
    if isinstance(term, Plus):
        return reference_derive(term.left, symbols) | reference_derive(term.right, symbols)
    if isinstance(term, Seq):
        out = {Seq(t, term.right) for t in reference_derive(term.left, symbols)}
        if nullable(term.left):
            out |= reference_derive(term.right, symbols)
        return frozenset(out)
    if isinstance(term, Star):
        return frozenset(Seq(t, term) for t in reference_derive(term.inner, symbols))
    if isinstance(term, Sync):
        out = set()
        if nullable(term.right):
            out |= reference_derive(term.left, symbols)
        if nullable(term.left):
            out |= reference_derive(term.right, symbols)
        for left_syms, right_syms in _splits(symbols):
            lefts = reference_derive(term.left, left_syms)
            if not lefts:
                continue
            rights = reference_derive(term.right, right_syms)
            for lt in lefts:
                for rt in rights:
                    out.add(Sync(lt, rt))
        return frozenset(out)
    raise TypeError("unknown term node %r" % (term,))


def reference_build_system(term) -> LinearSystem:
    """The linear system of a term over ``reachable_terms(term)`` plus the
    term itself: a superset of the states its transitions reach, in the
    same order (the term first, the rest sorted by printed form)."""
    reach = reachable_terms(term)
    states = (term, *sorted((q for q in reach if q != term), key=str))
    matrix = {}
    vector = {}
    for source in states:
        vector[source] = One() if nullable(source) else Zero()
        sums = {}
        table = transitions(source)
        for symbol in sorted(table):
            atom = canonical_atom(symbol)
            for target in table[symbol]:
                seen = sums.get(target)
                sums[target] = atom if seen is None else Plus(seen, atom)
        for target in states:
            matrix[(source, target)] = sums.get(target, Zero())
    return LinearSystem(states=states, matrix=matrix, vector=vector)


def reference_eval_cm(term):
    """The value of an H-free term in the one-letter countermodel, by a
    recursive walk of the term as a tree: a shared subterm is evaluated
    once per occurrence."""
    if isinstance(term, Zero):
        return UnaryLang.empty()
    if isinstance(term, One):
        return UnaryLang.epsilon()
    if isinstance(term, Atom):
        return UnaryLang.generator()
    if isinstance(term, Plus):
        return cm_plus(reference_eval_cm(term.left), reference_eval_cm(term.right))
    if isinstance(term, Seq):
        return cm_dot(reference_eval_cm(term.left), reference_eval_cm(term.right))
    if isinstance(term, Sync):
        return cm_sync(reference_eval_cm(term.left), reference_eval_cm(term.right))
    if isinstance(term, Star):
        return cm_star(reference_eval_cm(term.inner))
    raise TypeError("no model value for %r" % (term,))


# Naive reference arithmetic on sets of naturals, enumerated up to a
# horizon. Sums and maxima of members up to the horizon cover every result
# up to the horizon, so these are exact on [0, horizon].

def naive_union(a: set[int], b: set[int], horizon: int) -> set[int]:
    return {n for n in a | b if n <= horizon}


def naive_sum(a: set[int], b: set[int], horizon: int) -> set[int]:
    return {x + y for x in a for y in b if x + y <= horizon}


def naive_max(a: set[int], b: set[int], horizon: int) -> set[int]:
    return {max(x, y) for x in a for y in b if max(x, y) <= horizon}


def naive_star(a: set[int], horizon: int) -> set[int]:
    closure = {0}
    changed = True
    while changed:
        changed = False
        for x in sorted(a):
            if x == 0:
                continue
            for c in sorted(closure):
                if c + x <= horizon and c + x not in closure:
                    closure.add(c + x)
                    changed = True
    return closure


def term_strategy(alphabet: str = "ab", allow_h: bool = True, max_leaves: int = 8):
    """Hypothesis strategy over terms."""
    atoms = [Zero(), One()] + [Atom(ch) for ch in sorted(set(alphabet))]
    leaves = st.sampled_from(atoms)

    def extend(children):
        options = [
            st.builds(Plus, children, children),
            st.builds(Seq, children, children),
            st.builds(Sync, children, children),
            st.builds(Star, children),
        ]
        if allow_h:
            options.append(st.builds(H, children))
        return st.one_of(*options)

    return st.recursive(leaves, extend, max_leaves=max_leaves)


def sl_term_strategy(alphabet: str = "abc", max_leaves: int = 5):
    """Hypothesis strategy over semilattice terms (letters and & only)."""
    leaves = st.sampled_from([Atom(ch) for ch in sorted(set(alphabet))])
    return st.recursive(leaves, lambda c: st.builds(Sync, c, c), max_leaves=max_leaves)
