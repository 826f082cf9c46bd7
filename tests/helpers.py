"""Independent oracles and generator strategies shared by the tests.

The oracles here deliberately avoid the code paths they are used to
check: equivalence is re-decided by materialized subset construction over
a product and by ``reference_equiv``, the pair search up to equivalence
alone, derivatives are recomputed one symbol at a time by enumerating
product splits, with each continuation's ``;``-chain nested to the right
and its ``1`` factors dropped by recursion (``reference_then``; the rule
without the unit law, ``old_then``, is kept to cross-check it) and each
product continuation's ``1`` operand dropped (``reference_sync``; the rule
without it is ``Sync`` itself), the states reached by those derivatives
are closed over every symbol (``reference_closure``), the
reached states are closed by
recursion and sorted by each state's own printed form
(``reference_reachable_states``), linear
systems are built over ``reachable_terms``, a
syntactic over-approximation of the reachable states, and solved by
eliminating every state on the total matrix, with no states merged
(``reference_solve``), normal-form grammar membership is decided by
recursion over the term (``reference_is_nsf``), a term's facts
(``reference_facts``, one rule per class), a term's leftmost-outermost
``H`` is found by descending into the first operand that holds one
(``reference_first_h``), a
term's distinct nodes in post-order, bounded languages and the
countermodel value of a term are recomputed by plain recursive tree
walks, the last with one case analysis per operator
(``reference_model_ops``), a term is printed by recursion over it as a tree and parsed by
recursive descent, and the
unary-set operators are recomputed by plain enumeration up to a horizon
and by ``ReferenceUnaryLang``, which tests membership one natural at a
time. ``random_context`` draws one-hole contexts for congruence checks.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from collections import deque
from collections.abc import Iterable
from typing import Callable

from hypothesis import strategies as st

from synka import (
    DAGGER,
    Atom,
    BoundedLang,
    H,
    LinearSystem,
    NotGuardedError,
    One,
    Ops,
    Plus,
    Seq,
    Star,
    SymSet,
    Sync,
    Term,
    TermSyntaxError,
    UnaryLang,
    UnknownLetterError,
    Zero,
    canonical_atom,
    lang_concat,
    lang_h,
    lang_star,
    lang_sync,
    lang_union,
    letters,
    nonempty_subsets,
    nullable,
    sl_value,
    step,
    transitions,
)
from synka.checks import random_term
from synka.equivalence import EquivResult
from synka.terms import LETTERS


def brute_force_equiv(e, f) -> bool:
    """Language equality by full subset construction on both automata and
    reachability of the product; no union-find, no laziness."""
    alphabet = nonempty_subsets(letters(e) | letters(f))

    def move(subset, symbol):
        out = set()
        for state in subset:
            out |= transitions(state).get(symbol, frozenset())
        return frozenset(out)

    start = (frozenset((e,)), frozenset((f,)))
    seen = {start}
    stack = [start]
    while stack:
        left, right = stack.pop()
        accept_left = any(nullable(q) for q in left)
        accept_right = any(nullable(q) for q in right)
        if accept_left != accept_right:
            return False
        for symbol in alphabet:
            pair = (move(left, symbol), move(right, symbol))
            if pair not in seen:
                seen.add(pair)
                stack.append(pair)
    return True


class _UnionFind:
    def __init__(self):
        self.parent: dict = {}

    def find(self, item):
        parent = self.parent
        root = item
        while True:
            above = parent.get(root)
            if above is None or above == root:
                break
            root = above
        while True:
            above = parent.get(item)
            if above is None or above == item:
                break
            parent[item] = root
            item = above
        return root

    def union(self, a, b) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def reference_equiv(e, f) -> EquivResult:
    """``equiv`` as it was before it pruned up to congruence: the
    breadth-first pair search that skips a pair only when a union-find
    relates it, tests acceptance as each pair is popped, and starts from
    ``e`` and ``f`` themselves."""
    uf = _UnionFind()
    expanded: dict = {}

    def expand(subset):
        if subset not in expanded:
            expanded[subset] = (any(nullable(q) for q in subset), step(subset))
        return expanded[subset]

    empty: frozenset = frozenset()
    queue = deque([(frozenset((e,)), frozenset((f,)), ())])
    while queue:
        left, right, word = queue.popleft()
        if uf.find(left) == uf.find(right):
            continue
        accept_left, next_left = expand(left)
        accept_right, next_right = expand(right)
        if accept_left != accept_right:
            return EquivResult(False, word)
        uf.union(left, right)
        for symbol in sorted(next_left.keys() | next_right.keys()):
            queue.append(
                (next_left.get(symbol, empty), next_right.get(symbol, empty), word + (symbol,))
            )
    return EquivResult(True, None)


def _splits(symbols: SymSet):
    """All ordered pairs of nonempty sets whose union is ``symbols``.

    Each letter goes to the left side, the right side, or both, except for
    the two assignments that leave a side empty.
    """
    elems = symbols
    for assignment in itertools.product((0, 1, 2), repeat=len(elems)):
        left = tuple(ch for ch, a in zip(elems, assignment) if a != 1)
        right = tuple(ch for ch, a in zip(elems, assignment) if a != 0)
        if left and right:
            yield SymSet(left), SymSet(right)


def reference_then(first, rest):
    """``first ; rest`` with the ``;``-chain of ``first`` nested to the
    right, by recursion, and the unit law applied to each of its factors:
    ``(x ; y) ; rest`` is ``x ; (y ; rest)`` and ``1 ; rest`` is ``rest``."""
    if isinstance(first, Seq):
        return reference_then(first.left, reference_then(first.right, rest))
    if isinstance(first, One):
        return rest
    return Seq(first, rest)


def old_then(first, rest):
    """The continuation rule without the unit law: ``first ; rest`` with the
    ``;``-chain of ``first`` nested to the right, so ``1 ; rest`` is a
    node of its own."""
    if isinstance(first, Seq):
        return old_then(first.left, old_then(first.right, rest))
    return Seq(first, rest)


def reference_sync(left, right):
    """``left & right`` with the unit law ``1 & e = e & 1 = e`` applied:
    a ``1`` operand gives the other operand itself."""
    if isinstance(left, One):
        return right
    if isinstance(right, One):
        return left
    return Sync(left, right)


def reference_right_nested(term):
    """``term`` with every ``;``-chain nested to the right, by recursion."""
    if isinstance(term, Seq):
        return reference_then(reference_right_nested(term.left), reference_right_nested(term.right))
    if isinstance(term, (Plus, Sync)):
        return type(term)(reference_right_nested(term.left), reference_right_nested(term.right))
    if isinstance(term, (Star, H)):
        return type(term)(reference_right_nested(term.inner))
    return term


def right_nested(term) -> bool:
    """Whether no ``;`` in ``term`` has a ``;`` as its left operand, by
    recursion over the term."""
    if isinstance(term, (Plus, Seq, Sync)):
        if isinstance(term, Seq) and isinstance(term.left, Seq):
            return False
        return right_nested(term.left) and right_nested(term.right)
    if isinstance(term, (Star, H)):
        return right_nested(term.inner)
    return True


@functools.lru_cache(maxsize=None)
def reference_derive(term, symbols: SymSet, then=reference_then, sync=reference_sync) -> frozenset:
    """Partial derivative by one symbol, computed by structural recursion
    on that symbol alone; a product tries every split of it. Continuations
    of ``;`` and ``*`` are built by ``then`` and those of ``&`` by ``sync``:
    ``old_then`` and ``Sync`` give the derivatives of the rules without the
    unit laws."""
    if isinstance(term, (Zero, One, H)):
        return frozenset()
    if isinstance(term, Atom):
        if len(symbols) == 1 and term.letter in symbols:
            return frozenset((One(),))
        return frozenset()
    if isinstance(term, Plus):
        return (reference_derive(term.left, symbols, then, sync)
                | reference_derive(term.right, symbols, then, sync))
    if isinstance(term, Seq):
        out = {then(t, term.right) for t in reference_derive(term.left, symbols, then, sync)}
        if nullable(term.left):
            out |= reference_derive(term.right, symbols, then, sync)
        return frozenset(out)
    if isinstance(term, Star):
        return frozenset(then(t, term) for t in reference_derive(term.inner, symbols, then, sync))
    if isinstance(term, Sync):
        out = set()
        if nullable(term.right):
            out |= reference_derive(term.left, symbols, then, sync)
        if nullable(term.left):
            out |= reference_derive(term.right, symbols, then, sync)
        for left_syms, right_syms in _splits(symbols):
            lefts = reference_derive(term.left, left_syms, then, sync)
            if not lefts:
                continue
            rights = reference_derive(term.right, right_syms, then, sync)
            for lt in lefts:
                for rt in rights:
                    out.add(sync(lt, rt))
        return frozenset(out)
    raise TypeError("unknown term node %r" % (term,))


@functools.lru_cache(maxsize=None)
def reachable_terms(term: Term) -> frozenset[Term]:
    """A finite set containing every term reachable from ``term`` by
    iterated derivatives (the term itself may be absent): a syntactic
    over-approximation of ``explore(term).states``."""
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
        out = {reference_then(t, term.right) for t in reachable_terms(term.left)}
        return frozenset(out) | reachable_terms(term.right)
    if isinstance(term, Star):
        out = {reference_then(t, term) for t in reachable_terms(term.inner)}
        out.add(One())
        return frozenset(out)
    if isinstance(term, Sync):
        lefts = reachable_terms(term.left)
        rights = reachable_terms(term.right)
        out = {Sync(lt, rt) for lt in lefts for rt in rights}
        return frozenset(out) | lefts | rights
    raise TypeError("unknown term node %r" % (term,))


def reference_closure(term: Term, then=reference_then, sync=reference_sync) -> frozenset[Term]:
    """The states reached from ``term`` by the derivatives of
    ``reference_derive`` with continuations built by ``then`` and ``sync``,
    over every nonempty symbol of its letters."""
    symbols = nonempty_subsets(letters(term))
    closure = {term}
    frontier = [term]
    while frontier:
        state = frontier.pop()
        for symbol in symbols:
            for target in reference_derive(state, symbol, then, sync) - closure:
                closure.add(target)
                frontier.append(target)
    return frozenset(closure)


def reference_reachable_states(term: Term) -> tuple[Term, ...]:
    """The states of ``term``'s automaton, found by a recursive closure
    over ``transitions``: ``term`` first, then the rest sorted by each
    state's own ``str``, the order of ``reference_build_system``."""
    closure = set()

    def visit(state):
        if state not in closure:
            closure.add(state)
            for targets in transitions(state).values():
                for target in targets:
                    visit(target)

    visit(term)
    return (term, *sorted(closure - {term}, key=str))


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


def _reference_plus(a, b):
    if isinstance(a, Zero):
        return b
    if isinstance(b, Zero):
        return a
    return Plus(a, b)


def _reference_seq(a, b):
    if isinstance(a, Zero) or isinstance(b, Zero):
        return Zero()
    if isinstance(a, One):
        return b
    if isinstance(b, One):
        return a
    return Seq(a, b)


def _reference_star(a):
    if isinstance(a, (Zero, One)):
        return One()
    return Star(a)


def reference_solve(system: LinearSystem) -> dict:
    """Solve a guarded system by eliminating every state, from the back of
    the state order, on the total matrix (a missing entry is ``0``); no
    states are merged. Unit laws for ``0`` and ``1`` are applied while
    building terms."""
    for (source, target), entry in system.matrix.items():
        if nullable(entry):
            raise NotGuardedError(
                "matrix entry (%s, %s) = %s accepts the empty word" % (source, target, entry)
            )
    states = list(system.states)
    matrix = {(source, target): system.matrix.get((source, target), Zero())
              for source in states for target in states}
    vector = dict(system.vector)
    eliminated = []
    for index in range(len(states) - 1, -1, -1):
        state = states[index]
        rest = states[:index]
        loop = matrix[(state, state)]
        row = [(other, matrix[(state, other)]) for other in rest]
        row = [(other, coefficient) for other, coefficient in row
               if not isinstance(coefficient, Zero)]
        eliminated.append((state, loop, row, vector[state]))
        factor = _reference_star(loop)
        for source in rest:
            lead = _reference_seq(matrix[(source, state)], factor)
            if isinstance(lead, Zero):
                continue
            for target, coefficient in row:
                matrix[(source, target)] = _reference_plus(
                    _reference_seq(lead, coefficient), matrix[(source, target)])
            vector[source] = _reference_plus(vector[source], _reference_seq(lead, vector[state]))
    assignment = {}
    for state, loop, row, base in reversed(eliminated):
        acc = base
        for other, coefficient in row:
            acc = _reference_plus(acc, _reference_seq(coefficient, assignment[other]))
        assignment[state] = _reference_seq(_reference_star(loop), acc)
    return assignment


def reference_postorder(term) -> list:
    """The distinct nodes of ``term``, each listed after its operands at
    its first occurrence, by a recursive left-to-right walk."""
    out: list = []
    seen: set = set()

    def visit(node):
        if node in seen:
            return
        seen.add(node)
        if isinstance(node, (Plus, Seq, Sync)):
            visit(node.left)
            visit(node.right)
        elif isinstance(node, (Star, H)):
            visit(node.inner)
        out.append(node)

    visit(term)
    return out


def reference_facts(term) -> tuple:
    """The facts of ``term`` (nullable, ``H``-free, semilattice term, in the
    normal-form grammar, letters), by recursion over the term:
    a binary node starts from the rules that ``+``, ``;`` and ``&`` share,
    and its class then replaces the ones it changes."""
    if isinstance(term, (Zero, One)):
        return isinstance(term, One), True, False, True, frozenset()
    if isinstance(term, Atom):
        return False, True, True, True, frozenset(term.letter)
    if isinstance(term, (Star, H)):
        nullable, h_free, _, nsf, used = reference_facts(term.inner)
        if isinstance(term, Star):
            return True, h_free, False, nsf, used
        return nullable, False, False, False, used
    left, right = reference_facts(term.left), reference_facts(term.right)
    nullable = left[0] and right[0]
    h_free = left[1] and right[1]
    sl = False
    nsf = left[3] and right[3]
    used = left[4] | right[4]
    if isinstance(term, Plus):
        nullable = left[0] or right[0]
    elif isinstance(term, Sync):
        sl = left[2] and right[2]
        nsf = left[2] and left[3] and type(term.right) is Atom and term.right.letter > max(left[4])
    return nullable, h_free, sl, nsf, used


def reference_first_h(term):
    """The leftmost-outermost ``H`` of ``term``, by recursion: ``term`` when
    it is an ``H``, else the first ``H`` of its first operand that holds
    one; ``None`` when it holds none."""
    if isinstance(term, H):
        return term
    if isinstance(term, (Plus, Seq, Sync)):
        return reference_first_h(term.left) or reference_first_h(term.right)
    if isinstance(term, Star):
        return reference_first_h(term.inner)
    return None


def reference_is_nsf(term) -> bool:
    """Membership in the normal-form grammar by recursion over the term:
    a semilattice term must be its own canonical form."""
    if isinstance(term, (Zero, One)):
        return True
    if reference_facts(term)[2]:
        return term is canonical_atom(sl_value(term))
    if isinstance(term, (Plus, Seq)):
        return reference_is_nsf(term.left) and reference_is_nsf(term.right)
    if isinstance(term, Star):
        return reference_is_nsf(term.inner)
    return False


def reference_sem_bounded(term, bound: int) -> BoundedLang:
    """All words of the language of ``term`` up to ``bound``, by recursion
    over the term as a tree."""
    if isinstance(term, Zero):
        return BoundedLang(bound)
    if isinstance(term, One):
        return BoundedLang(bound, ((),))
    if isinstance(term, Atom):
        if bound < 1:
            return BoundedLang(bound)
        return BoundedLang(bound, ((SymSet(term.letter),),))
    if isinstance(term, Plus):
        return lang_union(reference_sem_bounded(term.left, bound),
                          reference_sem_bounded(term.right, bound))
    if isinstance(term, Seq):
        return lang_concat(reference_sem_bounded(term.left, bound),
                           reference_sem_bounded(term.right, bound))
    if isinstance(term, Sync):
        return lang_sync(reference_sem_bounded(term.left, bound),
                         reference_sem_bounded(term.right, bound))
    if isinstance(term, Star):
        return lang_star(reference_sem_bounded(term.inner, bound))
    if isinstance(term, H):
        return lang_h(reference_sem_bounded(term.inner, bound))
    raise TypeError("unknown term node %r" % (term,))


def _reference_model_plus(k, l):
    if k is DAGGER or l is DAGGER:
        return DAGGER
    return k.union(l)


def _reference_model_dot(k, l):
    # Emptiness wins over DAGGER: the empty language annihilates first.
    if (isinstance(k, UnaryLang) and k.is_empty) or (isinstance(l, UnaryLang) and l.is_empty):
        return UnaryLang.empty()
    if k is DAGGER or l is DAGGER:
        return DAGGER
    return k.sum_set(l)


def _reference_model_sync(k, l):
    if (isinstance(k, UnaryLang) and k.is_empty) or (isinstance(l, UnaryLang) and l.is_empty):
        return UnaryLang.empty()
    if k is DAGGER or l is DAGGER:
        return DAGGER
    if k.is_infinite and l.is_infinite:
        return DAGGER
    return k.max_set(l)


def _reference_model_star(k):
    if k is DAGGER:
        return DAGGER
    return k.star_closure()


# The one-letter countermodel with each operator's DAGGER and empty-set
# cases spelled out in priority order, one case analysis per operator.
reference_model_ops = Ops(plus=_reference_model_plus, dot=_reference_model_dot,
                          sync=_reference_model_sync, star=_reference_model_star,
                          zero=UnaryLang.empty(), one=UnaryLang.epsilon())


def reference_eval_cm(term):
    """The value of an H-free term in the one-letter countermodel, by a
    recursive walk of the term as a tree with ``reference_model_ops``: a
    shared subterm is evaluated once per occurrence."""
    ops = reference_model_ops
    if isinstance(term, Zero):
        return ops.zero
    if isinstance(term, One):
        return ops.one
    if isinstance(term, Atom):
        return UnaryLang.generator()
    if isinstance(term, Plus):
        return ops.plus(reference_eval_cm(term.left), reference_eval_cm(term.right))
    if isinstance(term, Seq):
        return ops.dot(reference_eval_cm(term.left), reference_eval_cm(term.right))
    if isinstance(term, Sync):
        return ops.sync(reference_eval_cm(term.left), reference_eval_cm(term.right))
    if isinstance(term, Star):
        return ops.star(reference_eval_cm(term.inner))
    raise TypeError("no model value for %r" % (term,))


def reference_print(term) -> str:
    """A term printed by recursion over it as a tree, with minimal
    parentheses: a child is parenthesised when it binds looser than its
    parent, or as tight in the slot its parent does not associate to. ``;``
    associates to the right, ``+`` and ``&`` to the left."""

    def child(parent, node, right_slot=False):
        need = node.precedence < parent.precedence or (
            right_slot != isinstance(parent, Seq) and node.precedence == parent.precedence
        )
        return "(%s)" % reference_print(node) if need else reference_print(node)

    if isinstance(term, Zero):
        return "0"
    if isinstance(term, One):
        return "1"
    if isinstance(term, Atom):
        return term.letter
    if isinstance(term, Star):
        return child(term, term.inner) + "*"
    if isinstance(term, H):
        return "H(%s)" % reference_print(term.inner)
    return "%s %s %s" % (child(term, term.left), term.symbol, child(term, term.right, True))


class _Tokens:
    def __init__(self, text: str, alphabet: frozenset[str] | None):
        self.text = text
        self.alphabet = alphabet
        self.pos = 0

    def _skip(self) -> None:
        text = self.text
        while self.pos < len(text):
            ch = text[self.pos]
            if ch in " \t\r\n":
                self.pos += 1
            elif ch == "#":
                while self.pos < len(text) and text[self.pos] != "\n":
                    self.pos += 1
            else:
                return

    def peek(self) -> tuple[str, int]:
        """Next character (or '' at end of input) and its offset."""
        self._skip()
        if self.pos >= len(self.text):
            return "", self.pos
        return self.text[self.pos], self.pos

    def advance(self) -> None:
        self.pos += 1


def reference_parse(text: str, alphabet: str | frozenset[str] | None = None) -> Term:
    """A term parsed by recursive descent, one function per precedence
    level: the same grammar, nodes, errors and positions as ``parse_term``,
    bounded by the recursion limit."""
    declared = frozenset(alphabet) if alphabet is not None else None
    tokens = _Tokens(text, declared)
    term = _parse_plus(tokens)
    ch, pos = tokens.peek()
    if ch:
        raise TermSyntaxError("unexpected %r" % ch, pos)
    return term


def _parse_plus(tokens: _Tokens) -> Term:
    term = _parse_sync(tokens)
    while True:
        ch, _ = tokens.peek()
        if ch != "+":
            return term
        tokens.advance()
        term = Plus(term, _parse_sync(tokens))


def _parse_sync(tokens: _Tokens) -> Term:
    term = _parse_chain(tokens)
    while True:
        ch, _ = tokens.peek()
        if ch != "&":
            return term
        tokens.advance()
        term = Sync(term, _parse_chain(tokens))


def _parse_chain(tokens: _Tokens) -> Term:
    term = _parse_starred(tokens)
    ch, _ = tokens.peek()
    if ch != ";":
        return term
    tokens.advance()
    return Seq(term, _parse_chain(tokens))


def _parse_starred(tokens: _Tokens) -> Term:
    term = _parse_primary(tokens)
    while True:
        ch, _ = tokens.peek()
        if ch != "*":
            return term
        tokens.advance()
        term = Star(term)


def _parse_primary(tokens: _Tokens) -> Term:
    ch, pos = tokens.peek()
    if ch == "":
        raise TermSyntaxError("expected a term, found end of input", pos)
    if ch == "0":
        tokens.advance()
        return Zero()
    if ch == "1":
        tokens.advance()
        return One()
    if ch == "(":
        tokens.advance()
        term = _parse_plus(tokens)
        closing, cpos = tokens.peek()
        if closing != ")":
            raise TermSyntaxError("expected ')'", cpos)
        tokens.advance()
        return term
    if ch == "H":
        tokens.advance()
        opening, opos = tokens.peek()
        if opening != "(":
            raise TermSyntaxError("expected '(' after H", opos)
        tokens.advance()
        term = _parse_plus(tokens)
        closing, cpos = tokens.peek()
        if closing != ")":
            raise TermSyntaxError("expected ')'", cpos)
        tokens.advance()
        return H(term)
    if ch in LETTERS:
        if tokens.alphabet is not None and ch not in tokens.alphabet:
            raise UnknownLetterError(ch, pos)
        tokens.advance()
        return Atom(ch)
    raise TermSyntaxError("expected a term, found %r" % ch, pos)


def _reference_canonical(threshold: int, period: int, member: Callable[[int], bool]):
    """Minimal (threshold, period, low bits, cycle bits) for a set that is
    ``period``-periodic from ``threshold`` with the given membership."""
    best = period
    for candidate in range(1, period + 1):
        if period % candidate:
            continue
        if all(
            member(threshold + i) == member(threshold + i % candidate)
            for i in range(period)
        ):
            best = candidate
            break
    period = best
    while threshold > 0 and member(threshold - 1) == member(threshold - 1 + period):
        threshold -= 1
    low_bits = 0
    for n in range(threshold):
        if member(n):
            low_bits |= 1 << n
    cycle_bits = 0
    for i in range(period):
        if member(threshold + i):
            cycle_bits |= 1 << i
    return threshold, period, low_bits, cycle_bits


class ReferenceUnaryLang:
    """The countermodel's unary sets as first written: every operation
    rebuilds its result through a membership test per natural. Kept as the
    reference for ``UnaryLang``, which must give the same canonical
    ``(threshold, period, low_bits, cycle_bits)``."""

    __slots__ = ("threshold", "period", "low_bits", "cycle_bits", "_hash")

    def __init__(self, threshold: int, period: int, member: Callable[[int], bool]):
        t, p, low, cycle = _reference_canonical(threshold, period, member)
        self.threshold = t
        self.period = p
        self.low_bits = low
        self.cycle_bits = cycle
        self._hash = hash((t, p, low, cycle))

    @classmethod
    def from_members(cls, members: Iterable[int]) -> ReferenceUnaryLang:
        """The finite set of the given naturals."""
        values = set(members)
        if any(v < 0 for v in values):
            raise ValueError("members must be naturals")
        bound = max(values) + 1 if values else 0
        return cls(bound, 1, lambda n: n in values)

    @classmethod
    def periodic(
        cls,
        low: Iterable[int],
        threshold: int,
        period: int,
        residues: Iterable[int],
    ) -> ReferenceUnaryLang:
        """The set with the given members below ``threshold`` plus every
        ``n >= threshold`` with ``(n - threshold) % period`` among
        ``residues``."""
        if period < 1:
            raise ValueError("period must be positive")
        lows = set(low)
        offs = {r % period for r in residues}
        if any(v < 0 or v >= threshold for v in lows):
            raise ValueError("low members must lie below the threshold")
        return cls(threshold, period, lambda n: (n in lows) if n < threshold else ((n - threshold) % period in offs))

    @classmethod
    def empty(cls) -> ReferenceUnaryLang:
        return cls.from_members(())

    @classmethod
    def epsilon(cls) -> ReferenceUnaryLang:
        """Only the empty word."""
        return cls.from_members((0,))

    @classmethod
    def generator(cls) -> ReferenceUnaryLang:
        """The single word of length one."""
        return cls.from_members((1,))

    @classmethod
    def naturals(cls) -> ReferenceUnaryLang:
        return cls(0, 1, lambda n: True)

    def __contains__(self, n: int) -> bool:
        if n < 0:
            return False
        if n < self.threshold:
            return bool(self.low_bits >> n & 1)
        return bool(self.cycle_bits >> ((n - self.threshold) % self.period) & 1)

    @property
    def is_empty(self) -> bool:
        return not self.low_bits and not self.cycle_bits

    @property
    def is_infinite(self) -> bool:
        return bool(self.cycle_bits)

    def min_element(self) -> int | None:
        for n in range(self.threshold + self.period):
            if n in self:
                return n
        return None

    def members_upto(self, bound: int) -> list[int]:
        return [n for n in range(bound + 1) if n in self]

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ReferenceUnaryLang)
            and self.threshold == other.threshold
            and self.period == other.period
            and self.low_bits == other.low_bits
            and self.cycle_bits == other.cycle_bits
        )

    def __str__(self) -> str:
        low = ",".join(str(n) for n in range(self.threshold) if self.low_bits >> n & 1)
        cycle = ",".join(str(i) for i in range(self.period) if self.cycle_bits >> i & 1)
        return "{%s} + {%s} mod %d from %d" % (low, cycle, self.period, self.threshold)

    def __repr__(self) -> str:
        return "ReferenceUnaryLang(%s)" % self

    def union(self, other: ReferenceUnaryLang) -> ReferenceUnaryLang:
        period = math.lcm(self.period, other.period)
        threshold = max(self.threshold, other.threshold)
        return ReferenceUnaryLang(threshold, period, lambda n: n in self or n in other)

    def sum_set(self, other: ReferenceUnaryLang) -> ReferenceUnaryLang:
        """Concatenation on length sets: all sums of a member of each.

        The result repeats with the combined period beyond the sum of the
        thresholds plus one period: above that, any decomposition can
        shift one of its parts by a full period in either direction.
        """
        if self.is_empty or other.is_empty:
            return ReferenceUnaryLang.empty()
        period = math.lcm(self.period, other.period)
        threshold = self.threshold + other.threshold + period
        horizon = threshold + period
        mine = self.members_upto(horizon)
        bits = 0
        for a in mine:
            for n in range(a, horizon + 1):
                if (n - a) in other:
                    bits |= 1 << n
        return ReferenceUnaryLang(threshold, period, lambda n: bool(bits >> n & 1))

    def max_set(self, other: ReferenceUnaryLang) -> ReferenceUnaryLang:
        """Synchronous product on length sets: all pointwise maxima.

        ``max(a, b) = n`` needs ``n`` in one set and an element at most
        ``n`` in the other, so above both minima this is just the union.
        """
        if self.is_empty or other.is_empty:
            return ReferenceUnaryLang.empty()
        mine = self.min_element()
        theirs = other.min_element()
        period = math.lcm(self.period, other.period)
        threshold = max(self.threshold, other.threshold, mine + 1, theirs + 1)
        return ReferenceUnaryLang(
            threshold,
            period,
            lambda n: (n in self and theirs <= n) or (n in other and mine <= n),
        )

    def star_closure(self) -> ReferenceUnaryLang:
        """The least set containing 0 and closed under adding members.

        Let ``p`` be the smallest nonzero member. The closure is itself
        closed under adding ``p``, so within each residue class mod ``p``
        it is exactly the upward ``p``-progression from the class's first
        member. The classes that ever get populated are computed exactly
        as a closure in the integers mod ``p``; the first members are then
        read off a table of small sums, enlarging the table until every
        populated class has appeared.
        """
        # Any nonempty set other than {0} has a nonzero member within one
        # cycle of the threshold (the cycle window is scanned in full).
        nonzero = [n for n in self.members_upto(self.threshold + self.period) if n]
        if not nonzero:
            return ReferenceUnaryLang.epsilon()
        p = nonzero[0]

        # Residues mod p ever hit by the set: tail values cycle with the
        # set's own period, so one period of cycles covers them all.
        residue_span = self.threshold + self.period * p
        generator_residues = {a % p for a in self.members_upto(residue_span)}
        populated = {0}
        frontier = [0]
        while frontier:
            r = frontier.pop()
            for g in generator_residues:
                s = (r + g) % p
                if s not in populated:
                    populated.add(s)
                    frontier.append(s)

        bound = max(self.threshold + self.period * (self.threshold + self.period), p * p, 64)
        while True:
            members = self.members_upto(bound)
            reachable = bytearray(bound + 1)
            reachable[0] = 1
            for n in range(1, bound + 1):
                for a in members:
                    if a > n:
                        break
                    if a and reachable[n - a]:
                        reachable[n] = 1
                        break
            first: dict[int, int] = {}
            for n in range(bound + 1):
                if reachable[n]:
                    first.setdefault(n % p, n)
            if populated <= set(first):
                break
            bound *= 2
        threshold = max(first.values()) + 1
        return ReferenceUnaryLang(
            threshold,
            p,
            lambda n: n % p in first and n >= first[n % p],
        )


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


def random_context(
    rng: random.Random, alphabet: str = "ab", size: int = 4
) -> Callable[[Term], Term]:
    """A random one-hole context, returned as a term-to-term function."""
    if size <= 1:
        return lambda hole: hole
    op = rng.choice(["plus", "seq", "sync", "star", "h"])
    if op in ("star", "h"):
        inner = random_context(rng, alphabet, size - 1)
        wrap = Star if op == "star" else H
        return lambda hole: wrap(inner(hole))
    split = rng.randint(1, max(1, size - 2))
    other = random_term(rng, alphabet, split)
    inner = random_context(rng, alphabet, size - 1 - split if size - 1 - split >= 1 else 1)
    node = {"plus": Plus, "seq": Seq, "sync": Sync}[op]
    if rng.random() < 0.5:
        return lambda hole: node(inner(hole), other)
    return lambda hole: node(other, inner(hole))


def term_strategy(alphabet: str = "ab", allow_h: bool = True, max_leaves: int = 8,
                  allow_one: bool = True):
    """Hypothesis strategy over terms; ``allow_one=False`` leaves out ``1``."""
    atoms = [Zero()] + [One()] * allow_one + [Atom(ch) for ch in sorted(set(alphabet))]
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
