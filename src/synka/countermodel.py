"""A model over one letter in which iterated synchronous products diverge.

Over a single letter, a synchronous word is determined by its length, so a
language is just a set of naturals; every set reachable from the generator
``{1}`` by the operators below is eventually periodic and is represented
exactly by a finite prefix plus a repeating residue pattern. The carrier
adds one extra element, ``DAGGER``, to which the synchronous product of
two infinite languages collapses. All other operator cases follow the
usual language operations, with the case analyses applied in priority
order (for instance, an empty operand wins over ``DAGGER`` in
concatenation).

On length sets the operators reduce to arithmetic: union for choice,
the sum-set for concatenation, the pointwise maximum for the synchronous
product (the product of two words is as long as the longer one), and the
additive closure including 0 for iteration.

``eval_cm`` interprets a term with an explicit stack, not Python
recursion, and memoizes within one call, so each distinct subterm of a
term that shares subterms (as solved normal forms do) is evaluated once.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from typing import Callable, Union

from .terms import Atom, H, One, Plus, Seq, Star, Sync, Term, Zero


class Dagger:
    """The absorbing extra element; not a language."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "dagger"

    def __str__(self) -> str:
        return "dagger"


DAGGER = Dagger()


def _canonical(threshold: int, period: int, member: Callable[[int], bool]):
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


class UnaryLang:
    """An eventually periodic set of naturals (word lengths over one
    letter), stored canonically: minimal period first, then minimal
    threshold. A natural ``n >= threshold`` belongs exactly when the cycle
    bit at ``(n - threshold) % period`` is set."""

    __slots__ = ("threshold", "period", "low_bits", "cycle_bits", "_hash")

    def __init__(self, threshold: int, period: int, member: Callable[[int], bool]):
        t, p, low, cycle = _canonical(threshold, period, member)
        self.threshold = t
        self.period = p
        self.low_bits = low
        self.cycle_bits = cycle
        self._hash = hash((t, p, low, cycle))

    @classmethod
    def from_members(cls, members: Iterable[int]) -> UnaryLang:
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
    ) -> UnaryLang:
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
    def empty(cls) -> UnaryLang:
        return cls.from_members(())

    @classmethod
    def epsilon(cls) -> UnaryLang:
        """Only the empty word."""
        return cls.from_members((0,))

    @classmethod
    def generator(cls) -> UnaryLang:
        """The single word of length one."""
        return cls.from_members((1,))

    @classmethod
    def naturals(cls) -> UnaryLang:
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
            isinstance(other, UnaryLang)
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
        return "UnaryLang(%s)" % self

    def union(self, other: UnaryLang) -> UnaryLang:
        period = math.lcm(self.period, other.period)
        threshold = max(self.threshold, other.threshold)
        return UnaryLang(threshold, period, lambda n: n in self or n in other)

    def sum_set(self, other: UnaryLang) -> UnaryLang:
        """Concatenation on length sets: all sums of a member of each.

        The result repeats with the combined period beyond the sum of the
        thresholds plus one period: above that, any decomposition can
        shift one of its parts by a full period in either direction.
        """
        if self.is_empty or other.is_empty:
            return UnaryLang.empty()
        period = math.lcm(self.period, other.period)
        threshold = self.threshold + other.threshold + period
        horizon = threshold + period
        mine = self.members_upto(horizon)
        bits = 0
        for a in mine:
            for n in range(a, horizon + 1):
                if (n - a) in other:
                    bits |= 1 << n
        return UnaryLang(threshold, period, lambda n: bool(bits >> n & 1))

    def max_set(self, other: UnaryLang) -> UnaryLang:
        """Synchronous product on length sets: all pointwise maxima.

        ``max(a, b) = n`` needs ``n`` in one set and an element at most
        ``n`` in the other, so above both minima this is just the union.
        """
        if self.is_empty or other.is_empty:
            return UnaryLang.empty()
        mine = self.min_element()
        theirs = other.min_element()
        period = math.lcm(self.period, other.period)
        threshold = max(self.threshold, other.threshold, mine + 1, theirs + 1)
        return UnaryLang(
            threshold,
            period,
            lambda n: (n in self and theirs <= n) or (n in other and mine <= n),
        )

    def star_closure(self) -> UnaryLang:
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
            return UnaryLang.epsilon()
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
        return UnaryLang(
            threshold,
            p,
            lambda n: n % p in first and n >= first[n % p],
        )


ModelElement = Union[Dagger, UnaryLang]

_EMPTY = UnaryLang.from_members(())


def cm_plus(k: ModelElement, l: ModelElement) -> ModelElement:
    if k is DAGGER or l is DAGGER:
        return DAGGER
    return k.union(l)


def cm_dot(k: ModelElement, l: ModelElement) -> ModelElement:
    # Emptiness wins over DAGGER: the empty language annihilates first.
    if (isinstance(k, UnaryLang) and k.is_empty) or (isinstance(l, UnaryLang) and l.is_empty):
        return _EMPTY
    if k is DAGGER or l is DAGGER:
        return DAGGER
    return k.sum_set(l)


def cm_sync(k: ModelElement, l: ModelElement) -> ModelElement:
    if (isinstance(k, UnaryLang) and k.is_empty) or (isinstance(l, UnaryLang) and l.is_empty):
        return _EMPTY
    if k is DAGGER or l is DAGGER:
        return DAGGER
    if k.is_infinite and l.is_infinite:
        return DAGGER
    return k.max_set(l)


def cm_star(k: ModelElement) -> ModelElement:
    if k is DAGGER:
        return DAGGER
    return k.star_closure()


def model_leq(k: ModelElement, l: ModelElement) -> bool:
    """The natural order: ``k <= l`` when ``k + l = l``."""
    return cm_plus(k, l) == l


class HTermError(ValueError):
    """Raised when a term containing H is evaluated in the model."""


class ValuationError(ValueError):
    """Raised when a letter is mapped outside the model's semilattice."""


def eval_cm(
    term: Term, valuation: dict[str, ModelElement] | None = None
) -> ModelElement:
    """Interpret an H-free term in the model.

    Every letter must denote the model's only semilattice element, the
    generator ``{1}``; ``valuation`` may spell that out explicitly.

    Each distinct subterm is evaluated once per call: terms are interned,
    so equal subterms are one node with one memo entry. The walk uses no
    Python recursion, so the recursion limit does not bound the term's
    depth. A term containing H raises ``HTermError`` naming its
    leftmost-outermost H, before anything beneath that H is evaluated.
    """
    generator = UnaryLang.generator()
    if valuation is not None:
        for letter, value in valuation.items():
            if value != generator:
                raise ValuationError(
                    "letter %r must be interpreted as the generator, got %s" % (letter, value)
                )

    # Post-order over an explicit stack. An operator node goes back on the
    # stack beneath its operands together with the model operation that
    # combines their values, and is combined once they are in the memo.
    # Operands go on left-last, so the walk first reaches nodes in the
    # order a recursive left-to-right walk would, and the first H it
    # reaches is the leftmost-outermost one.
    memo: dict[Term, ModelElement] = {}
    stack: list[tuple[Term, Callable[..., ModelElement] | None]] = [(term, None)]
    while stack:
        t, combine = stack.pop()
        if combine is cm_star:
            memo[t] = cm_star(memo[t.inner])
        elif combine is not None:
            memo[t] = combine(memo[t.left], memo[t.right])
        elif t in memo:
            continue
        elif isinstance(t, Zero):
            memo[t] = _EMPTY
        elif isinstance(t, One):
            memo[t] = UnaryLang.epsilon()
        elif isinstance(t, Atom):
            memo[t] = generator
        elif isinstance(t, H):
            raise HTermError("the model does not interpret H: %s" % t)
        elif isinstance(t, Star):
            stack.append((t, cm_star))
            stack.append((t.inner, None))
        elif isinstance(t, (Plus, Seq, Sync)):
            op = cm_plus if isinstance(t, Plus) else cm_dot if isinstance(t, Seq) else cm_sync
            stack.append((t, op))
            stack.append((t.right, None))
            stack.append((t.left, None))
        else:
            raise TypeError("unknown term node %r" % (t,))
    return memo[term]
