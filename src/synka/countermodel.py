"""A model over one letter in which iterated synchronous products diverge.

Over a single letter, a synchronous word is determined by its length, so a
language is just a set of naturals; every set reachable from the generator
``{1}`` by the operators below is eventually periodic and is represented
exactly by a finite prefix plus a repeating residue pattern.

The exact model, ``EXACT_OPS``, reads each operator as arithmetic on these
length sets: union for choice, the sum-set for concatenation, the pointwise
maximum for the synchronous product (the product of two words is as long
as the longer one), and the additive closure including 0 for iteration. So
a term's exact value is the set of word lengths of its language. A set is
a threshold, a period and one int of bits, its members below the threshold
plus one period (the eventually periodic form of Chrobak, "Finite automata
and unary languages", 1986). That window is what the constructor takes, so
``UnaryLang(x.threshold, x.period, x.bits) == x``. Union, sum and maximum
work on the bits with shifts, ORs and ANDs, never one natural at a time,
and star is the least fixpoint of sum and union. ``H`` keeps the empty
word only, so the exact model reads ``H(k)`` as ``k ∩ {0}``.

The countermodel, ``MODEL_OPS``, interprets only the original signature,
without ``H``, and changes one rule of the exact model: the synchronous
product of two infinite sets is an extra element, ``DAGGER``.
``DAGGER`` absorbs every operator, except that an empty operand of ``;``
or ``&`` wins over it. The original axioms hold in this model, yet it
tells ``a* & a*`` from ``a*``, which have the same language, so the axioms
are incomplete.

The four operations on sets, ``union``, ``sum_set``, ``max_set`` and
``star_closure``, are pure functions of canonical values, and the terms
of one workload apply them to few distinct sets, so each keeps a
``functools.lru_cache`` of its last ``MEMO_ENTRIES`` calls. A set hashes
and compares by its canonical threshold, period and bits, so a hit returns
a value equal to the one the operation computes.

``eval_cm`` is one ``terms.evaluate`` call with ``MODEL_OPS``, so each
distinct subterm of a term that shares subterms (as solved normal forms
do) is evaluated once, with no Python recursion. ``MODEL_OPS.h`` is
``None``, so ``eval_cm`` of a term with ``H`` raises ``terms.HTermError``,
which this module re-exports as ``HTermError``.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Iterable
from typing import Union

from .terms import HTermError, Ops, Term, evaluate


# How many calls each set operation remembers; the least recently used goes first.
MEMO_ENTRIES = 1024


class Dagger:
    """The absorbing extra element; not a language."""

    _instance = None
    # No set, so not the empty one.
    is_empty = False

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "dagger"

    def __str__(self) -> str:
        return "dagger"


DAGGER = Dagger()


def _mask(width: int) -> int:
    return (1 << width) - 1


def _repeat(pattern: int, width: int, count: int) -> int:
    """``count`` copies of the ``width``-bit ``pattern``, the first lowest.

    The copies are joined as a string of binary digits, which ``int`` reads
    in linear time; a zero pattern, the cycle of a finite set, skips it."""
    return pattern and int(format(pattern, "0%db" % width) * count or "0", 2)


def _lowest(bits: int) -> int:
    """Index of the lowest set bit of a nonzero int."""
    return (bits & -bits).bit_length() - 1


def _check_shape(threshold: int, period: int) -> None:
    if threshold < 0:
        raise ValueError("threshold must be a natural")
    if period < 1:
        raise ValueError("period must be positive")


class UnaryLang:
    """An eventually periodic set of naturals (word lengths over one
    letter), stored canonically: minimal period first, then minimal
    threshold. ``bits`` holds the members below ``threshold + period``, the
    window the constructor takes, and bits ``threshold`` up to that end are
    the cycle. A natural ``n >= threshold`` belongs exactly when the cycle
    bit at ``threshold + (n - threshold) % period`` is set.

    The operations compute on these ints directly: union, sum and maximum
    build the bits of their result below one threshold and period (a
    window) with shifts, ORs and ANDs, and canonicalize the window; star
    iterates sum and union. Each is memoized over its last
    ``MEMO_ENTRIES`` calls; ``__wrapped__`` is the uncached function.
    """

    __slots__ = ("threshold", "period", "bits", "_hash")

    def __init__(self, threshold: int, period: int, bits: int):
        """The set that is ``period``-periodic from ``threshold`` and whose
        members below ``threshold + period`` are the set bits of ``bits``,
        stored in canonical form."""
        _check_shape(threshold, period)
        if bits < 0:
            raise ValueError("bits must be a natural")
        # The least shift that maps the cycle onto itself divides the period
        # and is the least period.
        cycle = format(bits >> threshold & _mask(period), "0%db" % period)
        period = (cycle + cycle).find(cycle, 1)
        # Bit n of the XOR is set when n and n + period differ in membership.
        threshold = ((bits ^ bits >> period) & _mask(threshold)).bit_length()
        self.threshold = threshold
        self.period = period
        self.bits = bits & _mask(threshold + period)
        self._hash = hash((threshold, period, self.bits))

    def _window(self, end: int) -> int:
        """The members below ``end``, as bits."""
        threshold, period, bits = self.threshold, self.period, self.bits
        cycles = _repeat(bits >> threshold, period, max(0, -(-(end - threshold) // period)))
        return (bits | cycles << threshold) & _mask(end)

    @classmethod
    def from_members(cls, members: Iterable[int]) -> UnaryLang:
        """The finite set of the given naturals."""
        values = set(members)
        if any(v < 0 for v in values):
            raise ValueError("members must be naturals")
        bound = max(values) + 1 if values else 0
        return cls(bound, 1, sum(1 << v for v in values))

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
        _check_shape(threshold, period)
        lows = set(low)
        offs = {r % period for r in residues}
        if any(v < 0 or v >= threshold for v in lows):
            raise ValueError("low members must lie below the threshold")
        bits = sum(1 << v for v in lows) | sum(1 << r for r in offs) << threshold
        return cls(threshold, period, bits)

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
        return cls(0, 1, 1)

    def __contains__(self, n: int) -> bool:
        if n >= self.threshold:
            n = self.threshold + (n - self.threshold) % self.period
        return n >= 0 and bool(self.bits >> n & 1)

    @property
    def is_empty(self) -> bool:
        return not self.bits

    @property
    def is_infinite(self) -> bool:
        return bool(self.bits >> self.threshold)

    def min_element(self) -> int | None:
        return _lowest(self.bits) if self.bits else None

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, UnaryLang)
            and self.threshold == other.threshold
            and self.period == other.period
            and self.bits == other.bits
        )

    def __str__(self) -> str:
        members = bin(self.bits)[:1:-1]
        low = ",".join(str(n) for n, bit in enumerate(members[:self.threshold]) if bit == "1")
        cycle = ",".join(str(i) for i, bit in enumerate(members[self.threshold:]) if bit == "1")
        return "{%s} + {%s} mod %d from %d" % (low, cycle, self.period, self.threshold)

    def __repr__(self) -> str:
        return "UnaryLang(%s)" % self

    @functools.lru_cache(maxsize=MEMO_ENTRIES)
    def union(self, other: UnaryLang) -> UnaryLang:
        period = math.lcm(self.period, other.period)
        threshold = max(self.threshold, other.threshold)
        end = threshold + period
        return UnaryLang(threshold, period, self._window(end) | other._window(end))

    @functools.lru_cache(maxsize=MEMO_ENTRIES)
    def sum_set(self, other: UnaryLang) -> UnaryLang:
        """Concatenation on length sets: all sums of a member of each.

        The result repeats with the combined period beyond the sum of the
        thresholds plus one period: above that, any decomposition can
        shift one of its parts by a full period in either direction. Its
        window is the OR of one operand's window shifted by each member of
        the other's.
        """
        if self.is_empty or other.is_empty:
            return UnaryLang.empty()
        period = math.lcm(self.period, other.period)
        threshold = self.threshold + other.threshold + period
        end = threshold + period
        mine = self._window(end)
        theirs = other._window(end)
        if mine.bit_count() > theirs.bit_count():
            mine, theirs = theirs, mine
        bits = 0
        while mine:
            bits |= theirs << _lowest(mine)
            mine &= mine - 1
        return UnaryLang(threshold, period, bits & _mask(end))

    @functools.lru_cache(maxsize=MEMO_ENTRIES)
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
        end = threshold + period
        bits = self._window(end) & ~_mask(theirs) | other._window(end) & ~_mask(mine)
        return UnaryLang(threshold, period, bits)

    @functools.lru_cache(maxsize=MEMO_ENTRIES)
    def star_closure(self) -> UnaryLang:
        """The least set containing 0 and closed under adding members, the
        least solution of ``x = 1 + self ; x``: ``union`` and ``sum_set``
        iterated until the set stops growing.

        Let ``p`` be the least nonzero member. The iteration starts from the
        multiples of ``p``, which the closure holds, and each round adds the
        sums that use one more member. The least member of each class mod
        ``p`` is a sum of fewer than ``p`` nonzero members: a longer sum has
        two prefix sums equal mod ``p``, so the run of members between them
        totals a multiple of ``p``, and dropping it leaves a smaller sum in
        the same class. So the iteration stops within ``p`` rounds.
        """
        # Any nonempty set other than {0} has a nonzero member within one
        # cycle of the threshold, inclusive.
        nonzero = self._window(self.threshold + self.period + 1) & ~1
        if not nonzero:
            return UnaryLang.epsilon()
        closure = UnaryLang(0, _lowest(nonzero), 1)
        while True:
            # Uncached, so that only the result, not each round, stays in a memo.
            grown = UnaryLang.union.__wrapped__(closure, UnaryLang.sum_set.__wrapped__(self, closure))
            if grown == closure:
                return closure
            closure = grown


ModelElement = Union[Dagger, UnaryLang]

_EMPTY = UnaryLang.from_members(())
_EPSILON = UnaryLang.epsilon()

# The exact one-letter semantics: a language is its set of word lengths, and
# H keeps only the empty word, the length 0.
EXACT_OPS = Ops(plus=UnaryLang.union, dot=UnaryLang.sum_set, sync=UnaryLang.max_set,
                star=UnaryLang.star_closure, zero=_EMPTY, one=_EPSILON,
                h=lambda k: _EPSILON if 0 in k else _EMPTY)


def _with_dagger(
    operation: Callable[[UnaryLang, UnaryLang], ModelElement], empty_wins: bool
) -> Callable[[ModelElement, ModelElement], ModelElement]:
    """``operation`` extended to ``DAGGER``, which absorbs: the result is
    ``DAGGER`` when an operand is, unless ``empty_wins`` and the other
    operand is empty, which gives the empty set."""

    def apply(k: ModelElement, l: ModelElement) -> ModelElement:
        if k is DAGGER or l is DAGGER:
            return _EMPTY if empty_wins and (k.is_empty or l.is_empty) else DAGGER
        return operation(k, l)

    return apply


def _product(k: UnaryLang, l: UnaryLang) -> ModelElement:
    """The model's one departure from the exact semantics: the product of
    two infinite sets is ``DAGGER``."""
    return DAGGER if k.is_infinite and l.is_infinite else k.max_set(l)


MODEL_OPS = EXACT_OPS._replace(
    plus=_with_dagger(EXACT_OPS.plus, empty_wins=False),
    dot=_with_dagger(EXACT_OPS.dot, empty_wins=True),
    sync=_with_dagger(_product, empty_wins=True),
    star=lambda k: DAGGER if k is DAGGER else k.star_closure(),
    h=None,
)

_GENERATOR = UnaryLang.generator()


def eval_cm(term: Term) -> ModelElement:
    """Interpret an H-free term in the model.

    Every letter denotes the model's only semilattice element, the
    generator ``{1}``.

    Each distinct subterm is evaluated once per call, by ``evaluate``:
    terms are interned, so equal subterms are one node. Across calls, the
    set operations the model's operators apply remember their last
    ``MEMO_ENTRIES`` results each, so an operation applied to sets met
    before, in this term or an earlier one, is looked up. The walk uses no
    Python recursion, so the recursion limit does not bound the term's
    depth. ``MODEL_OPS`` has no ``H``, so ``evaluate`` raises
    ``HTermError`` on a term containing H, naming its leftmost-outermost H.
    """
    return evaluate(term, MODEL_OPS, lambda _: _GENERATOR)
