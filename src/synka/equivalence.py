"""Language equivalence of terms, with shortest counterexamples.

Two terms denote the same language exactly when, as states of the
syntactic automaton, they accept the same words. The check is
Hopcroft-Karp up to congruence (HKC; Bonchi & Pous, "Checking NFA
equivalence in almost linear time via up-to techniques", POPL 2013): both
sides are determinized on the fly into sets of terms, and the frontier is
explored breadth-first, so the first acceptance conflict yields a shortest
distinguishing word. A popped pair is skipped when it lies in the
congruence closure of the pairs processed so far: the least relation that
holds them and is an equivalence closed under union, since ``X ~ Y`` and
``X' ~ Y'`` give ``X | X' ~ Y | Y'``. A pair with equal sides, or a
pair processed before, lies in the closure at once; the test below
decides the rest.

The congruence test reads the processed pairs as rewriting rules: a pair
``(X, Y)`` rewrites a set that contains ``X`` by adding ``Y``, and one
that contains ``Y`` by adding ``X``. A pair ``(X, Y)`` lies in the closure
exactly when rewriting ``X`` as far as it goes reaches every state of
``Y``, and rewriting ``Y`` reaches every state of ``X``. Rewriting adds
only states that some processed pair holds, so a pair with a state on one
side only that no processed pair holds is not in the closure. That test,
a symmetric difference and a subset test on the set of held states, ends
the check on almost every pair whose states are new. Past it, each
rewrite runs from a worklist of added states over an index from each
state to the rules whose left side holds it, and counts down how many
states of each such rule are still missing, so each rule fires at most
once. The index is brought up to date only when a check gets that far.
A rewrite visits at most every rule once per state of its left side, so
a search where the closure prunes few pairs but every pair's states recur
pays up to quadratically many rule visits in the processed pairs.

Acceptance is tested as a pair is queued, and the search stops at the
first conflict, so the rest of the last level is not expanded. The queue
is in push order, so this is the conflict a test at pop time would find
first.

Each pair steps only on the symbols that either side can read, taken in
sorted order. Any other symbol leads both sides to the empty set, a pair
that is trivially language-equal, so no shortest distinguishing word can
use one and skipping it changes neither the search order nor the count of
examined pairs.

The search starts from the terms as given. The parser nests ``;`` to the
right, and a right-nested chain derives states that need O(1) new nodes
each, whose tables are built without recursing down the chain; a chain
nested to the left by written parentheses takes the table of the same
chain nested to the right.

The witness does not depend on how the states are represented, nor on
which pairs are skipped: it is the shortlex-least word (shortest, then
least symbol by symbol) accepted by exactly one side. The queue holds
words in shortlex order, each as a ``(prefix, symbol)`` link, so a push
copies nothing. A set accepts a word exactly when one of its states does,
so the pairs whose sides agree on a suffix z form a congruence: an
equivalence closed under union. The pair reached by a word u is skipped
only when it lies in the congruence closure of pairs processed at words v
before u, all of which agree on acceptance; if its sides differed on z,
the sides of one such pair would differ on z too, and vz would be a
distinguishing word before uz. So no prefix of the least distinguishing
word is skipped, and no conflict comes before it. Only the count of
examined pairs depends on the representation and on the closure used.
"""

from __future__ import annotations

from collections import defaultdict, deque, namedtuple
from operator import attrgetter

from .derivatives import step
from .terms import Term

# A term's ``nullable`` fact, read straight off its node.
_nullable = attrgetter("_nullable")

DEFAULT_PAIR_CAP = 1_000_000


class StateLimitError(RuntimeError, ValueError):
    """Raised when the explored pair frontier exceeds the configured cap.
    It is also a ``ValueError``, so the CLI reports it like any other
    refused input: one ``error:`` line and exit code 2."""


class EquivResult(namedtuple("EquivResult", "equivalent witness", defaults=(None,))):
    """Outcome of an equivalence check, true when ``equivalent``.
    ``witness`` is present exactly when the terms differ, and is then
    accepted by exactly one of them."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return self.equivalent


class _Congruence:
    """The processed pairs as rewriting rules on sets of terms: a pair
    ``(X, Y)`` rewrites a set that contains ``X`` by adding ``Y``, and one
    that contains ``Y`` by adding ``X``. Two sets lie in the congruence
    closure of the pairs exactly when rewriting each as far as it goes
    reaches every state of the other (Bonchi & Pous 2013). A pair is
    answered first by equal sides, then by being a processed pair, then by
    the held-states test, and only past these three by rewriting."""

    __slots__ = ("pairs", "states", "pending", "index", "rules", "always")

    def __init__(self):
        # The processed pairs, and every state that one of them holds.
        self.pairs: set[tuple[frozenset[Term], frozenset[Term]]] = set()
        self.states: set[Term] = set()
        # The pairs added since the rules were last brought up to date.
        self.pending: list[tuple[frozenset[Term], frozenset[Term]]] = []
        # Each state, mapped to the numbers of the rules whose left side
        # holds it. A rule is the size of its left side and its right side.
        self.index: defaultdict[Term, list[int]] = defaultdict(list)
        self.rules: list[tuple[int, frozenset[Term]]] = []
        # The right sides of the rules whose left side is empty: every
        # rewrite adds them.
        self.always: frozenset[Term] = frozenset()

    def add(self, left: frozenset[Term], right: frozenset[Term]) -> None:
        self.pairs.add((left, right))
        self.states |= left
        self.states |= right
        self.pending.append((left, right))

    def relates(self, left: frozenset[Term], right: frozenset[Term]) -> bool:
        """Whether the pair lies in the congruence closure of the pairs."""
        if left == right or (left, right) in self.pairs:
            return True
        # Rewriting adds only states that some pair holds, so a state on
        # one side only that no pair holds answers at once.
        if not self.states.issuperset(left ^ right):
            return False
        index, rules = self.index, self.rules
        for pair in self.pending:
            for lhs, rhs in (pair, pair[::-1]):
                if not lhs:
                    self.always |= rhs
                    continue
                for state in lhs:
                    index[state].append(len(rules))
                rules.append((len(lhs), rhs))
        self.pending.clear()
        return self._covers(left, right) and self._covers(right, left)

    def _covers(self, start: frozenset[Term], target: frozenset[Term]) -> bool:
        """Whether rewriting ``start`` as far as it goes reaches every
        state of ``target``."""
        if self.always:
            start = start | self.always
        needed = set(target - start)
        if not needed:
            return True
        index, rules = self.index, self.rules
        closure = set(start)
        work = list(start)
        # How many states of its left side each rule still misses.
        missing: dict[int, int] = {}
        while work:
            for number in index.get(work.pop(), ()):
                size, rhs = rules[number]
                left = missing.get(number, size) - 1
                missing[number] = left
                if left:
                    continue
                for state in rhs:
                    if state not in closure:
                        closure.add(state)
                        work.append(state)
                        needed.discard(state)
                if not needed:
                    return True
        return False


def _spell(link: tuple | None) -> tuple:
    symbols = []
    while link is not None:
        link, symbol = link
        symbols.append(symbol)
    return tuple(reversed(symbols))


def equiv(e: Term, f: Term, pair_cap: int = DEFAULT_PAIR_CAP) -> EquivResult:
    """Decide whether ``e`` and ``f`` denote the same language.

    Raises :class:`StateLimitError` once more than ``pair_cap`` set pairs
    have been examined.
    """
    congruence = _Congruence()

    empty: frozenset[Term] = frozenset()
    left = frozenset((e,))
    right = frozenset((f,))
    if any(map(_nullable, left)) != any(map(_nullable, right)):
        return EquivResult(False, ())
    queue: deque[tuple[frozenset[Term], frozenset[Term], tuple | None]] = deque([(left, right, None)])
    examined = 0
    while queue:
        left, right, word = queue.popleft()
        if congruence.relates(left, right):
            continue
        next_left = step(left)
        next_right = step(right)
        congruence.add(left, right)
        examined += 1
        if examined > pair_cap:
            raise StateLimitError("equivalence check exceeded %d determinized state pairs;"
                                  " --cap N raises the limit" % pair_cap)
        for symbol in sorted(next_left.keys() | next_right.keys()):
            after_left = next_left.get(symbol, empty)
            after_right = next_right.get(symbol, empty)
            link = (word, symbol)
            if any(map(_nullable, after_left)) != any(map(_nullable, after_right)):
                return EquivResult(False, _spell(link))
            queue.append((after_left, after_right, link))
    return EquivResult(True, None)
