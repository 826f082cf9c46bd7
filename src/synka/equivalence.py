"""Language equivalence of terms, with shortest counterexamples.

Two terms denote the same language exactly when, as states of the
syntactic automaton, they accept the same words. The check runs a
Hopcroft-Karp style bisimulation: both sides are determinized on the fly
into sets of terms, a union-find merges set pairs already known to be
language-equal, and the frontier is explored breadth-first so the first
acceptance conflict yields a shortest distinguishing word.

Each pair steps only on the symbols that either side can read, taken in
sorted order. Any other symbol leads both sides to the empty set, a pair
that is trivially language-equal, so no shortest distinguishing word can
use one and skipping it changes neither the search order nor the count of
examined pairs.

The search starts from ``right_associated`` copies of both terms. The
parser nests ``;`` to the left, and every derivative of a left-nested
chain of n letters is a fresh chain of about n nodes whose table is built
through all n levels; a right-nested chain derives states that need O(1)
new nodes each, and its tables are built without recursing down the
chain. A term with no left-nested ``;`` is its own copy, so tables that
were built on it before are reused.

The witness does not depend on how the states are represented: it is the
shortlex-least word (shortest, then least symbol by symbol) accepted by
exactly one side. The queue holds words in shortlex order, each as a
``(prefix, symbol)`` link, so a push copies nothing. The pair
reached by a word u is skipped only when it lies in the equivalence
closure of pairs processed at words v before u; if its sides differed on
a suffix z, the sides of one such pair would differ on z too, and vz
would be a distinguishing word before uz. So no prefix of the least
distinguishing word is skipped, and no conflict comes before it. Only
the count of examined pairs depends on the representation.
"""

from __future__ import annotations

from collections import deque, namedtuple

from .derivatives import nullable, step
from .terms import Term, right_associated

DEFAULT_PAIR_CAP = 1_000_000


class StateLimitError(RuntimeError):
    """Raised when the explored pair frontier exceeds the configured cap."""


class EquivResult(namedtuple("EquivResult", "equivalent witness", defaults=(None,))):
    """Outcome of an equivalence check, true when ``equivalent``.
    ``witness`` is present exactly when the terms differ, and is then
    accepted by exactly one of them."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return self.equivalent


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


def equiv(e: Term, f: Term, pair_cap: int = DEFAULT_PAIR_CAP) -> EquivResult:
    """Decide whether ``e`` and ``f`` denote the same language.

    Raises :class:`StateLimitError` once more than ``pair_cap`` set pairs
    have been examined.
    """
    uf = _UnionFind()
    expanded: dict[frozenset[Term], tuple[bool, dict]] = {}

    def expand(subset: frozenset[Term]) -> tuple[bool, dict]:
        try:
            return expanded[subset]
        except KeyError:
            value = expanded[subset] = (any(nullable(q) for q in subset), step(subset))
            return value

    empty: frozenset[Term] = frozenset()
    start = (frozenset((right_associated(e),)), frozenset((right_associated(f),)))
    queue: deque[tuple[frozenset[Term], frozenset[Term], tuple | None]] = deque([(*start, None)])
    examined = 0
    while queue:
        left, right, word = queue.popleft()
        if uf.find(left) == uf.find(right):
            continue
        accept_left, next_left = expand(left)
        accept_right, next_right = expand(right)
        if accept_left != accept_right:
            symbols = []
            while word is not None:
                word, symbol = word
                symbols.append(symbol)
            return EquivResult(False, tuple(reversed(symbols)))
        uf.union(left, right)
        examined += 1
        if examined > pair_cap:
            raise StateLimitError(
                "equivalence check exceeded %d determinized state pairs" % pair_cap
            )
        for symbol in sorted(next_left.keys() | next_right.keys()):
            queue.append(
                (next_left.get(symbol, empty), next_right.get(symbol, empty), (word, symbol))
            )
    return EquivResult(True, None)
