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
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .derivatives import nullable, step
from .language import SyncWord
from .terms import Term

DEFAULT_PAIR_CAP = 1_000_000


class StateLimitError(RuntimeError):
    """Raised when the explored pair frontier exceeds the configured cap."""


@dataclass(frozen=True)
class EquivResult:
    """Outcome of an equivalence check. ``witness`` is present exactly
    when the terms differ, and is then accepted by exactly one of them."""

    equivalent: bool
    witness: SyncWord | None = None

    def __bool__(self) -> bool:
        return self.equivalent


def member(word: SyncWord, term: Term) -> bool:
    """Word membership by iterated derivatives; no automaton is built."""
    current: frozenset[Term] | None = frozenset((term,))
    for symbol in word:
        current = step(current).get(symbol)
        if not current:
            return False
    return any(nullable(state) for state in current)


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
    start = (frozenset((e,)), frozenset((f,)))
    queue: deque[tuple[frozenset[Term], frozenset[Term], SyncWord]] = deque([(*start, ())])
    examined = 0
    while queue:
        left, right, word = queue.popleft()
        if uf.find(left) == uf.find(right):
            continue
        accept_left, next_left = expand(left)
        accept_right, next_right = expand(right)
        if accept_left != accept_right:
            return EquivResult(False, word)
        uf.union(left, right)
        examined += 1
        if examined > pair_cap:
            raise StateLimitError(
                "equivalence check exceeded %d determinized state pairs" % pair_cap
            )
        for symbol in sorted(next_left.keys() | next_right.keys()):
            queue.append(
                (next_left.get(symbol, empty), next_right.get(symbol, empty), word + (symbol,))
            )
    return EquivResult(True, None)
