"""A fixed piece of pure-Python work that the benchmark times as a measure
of the host's speed at the moment (see ``run.py``). It does not import or
call the program, so a change to the program cannot change its time."""

from __future__ import annotations

import time


def reference() -> int:
    """A fixed piece of pure-Python work in the program's style, and no
    call into the program: it builds nested tuples, hashes them into a
    dict and a frozenset and compares them, in 3-5 ms on a 2-vCPU VM."""
    total = 0
    for seed in range(24):
        seen: dict[tuple, int] = {}

        def build(depth: int, key: int) -> tuple:
            if depth == 0:
                return ("ab"[key % 2], key % 3)
            node = (depth, build(depth - 1, key), build(depth - 1, key + 1) if depth % 3 == 0 else None)
            seen[node] = len(seen)
            return node

        left, right = build(14, seed), build(14, seed)
        total += (left == right) + len(frozenset(seen.items())) + hash(left) % 7
    return total


def time_reference() -> tuple[int, int]:
    """``(start_ns, end_ns)`` of one run of ``reference``."""
    start = time.perf_counter_ns()
    reference()
    return start, time.perf_counter_ns()
