"""Seeded request corpus for the synka benchmark, with expected answers.

Run as ``python3 bench/corpus.py --workload NAME --seed N``; prints one
JSON object ``{"workload", "seed", "requests": [...]}`` on stdout.

Terms are generated on a small tuple syntax owned by this file and handed
to the program only as text, so the corpus for a seed stays the same when
the program changes. Every expected answer comes from construction (a
sound law, the family identity, commutativity of ``&``) or from the
bounded semantics ``synka.language.sem_bounded``; nothing here calls
``equiv`` or ``to_normal_form``.

Request shapes:

* equiv: ``{"kind": "equiv", "family", "left", "right", "equivalent",
  "witness_len"}``; ``witness_len`` is the length of the shortest word
  accepted by exactly one side, or ``null`` for equivalent pairs.
* nf: ``{"kind": "nf", "family", "term", "bound", "lang", "lengths"}``;
  ``lang`` is a digest of the words of length at most ``bound`` and
  ``lengths`` the word lengths that occur among them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import string
import sys
from itertools import combinations, combinations_with_replacement, cycle
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from synka.language import format_word, sem_bounded  # noqa: E402
from synka.syntax import parse_term  # noqa: E402

# ---------------------------------------------------------------------------
# Terms as tuples: ("0",) ("1",) ("a",) ("+", l, r) (";", l, r) ("&", l, r)
# ("*", t) ("H", t). Printed with the program's precedences (``*`` over
# ``;`` over ``&`` over ``+``, binary operators left-associative), so that
# long left-nested chains need no parentheses.

ZERO, ONE = ("0",), ("1",)
PRECEDENCE = {"+": 1, "&": 2, ";": 3, "*": 4}


def text(t: tuple) -> str:
    op = t[0]
    if len(t) == 1:
        return op
    if op == "H":
        return "H(%s)" % text(t[1])
    own = PRECEDENCE[op]

    def child(c: tuple, right: bool = False) -> str:
        prec = PRECEDENCE.get(c[0], 9)
        return "(%s)" % text(c) if prec < own or (right and prec == own) else text(c)

    if op == "*":
        return child(t[1]) + "*"
    return "%s %s %s" % (child(t[1]), op, child(t[2], right=True))


def states_bound(t: tuple) -> int:
    """Upper bound on the number of derivative states reachable from ``t``
    (the reachable-term construction, counted without removing
    duplicates)."""
    op = t[0]
    if op == "0":
        return 0
    if op in ("1", "H"):
        return 1
    if len(t) == 1:
        return 2
    if op == "*":
        return states_bound(t[1]) + 1
    left, right = states_bound(t[1]), states_bound(t[2])
    if op == "&":
        return left * right + left + right
    return left + right


def random_term(rng: random.Random, letters: str, size: int, h: bool) -> tuple:
    """A random term with at most ``size`` nodes over ``letters``."""
    if size <= 1:
        roll = rng.random()
        if roll < 0.12:
            return ZERO
        if roll < 0.28:
            return ONE
        return (rng.choice(letters),)
    ops = ["+", "+", "+", ";", ";", ";", "*", "*", "&", "&"] + (["H"] if h else [])
    if size < 3:
        ops = ["*"]
    op = rng.choice(ops)
    if op in "*H":
        return (op, random_term(rng, letters, size - 1, h))
    split = rng.randint(1, size - 2)
    return (op, random_term(rng, letters, split, h),
            random_term(rng, letters, size - 1 - split, h))


def random_sl_term(rng: random.Random, letters: str, size: int) -> tuple:
    """A random term of letters and ``&`` only."""
    if size <= 1:
        return (rng.choice(letters),)
    split = rng.randint(1, size - 1)
    return ("&", random_sl_term(rng, letters, split), random_sl_term(rng, letters, size - split))


def fold(op: str, parts: list[tuple]) -> tuple:
    """Combine ``parts`` with a binary operator, nested to the left as the
    parser nests ``x op y op z``."""
    out = parts[0]
    for part in parts[1:]:
        out = (op, out, part)
    return out


# The sound equations of ``synka.checks.EQUATIONS``, copied by name so the
# corpus cannot change when that module does: (name, general variables,
# semilattice variables, builder).
P = lambda a, b: ("+", a, b)  # noqa: E731
D = lambda a, b: (";", a, b)  # noqa: E731
S = lambda a, b: ("&", a, b)  # noqa: E731
K = lambda a: ("*", a)  # noqa: E731
H = lambda a: ("H", a)  # noqa: E731

LAWS = (
    ("plus-assoc", 3, 0, lambda v, s: (P(v[0], P(v[1], v[2])), P(P(v[0], v[1]), v[2]))),
    ("plus-comm", 2, 0, lambda v, s: (P(v[0], v[1]), P(v[1], v[0]))),
    ("plus-zero", 1, 0, lambda v, s: (P(v[0], ZERO), v[0])),
    ("plus-idem", 1, 0, lambda v, s: (P(v[0], v[0]), v[0])),
    ("dot-one-right", 1, 0, lambda v, s: (D(v[0], ONE), v[0])),
    ("dot-one-left", 1, 0, lambda v, s: (D(ONE, v[0]), v[0])),
    ("dot-zero-right", 1, 0, lambda v, s: (D(v[0], ZERO), ZERO)),
    ("dot-zero-left", 1, 0, lambda v, s: (D(ZERO, v[0]), ZERO)),
    ("dot-assoc", 3, 0, lambda v, s: (D(v[0], D(v[1], v[2])), D(D(v[0], v[1]), v[2]))),
    ("star-unfold-left", 1, 0, lambda v, s: (K(v[0]), P(ONE, D(v[0], K(v[0]))))),
    ("star-unfold-right", 1, 0, lambda v, s: (K(v[0]), P(ONE, D(K(v[0]), v[0])))),
    ("dot-distr-left", 3, 0, lambda v, s: (D(v[0], P(v[1], v[2])), P(D(v[0], v[1]), D(v[0], v[2])))),
    ("dot-distr-right", 3, 0, lambda v, s: (D(P(v[0], v[1]), v[2]), P(D(v[0], v[2]), D(v[1], v[2])))),
    ("sync-distr", 3, 0, lambda v, s: (S(v[0], P(v[1], v[2])), P(S(v[0], v[1]), S(v[0], v[2])))),
    ("sync-assoc", 3, 0, lambda v, s: (S(v[0], S(v[1], v[2])), S(S(v[0], v[1]), v[2]))),
    ("sync-comm", 2, 0, lambda v, s: (S(v[0], v[1]), S(v[1], v[0]))),
    ("sync-zero", 1, 0, lambda v, s: (S(v[0], ZERO), ZERO)),
    ("sync-one", 1, 0, lambda v, s: (S(v[0], ONE), v[0])),
    ("sl-idem", 0, 1, lambda v, s: (S(s[0], s[0]), s[0])),
    ("synchrony", 2, 2, lambda v, s: (S(D(s[0], v[0]), D(s[1], v[1])), D(S(s[0], s[1]), S(v[0], v[1])))),
    ("loop-tightening", 1, 0, lambda v, s: (K(P(v[0], ONE)), K(v[0]))),
    ("h-zero", 0, 0, lambda v, s: (H(ZERO), ZERO)),
    ("h-one", 0, 0, lambda v, s: (H(ONE), ONE)),
    ("h-plus", 2, 0, lambda v, s: (H(P(v[0], v[1])), P(H(v[0]), H(v[1])))),
    ("h-dot", 2, 0, lambda v, s: (H(D(v[0], v[1])), D(H(v[0]), H(v[1])))),
    ("h-star", 1, 0, lambda v, s: (H(K(v[0])), K(H(v[0])))),
    ("h-sync", 2, 0, lambda v, s: (H(S(v[0], v[1])), S(H(v[0]), H(v[1])))),
    ("h-atom", 0, 1, lambda v, s: (H(s[0]), ZERO)),
)

# ---------------------------------------------------------------------------
# Oracle: bounded semantics


def bounded(t: tuple, bound: int):
    return sem_bounded(parse_term(text(t)), bound)


def first_difference(left: tuple, right: tuple, bound: int) -> int | None:
    """Length of the shortest word in exactly one language, if at most
    ``bound``. A language cut at ``bound`` holds exactly the words of
    length at most ``bound``, so one cut serves every shorter length."""
    differ = bounded(left, bound).words ^ bounded(right, bound).words
    return min(map(len, differ)) if differ else None


def lang_digest(words) -> str:
    """Order-independent digest of a set of words (also used by the
    worker on the program's output)."""
    lines = sorted(format_word(w) for w in words)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def equiv_request(family: str, left: tuple, right: tuple, witness_len: int | None) -> dict:
    return {"kind": "equiv", "family": family, "left": text(left), "right": text(right),
            "equivalent": witness_len is None, "witness_len": witness_len}


def nf_request(family: str, term: tuple, bound: int) -> dict:
    lang = bounded(term, bound)
    return {"kind": "nf", "family": family, "term": text(term), "bound": bound,
            "lang": lang_digest(lang.words), "lengths": sorted({len(w) for w in lang.words})}


class Distinct:
    """Collects requests, dropping any whose text was seen before."""

    def __init__(self):
        self.requests: list[dict] = []
        self.seen: set[tuple] = set()

    def add(self, request: dict) -> None:
        key = (request.get("left"), request.get("right"), request.get("term"))
        if key not in self.seen:
            self.seen.add(key)
            self.requests.append(request)


def fill(rng: random.Random, out: Distinct, count: int, draw, attempts: int = 200_000) -> None:
    """Call ``draw(rng)`` until ``count`` new requests were added; ``draw``
    returns a request or None to reject its sample."""
    target = len(out.requests) + count
    for _ in range(attempts):
        if len(out.requests) >= target:
            return
        request = draw(rng)
        if request is not None:
            out.add(request)
    raise RuntimeError("corpus generator could not find %d requests" % count)


# ---------------------------------------------------------------------------
# equiv-deep


AB = "ab"
# A pass over the corpus takes a few seconds, so that a 30 s run holds five
# or more passes in fresh processes: n = 11 alone took 1.8-3 s and a
# 300-letter word 2 s, so the heavy families stop at n = 9 and 120 letters.
FAMILY_N = range(4, 10)
# Two random words per length; the cost of a word depends on its letters.
WORD_LENGTHS = [length for length in range(20, 121, 20) for _ in range(2)]
# The small law queries hold the median latency. With 600 of each kind the
# median moved by about 8% from seed to seed, so there are twice as many,
# and the laws are taken in turn rather than drawn.
LAW_PAIRS = 1200
# Inequivalent law perturbations, per shortest-witness length.
PERTURBED_PER_LENGTH = {1: 400, 2: 400, 3: 400}
PERTURB_BOUND = max(PERTURBED_PER_LENGTH)


def law_instance(rng: random.Random, law: tuple) -> tuple[tuple, tuple]:
    """An instance of ``law`` with random variables."""
    _, arity, sl_arity, build = law
    variables = [random_term(rng, AB, rng.randint(1, 6), h=True) for _ in range(arity)]
    sl_variables = [random_sl_term(rng, AB, rng.randint(1, 3)) for _ in range(sl_arity)]
    return build(variables, sl_variables)


def mutate(rng: random.Random, t: tuple) -> tuple:
    """Change one random position of ``t``: grow it by a letter, a sum, a
    sequence or a star, or flip a letter."""
    if len(t) > 1 and rng.random() < 0.6:
        index = rng.randrange(1, len(t))
        return t[:index] + (mutate(rng, t[index]),) + t[index + 1:]
    letter = (rng.choice(AB),)
    roll = rng.randrange(5)
    if roll == 0:
        return ("+", t, letter)
    if roll == 1:
        return (";", t, letter)
    if roll == 2:
        return (";", letter, t)
    if roll == 3:
        return ("*", t)
    if t in (("a",), ("b",)):
        return ("b",) if t == ("a",) else ("a",)
    return ("&", t, letter)


def equiv_deep(rng: random.Random) -> list[dict]:
    out = Distinct()
    # (a+b)* and (a*;b*)* are equal, so they stay equal followed by the
    # same tail: a;(a+b)^n for fixed n, or a random word. Texts are flat
    # chains such as (a + b)* ; a ; (a + b) ; (a + b).
    sigma = ("+", ("a",), ("b",))
    heads = (("*", sigma), ("*", (";", ("*", ("a",)), ("*", ("b",)))))
    tails = [("power", [("a",)] + [sigma] * n) for n in FAMILY_N]
    tails += [("word", [(rng.choice(AB),) for _ in range(length)]) for length in WORD_LENGTHS]
    for family, tail in tails:
        out.add(equiv_request(family, *(fold(";", [head] + tail) for head in heads), None))

    laws = cycle(LAWS)

    def sound(rng):
        return equiv_request("law", *law_instance(rng, next(laws)), None)

    fill(rng, out, LAW_PAIRS, sound)

    wanted = dict(PERTURBED_PER_LENGTH)

    def perturbed(rng):
        lhs, rhs = law_instance(rng, next(laws))
        if rng.random() < 0.5:
            lhs, rhs = rhs, lhs
        rhs = mutate(rng, rhs)
        length = first_difference(lhs, rhs, PERTURB_BOUND)
        if length is None or not wanted.get(length):
            return None
        request = equiv_request("perturbed", lhs, rhs, length)
        if (request["left"], request["right"], None) in out.seen:
            return None
        wanted[length] -= 1
        return request

    fill(rng, out, sum(wanted.values()), perturbed)
    return out.requests


# ---------------------------------------------------------------------------
# equiv-wide


# k = 8 (0.9 and 2 s) and the k = 6 atoms (0.5 and 1.1 s) would each take
# much of a pass.
WIDE_SIG_K = range(4, 8)
WIDE_ATOMS_K = range(4, 6)
PRODUCT_ARITY = (2, 3)
# Commuted pairs per alphabet width. Cost grows about 4-fold per letter,
# so wider pairs are fewer. Their shapes are drawn once, the same for every
# seed, because the cost of a random pair varies widely; the seed renames
# their letters.
COMMUTED_PAIRS = {4: 80, 5: 16, 6: 2}
COMMUTED_STATES = 100


def commuted_shapes() -> list[tuple[tuple, tuple, int]]:
    """``(e, f, k)`` with ``e`` over the first half of the letters
    ``a..`` and ``f`` over the rest, together using all ``k`` of them."""
    rng = random.Random("equiv-wide/commuted")
    out = []
    for k, count in COMMUTED_PAIRS.items():
        letters = string.ascii_lowercase[:k]
        seen = set()
        while len(seen) < count:
            e = random_term(rng, letters[: k // 2], rng.randint(3, 7), h=False)
            f = random_term(rng, letters[k // 2:], rng.randint(3, 7), h=False)
            pair = (e, f)
            if (pair not in seen and set(text(e) + text(f)) >= set(letters)
                    and states_bound(("&", e, f)) <= COMMUTED_STATES):
                seen.add(pair)
                out.append((e, f, k))
    return out


def rename(t: tuple, mapping: dict[str, str]) -> tuple:
    if len(t) == 1:
        return (mapping.get(t[0], t[0]),)
    return (t[0], *(rename(c, mapping) for c in t[1:]))


def wide_alphabet(rng: random.Random, k: int) -> list[str]:
    return rng.sample(string.ascii_lowercase, k)


def sigma_star(letters: list[str]) -> tuple:
    return ("*", fold("+", [(ch,) for ch in letters]))


def equiv_wide(rng: random.Random) -> list[dict]:
    out = Distinct()
    for k in WIDE_SIG_K:
        for arity in PRODUCT_ARITY:
            star = sigma_star(wide_alphabet(rng, k))
            product = fold("&", [star] * arity)
            # A product step may read several letters at once; a single
            # star cannot, so they differ first on a one-letter word.
            out.add(equiv_request("sigma", product, star, first_difference(product, star, 1)))
    for k in WIDE_ATOMS_K:
        for arity in PRODUCT_ARITY:
            letters = wide_alphabet(rng, k)
            product = fold("&", [sigma_star(letters)] * arity)
            # Each step of the product reads 1..arity letters, which is what
            # the sum of canonical atoms of at most arity letters spells out.
            atoms = [fold("&", [(ch,) for ch in c]) for r in range(1, arity + 1)
                     for c in combinations(sorted(letters), r)]
            rng.shuffle(atoms)
            out.add(equiv_request("atoms", product, ("*", fold("+", atoms)), None))

    for e, f, k in commuted_shapes():
        mapping = dict(zip(string.ascii_lowercase, wide_alphabet(rng, k)))
        e, f = rename(e, mapping), rename(f, mapping)
        out.add(equiv_request("commuted", ("&", e, f), ("&", f, e), None))
    return out.requests


# ---------------------------------------------------------------------------
# nf-cm


def two_letter_bases() -> list[tuple]:
    """Starred bases ``(x + y;z)*`` and ``(x;y + z)*`` over a and b that
    use both letters."""
    bases = []
    for x in AB:
        for y in AB:
            for z in AB:
                if len({x, y, z}) == 2:
                    bases.append(("*", ("+", (x,), (";", (y,), (z,)))))
                    bases.append(("*", ("+", (";", (x,), (y,)), (z,))))
    return bases


# Products of 1, 2 and 3 factors: all 12 bases, then fixed samples of the
# unordered combinations. They are the same for every seed, because their
# cost and output size vary widely from one combination to the next; the
# seed draws the random terms and the request order. A 3-factor product
# takes 0.4-0.9 s, so a pass holds only three. The 2-factor ones hold the
# median and the 90th percentile, so both fall on fixed shapes.
PRODUCTS = {1: 12, 2: 60, 3: 3}
RANDOM_NF = 36
RANDOM_NF_STATES = 25


def products() -> list[tuple]:
    rng = random.Random("nf-cm/products")
    bases = two_letter_bases()
    out = []
    for arity, count in PRODUCTS.items():
        for combo in rng.sample(list(combinations_with_replacement(bases, arity)), count):
            out.append(fold("&", list(combo)))
    return out


def nf_bound(t: tuple) -> int:
    # Words over three letters grow as 7^n, over two as 3^n.
    return 3 if "c" in text(t) else 4


def nf_cm(rng: random.Random) -> list[dict]:
    out = Distinct()
    for term in products():
        out.add(nf_request("product%d" % (text(term).count("&") + 1), term, nf_bound(term)))

    def random_nf(rng):
        letters = rng.choice(("ab", "abc"))
        term = random_term(rng, letters, rng.randint(4, 14), h=False)
        if states_bound(term) > RANDOM_NF_STATES:
            return None
        return nf_request("random", term, nf_bound(term))

    fill(rng, out, RANDOM_NF, random_nf)
    return out.requests


WORKLOADS = {"equiv-deep": equiv_deep, "equiv-wide": equiv_wide, "nf-cm": nf_cm}


def generate(workload: str, seed: int) -> list[dict]:
    rng = random.Random("%s/%d" % (workload, seed))
    requests = WORKLOADS[workload](rng)
    rng.shuffle(requests)
    return requests


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    requests = generate(args.workload, args.seed)
    json.dump({"workload": args.workload, "seed": args.seed, "requests": requests}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
