"""Seeded property suites shared by the command line and the test suite.

Each suite draws random terms (or model elements) from a ``random.Random``
seeded by the caller, exercises one family of laws, and reports per-law
run and failure counts. Identical seeds give identical reports.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from .countermodel import (
    DAGGER,
    ModelElement,
    UnaryLang,
    cm_dot,
    cm_plus,
    cm_star,
    cm_sync,
    model_leq,
)
from .derivatives import build_automaton, nullable, step, unfold_as_term
from .equivalence import equiv
from .language import sem_bounded
from .normalform import build_system, to_normal_form
from .semilattice import nonempty_subsets
from .syntax import classify
from .terms import Atom, H, One, Plus, Seq, Star, Sync, Term, Zero


@dataclass
class CheckResult:
    """Outcome of one named law over a number of random instances."""

    name: str
    runs: int
    failures: int
    note: str = ""
    details: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        extra = " (%s)" % self.note if self.note else ""
        return "%s %s: %d/%d%s" % (status, self.name, self.runs - self.failures, self.runs, extra)


# ---------------------------------------------------------------------------
# Random generation


def random_term(
    rng: random.Random,
    alphabet: str = "ab",
    size: int = 8,
    allow_h: bool = True,
    allow_sync: bool = True,
) -> Term:
    """A random term with at most ``size`` constructor nodes."""
    pool = sorted(set(alphabet))
    if size <= 1:
        roll = rng.random()
        if roll < 0.12:
            return Zero()
        if roll < 0.28:
            return One()
        return Atom(rng.choice(pool))
    ops = ["plus", "plus", "plus", "seq", "seq", "seq", "star", "star"]
    if allow_sync:
        ops += ["sync", "sync"]
    if allow_h:
        ops.append("h")
    if size < 3:
        ops = [op for op in ops if op in ("star", "h")] or ["star"]
    op = rng.choice(ops)
    if op == "star":
        return Star(random_term(rng, alphabet, size - 1, allow_h, allow_sync))
    if op == "h":
        return H(random_term(rng, alphabet, size - 1, allow_h, allow_sync))
    split = rng.randint(1, size - 2)
    left = random_term(rng, alphabet, split, allow_h, allow_sync)
    right = random_term(rng, alphabet, size - 1 - split, allow_h, allow_sync)
    if op == "plus":
        return Plus(left, right)
    if op == "seq":
        return Seq(left, right)
    return Sync(left, right)


def random_sl_term(rng: random.Random, alphabet: str = "ab", size: int = 3) -> Term:
    """A random semilattice term (letters and ``&`` only)."""
    pool = sorted(set(alphabet))
    if size <= 1:
        return Atom(rng.choice(pool))
    split = rng.randint(1, size - 1)
    return Sync(
        random_sl_term(rng, alphabet, split),
        random_sl_term(rng, alphabet, size - split),
    )


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


def guarded(term: Term, alphabet: str = "ab") -> Term:
    """Force a term not to accept the empty word by prefixing a letter
    when needed."""
    if nullable(term):
        return Seq(Atom(sorted(set(alphabet))[0]), term)
    return term


# ---------------------------------------------------------------------------
# Axiom schemas, shared between the term algebra and the model

@dataclass(frozen=True)
class Ops:
    """The operator signature an equation schema is built over."""

    plus: Callable
    dot: Callable
    sync: Callable
    star: Callable
    zero: object
    one: object
    h: Callable | None = None


TERM_OPS = Ops(plus=Plus, dot=Seq, sync=Sync, star=Star, zero=Zero(), one=One(), h=H)
MODEL_OPS = Ops(
    plus=cm_plus,
    dot=cm_dot,
    sync=cm_sync,
    star=cm_star,
    zero=UnaryLang.empty(),
    one=UnaryLang.epsilon(),
)


@dataclass(frozen=True)
class EquationSchema:
    """A named equation over ``arity`` general variables and ``sl_arity``
    semilattice variables. ``ska`` marks membership in the original axiom
    set (those are also the laws checked on the model)."""

    name: str
    arity: int
    sl_arity: int
    ska: bool
    build: Callable

    def instantiate(self, ops: Ops, variables, sl_variables):
        return self.build(ops, variables, sl_variables)


def _schema(name, arity, sl_arity, ska, build) -> EquationSchema:
    return EquationSchema(name, arity, sl_arity, ska, build)


EQUATIONS: tuple[EquationSchema, ...] = (
    _schema("plus-assoc", 3, 0, True,
            lambda o, v, s: (o.plus(v[0], o.plus(v[1], v[2])), o.plus(o.plus(v[0], v[1]), v[2]))),
    _schema("plus-comm", 2, 0, True,
            lambda o, v, s: (o.plus(v[0], v[1]), o.plus(v[1], v[0]))),
    _schema("plus-zero", 1, 0, True,
            lambda o, v, s: (o.plus(v[0], o.zero), v[0])),
    _schema("plus-idem", 1, 0, True,
            lambda o, v, s: (o.plus(v[0], v[0]), v[0])),
    _schema("dot-one-right", 1, 0, True,
            lambda o, v, s: (o.dot(v[0], o.one), v[0])),
    _schema("dot-one-left", 1, 0, True,
            lambda o, v, s: (o.dot(o.one, v[0]), v[0])),
    _schema("dot-zero-right", 1, 0, True,
            lambda o, v, s: (o.dot(v[0], o.zero), o.zero)),
    _schema("dot-zero-left", 1, 0, True,
            lambda o, v, s: (o.dot(o.zero, v[0]), o.zero)),
    _schema("dot-assoc", 3, 0, True,
            lambda o, v, s: (o.dot(v[0], o.dot(v[1], v[2])), o.dot(o.dot(v[0], v[1]), v[2]))),
    _schema("star-unfold-left", 1, 0, True,
            lambda o, v, s: (o.star(v[0]), o.plus(o.one, o.dot(v[0], o.star(v[0]))))),
    _schema("star-unfold-right", 1, 0, True,
            lambda o, v, s: (o.star(v[0]), o.plus(o.one, o.dot(o.star(v[0]), v[0])))),
    _schema("dot-distr-left", 3, 0, True,
            lambda o, v, s: (o.dot(v[0], o.plus(v[1], v[2])),
                             o.plus(o.dot(v[0], v[1]), o.dot(v[0], v[2])))),
    _schema("dot-distr-right", 3, 0, True,
            lambda o, v, s: (o.dot(o.plus(v[0], v[1]), v[2]),
                             o.plus(o.dot(v[0], v[2]), o.dot(v[1], v[2])))),
    _schema("sync-distr", 3, 0, True,
            lambda o, v, s: (o.sync(v[0], o.plus(v[1], v[2])),
                             o.plus(o.sync(v[0], v[1]), o.sync(v[0], v[2])))),
    _schema("sync-assoc", 3, 0, True,
            lambda o, v, s: (o.sync(v[0], o.sync(v[1], v[2])), o.sync(o.sync(v[0], v[1]), v[2]))),
    _schema("sync-comm", 2, 0, True,
            lambda o, v, s: (o.sync(v[0], v[1]), o.sync(v[1], v[0]))),
    _schema("sync-zero", 1, 0, True,
            lambda o, v, s: (o.sync(v[0], o.zero), o.zero)),
    _schema("sync-one", 1, 0, True,
            lambda o, v, s: (o.sync(v[0], o.one), v[0])),
    _schema("sl-idem", 0, 1, True,
            lambda o, v, s: (o.sync(s[0], s[0]), s[0])),
    _schema("synchrony", 2, 2, True,
            lambda o, v, s: (o.sync(o.dot(s[0], v[0]), o.dot(s[1], v[1])),
                             o.dot(o.sync(s[0], s[1]), o.sync(v[0], v[1])))),
    _schema("loop-tightening", 1, 0, False,
            lambda o, v, s: (o.star(o.plus(v[0], o.one)), o.star(v[0]))),
    _schema("h-zero", 0, 0, False,
            lambda o, v, s: (o.h(o.zero), o.zero)),
    _schema("h-one", 0, 0, False,
            lambda o, v, s: (o.h(o.one), o.one)),
    _schema("h-plus", 2, 0, False,
            lambda o, v, s: (o.h(o.plus(v[0], v[1])), o.plus(o.h(v[0]), o.h(v[1])))),
    _schema("h-dot", 2, 0, False,
            lambda o, v, s: (o.h(o.dot(v[0], v[1])), o.dot(o.h(v[0]), o.h(v[1])))),
    _schema("h-star", 1, 0, False,
            lambda o, v, s: (o.h(o.star(v[0])), o.star(o.h(v[0])))),
    _schema("h-sync", 2, 0, False,
            lambda o, v, s: (o.h(o.sync(v[0], v[1])), o.sync(o.h(v[0]), o.h(v[1])))),
    _schema("h-atom", 0, 1, False,
            lambda o, v, s: (o.h(s[0]), o.zero)),
)

SKA_EQUATIONS = tuple(s for s in EQUATIONS if s.ska)


# ---------------------------------------------------------------------------
# Suites


def check_axioms(
    seed: int, iters: int = 100, alphabet: str = "ab", size: int = 6
) -> list[CheckResult]:
    """Decide every equational axiom schema on random instances, and the
    fixpoint implications on instances where the hypothesis holds."""
    rng = random.Random(seed)
    results: list[CheckResult] = []
    for schema in EQUATIONS:
        failures = 0
        details: list[str] = []
        for _ in range(iters):
            variables = [random_term(rng, alphabet, rng.randint(1, size)) for _ in range(schema.arity)]
            sl_variables = [random_sl_term(rng, alphabet, rng.randint(1, 3)) for _ in range(schema.sl_arity)]
            lhs, rhs = schema.instantiate(TERM_OPS, variables, sl_variables)
            if not equiv(lhs, rhs).equivalent:
                failures += 1
                if len(details) < 3:
                    details.append("%s != %s" % (lhs, rhs))
        results.append(CheckResult("axiom %s" % schema.name, iters, failures, details=details))

    def leq(x: Term, y: Term) -> bool:
        return equiv(Plus(x, y), y).equivalent

    # Least fixpoint rules: half the instances are constructed so the
    # hypothesis holds, the rest probe random triples.
    held = failures = 0
    details = []
    for i in range(iters):
        e = random_term(rng, alphabet, rng.randint(1, size))
        f = random_term(rng, alphabet, rng.randint(1, size))
        if i % 2 == 0:
            g: Term = Seq(Star(f), e)
        else:
            g = random_term(rng, alphabet, rng.randint(1, size))
        if leq(Plus(e, Seq(f, g)), g):
            held += 1
            if not leq(Seq(Star(f), e), g):
                failures += 1
                if len(details) < 3:
                    details.append("e=%s f=%s g=%s" % (e, f, g))
    results.append(CheckResult(
        "implication lfp-left", iters, failures, note="hypothesis held %d/%d" % (held, iters),
        details=details))

    held = failures = 0
    details = []
    for i in range(iters):
        e = random_term(rng, alphabet, rng.randint(1, size))
        g = random_term(rng, alphabet, rng.randint(1, size))
        if i % 2 == 0:
            f: Term = Seq(e, Star(g))
        else:
            f = random_term(rng, alphabet, rng.randint(1, size))
        if leq(Plus(e, Seq(f, g)), f):
            held += 1
            if not leq(Seq(e, Star(g)), f):
                failures += 1
                if len(details) < 3:
                    details.append("e=%s f=%s g=%s" % (e, f, g))
    results.append(CheckResult(
        "implication lfp-right", iters, failures, note="hypothesis held %d/%d" % (held, iters),
        details=details))

    held = failures = 0
    details = []
    for i in range(iters):
        e = random_term(rng, alphabet, rng.randint(1, size))
        f = guarded(random_term(rng, alphabet, rng.randint(1, size)), alphabet)
        if i % 2 == 0:
            g = Seq(Star(f), e)
        else:
            g = random_term(rng, alphabet, rng.randint(1, size))
        hypothesis = (
            equiv(H(f), Zero()).equivalent
            and equiv(Plus(e, Seq(f, g)), g).equivalent
        )
        if hypothesis:
            held += 1
            if not equiv(Seq(Star(f), e), g).equivalent:
                failures += 1
                if len(details) < 3:
                    details.append("e=%s f=%s g=%s" % (e, f, g))
    results.append(CheckResult(
        "implication unique-fixpoint", iters, failures,
        note="hypothesis held %d/%d" % (held, iters), details=details))
    return results


def check_derivatives(
    seed: int, iters: int = 300, alphabet: str = "abc", size: int = 12, bound: int = 4
) -> list[CheckResult]:
    """Automaton acceptance against the bounded semantics, on every word
    up to the bound over the full subset alphabet."""
    rng = random.Random(seed)
    symbols = nonempty_subsets(alphabet)
    failures = 0
    details: list[str] = []
    for _ in range(iters):
        term = random_term(rng, alphabet, rng.randint(1, size))
        expected = sem_bounded(term, bound)
        automaton = build_automaton(term)
        mismatch = []

        def walk(word, subset):
            accepted = any(q in automaton.accepting for q in subset)
            if accepted != (word in expected.words):
                mismatch.append(word)
            if len(word) == bound:
                return
            table = step(subset)
            for symbol in symbols:
                walk(word + (symbol,), table.get(symbol, frozenset()))

        walk((), frozenset((automaton.initial,)))
        if mismatch:
            failures += 1
            if len(details) < 3:
                details.append("term %s mismatches on %d words" % (term, len(mismatch)))
    return [CheckResult("derivative soundness", iters, failures, details=details)]


def check_fundamental(
    seed: int, iters: int = 300, alphabet: str = "abc", size: int = 12, bound: int = 4
) -> list[CheckResult]:
    """The one-step decomposition denotes the same bounded language as the
    term it was unfolded from."""
    rng = random.Random(seed)
    failures = 0
    details: list[str] = []
    for _ in range(iters):
        term = random_term(rng, alphabet, rng.randint(1, size))
        rebuilt = unfold_as_term(term)
        if sem_bounded(term, bound) != sem_bounded(rebuilt, bound):
            failures += 1
            if len(details) < 3:
                details.append(str(term))
    return [CheckResult("one-step unfolding", iters, failures, details=details)]


def check_normalform(
    seed: int, iters: int = 200, alphabet: str = "ab", size: int = 8
) -> list[CheckResult]:
    """Normal forms classify into the star fragment and stay equivalent;
    the state-labelling vector solves each term's own linear system."""
    rng = random.Random(seed)
    nsf_failures = equiv_failures = solution_failures = 0
    details_nsf: list[str] = []
    details_equiv: list[str] = []
    details_sol: list[str] = []
    for _ in range(iters):
        term = random_term(rng, alphabet, rng.randint(1, size))
        normal = to_normal_form(term)
        if not classify(normal).nsf:
            nsf_failures += 1
            if len(details_nsf) < 3:
                details_nsf.append("%s -> %s" % (term, normal))
        if not equiv(normal, term).equivalent:
            equiv_failures += 1
            if len(details_equiv) < 3:
                details_equiv.append("%s -> %s" % (term, normal))
        system = build_system(term)
        for state in system.states:
            acc: Term = system.vector[state]
            for target in system.states:
                entry = system.matrix[(state, target)]
                if not isinstance(entry, Zero):
                    acc = Plus(acc, Seq(entry, target))
            if not equiv(acc, state).equivalent:
                solution_failures += 1
                if len(details_sol) < 3:
                    details_sol.append("state %s of %s" % (state, term))
                break
    return [
        CheckResult("normal form classifies", iters, nsf_failures, details=details_nsf),
        CheckResult("normal form equivalent", iters, equiv_failures, details=details_equiv),
        CheckResult("identity labelling solves system", iters, solution_failures,
                    details=details_sol),
    ]


def sample_model_elements(rng: random.Random, count: int = 56) -> list[ModelElement]:
    """A deterministic pool of model elements: the required named ones
    plus random eventually periodic sets."""
    pool: list[ModelElement] = [
        UnaryLang.empty(),
        UnaryLang.epsilon(),
        UnaryLang.generator(),
        UnaryLang.naturals(),
        UnaryLang.periodic((), 0, 2, (0,)),      # even lengths
        UnaryLang.periodic((), 1, 2, (0,)),      # odd lengths
        UnaryLang.from_members((2, 5)),
        UnaryLang.from_members((0, 3)),
        UnaryLang.periodic((1,), 4, 3, (0, 2)),
        DAGGER,
    ]
    while len(pool) < count:
        threshold = rng.randint(0, 4)
        low = [n for n in range(threshold) if rng.random() < 0.4]
        period = rng.randint(1, 4)
        residues = [r for r in range(period) if rng.random() < 0.4]
        pool.append(UnaryLang.periodic(low, threshold, period, residues))
    return pool


def check_countermodel(seed: int, iters: int = 300, count: int = 56) -> list[CheckResult]:
    """The original axioms hold in the model: equational schemas on random
    element tuples, fixpoint implications where the hypothesis holds, and
    the product of a finite with an infinite set stays infinite."""
    rng = random.Random(seed)
    pool = sample_model_elements(rng, count)
    generator = UnaryLang.generator()
    results: list[CheckResult] = []
    for schema in SKA_EQUATIONS:
        failures = 0
        details: list[str] = []
        for _ in range(iters):
            variables = [rng.choice(pool) for _ in range(schema.arity)]
            sl_variables = [generator] * schema.sl_arity
            lhs, rhs = schema.instantiate(MODEL_OPS, variables, sl_variables)
            if lhs != rhs:
                failures += 1
                if len(details) < 3:
                    details.append("%s != %s on %s" % (lhs, rhs, [str(v) for v in variables]))
        results.append(CheckResult("model axiom %s" % schema.name, iters, failures,
                                   details=details))

    held = failures = 0
    details = []
    for i in range(iters):
        k = rng.choice(pool)
        l = rng.choice(pool)
        j = cm_dot(cm_star(l), k) if i % 2 == 0 else rng.choice(pool)
        if model_leq(cm_plus(k, cm_dot(l, j)), j):
            held += 1
            if not model_leq(cm_dot(cm_star(l), k), j):
                failures += 1
                if len(details) < 3:
                    details.append("k=%s l=%s j=%s" % (k, l, j))
    results.append(CheckResult(
        "model implication lfp-left", iters, failures,
        note="hypothesis held %d/%d" % (held, iters), details=details))

    held = failures = 0
    details = []
    for i in range(iters):
        k = rng.choice(pool)
        j = rng.choice(pool)
        l = cm_dot(k, cm_star(j)) if i % 2 == 0 else rng.choice(pool)
        if model_leq(cm_plus(k, cm_dot(l, j)), l):
            held += 1
            if not model_leq(cm_dot(k, cm_star(j)), l):
                failures += 1
                if len(details) < 3:
                    details.append("k=%s l=%s j=%s" % (k, l, j))
    results.append(CheckResult(
        "model implication lfp-right", iters, failures,
        note="hypothesis held %d/%d" % (held, iters), details=details))

    finite = [x for x in pool if isinstance(x, UnaryLang) and not x.is_infinite and not x.is_empty]
    infinite = [x for x in pool if isinstance(x, UnaryLang) and x.is_infinite]
    runs = failures = 0
    details = []
    for fin in finite:
        for inf in infinite:
            runs += 1
            product = cm_sync(fin, inf)
            if not (isinstance(product, UnaryLang) and product.is_infinite):
                failures += 1
                if len(details) < 3:
                    details.append("%s x %s = %s" % (fin, inf, product))
    results.append(CheckResult("finite x infinite stays infinite", runs, failures,
                               details=details))
    return results


SUITES: dict[str, Callable[..., list[CheckResult]]] = {
    "axioms": check_axioms,
    "derivatives": check_derivatives,
    "fundamental": check_fundamental,
    "normalform": check_normalform,
    "countermodel": check_countermodel,
}
