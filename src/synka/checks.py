"""Seeded property suites shared by the command line and the test suite.

Each suite draws random terms (or model elements) from a ``random.Random``
seeded by the caller, exercises one family of laws, and reports per-law
run and failure counts. Identical seeds give identical reports.

Every instance of a law is counted by ``CheckResult.record``, which also
keeps a description of the first three that fail. An equation schema is
a pair of terms over variable letters, and ``terms.evaluate`` reads both
sides in a model given as an ``Ops`` record with the variables' values.
The schemas run through one loop, ``_equations``: in ``TERM_OPS`` over
terms compared by ``equiv`` in the ``axioms`` suite, and in the
countermodel's ``MODEL_OPS`` over model elements compared by ``==`` in
the ``countermodel`` suite. ``_fixpoint_rules`` checks the least-fixpoint
rules through the same ``Ops`` records, and ``_implication`` each rule.
"""

from __future__ import annotations

import operator
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

from .countermodel import (
    DAGGER,
    MODEL_OPS,
    ModelElement,
    UnaryLang,
    eval_cm,
)
from .derivatives import nullable, step, unfold_as_term
from .equivalence import equiv
from .language import sem_bounded
from .normalform import build_system, solve, to_normal_form
from .syntax import classify, parse_term
from .terms import (TERM_OPS, Atom, H, One, Ops, Plus, Seq, Star, Sync, Term, Zero, evaluate,
                    letters)


@dataclass
class CheckResult:
    """Outcome of one named law over a number of random instances, with
    descriptions of the first three that failed."""

    name: str
    runs: int = 0
    failures: int = 0
    note: str = ""
    details: list[str] = field(default_factory=list)

    def record(self, held: bool, detail: Callable[[], str]) -> None:
        """Count one instance; when it failed, keep ``detail()`` if fewer
        than three descriptions are kept."""
        self.runs += 1
        if not held:
            self.failures += 1
            if len(self.details) < 3:
                self.details.append(detail())

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


def guarded(term: Term, alphabet: str = "ab") -> Term:
    """Force a term not to accept the empty word by prefixing a letter
    when needed."""
    if nullable(term):
        return Seq(Atom(sorted(set(alphabet))[0]), term)
    return term


# ---------------------------------------------------------------------------
# Axiom schemas, shared between the term algebra and the model

@dataclass(frozen=True)
class EquationSchema:
    """A named equation between two terms over the general variables
    ``x``, ``y``, ``z`` and the semilattice variables ``s``, ``t``. ``ska``
    marks membership in the original axiom set (those are also the laws
    checked on the model)."""

    name: str
    ska: bool
    lhs: Term
    rhs: Term

    def _variables(self, names: str) -> str:
        """The letters among ``names`` that either side uses, in order."""
        used = letters(self.lhs) | letters(self.rhs)
        return "".join(name for name in names if name in used)

    @property
    def arity(self) -> int:
        return len(self._variables("xyz"))

    @property
    def sl_arity(self) -> int:
        return len(self._variables("st"))

    def build(self, ops: Ops, variables: list, sl_variables: list) -> tuple[object, object]:
        """Both sides in the model ``ops``, with ``variables`` for the
        general and ``sl_variables`` for the semilattice variables, each
        in alphabetical order."""
        value = dict(zip(self._variables("xyz") + self._variables("st"),
                         [*variables, *sl_variables])).__getitem__
        return evaluate(self.lhs, ops, value), evaluate(self.rhs, ops, value)


EQUATIONS: tuple[EquationSchema, ...] = tuple(
    EquationSchema(name, ska, parse_term(lhs), parse_term(rhs)) for name, ska, lhs, rhs in (
        ("plus-assoc", True, "x + (y + z)", "x + y + z"),
        ("plus-comm", True, "x + y", "y + x"),
        ("plus-zero", True, "x + 0", "x"),
        ("plus-idem", True, "x + x", "x"),
        ("dot-one-right", True, "x ; 1", "x"),
        ("dot-one-left", True, "1 ; x", "x"),
        ("dot-zero-right", True, "x ; 0", "0"),
        ("dot-zero-left", True, "0 ; x", "0"),
        ("dot-assoc", True, "x ; (y ; z)", "x ; y ; z"),
        ("star-unfold-left", True, "x*", "1 + x ; x*"),
        ("star-unfold-right", True, "x*", "1 + x* ; x"),
        ("dot-distr-left", True, "x ; (y + z)", "x ; y + x ; z"),
        ("dot-distr-right", True, "(x + y) ; z", "x ; z + y ; z"),
        ("sync-distr", True, "x & (y + z)", "x & y + x & z"),
        ("sync-assoc", True, "x & (y & z)", "x & y & z"),
        ("sync-comm", True, "x & y", "y & x"),
        ("sync-zero", True, "x & 0", "0"),
        ("sync-one", True, "x & 1", "x"),
        ("sl-idem", True, "s & s", "s"),
        ("synchrony", True, "s ; x & t ; y", "(s & t) ; (x & y)"),
        ("loop-tightening", False, "(x + 1)*", "x*"),
        ("h-zero", False, "H(0)", "0"),
        ("h-one", False, "H(1)", "1"),
        ("h-plus", False, "H(x + y)", "H(x) + H(y)"),
        ("h-dot", False, "H(x ; y)", "H(x) ; H(y)"),
        ("h-star", False, "H(x*)", "H(x)*"),
        ("h-sync", False, "H(x & y)", "H(x) & H(y)"),
        ("h-atom", False, "H(s)", "0"),
    )
)

SKA_EQUATIONS = tuple(s for s in EQUATIONS if s.ska)


# ---------------------------------------------------------------------------
# Suites


def _equations(prefix: str, schemas: tuple[EquationSchema, ...], iters: int, ops: Ops,
               draw: Callable[[], object], draw_sl: Callable[[], object],
               same: Callable[[object, object], bool]) -> list[CheckResult]:
    """Check each schema on ``iters`` instances, its variables drawn by
    ``draw`` and its semilattice variables by ``draw_sl``, in that order."""
    results = []
    for schema in schemas:
        result = CheckResult(prefix + schema.name)
        for _ in range(iters):
            variables = [draw() for _ in range(schema.arity)]
            sl_variables = [draw_sl() for _ in range(schema.sl_arity)]
            lhs, rhs = schema.build(ops, variables, sl_variables)
            result.record(same(lhs, rhs),
                          lambda: "%s != %s on %s" % (lhs, rhs, [str(v) for v in variables]))
        results.append(result)
    return results


def _implication(name: str, iters: int, draw: Callable[[int], dict],
                 premise: Callable[..., bool], conclusion: Callable[..., bool]) -> CheckResult:
    """Check ``premise => conclusion`` on ``iters`` instances; ``draw(i)``
    gives instance ``i`` as named values, passed to both in order."""
    result = CheckResult(name)
    held = 0
    for i in range(iters):
        values = draw(i)
        hypothesis = premise(*values.values())
        held += hypothesis
        result.record(not hypothesis or conclusion(*values.values()),
                      lambda: " ".join("%s=%s" % item for item in values.items()))
    result.note = "hypothesis held %d/%d" % (held, iters)
    return result


def _fixpoint_rules(prefix: str, names: str, iters: int, ops: Ops, draw: Callable[[], object],
                    same: Callable[[object, object], bool]) -> list[CheckResult]:
    """The least-fixpoint rules in the model ``ops``, whose values ``same``
    compares, in the natural order (``x <= y`` when ``x + y`` is ``y``):
    ``e + f ; g <= g`` implies ``f* ; e <= g``, and ``e + f ; g <= f``
    implies ``e ; g* <= f``. On even instances the variable right of
    ``<=`` is the least solution, so the premise holds. ``names`` names
    ``e, f, g`` in the reports."""
    plus, dot, star = ops.plus, ops.dot, ops.star

    def leq(x: object, y: object) -> bool:
        return same(plus(x, y), y)

    def draw_left(i: int) -> dict:
        e, f = draw(), draw()
        return dict(zip(names, (e, f, dot(star(f), e) if i % 2 == 0 else draw())))

    def draw_right(i: int) -> dict:
        e, g = draw(), draw()
        return dict(zip(names, (e, dot(e, star(g)) if i % 2 == 0 else draw(), g)))

    return [
        _implication(prefix + "lfp-left", iters, draw_left,
                     lambda e, f, g: leq(plus(e, dot(f, g)), g),
                     lambda e, f, g: leq(dot(star(f), e), g)),
        _implication(prefix + "lfp-right", iters, draw_right,
                     lambda e, f, g: leq(plus(e, dot(f, g)), f),
                     lambda e, f, g: leq(dot(e, star(g)), f)),
    ]


def check_axioms(seed: int, iters: int = 100, alphabet: str = "ab") -> list[CheckResult]:
    """Decide every equational axiom schema on random instances, and the
    fixpoint implications on instances where the hypothesis holds."""
    rng = random.Random(seed)

    def term() -> Term:
        return random_term(rng, alphabet, rng.randint(1, 6))

    def same(x: Term, y: Term) -> bool:
        return equiv(x, y).equivalent

    results = _equations("axiom ", EQUATIONS, iters, TERM_OPS, term,
                         lambda: random_sl_term(rng, alphabet, rng.randint(1, 3)), same)
    results.extend(_fixpoint_rules("implication ", "efg", iters, TERM_OPS, term, same))

    def draw_unique(i: int) -> dict[str, Term]:
        e, f = term(), guarded(term(), alphabet)
        return {"e": e, "f": f, "g": Seq(Star(f), e) if i % 2 == 0 else term()}

    results.append(_implication(
        "implication unique-fixpoint", iters, draw_unique,
        lambda e, f, g: same(H(f), Zero()) and same(Plus(e, Seq(f, g)), g),
        lambda e, f, g: same(Seq(Star(f), e), g)))
    return results


def check_derivatives(
    seed: int, iters: int = 300, alphabet: str = "abc", bound: int = 4
) -> list[CheckResult]:
    """Acceptance in the term's automaton (subsets stepped with ``step``
    from the term, accepting when a state is ``nullable``) against the
    bounded semantics, on every word up to the bound over the full subset
    alphabet. The walk descends only into the symbols ``step`` reads; the
    automaton rejects every word through any other symbol, so of those
    words the expected ones are the mismatches, counted by prefix."""
    rng = random.Random(seed)
    result = CheckResult("derivative soundness")
    for _ in range(iters):
        term = random_term(rng, alphabet, rng.randint(1, 12))
        expected = sem_bounded(term, bound)
        # How many expected words start with each prefix.
        starting = Counter(w[:n] for w in expected.words for n in range(len(w) + 1))
        mismatches = 0

        def walk(word, subset):
            nonlocal mismatches
            listed = word in expected.words
            mismatches += any(nullable(q) for q in subset) != listed
            if len(word) == bound:
                return
            table = step(subset)
            # The expected words that go on through a symbol step cannot read.
            mismatches += starting[word] - listed - sum(starting[word + (s,)] for s in table)
            for symbol, targets in table.items():
                walk(word + (symbol,), targets)

        walk((), frozenset((term,)))
        result.record(not mismatches, lambda: "term %s mismatches on %d words" % (term, mismatches))
    return [result]


def check_fundamental(
    seed: int, iters: int = 300, alphabet: str = "abc", bound: int = 4
) -> list[CheckResult]:
    """The one-step decomposition denotes the same bounded language as the
    term it was unfolded from."""
    rng = random.Random(seed)
    result = CheckResult("one-step unfolding")
    for _ in range(iters):
        term = random_term(rng, alphabet, rng.randint(1, 12))
        rebuilt = unfold_as_term(term)
        result.record(sem_bounded(term, bound) == sem_bounded(rebuilt, bound), lambda: str(term))
    return [result]


def check_normalform(seed: int, iters: int = 200, alphabet: str = "ab") -> list[CheckResult]:
    """Normal forms classify into the star fragment and stay equivalent;
    the state-labelling vector solves each term's own linear system."""
    rng = random.Random(seed)
    classifies = CheckResult("normal form classifies")
    equivalent = CheckResult("normal form equivalent")
    solves = CheckResult("identity labelling solves system")
    for _ in range(iters):
        term = random_term(rng, alphabet, rng.randint(1, 8))
        system = build_system(term)
        normal = solve(system)[term]
        classifies.record(classify(normal).nsf, lambda: "%s -> %s" % (term, normal))
        equivalent.record(equiv(normal, term).equivalent, lambda: "%s -> %s" % (term, normal))
        unsolved = None
        for state, row in zip(system.states, system.rows()):
            acc = system.vector[state]
            for target, entry in row:
                acc = Plus(acc, Seq(entry, system.states[target]))
            if not equiv(acc, state).equivalent:
                unsolved = state
                break
        solves.record(unsolved is None, lambda: "state %s of %s" % (unsolved, term))
    return [classifies, equivalent, solves]


def sample_model_elements(rng: random.Random) -> list[ModelElement]:
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
    while len(pool) < 56:
        threshold = rng.randint(0, 4)
        low = [n for n in range(threshold) if rng.random() < 0.4]
        period = rng.randint(1, 4)
        residues = [r for r in range(period) if rng.random() < 0.4]
        pool.append(UnaryLang.periodic(low, threshold, period, residues))
    return pool


def check_countermodel(seed: int, iters: int = 300) -> list[CheckResult]:
    """The original axioms hold in the model: equational schemas on random
    element tuples, fixpoint implications where the hypothesis holds, and
    the product of a finite with an infinite set stays infinite. Last, on
    random one-letter terms without ``&`` or H, a term's normal form has
    the term's own model value."""
    rng = random.Random(seed)
    pool = sample_model_elements(rng)
    generator = UnaryLang.generator()
    results = _equations("model axiom ", SKA_EQUATIONS, iters, MODEL_OPS,
                         lambda: rng.choice(pool), lambda: generator, operator.eq)

    results.extend(_fixpoint_rules("model implication ", "klj", iters, MODEL_OPS,
                                   lambda: rng.choice(pool), operator.eq))

    finite = [x for x in pool if isinstance(x, UnaryLang) and not x.is_infinite and not x.is_empty]
    infinite = [x for x in pool if isinstance(x, UnaryLang) and x.is_infinite]
    result = CheckResult("finite x infinite stays infinite")
    for fin in finite:
        for inf in infinite:
            product = MODEL_OPS.sync(fin, inf)
            result.record(isinstance(product, UnaryLang) and product.is_infinite,
                          lambda: "%s x %s = %s" % (fin, inf, product))
    results.append(result)

    # Without & no dagger arises, so both sides are the length set of one
    # language and must agree.
    result = CheckResult("model value of normal form")
    for _ in range(iters):
        term = random_term(rng, "a", rng.randint(1, 8), allow_h=False, allow_sync=False)
        value = eval_cm(term)
        normal_value = eval_cm(to_normal_form(term))
        result.record(normal_value == value, lambda: "%s: %s != %s" % (term, normal_value, value))
    results.append(result)
    return results


SUITES: dict[str, Callable[..., list[CheckResult]]] = {
    "axioms": check_axioms,
    "derivatives": check_derivatives,
    "fundamental": check_fundamental,
    "normalform": check_normalform,
    "countermodel": check_countermodel,
}
