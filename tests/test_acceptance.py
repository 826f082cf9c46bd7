"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they pass.
"""

import random
import time

from helpers import brute_force_equiv
from synka import (
    DAGGER,
    UnaryLang,
    canonical_atom,
    equiv,
    lang_concat,
    lang_star,
    lang_union,
    member,
    parse_term,
    parse_word,
    sem_bounded,
    sl_value,
)
from synka.checks import (
    check_axioms,
    check_countermodel,
    check_derivatives,
    check_fundamental,
    check_normalform,
    random_sl_term,
    random_term,
    sample_model_elements,
)
from synka.cli import main


def _report(name: str, ok: bool, detail: str = "") -> None:
    line = "%s: %s" % ("PASS" if ok else "FAIL", name)
    if detail:
        line += " (%s)" % detail
    print(line)
    assert ok, line


def test_criterion_1_incompleteness(capsys):
    start = time.time()
    assert main(["eval-cm", "a* & a*"]) == 0
    dagger_out = capsys.readouterr().out.strip()
    assert main(["eval-cm", "a*"]) == 0
    full_out = capsys.readouterr().out.strip()
    assert main(["equiv", "a* & a*", "a*"]) == 0
    equiv_out = capsys.readouterr().out.strip()
    elapsed = time.time() - start
    ok = (
        dagger_out == "dagger"
        and full_out == "{} + {0} mod 1 from 0"
        and equiv_out == "equivalent"
        and elapsed < 1.0
    )
    with capsys.disabled():
        _report(
            "criterion 1, incompleteness reproduction",
            ok,
            "%.2fs; a*&a* -> %s, a* -> %s, decision: %s"
            % (elapsed, dagger_out, full_out, equiv_out),
        )


def test_criterion_2_derivative_soundness():
    start = time.time()
    results = check_derivatives(seed=102, iters=300, alphabet="abc", bound=4)
    elapsed = time.time() - start
    failures = sum(r.failures for r in results)
    _report(
        "criterion 2, derivative soundness",
        failures == 0 and elapsed < 60.0,
        "300 terms, %d mismatches, %.1fs" % (failures, elapsed),
    )


def test_criterion_3_unfolding_preserves_semantics():
    results = check_fundamental(seed=103, iters=300, alphabet="abc", bound=4)
    failures = sum(r.failures for r in results)
    _report(
        "criterion 3, one-step unfolding preserves semantics",
        failures == 0,
        "300 terms, %d mismatches" % failures,
    )


def test_criterion_4_axiom_soundness():
    results = check_axioms(seed=104, iters=100, alphabet="ab")
    failures = sum(r.failures for r in results)
    implications = [r for r in results if r.name.startswith("implication")]
    held_enough = all("held" in r.note and not r.note.startswith("hypothesis held 0/")
                      for r in implications)
    _report(
        "criterion 4, axiom soundness",
        failures == 0 and held_enough,
        "%d schemas x 100 instances, %d failures" % (len(results), failures),
    )


def test_criterion_5_normal_form():
    start = time.time()
    results = check_normalform(seed=105, iters=200, alphabet="ab")
    elapsed = time.time() - start
    failures = sum(r.failures for r in results)
    _report(
        "criterion 5, normal form extraction",
        failures == 0 and elapsed < 300.0,
        "200 terms, %d failures, %.1fs" % (failures, elapsed),
    )


def test_criterion_6_countermodel_axioms():
    rng = random.Random(106)
    pool = sample_model_elements(rng)
    kinds_present = (
        UnaryLang.empty() in pool
        and UnaryLang.epsilon() in pool
        and any(isinstance(x, UnaryLang) and not x.is_empty and not x.is_infinite for x in pool)
        and any(isinstance(x, UnaryLang) and x.is_infinite for x in pool)
        and DAGGER in pool
    )
    results = check_countermodel(seed=106, iters=300)
    failures = sum(r.failures for r in results)
    _report(
        "criterion 6, countermodel satisfies the axioms",
        len(pool) >= 50 and kinds_present and failures == 0,
        "%d elements, %d checks, %d failures" % (len(pool), len(results), failures),
    )


def test_criterion_7_known_answers():
    positive = equiv(parse_term("(a ; b)* & (a ; b)*"), parse_term("(a ; b)*"))
    negative = equiv(parse_term("(a+b)* & (a+b)*"), parse_term("(a+b)*"))
    witness_ok = (
        not negative.equivalent
        and negative.witness == parse_word("{a,b}")
        and member(negative.witness, parse_term("(a+b)* & (a+b)*"))
        and not member(negative.witness, parse_term("(a+b)*"))
    )
    _report(
        "criterion 7, known-answer equivalences",
        positive.equivalent and witness_ok,
        "witness %s" % ("{a,b}" if witness_ok else negative.witness),
    )


def _pi_lang(lang):
    return frozenset(tuple(map(canonical_atom, w)) for w in lang.words)


def test_criterion_8_semilattice_layer():
    rng = random.Random(108)
    failures = 0
    for _ in range(200):
        # Right inverse on a random letter set.
        letter_set = frozenset(rng.sample("abcde", rng.randint(1, 5)))
        from synka import SymSet

        symbols = SymSet(letter_set)
        if sl_value(canonical_atom(symbols)) != symbols:
            failures += 1
        # Normalization to the canonical atom is idempotent and
        # value-preserving.
        term = random_sl_term(rng, "abc", rng.randint(1, 6))
        normal = canonical_atom(sl_value(term))
        if canonical_atom(sl_value(normal)) is not normal or sl_value(normal) != sl_value(term):
            failures += 1
        # Equality of values is exactly equality of canonical atoms.
        other = random_sl_term(rng, "abc", rng.randint(1, 6))
        if (sl_value(term) == sl_value(other)) != (normal is canonical_atom(sl_value(other))):
            failures += 1
        # The canonical-word map pi, each symbol to its canonical atom, is
        # a homomorphism for union, product and bounded iteration.
        bound = 3
        k = sem_bounded(random_term(rng, "ab", rng.randint(1, 7)), bound)
        l = sem_bounded(random_term(rng, "ab", rng.randint(1, 7)), bound)
        pi_k, pi_l = _pi_lang(k), _pi_lang(l)
        if _pi_lang(lang_union(k, l)) != pi_k | pi_l:
            failures += 1
        image = frozenset(u + v for u in pi_k for v in pi_l if len(u) + len(v) <= bound)
        if _pi_lang(lang_concat(k, l)) != image:
            failures += 1
        star_image = frozenset(((),))
        while True:
            grown = star_image | frozenset(
                u + v for u in pi_k for v in star_image if len(u) + len(v) <= bound
            )
            if grown == star_image:
                break
            star_image = grown
        if _pi_lang(lang_star(k)) != star_image:
            failures += 1
    _report(
        "criterion 8, semilattice layer",
        failures == 0,
        "200 rounds, %d failures" % failures,
    )


def test_criterion_9_oracle_cross_check():
    rng = random.Random(109)
    mismatches = 0
    pairs = 2000
    for _ in range(pairs):
        e = random_term(rng, "ab", rng.randint(1, 6))
        f = random_term(rng, "ab", rng.randint(1, 6))
        if equiv(e, f).equivalent != brute_force_equiv(e, f):
            mismatches += 1
    _report(
        "criterion 9, decision agrees with brute force",
        mismatches == 0,
        "%d pairs, %d mismatches" % (pairs, mismatches),
    )
