import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    ReferenceUnaryLang,
    naive_max,
    naive_star,
    naive_sum,
    naive_union,
    reference_eval_cm,
    reference_model_ops,
    term_strategy,
)
from synka import (
    DAGGER,
    Atom,
    H,
    HTermError,
    Plus,
    Seq,
    SymSet,
    Sync,
    UnaryLang,
    equiv,
    eval_cm,
    evaluate,
    parse_term,
    sem_bounded,
    to_normal_form,
    word_sync,
)
from synka import terms
from synka.checks import check_countermodel, sample_model_elements
from synka.countermodel import EXACT_OPS, MEMO_ENTRIES, MODEL_OPS


def test_canonical_representations():
    assert UnaryLang.periodic((), 0, 2, (0, 1)) == UnaryLang.naturals()
    assert UnaryLang.periodic((), 3, 1, (0,)) != UnaryLang.naturals()
    # A fake period of 4 collapses to the true period of 2.
    wide = UnaryLang.periodic((), 0, 4, (0, 2))
    assert wide.period == 2 and wide.threshold == 0
    assert UnaryLang.from_members(()) == UnaryLang.empty()
    assert UnaryLang.from_members((0,)) == UnaryLang.epsilon()


def test_periodic_rejects_bad_threshold_and_period():
    with pytest.raises(ValueError, match="threshold must be a natural"):
        UnaryLang.periodic((), -1, 1, ())
    with pytest.raises(ValueError, match="period must be positive"):
        UnaryLang.periodic((), 0, 0, ())
    assert UnaryLang.periodic((), 0, 1, ()) == UnaryLang.empty()


@pytest.mark.parametrize("threshold, period, bits, message", [
    (-1, 1, 0, "threshold must be a natural"),
    (0, 0, 1, "period must be positive"),
    (2, 1, -5, "bits must be a natural"),
    (0, 1, -1, "bits must be a natural"),
])
def test_constructor_rejects_bad_threshold_period_and_bits(threshold, period, bits, message):
    with pytest.raises(ValueError, match=message):
        UnaryLang(threshold, period, bits)


def test_membership_and_print():
    evens = UnaryLang.periodic((), 0, 2, (0,))
    assert 0 in evens and 4 in evens and 3 not in evens
    assert str(UnaryLang.naturals()) == "{} + {0} mod 1 from 0"
    assert str(UnaryLang.from_members((0, 2))) == "{0,2} + {} mod 1 from 3"
    assert str(DAGGER) == "dagger"


def test_is_infinite_examples():
    assert not UnaryLang.epsilon().is_infinite
    assert UnaryLang.naturals().is_infinite
    assert UnaryLang.periodic((), 0, 2, (0,)).is_infinite
    assert not UnaryLang.from_members((1, 5, 9)).is_infinite


def _random_lang(rng):
    threshold = rng.randint(0, 5)
    low = [n for n in range(threshold) if rng.random() < 0.5]
    period = rng.randint(1, 4)
    residues = [r for r in range(period) if rng.random() < 0.4]
    return UnaryLang.periodic(low, threshold, period, residues)


def _members(lang, bound):
    return {n for n in range(bound + 1) if n in lang}


def test_set_arithmetic_against_enumeration():
    rng = random.Random(51)
    for _ in range(200):
        a = _random_lang(rng)
        b = _random_lang(rng)
        horizon = 4 * (a.threshold + a.period + b.threshold + b.period) + 24
        naive_a = _members(a, horizon)
        naive_b = _members(b, horizon)
        assert _members(a.union(b), horizon) == naive_union(naive_a, naive_b, horizon)
        assert _members(a.sum_set(b), horizon) == naive_sum(naive_a, naive_b, horizon)
        if not a.is_empty and not b.is_empty:
            assert _members(a.max_set(b), horizon) == naive_max(naive_a, naive_b, horizon)
        star = a.star_closure()
        bigger = max(horizon, star.threshold + 2 * star.period)
        assert _members(star, bigger) == naive_star(_members(a, bigger), bigger)


@pytest.mark.parametrize("a, b", [(2, 3), (7, 11), (97, 101), (1000, 1001)])
def test_star_of_two_coprimes_meets_sylvester(a, b):
    # Sylvester (1884): for coprime a and b, a*b - a - b is the largest
    # natural that is no sum of a's and b's, and (a - 1)(b - 1)/2 naturals
    # are none. The reference test's small sets never need so many rounds.
    star = UnaryLang.from_members((a, b)).star_closure()
    largest_gap = a * b - a - b
    assert (star.threshold, star.period) == (largest_gap + 1, 1)
    assert largest_gap not in star
    below = star.bits & ((1 << star.threshold) - 1)
    assert star.threshold - below.bit_count() == (a - 1) * (b - 1) // 2


@st.composite
def _periodic_args(draw):
    threshold = draw(st.integers(0, 12))
    period = draw(st.integers(1, 9))
    low = draw(st.sets(st.integers(0, max(threshold - 1, 0)))) if threshold else set()
    residues = draw(st.sets(st.integers(0, period - 1)))
    return sorted(low), threshold, period, sorted(residues)


def _canonical(lang):
    """``(threshold, period, bits)``, the members below ``threshold + period``
    as one int; the reference keeps them as two."""
    if isinstance(lang, ReferenceUnaryLang):
        return lang.threshold, lang.period, lang.low_bits | lang.cycle_bits << lang.threshold
    return lang.threshold, lang.period, lang.bits


# The memoized set operations; ``__wrapped__`` is each one uncached.
_MEMOIZED = (UnaryLang.union, UnaryLang.sum_set, UnaryLang.max_set, UnaryLang.star_closure)


def _clear_memos():
    for operation in _MEMOIZED:
        operation.cache_clear()


@settings(max_examples=400)
@given(_periodic_args(), _periodic_args())
def test_unary_ops_match_reference(a_args, b_args):
    a, b = UnaryLang.periodic(*a_args), UnaryLang.periodic(*b_args)
    ref_a, ref_b = ReferenceUnaryLang.periodic(*a_args), ReferenceUnaryLang.periodic(*b_args)
    assert _canonical(a) == _canonical(ref_a)
    rebuilt = UnaryLang(*_canonical(ref_a))
    assert hash(a) == hash(rebuilt) and a.min_element() == ref_a.min_element()
    # The window constructor canonicalizes a longer threshold and period.
    threshold, period = a.threshold + 3, 2 * a.period
    wide = UnaryLang(threshold, period, a._window(threshold + period))
    reference = ReferenceUnaryLang(threshold, period, a.__contains__)
    assert _canonical(wide) == _canonical(reference) == _canonical(a)
    # The memoized operation, which may answer from its cache, and the
    # uncached one both agree with the reference.
    cases = [(UnaryLang.union, ref_a.union(ref_b)), (UnaryLang.sum_set, ref_a.sum_set(ref_b))]
    if not a.is_empty and not b.is_empty:
        cases.append((UnaryLang.max_set, ref_a.max_set(ref_b)))
    for operation, expected in cases:
        assert (_canonical(operation(a, b)) == _canonical(operation.__wrapped__(a, b))
                == _canonical(expected))
    assert (_canonical(a.star_closure()) == _canonical(UnaryLang.star_closure.__wrapped__(a))
            == _canonical(ref_a.star_closure()))


@settings(max_examples=300)
@given(_periodic_args(), _periodic_args())
def test_a_set_is_rebuilt_from_its_stored_window(a_args, b_args):
    # ``bits`` is exactly the window the constructor takes, for drawn sets
    # and for what each set operation returns.
    a, b = UnaryLang.periodic(*a_args), UnaryLang.periodic(*b_args)
    for x in (a, b, a.union(b), a.sum_set(b), a.max_set(b), a.star_closure(), b.star_closure()):
        assert x.bits.bit_length() <= x.threshold + x.period
        rebuilt = UnaryLang(x.threshold, x.period, x.bits)
        assert rebuilt == x and hash(rebuilt) == hash(x)


def test_eval_cm_does_not_depend_on_what_the_memos_hold():
    # The same values whichever terms filled the caches first.
    from synka.checks import random_term

    rng = random.Random(55)
    terms = [random_term(rng, "a", rng.randint(1, 12), allow_h=False) for _ in range(200)]
    _clear_memos()
    forward = [eval_cm(t) for t in terms]
    _clear_memos()
    backward = [eval_cm(t) for t in reversed(terms)]
    assert forward == backward[::-1]


def test_memos_stay_within_their_bound():
    # A star's rounds, each as large as the star, stay out of the memos: the
    # rounds of the star of {997, 1999} held about 300 MB there.
    _clear_memos()
    UnaryLang.from_members((7, 11)).star_closure()
    assert UnaryLang.union.cache_info().currsize == UnaryLang.sum_set.cache_info().currsize == 0
    generator = UnaryLang.generator()
    for n in range(MEMO_ENTRIES + 100):
        single = UnaryLang.from_members((n,))
        single.union(generator)
        single.sum_set(generator)
        single.max_set(generator)
        UnaryLang.from_members((1, n)).star_closure()
    for operation in _MEMOIZED:
        info = operation.cache_info()
        assert info.maxsize == MEMO_ENTRIES
        assert info.currsize == MEMO_ENTRIES, operation.__name__


@given(_periodic_args(), _periodic_args())
def test_str_lists_the_members_below_the_threshold_then_the_cycle(a_args, b_args):
    a, b = UnaryLang.periodic(*a_args), UnaryLang.periodic(*b_args)
    for x in (a, a.union(b), a.sum_set(b), a.star_closure()):
        low = ",".join(str(n) for n in range(x.threshold) if n in x)
        cycle = ",".join(str(i) for i in range(x.period) if x.threshold + i in x)
        assert str(x) == "{%s} + {%s} mod %d from %d" % (low, cycle, x.period, x.threshold)


def test_operator_priorities():
    assert MODEL_OPS.dot(UnaryLang.empty(), DAGGER) == UnaryLang.empty()
    assert MODEL_OPS.dot(DAGGER, UnaryLang.empty()) == UnaryLang.empty()
    assert MODEL_OPS.sync(UnaryLang.empty(), DAGGER) == UnaryLang.empty()
    assert MODEL_OPS.plus(UnaryLang.empty(), DAGGER) is DAGGER
    assert MODEL_OPS.star(DAGGER) is DAGGER
    assert MODEL_OPS.dot(DAGGER, UnaryLang.epsilon()) is DAGGER


def test_model_ops_match_the_case_analyses():
    # Every ordered pair, and every element under star, of a pool that
    # holds DAGGER, the empty set, finite and infinite sets.
    pool = sample_model_elements(random.Random(56))
    for k in pool:
        assert MODEL_OPS.star(k) == reference_model_ops.star(k), k
        for l in pool:
            for name in ("plus", "dot", "sync"):
                got = getattr(MODEL_OPS, name)(k, l)
                assert got == getattr(reference_model_ops, name)(k, l), (name, k, l)
    assert MODEL_OPS.zero == reference_model_ops.zero and MODEL_OPS.one == reference_model_ops.one


def test_model_is_the_exact_model_with_one_rule_changed():
    # Off DAGGER, the two models differ only on the product of two
    # infinite sets.
    pool = [x for x in sample_model_elements(random.Random(57)) if x is not DAGGER]
    for k in pool:
        assert MODEL_OPS.star(k) == EXACT_OPS.star(k)
        for l in pool:
            assert MODEL_OPS.plus(k, l) == EXACT_OPS.plus(k, l)
            assert MODEL_OPS.dot(k, l) == EXACT_OPS.dot(k, l)
            if k.is_infinite and l.is_infinite:
                assert MODEL_OPS.sync(k, l) is DAGGER
            else:
                assert MODEL_OPS.sync(k, l) == EXACT_OPS.sync(k, l)


def _exact_value(term):
    return evaluate(term, EXACT_OPS, lambda _: UnaryLang.generator())


@settings(max_examples=200, deadline=None)
@given(term_strategy("a"))
def test_exact_model_holds_the_word_lengths(term):
    # Over one letter a word is its length, and the product of two words
    # is as long as the longer one, so the exact value of a term, products
    # included, is the set of its word lengths; H keeps the length 0 alone.
    bound = 6
    lengths = {len(w) for w in sem_bounded(term, bound).words}
    assert _members(_exact_value(term), bound) == lengths


@settings(max_examples=200, deadline=None)
@given(term_strategy("a"), term_strategy("a"))
def test_equiv_agrees_with_exact_values(left, right):
    # A one-letter language is its set of word lengths, so two terms are
    # equivalent exactly when their exact values are equal. ``e & e`` has
    # the lengths of ``e``, so one pair is always equivalent.
    for e, f in ((left, right), (left, Plus(left, right)), (Sync(left, left), left)):
        assert equiv(e, f).equivalent == (_exact_value(e) == _exact_value(f)), (e, f)


def test_sync_collapses_infinite_operands():
    naturals = UnaryLang.naturals()
    assert MODEL_OPS.sync(naturals, naturals) is DAGGER
    evens = UnaryLang.periodic((), 0, 2, (0,))
    assert MODEL_OPS.sync(evens, naturals) is DAGGER


def test_sync_pointwise_max_example():
    # max over pairs from {1} and {0,2}; cross-checked by enumeration.
    a = UnaryLang.from_members((1,))
    b = UnaryLang.from_members((0, 2))
    expected = {max(x, y) for x in (1,) for y in (0, 2)}
    assert expected == {1, 2}
    assert MODEL_OPS.sync(a, b) == UnaryLang.from_members(expected)


def test_max_length_matches_word_product():
    # The one-letter bridge: the product of words multiplies out to the
    # max of the lengths.
    s = SymSet("s")
    for m in range(5):
        for n in range(5):
            assert len(word_sync((s,) * m, (s,) * n)) == max(m, n)


def test_eval_examples():
    assert eval_cm(parse_term("a*")) == UnaryLang.naturals()
    assert eval_cm(parse_term("a* & a*")) is DAGGER
    assert eval_cm(parse_term("0")) == UnaryLang.empty()
    assert eval_cm(parse_term("1")) == UnaryLang.epsilon()
    assert eval_cm(parse_term("a ; a")) == UnaryLang.from_members((2,))
    # The least period, 9,699,690, is found without trying each divisor.
    primes = (2, 3, 5, 7, 11, 13, 17, 19)
    value = eval_cm(parse_term(" + ".join("(%s)*" % ";".join("a" * p) for p in primes)))
    assert (value.threshold, value.period) == (0, math.prod(primes))


def test_eval_rejects_h_terms():
    with pytest.raises(HTermError):
        eval_cm(parse_term("H(a)"))
    # The error names the leftmost-outermost H.
    with pytest.raises(HTermError, match=r"H: H\(H\(b\)\)$"):
        eval_cm(parse_term("a* ; H(H(b)) + H(a)"))
    # The model has no H, so evaluating in it directly is rejected alike.
    with pytest.raises(HTermError, match=r"H: H\(a\*\)$"):
        evaluate(parse_term("a + H(a*)"), MODEL_OPS, lambda _: UnaryLang.generator())
    assert HTermError is terms.HTermError


@settings(max_examples=200)
@given(term_strategy("a", allow_h=False) | term_strategy("ab", allow_h=False))
def test_eval_cm_matches_reference(term):
    assert eval_cm(term) == reference_eval_cm(term)
    # Solved normal forms share subterms heavily, which the memo exploits.
    normal = to_normal_form(term)
    assert eval_cm(normal) == reference_eval_cm(normal)


def test_eval_deep_seq_chain():
    # Five times the default recursion limit deep; a recursive walk
    # overflows, and so does a structural comparison of two separately
    # built chains. Each sum grows the set's bits by one, so the model
    # arithmetic must not cost a Python step per natural.
    def chain():
        term = Atom("a")
        for _ in range(5000):
            term = Seq(term, Atom("a"))
        return term

    first, second = chain(), chain()
    assert eval_cm(first) == UnaryLang.from_members((5001,))
    assert eval_cm(Seq(first, second)) == UnaryLang.from_members((10002,))


def test_eval_rejects_h_under_deep_chain():
    chain = Atom("a")
    for _ in range(5000):
        chain = Seq(chain, Atom("a"))
    buried = Seq(Seq(Atom("a"), H(Atom("b"))), chain)
    for _ in range(5000):
        buried = Seq(buried, Atom("a"))
    with pytest.raises(HTermError, match=r"H: H\(b\)$"):
        eval_cm(Plus(chain, buried))


def test_eval_shared_dag_once_per_node():
    # 121 distinct nodes, but more than 2^61 nodes as a tree.
    term = Atom("a")
    for _ in range(60):
        term = Plus(Seq(term, Atom("a")), term)
    assert eval_cm(term) == UnaryLang.from_members(range(1, 62))


def test_incompleteness_witness():
    # The model disagrees on two terms the language semantics identifies.
    assert eval_cm(parse_term("a* & a*")) is DAGGER
    assert eval_cm(parse_term("a*")) == UnaryLang.naturals()
    assert eval_cm(parse_term("a* & a*")) != eval_cm(parse_term("a*"))
    assert equiv(parse_term("a* & a*"), parse_term("a*")).equivalent


def test_squared_star_collapses_too():
    term = parse_term("(a ; a)* & (a ; a)*")
    assert eval_cm(term) is DAGGER
    assert equiv(term, parse_term("(a ; a)*")).equivalent


def test_unique_fixpoint_fails_in_model():
    # With e = empty, f = generator, g = dagger the fixpoint hypothesis
    # holds but the conclusion does not, so the model cannot support a
    # unique-fixpoint rule.
    empty = UnaryLang.empty()
    generator = UnaryLang.generator()
    assert MODEL_OPS.plus(empty, MODEL_OPS.dot(generator, DAGGER)) is DAGGER
    assert MODEL_OPS.dot(MODEL_OPS.star(generator), empty) == empty
    assert MODEL_OPS.dot(MODEL_OPS.star(generator), empty) != DAGGER


def test_model_axiom_suite():
    results = check_countermodel(seed=52, iters=120)
    for result in results:
        assert result.passed, result.line()


def test_sample_pool_contents():
    rng = random.Random(53)
    pool = sample_model_elements(rng)
    assert len(pool) >= 50
    assert DAGGER in pool
    assert UnaryLang.empty() in pool
    assert UnaryLang.epsilon() in pool
    assert any(isinstance(x, UnaryLang) and x.is_infinite for x in pool)
    assert any(
        isinstance(x, UnaryLang) and not x.is_infinite and not x.is_empty for x in pool
    )


def test_leq_is_inclusion_on_languages():
    a = UnaryLang.from_members((1, 3))
    b = UnaryLang.periodic((), 1, 2, (0,))  # odd lengths
    # The natural order: k <= l when k + l = l.
    assert MODEL_OPS.plus(a, b) == b
    assert MODEL_OPS.plus(b, a) != a
    assert MODEL_OPS.plus(b, DAGGER) is DAGGER


def test_model_agrees_with_bounded_semantics():
    # For product-free, H-free one-letter terms no dagger can appear, so
    # the model's length set must match the bounded semantics lengths.
    from synka.checks import random_term

    rng = random.Random(54)
    bound = 5
    for _ in range(150):
        term = random_term(rng, "a", rng.randint(1, 9), allow_h=False, allow_sync=False)
        value = eval_cm(term)
        assert isinstance(value, UnaryLang)
        lengths = {len(w) for w in sem_bounded(term, bound).words}
        assert _members(value, bound) == lengths
