import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import reference_sem_bounded, term_strategy
from synka import (
    Atom,
    BoundedLang,
    BoundMismatchError,
    Seq,
    SymSet,
    Sync,
    format_word,
    lang_concat,
    lang_h,
    lang_star,
    lang_sync,
    lang_union,
    parse_term,
    parse_word,
    pi_lang,
    pi_word,
    sem_bounded,
    word_sync,
)
from synka.checks import EQUATIONS, TERM_OPS, random_sl_term, random_term

words = st.lists(
    st.sets(st.sampled_from("abc"), min_size=1).map(SymSet), max_size=4
).map(tuple)


def test_word_sync_examples():
    assert word_sync(parse_word("{a}{b}"), parse_word("{c}")) == parse_word("{a,c}{b}")
    assert word_sync((), parse_word("{a}{b}")) == parse_word("{a}{b}")
    assert word_sync(parse_word("{a}"), parse_word("{a}")) == parse_word("{a}")


@given(words, words)
def test_word_sync_commutative_and_length(u, v):
    assert word_sync(u, v) == word_sync(v, u)
    assert len(word_sync(u, v)) == max(len(u), len(v))


@given(words, words, words)
def test_word_sync_associative(u, v, w):
    assert word_sync(u, word_sync(v, w)) == word_sync(word_sync(u, v), w)


@given(words)
def test_word_sync_unit(u):
    assert word_sync(u, ()) == u
    assert word_sync((), u) == u


def test_word_literals():
    assert parse_word("eps") == ()
    assert format_word(()) == "eps"
    assert format_word(parse_word("{a,b}{c}")) == "{a,b}{c}"
    with pytest.raises(ValueError):
        parse_word("{a")
    with pytest.raises(ValueError):
        parse_word("")


def test_bounded_lang_validation():
    with pytest.raises(ValueError):
        BoundedLang(1, (parse_word("{a}{a}"),))
    with pytest.raises(BoundMismatchError):
        lang_union(BoundedLang(2), BoundedLang(3))


def test_lang_op_examples():
    k = BoundedLang(2, (parse_word("{a}{b}"),))
    l = BoundedLang(2, (parse_word("{c}"),))
    assert lang_sync(k, l) == BoundedLang(2, (parse_word("{a,c}{b}"),))

    single = BoundedLang(2, (parse_word("{a}"),))
    assert lang_star(single) == BoundedLang(
        2, ((), parse_word("{a}"), parse_word("{a}{a}"))
    )

    mixed = BoundedLang(3, ((), parse_word("{a}")))
    assert lang_h(mixed) == BoundedLang(3, ((),))


def test_lang_star_with_empty_word_terminates():
    # The fixed point must not loop when eps is already in the operand.
    k = BoundedLang(2, ((), parse_word("{a}")))
    assert lang_star(k) == BoundedLang(2, ((), parse_word("{a}"), parse_word("{a}{a}")))


def test_bounded_lang_prints_one_word_per_line_sorted():
    lang = sem_bounded(parse_term("(a + b)*"), 2)
    assert str(lang).splitlines() == [
        "eps", "{a}", "{b}",
        "{a}{a}", "{a}{b}", "{b}{a}", "{b}{b}",
    ]


def test_sem_bounded_examples():
    assert sem_bounded(parse_term("a ; b"), 2) == BoundedLang(2, (parse_word("{a}{b}"),))

    both = sem_bounded(parse_term("(a+b)* & (a+b)*"), 1)
    plain = sem_bounded(parse_term("(a+b)*"), 1)
    assert parse_word("{a,b}") in both
    assert parse_word("{a,b}") not in plain

    assert sem_bounded(parse_term("a* & a*"), 3) == sem_bounded(parse_term("a*"), 3)
    assert [format_word(w) for w in sem_bounded(parse_term("a*"), 3)] == [
        "eps", "{a}", "{a}{a}", "{a}{a}{a}",
    ]


@given(term_strategy("ab") | term_strategy("abc", max_leaves=6), st.integers(0, 3))
def test_sem_bounded_matches_reference(term, bound):
    assert sem_bounded(term, bound) == reference_sem_bounded(term, bound)


def test_sem_bounded_of_a_deep_chain():
    # Far past the recursion limit.
    chain = Atom("a")
    for i in range(1, 5000):
        chain = Seq(chain, Atom("ab"[i % 2]))
    assert sem_bounded(chain, 3) == BoundedLang(3)


@given(term_strategy("ab"), st.integers(0, 3), st.integers(0, 3))
def test_truncation_coherence(term, m, extra):
    n = m + extra
    assert sem_bounded(term, n).restrict(m) == sem_bounded(term, m)


def test_pi_word_examples():
    assert pi_word(parse_word("{a,b}{c}")) == (Sync(Atom("a"), Atom("b")), Atom("c"))
    assert pi_word(()) == ()


def _tuple_concat(a, b, bound):
    return frozenset(u + v for u in a for v in b if len(u) + len(v) <= bound)


def _tuple_star(a, bound):
    current = frozenset(((),))
    while True:
        step = current | _tuple_concat(a, current, bound)
        if step == current:
            return current
        current = step


def test_pi_lang_homomorphism():
    rng = random.Random(7)
    bound = 3
    for _ in range(200):
        k = sem_bounded(random_term(rng, "abc", rng.randint(1, 8)), bound)
        l = sem_bounded(random_term(rng, "abc", rng.randint(1, 8)), bound)
        assert pi_lang(lang_union(k, l)) == pi_lang(k) | pi_lang(l)
        assert pi_lang(lang_concat(k, l)) == _tuple_concat(pi_lang(k), pi_lang(l), bound)
        assert pi_lang(lang_star(k)) == _tuple_star(pi_lang(k), bound)


def test_axioms_hold_in_bounded_semantics():
    # Every equational schema, evaluated as bounded languages; semilattice
    # variables are instantiated with semilattice terms.
    rng = random.Random(21)
    bound = 4
    for schema in EQUATIONS:
        for _ in range(25):
            variables = [random_term(rng, "ab", rng.randint(1, 6)) for _ in range(schema.arity)]
            sls = [random_sl_term(rng, "ab", rng.randint(1, 3)) for _ in range(schema.sl_arity)]
            lhs, rhs = schema.instantiate(TERM_OPS, variables, sls)
            assert sem_bounded(lhs, bound) == sem_bounded(rhs, bound), schema.name
