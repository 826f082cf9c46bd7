import random
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_derive, term_strategy
from synka import (
    Atom,
    H,
    One,
    Seq,
    Star,
    SymSet,
    Sync,
    Zero,
    accepts,
    build_automaton,
    derive,
    letters,
    nonempty_subsets,
    nullable,
    parse_term,
    parse_word,
    reachable_terms,
    sem_bounded,
    to_dot,
    unfold,
    unfold_as_term,
)
from synka.checks import random_term


def test_nullable_examples():
    assert nullable(parse_term("a*"))
    assert not nullable(parse_term("H(a)"))
    assert nullable(parse_term("H(a*)"))
    # min(max(1,0), 0) = 0 by the structural rules
    assert not nullable(parse_term("(1 + a) ; a"))


def test_nullable_is_empty_word_membership():
    rng = random.Random(3)
    for _ in range(300):
        term = random_term(rng, "ab", rng.randint(1, 10))
        assert nullable(term) == (() in sem_bounded(term, 0))


def test_derive_examples():
    assert derive(Atom("a"), SymSet("a")) == frozenset((One(),))
    assert derive(Atom("a"), SymSet("ab")) == frozenset()
    # Only the split left={a}, right={b} survives on a & b; the guard
    # cases vanish since neither operand accepts the empty word.
    assert derive(parse_term("a & b"), SymSet("ab")) == frozenset((Sync(One(), One()),))
    assert derive(parse_term("a & b"), SymSet("a")) == frozenset()
    assert derive(H(parse_term("a*")), SymSet("a")) == frozenset()
    assert derive(Zero(), SymSet("a")) == frozenset()
    assert derive(One(), SymSet("a")) == frozenset()


def test_derive_guard_cases():
    # a* & b steps on {b} because the left operand accepts the empty word.
    term = parse_term("a* & b")
    assert derive(term, SymSet("b")) == frozenset((One(),))
    # ...and on {a,b} through the product split.
    assert derive(term, SymSet("ab")) == frozenset((Sync(Seq(One(), Star(Atom("a"))), One()),))


def test_derive_outside_support_is_empty():
    rng = random.Random(4)
    for _ in range(100):
        term = random_term(rng, "ab", rng.randint(1, 8))
        assert derive(term, SymSet("c")) == frozenset()
        assert derive(term, SymSet("ac")) == frozenset()


@settings(max_examples=300)
@given(st.sampled_from(["a", "ab", "abc", "abcd"]).flatmap(term_strategy))
def test_derive_matches_reference(term):
    absent = min(set(string.ascii_lowercase) - letters(term))
    for symbol in nonempty_subsets(letters(term) | {absent}):
        assert derive(term, symbol) == reference_derive(term, symbol), (term, symbol)


def test_reach_examples():
    assert reachable_terms(Atom("a")) == frozenset((One(), Atom("a")))
    assert reachable_terms(H(parse_term("a ; b"))) == frozenset((One(),))
    a_star = parse_term("a*")
    assert reachable_terms(a_star) == frozenset(
        (One(), Seq(One(), a_star), Seq(Atom("a"), a_star))
    )
    assert reachable_terms(Zero()) == frozenset()


def test_reach_closed_under_derivatives():
    rng = random.Random(5)
    for _ in range(150):
        term = random_term(rng, "ab", rng.randint(1, 9))
        reach = reachable_terms(term)
        symbols = nonempty_subsets(letters(term))
        for symbol in symbols:
            assert derive(term, symbol) <= reach
        for state in reach:
            for symbol in symbols:
                assert derive(state, symbol) <= reach


def test_reach_finite_on_large_terms():
    rng = random.Random(6)
    for _ in range(40):
        term = random_term(rng, "abc", 30)
        assert len(reachable_terms(term)) < 200_000


def test_build_automaton_zero():
    auto = build_automaton(Zero())
    assert auto.states == (Zero(),)
    assert auto.transitions == {}
    assert auto.accepting == frozenset()


def test_build_automaton_letter():
    auto = build_automaton(Atom("a"))
    assert set(auto.states) == {Atom("a"), One()}
    assert auto.transitions == {(Atom("a"), SymSet("a")): frozenset((One(),))}
    assert auto.accepting == frozenset((One(),))


def test_automaton_state_bound():
    term = parse_term("(a+b)* & (a+b)*")
    auto = build_automaton(term)
    assert len(auto.states) <= len(reachable_terms(term)) + 1


def test_accepts_examples():
    assert accepts(build_automaton(parse_term("a & b")), parse_word("{a,b}"))
    assert not accepts(build_automaton(Atom("a")), ())
    assert accepts(build_automaton(parse_term("a* & a*")), parse_word("{a}{a}{a}"))
    # Symbols outside the automaton's alphabet reject immediately.
    assert not accepts(build_automaton(Atom("a")), parse_word("{b}"))


def test_acceptance_matches_bounded_semantics():
    rng = random.Random(8)
    for _ in range(120):
        term = random_term(rng, "ab", rng.randint(1, 10))
        auto = build_automaton(term)
        expected = sem_bounded(term, 3)
        for symbols in _all_words("ab", 3):
            assert accepts(auto, symbols) == (symbols in expected)


def _all_words(alphabet, bound):
    syms = nonempty_subsets(alphabet)
    frontier = [()]
    for word in frontier:
        yield word
        if len(word) < bound:
            frontier.extend(word + (s,) for s in syms)


def test_unfold_examples():
    assert unfold(One()) == (True, [])
    assert unfold(Atom("a")) == (False, [(SymSet("a"), One())])
    assert unfold(parse_term("a & b")) == (False, [(SymSet("ab"), Sync(One(), One()))])


def test_unfold_reassembles_to_same_language():
    rng = random.Random(9)
    for _ in range(150):
        term = random_term(rng, "ab", rng.randint(1, 10))
        assert sem_bounded(unfold_as_term(term), 4) == sem_bounded(term, 4)


def test_unfold_term_shape():
    # o(a) + {a}-atom ; 1, kept literal
    from synka import Plus

    assert unfold_as_term(Atom("a")) == Plus(Zero(), Seq(Atom("a"), One()))


def test_support_warning():
    # Nine letters exceed the desk-scale limit.
    term = parse_term("a + b + c + d + e + f + g + h + i")
    with pytest.warns(UserWarning, match="letters"):
        build_automaton(term)


def test_to_dot():
    dot = to_dot(build_automaton(Atom("a")))
    assert dot.startswith("digraph {")
    assert '"a" -> "1" [label="{a}"];' in dot
    assert '"1" [shape=doublecircle];' in dot
    assert '"a" [shape=circle];' in dot
