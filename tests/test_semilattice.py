import copy
import itertools
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import sl_term_strategy, term_strategy
from synka import (
    Atom,
    SymSet,
    Sync,
    canonical_atom,
    classify,
    explore,
    nonempty_subsets,
    parse_symset,
    parse_term,
    sl_value,
    transitions,
)

letter_sets = st.sets(st.sampled_from("abcdefgh"), min_size=1).map(SymSet)


def test_symset_basics():
    s = SymSet("ba")
    assert tuple(s) == ("a", "b")
    assert str(s) == "{a,b}"
    assert "a" in s and "c" not in s
    assert SymSet("ab") == SymSet("ba")
    assert SymSet("a") < SymSet("ab") < SymSet("b")
    with pytest.raises(ValueError):
        SymSet("")
    with pytest.raises(ValueError):
        SymSet("aB")


@given(letter_sets, letter_sets)
def test_symset_is_its_sorted_letters(a, b):
    # A symbol set is the tuple of its letters: a union merges them, and
    # order and hash are the tuple's.
    union = a.union(b)
    assert union == SymSet(a + b) and type(union) is SymSet
    assert list(union) == sorted(set(a) | set(b))
    assert [tuple(s) for s in sorted((a, b, union))] == sorted((tuple(a), tuple(b), tuple(union)))
    assert hash(a) == hash(tuple(a))
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        again = pickle.loads(pickle.dumps(a, protocol))
        assert again == a and type(again) is SymSet
    for again in (copy.copy(a), copy.deepcopy(a)):
        assert again == a and type(again) is SymSet


@given(term_strategy("abc"), term_strategy("bcd"))
def test_transition_symbols_are_symsets(e, f):
    for q in explore(Sync(e, f)).states:
        for symbol in transitions(q):
            assert type(symbol) is SymSet
            assert str(symbol) == "{%s}" % ",".join(symbol)


def test_parse_symset():
    assert parse_symset("{a,b}") == SymSet("ab")
    assert parse_symset("{c}") == SymSet("c")
    with pytest.raises(ValueError):
        parse_symset("{}")
    with pytest.raises(ValueError):
        parse_symset("a,b")


def test_sl_value_examples():
    assert sl_value(Atom("a")) == SymSet("a")
    assert sl_value(parse_term("(a & a) & (c & b)")) == SymSet("abc")
    assert sl_value(parse_term("b & a")) == SymSet("ab")
    with pytest.raises(ValueError):
        sl_value(parse_term("a ; b"))


def test_canonical_atom_examples():
    # Round-trip through sl_value pins the canonical shapes down.
    assert canonical_atom(SymSet("a")) == Atom("a")
    two = canonical_atom(SymSet("ba"))
    assert two == Sync(Atom("a"), Atom("b"))
    assert sl_value(two) == SymSet("ab")
    three = canonical_atom(SymSet("abc"))
    assert three == Sync(Sync(Atom("a"), Atom("b")), Atom("c"))
    assert sl_value(three) == SymSet("abc")


@given(st.sets(st.sampled_from("abcde"), min_size=1))
def test_canonical_atom_right_inverse(letter_set):
    symbols = SymSet(letter_set)
    assert sl_value(canonical_atom(symbols)) == symbols


def test_canonical_atom_injective():
    seen = {}
    for r in range(1, 5):
        for combo in itertools.combinations("abcd", r):
            atom = canonical_atom(SymSet(combo))
            assert atom not in seen, "collision with %s" % (seen.get(atom),)
            seen[atom] = combo


def test_normalize_examples():
    assert canonical_atom(sl_value(parse_term("(a & a) & (c & b)"))) is parse_term("(a & b) & c")
    assert canonical_atom(sl_value(Atom("a"))) is Atom("a")


@given(sl_term_strategy())
def test_normalize_idempotent(term):
    once = canonical_atom(sl_value(term))
    assert canonical_atom(sl_value(once)) is once
    assert sl_value(once) == sl_value(term)


@given(sl_term_strategy(), sl_term_strategy())
def test_sl_equal_matches_sets_and_normal_forms(e, f):
    # Equal up to ACI exactly when the canonical forms are one node.
    same_form = canonical_atom(sl_value(e)) is canonical_atom(sl_value(f))
    assert same_form == (sl_value(e) == sl_value(f))


def test_sl_equal_examples():
    assert sl_value(parse_term("a & b")) == sl_value(parse_term("b & a"))
    assert sl_value(parse_term("(a & a) & (c & b)")) == sl_value(parse_term("(a & b) & c"))
    assert sl_value(Atom("a")) != sl_value(parse_term("a & b"))


def test_is_sl_term():
    assert classify(parse_term("a & (b & a)")).sl
    assert not classify(parse_term("a ; b")).sl
    assert not classify(parse_term("1")).sl


def test_nonempty_subsets_order():
    subsets = nonempty_subsets("ba")
    assert [str(s) for s in subsets] == ["{a}", "{a,b}", "{b}"]
    assert nonempty_subsets("") == ()
