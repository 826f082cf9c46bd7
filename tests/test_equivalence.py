import collections
import functools
import gc
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import brute_force_equiv, random_context, reference_equiv, term_strategy
from synka import (
    Atom,
    EquivResult,
    H,
    One,
    Plus,
    Seq,
    Star,
    StateLimitError,
    Sync,
    SymSet,
    Zero,
    equiv,
    explore,
    member,
    parse_term,
    parse_word,
    sem_bounded,
)
from synka import equivalence, terms
from synka.checks import random_sl_term, random_term

# Left-nested ``;``-chains of random terms with ``&`` and ``H``, alone and
# under ``&``, ``*`` and ``H``: inputs whose derivatives are re-nested to
# the right.
_chains = st.lists(term_strategy("ab", max_leaves=5), min_size=1, max_size=4).map(
    lambda parts: functools.reduce(Seq, parts)
)
_chain_terms = st.one_of(
    _chains, st.builds(Sync, _chains, _chains), st.builds(Star, _chains), st.builds(H, _chains)
)


def test_known_equivalences():
    assert equiv(parse_term("a* & a*"), parse_term("a*")).equivalent
    assert equiv(parse_term("(a ; b)* & (a ; b)*"), parse_term("(a ; b)*")).equivalent


def test_known_inequivalence_with_witness():
    result = equiv(parse_term("(a+b)* & (a+b)*"), parse_term("(a+b)*"))
    assert not result.equivalent
    assert result.witness == parse_word("{a,b}")
    # The witness separates the two terms...
    assert member(result.witness, parse_term("(a+b)* & (a+b)*"))
    assert not member(result.witness, parse_term("(a+b)*"))
    # ...and shows up in exactly one bounded semantics.
    assert result.witness in sem_bounded(parse_term("(a+b)* & (a+b)*"), 1)
    assert result.witness not in sem_bounded(parse_term("(a+b)*"), 1)


def test_empty_word_witness():
    result = equiv(One(), Zero())
    assert not result.equivalent
    assert result.witness == ()


def test_member_examples():
    assert member(parse_word("{a,b}"), parse_term("a & b"))
    assert member((), One())
    assert not member(parse_word("{a}"), Zero())
    assert not member(parse_word("{a}"), parse_term("H(a)"))


def test_member_matches_bounded_semantics():
    rng = random.Random(31)
    for _ in range(100):
        term = random_term(rng, "ab", rng.randint(1, 8))
        lang = sem_bounded(term, 3)
        for word in lang.sorted_words():
            assert member(word, term)


def test_equiv_reflexive_symmetric():
    rng = random.Random(32)
    for _ in range(50):
        e = random_term(rng, "ab", rng.randint(1, 8))
        f = random_term(rng, "ab", rng.randint(1, 8))
        assert equiv(e, e).equivalent
        assert equiv(e, f).equivalent == equiv(f, e).equivalent


def test_equiv_congruence_spot_check():
    rng = random.Random(33)
    hits = 0
    for _ in range(120):
        e = random_term(rng, "ab", rng.randint(1, 6))
        f = random_term(rng, "ab", rng.randint(1, 6))
        if not equiv(e, f).equivalent:
            continue
        hits += 1
        context = random_context(rng, "ab", rng.randint(1, 5))
        assert equiv(context(e), context(f)).equivalent
    assert hits >= 5


def test_equiv_agrees_with_bounded_semantics():
    rng = random.Random(34)
    for _ in range(100):
        e = random_term(rng, "ab", rng.randint(1, 8))
        f = random_term(rng, "ab", rng.randint(1, 8))
        verdict = equiv(e, f)
        if verdict.equivalent:
            for n in range(4):
                assert sem_bounded(e, n) == sem_bounded(f, n)
        else:
            w = verdict.witness
            bound = len(w)
            assert (w in sem_bounded(e, bound)) != (w in sem_bounded(f, bound))


def test_star_product_collapse_for_random_sl_atoms():
    rng = random.Random(35)
    for _ in range(20):
        alpha = random_sl_term(rng, "abc", rng.randint(1, 4))
        assert equiv(Sync(Star(alpha), Star(alpha)), Star(alpha)).equivalent


def test_agrees_with_brute_force():
    rng = random.Random(36)
    for _ in range(150):
        e = random_term(rng, "ab", rng.randint(1, 6))
        f = random_term(rng, "ab", rng.randint(1, 6))
        assert equiv(e, f).equivalent == brute_force_equiv(e, f)


def test_pair_cap():
    # Equivalent terms force the search to exhaust the pair space, which
    # trips a tiny cap.
    e = parse_term("a*")
    f = parse_term("1 + a ; a*")
    assert equiv(e, f).equivalent
    with pytest.raises(StateLimitError):
        equiv(e, f, pair_cap=0)
    # Also a ValueError, so the CLI reports it as a refused input.
    assert issubclass(StateLimitError, RuntimeError) and issubclass(StateLimitError, ValueError)


def test_witness_is_shortest():
    # a;a;b vs a;a;a differ first at length 3.
    result = equiv(parse_term("a ; a ; b"), parse_term("a ; a ; a"))
    assert not result.equivalent
    assert len(result.witness) == 3

    # Same language up to length 2, first difference at length 2.
    result = equiv(
        Plus(One(), Plus(Atom("a"), Seq(Atom("a"), Atom("a")))),
        Plus(One(), Atom("a")),
    )
    assert not result.equivalent
    assert len(result.witness) == 2


@settings(max_examples=300, deadline=None)
@given(_chain_terms, _chain_terms)
def test_matches_reference_on_left_nested_chains(e, f):
    # Both searches return the shortlex-least word in the symmetric
    # difference, whatever terms represent the states.
    assert equiv(e, f) == reference_equiv(e, f)
    assert equiv(Plus(e, f), Plus(f, e)) == EquivResult(True, None)


@settings(max_examples=300, deadline=None)
@given(term_strategy("ab"), term_strategy("ab"))
def test_matches_reference_on_random_terms(e, f):
    # Sets of several states arise here, so pairs that only a union of
    # processed pairs implies are skipped; the verdict and the witness stay
    # those of the search up to equivalence.
    assert equiv(e, f) == reference_equiv(e, f)


def _congruence_closure(pairs, universe):
    """The least equivalence on the subsets of ``universe`` that relates
    ``pairs`` and is closed under union, as a map from each subset to a
    class representative; found by adding one state to both sides of a
    related pair until nothing changes."""
    subsets = [frozenset(s for i, s in enumerate(universe) if bits >> i & 1)
               for bits in range(1 << len(universe))]
    cls = {s: s for s in subsets}

    def find(s):
        while cls[s] != s:
            s = cls[s]
        return s

    def join(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            cls[rx] = ry
            return True
        return False

    for x, y in pairs:
        join(x, y)
    changed = True
    while changed:
        changed = False
        for x in subsets:
            for y in subsets:
                if x != y and find(x) == find(y):
                    for state in universe:
                        changed |= join(x | {state}, y | {state})
    return find


_subsets_of_four = st.frozensets(st.integers(0, 3))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_subsets_of_four, _subsets_of_four), max_size=4),
       _subsets_of_four, _subsets_of_four)
def test_congruence_test_is_the_congruence_closure(pairs, x, y):
    congruence = equivalence._Congruence()
    for left, right in pairs:
        congruence.add(left, right)
    find = _congruence_closure(pairs, range(4))
    assert congruence.relates(x, y) == (find(x) == find(y))


def _power_pair(n):
    tail = " ; a" + " ; (a+b)" * n
    return parse_term("(a+b)*" + tail), parse_term("(a*;b*)*" + tail)


def test_product_unit_law_decides_the_commuted_pair_at_once():
    # A product's continuation drops a 1 operand, so each symbol leads both
    # sides of this commuted pair to the same set and the first pair
    # examined decides it. Built as 1 & e, the left side has 9 states and
    # the search examines 5 pairs.
    e = parse_term("(a & b + a + 1) & (c* + d)*")
    f = parse_term("(c* + d)* & (a & b + a + 1)")
    assert equiv(e, f, pair_cap=1) == EquivResult(True, None)
    assert len(explore(e).states) == 4


# Terms of ``&`` products over three letters: ``&`` is drawn twice as often
# as each other operator, and ``1`` is a leaf, so continuations meet 1.
_products = st.recursive(
    st.sampled_from([Zero(), One(), Atom("a"), Atom("b"), Atom("c")]),
    lambda children: st.one_of(
        st.builds(Sync, children, children),
        st.builds(Sync, children, children),
        st.builds(Plus, children, children),
        st.builds(Seq, children, children),
        st.builds(Star, children),
    ),
    max_leaves=6,
)


@settings(max_examples=200, deadline=None)
@given(_products, _products)
def test_products_against_bounded_semantics(e, f):
    # ``&`` commutes, and a verdict is checked against ``sem_bounded``,
    # which never reads a transition table: a witness is accepted by
    # exactly one side, and no shorter word tells the sides apart.
    assert equiv(Sync(e, f), Sync(f, e)) == EquivResult(True, None)
    result = equiv(e, f)
    if result.equivalent:
        assert sem_bounded(e, 3) == sem_bounded(f, 3)
    else:
        bound = len(result.witness)
        left, right = sem_bounded(e, bound), sem_bounded(f, bound)
        assert (result.witness in left) != (result.witness in right)
        assert {w for w in left.words if len(w) < bound} == {w for w in right.words if len(w) < bound}


def test_congruence_prunes_the_power_pair():
    # Up to equivalence the search examines 2^(n+1) + 1 pairs here; the
    # first three pairs already imply every later one by union.
    e, f = _power_pair(14)
    assert equiv(e, f, pair_cap=10) == EquivResult(True, None)


@pytest.mark.parametrize("n, cap", [(8, 130), (10, 514)])
def test_pair_cap_pins_the_examined_pairs(n, cap):
    # The witness a^(n+1) is found on the cap-th examined pair, so one pair
    # fewer raises. A search that skipped no popped pair would examine 2^n.
    e = parse_term("(a+b)* ; a" + " ; (a+b)" * n)
    f = parse_term("(a*;b*)* ; a" + " ; (a+b)" * (n - 1) + " ; b")
    assert equiv(e, f, pair_cap=cap) == EquivResult(False, (SymSet("a"),) * (n + 1))
    with pytest.raises(StateLimitError):
        equiv(e, f, pair_cap=cap - 1)


def _word_query(length):
    rng = random.Random(length)
    word = ";".join(rng.choice("ab") for _ in range(length))
    return parse_term("(a+b)* ; " + word), parse_term("(a*;b*)* ; " + word)


def test_word_query_creates_linearly_many_nodes(monkeypatch):
    # Every new compound node runs ``_Binary._build`` or ``_Unary._build``.
    created = []

    def counting(build):
        def counted(node, *operands):
            created.append(type(node))
            build(node, *operands)

        return counted

    for cls in (terms._Binary, terms._Unary):
        monkeypatch.setattr(cls, "_build", counting(cls._build))

    def nodes_created(length):
        e, f = _word_query(length)
        gc.collect()
        created.clear()
        assert equiv(e, f).equivalent
        return len(created)

    small, large = nodes_created(200), nodes_created(400)
    assert large <= 2.2 * small


def test_word_query_visits_linearly_many_rules(monkeypatch):
    # Saturation looks up the rules of each state it adds in the index; a
    # test that scanned every processed pair on every pop would visit
    # quadratically many.
    visited = []

    class CountingIndex(collections.defaultdict):
        def get(self, key, default=None):
            found = super().get(key, default)
            visited.append(len(found))
            return found

    plain_init = equivalence._Congruence.__init__

    def counting_init(congruence):
        plain_init(congruence)
        congruence.index = CountingIndex(list)

    monkeypatch.setattr(equivalence._Congruence, "__init__", counting_init)

    def rules_visited(length):
        visited.clear()
        assert equiv(*_word_query(length)).equivalent
        return sum(visited)

    small, large = rules_visited(200), rules_visited(400)
    assert 0 < small and large <= 2.2 * small


def test_member_of_a_long_chain():
    length = 5000
    letters = ["ab"[i % 2] for i in range(length)]
    word = tuple(SymSet(letter) for letter in letters)
    # Parsed, the chain nests to the right; built by constructors from its
    # first letter on, to the left, and its tables step over the spine.
    for chain in (parse_term(";".join(letters)), functools.reduce(Seq, map(Atom, letters))):
        assert member(word, chain)
        assert not member(word[:-1], chain)


def test_witness_of_a_long_chain():
    # The witness is a 3000-symbol word, rebuilt once from the queue's links.
    length = 3000
    letters = ["ab"[i % 2] for i in range(length)]
    chain = parse_term(";".join(letters))
    other = parse_term(";".join(letters[:-1] + ["c"]))
    result = equiv(chain, other)
    assert not result.equivalent
    assert result.witness == tuple(SymSet(letter) for letter in letters)
