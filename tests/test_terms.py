"""Interned terms: one node per structure, and facts kept on the node."""

import copy
import gc
import pickle
import random
import sys
import threading
import weakref

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (reference_facts, reference_first_h, reference_postorder, reference_print,
                     reference_then, sl_term_strategy, term_strategy)
from synka import (
    Atom,
    Fragments,
    H,
    HTermError,
    One,
    Plus,
    Seq,
    Star,
    Sync,
    Zero,
    classify,
    equiv,
    letters,
    nullable,
    parse_term,
    sem_bounded,
    size,
    to_normal_form,
    transitions,
)
from synka import terms
from synka.checks import random_term
from synka.terms import TERM_OPS, Ops, evaluate, postorder, printed_forms, then


def _chain(length):
    """The ``;``-chain ``a ; b ; a ; ...`` of ``length`` atoms, nested to the
    right as the parser builds it, with constructors."""
    term = Atom("ab"[(length - 1) % 2])
    for i in reversed(range(length - 1)):
        term = Seq(Atom("ab"[i % 2]), term)
    return term


def _left_chain(length):
    """The same chain nested to the left, as written parentheses give it."""
    term = Atom("a")
    for i in range(1, length):
        term = Seq(term, Atom("ab"[i % 2]))
    return term


def test_equal_structure_is_one_node():
    assert Atom("a") is Atom("a")
    assert Zero() is Zero() and One() is One()
    assert parse_term("(a;b)* & c") is Sync(Star(Seq(Atom("a"), Atom("b"))), Atom("c"))
    assert parse_term("H(a + 1)") is H(Plus(Atom("a"), One()))
    # Class and operand order are part of the structure.
    assert Seq(Atom("a"), Atom("b")) is not Sync(Atom("a"), Atom("b"))
    assert Plus(Atom("a"), Atom("b")) != Plus(Atom("b"), Atom("a"))


def test_constructors_reject_bad_operands():
    gc.collect()
    baseline = len(terms._NODES)
    with pytest.raises(TypeError):
        Plus("a", Atom("b"))
    with pytest.raises(TypeError):
        Star(["a"])
    assert len(terms._NODES) == baseline
    with pytest.raises(ValueError):
        Atom("A")


def _doubling(k):
    """t(k + 1) = t(k) ; a + t(k), from t(0) = a."""
    term = Atom("a")
    for _ in range(k):
        term = Plus(Seq(term, Atom("a")), term)
    return term


def _product_doubling(k):
    """t(k + 1) = t(k) & t(k), from t(0) = a & b: k + 3 distinct nodes, and
    2^(k + 2) - 1 nodes as a tree."""
    term = Sync(Atom("a"), Atom("b"))
    for _ in range(k):
        term = Sync(term, term)
    return term


def test_separately_built_deep_chains_are_one_node():
    # Twice the default recursion limit deep: a structural comparison
    # recurses once per level.
    for chain in (_chain, _left_chain):
        first = chain(2001)
        second = chain(2001)
        assert first is second
        assert first == second
        assert len({first, second}) == 1


def test_facts_of_deep_chain_need_no_recursion():
    # Far past the recursion limit, and DAGs whose trees have 4 * 2^60 - 3
    # and 2^60 - 1 nodes, so each walk must visit only the distinct nodes.
    cases = [
        (_chain(5000), "ab", Fragments(sl=False, ska=True, nsf=True)),
        (_left_chain(5000), "ab", Fragments(sl=False, ska=True, nsf=True)),
        (_doubling(60), "a", Fragments(sl=False, ska=True, nsf=True)),
        (_product_doubling(58), "ab", Fragments(sl=True, ska=True, nsf=False)),
    ]
    for term, used, fragments in cases:
        assert not nullable(term)
        assert nullable(Star(term))
        assert letters(term) == frozenset(used)
        assert classify(term) == fragments
        assert classify(Star(term)) == Fragments(sl=False, ska=True, nsf=fragments.nsf)
        assert classify(H(term)) == Fragments(sl=False, ska=False, nsf=False)


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_threads_build_one_node_per_structure(seed):
    def build(out):
        rng = random.Random(seed)
        out.extend(random_term(rng, "abc", rng.randint(1, 30)) for _ in range(200))

    built = [[] for _ in range(4)]
    threads = [threading.Thread(target=build, args=(out,)) for out in built]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(len(out) == 200 for out in built)
    for terms in zip(*built):
        assert all(term is terms[0] for term in terms)


def test_threads_building_and_dropping_terms_share_nodes():
    # In each round the threads drop their terms, wait for one another and
    # build the same terms again at once, so they race to enter each new
    # node. Transition tables make cycles, so some dropped nodes wait for
    # the collector, which may clear their references while other threads
    # build the same structures.
    def build(out, barrier=None, rounds=30):
        for _ in range(rounds):
            out.clear()
            if barrier is not None:
                barrier.wait()
            rng = random.Random(17)
            out.extend(random_term(rng, "xyz", rng.randint(1, 12)) for _ in range(40))
            for term in out[::3]:
                transitions(term)

    # A first round fills the tables of nodes that outlive the test.
    build([], rounds=1)
    gc.collect()
    baseline = len(terms._NODES)
    built = [[] for _ in range(4)]
    barrier = threading.Barrier(len(built), timeout=60)
    threads = [threading.Thread(target=build, args=(out, barrier)) for out in built]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for built_terms in zip(*built):
        assert all(term is built_terms[0] for term in built_terms)
    del built, built_terms
    gc.collect()
    assert len(terms._NODES) == baseline


def test_dead_entry_is_replaced_and_its_callback_keeps_the_new_node():
    # A reference whose node died before its callback ran, planted under
    # the key of a node that does not exist yet.
    gc.collect()
    left, right = Atom("v"), Atom("w")
    key = (Seq, id(left), id(right))
    assert key not in terms._NODES
    dead = terms._Ref(frozenset({"v"}), None)
    dead.key = key
    assert dead() is None
    terms._NODES[key] = dead
    node = Seq(left, right)
    assert terms._NODES[key]() is node
    terms._forget(dead)
    assert terms._NODES[key]() is node
    assert Seq(left, right) is node
    # A node built by a thread that lost the race to enter it is dropped,
    # and the entry keeps the live node.
    loser = object.__new__(Seq)
    loser._build(left, right)
    assert terms._enter(key, loser) is node
    del loser
    assert terms._NODES[key]() is node
    del node
    gc.collect()
    assert key not in terms._NODES


def test_dead_entry_is_kept_when_another_thread_enters_the_node_first(monkeypatch):
    # The entry under a key is dead when ``_enter`` first looks, and another
    # thread enters the same structure before the dead entry is removed: the
    # constructor must return that thread's node, not enter its own.
    gc.collect()
    left, right = Atom("v"), Atom("w")
    key = (Sync, id(left), id(right))
    assert key not in terms._NODES
    dead = terms._Ref(frozenset({"v"}), None)
    dead.key = key
    assert dead() is None
    other = object.__new__(Sync)
    other._build(left, right)
    other_ref = terms._Ref(other, terms._forget)
    other_ref.key = key

    class Racing(dict):
        raced = False

        def setdefault(self, entry_key, default=None):
            if entry_key == key and not Racing.raced:
                Racing.raced = True
                self[key] = other_ref
                return dead
            return super().setdefault(entry_key, default)

    table = Racing({key: dead})
    monkeypatch.setattr(terms, "_NODES", table)
    assert Sync(left, right) is other
    assert Racing.raced
    assert table[key] is other_ref


def test_unreferenced_term_is_freed():
    # Letters no other test uses, so no table elsewhere holds these nodes.
    # A star's transition table reaches ``t ; star`` or the star itself, a
    # cycle back to it.
    term = parse_term("(p + q;p)* & (p;q)*")
    refs = [weakref.ref(term), weakref.ref(term.left), weakref.ref(term.right)]
    transitions(term)
    assert not equiv(term, parse_term("(p;q)*")).equivalent
    to_normal_form(term)
    sem_bounded(term, 2)
    del term
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_intern_table_forgets_dead_nodes():
    gc.collect()
    baseline = len(terms._NODES)
    chain = Atom("p")
    built = []
    for i in range(10_000):
        chain = Seq(chain, Atom("pq"[i % 2]))
        built.append(Star(chain))
    assert len(terms._NODES) == baseline + 20_000
    del chain, built
    gc.collect()
    assert len(terms._NODES) == baseline


def test_then_nests_the_chain_of_its_first_operand_to_the_right():
    assert then(parse_term("(a ; b) ; (c ; d)*"), Atom("e")) is parse_term("a ; b ; (c ; d)* ; e")
    assert then(parse_term("a + b"), Atom("c")) is Seq(parse_term("a + b"), Atom("c"))
    # The unit law drops every ``1`` factor of ``first``, not of ``rest``.
    assert then(One(), Atom("c")) is Atom("c")
    assert then(parse_term("(1 ; a) ; 1"), parse_term("1 ; c")) is parse_term("a ; 1 ; c")
    # Far past the recursion limit, and only the chain of ``first``: the
    # left-nested ``rest`` is kept as it is.
    assert then(_left_chain(5000), _left_chain(2)) is then(_chain(5000), _left_chain(2))
    assert then(_chain(4999), Atom("b")) is _chain(5000)


def test_chain_lists_the_operands_left_to_right():
    a, b, c = Atom("a"), Atom("b"), Atom("c")
    assert terms.chain(Plus(Plus(a, Seq(b, c)), Plus(c, a)), Plus) == [a, Seq(b, c), c, a]
    # A term of another class is its own only operand.
    assert terms.chain(Seq(b, c), Plus) == [Seq(b, c)]
    assert terms.chain(One(), Seq) == [One()]
    # Far past the recursion limit, nested either way.
    atoms = [Atom("ab"[i % 2]) for i in range(5000)]
    assert terms.chain(_chain(5000), Seq) == terms.chain(_left_chain(5000), Seq) == atoms


@given(term_strategy("ab"), term_strategy("ab"))
def test_then_denotes_the_sequence_and_nests_its_spine(first, rest):
    # The language of ``first ; rest``, and down the spine to ``rest`` no
    # ``;`` has a ``;`` or ``1`` as its left operand.
    result = then(first, rest)
    assert sem_bounded(result, 3) == sem_bounded(Seq(first, rest), 3)
    assert result is reference_then(first, rest)
    node = result
    while node is not rest:
        assert type(node) is Seq and type(node.left) not in (Seq, One)
        node = node.right


@pytest.mark.parametrize("text", ["0", "1", "a", "(a ; b)* & H(c + 1)", "H(a)* + 0 ; 1"])
def test_pickle_and_copy_give_the_interned_node(text):
    term = parse_term(text)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(term, protocol)) is term
    assert copy.copy(term) is term
    assert copy.deepcopy(term) is term


def test_deep_copy_of_a_deep_term_is_the_node():
    # Far past the recursion limit; an immutable node is its own deep copy.
    for chain in (_chain(5000), _left_chain(5000)):
        assert copy.deepcopy(chain) is chain


@pytest.mark.parametrize("term", [_chain(5000), _left_chain(5000), _doubling(60)],
                         ids=["chain", "left-chain", "doubling"])
def test_pickle_of_a_deep_or_shared_term_is_the_node(term):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(term, protocol)) is term


def test_size_counts_tree_nodes_without_recursion():
    assert size(parse_term("a")) == 1
    assert size(parse_term("(a ; b)* & H(a + 1)")) == 9
    assert size(_chain(5000)) == size(_left_chain(5000)) == 9999
    # t(k+1) = t(k) ; a + t(k) has 2k + 1 distinct nodes, but 4 * 2^k - 3
    # nodes as a tree.
    assert size(_doubling(60)) == 4 * 2**60 - 3


def _sharing(x, y):
    return Sync(Seq(Plus(x, y), Star(y)), Plus(H(x), Seq(y, x)))


@given(term_strategy("ab") | st.builds(_sharing, term_strategy("ab"), term_strategy("ab")))
def test_postorder_matches_recursive_walk(term):
    nodes = list(postorder(term))
    assert nodes == reference_postorder(term)
    assert len(set(nodes)) == len(nodes)


@given(term_strategy("abc") | sl_term_strategy()
       | st.builds(_sharing, term_strategy("ab"), term_strategy("ab")))
def test_facts_match_reference(term):
    # The facts a node records, and those that walks find, at every node.
    for t in postorder(term):
        fragments = classify(t)
        facts = (t._nullable, fragments.ska, fragments.sl, fragments.nsf, letters(t))
        assert facts == reference_facts(t)


def test_postorder_of_deep_and_shared_terms():
    assert len(list(postorder(_chain(5000)))) == len(list(postorder(_left_chain(5000)))) == 5001
    assert len(list(postorder(_doubling(60)))) == 2 * 60 + 1


@given(term_strategy("abc") | st.builds(_sharing, term_strategy("ab"), term_strategy("ab")))
def test_evaluate_in_the_term_model_rebuilds_the_term(term):
    assert evaluate(term, TERM_OPS, Atom) is term


def test_evaluate_without_h_rejects_h():
    bare = TERM_OPS._replace(h=None)
    with pytest.raises(HTermError, match=r"H: H\(H\(a\)\)$") as info:
        evaluate(parse_term("H(H(a)) + H(b)"), bare, Atom)
    assert isinstance(info.value, ValueError)
    assert evaluate(parse_term("a ; b*"), bare, Atom) is parse_term("a ; b*")


@given(term_strategy("ab") | st.builds(_sharing, term_strategy("ab"), term_strategy("ab")))
def test_evaluate_without_h_names_the_leftmost_outermost_h(term):
    first = reference_first_h(term)
    bare = TERM_OPS._replace(h=None)
    if first is None:
        assert evaluate(term, bare, Atom) is term
    else:
        with pytest.raises(HTermError) as info:
            evaluate(term, bare, Atom)
        assert str(info.value) == "the model does not interpret H: %s" % first


def test_evaluate_substitutes_letters():
    swap = {"a": Atom("b"), "b": parse_term("c*")}
    assert evaluate(parse_term("a ; b + H(a & 1)"), TERM_OPS, swap.__getitem__) is parse_term(
        "b ; c* + H(b & 1)")


def test_evaluate_of_deep_and_shared_terms():
    # Far past the recursion limit, and, in a model that counts tree nodes,
    # a term of 2 * 60 + 1 distinct nodes and 4 * 2^60 - 3 tree nodes.
    add = lambda *counts: 1 + sum(counts)  # noqa: E731
    tree_size = Ops(plus=add, dot=add, sync=add, star=add, zero=1, one=1, h=add)
    for chain in (_chain(5000), _left_chain(5000)):
        assert evaluate(chain, TERM_OPS, Atom) is chain
        assert evaluate(chain, tree_size, lambda _: 1) == size(chain)
    assert evaluate(_doubling(60), tree_size, lambda _: 1) == 4 * 2**60 - 3


@given(st.lists(term_strategy("ab") | st.builds(_sharing, term_strategy("ab"), term_strategy("ab")),
                min_size=1, max_size=4))
def test_printed_forms_of_terms_that_share_nodes(ts):
    # Each term, every node of it and the terms' products, so later terms
    # repeat nodes that earlier ones printed, some of them whole.
    ts = [*ts, *(t for term in ts for t in postorder(term)), *(Sync(s, t) for s in ts for t in ts)]
    assert printed_forms(ts) == [str(t) for t in ts] == [reference_print(t) for t in ts]


def test_printed_forms_of_deep_and_shared_terms():
    # ``_chain(2500)`` is the second half of ``_chain(5000)``.
    chain, left = _chain(5000), _left_chain(5000)
    ts = [chain, chain.right, _chain(2500), Seq(chain, chain), chain, Atom("a"), left, left.left]
    forms = printed_forms(ts)
    assert forms == [str(t) for t in ts]
    text = ["ab"[i % 2] for i in range(5000)]
    assert forms[0] == " ; ".join(text)
    assert forms[2] == " ; ".join(text[2500:])
    assert forms[3] == "(%s) ; %s" % (forms[0], forms[0])
    # A chain nested to the left parenthesises each left operand but the first.
    assert forms[6] == "(" * 4998 + "a ; " + ") ; ".join(text[1:])
    # Sixteen levels of ``t & t``: 18 distinct nodes, 2^18 - 1 as a tree.
    products = [_product_doubling(k) for k in range(16)]
    forms = printed_forms(products)
    assert forms == [str(t) for t in products]
    assert forms[1] == "a & b & (a & b)"
    assert printed_forms([]) == []
