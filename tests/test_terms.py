"""Interned terms: one node per structure, and facts kept on the node."""

import copy
import gc
import pickle
import random
import sys
import threading
import weakref

import pytest

from synka import (
    Atom,
    H,
    One,
    Plus,
    Seq,
    Star,
    Sync,
    Zero,
    equiv,
    h_free,
    is_sl_term,
    letters,
    nullable,
    parse_term,
    sem_bounded,
    size,
    to_normal_form,
    transitions,
)
from synka.checks import random_term


def _chain(length):
    """A left-nested ``;``-chain of ``length`` atoms, built with constructors."""
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
    with pytest.raises(TypeError):
        Plus("a", Atom("b"))
    with pytest.raises(TypeError):
        Star(["a"])
    with pytest.raises(ValueError):
        Atom("A")


def test_separately_built_deep_chains_are_one_node():
    # Twice the default recursion limit deep: a structural comparison
    # recurses once per level.
    first = _chain(2001)
    second = _chain(2001)
    assert first is second
    assert first == second
    assert len({first, second}) == 1


def test_facts_of_deep_chain_need_no_recursion():
    term = _chain(5000)
    assert not nullable(term)
    assert nullable(Star(term))
    assert letters(term) == frozenset("ab")
    assert h_free(term)
    assert not h_free(H(term))
    assert not is_sl_term(term)


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


def test_unreferenced_term_is_freed():
    # Letters no other test uses, so no table elsewhere holds these nodes.
    # A star's transition table reaches ``t ; star``, a cycle back to it.
    term = parse_term("(p + q;p)* & (p;q)*")
    refs = [weakref.ref(term), weakref.ref(term.left), weakref.ref(term.right)]
    transitions(term)
    assert not equiv(term, parse_term("(p;q)*")).equivalent
    to_normal_form(term)
    sem_bounded(term, 2)
    del term
    gc.collect()
    assert all(ref() is None for ref in refs)


@pytest.mark.parametrize("text", ["0", "1", "a", "(a ; b)* & H(c + 1)", "H(a)* + 0 ; 1"])
def test_pickle_and_copy_give_the_interned_node(text):
    term = parse_term(text)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(term, protocol)) is term
    assert copy.copy(term) is term
    assert copy.deepcopy(term) is term


def test_deep_copy_of_a_deep_term_is_the_node():
    # Far past the recursion limit; an immutable node is its own deep copy.
    chain = _chain(5000)
    assert copy.deepcopy(chain) is chain


def _doubling(k):
    """t(k + 1) = t(k) ; a + t(k), from t(0) = a."""
    term = Atom("a")
    for _ in range(k):
        term = Plus(Seq(term, Atom("a")), term)
    return term


@pytest.mark.parametrize("term", [_chain(5000), _doubling(60)], ids=["chain", "doubling"])
def test_pickle_of_a_deep_or_shared_term_is_the_node(term):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(term, protocol)) is term


def test_size_counts_tree_nodes_without_recursion():
    assert size(parse_term("a")) == 1
    assert size(parse_term("(a ; b)* & H(a + 1)")) == 9
    assert size(_chain(5000)) == 9999
    # t(k+1) = t(k) ; a + t(k) has 2k + 1 distinct nodes, but 4 * 2^k - 3
    # nodes as a tree.
    assert size(_doubling(60)) == 4 * 2**60 - 3
