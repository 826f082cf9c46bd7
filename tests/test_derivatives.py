import random
import string

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (old_then, reachable_terms, reference_closure, reference_derive, reference_print,
                     reference_reachable_states, reference_right_nested, reference_sync,
                     reference_then, right_nested, term_strategy)
from synka import (
    Atom,
    H,
    One,
    Seq,
    Star,
    SymSet,
    Sync,
    Zero,
    build_system,
    explore,
    letters,
    member,
    nonempty_subsets,
    nullable,
    parse_term,
    parse_word,
    sem_bounded,
    step,
    to_dot,
    transitions,
    unfold,
    unfold_as_term,
)
from synka.checks import check_derivatives, random_term
from synka.terms import postorder, printed_forms


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
    # The partial derivative by a symbol is the table's entry for it; a
    # symbol the term cannot read has no entry.
    assert transitions(Atom("a")) == {SymSet("a"): frozenset((One(),))}
    # Only the split left={a}, right={b} survives on a & b; the guard
    # cases vanish since neither operand accepts the empty word. The
    # continuation 1 & 1 is 1 by the unit law.
    assert transitions(parse_term("a & b")) == {SymSet("ab"): frozenset((One(),))}
    assert transitions(H(parse_term("a*"))) == {}
    assert transitions(Zero()) == {}
    assert transitions(One()) == {}


def test_derive_guard_cases():
    # a* & b steps on {b} because the left operand accepts the empty word.
    table = transitions(parse_term("a* & b"))
    assert table[SymSet("b")] == frozenset((One(),))
    # ...and on {a,b} through the product split, where a* continues as
    # itself and b as 1, so the continuation a* & 1 is a* by the unit law.
    assert table[SymSet("ab")] == frozenset((Star(Atom("a")),))


def test_derive_outside_support_is_empty():
    rng = random.Random(4)
    for _ in range(100):
        table = transitions(random_term(rng, "ab", rng.randint(1, 8)))
        assert SymSet("c") not in table
        assert SymSet("ac") not in table


@settings(max_examples=300)
@given(st.sampled_from(["a", "ab", "abc", "abcd"]).flatmap(term_strategy))
def test_derive_matches_reference(term):
    absent = min(set(string.ascii_lowercase) - letters(term))
    table = transitions(term)
    for symbol in nonempty_subsets(letters(term) | {absent}):
        assert table.get(symbol, frozenset()) == reference_derive(term, symbol), (term, symbol)


def test_reach_examples():
    assert reachable_terms(Atom("a")) == frozenset((One(), Atom("a")))
    assert reachable_terms(H(parse_term("a ; b"))) == frozenset((One(),))
    a_star = parse_term("a*")
    assert reachable_terms(a_star) == frozenset((One(), a_star, Seq(Atom("a"), a_star)))
    assert reachable_terms(Zero()) == frozenset()


def test_reach_closed_under_derivatives():
    rng = random.Random(5)
    for _ in range(150):
        term = random_term(rng, "ab", rng.randint(1, 9))
        reach = reachable_terms(term)
        assert set(explore(term).states) <= reach | {term}
        for state in reach | {term}:
            for targets in transitions(state).values():
                assert targets <= reach


@settings(max_examples=150)
@given(term_strategy("ab") | term_strategy("abc", max_leaves=6))
def test_states_reached_from_parsed_text_are_right_nested(term):
    # Text in which no ``;`` operand of a ``;`` is parenthesised parses
    # nested to the right, and so is every state its transitions reach.
    parsed = parse_term(reference_print(reference_right_nested(term)))
    for state in explore(parsed).states:
        assert right_nested(state), state


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["a", "ab", "abc"]).flatmap(
    lambda alphabet: term_strategy(alphabet, max_leaves=6)))
@example(parse_term("a* ; b"))
@example(parse_term("(1 ; a)* & b ; H(c + 1)"))
@example(parse_term("1 ; a*"))
def test_unit_rule_keeps_the_language_with_fewer_targets_and_states(term):
    # Against the rule without the unit law, where an atom steps to ``1 ; e``:
    # each symbol's targets denote the same language, and there are never
    # more of them or more states that a step reaches. The start state is
    # left out of the count, as it is a state either way: ``1 ; a*`` steps
    # to itself without the unit law, but to ``a*`` with it.
    _assert_fewer_targets_and_states_than(term, old_then, reference_sync)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["a", "ab", "abc"]).flatmap(
    lambda alphabet: term_strategy(alphabet, max_leaves=6)))
@example(parse_term("a & b"))
@example(parse_term("(a & b)*"))
@example(parse_term("a* & b ; (1 & c)"))
def test_product_unit_rule_keeps_the_language_with_fewer_targets_and_states(term):
    # Against the product rule without the unit law, where ``a & b`` steps
    # to ``1 & 1``: the same holds. ``(a & b)*`` reaches one state with the
    # unit law, itself, but two without it.
    _assert_fewer_targets_and_states_than(term, reference_then, Sync)


def _assert_fewer_targets_and_states_than(term, then, sync):
    """Against the derivatives of ``reference_derive`` with continuations
    built by ``then`` and ``sync``, each symbol's targets in ``term``'s
    table are no more and denote the same language up to length 3, and the
    steps from its states reach no more states."""
    table = transitions(term)
    symbols = nonempty_subsets(letters(term))
    for symbol in symbols:
        new = table.get(symbol, frozenset())
        old = reference_derive(term, symbol, then, sync)
        assert len(new) <= len(old), (term, symbol)
        assert (set().union(*(sem_bounded(t, 3).words for t in new))
                == set().union(*(sem_bounded(t, 3).words for t in old))), (term, symbol)
    reached = {target for state in explore(term).states
               for targets in transitions(state).values() for target in targets}
    reached_old = {target for state in reference_closure(term, then, sync)
                   for symbol in symbols for target in reference_derive(state, symbol, then, sync)}
    assert len(reached) <= len(reached_old)


@settings(max_examples=150)
@given(term_strategy("ab", allow_one=False) | term_strategy("abc", max_leaves=6, allow_one=False))
def test_no_state_reached_from_text_without_one_is_a_unit_sequence(term):
    # Written without ``1``, a term reaches no ``1 ; e`` anywhere in a state.
    for state in explore(term).states:
        assert not any(type(node) is Seq and node.left is One() for node in postorder(state)), state


@settings(max_examples=150)
@given(term_strategy("ab", allow_one=False) | term_strategy("abc", max_leaves=6, allow_one=False))
@example(parse_term("(a & b)*"))
@example(parse_term("a* & b ; c"))
def test_no_state_reached_from_text_without_one_has_a_unit_product(term):
    # Written without ``1``, a term reaches no ``1 & e`` or ``e & 1`` anywhere
    # in a state.
    for state in explore(term).states:
        assert not any(type(node) is Sync and One() in (node.left, node.right)
                       for node in postorder(state)), state


def test_build_automaton_lists_only_reached_states():
    # The syntactic over-approximation lists 20 states here.
    assert len(explore(parse_term("(a+b;a)* & (a+b;a)*")).states) == 6


def test_reachable_states_sorted_by_printed_form():
    # The explored term first, then the other states by printed form.
    rng = random.Random(7)
    for _ in range(100):
        term = random_term(rng, "ab", rng.randint(1, 9))
        states = explore(term).states
        assert states == reference_reachable_states(term)
        assert len(set(states)) == len(states)


@settings(max_examples=200)
@given(term_strategy())
def test_explore_numbers_the_term_first_in_every_layer(term):
    automaton = explore(term)
    states = automaton.states
    assert states[0] is term
    rest = [str(state) for state in states[1:]]
    assert rest == sorted(rest)
    assert build_system(term).states == states
    lines = to_dot(automaton).splitlines()
    assert lines[3].startswith('  "%s" [shape=' % term)
    assert lines[3 + len(states)] == '  __start -> "%s";' % term


@settings(max_examples=100)
@given(st.sampled_from(["a", "ab", "abc"]).flatmap(term_strategy))
def test_explore_numbers_the_tables(term):
    automaton = explore(term)
    states = automaton.states
    assert states == reference_reachable_states(term)
    assert states[0] is term
    assert list(automaton.forms) == [str(state) for state in states]
    assert len(automaton.rows) == len(states)
    index = {state: i for i, state in enumerate(states)}
    for state, row in zip(states, automaton.rows):
        table = transitions(state)
        assert row == [(symbol, sorted(index[t] for t in table[symbol]))
                       for symbol in sorted(table)]
    edges = sum(len(targets) for row in automaton.rows for _, targets in row)
    assert edges == sum(len(targets) for q in states for targets in transitions(q).values())


def test_reach_finite_on_large_terms():
    rng = random.Random(6)
    for _ in range(40):
        term = random_term(rng, "abc", 30)
        assert len(reachable_terms(term)) < 200_000


def test_build_automaton_zero():
    assert explore(Zero()).states == (Zero(),)
    assert transitions(Zero()) == {}
    assert not nullable(Zero())


def test_build_automaton_letter():
    assert explore(Atom("a")).states == (Atom("a"), One())
    assert transitions(Atom("a")) == {SymSet("a"): frozenset((One(),))}
    assert transitions(One()) == {}
    assert nullable(One()) and not nullable(Atom("a"))


def test_automaton_state_bound():
    term = parse_term("(a+b)* & (a+b)*")
    assert len(explore(term).states) <= len(reachable_terms(term)) + 1


def test_accepts_examples():
    assert member(parse_word("{a,b}"), parse_term("a & b"))
    assert not member((), Atom("a"))
    assert member(parse_word("{a}{a}{a}"), parse_term("a* & a*"))
    # Symbols the term cannot read reject immediately.
    assert not member(parse_word("{b}"), Atom("a"))


def test_acceptance_matches_bounded_semantics():
    rng = random.Random(8)
    for _ in range(120):
        term = random_term(rng, "ab", rng.randint(1, 10))
        expected = sem_bounded(term, 3)
        for symbols in _all_words("ab", 3):
            assert member(symbols, term) == (symbols in expected)


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
    assert unfold(parse_term("a & b")) == (False, [(SymSet("ab"), One())])


def test_unfold_reassembles_to_same_language():
    rng = random.Random(9)
    for _ in range(150):
        term = random_term(rng, "ab", rng.randint(1, 10))
        assert sem_bounded(unfold_as_term(term), 4) == sem_bounded(term, 4)


def test_unfold_term_shape():
    # o(a) + {a}-atom ; 1, kept literal
    from synka import Plus

    assert unfold_as_term(Atom("a")) == Plus(Zero(), Seq(Atom("a"), One()))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["a", "ab", "abc", "abcd", "abcde"]).flatmap(term_strategy))
def test_unfold_lists_the_table_by_symbol_then_printed_continuation(term):
    assert unfold(term)[1] == sorted(
        ((symbol, target) for symbol, targets in transitions(term).items() for target in targets),
        key=lambda pair: (pair[0], str(pair[1])))


def test_unfold_prints_the_continuations_of_a_wide_product_in_one_walk(monkeypatch):
    # Three-fold (a+b+c+d)* reads every set of one to three letters, but
    # those 14 symbols reach only 3 distinct target sets; 10 of them have
    # more than one continuation, and one walk prints them all.
    term = parse_term(" & ".join(["(a+b+c+d)*"] * 3))
    table = transitions(term)
    assert len(table) == 14
    assert len(set(table.values())) == 3
    assert sum(len(targets) > 1 for targets in table.values()) == 10
    calls = []

    def counted(terms):
        calls.append(terms)
        return printed_forms(terms)

    monkeypatch.setattr("synka.derivatives.printed_forms", counted)
    empty_part, summands = unfold(term)
    assert len(calls) == 1
    assert empty_part and len(summands) == sum(map(len, table.values()))


@pytest.mark.parametrize("text, k", [("(a+b+c+d+e+f)*", 2), ("(a+b+c+d+e+f)*", 3), ("(a+b;a)*", 3)])
def test_wide_product_tables_match_reference(text, k):
    # Products of many-letter stars, where many symbol pairs share one pair
    # of continuation sets, at every state and on every symbol.
    term = parse_term(" & ".join([text] * k))
    for state in explore(term).states:
        table = transitions(state)
        for symbol in nonempty_subsets(letters(term)):
            assert table.get(symbol, frozenset()) == reference_derive(state, symbol), (state, symbol)


def test_to_dot_names_each_state_by_its_printed_form():
    automaton = explore(parse_term(" & ".join(["(a+b;a)*"] * 7)))
    states = automaton.states
    lines = to_dot(automaton).splitlines()
    assert lines[3:3 + len(states)] == [
        '  "%s" [shape=%s];' % (state, "doublecircle" if nullable(state) else "circle")
        for state in states
    ]


def test_to_dot():
    dot = to_dot(explore(Atom("a")))
    assert dot.startswith("digraph {")
    assert '"a" -> "1" [label="{a}"];' in dot
    assert '"1" [shape=doublecircle];' in dot
    assert '"a" [shape=circle];' in dot
    # The start state, then the others by printed form, then each state's
    # edges by symbol and target.
    assert to_dot(explore(parse_term("a + a;b"))).splitlines() == [
        "digraph {",
        "  rankdir=LR;",
        '  __start [shape=point, label=""];',
        '  "a + a ; b" [shape=circle];',
        '  "1" [shape=doublecircle];',
        '  "b" [shape=circle];',
        '  __start -> "a + a ; b";',
        '  "a + a ; b" -> "1" [label="{a}"];',
        '  "a + a ; b" -> "b" [label="{a}"];',
        '  "b" -> "1" [label="{b}"];',
        "}",
    ]


def _without_ab(states):
    """``step`` that drops every ``{a,b}`` transition."""
    table = step(states)
    table.pop(SymSet("ab"), None)
    return table


def _with_c_loop(states):
    """``step`` that adds a ``{c}`` self-loop to every set of states."""
    table = step(states)
    table[SymSet("c")] = table.get(SymSet("c"), frozenset()) | frozenset(states)
    return table


@pytest.mark.parametrize("mutant, line, counts", [
    (_without_ab, "FAIL derivative soundness: 96/100", [1, 4, 4]),
    (_with_c_loop, "FAIL derivative soundness: 28/100", [25, 16, 35]),
])
def test_derivative_suite_counts_the_words_a_broken_step_gets_wrong(monkeypatch, mutant, line,
                                                                    counts):
    # The suite walks only the symbols step reads and counts the expected
    # words through any other symbol by prefix; these are the reports of a
    # walk over every symbol, one word at a time.
    monkeypatch.setattr("synka.checks.step", mutant)
    [result] = check_derivatives(3, iters=100)
    assert result.line() == line
    assert [detail.split(" mismatches on ")[1] for detail in result.details] == [
        "%d words" % count for count in counts]


def test_derivative_suite_answers_on_every_letter():
    # A word over 26 letters continues with any of 2^26 - 1 symbols, so the
    # suite follows only those the automaton reads.
    [result] = check_derivatives(1, iters=30, alphabet=string.ascii_lowercase)
    assert result.line() == "pass derivative soundness: 30/30"
