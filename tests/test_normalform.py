import random

import pytest
from hypothesis import given, settings

from helpers import reference_build_system, reference_solve, term_strategy
from synka import (
    Atom,
    LinearSystem,
    NotGuardedError,
    One,
    Plus,
    Seq,
    Star,
    SymSet,
    Sync,
    Zero,
    build_system,
    canonical_atom,
    classify,
    equiv,
    format_system,
    parse_term,
    parse_word,
    print_term,
    sem_bounded,
    size,
    solve,
    to_normal_form,
)
from synka.checks import random_term


def test_build_system_letter():
    system = build_system(Atom("a"))
    assert system.states == (Atom("a"), One())
    assert system.matrix[(Atom("a"), One())] == Atom("a")
    assert system.matrix[(Atom("a"), Atom("a"))] == Zero()
    assert system.matrix[(One(), One())] == Zero()
    assert system.matrix[(One(), Atom("a"))] == Zero()
    assert system.vector[Atom("a")] == Zero()
    assert system.vector[One()] == One()


def test_build_system_zero():
    system = build_system(Zero())
    assert system.states == (Zero(),)
    assert system.matrix[(Zero(), Zero())] == Zero()
    assert system.vector[Zero()] == Zero()


@pytest.mark.parametrize("text", ["(a+b;a)* & (a+b;a)*", "(a;b)* & (b;a)*"])
def test_build_system_counts_only_reached_states(text):
    # The syntactic over-approximation lists 31 and 35 states here.
    assert len(build_system(parse_term(text)).states) == 7


@settings(max_examples=200)
@given(term_strategy("a") | term_strategy("ab") | term_strategy("abc", max_leaves=6))
def test_build_system_matches_reference(term):
    system = build_system(term)
    reference = reference_build_system(term)
    assert set(system.states) <= set(reference.states)
    positions = [reference.states.index(state) for state in system.states]
    assert positions == sorted(positions)
    assert print_term(reference_solve(system)[term]) == print_term(reference_solve(reference)[term])


@settings(max_examples=150, deadline=None)
@given(term_strategy("ab") | term_strategy("abc", max_leaves=6))
def test_solve_matches_reference(term):
    system = build_system(term)
    normal = solve(system)[term]
    assert classify(normal).nsf
    assert equiv(normal, reference_solve(system)[term]).equivalent


def test_bisimilar_states_share_one_solution():
    term = parse_term("(a+b;a)* & (a+b;a)*")
    system = build_system(term)
    solution = solve(system)
    assert len(system.states) == 7
    assert len({id(value) for value in solution.values()}) == 5
    after_a = parse_term("1;(a+b;a)* & 1;(a+b;a)*")
    assert solution[after_a] is solution[term]
    left = parse_term("1;(a+b;a)* & 1;a;(a+b;a)*")
    right = parse_term("1;a;(a+b;a)* & 1;(a+b;a)*")
    assert solution[left] is solution[right]


def _power(k):
    return parse_term(" & ".join(["(a+b;a)*"] * k))


def test_product_normal_forms_stay_small():
    # Without the quotient the four-fold form has 7,164,566 tree nodes and
    # the five-fold one about 1e12.
    assert size(to_normal_form(_power(4))) <= 2000
    term = _power(5)
    normal = to_normal_form(term)
    assert size(normal) <= 13000
    assert classify(normal).nsf
    assert parse_term(print_term(normal)) is normal


def test_build_system_sync_entry():
    term = parse_term("a & b")
    system = build_system(term)
    assert system.matrix[(term, Sync(One(), One()))] == canonical_atom(SymSet("ab"))


def test_build_system_entries_are_normal_form():
    rng = random.Random(41)
    for _ in range(50):
        term = random_term(rng, "ab", rng.randint(1, 8))
        system = build_system(term)
        for entry in system.matrix.values():
            assert classify(entry).nsf
        for entry in system.vector.values():
            assert classify(entry).nsf


def test_solve_empty_system():
    assert solve(LinearSystem(states=(), matrix={}, vector={})) == {}


def test_solve_arden_instance():
    # One state q with q = a.q + 1; the solution is a*.
    q = Atom("q")
    system = LinearSystem(
        states=(q,),
        matrix={(q, q): Atom("a")},
        vector={q: One()},
    )
    solution = solve(system)
    assert equiv(solution[q], Star(Atom("a"))).equivalent
    # Solution property: a . x + 1 is equivalent to x.
    assert equiv(Plus(Seq(Atom("a"), solution[q]), One()), solution[q]).equivalent


def test_solve_rejects_unguarded():
    q = Atom("q")
    system = LinearSystem(
        states=(q,),
        matrix={(q, q): Star(Atom("a"))},
        vector={q: One()},
    )
    with pytest.raises(NotGuardedError):
        solve(system)


def test_solve_build_system_letter():
    solution = solve(build_system(Atom("a")))
    assert equiv(solution[Atom("a")], Atom("a")).equivalent


def test_to_normal_form_examples():
    normal = to_normal_form(parse_term("a & b"))
    assert classify(normal).nsf
    assert sem_bounded(normal, 2) == sem_bounded(parse_term("a & b"), 2)
    assert parse_word("{a,b}") in sem_bounded(normal, 2)

    normal = to_normal_form(parse_term("a* & a*"))
    assert classify(normal).nsf
    assert equiv(normal, parse_term("a*")).equivalent

    assert to_normal_form(Zero()) == Zero()


def test_to_normal_form_random():
    rng = random.Random(42)
    for _ in range(60):
        term = random_term(rng, "ab", rng.randint(1, 8))
        normal = to_normal_form(term)
        assert classify(normal).nsf
        assert equiv(normal, term).equivalent


def test_solution_property():
    # solve() output satisfies its own system: vector + matrix . solution
    # is equivalent to the solution, state by state.
    rng = random.Random(43)
    for _ in range(25):
        term = random_term(rng, "ab", rng.randint(1, 7))
        system = build_system(term)
        solution = solve(system)
        for state in system.states:
            acc = system.vector[state]
            for target in system.states:
                entry = system.matrix[(state, target)]
                if not isinstance(entry, Zero):
                    acc = Plus(acc, Seq(entry, solution[target]))
            assert equiv(acc, solution[state]).equivalent


def test_identity_labelling_is_solution():
    rng = random.Random(44)
    for _ in range(40):
        term = random_term(rng, "ab", rng.randint(1, 7))
        system = build_system(term)
        for state in system.states:
            acc = system.vector[state]
            for target in system.states:
                entry = system.matrix[(state, target)]
                if not isinstance(entry, Zero):
                    acc = Plus(acc, Seq(entry, target))
            assert equiv(acc, state).equivalent


def test_solution_of_normal_form_system_is_normal_form():
    rng = random.Random(45)
    for _ in range(40):
        term = random_term(rng, "ab", rng.randint(1, 8))
        solution = solve(build_system(term))
        for entry in solution.values():
            assert classify(entry).nsf


def test_format_system():
    text = format_system(build_system(Atom("a")))
    lines = text.splitlines()
    assert lines[0].startswith("state a")
    assert "[1] a" in lines[0]
    assert lines[1].startswith("state 1")
    assert "out 1" in lines[1]
