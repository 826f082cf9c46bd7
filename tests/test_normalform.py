import hashlib
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
    assert system.matrix == {(Atom("a"), One()): Atom("a")}
    assert system.vector[Atom("a")] == Zero()
    assert system.vector[One()] == One()


def test_build_system_zero():
    system = build_system(Zero())
    assert system.states == (Zero(),)
    assert system.matrix == {}
    assert system.vector[Zero()] == Zero()


@pytest.mark.parametrize("text", ["(a+b;a)* & (a+b;a)*", "(a;b)* & (b;a)*"])
def test_build_system_counts_only_reached_states(text):
    # The syntactic over-approximation lists 20 and 23 states here.
    assert len(build_system(parse_term(text)).states) == 6


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
    # The elimination order changes every state's solution, not only the
    # start's, so each one is compared.
    system = build_system(term)
    solution = solve(system)
    reference = reference_solve(system)
    for state in system.states:
        assert classify(solution[state]).nsf
        assert equiv(solution[state], reference[state]).equivalent


@pytest.mark.parametrize("text, nodes", [
    # The same automaton as ``a ; b ; (1 ; a* + 1 ; b*)``, under other state
    # names; eliminating in printed order gave 19 nodes.
    ("a ; b ; (a* + b*)", 15),
    ("(a & (0 + a)) ; (b* & b)", 8),
])
def test_fill_in_order_keeps_normal_forms_small(text, nodes):
    term = parse_term(text)
    normal = to_normal_form(term)
    assert size(normal) == nodes
    assert equiv(normal, term).equivalent


def test_bisimilar_states_share_one_solution():
    term = parse_term("(a+b;a)* & (a+b;a)*")
    system = build_system(term)
    solution = solve(system)
    assert len(system.states) == 6
    assert len({id(value) for value in solution.values()}) == 5
    left = parse_term("(a+b;a)* & a;(a+b;a)*")
    right = parse_term("a;(a+b;a)* & (a+b;a)*")
    assert solution[left] is solution[right]


def _power(k):
    return parse_term(" & ".join(["(a+b;a)*"] * k))


# SHA-256 of the printed normal form of the k-fold product.
_POWER_NF_DIGESTS = {
    2: "f6004237dbe77bc7bec924e0951b5eef033ac609728854b6d11fa0d633dc8617",
    3: "dd2df7b1b60532590c8356a9886645746a30f150e6fcdd1a01b8463c98d12e67",
    4: "933def2b1860ab0147142d70abadc2e6c9d2e4ff3e063c1de723176e3ad232ea",
    5: "f9c27f9050a8a8c75c0da329b1937e15c085ec4a1da4b462db50758116b1a912",
}


@pytest.mark.parametrize("k", sorted(_POWER_NF_DIGESTS))
def test_product_states_and_normal_form(k):
    # The k-fold product reaches 2^(k+1) - 2 states, none of them a
    # ``1 ; e`` state (the rule without the unit law reached one more). The
    # normal form is pinned byte for byte, so a change of elimination order
    # shows here.
    term = _power(k)
    assert len(build_system(term).states) == 2 ** (k + 1) - 2
    text = print_term(to_normal_form(term))
    assert hashlib.sha256(text.encode()).hexdigest() == _POWER_NF_DIGESTS[k]


def test_product_normal_forms_stay_small():
    # Without the quotient the four-fold form has 7,164,566 tree nodes and
    # the five-fold one about 1e12; eliminating the classes from the back of
    # the class order gives 1,957 and 12,664, fill-in order 1,060 and 4,307.
    assert size(to_normal_form(_power(4))) <= 1100
    term = _power(5)
    normal = to_normal_form(term)
    assert size(normal) <= 4400
    assert classify(normal).nsf
    assert parse_term(print_term(normal)) is normal


def test_build_system_sync_entry():
    term = parse_term("a & b")
    system = build_system(term)
    # a & b steps on {a,b} to 1 & 1, which is 1 by the unit law.
    assert system.states == (term, One())
    assert system.matrix[(term, One())] == canonical_atom(SymSet("ab"))


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


def test_rows_and_solve_ignore_matrix_insertion_order():
    # The same three-state system with its matrix entered row by row and in
    # reverse: rows are (target index, entry) pairs in target order either way.
    p, q, r = Atom("p"), Atom("q"), Atom("r")
    a, b = Atom("a"), Atom("b")
    entries = [((p, q), a), ((p, r), b), ((q, p), b), ((q, q), a), ((r, p), a),
               ((r, r), Plus(a, b))]
    vector = {p: Zero(), q: One(), r: One()}
    forward = LinearSystem(states=(p, q, r), matrix=dict(entries), vector=vector)
    backward = LinearSystem(states=(p, q, r), matrix=dict(reversed(entries)), vector=vector)
    rows = [[(1, a), (2, b)], [(0, b), (1, a)], [(0, a), (2, Plus(a, b))]]
    assert forward.rows() == backward.rows() == rows
    assert format_system(backward) == format_system(forward) == "\n".join([
        "state p | out 0 | [q] a | [r] b",
        "state q | out 1 | [p] b | [q] a",
        "state r | out 1 | [p] a | [r] a + b",
    ])
    solutions = [[(state, print_term(t)) for state, t in solve(system).items()]
                 for system in (forward, backward)]
    assert solutions[0] == solutions[1]
    assert solutions[0][0] == (p, "(a ; a* ; b + b ; (a + b)* ; a)* ; (b ; (a + b)* + a ; a*)")


def test_system_with_a_matrix_entry_outside_its_states_is_rejected():
    a, b, x = Atom("a"), Atom("b"), Atom("x")
    system = LinearSystem(states=(a,), matrix={(a, x): b}, vector={a: One()})
    for read in (solve, format_system):
        with pytest.raises(ValueError, match=r"matrix entry \(a, x\) names x, which is not a state"):
            read(system)


def test_system_whose_vector_lacks_a_state_is_rejected():
    a, b = Atom("a"), Atom("b")
    system = LinearSystem(states=(a, b), matrix={(a, b): b}, vector={a: One()})
    for read in (solve, format_system):
        with pytest.raises(ValueError, match="the vector has no entry for state b"):
            read(system)


def test_system_listing_a_state_twice_is_rejected():
    a, b = Atom("a"), Atom("b")
    system = LinearSystem(states=(a, a), matrix={(a, a): b}, vector={a: One()})
    for read in (solve, format_system):
        with pytest.raises(ValueError, match="state a is listed twice"):
            read(system)


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
                entry = system.matrix.get((state, target))
                if entry is not None:
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
                entry = system.matrix.get((state, target))
                if entry is not None:
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
