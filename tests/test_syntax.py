import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    reference_is_nsf,
    reference_parse,
    reference_print,
    sl_term_strategy,
    term_strategy,
)
from synka import (
    Atom,
    Fragments,
    H,
    One,
    Plus,
    Seq,
    Star,
    Sync,
    TermSyntaxError,
    UnknownLetterError,
    Zero,
    classify,
    letters,
    parse_term,
    parse_term_file,
    print_term,
    to_normal_form,
)


def test_parse_sync_of_atoms():
    assert parse_term("a & b") == Sync(Atom("a"), Atom("b"))


def test_parse_star_seq_h():
    expected = Sync(Star(Seq(Atom("a"), Atom("b"))), H(One()))
    assert parse_term("(a ; b)* & H(1)") == expected


def test_parse_error_position():
    with pytest.raises(TermSyntaxError) as info:
        parse_term("a &")
    assert info.value.position == 3


def test_parse_precedence():
    # * > ; > & > +; + and & associate to the left, ; to the right
    assert parse_term("a ; b* & c + d") == Plus(
        Sync(Seq(Atom("a"), Star(Atom("b"))), Atom("c")), Atom("d")
    )
    assert parse_term("a + b + c") == Plus(Plus(Atom("a"), Atom("b")), Atom("c"))
    assert parse_term("a & b & c") == Sync(Sync(Atom("a"), Atom("b")), Atom("c"))
    assert parse_term("a ; b ; c") == Seq(Atom("a"), Seq(Atom("b"), Atom("c")))
    assert parse_term("a ; b* ; c & d ; e") == Sync(
        Seq(Atom("a"), Seq(Star(Atom("b")), Atom("c"))), Seq(Atom("d"), Atom("e")))


def test_parse_extra_input_rejected():
    with pytest.raises(TermSyntaxError):
        parse_term("a b")
    with pytest.raises(TermSyntaxError):
        parse_term("(a")
    with pytest.raises(TermSyntaxError):
        parse_term("H a")


def test_parse_comments_and_whitespace():
    assert parse_term("a ; b # trailing note") == Seq(Atom("a"), Atom("b"))


def test_declared_alphabet():
    assert parse_term("a + b", alphabet="ab") == Plus(Atom("a"), Atom("b"))
    with pytest.raises(UnknownLetterError):
        parse_term("a + z", alphabet="ab")


def test_print_examples():
    assert print_term(Sync(Atom("a"), Atom("b"))) == "a & b"
    assert print_term(Star(Plus(Atom("a"), Atom("b")))) == "(a + b)*"
    assert print_term(Zero()) == "0"
    assert print_term(Plus(Atom("a"), Plus(Atom("b"), Atom("c")))) == "a + (b + c)"
    assert print_term(Seq(Atom("a"), Seq(Atom("b"), Atom("c")))) == "a ; b ; c"
    assert print_term(Seq(Seq(Atom("a"), Atom("b")), Atom("c"))) == "(a ; b) ; c"
    assert print_term(Star(Star(Atom("a")))) == "a**"


@settings(max_examples=300)
@given(term_strategy("abc", max_leaves=12))
def test_roundtrip(term):
    # The parser and the recursive-descent reference both give the term back.
    text = print_term(term)
    assert parse_term(text) is reference_parse(text) is term


@settings(max_examples=200)
@given(term_strategy("ab", max_leaves=12) | term_strategy("abc"))
def test_print_matches_reference(term):
    # Solved normal forms share subterms heavily, which the printer copies
    # by span; the reference prints every occurrence again.
    for t in (term, to_normal_form(term)):
        assert print_term(t) == str(t) == reference_print(t)


def test_deep_chain_roundtrip():
    # Fifteen times the depth at which a recursive printer overflowed. A
    # written chain parses nested to the right and prints without
    # parentheses; one nested to the left keeps them both ways.
    letters = ["ab"[i % 2] for i in range(5000)]
    right = Atom(letters[-1])
    for letter in reversed(letters[:-1]):
        right = Seq(Atom(letter), right)
    text = " ; ".join(letters)
    assert parse_term(text) is right
    assert right.left is Atom("a")
    assert print_term(right) == text
    left = Atom("a")
    for letter in letters[1:]:
        left = Seq(left, Atom(letter))
    printed = print_term(left)
    assert printed == "(" * 4998 + "a ; " + ") ; ".join(letters[1:])
    assert parse_term(printed) is left


def _outcome(parse, text, alphabet):
    try:
        return parse(text, alphabet)
    except TermSyntaxError as exc:
        return type(exc), str(exc), exc.position


@settings(max_examples=1000)
@given(st.text("ab()+&;*H01 #\n\tz)", max_size=16), st.sampled_from([None, "ab"]))
def test_parse_matches_reference_on_any_text(text, alphabet):
    # The same node, or the same error class, message and offset.
    assert _outcome(parse_term, text, alphabet) == _outcome(reference_parse, text, alphabet)


def test_deep_nesting_parses():
    # Far past the recursion limit, which bounded the recursive parser.
    assert parse_term("(" * 5000 + "a" + ")" * 5000) is Atom("a")
    term = Atom("a")
    for _ in range(5000):
        term = H(term)
    printed = print_term(term)
    assert printed == "H(" * 5000 + "a" + ")" * 5000
    assert parse_term(printed) is term


def test_parse_term_file():
    text = "\n".join([
        "# a comment line",
        "a & b",
        "",
        " \t # an indented comment",
        "H(a ; b)  # inline comment",
    ])
    terms = parse_term_file(text)
    assert terms == [Sync(Atom("a"), Atom("b")), H(Seq(Atom("a"), Atom("b")))]


def test_parse_term_file_reports_line():
    # The offset counts from the start of the line, as ``parse_term`` of
    # the line alone gives it.
    cases = [
        ("a\nb &\n", None, "line 2: syntax error at offset 3: expected a term, found end of input"),
        ("a\n    a + \n", None,
         "line 2: syntax error at offset 8: expected a term, found end of input"),
        ("# b\n  b & H \n", None, "line 2: syntax error at offset 8: expected '(' after H"),
        ("a\n\t\n  q\n", "ab", "line 3: unknown letter 'q' at offset 2 (not in declared alphabet)"),
    ]
    for text, alphabet, message in cases:
        with pytest.raises(TermSyntaxError) as info:
            parse_term_file(text, alphabet)
        assert str(info.value) == message


def test_classify_examples():
    frag = classify(parse_term("a & b"))
    assert frag.sl and frag.ska
    # The canonical product of two letters is itself a normal-form atom.
    assert frag.nsf

    frag = classify(parse_term("H(a)"))
    assert not frag.sl and not frag.ska and not frag.nsf

    # A canonical atom under ; and * stays in the normal-form fragment.
    assert classify(parse_term("(a & b) ; c*")).nsf
    # A non-canonical product of letters is not a normal-form atom.
    assert not classify(parse_term("(b & a) ; c*")).nsf
    assert not classify(parse_term("a & a")).nsf
    # Products over non-semilattice operands are outside the fragment.
    assert not classify(parse_term("(a ; b) & c")).nsf


def test_classify_deep_chain():
    # Five times the default recursion limit deep.
    chain = Atom("a")
    for i in range(1, 5000):
        chain = Seq(chain, Atom("ab"[i % 2]))
    assert classify(chain) == classify(Star(chain)) == Fragments(sl=False, ska=True, nsf=True)
    assert classify(H(chain)) == Fragments(sl=False, ska=False, nsf=False)


@given(term_strategy("ab"))
def test_classify_monotone(term):
    frag = classify(term)
    if frag.sl or frag.nsf:
        assert frag.ska


@settings(max_examples=300)
@given(st.one_of(term_strategy("abc"), sl_term_strategy("abc"),
                 term_strategy("ab", max_leaves=5).map(to_normal_form)))
def test_nsf_fact_matches_reference(term):
    # ``classify`` agrees with the recursive definition on random terms,
    # semilattice terms and normal forms.
    assert classify(term).nsf == reference_is_nsf(term)


def test_letters():
    assert letters(parse_term("(a & b) ; H(c*) + 1")) == frozenset("abc")
    assert letters(Zero()) == frozenset()
