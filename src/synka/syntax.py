"""Concrete syntax: parser, printer and grammar fragment classification.

Grammar (binary operators left-associative, ``*`` binds tightest):

    term    := sync ('+' sync)*
    sync    := chain ('&' chain)*
    chain   := starred (';' starred)*
    starred := primary '*'*
    primary := '0' | '1' | letter | 'H' '(' term ')' | '(' term ')'

Letters are single characters ``a``-``z``. Whitespace is insignificant and
``#`` starts a comment running to the end of the line. Term files hold one
term per line.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import semilattice
from .terms import LETTERS, Atom, H, One, Plus, Seq, Star, Sync, Term, Zero, h_free


class TermSyntaxError(ValueError):
    """Raised on malformed input; carries the character offset."""

    def __init__(self, message: str, position: int):
        super().__init__("syntax error at offset %d: %s" % (position, message))
        self.position = position


class UnknownLetterError(TermSyntaxError):
    """Raised when a letter falls outside a declared alphabet."""

    def __init__(self, letter: str, position: int):
        ValueError.__init__(
            self, "unknown letter %r at offset %d (not in declared alphabet)" % (letter, position)
        )
        self.position = position
        self.letter = letter


class _Tokens:
    def __init__(self, text: str, alphabet: frozenset[str] | None):
        self.text = text
        self.alphabet = alphabet
        self.pos = 0

    def _skip(self) -> None:
        text = self.text
        while self.pos < len(text):
            ch = text[self.pos]
            if ch in " \t\r\n":
                self.pos += 1
            elif ch == "#":
                while self.pos < len(text) and text[self.pos] != "\n":
                    self.pos += 1
            else:
                return

    def peek(self) -> tuple[str, int]:
        """Next character (or '' at end of input) and its offset."""
        self._skip()
        if self.pos >= len(self.text):
            return "", self.pos
        return self.text[self.pos], self.pos

    def advance(self) -> None:
        self.pos += 1


def parse_term(text: str, alphabet: str | frozenset[str] | None = None) -> Term:
    """Parse a single term.

    When ``alphabet`` is given, letters outside it raise
    ``UnknownLetterError``; otherwise the alphabet is whatever letters
    occur in the input.
    """
    declared = frozenset(alphabet) if alphabet is not None else None
    tokens = _Tokens(text, declared)
    term = _parse_plus(tokens)
    ch, pos = tokens.peek()
    if ch:
        raise TermSyntaxError("unexpected %r" % ch, pos)
    return term


def _parse_plus(tokens: _Tokens) -> Term:
    term = _parse_sync(tokens)
    while True:
        ch, _ = tokens.peek()
        if ch != "+":
            return term
        tokens.advance()
        term = Plus(term, _parse_sync(tokens))


def _parse_sync(tokens: _Tokens) -> Term:
    term = _parse_chain(tokens)
    while True:
        ch, _ = tokens.peek()
        if ch != "&":
            return term
        tokens.advance()
        term = Sync(term, _parse_chain(tokens))


def _parse_chain(tokens: _Tokens) -> Term:
    term = _parse_starred(tokens)
    while True:
        ch, _ = tokens.peek()
        if ch != ";":
            return term
        tokens.advance()
        term = Seq(term, _parse_starred(tokens))


def _parse_starred(tokens: _Tokens) -> Term:
    term = _parse_primary(tokens)
    while True:
        ch, _ = tokens.peek()
        if ch != "*":
            return term
        tokens.advance()
        term = Star(term)


def _parse_primary(tokens: _Tokens) -> Term:
    ch, pos = tokens.peek()
    if ch == "":
        raise TermSyntaxError("expected a term, found end of input", pos)
    if ch == "0":
        tokens.advance()
        return Zero()
    if ch == "1":
        tokens.advance()
        return One()
    if ch == "(":
        tokens.advance()
        term = _parse_plus(tokens)
        closing, cpos = tokens.peek()
        if closing != ")":
            raise TermSyntaxError("expected ')'", cpos)
        tokens.advance()
        return term
    if ch == "H":
        tokens.advance()
        opening, opos = tokens.peek()
        if opening != "(":
            raise TermSyntaxError("expected '(' after H", opos)
        tokens.advance()
        term = _parse_plus(tokens)
        closing, cpos = tokens.peek()
        if closing != ")":
            raise TermSyntaxError("expected ')'", cpos)
        tokens.advance()
        return H(term)
    if ch in LETTERS:
        if tokens.alphabet is not None and ch not in tokens.alphabet:
            raise UnknownLetterError(ch, pos)
        tokens.advance()
        return Atom(ch)
    raise TermSyntaxError("expected a term, found %r" % ch, pos)


def parse_term_file(text: str, alphabet: str | frozenset[str] | None = None) -> list[Term]:
    """Parse a batch file: one term per line, blank and comment-only lines
    skipped."""
    terms = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        try:
            terms.append(parse_term(body, alphabet))
        except TermSyntaxError as exc:
            exc.args = ("line %d: %s" % (lineno, exc),)
            raise
    return terms


def print_term(term: Term) -> str:
    """Render a term with minimal parentheses; inverse of ``parse_term``."""
    return str(term)


@dataclass(frozen=True)
class Fragments:
    """Grammar fragment memberships of a term.

    ``sl``: letters and ``&`` only. ``ska``: no ``H``. ``nsf``: built from
    ``0``, ``1``, canonical semilattice atoms, ``+``, ``;`` and ``*`` only.
    ``sf1`` is always true: every parseable term belongs to the full
    grammar.
    """

    sl: bool
    ska: bool
    nsf: bool
    sf1: bool = True


def _is_nsf(term: Term) -> bool:
    """Normal-form grammar membership, kept on the node once computed."""
    nsf = term._nsf
    if nsf is not None:
        return nsf
    if isinstance(term, (Zero, One)):
        nsf = True
    elif semilattice.is_sl_term(term):
        # Atoms must be fixed points of semilattice normalization.
        nsf = term is semilattice.normalize_sl(term)
    elif isinstance(term, Plus) or isinstance(term, Seq):
        nsf = _is_nsf(term.left) and _is_nsf(term.right)
    elif isinstance(term, Star):
        nsf = _is_nsf(term.inner)
    else:
        # A Sync over non-semilattice operands, or any H, is outside the
        # normal-form grammar.
        nsf = False
    term._nsf = nsf
    return nsf


def classify(term: Term) -> Fragments:
    """Report which grammar fragments ``term`` belongs to."""
    return Fragments(
        sl=semilattice.is_sl_term(term),
        ska=h_free(term),
        nsf=_is_nsf(term),
    )
