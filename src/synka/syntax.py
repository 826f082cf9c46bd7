"""Concrete syntax: parser, printer and grammar fragment classification.

Grammar (``+`` and ``&`` associate to the left, ``;`` to the right, ``*``
binds tightest):

    term    := sync ('+' sync)*
    sync    := chain ('&' chain)*
    chain   := starred (';' chain)?
    starred := primary '*'*
    primary := '0' | '1' | letter | 'H' '(' term ')' | '(' term ')'

Letters are single characters ``a``-``z``. Whitespace is insignificant and
``#`` starts a comment running to the end of the line. Term files hold one
term per line.

``parse_term`` is one loop over the characters of the text that keeps an
operand stack and an operator stack, so nesting depth is bounded by
memory, not by the recursion limit. It reads the leaves from the text
table in ``terms`` and the operators' symbols and binding strengths from
the term classes, as the printer does.

``classify`` finds whether a term is a semilattice term, ``H``-free and in
the normal-form grammar in one ``postorder`` walk over its distinct
nodes, so neither depth nor sharing makes it recurse or repeat work.
"""

from __future__ import annotations

from collections import namedtuple

from .terms import _LEAVES, LETTERS, Atom, H, Plus, Seq, Star, Sync, Term, postorder


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


# Whitespace, and the "#" that starts a comment running to the end of the line.
_BLANK = frozenset(" \t\r\n#")
_BINARY = {cls.symbol: cls for cls in (Plus, Sync, Seq)}


def parse_term(text: str, alphabet: str | frozenset[str] | None = None) -> Term:
    """Parse a single term.

    When ``alphabet`` is given, letters outside it raise
    ``UnknownLetterError``; otherwise the alphabet is whatever letters
    occur in the input.
    """
    unknown = LETTERS - frozenset(alphabet) if alphabet is not None else frozenset()
    operands: list[Term] = []
    # Binary operator classes, and the open groups "(" and "H(" as strings.
    operators: list = []
    want_term = True
    after_h = False
    pos, end = 0, len(text)
    while True:
        while pos < end and text[pos] in _BLANK:
            if text[pos] == "#":
                newline = text.find("\n", pos)
                pos = end if newline < 0 else newline
            else:
                pos += 1
        ch = text[pos] if pos < end else ""
        if after_h:
            if ch != "(":
                raise TermSyntaxError("expected '(' after H", pos)
            operators.append("H(")
            after_h = False
        elif want_term:
            if ch in unknown:
                raise UnknownLetterError(ch, pos)
            leaf = _LEAVES.get(ch)
            if leaf is not None:
                operands.append(leaf)
                want_term = False
            elif ch == "(":
                operators.append("(")
            elif ch == "H":
                after_h = True
            elif ch:
                raise TermSyntaxError("expected a term, found %r" % ch, pos)
            else:
                raise TermSyntaxError("expected a term, found end of input", pos)
        elif ch == "*":
            operands[-1] = Star(operands[-1])
        else:
            # A binary operator reduces the operators that bind at least as
            # tightly, or, for the right-associative ``;``, more tightly;
            # anything else ends the innermost group, or the whole term, and
            # reduces all of it, right to left.
            cls = _BINARY.get(ch)
            floor = 0 if cls is None else cls.precedence + (cls is Seq)
            while operators:
                top = operators[-1]
                if type(top) is str or top.precedence < floor:
                    break
                right = operands.pop()
                operands[-1] = operators.pop()(operands[-1], right)
            if cls is not None:
                operators.append(cls)
                want_term = True
            elif ch == ")" and operators:
                if operators.pop() == "H(":
                    operands[-1] = H(operands[-1])
            elif operators:
                raise TermSyntaxError("expected ')'", pos)
            elif ch:
                raise TermSyntaxError("unexpected %r" % ch, pos)
            else:
                return operands[0]
        pos += 1


def parse_term_file(text: str, alphabet: str | frozenset[str] | None = None) -> list[Term]:
    """Parse a batch file: one term per line, skipping lines blank before
    any ``#`` comment. An error names its line and an offset in that line."""
    terms = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.split("#", 1)[0].strip(" \t"):
            continue
        try:
            terms.append(parse_term(line, alphabet))
        except TermSyntaxError as exc:
            exc.args = ("line %d: %s" % (lineno, exc),)
            raise
    return terms


def print_term(term: Term) -> str:
    """Render a term with minimal parentheses; inverse of ``parse_term``."""
    return str(term)


class Fragments(namedtuple("Fragments", "sl ska nsf")):
    """Grammar fragment memberships of a term.

    ``sl``: letters and ``&`` only. ``ska``: no ``H``. ``nsf``: built from
    ``0``, ``1``, canonical semilattice atoms, ``+``, ``;`` and ``*`` only.
    """

    __slots__ = ()


def classify(term: Term) -> Fragments:
    """Report which grammar fragments ``term`` belongs to."""
    sl = ska = nsf = True
    for t in postorder(term):
        cls = type(t)
        if cls is Sync:
            # In the normal-form grammar only as a canonical semilattice
            # atom: letters in order, nested to the left. A left ``&`` is
            # checked as a node of its own, so its right letter is its last.
            left, right = t.left, t.right
            if type(left) is Sync:
                left = left.right
            nsf = (nsf and type(left) is Atom and type(right) is Atom
                   and left.letter < right.letter)
        elif cls is not Atom:
            sl = False
            if cls is H:
                ska = nsf = False
    return Fragments(sl=sl, ska=ska, nsf=nsf)
