"""Syntax trees for synchronous regular expressions.

Terms are built from the constants ``0`` and ``1``, single-letter atoms,
choice ``+``, sequencing ``;``, synchronous product ``&``, postfix
iteration ``*`` and the empty-word projection ``H(...)``. No algebraic law
is applied at construction, so ``a + b`` and ``b + a`` are different trees.

Nodes are immutable and hash-consed (Filliâtre and Conchon, "Type-safe
modular hash-consing", 2006): a constructor returns the live node with the
same class and operands, so equal terms are one object and compare and
hash by identity, at any depth. A weak-value table holds the compound
nodes, so a node nobody references is freed with all that is recorded on
it: its letters and whether it is nullable, ``H``-free or a semilattice
term, set at construction from its operands' facts, and its transition
table and normal-form membership, filled on first use by ``derivatives``
and ``syntax``. ``0``, ``1`` and the atoms are fixed instances.
"""

from __future__ import annotations

import string
import threading
import weakref

LETTERS = frozenset(string.ascii_lowercase)

# Binding strength for minimal-parenthesis printing; higher binds tighter.
# All binary operators associate to the left.
_PREC_PLUS = 1
_PREC_SYNC = 2
_PREC_SEQ = 3
_PREC_STAR = 4
_PREC_LEAF = 9

# Live compound nodes by class and operand ids. An operand in a key would keep
# a star alive, as its transitions reach ``t ; star``; a live node keeps its
# operands, so their ids are not reused. A miss takes the lock and looks
# again, so that two threads building the same term get one node.
_NODES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_NODES_LOCK = threading.Lock()


def _intern(cls, *operands) -> Term:
    key = (cls, *map(id, operands))
    node = _NODES.get(key)
    if node is None:
        with _NODES_LOCK:
            node = _NODES.get(key)
            if node is None:
                node = object.__new__(cls)
                node._build(*operands)
                _NODES[key] = node
    return node


def _union(a: frozenset[str], b: frozenset[str]) -> frozenset[str]:
    # Reuse a set that covers the other, as one mostly does, so nodes share sets.
    return a if b <= a else b if a <= b else a | b


class Term:
    """Base class of all term nodes."""

    __slots__ = ("_nullable", "_h_free", "_sl", "_letters", "_transitions", "_nsf", "__weakref__")

    precedence = _PREC_LEAF

    def _set_facts(self, nullable: bool, h_free: bool, sl: bool, letters: frozenset[str]) -> None:
        self._nullable = nullable
        self._h_free = h_free
        self._sl = sl
        self._letters = letters
        self._transitions = None
        self._nsf = None

    def __repr__(self) -> str:
        return "<%s '%s'>" % (type(self).__name__, self)

    def _child(self, child: Term, right_slot: bool = False) -> str:
        """Render a child, parenthesised only where precedence demands."""
        need = child.precedence < self.precedence or (
            right_slot and child.precedence == self.precedence
        )
        return "(%s)" % child if need else str(child)


class Zero(Term):
    """The empty choice; denotes the empty language."""

    __slots__ = ()

    def __new__(cls):
        return _ZERO

    def __str__(self):
        return "0"


class One(Term):
    """The empty sequence; denotes the language containing only eps."""

    __slots__ = ()

    def __new__(cls):
        return _ONE

    def __str__(self):
        return "1"


class Atom(Term):
    """A single alphabet letter."""

    __slots__ = ("letter",)

    def __new__(cls, letter: str):
        node = _ATOMS.get(letter)
        if node is None:
            raise ValueError("letter must be a single character a-z, got %r" % (letter,))
        return node

    def __str__(self):
        return self.letter


class _Binary(Term):
    __slots__ = ("left", "right")

    symbol = "?"

    def __new__(cls, left: Term, right: Term):
        return _intern(cls, left, right)

    def _build(self, left: Term, right: Term) -> None:
        if not isinstance(left, Term) or not isinstance(right, Term):
            raise TypeError("operands must be Terms")
        self.left = left
        self.right = right
        self._set_facts(left._nullable and right._nullable, left._h_free and right._h_free,
                        False, _union(left._letters, right._letters))

    def __str__(self):
        return "%s %s %s" % (
            self._child(self.left),
            self.symbol,
            self._child(self.right, right_slot=True),
        )


class Plus(_Binary):
    """Choice between two terms."""

    __slots__ = ()
    symbol = "+"
    precedence = _PREC_PLUS

    def _build(self, left: Term, right: Term) -> None:
        super()._build(left, right)
        self._nullable = left._nullable or right._nullable


class Sync(_Binary):
    """Synchronous product: both operands advance in lock-step."""

    __slots__ = ()
    symbol = "&"
    precedence = _PREC_SYNC

    def _build(self, left: Term, right: Term) -> None:
        super()._build(left, right)
        self._sl = left._sl and right._sl


class Seq(_Binary):
    """Sequential composition."""

    __slots__ = ()
    symbol = ";"
    precedence = _PREC_SEQ


class _Unary(Term):
    __slots__ = ("inner",)

    def __new__(cls, inner: Term):
        return _intern(cls, inner)

    def _build(self, inner: Term) -> None:
        if not isinstance(inner, Term):
            raise TypeError("operand must be a Term")
        self.inner = inner


class Star(_Unary):
    """Finite iteration (Kleene star), written postfix."""

    __slots__ = ()
    precedence = _PREC_STAR

    def _build(self, inner: Term) -> None:
        super()._build(inner)
        self._set_facts(True, inner._h_free, False, inner._letters)

    def __str__(self):
        return self._child(self.inner) + "*"


class H(_Unary):
    """Empty-word projection: keeps only eps from the operand's language."""

    __slots__ = ()

    def _build(self, inner: Term) -> None:
        super()._build(inner)
        self._set_facts(inner._nullable, False, False, inner._letters)

    def __str__(self):
        return "H(%s)" % self.inner


def _leaf(cls, nullable: bool) -> Term:
    node = object.__new__(cls)
    node._set_facts(nullable, True, False, frozenset())
    return node


def _atom(letter: str) -> Atom:
    node = object.__new__(Atom)
    node.letter = letter
    node._set_facts(False, True, True, frozenset(letter))
    return node


_ZERO = _leaf(Zero, False)
_ONE = _leaf(One, True)
_ATOMS = {letter: _atom(letter) for letter in LETTERS}


def letters(term: Term) -> frozenset[str]:
    """The set of alphabet letters occurring in ``term``."""
    return term._letters


def h_free(term: Term) -> bool:
    """True when ``term`` contains no H node."""
    return term._h_free


def size(term: Term) -> int:
    """Number of constructor nodes in ``term``."""
    if isinstance(term, (Zero, One, Atom)):
        return 1
    if isinstance(term, (Star, H)):
        return 1 + size(term.inner)
    return 1 + size(term.left) + size(term.right)
