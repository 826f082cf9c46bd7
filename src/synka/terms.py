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
and ``syntax``. ``0``, ``1`` and the atoms are fixed instances. Pickling
and copying go back through the constructors, so they give the same node;
a pickle holds a flat post-order tuple of the distinct nodes, so neither
depth nor sharing makes it recurse or grow. A deep copy is the node itself.

``str`` prints a term with minimal parentheses, and ``size`` counts its
nodes as a tree. Both walk an explicit stack and visit each distinct node
once, so neither is bounded by the recursion limit or slowed by sharing.
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

    def __str__(self) -> str:
        return _print(self)

    def __reduce__(self):
        # Pickling and copying rebuild through the constructors, which
        # return the interned nodes, from a flat encoding.
        return _rebuild, (_flatten(self),)

    def __deepcopy__(self, memo) -> Term:
        # A node is immutable, so it is its own deep copy, at any depth.
        return self


class Zero(Term):
    """The empty choice; denotes the empty language."""

    __slots__ = ()

    def __new__(cls):
        return _ZERO


class One(Term):
    """The empty sequence; denotes the language containing only eps."""

    __slots__ = ()

    def __new__(cls):
        return _ONE


class Atom(Term):
    """A single alphabet letter."""

    __slots__ = ("letter",)

    def __new__(cls, letter: str):
        node = _ATOMS.get(letter)
        if node is None:
            raise ValueError("letter must be a single character a-z, got %r" % (letter,))
        return node


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


class H(_Unary):
    """Empty-word projection: keeps only eps from the operand's language."""

    __slots__ = ()

    def _build(self, inner: Term) -> None:
        super()._build(inner)
        self._set_facts(inner._nullable, False, False, inner._letters)


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


def _operands(term: Term) -> tuple[Term, ...]:
    if isinstance(term, _Binary):
        return term.left, term.right
    if isinstance(term, _Unary):
        return (term.inner,)
    return ()


def size(term: Term) -> int:
    """Number of constructor nodes in ``term`` as a tree, counting a shared
    subterm once per occurrence. Each distinct node is counted once, with
    an explicit stack."""
    counts: dict[Term, int] = {}
    stack = [(term, False)]
    while stack:
        t, ready = stack.pop()
        if ready:
            counts[t] = 1 + sum(counts[c] for c in _operands(t))
        elif t not in counts:
            stack.append((t, True))
            stack.extend((c, False) for c in _operands(t))
    return counts[term]


def _flatten(term: Term) -> tuple:
    """``term`` as a post-order tuple of its distinct nodes: a leaf is its
    text (``"0"``, ``"1"`` or its letter), and a compound node is its class
    followed by the positions of its operands in the tuple."""
    position: dict[Term, int] = {}
    nodes: list = []
    stack = [(term, False)]
    while stack:
        t, ready = stack.pop()
        if ready:
            position[t] = len(nodes)
            operands = _operands(t)
            nodes.append((type(t), *(position[c] for c in operands)) if operands else _TEXT[t])
        elif t not in position:
            stack.append((t, True))
            stack.extend((c, False) for c in reversed(_operands(t)))
    return tuple(nodes)


def _rebuild(nodes: tuple) -> Term:
    """The term that ``_flatten`` encoded as ``nodes``."""
    built: list[Term] = []
    for node in nodes:
        if type(node) is str:
            built.append(_LEAVES[node])
        else:
            cls, *operands = node
            built.append(cls(*(built[i] for i in operands)))
    return built[-1]


_TEXT = {_ZERO: "0", _ONE: "1", **{atom: letter for letter, atom in _ATOMS.items()}}
# The text between a binary node's operands, indexed by
# ``2 * (left is parenthesised) + (right is parenthesised)``.
_JOINS = {
    cls: tuple(")" * lw + " %s " % cls.symbol + "(" * rw for lw in (0, 1) for rw in (0, 1))
    for cls in (Plus, Sync, Seq)
}
_LEAVES = {text: leaf for leaf, text in _TEXT.items()}


def _print(term: Term) -> str:
    """Render ``term`` with minimal parentheses: a child is parenthesised
    when it binds looser than its parent, or as tight in a right slot.

    The walk uses an explicit stack and appends fragments to one list. The
    first time it prints a compound node it records the node's span of the
    list, and every later occurrence copies that span, so each distinct
    node is visited once and memory stays linear in the output (a string
    per node would be quadratic on a chain).
    """
    text = _TEXT.get(term)
    if text is not None:
        return text
    out: list[str] = []
    spans: dict[Term, tuple[int, int]] = {}
    stack: list = [term]
    push = stack.append
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
        elif type(item) is tuple:
            node, start = item
            spans[node] = (start, len(out))
        elif item in spans:
            start, end = spans[item]
            out.extend(out[start:end])
        else:
            push((item, len(out)))
            cls = type(item)
            if cls is Star:
                inner = item.inner
                if inner.precedence < _PREC_STAR:
                    push(")*")
                    push(inner)
                    push("(")
                else:
                    push("*")
                    push(_TEXT.get(inner, inner))
            elif cls is H:
                push(")")
                push(_TEXT.get(item.inner, item.inner))
                push("H(")
            else:
                prec = cls.precedence
                left, right = item.left, item.right
                lw = left.precedence < prec
                rw = right.precedence <= prec
                if rw:
                    push(")")
                push(_TEXT.get(right, right))
                push(_JOINS[cls][2 * lw + rw])
                push(_TEXT.get(left, left))
                if lw:
                    push("(")
    return "".join(out)
