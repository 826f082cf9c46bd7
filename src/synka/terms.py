"""Syntax trees for synchronous regular expressions.

Terms are built from the constants ``0`` and ``1``, single-letter atoms,
choice ``+``, sequencing ``;``, synchronous product ``&``, postfix
iteration ``*`` and the empty-word projection ``H(...)``. No algebraic law
is applied at construction, so ``a + b`` and ``b + a`` are different trees.

Nodes are immutable and hash-consed (Filliâtre and Conchon, "Type-safe
modular hash-consing", 2006): a constructor returns the live node with the
same class and operands, so equal terms are one object and compare and
hash by identity, at any depth. The intern table is a plain dict from a
node's class and operand ids to a weak reference to the node, so a lookup
is one dict access and one call. A new node is built by one method that
sets its slots and is entered with ``dict.setdefault``, which takes no
lock. Its reference holds the key, and one module-level callback removes
the key when the node dies, unless a new node holds the key by then. A
node records whether it is nullable, set at construction from its
operands, and its transition table, filled on first use by
``derivatives``. Only the derivative searches read these; a term's
letters and grammar fragments are found by one walk when asked for. A node nobody references
is freed with all of this, and its key leaves the intern table. A star
whose table was filled waits for the next cyclic garbage collection: the
table's targets, ``t ; star`` or the star itself, refer back to the star,
so the star and those targets form a reference cycle, which only the
collector frees.
``0``, ``1`` and the atoms are fixed instances. Pickling and copying go
back through the constructors, so they give the same node; a pickle
holds a flat post-order tuple of the distinct nodes, so neither depth nor
sharing makes it recurse or grow. A deep copy is the node itself.

``postorder`` walks a term's distinct nodes, operands first, over an
explicit stack; ``size``, ``letters``, the pickle encoding and
``evaluate``, which reads a term in any model given as an ``Ops`` record,
all run on it, so none is bounded by the recursion limit or slowed by
sharing. In a model without ``H``, ``evaluate`` raises ``HTermError`` at
the first ``H`` it meets, naming the term's leftmost-outermost ``H``.
``;`` is associative, and a chain is nested to the right: the parser
builds ``a ; b ; c`` as ``a ; (b ; c)``, and ``then(first, rest)`` builds
``first ; rest`` with the chain of ``first`` nested to the right and the
unit law ``1 ; e = e`` applied, for the continuations of
``derivatives.transitions`` and the normal forms of ``normalform``. So a
state derived from a chain adds O(1) new nodes, not a fresh copy of the
chain, and an atom's step to ``1`` continues with the rest itself.
``chain`` lists the operands of a ``;``- or ``+``-chain over a stack.
``printed_forms`` prints terms with minimal parentheses, in one walk over
all of them, so a node the terms share is visited once (``str`` is that
walk over one term); each walks a stack of its own, as it needs more than
the operands-first order.
"""

from __future__ import annotations

import weakref
from _weakref import _remove_dead_weakref
from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator

LETTERS = frozenset("abcdefghijklmnopqrstuvwxyz")


def sorted_letters(letters: Iterable[str]) -> tuple[str, ...]:
    """The distinct members of ``letters`` in alphabetical order. Raises
    ``ValueError`` unless there is at least one and each is a letter
    ``a``-``z``."""
    seq = tuple(sorted(set(letters)))
    if not seq:
        raise ValueError("a symbol set must contain at least one letter")
    for ch in seq:
        if ch not in LETTERS:
            raise ValueError("letters must be single characters a-z, got %r" % (ch,))
    return seq


# Binding strength for minimal-parenthesis printing; higher binds tighter.
# ``+`` and ``&`` associate to the left, ``;`` to the right.
_PREC_PLUS = 1
_PREC_SYNC = 2
_PREC_SEQ = 3
_PREC_STAR = 4
_PREC_LEAF = 9


class _Ref(weakref.ref):
    """A weak reference to an interned node that holds the node's key."""

    __slots__ = ("key",)


# Live compound nodes: a plain dict from ``(class, id(left), id(right))`` or
# ``(class, id(inner))`` to a ``_Ref`` to the node. An operand in a key would
# keep a star alive, as its transitions reach it or ``t ; star``; a live node
# keeps its operands, so their ids are not reused. No step takes a lock, as none
# replaces a live entry: a new node is entered with ``setdefault``, so two
# threads that build the same term both get the node entered first, and both
# a dead entry found there, whose callback has not run yet, and the callback
# itself go through ``_remove_dead_weakref``, which deletes the key only
# while its value is dead.
_NODES: dict[tuple, _Ref] = {}


def _forget(ref: _Ref) -> None:
    _remove_dead_weakref(_NODES, ref.key)


def _enter(key: tuple, node: Term) -> Term:
    """Enter the new ``node`` under ``key`` and return it, or return the
    live node that another thread entered first."""
    ref = _Ref(node, _forget)
    ref.key = key
    while True:
        held = _NODES.setdefault(key, ref)
        if held is ref:
            return node
        live = held()
        if live is not None:
            return live
        _remove_dead_weakref(_NODES, key)


class Term:
    """Base class of all term nodes."""

    __slots__ = ("_nullable", "_transitions", "__weakref__")

    precedence = _PREC_LEAF

    def __repr__(self) -> str:
        return "<%s '%s'>" % (type(self).__name__, self)

    def __str__(self) -> str:
        return printed_forms((self,))[0]

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
        key = (cls, id(left), id(right))
        ref = _NODES.get(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        node = object.__new__(cls)
        node._build(left, right)
        return _enter(key, node)

    def _build(self, left: Term, right: Term) -> None:
        if not isinstance(left, Term) or not isinstance(right, Term):
            raise TypeError("operands must be Terms")
        cls = type(self)
        self.left = left
        self.right = right
        if cls is Plus:
            self._nullable = left._nullable or right._nullable
        else:
            self._nullable = left._nullable and right._nullable
        self._transitions = None


class Plus(_Binary):
    """Choice between two terms."""

    __slots__ = ()
    symbol = "+"
    precedence = _PREC_PLUS


class Sync(_Binary):
    """Synchronous product: both operands advance in lock-step."""

    __slots__ = ()
    symbol = "&"
    precedence = _PREC_SYNC


class Seq(_Binary):
    """Sequential composition."""

    __slots__ = ()
    symbol = ";"
    precedence = _PREC_SEQ


class _Unary(Term):
    __slots__ = ("inner",)

    def __new__(cls, inner: Term):
        key = (cls, id(inner))
        ref = _NODES.get(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        node = object.__new__(cls)
        node._build(inner)
        return _enter(key, node)

    def _build(self, inner: Term) -> None:
        if not isinstance(inner, Term):
            raise TypeError("operand must be a Term")
        self.inner = inner
        self._nullable = type(self) is Star or inner._nullable
        self._transitions = None


class Star(_Unary):
    """Finite iteration (Kleene star), written postfix."""

    __slots__ = ()
    precedence = _PREC_STAR


class H(_Unary):
    """Empty-word projection: keeps only eps from the operand's language."""

    __slots__ = ()


def _leaf(cls, nullable: bool) -> Term:
    node = object.__new__(cls)
    node._nullable = nullable
    node._transitions = None
    return node


def _atom(letter: str) -> Atom:
    node = _leaf(Atom, False)
    node.letter = letter
    return node


_ZERO = _leaf(Zero, False)
_ONE = _leaf(One, True)
_ATOMS = {letter: _atom(letter) for letter in LETTERS}


def letters(term: Term) -> frozenset[str]:
    """The set of alphabet letters occurring in ``term``, from one
    ``postorder`` walk."""
    return frozenset(t.letter for t in postorder(term) if type(t) is Atom)


def _operands(term: Term) -> tuple[Term, ...]:
    if isinstance(term, _Binary):
        return term.left, term.right
    if isinstance(term, _Unary):
        return (term.inner,)
    return ()


def postorder(term: Term) -> Iterator[Term]:
    """Each distinct node of ``term`` once, operands before the node and
    the left operand first, over an explicit stack."""
    seen: set[Term] = set()
    stack = [(term, False)]
    while stack:
        t, ready = stack.pop()
        if ready:
            yield t
        elif t not in seen:
            seen.add(t)
            stack.append((t, True))
            stack.extend((c, False) for c in reversed(_operands(t)))


class Ops(namedtuple("Ops", "plus dot sync star zero one h", defaults=(None,))):
    """A model of the term syntax: the values ``zero`` and ``one`` of ``0``
    and ``1`` and the function of each operator (``plus``, ``dot``,
    ``sync``, ``star``, ``h``). ``h`` is ``None`` in a model without ``H``,
    such as one of the original signature; ``evaluate`` then rejects a
    term that contains ``H``."""

    __slots__ = ()


TERM_OPS = Ops(plus=Plus, dot=Seq, sync=Sync, star=Star, zero=_ZERO, one=_ONE, h=H)


class HTermError(ValueError):
    """Raised when a term containing H is evaluated in a model without H."""


def _first_h(term: Term) -> H:
    """The leftmost-outermost ``H`` of ``term``: the first in preorder,
    operands left to right. A node met again is skipped, as its first
    visit found no ``H`` in it."""
    seen: set[Term] = set()
    stack = [term]
    while True:
        t = stack.pop()
        if type(t) is H:
            return t
        if t not in seen:
            seen.add(t)
            stack.extend(reversed(_operands(t)))


def evaluate(term: Term, ops: Ops, valuation: Callable[[str], object]) -> object:
    """The value of ``term`` in the model ``ops``, where each letter takes
    the value ``valuation(letter)``. Each distinct node is evaluated once,
    in ``postorder``; nothing is kept between calls. When ``ops.h`` is
    ``None`` and ``term`` contains ``H``, raises ``HTermError`` naming the
    leftmost-outermost ``H``."""
    binary = {Plus: ops.plus, Seq: ops.dot, Sync: ops.sync}
    unary = {Star: ops.star} if ops.h is None else {Star: ops.star, H: ops.h}
    values: dict[Term, object] = {_ZERO: ops.zero, _ONE: ops.one}
    for t in postorder(term):
        cls = type(t)
        if cls in binary:
            values[t] = binary[cls](values[t.left], values[t.right])
        elif cls in unary:
            values[t] = unary[cls](values[t.inner])
        elif cls is Atom:
            values[t] = valuation(t.letter)
        elif cls is H:
            raise HTermError("the model does not interpret H: %s" % _first_h(term))
    return values[term]


def size(term: Term) -> int:
    """Number of constructor nodes in ``term`` as a tree, counting a shared
    subterm once per occurrence."""
    counts: dict[Term, int] = {}
    for t in postorder(term):
        counts[t] = 1 + sum(counts[c] for c in _operands(t))
    return counts[term]


def chain(term: Term, cls: type[_Binary]) -> list[Term]:
    """The operands of the ``cls``-chain of ``term``, left to right: its
    nodes reached through ``cls`` nodes alone that are not themselves a
    ``cls``, found over an explicit stack. A ``term`` that is not a ``cls``
    is its own only operand."""
    operands = []
    pending = [term]
    while pending:
        node = pending.pop()
        if type(node) is cls:
            pending.append(node.right)
            pending.append(node.left)
        else:
            operands.append(node)
    return operands


def then(first: Term, rest: Term) -> Term:
    """``first ; rest`` with the ``;``-chain of ``first`` nested to the right
    and its ``1`` factors dropped by the unit law ``1 ; e = e``, the
    concatenation ``{1} ⊙ F = F`` of Antimirov's partial derivatives: so
    ``then((a ; b) ; c, d)`` is ``a ; (b ; (c ; d))`` and ``then(1, d)`` is
    ``d``. ``;`` is associative with unit ``1``, so the language is that of
    ``Seq(first, rest)``. A ``first`` that is not a ``;`` costs at most one
    constructor call; a chain's factors are found by ``chain``."""
    if type(first) is not Seq:
        return rest if first is _ONE else Seq(first, rest)
    for factor in reversed(chain(first, Seq)):
        if factor is not _ONE:
            rest = Seq(factor, rest)
    return rest


def _flatten(term: Term) -> tuple:
    """``term`` as a post-order tuple of its distinct nodes: a leaf is its
    text (``"0"``, ``"1"`` or its letter), and a compound node is its class
    followed by the positions of its operands in the tuple."""
    position: dict[Term, int] = {}
    nodes: list = []
    for t in postorder(term):
        position[t] = len(nodes)
        operands = _operands(t)
        nodes.append((type(t), *(position[c] for c in operands)) if operands else _TEXT[t])
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


def printed_forms(terms: Iterable[Term]) -> list[str]:
    """Each of ``terms`` rendered with minimal parentheses, in order: a
    child is parenthesised when it binds looser than its parent, or as
    tight in the slot its parent does not associate to: the left slot of
    a ``;``, the right slot of a ``+`` or ``&``.

    One walk prints them all. It uses an explicit stack and appends
    fragments to one list. The first time it prints a compound node it
    records the node's span of the list, and every later occurrence, in
    the same term or a later one, copies that span. So each distinct node
    of all the terms is visited once, and memory stays linear in the
    output (a string per node would be quadratic on a chain).
    """
    out: list[str] = []
    spans: dict[Term, tuple[int, int]] = {}
    forms: list[str] = []
    stack: list = []
    push = stack.append
    for term in terms:
        text = _TEXT.get(term)
        if text is not None:
            forms.append(text)
            continue
        if term in spans:
            start, end = spans[term]
            forms.append("".join(out[start:end]))
            continue
        first = len(out)
        push(term)
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
                    # ``;`` associates to the right, ``+`` and ``&`` to the left.
                    seq = cls is Seq
                    lw = left.precedence < prec + seq
                    rw = right.precedence <= prec - seq
                    if rw:
                        push(")")
                    push(_TEXT.get(right, right))
                    push(_JOINS[cls][2 * lw + rw])
                    push(_TEXT.get(left, left))
                    if lw:
                        push("(")
        forms.append("".join(out[first:]))
    return forms
