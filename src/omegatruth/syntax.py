"""Abstract syntax and printing for the truth language.

Terms are built from 0, S, +, *, variables (natural indices) and the two
designated function symbols ``iter`` (arity 2) and ``sub`` (arity 3).
Formulas are built from =, the unary truth predicate T, ~, -> and forall;
every other connective is a derived abbreviation that is expanded before
anything reaches the checker.

Nodes are immutable and hash-consed: every constructor looks its node up in
an intern table and returns the existing object when there is one.
Structurally equal nodes are therefore the same object, and equality is
identity.  Terms share one table, ``_INTERN``, keyed by (class, payload,
child objects); a canonical compact numeral (see :func:`numeral`) is keyed
by its value instead, so ``numeral(n)`` is a single lookup.  Each formula
kind has a table of its own, whose key holds no class: ``Tr`` and ``Not``
are keyed by their one child, ``Eq`` and ``Forall`` by a pair, and ``Imp``
by its consequent, with a pair-keyed table for every further antecedent of
the same consequent.  The tables are plain dicts: nodes live as long as the
process.

``numeral(n)`` makes one node, whatever the size of ``n``: a ``Succ`` for odd
n, a ``Mul`` for even n.  Its children, which are numerals again, are made
the first time something reads them, so a numeral whose spine nobody walks
costs one node and the bits of its value.

Each node holds its free-variable set and, for terms, the natural it
denotes when it is a canonical numeral.

The shape of each node kind, its children in order and how a node of that
kind is rebuilt over new children, is written down once, in ``_children``
and ``_rebuild``.  Substitution, position navigation, the Goedel coder and
the kernel's walkers read nodes through these two.

The module is trusted as a whole: ``kernel.check`` runs its constructors,
walkers and substitution, and its rejections quote formulas through the
printer.  It defines nothing else (``tests/test_kernel.py`` pins its
functions); the parser of the concrete grammar, which checking never runs,
lives in ``proofscript`` beside the script reader.
"""

from __future__ import annotations

import math
from typing import Union

__all__ = [
    "Term", "Var", "Zero", "Succ", "Add", "Mul", "FnApp",
    "Formula", "Eq", "Tr", "Not", "Imp", "Forall",
    "Expr", "Path", "ZERO", "TWO", "ITER", "SUB", "FN_ARITY",
    "numeral", "substitute",
    "subterm_at", "replace_at", "free_var_positions",
    "var_name", "pretty_print", "CaptureError",
]

_EMPTY: frozenset[int] = frozenset()

# the intern table of terms: canonical numerals under their value, every
# other term under a tuple that starts with its class
_INTERN: dict = {}

# the intern tables of formulas, one per kind: the first Imp over a
# consequent is keyed by that consequent alone, every later one by
# (antecedent, consequent)
_EQ: dict = {}
_TR: dict = {}
_NOT: dict = {}
_IMP: dict = {}
_IMP_PAIRS: dict = {}
_FORALL: dict = {}

ITER = "iter"
SUB = "sub"
FN_ARITY = {ITER: 2, SUB: 3}


class Term:
    """Base class for term nodes."""

    __slots__ = ("fv", "nv")

    @classmethod
    def _make(cls, key, fv: frozenset[int], nv: int | None = None):
        self = _INTERN[key] = object.__new__(cls)
        self.fv = fv
        self.nv = nv  # value when the node is a canonical numeral, else None
        return self

    def __repr__(self) -> str:
        return pretty_print(self)


class Var(Term):
    __slots__ = ("idx",)

    def __new__(cls, idx: int):
        key = (cls, idx)
        self = _INTERN.get(key)
        if self is None:
            if idx < 0:
                raise ValueError("variable index must be a natural")
            self = cls._make(key, frozenset((idx,)))
            self.idx = idx
        return self


class Zero(Term):
    __slots__ = ()

    def __new__(cls):
        return _INTERN.get(0) or cls._make(0, _EMPTY, 0)


class Succ(Term):
    __slots__ = ("arg",)

    def __new__(cls, arg: Term):
        n = arg.nv
        key = n + 1 if n is not None and not n & 1 else (cls, arg)
        self = _INTERN.get(key)
        if self is None:
            self = cls._make(key, arg.fv, key if type(key) is int else None)
            self.arg = arg
        return self

    def __getattr__(self, name):
        # reached only while the child slot of a numeral is still unset
        if name != "arg" or self.nv is None:
            raise AttributeError(name)
        self.arg = arg = numeral(self.nv - 1)
        return arg


class Add(Term):
    __slots__ = ("left", "right")

    def __new__(cls, left: Term, right: Term):
        key = (cls, left, right)
        self = _INTERN.get(key)
        if self is None:
            self = cls._make(key, _union(left.fv, right.fv))
            self.left = left
            self.right = right
        return self


class Mul(Term):
    __slots__ = ("left", "right")

    def __new__(cls, left: Term, right: Term):
        n = right.nv
        key = n << 1 if n and left is TWO else (cls, left, right)
        self = _INTERN.get(key)
        if self is None:
            self = cls._make(key, _union(left.fv, right.fv), key if type(key) is int else None)
            self.left = left
            self.right = right
        return self

    def __getattr__(self, name):
        # reached only while the child slots of a numeral are still unset
        if name not in ("left", "right") or self.nv is None:
            raise AttributeError(name)
        self.left, self.right = TWO, numeral(self.nv >> 1)
        return self.left if name == "left" else self.right


class FnApp(Term):
    __slots__ = ("sym", "args")

    def __new__(cls, sym: str, args):
        args = tuple(args)
        key = (cls, sym, args)
        self = _INTERN.get(key)
        if self is None:
            if sym not in FN_ARITY:
                raise ValueError(f"unknown function symbol {sym!r}")
            if len(args) != FN_ARITY[sym]:
                raise ValueError(f"{sym} expects {FN_ARITY[sym]} arguments, got {len(args)}")
            fv = _EMPTY
            for a in args:
                fv = _union(fv, a.fv)
            self = cls._make(key, fv)
            self.sym = sym
            self.args = args
        return self


class Formula:
    """Base class for formula nodes.

    On an intern miss each kind's ``__new__`` makes the node with
    ``object.__new__`` and sets ``fv`` and its fields itself: proof
    construction makes a formula node per few proof nodes, and a shared
    helper would cost a call each time.
    """

    __slots__ = ("fv",)

    def __repr__(self) -> str:
        return pretty_print(self)


class Eq(Formula):
    __slots__ = ("left", "right")

    def __new__(cls, left: Term, right: Term):
        key = (left, right)
        self = _EQ.get(key)
        if self is None:
            self = _EQ[key] = object.__new__(cls)
            self.fv = _union(left.fv, right.fv)
            self.left = left
            self.right = right
        return self


class Tr(Formula):
    __slots__ = ("arg",)

    def __new__(cls, arg: Term):
        self = _TR.get(arg)
        if self is None:
            self = _TR[arg] = object.__new__(cls)
            self.fv = arg.fv
            self.arg = arg
        return self


class Not(Formula):
    __slots__ = ("body",)

    def __new__(cls, body: Formula):
        self = _NOT.get(body)
        if self is None:
            self = _NOT[body] = object.__new__(cls)
            self.fv = body.fv
            self.body = body
        return self


class Imp(Formula):
    __slots__ = ("ant", "cons")

    def __new__(cls, ant: Formula, cons: Formula):
        self = _IMP.get(cons)
        if self is None:
            table, key = _IMP, cons
        elif self.ant is ant:
            return self
        else:
            table, key = _IMP_PAIRS, (ant, cons)
            self = table.get(key)
            if self is not None:
                return self
        self = table[key] = object.__new__(cls)
        self.fv = _union(ant.fv, cons.fv)
        self.ant = ant
        self.cons = cons
        return self


class Forall(Formula):
    __slots__ = ("var", "body")

    def __new__(cls, var: int, body: Formula):
        key = (var, body)
        self = _FORALL.get(key)
        if self is None:
            if var < 0:
                raise ValueError("variable index must be a natural")
            self = _FORALL[key] = object.__new__(cls)
            self.fv = body.fv - {var} if var in body.fv else body.fv
            self.var = var
            self.body = body
        return self


Expr = Union[Term, Formula]
Path = tuple[int, ...]

ZERO = Zero()
TWO = Succ(Succ(ZERO))


def _union(a: frozenset[int], b: frozenset[int]) -> frozenset[int]:
    if not a:
        return b
    if not b:
        return a
    return a | b


def _children(e: Expr) -> tuple:
    t = type(e)
    if t is Succ or t is Tr or t is Not:
        return (e.arg,) if t is not Not else (e.body,)
    if t is Add or t is Mul or t is Eq:
        return (e.left, e.right)
    if t is FnApp:
        return e.args
    if t is Imp:
        return (e.ant, e.cons)
    if t is Forall:
        return (e.body,)
    return ()


def _rebuild(e: Expr, children: tuple) -> Expr:
    """The node of ``e``'s kind and payload over ``children``."""
    t = type(e)
    if t is FnApp:
        return FnApp(e.sym, children)
    if t is Forall:
        return Forall(e.var, children[0])
    return t(*children)


def _postorder(root, children, combine, memo: dict | None = None):
    """The value ``combine(node, values)`` at ``root``, ``values`` being those
    at ``children(node)``, found on a stack of its own, not by recursion.
    Children are asked for before any is walked, and walked left to right.
    A ``memo`` keeps each value, and a node found in it is not walked again.
    ``combine`` gets ``()`` at a leaf and reads ``values`` without changing
    them."""
    results: list = []
    stack: list = [(root, None)]  # (node, None) to visit, (node, kids) to combine
    while stack:
        node, kids = stack.pop()
        if kids is None:
            if memo is not None and node in memo:
                results.append(memo[node])
                continue
            kids = children(node)
            if kids:
                stack.append((node, kids))
                stack.extend([(k, None) for k in reversed(kids)])
                continue
        n = len(kids)
        if not n:
            value = combine(node, ())
        elif n == 1:
            value = combine(node, (results.pop(),))
        else:
            values = results[-n:]
            del results[-n:]
            value = combine(node, values)
        results.append(value)
        if memo is not None:
            memo[node] = value
    return results[0]


def numeral(n: int) -> Term:
    """Canonical compact numeral: ``S(#(n-1))`` for odd n, ``(S(S(0)) * #(n/2))``
    for even n >= 2, and ``0`` for 0.

    It is one node, keyed by ``n``; its children are made when first read.
    """
    hit = _INTERN.get(n)
    if hit is not None:
        return hit
    if n < 0:
        raise ValueError("numerals denote naturals")
    return (Succ if n & 1 else Mul)._make(n, _EMPTY, n)


class CaptureError(ValueError):
    """A substitution refused because a quantifier would bind the term."""


def substitute(e: Expr, v: int, s: Term) -> Expr:
    """Replace every free occurrence of ``v`` in the term or formula ``e``
    by ``s``.

    Raises :class:`CaptureError` when a quantifier above a free occurrence
    of ``v`` binds a variable of ``s``: ``s`` is then not free for ``v``.
    """
    if v not in e.fv:
        return e

    def into(x: Expr) -> tuple:
        if v not in x.fv:
            return ()
        if type(x) is Forall and x.var in s.fv:  # x.var != v, as v is free in x
            raise CaptureError(f"{pretty_print(s)} is not free for {var_name(v)} under forall {var_name(x.var)}")
        return _children(x)

    def put(x: Expr, kids: list) -> Expr:
        if v not in x.fv:
            return x
        return s if type(x) is Var else _rebuild(x, tuple(kids))

    return _postorder(e, into, put, {})


def subterm_at(e: Expr, path: Path) -> Expr:
    for i in path:
        kids = _children(e)
        if not 0 <= i < len(kids):
            raise IndexError(f"position {path} does not exist in {type(e).__name__} node")
        e = kids[i]
    return e


def replace_at(e: Expr, path: Path, new: Expr) -> Expr:
    above = []  # each node passed on the way down, with its children
    for i in path:
        kids = _children(e)
        if not 0 <= i < len(kids):
            raise IndexError(f"position {path} does not exist in {type(e).__name__} node")
        above.append((e, kids))
        e = kids[i]
    for (node, kids), i in zip(reversed(above), reversed(path)):
        new = _rebuild(node, (*kids[:i], new, *kids[i + 1:]))
    return new


def free_var_positions(phi: Expr, v: int) -> list[Path]:
    """Paths of all free occurrences of ``Var(v)``, in left-to-right order."""
    out: list[Path] = []
    path: list[int] = []  # the child indices from phi down to the node popped
    stack = [(phi, 0, 0)] if v in phi.fv else []  # a node, its depth, its index
    while stack:
        e, depth, i = stack.pop()
        if depth:
            path[depth - 1:] = (i,)
        if type(e) is Var:
            out.append(tuple(path))  # each path is copied once, at its leaf
        else:
            stack += [(k, depth + 1, j) for j, k in enumerate(_children(e)) if v in k.fv][::-1]
    return out


# ---------------------------------------------------------------------------
# printing

_CANONICAL_NAMES = ("x", "y", "z", "w", "u", "v")


def var_name(idx: int) -> str:
    if idx < len(_CANONICAL_NAMES):
        return _CANONICAL_NAMES[idx]
    return f"v{idx}"


def pretty_print(e: Expr) -> str:
    return _print(e, math.inf)


def _print(e: Expr, limit: float) -> str:
    """The start of the text of ``e``: its pieces up to the first that
    takes it past ``limit`` characters.  Iterative, so deeply nested
    expressions print under any recursion limit."""
    parts: list[str] = []
    size = 0
    stack: list = [e]
    while stack and size <= limit:
        e = stack.pop()
        if type(e) is str:
            parts.append(e)
            size += len(e)
        else:
            stack.extend(reversed(_pp_pieces(e)))
    return "".join(parts)


def _decimal(n: int) -> str:
    """``str(n)``, also past CPython's int-to-str digit limit, which only
    ``cli.main`` lifts."""
    try:
        return str(n)
    except ValueError:
        from decimal import Decimal  # converts an int without that limit

        return str(Decimal(n))


def _pp_pieces(e: Expr) -> tuple:
    """The text of one node, as strings and child nodes in print order."""
    t = type(e)
    if (t is Succ or t is Mul) and e.nv:
        return ("#" + _decimal(e.nv),)
    if t is Var:
        return (var_name(e.idx),)
    if t is Zero:
        return ("0",)
    if t is Succ:
        return ("S(", e.arg, ")")
    if t is Add or t is Mul:
        return ("(", e.left, " + " if t is Add else " * ", e.right, ")")
    if t is FnApp:
        pieces = [e.sym, "(", e.args[0]]
        for a in e.args[1:]:
            pieces += (", ", a)
        return (*pieces, ")")
    if t is Eq:
        return (e.left, " = ", e.right)
    if t is Tr:
        return ("T(", e.arg, ")")
    if t is Not:
        return ("~(", e.body, ")") if type(e.body) in (Imp, Forall) else ("~", e.body)
    if t is Imp:
        if type(e.ant) in (Imp, Forall):
            return ("(", e.ant, ") -> ", e.cons)
        return (e.ant, " -> ", e.cons)
    if t is Forall:
        return (f"forall {var_name(e.var)}. ", e.body)
    return (f"<{_cut(t.__name__)}>",)  # an object of no syntax class, read no further


# the most characters of the input, or of a formula, that an error message
# quotes
_QUOTE_LIMIT = 120


def _cut(text: str) -> str:
    """``text``, cut after _QUOTE_LIMIT characters."""
    return text if len(text) <= _QUOTE_LIMIT else text[:_QUOTE_LIMIT] + "..."


def _shown(e: Expr) -> str:
    """``e`` as a message quotes it: ``_cut(pretty_print(e))``, printed only
    up to the cut, so a large formula costs no more than the cut."""
    return _cut(_print(e, _QUOTE_LIMIT))
