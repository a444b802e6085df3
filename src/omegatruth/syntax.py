"""Abstract syntax, parsing and printing for the truth language.

Terms are built from 0, S, +, *, variables (natural indices) and the two
designated function symbols ``iter`` (arity 2) and ``sub`` (arity 3).
Formulas are built from =, the unary truth predicate T, ~, -> and forall;
every other connective is a derived abbreviation that is expanded before
anything reaches the checker.

Nodes are immutable and hash-consed: every constructor looks its node up in
one process-wide table, keyed by (class, payload, child objects), and
returns the existing object when there is one.  Structurally equal nodes
are therefore the same object, and equality is identity.  A canonical
compact numeral (see :func:`numeral`) is keyed by its value instead, so
``numeral(n)`` is a single lookup.  The table is a plain dict: nodes live as
long as the process.  The proof objects of :mod:`kernel` share the table.

``numeral(n)`` makes one node, whatever the size of ``n``: a ``Succ`` for odd
n, a ``Mul`` for even n.  Its children, which are numerals again, are made
the first time something reads them, so a numeral whose spine nobody walks
costs one node and the bits of its value.

Each node caches its free-variable set and, for terms, the natural it
denotes when it is a canonical numeral.
"""

from __future__ import annotations

import re
from typing import Union

__all__ = [
    "Term", "Var", "Zero", "Succ", "Add", "Mul", "FnApp",
    "Formula", "Eq", "Tr", "Not", "Imp", "Forall",
    "Expr", "Path", "ZERO", "TWO", "ITER", "SUB", "FN_ARITY",
    "numeral", "substitute", "term_substitute",
    "subterm_at", "replace_at", "free_var_positions",
    "var_name", "parse_term", "parse_formula", "pretty_print",
    "ParseError", "mk_iff",
]

_EMPTY: frozenset[int] = frozenset()

# the intern table: canonical numerals under their value, every other node
# under a tuple that starts with its class
_INTERN: dict = {}

ITER = "iter"
SUB = "sub"
FN_ARITY = {ITER: 2, SUB: 3}


class Term:
    """Base class for term nodes."""

    __slots__ = ("fv", "nv", "_code", "_val")

    @classmethod
    def _make(cls, key, fv: frozenset[int], nv: int | None = None):
        self = _INTERN[key] = object.__new__(cls)
        self.fv = fv
        self.nv = nv  # value when the node is a canonical numeral, else None
        self._code = None
        self._val = None
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
    """Base class for formula nodes."""

    __slots__ = ("fv", "_code")

    @classmethod
    def _make(cls, key, fv: frozenset[int]):
        self = _INTERN[key] = object.__new__(cls)
        self.fv = fv
        self._code = None
        return self

    def __repr__(self) -> str:
        return pretty_print(self)


class Eq(Formula):
    __slots__ = ("left", "right")

    def __new__(cls, left: Term, right: Term):
        key = (cls, left, right)
        self = _INTERN.get(key)
        if self is None:
            self = cls._make(key, _union(left.fv, right.fv))
            self.left = left
            self.right = right
        return self


class Tr(Formula):
    __slots__ = ("arg",)

    def __new__(cls, arg: Term):
        key = (cls, arg)
        self = _INTERN.get(key)
        if self is None:
            self = cls._make(key, arg.fv)
            self.arg = arg
        return self


class Not(Formula):
    __slots__ = ("body",)

    def __new__(cls, body: Formula):
        key = (cls, body)
        self = _INTERN.get(key)
        if self is None:
            self = cls._make(key, body.fv)
            self.body = body
        return self


class Imp(Formula):
    __slots__ = ("ant", "cons")

    def __new__(cls, ant: Formula, cons: Formula):
        key = (cls, ant, cons)
        self = _INTERN.get(key)
        if self is None:
            self = cls._make(key, _union(ant.fv, cons.fv))
            self.ant = ant
            self.cons = cons
        return self


class Forall(Formula):
    __slots__ = ("var", "body")

    def __new__(cls, var: int, body: Formula):
        key = (cls, var, body)
        self = _INTERN.get(key)
        if self is None:
            if var < 0:
                raise ValueError("variable index must be a natural")
            self = cls._make(key, body.fv - {var} if var in body.fv else body.fv)
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
    t = type(e)
    if t is Succ:
        return Succ(children[0])
    if t is Add:
        return Add(children[0], children[1])
    if t is Mul:
        return Mul(children[0], children[1])
    if t is FnApp:
        return FnApp(e.sym, children)
    if t is Eq:
        return Eq(children[0], children[1])
    if t is Tr:
        return Tr(children[0])
    if t is Not:
        return Not(children[0])
    if t is Imp:
        return Imp(children[0], children[1])
    if t is Forall:
        return Forall(e.var, children[0])
    raise ValueError(f"{t.__name__} has no children")


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


def term_substitute(t: Term, v: int, s: Term) -> Term:
    if v not in t.fv:
        return t
    if type(t) is Var:
        return s
    kids = tuple(term_substitute(c, v, s) for c in _children(t))
    return _rebuild(t, kids)


def substitute(phi: Formula, v: int, s: Term) -> Formula:
    """Replace every free occurrence of ``v`` in ``phi`` by ``s``.

    Bound variables that would capture a variable of ``s`` are renamed to the
    smallest fresh index first.
    """
    if v not in phi.fv:
        return phi
    t = type(phi)
    if t is Eq:
        return Eq(term_substitute(phi.left, v, s), term_substitute(phi.right, v, s))
    if t is Tr:
        return Tr(term_substitute(phi.arg, v, s))
    if t is Not:
        return Not(substitute(phi.body, v, s))
    if t is Imp:
        return Imp(substitute(phi.ant, v, s), substitute(phi.cons, v, s))
    # Forall; phi.var != v since v is free in phi
    w, body = phi.var, phi.body
    if w in s.fv:
        fresh = 0
        taken = body.fv | s.fv | {v}
        while fresh in taken:
            fresh += 1
        body = substitute(body, w, Var(fresh))
        w = fresh
    return Forall(w, substitute(body, v, s))


def subterm_at(e: Expr, path: Path) -> Expr:
    for i in path:
        kids = _children(e)
        if not 0 <= i < len(kids):
            raise IndexError(f"position {path} does not exist in {type(e).__name__} node")
        e = kids[i]
    return e


def replace_at(e: Expr, path: Path, new: Expr) -> Expr:
    if not path:
        return new
    kids = list(_children(e))
    if not 0 <= path[0] < len(kids):
        raise IndexError(f"position {path} does not exist in {type(e).__name__} node")
    kids[path[0]] = replace_at(kids[path[0]], path[1:], new)
    return _rebuild(e, tuple(kids))


def free_var_positions(phi: Expr, v: int) -> list[Path]:
    """Paths of all free occurrences of ``Var(v)``, in left-to-right order."""
    out: list[Path] = []

    def walk(e: Expr, path: Path) -> None:
        if v not in e.fv:
            return
        if type(e) is Var:
            out.append(path)
            return
        if type(e) is Forall and e.var == v:
            return
        for i, c in enumerate(_children(e)):
            walk(c, path + (i,))

    walk(phi, ())
    return out


def mk_iff(a: Formula, b: Formula) -> Formula:
    """a <-> b as the primitive-connective expansion ~((a->b) -> ~(b->a))."""
    return Not(Imp(Imp(a, b), Not(Imp(b, a))))


# ---------------------------------------------------------------------------
# concrete syntax

_CANONICAL_NAMES = ("x", "y", "z", "w", "u", "v")
_NAME_TO_INDEX = {n: i for i, n in enumerate(_CANONICAL_NAMES)}


def var_name(idx: int) -> str:
    if idx < len(_CANONICAL_NAMES):
        return _CANONICAL_NAMES[idx]
    return f"v{idx}"


def var_index(name: str) -> int | None:
    """Index of a variable name in the concrete grammar, or None."""
    if name in _NAME_TO_INDEX:
        return _NAME_TO_INDEX[name]
    m = re.fullmatch(r"v(\d+)", name)
    if m:
        return int(m.group(1))
    return None


def pretty_print(e: Expr) -> str:
    # iterative, so deeply nested expressions print under any recursion limit
    parts: list[str] = []
    stack: list = [e]
    while stack:
        e = stack.pop()
        if type(e) is str:
            parts.append(e)
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
    if isinstance(e, Term) and e.nv:
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
    return (f"forall {var_name(e.var)}. ", e.body)


class ParseError(ValueError):
    """Syntax error in the concrete grammar, tagged with an input position."""

    def __init__(self, message: str, pos: int, text: str):
        line = text.count("\n", 0, pos) + 1
        col = pos - (text.rfind("\n", 0, pos) + 1) + 1
        super().__init__(f"{message} (line {line}, column {col})")
        self.pos = pos


# One match per token, skipping whitespace: group 1 is the token, or "" for
# a character that starts no token.
_TOKEN_RE = re.compile(r"(#\d+|0|[A-Za-z_][A-Za-z0-9_]*|->|[()=+*,.~])|\S")


class _Miss(Exception):
    """A parse failure, as its message and the index of the token it names.

    Raised inside the parser instead of a :class:`ParseError`, whose line
    and column cost a scan of the text, so that ``unary`` can try a term and
    back off cheaply; only a failure that reaches the caller is located.
    """


class _Parser:
    def __init__(self, text: str):
        self.text = text
        # the tokens, then "" for the end of input
        self.toks = toks = _TOKEN_RE.findall(text)
        toks.append("")
        self.i = 0
        # indices of "(" tokens where a term was tried and failed; a term
        # parse depends only on where it starts, so it is not tried again
        self.no_term: set[int] = set()
        bad = toks.index("")
        if bad < len(toks) - 1:
            pos = self.offset(bad)
            raise ParseError(f"unexpected character {text[pos]!r}", pos, text)

    def offset(self, i: int) -> int:
        """Where token ``i`` starts in the text (its length for the end)."""
        for k, m in enumerate(_TOKEN_RE.finditer(self.text)):
            if k == i:
                return m.start()
        return len(self.text)

    def located(self, miss: _Miss) -> ParseError:
        msg, i = miss.args
        return ParseError(msg, self.offset(i), self.text)

    def next(self) -> str:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect(self, want: str) -> None:
        tok = self.toks[self.i]
        if tok != want:
            raise _Miss(f"expected {want!r}, found {tok or 'end of input'!r}", self.i)
        self.i += 1

    def error(self, msg: str) -> _Miss:
        tok = self.toks[self.i]
        return _Miss(f"{msg}, found {tok or 'end of input'!r}", self.i)

    # terms -----------------------------------------------------------------
    def term(self) -> Term:
        tok = self.next()
        if tok[:1] == "#":
            return numeral(int(tok[1:]))
        if tok == "0":
            # no bare integers other than 0 in the grammar
            return ZERO
        if tok == "S":
            self.expect("(")
            t = self.term()
            self.expect(")")
            return Succ(t)
        if tok in FN_ARITY:
            self.expect("(")
            args = [self.term()]
            for _ in range(FN_ARITY[tok] - 1):
                self.expect(",")
                args.append(self.term())
            self.expect(")")
            return FnApp(tok, args)
        if tok == "(":
            start = self.i - 1
            try:
                left = self.term()
                op = self.next()
                if op != "+" and op != "*":
                    raise _Miss(f"expected '+' or '*', found {op!r}", self.i - 1)
                right = self.term()
                self.expect(")")
            except _Miss:
                self.no_term.add(start)
                raise
            return Add(left, right) if op == "+" else Mul(left, right)
        idx = var_index(tok)
        if idx is not None:
            return Var(idx)
        self.i -= 1
        if tok.isidentifier():
            raise _Miss(f"unknown identifier {tok!r}", self.i)
        raise self.error("expected a term")

    # formulas ---------------------------------------------------------------
    def formula(self) -> Formula:
        if self.toks[self.i] == "forall":
            return self.forall()
        left = self.unary()
        if self.toks[self.i] == "->":
            self.i += 1
            return Imp(left, self.formula())
        return left

    def forall(self) -> Formula:
        self.i += 1  # 'forall'; the body extends maximally to the right
        name = self.next()
        idx = var_index(name)
        if idx is None:
            raise _Miss(f"expected a variable after 'forall', found {name!r}", self.i - 1)
        self.expect(".")
        return Forall(idx, self.formula())

    def unary(self) -> Formula:
        tok = self.toks[self.i]
        if tok == "~":
            self.i += 1
            if self.toks[self.i] == "forall":
                return Not(self.forall())
            return Not(self.unary())
        if tok == "T":
            self.i += 1
            self.expect("(")
            t = self.term()
            self.expect(")")
            return Tr(t)
        if tok == "(":
            # either a parenthesized formula or a parenthesized term of an
            # equation; T, ~ and forall start only formulas, so the term is
            # tried only when another token follows, and only once
            mark = self.i
            if self.toks[mark + 1] not in ("T", "~", "forall") and mark not in self.no_term:
                try:
                    left = self.term()
                except _Miss:
                    pass
                else:
                    self.expect("=")
                    return Eq(left, self.term())
            self.i = mark + 1
            inner = self.formula()
            self.expect(")")
            return inner
        left = self.term()
        self.expect("=")
        return Eq(left, self.term())


def parse_term(text: str) -> Term:
    p = _Parser(text)
    try:
        t = p.term()
        if p.toks[p.i]:
            raise p.error("trailing input after term")
    except _Miss as miss:
        raise p.located(miss) from None
    return t


def parse_formula(text: str) -> Formula:
    p = _Parser(text)
    try:
        f = p.formula()
        if p.toks[p.i]:
            raise p.error("trailing input after formula")
    except _Miss as miss:
        raise p.located(miss) from None
    return f
