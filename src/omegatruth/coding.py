"""Goedel coding, numerals, and the meta-level iteration and substitution
functions.

The code of an expression is a deterministic, prefix-free bit serialization
read as a natural number (with a leading sentinel bit).  Canonical compact
numerals are serialized as a single tagged payload rather than node by node,
which keeps the code of a quoted expression within a small constant factor
of the code of the expression itself; this is what makes nested quotation
(names of names of names ...) tractable.

``decode`` accepts exactly the image of ``encode``: after parsing it
re-serializes the result and rejects any mismatch.
"""

from __future__ import annotations

from .syntax import (
    Add, Eq, Expr, FN_ARITY, FnApp, Forall, Formula, Imp, ITER, Mul, Not, SUB,
    Succ, Term, Tr, Var, ZERO, _children, _postorder, numeral, substitute,
)

__all__ = [
    "CodingError", "DecodeError", "EvalError",
    "encode", "decode", "numeral", "name_of", "value",
    "sub_fn", "iter_fn",
    "K0", "OMEGA_VAR", "TEMPLATE_CODE_VAR", "UINF_BOUND_VAR", "DIAG_VAR",
    "ITER_ZERO_AXIOM", "ITER_STEP_AXIOM",
]


class CodingError(ValueError):
    pass


class DecodeError(CodingError):
    pass


class EvalError(CodingError):
    pass


# node tags; NUM abbreviates a canonical compact numeral
_T_VAR, _T_ZERO, _T_SUCC, _T_ADD, _T_MUL, _T_ITER, _T_SUB, _T_NUM = range(8)
_T_EQ, _T_TR, _T_NOT, _T_IMP, _T_FORALL = range(8, 13)

# the tag of each compound kind: its class, or its symbol for ``FnApp``
_TAG = {
    Succ: _T_SUCC, Add: _T_ADD, Mul: _T_MUL, ITER: _T_ITER, SUB: _T_SUB,
    Eq: _T_EQ, Tr: _T_TR, Not: _T_NOT, Imp: _T_IMP, Forall: _T_FORALL,
}
_KIND = {tag: kind for kind, tag in _TAG.items()}

_TAG_BITS = 4


def _nat_chunk(n: int) -> tuple[int, int]:
    """Elias-delta code for the natural ``n`` (self-delimiting)."""
    m = n + 1
    nbits = m.bit_length()
    l = nbits.bit_length()
    # (l-1) zeros, nbits in l binary digits, then the nbits-1 low bits of m
    val = (nbits << (nbits - 1)) | (m & ((1 << (nbits - 1)) - 1))
    return val, (2 * l - 1) + (nbits - 1)


# the (bits, length) chunk of each node coded so far, and the value of each
# term evaluated so far; nodes are interned, so these are keyed by identity
_chunks: dict[Expr, tuple[int, int]] = {}
_values: dict[Term, int] = {}


def _parts(e: Expr) -> tuple:
    # a numeral is read by its value, so no walk reads its children
    return () if isinstance(e, Term) and e.nv is not None else _children(e)


def _chunk_of(e: Expr, parts: list) -> tuple[int, int]:
    """The chunk of ``e`` from the chunks of its children."""
    t = type(e)
    if isinstance(e, Term) and e.nv is not None:
        nv, nb = _nat_chunk(e.nv)
        return (_T_NUM << nb) | nv, _TAG_BITS + nb
    if t is Var:
        nv, nb = _nat_chunk(e.idx)
        return (_T_VAR << nb) | nv, _TAG_BITS + nb
    val, nbits = _TAG[e.sym if t is FnApp else t], _TAG_BITS
    if t is Forall:
        nv, nb = _nat_chunk(e.var)
        val, nbits = (val << nb) | nv, nbits + nb
    for v, n in parts:
        val = (val << n) | v
        nbits += n
    return val, nbits


def encode(e: Expr) -> int:
    """Injective code of a term or formula, as a natural number."""
    val, nbits = _postorder(e, _parts, _chunk_of, _chunks)
    return (1 << nbits) | val


class _Reader:
    __slots__ = ("bits", "pos")

    def __init__(self, bits: str):
        self.bits = bits
        self.pos = 0

    def read(self, k: int) -> int:
        if self.pos + k > len(self.bits):
            raise DecodeError("truncated code")
        out = int(self.bits[self.pos:self.pos + k] or "0", 2)
        self.pos += k
        return out

    def read_nat(self) -> int:
        bits, pos = self.bits, self.pos
        z = 0
        while pos + z < len(bits) and bits[pos + z] == "0":
            z += 1
        self.pos += z
        # past the zeros, read() either runs out or starts at a 1, so
        # nbits >= 1 and the payload is at least 1
        nbits = self.read(z + 1)
        return ((1 << (nbits - 1)) | self.read(nbits - 1)) - 1


# the number of children of each compound tag: the arity of its function
# symbol, or the slots of its class but for the bound variable of a Forall
_ARITY = {
    tag: FN_ARITY[kind] if type(kind) is str else len(kind.__slots__) - (kind is Forall)
    for tag, kind in _KIND.items()
}


def _build(tag: int, var: int | None, kids: list[Expr]) -> Expr:
    if tag in (_T_NOT, _T_IMP, _T_FORALL):
        if not all(isinstance(k, Formula) for k in kids):
            raise DecodeError("term code in a formula position")
    elif not all(isinstance(k, Term) for k in kids):
        raise DecodeError("formula code in a term position")
    kind = _KIND[tag]
    if type(kind) is str:
        return FnApp(kind, kids)
    return Forall(var, kids[0]) if kind is Forall else kind(*kids)


_decode_cache: dict[int, Expr] = {}


def decode(code: int) -> Expr:
    """Inverse of :func:`encode`; rejects naturals outside its image."""
    hit = _decode_cache.get(code)
    if hit is not None:
        return hit
    if code < 2:
        raise DecodeError("code lacks the sentinel bit")
    r = _Reader(bin(code)[3:])

    def read(slot: list) -> list:
        # a slot, an empty list, stands for the next node of the code; it gets
        # the leaf, or a compound's tag and bound variable and child slots
        tag = r.read(_TAG_BITS)
        if tag > _T_FORALL:
            raise DecodeError(f"invalid node tag {tag}")
        if tag in (_T_NUM, _T_VAR, _T_ZERO):
            slot.append(ZERO if tag == _T_ZERO else (numeral if tag == _T_NUM else Var)(r.read_nat()))
            return []
        slot += (tag, r.read_nat() if tag == _T_FORALL else None)
        return [[] for _ in range(_ARITY[tag])]

    node = _postorder([], read, lambda slot, kids: _build(*slot, kids) if kids else slot[0])
    if r.pos != len(r.bits):
        raise DecodeError("trailing bits after a complete expression")
    if encode(node) != code:
        raise DecodeError("code is not in canonical form")
    _decode_cache[code] = node
    return node


def name_of(e: Expr) -> Term:
    """The closed term naming the code of ``e``."""
    return numeral(encode(e))


def _value_of(t: Term, vals: list) -> int:
    """The value of ``t`` from the values of its children."""
    tt = type(t)
    if t.nv is not None:
        return t.nv
    if tt is Var:
        raise EvalError(f"open term: variable {t.idx} has no value")
    if tt is Succ:
        return vals[0] + 1
    if tt is Add:
        return vals[0] + vals[1]
    if tt is Mul:
        return vals[0] * vals[1]
    return (iter_fn if t.sym == ITER else sub_fn)(*vals)


def value(t: Term) -> int:
    """Value of a closed term under the standard interpretation."""
    return t.nv if t.nv is not None else _postorder(t, _parts, _value_of, _values)


def sub_fn(c: int, v: int, n: int) -> int:
    """Code of the formula obtained from ``decode(c)`` by substituting the
    numeral of ``n`` for variable ``v``."""
    try:
        phi = decode(c)
    except DecodeError as e:
        raise EvalError(f"sub: first argument does not decode: {e}") from e
    if not isinstance(phi, Formula):
        raise EvalError("sub: first argument is not the code of a formula")
    return encode(substitute(phi, v, numeral(n)))


# distinguished variable indices used throughout the bundled derivations
UINF_BOUND_VAR = 0   # x: outer quantifier of the UInf schema
OMEGA_VAR = 1        # y: bound variable of the omega-truth predicate
TEMPLATE_CODE_VAR = 2  # z: code slot of the iteration step template
DIAG_VAR = 5         # v: distinguished variable of diagonalized formulas

#: code of the step template  T(iter(y, z))
K0 = encode(Tr(FnApp(ITER, [Var(OMEGA_VAR), Var(TEMPLATE_CODE_VAR)])))

# the two iteration axioms, one sentence each: forall x. iter(0, x) = x and
# forall x. forall z. iter(S(x), z) = sub(sub(#K0, #2, z), #1, x).  The code
# slot is substituted first, so that instantiating z with a closed name and
# evaluating the inner application leaves exactly the one-variable template
# used by the UInf schema.
_X, _Z = Var(UINF_BOUND_VAR), Var(TEMPLATE_CODE_VAR)
ITER_ZERO_AXIOM = Forall(UINF_BOUND_VAR, Eq(FnApp(ITER, [ZERO, _X]), _X))
ITER_STEP_AXIOM = Forall(UINF_BOUND_VAR, Forall(TEMPLATE_CODE_VAR, Eq(
    FnApp(ITER, [Succ(_X), _Z]),
    FnApp(SUB, [FnApp(SUB, [numeral(K0), numeral(TEMPLATE_CODE_VAR), _Z]), numeral(OMEGA_VAR), _X]),
)))


def iter_fn(n: int, c: int) -> int:
    """The two-place iteration function: ``iter_fn(0, c) = c`` and
    ``iter_fn(n+1, c)`` is the code of ``T(iter(numeral(n), numeral(c)))``,
    produced by instantiating the step template via :func:`sub_fn`."""
    if n == 0:
        return c
    return sub_fn(sub_fn(K0, TEMPLATE_CODE_VAR, c), OMEGA_VAR, n - 1)
