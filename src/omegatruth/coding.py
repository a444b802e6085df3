"""Goedel coding, numerals, the meta-level iteration and substitution
functions, the omega-truth predicate and the diagonal construction.

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
    Add, Eq, Expr, FnApp, Forall, Formula, Imp, ITER, Mul, Not, SUB, Succ,
    Term, Tr, Var, ZERO, Zero, numeral, substitute,
)

__all__ = [
    "CodingError", "DecodeError", "EvalError",
    "encode", "decode", "numeral", "name_of", "value",
    "sub_fn", "iter_fn", "omega_truth",
    "self_application_term", "diagonal_pair",
    "K0", "OMEGA_VAR", "TEMPLATE_CODE_VAR", "UINF_BOUND_VAR", "DIAG_VAR",
    "iter_zero_axiom", "iter_step_axiom",
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

_TAG_BITS = 4


def _nat_chunk(n: int) -> tuple[int, int]:
    """Elias-delta code for the natural ``n`` (self-delimiting)."""
    m = n + 1
    nbits = m.bit_length()
    l = nbits.bit_length()
    # (l-1) zeros, nbits in l binary digits, then the nbits-1 low bits of m
    val = (nbits << (nbits - 1)) | (m & ((1 << (nbits - 1)) - 1))
    return val, (2 * l - 1) + (nbits - 1)


def _chunk(e: Expr) -> tuple[int, int]:
    cached = e._code
    if cached is not None:
        return cached
    if isinstance(e, Term) and e.nv is not None:
        nv, nb = _nat_chunk(e.nv)
        out = ((_T_NUM << nb) | nv, _TAG_BITS + nb)
        e._code = out
        return out
    t = type(e)
    if t is Var:
        nv, nb = _nat_chunk(e.idx)
        out = ((_T_VAR << nb) | nv, _TAG_BITS + nb)
    elif t is Succ:
        out = _cat(_T_SUCC, [_chunk(e.arg)])
    elif t is Add:
        out = _cat(_T_ADD, [_chunk(e.left), _chunk(e.right)])
    elif t is Mul:
        out = _cat(_T_MUL, [_chunk(e.left), _chunk(e.right)])
    elif t is FnApp:
        tag = _T_ITER if e.sym == ITER else _T_SUB
        out = _cat(tag, [_chunk(a) for a in e.args])
    elif t is Eq:
        out = _cat(_T_EQ, [_chunk(e.left), _chunk(e.right)])
    elif t is Tr:
        out = _cat(_T_TR, [_chunk(e.arg)])
    elif t is Not:
        out = _cat(_T_NOT, [_chunk(e.body)])
    elif t is Imp:
        out = _cat(_T_IMP, [_chunk(e.ant), _chunk(e.cons)])
    elif t is Forall:
        nv, nb = _nat_chunk(e.var)
        out = _cat_raw((_T_FORALL << nb) | nv, _TAG_BITS + nb, [_chunk(e.body)])
    else:
        raise CodingError(f"cannot encode {t.__name__}")
    e._code = out
    return out


def _cat(tag: int, chunks: list[tuple[int, int]]) -> tuple[int, int]:
    return _cat_raw(tag, _TAG_BITS, chunks)


def _cat_raw(val: int, nbits: int, chunks: list[tuple[int, int]]) -> tuple[int, int]:
    for v, n in chunks:
        val = (val << n) | v
        nbits += n
    return val, nbits


def encode(e: Expr) -> int:
    """Injective code of a term or formula, as a natural number."""
    val, nbits = _chunk(e)
    return (1 << nbits) | val


class _Reader:
    __slots__ = ("bits", "pos")

    def __init__(self, bits: str):
        self.bits = bits
        self.pos = 0

    def read(self, k: int) -> int:
        if self.pos + k > len(self.bits):
            raise DecodeError("truncated code")
        out = int(self.bits[self.pos:self.pos + k] or "0", 2) if k else 0
        self.pos += k
        return out

    def read_nat(self) -> int:
        bits, pos = self.bits, self.pos
        z = 0
        while pos + z < len(bits) and bits[pos + z] == "0":
            z += 1
        self.pos += z
        nbits = self.read(z + 1)
        m = (1 << (nbits - 1)) | self.read(nbits - 1) if nbits else 0
        if m == 0:
            raise DecodeError("malformed natural payload")
        return m - 1


_ARITY = {
    _T_SUCC: 1, _T_ADD: 2, _T_MUL: 2, _T_ITER: 2, _T_SUB: 3,
    _T_EQ: 2, _T_TR: 1, _T_NOT: 1, _T_IMP: 2, _T_FORALL: 1,
}
_TERM_SLOTS = {_T_SUCC, _T_ADD, _T_MUL, _T_ITER, _T_SUB, _T_EQ, _T_TR}


def _build(tag: int, var: int | None, kids: list[Expr]) -> Expr:
    if tag in _TERM_SLOTS and not all(isinstance(k, Term) for k in kids):
        raise DecodeError("formula code in a term position")
    if tag in (_T_NOT, _T_IMP, _T_FORALL) and not all(isinstance(k, Formula) for k in kids):
        raise DecodeError("term code in a formula position")
    if tag == _T_SUCC:
        return Succ(kids[0])
    if tag == _T_ADD:
        return Add(kids[0], kids[1])
    if tag == _T_MUL:
        return Mul(kids[0], kids[1])
    if tag == _T_ITER:
        return FnApp(ITER, kids)
    if tag == _T_SUB:
        return FnApp(SUB, kids)
    if tag == _T_EQ:
        return Eq(kids[0], kids[1])
    if tag == _T_TR:
        return Tr(kids[0])
    if tag == _T_NOT:
        return Not(kids[0])
    if tag == _T_IMP:
        return Imp(kids[0], kids[1])
    return Forall(var, kids[0])


_decode_cache: dict[int, Expr] = {}


def decode(code: int) -> Expr:
    """Inverse of :func:`encode`; rejects naturals outside its image."""
    hit = _decode_cache.get(code)
    if hit is not None:
        return hit
    if code < 2:
        raise DecodeError("code lacks the sentinel bit")
    r = _Reader(bin(code)[3:])
    stack: list[tuple[int, int | None, int, list[Expr]]] = []
    node: Expr | None = None
    while True:
        tag = r.read(_TAG_BITS)
        if tag > _T_FORALL:
            raise DecodeError(f"invalid node tag {tag}")
        if tag == _T_NUM:
            node = numeral(r.read_nat())
        elif tag == _T_VAR:
            node = Var(r.read_nat())
        elif tag == _T_ZERO:
            node = ZERO
        else:
            var = r.read_nat() if tag == _T_FORALL else None
            stack.append((tag, var, _ARITY[tag], []))
            continue
        while stack:
            tag0, var0, arity, kids = stack[-1]
            kids.append(node)
            if len(kids) < arity:
                node = None
                break
            stack.pop()
            node = _build(tag0, var0, kids)
        if node is not None and not stack:
            break
    if r.pos != len(r.bits):
        raise DecodeError("trailing bits after a complete expression")
    if encode(node) != code:
        raise DecodeError("code is not in canonical form")
    _decode_cache[code] = node
    return node


def name_of(e: Expr) -> Term:
    """The closed term naming the code of ``e``."""
    return numeral(encode(e))


def value(t: Term) -> int:
    """Value of a closed term under the standard interpretation."""
    if t.nv is not None:
        return t.nv
    if t._val is not None:
        return t._val
    tt = type(t)
    if tt is Var:
        raise EvalError(f"open term: variable {t.idx} has no value")
    if tt is Zero:
        v = 0
    elif tt is Succ:
        v = value(t.arg) + 1
    elif tt is Add:
        v = value(t.left) + value(t.right)
    elif tt is Mul:
        v = value(t.left) * value(t.right)
    elif tt is FnApp and t.sym == ITER:
        v = iter_fn(value(t.args[0]), value(t.args[1]))
    elif tt is FnApp:
        v = sub_fn(value(t.args[0]), value(t.args[1]), value(t.args[2]))
    else:
        raise EvalError(f"cannot evaluate {tt.__name__}")
    t._val = v
    return v


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


def iter_fn(n: int, c: int) -> int:
    """The two-place iteration function: ``iter_fn(0, c) = c`` and
    ``iter_fn(n+1, c)`` is the code of ``T(iter(numeral(n), numeral(c)))``,
    produced by instantiating the step template via :func:`sub_fn`."""
    if n == 0:
        return c
    return sub_fn(sub_fn(K0, TEMPLATE_CODE_VAR, c), OMEGA_VAR, n - 1)


def omega_truth(t: Term) -> Formula:
    """``forall y. T(iter(y, t))`` with ``y`` fresh for ``t``."""
    y = OMEGA_VAR
    while y in t.fv:
        y += 1
    return Forall(y, Tr(FnApp(ITER, [Var(y), t])))


def self_application_term(v: int) -> Term:
    """``sub(v, #v, v)``: at ``v := code of psi`` its value is the code of
    ``psi`` applied to its own name."""
    return FnApp(SUB, [Var(v), numeral(v), Var(v)])


def diagonal_pair(phi: Formula, v: int) -> tuple[Formula, Formula]:
    """The auxiliary formula theta and the fixed point gamma for ``phi``.

    ``gamma`` is a sentence and satisfies, provably, ``gamma <-> phi(name of
    gamma)``; the proof object is built by :func:`tactics.diagonal_lemma`.
    """
    if phi.fv != frozenset((v,)):
        raise ValueError(
            f"diagonalization needs exactly one free variable {v}, got {sorted(phi.fv)}"
        )
    theta = substitute(phi, v, self_application_term(v))
    gamma = substitute(theta, v, name_of(theta))
    return theta, gamma


def iter_zero_axiom() -> Formula:
    """``forall x. iter(0, x) = x``."""
    x = UINF_BOUND_VAR
    return Forall(x, Eq(FnApp(ITER, [ZERO, Var(x)]), Var(x)))


def iter_step_axiom() -> Formula:
    """``forall x. forall z. iter(S(x), z) = sub(sub(#K0, #z-slot, z), #y-slot, x)``.

    The code slot is substituted first, so that instantiating ``z`` with a
    closed name and evaluating the inner application leaves exactly the
    one-variable template used by the UInf schema.
    """
    x, z = UINF_BOUND_VAR, TEMPLATE_CODE_VAR
    inner = FnApp(SUB, [numeral(K0), numeral(TEMPLATE_CODE_VAR), Var(z)])
    outer = FnApp(SUB, [inner, numeral(OMEGA_VAR), Var(x)])
    return Forall(x, Forall(z, Eq(FnApp(ITER, [Succ(Var(x)), Var(z)]), outer)))
