"""Verified proof constructors.

Every function here returns a :class:`Thm` — a kernel proof object paired
with the formula it claims to prove.  Nothing in this module is trusted:
the kernel re-checks every node, so a bug in a tactic can only produce a
proof that fails to check, never an unsound acceptance.

The propositional layer compiles tautologies into Hilbert proofs from the
three propositional schemas via the deduction theorem; the equality layer
builds one-position congruence chains; the evaluation layer turns closed
terms into canonical numerals through the computation schemas.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache, reduce
from itertools import product

from .coding import (
    EvalError, ITER_STEP_AXIOM, ITER_ZERO_AXIOM, OMEGA_VAR, UINF_BOUND_VAR,
    _parts, name_of, sub_fn,
)
from .kernel import Axiom, Gen, MP, Proof, SchemaId, TIntro
from .syntax import (
    Add, Eq, FnApp, Forall, Formula, ITER, Imp, Mul, Not, SUB, Succ, Term, Tr,
    Var, ZERO, _postorder, free_var_positions, numeral, pretty_print,
    replace_at, substitute, subterm_at,
)

__all__ = [
    "Thm", "TacticError", "TautologyError",
    "ax", "mp", "gen", "inst", "tintro",
    "taut", "taut_id", "propositional_atoms", "propositional_counterexample",
    "imp_trans", "contrapose",
    "mk_iff", "iff_intro", "iff_elim1", "iff_elim2", "iff_parts",
    "refl", "sym", "trans", "cong_term",
    "eval_closed", "rewrite_imp", "rewrite_align", "lift_imp",
    "chain",
    "forall_mono", "omega_truth", "derive_A1", "derive_A2",
    "DiagonalResult", "diagonal_lemma",
]


class TacticError(ValueError):
    pass


class TautologyError(TacticError):
    """The input is not a propositional tautology; carries a counterexample."""

    def __init__(self, phi: Formula, counterexample: dict):
        bits = ", ".join(f"{pretty_print(a)}={'T' if b else 'F'}" for a, b in counterexample.items())
        super().__init__(f"not a tautology, falsified by [{bits}]: {pretty_print(phi)}")
        self.counterexample = counterexample


class Thm(namedtuple("Thm", "proof formula")):
    """A kernel proof with the formula it proves.

    A Thm is also the closed tree of the deduction compiler below: it
    depends on no hypothesis.
    """

    __slots__ = ()
    hyps = frozenset()


# The macro call that built a node, such as ("taut", phi) or ("diag", phi,
# v), so that scripts serialize the node as that form; expanding the form
# rebuilds the very same node.  The last call to build a node names it.
MACROS: dict[Proof, tuple] = {}


def ax(schema: SchemaId, instance: Formula) -> Thm:
    return tuple.__new__(Thm, (Axiom(schema, instance), instance))


def mp(minor: Thm, major: Thm) -> Thm:
    f = major.formula
    if type(f) is not Imp or f.ant is not minor.formula:
        raise TacticError(
            f"modus ponens mismatch: {pretty_print(minor.formula)} against {pretty_print(f)}"
        )
    return tuple.__new__(Thm, (MP(minor.proof, major.proof), f.cons))


def gen(th: Thm, var: int) -> Thm:
    return Thm(Gen(var, th.proof), Forall(var, th.formula))


def inst(th: Thm, t: Term) -> Thm:
    """Forall-elimination: from forall v. phi conclude phi with t for v."""
    f = th.formula
    return mp(th, ax(SchemaId.QUANT1, Imp(f, substitute(f.body, f.var, t))))


def tintro(th: Thm) -> Thm:
    if th.formula.fv:
        raise TacticError(f"T-introduction needs a sentence: {pretty_print(th.formula)}")
    return Thm(TIntro(th.proof), Tr(name_of(th.formula)))


def _mismatch(minor: Formula, major: Formula) -> TacticError:
    return TacticError(
        f"hypothetical modus ponens mismatch: {pretty_print(minor)} against {pretty_print(major)}"
    )


# ---------------------------------------------------------------------------
# propositional lemma kit (all from PROP1-3 and modus ponens)
#
# The lemmas and ``taut`` are pure functions of interned formulas, so each
# is cached by the identity of its arguments and returns the very same
# theorem that a fresh call would build.


@cache
def taut_id(a: Formula) -> Thm:
    """a -> a."""
    aa = Imp(a, a)
    k1 = Imp(a, Imp(aa, a))
    k2 = Imp(a, aa)
    s = Axiom(SchemaId.PROP2, Imp(k1, Imp(k2, aa)))
    return tuple.__new__(Thm, (MP(Axiom(SchemaId.PROP1, k2), MP(Axiom(SchemaId.PROP1, k1), s)), aa))


# The lemmas of fixed shape are the deduction compiler's proofs, written
# out node by node from the pieces that discharging a hypothesis h makes:
# h -> h (``taut_id``), a closed x weakened to h -> x (``_weaken``), and
# one PROP2 step for each modus ponens under h (``_mp_under``).  They make
# no hypothesis tree, and their nodes are the compiler's, so each is the
# very theorem that its tree version, kept in ``tests/helpers.py``, builds.


def _weaken(h: Formula, th: Thm) -> Thm:
    """h -> x from x, by PROP1."""
    f = th.formula
    hx = Imp(h, f)
    return tuple.__new__(Thm, (MP(th.proof, Axiom(SchemaId.PROP1, Imp(f, hx))), hx))


def _mp_under(h: Formula, dm: Thm, dM: Thm) -> Thm:
    """From h -> x and h -> (x -> y) conclude h -> y, by PROP2."""
    f = dM.formula
    hy = Imp(h, f.cons.cons)
    s = Axiom(SchemaId.PROP2, Imp(f, Imp(dm.formula, hy)))
    return tuple.__new__(Thm, (MP(dm.proof, MP(dM.proof, s)), hy))


def _apply_under(h: Formula, d: Thm, th: Thm) -> Thm:
    """From h -> x and a closed th: x -> y conclude h -> y."""
    return _mp_under(h, d, _weaken(h, th))


def _from_hyp(h: Formula, th: Thm) -> Thm:
    """h -> x again from a closed th: h -> x, as the compiler proves th
    applied to the hypothesis h once h is discharged."""
    return _apply_under(h, taut_id(h), th)


def _distribute(d: Thm) -> Thm:
    """From h -> (x -> y) conclude (h -> x) -> (h -> y), by PROP2."""
    f = d.formula
    h = f.ant
    g = Imp(Imp(h, f.cons.ant), Imp(h, f.cons.cons))
    return tuple.__new__(Thm, (MP(d.proof, Axiom(SchemaId.PROP2, Imp(f, g))), g))


def _trans_under(h: Formula, e: Thm, d: Thm) -> Thm:
    """h -> (x -> z) from a closed e: x -> y and d: h -> (y -> z).

    The compiler's proof of a tree t applied to a tree m, with x and then
    h discharged, where m proves y from the hypothesis x and t proves
    y -> z from the hypothesis h; e is m with x discharged and d is t with
    h discharged.  Discharging x weakens t to x -> (y -> z) and takes one
    PROP2 step; discharging h lifts each of those steps under h.
    """
    f = d.formula.cons
    x = e.formula.ant
    xf = Imp(x, f)
    w = _apply_under(h, d, ax(SchemaId.PROP1, Imp(f, xf)))
    s = ax(SchemaId.PROP2, Imp(xf, Imp(e.formula, Imp(x, f.cons))))
    return _mp_under(h, _weaken(h, e), _apply_under(h, w, s))


def _contrapose_under(h: Formula, d: Thm) -> Thm:
    """h -> (~z -> ~y) from d: h -> (y -> z): the compiler's proof of
    ``contrapose(t)`` with h discharged, where t proves y -> z from the
    hypothesis h and d is t with h discharged."""
    f = d.formula.cons
    y, z = f.ant, f.cons
    x = Not(Not(y))
    c1 = _trans_under(h, _from_hyp(x, _l_dne(y)), d)  # h -> (x -> z)
    c2 = _trans_under(h, taut_id(x), c1)
    c2 = _apply_under(h, c2, _distribute(_weaken(x, _l_dni(z))))  # h -> (x -> ~~z)
    return _apply_under(h, c2, ax(SchemaId.PROP3, Imp(c2.formula.cons, Imp(Not(z), Not(y)))))


@cache
def _l_dne(a: Formula) -> Thm:
    """~~a -> a.

    From the hypothesis h = ~~a, the closed links h -> (~~~~a -> h)
    (PROP1), (~~~~a -> h) -> (~a -> ~~~a) and (~a -> ~~~a) -> (h -> a)
    (PROP3) lead to h -> a, which applied to h gives a.
    """
    n1 = Not(a)
    h = Not(n1)
    n3 = Not(h)
    n4h = Imp(Not(n3), h)
    n13 = Imp(n1, n3)
    hh = d = taut_id(h)
    d = _apply_under(h, d, ax(SchemaId.PROP1, Imp(h, n4h)))
    d = _apply_under(h, d, ax(SchemaId.PROP3, Imp(n4h, n13)))
    d = _apply_under(h, d, ax(SchemaId.PROP3, Imp(n13, Imp(h, a))))
    return _mp_under(h, hh, d)


@cache
def _l_dni(a: Formula) -> Thm:
    """a -> ~~a."""
    dne = _l_dne(Not(a))
    return mp(dne, ax(SchemaId.PROP3, Imp(dne.formula, Imp(a, Not(Not(a))))))


def imp_trans(a: Thm, b: Thm) -> Thm:
    """From a: X -> Y and b: Y -> Z conclude X -> Z."""
    x = a.formula.ant
    g = b.formula
    if type(g) is not Imp or g.ant is not a.formula.cons:
        raise _mismatch(a.formula.cons, g)
    return _apply_under(x, _from_hyp(x, a), b)


def contrapose(t: Thm) -> Thm:
    """From X -> Y conclude ~Y -> ~X."""
    f = t.formula
    c1 = imp_trans(_l_dne(f.ant), t)
    c2 = imp_trans(c1, _l_dni(f.cons))
    return mp(c2, ax(SchemaId.PROP3, Imp(c2.formula, Imp(Not(f.cons), Not(f.ant)))))


@cache
def _l_efq(a: Formula, b: Formula) -> Thm:
    """~a -> (a -> b).

    From the hypothesis ~a, PROP1 and PROP3 give a -> b; with ~a
    discharged, a -> b is applied to the hypothesis a.
    """
    na, nb = Not(a), Not(b)
    d = _from_hyp(na, ax(SchemaId.PROP1, Imp(na, Imp(nb, na))))
    d = _apply_under(na, d, ax(SchemaId.PROP3, Imp(Imp(nb, na), Imp(a, b))))  # ~a -> (a -> b)
    return _trans_under(na, taut_id(a), d)


@cache
def _l_counter(a: Formula, b: Formula) -> Thm:
    """a -> (~b -> ~(a -> b)).

    From the hypothesis a, (a -> b) -> b, contraposed.
    """
    ab = Imp(a, b)
    d = _from_hyp(a, ax(SchemaId.PROP1, Imp(a, Imp(ab, a))))
    d = _apply_under(a, d, _distribute(taut_id(ab)))  # a -> ((a -> b) -> b)
    return _contrapose_under(a, d)


@cache
def _l_caa(c: Formula) -> Thm:
    """(~c -> c) -> c.

    From the hypothesis h = ~c -> c: ~c -> ~h, from h applied to ~c and
    ex falso under ~c; then PROP3 gives h -> c, applied to h.
    """
    nc = Not(c)
    h = Imp(nc, c)
    e = _distribute(_from_hyp(nc, _l_efq(c, Not(h))))  # (~c -> c) -> (~c -> ~h)
    d = _apply_under(h, _trans_under(h, taut_id(nc), taut_id(h)), e)  # h -> (~c -> ~h)
    d = _apply_under(h, d, ax(SchemaId.PROP3, Imp(d.formula.cons, Imp(h, c))))
    return _mp_under(h, taut_id(h), d)


@cache
def _l_cases(a: Formula, c: Formula) -> Thm:
    """(a -> c) -> ((~a -> c) -> c).

    From the hypotheses p = a -> c and q = ~a -> c: ~c -> ~a by
    contraposing p, then ~c -> c through q, and c by ``_l_caa``.
    """
    p, q = Imp(a, c), Imp(Not(a), c)
    nc = Not(c)
    nca = Imp(nc, Not(a))
    # the parts that p is not needed for, with q discharged
    u = _from_hyp(q, ax(SchemaId.PROP1, Imp(q, Imp(nc, q))))
    u = _apply_under(q, u, ax(SchemaId.PROP2, Imp(u.formula.cons, Imp(nca, Imp(nc, c)))))
    m = _distribute(u)  # (q -> (~c -> ~a)) -> (q -> (~c -> c))
    k = _distribute(_weaken(q, _l_caa(c)))  # (q -> (~c -> c)) -> (q -> c)
    # the rest, with p discharged
    d = _trans_under(p, taut_id(nc), _contrapose_under(p, taut_id(p)))  # p -> (~c -> ~a)
    d = _apply_under(p, d, ax(SchemaId.PROP1, Imp(nca, Imp(q, nca))))
    return _apply_under(p, _apply_under(p, d, m), k)


# ---------------------------------------------------------------------------
# tautology compilation

_TAUT_ATOM_LIMIT = 8


def _connectives(phi: Formula) -> tuple:
    """The parts of a negation or an implication; an atom has none."""
    t = type(phi)
    if t is Not:
        return (phi.body,)
    if t is Imp:
        return (phi.ant, phi.cons)
    return ()


def _truth(phi: Formula, values: list) -> bool:
    """Truth value of a negation or an implication from those of its parts."""
    return not values[0] if type(phi) is Not else not values[0] or values[1]


def _t_eval(phi: Formula, v: dict[Formula, bool]) -> bool:
    """Truth value of phi under v, which maps every atom of phi to a bool.

    The value of each compound subformula is stored in v as well, so a
    valuation evaluates each distinct subformula once.
    """
    r = v.get(phi)
    return _postorder(phi, _connectives, _truth, v) if r is None else r


# Each case of the split is proved from hypotheses, one literal for each
# atom, in a tree that the deduction theorem closes.  A tree is an open
# hypothesis, modus ponens under an open hypothesis, or a closed Thm, whose
# kernel node was built as soon as the tree closed.


class _HNode:
    __slots__ = ("formula", "hyps")


class _HHyp(_HNode):
    __slots__ = ()

    def __init__(self, formula: Formula):
        self.formula = formula
        self.hyps = frozenset((formula,))


class _HApp(_HNode):
    """Modus ponens under at least one open hypothesis."""

    __slots__ = ("minor", "major")

    def __init__(self, minor: _HNode, major: _HNode, formula: Formula):
        self.minor = minor
        self.major = major
        self.formula = formula
        self.hyps = minor.hyps | major.hyps


def _happly(minor: _HNode, major: _HNode) -> _HNode:
    f = major.formula
    if type(f) is not Imp or f.ant is not minor.formula:
        raise _mismatch(minor.formula, f)
    if minor.hyps or major.hyps:
        return _HApp(minor, major, f.cons)
    # both sides are closed: emit the kernel node now, so that no closed
    # subtree is walked again when the hypotheses above it are discharged
    return tuple.__new__(Thm, (MP(minor.proof, major.proof), f.cons))


def _discharge(tree: _HNode, h: Formula) -> _HNode:
    """Deduction theorem: turn a proof of B from h into a proof of h -> B."""

    def parts(node: _HNode) -> tuple:
        return (node.major, node.minor) if type(node) is _HApp and h in node.hyps else ()

    def close(node: _HNode, done: list) -> _HNode:
        if h not in node.hyps:
            return _happly(node, ax(SchemaId.PROP1, Imp(node.formula, Imp(h, node.formula))))
        if type(node) is _HHyp:  # node.formula is h
            return taut_id(h)
        dM, dm = done  # h -> (a -> b) and h -> a
        s = ax(SchemaId.PROP2, Imp(dM.formula, Imp(dm.formula, Imp(h, node.formula))))
        return _happly(dm, _happly(dM, s))

    return _postorder(tree, parts, close, {})


def _branch(phi: Formula, v: dict[Formula, bool]) -> _HNode:
    """Prove phi when true under v, ~phi when false, from literal hypotheses."""

    def parts(f: Formula) -> tuple:
        if type(f) is not Imp:
            return _connectives(f)
        if not _t_eval(f.ant, v):
            return (f.ant,)
        return (f.cons,) if _t_eval(f.cons, v) else (f.cons, f.ant)

    def prove(f: Formula, done: list) -> _HNode:
        if type(f) is Not:
            return _happly(done[0], _l_dni(f.body)) if _t_eval(f.body, v) else done[0]
        if type(f) is not Imp:
            return _HHyp(f) if v[f] else _HHyp(Not(f))
        a, b = f.ant, f.cons
        if not v[a]:
            return _happly(done[0], _l_efq(a, b))
        if v[b]:
            return _happly(done[0], ax(SchemaId.PROP1, Imp(b, f)))
        return _happly(done[0], _happly(done[1], _l_counter(a, b)))

    return _postorder(phi, parts, prove)


def propositional_atoms(phi: Formula) -> list[Formula]:
    """Maximal subformulas that are not negations or implications."""
    seen: dict = {}  # every subformula, atoms in order of first occurrence
    _postorder(phi, _connectives, lambda f, _: None, seen)
    return [f for f in seen if not _connectives(f)]


def propositional_counterexample(phi: Formula) -> dict[Formula, bool] | None:
    """A falsifying assignment to the atoms, or None for a tautology."""
    order = propositional_atoms(phi)
    if len(order) > _TAUT_ATOM_LIMIT:
        raise TacticError(f"too many distinct atoms ({len(order)}) for a truth-table sweep")
    return _counterexample(phi, order)


def _counterexample(phi: Formula, order: list[Formula]) -> dict[Formula, bool] | None:
    """A falsifying assignment to the atoms ``order`` of phi, or None; the
    first atom varies slowest, true before false."""
    for values in product((True, False), repeat=len(order)):
        v = dict(zip(order, values))
        if not _t_eval(phi, dict(v)):
            return v
    return None


@cache
def taut(phi: Formula) -> Thm:
    """Compile a propositional tautology into a Hilbert proof.

    The atoms are the maximal subformulas that are not negations or
    implications.  Rejections carry a falsifying assignment.
    """
    order = propositional_atoms(phi)
    if len(order) > _TAUT_ATOM_LIMIT:
        raise TacticError(f"too many distinct atoms ({len(order)}) for tautology compilation")
    bad = _counterexample(phi, order)
    if bad is not None:
        raise TautologyError(phi, bad)

    def build(i: int, v: dict[Formula, bool]) -> _HNode:
        if i == len(order):
            return _branch(phi, dict(v))
        a = order[i]
        v[a] = True
        t1 = _discharge(build(i + 1, v), a)
        v[a] = False
        t0 = _discharge(build(i + 1, v), Not(a))
        del v[a]
        return _happly(t0, _happly(t1, _l_cases(a, phi)))

    th = build(0, {})  # every atom discharged: a Thm
    MACROS[th.proof] = ("taut", phi)
    return th


# ---------------------------------------------------------------------------
# biconditionals


def mk_iff(a: Formula, b: Formula) -> Formula:
    """a <-> b as the primitive-connective expansion ~((a->b) -> ~(b->a))."""
    return Not(Imp(Imp(a, b), Not(Imp(b, a))))


def iff_parts(f: Formula) -> tuple[Formula, Formula]:
    """Destructure the primitive expansion of a biconditional."""
    if (
        type(f) is Not and type(f.body) is Imp and type(f.body.ant) is Imp
        and type(f.body.cons) is Not and type(f.body.cons.body) is Imp
    ):
        a, b = f.body.ant.ant, f.body.ant.cons
        rev = f.body.cons.body
        if rev.ant is b and rev.cons is a:
            return a, b
    raise TacticError(f"not a biconditional: {pretty_print(f)}")


def iff_intro(p: Thm, q: Thm) -> Thm:
    """From a -> b and b -> a conclude a <-> b."""
    a, b = p.formula.ant, p.formula.cons
    goal = mk_iff(a, b)
    return mp(q, mp(p, taut(Imp(p.formula, Imp(q.formula, goal)))))


def iff_elim1(p: Thm) -> Thm:
    a, b = iff_parts(p.formula)
    return mp(p, taut(Imp(p.formula, Imp(a, b))))


def iff_elim2(p: Thm) -> Thm:
    a, b = iff_parts(p.formula)
    return mp(p, taut(Imp(p.formula, Imp(b, a))))


# ---------------------------------------------------------------------------
# equality


def refl(t: Term) -> Thm:
    return ax(SchemaId.EQ1, Eq(t, t))


def sym(e: Thm) -> Thm:
    """From s = t conclude t = s."""
    s, t = e.formula.left, e.formula.right
    step = ax(SchemaId.EQ3, Imp(Eq(s, t), Imp(Eq(s, s), Eq(t, s))))
    return mp(refl(s), mp(e, step))


def trans(a: Thm, b: Thm) -> Thm:
    """From s = t and t = u conclude s = u."""
    s, t = a.formula.left, a.formula.right
    t2, u = b.formula.left, b.formula.right
    if t2 is not t:
        raise TacticError("equality chain mismatch")
    step = ax(SchemaId.EQ3, Imp(Eq(t, u), Imp(Eq(s, t), Eq(s, u))))
    return mp(a, mp(b, step))


def cong_term(e: Thm, context: Term, path) -> Thm:
    """From s = t conclude context = context[t at path], where context[path] is s."""
    s, t = e.formula.left, e.formula.right
    path = tuple(path)
    if subterm_at(context, path) is not s:
        raise TacticError(f"position {path} does not hold the rewritten term")
    if not path:
        return e
    goal = Eq(context, replace_at(context, path, t))
    return mp(e, ax(SchemaId.EQ2, Imp(e.formula, goal)))


# ---------------------------------------------------------------------------
# closed-term evaluation

# the value of each S, +, * and sub application that ``_op`` has met;
# terms are interned, so it is keyed by identity
_values: dict[Term, int] = {}


def _op(t: Term) -> int:
    """The value of an S, +, * or sub application to numerals, by the one
    operation its computation axiom states; a variable has none."""
    r = _values.get(t)
    if r is None:
        tt = type(t)
        if tt is Var:
            raise EvalError(f"open term: variable {t.idx} has no value")
        if tt is Succ:
            r = t.arg.nv + 1
        elif tt is Add:
            r = t.left.nv + t.right.nv
        elif tt is Mul:
            r = t.left.nv * t.right.nv
        else:
            r = sub_fn(*[a.nv for a in t.args])
        _values[t] = r
    return r


def eval_closed(t: Term) -> Thm:
    """Prove t = n for the canonical numeral n of t's value."""
    if t.nv is not None:
        return refl(t)
    th = _postorder(t, _parts, _eval_step)
    MACROS[th.proof] = ("eval", t)
    return th


# the parts of the iteration step axiom, forall x. forall z. iter(S(x), z) =
# sub(sub(#K0, .., z), .., x), that its instances keep
_ITER_Z = ITER_STEP_AXIOM.body.var
_ITER_INNER, _ITER_Y_SLOT = ITER_STEP_AXIOM.body.body.right.args[:2]
_ITER_K, _ITER_Z_SLOT = _ITER_INNER.args[:2]


def _iter_step_at(m: Term, bn: Term) -> Thm:
    """iter(S m, bn) = sub(sub(#K0, .., bn), .., m): the iteration step
    axiom instantiated at the closed terms m and then bn, both QUANT1
    instances spelled out from them rather than by ``substitute``."""
    sm = Succ(m)
    b1 = Forall(_ITER_Z, Eq(FnApp(ITER, (sm, Var(_ITER_Z))), FnApp(SUB, (_ITER_INNER, _ITER_Y_SLOT, m))))
    b2 = Eq(FnApp(ITER, (sm, bn)), FnApp(SUB, (FnApp(SUB, (_ITER_K, _ITER_Z_SLOT, bn)), _ITER_Y_SLOT, m)))
    p1 = MP(Axiom(SchemaId.COMP_ITER_STEP, ITER_STEP_AXIOM), Axiom(SchemaId.QUANT1, Imp(ITER_STEP_AXIOM, b1)))
    return tuple.__new__(Thm, (MP(p1, Axiom(SchemaId.QUANT1, Imp(b1, b2))), b2))


def _eval_step(t: Term, done: list) -> Thm | None:
    """Prove t = n from ``done``, the proofs that t's arguments equal their
    numerals, None for an argument that is one; None when t is a numeral."""
    if t.nv is not None:
        return None
    # rewrite the arguments that are not numerals yet to their numerals in
    # place, then apply the operation to them
    links, cur = [], t
    for i, ea in enumerate(done):
        if ea is not None:
            links.append(cong_term(ea, cur, (i,)))
            cur = replace_at(cur, (i,), ea.formula.right)
    if type(t) is not FnApp or t.sym != ITER:
        # S, + and * (COMP_SUCC) or sub (COMP_SUB)
        schema = SchemaId.COMP_SUB if type(t) is FnApp else SchemaId.COMP_SUCC
        n = numeral(_op(cur))
        if cur is not n:  # S(#2k) is the numeral #(2k+1) itself
            links.append(ax(schema, Eq(cur, n)))
        return reduce(trans, links)
    an, bn = cur.args
    n0 = an.nv
    if n0 == 0:
        links.append(inst(ax(SchemaId.COMP_ITER0, ITER_ZERO_AXIOM), bn))
        return reduce(trans, links)
    m = numeral(n0 - 1)
    if Succ(m) is not an:  # an even numeral is not spelled S(m)
        sa = sym(ax(SchemaId.COMP_SUCC, Eq(Succ(m), an)))
        links.append(cong_term(sa, cur, (0,)))
    # iter(S m, bn) = sub(sub(#K0, .., bn), .., m)
    step = _iter_step_at(m, bn)
    links.append(step)
    rhs = step.formula.right
    inner = rhs.args[0]
    ei = ax(SchemaId.COMP_SUB, Eq(inner, numeral(_op(inner))))
    links.append(cong_term(ei, rhs, (0,)))
    outer = replace_at(rhs, (0,), ei.formula.right)
    links.append(ax(SchemaId.COMP_SUB, Eq(outer, numeral(_op(outer)))))
    return reduce(trans, links)


# ---------------------------------------------------------------------------
# congruence rewriting inside formulas


def _imp_mono_ant(p: Thm, r: Formula) -> Thm:
    """From a' -> a conclude (a -> r) -> (a' -> r): p applied to the
    hypothesis a', then the hypothesis a -> r applied to that."""
    a2, a = p.formula.ant, p.formula.cons
    ar = Imp(a, r)
    d = _from_hyp(a2, p)  # a' -> a
    if ar is a2:  # one hypothesis, discharged twice
        return _weaken(ar, _mp_under(a2, d, taut_id(a2)))
    w = _from_hyp(ar, ax(SchemaId.PROP1, Imp(ar, Imp(a2, ar))))  # (a -> r) -> (a' -> (a -> r))
    s = ax(SchemaId.PROP2, Imp(w.formula.cons, Imp(d.formula, Imp(a2, r))))
    return _mp_under(ar, _weaken(ar, d), _apply_under(ar, w, s))


def _imp_mono_cons(p: Thm, r: Formula) -> Thm:
    """From b -> b' conclude (r -> b) -> (r -> b'): the hypothesis r -> b
    applied to the hypothesis r, then p applied to that."""
    rb = Imp(r, p.formula.ant)
    d = _trans_under(rb, taut_id(r), taut_id(rb))  # (r -> b) -> (r -> b)
    return _apply_under(rb, d, _distribute(_weaken(r, p)))


def rewrite_imp(e: Thm, phi: Formula, path, forward: bool = True) -> Thm:
    """From s = t conclude phi -> phi[t at path], or the converse when
    ``forward`` is false."""
    s, t = e.formula.left, e.formula.right
    path = tuple(path)
    above = []  # the connectives passed on the way down, and the side taken
    while type(phi) is not Eq and type(phi) is not Tr:
        if type(phi) is Forall and (s.fv or t.fv):
            raise TacticError("cannot rewrite with open terms under a quantifier")
        if not path:
            raise IndexError(f"position {path} stops at {type(phi).__name__} node, not at an equation or T atom")
        f, side = phi, path[0]
        phi, path = subterm_at(f, (side,)), path[1:]  # refuses a side f has no child at
        if side == 0 and type(f) is not Forall:  # a negative position: under ~, left of ->
            forward = not forward
        above.append((f, side))
    phi2 = replace_at(phi, path, t)
    if subterm_at(phi, path) is not s:
        raise TacticError(f"position {path} of {pretty_print(phi)} does not hold {pretty_print(s)}")
    if forward:
        th = mp(e, ax(SchemaId.EQ3, Imp(e.formula, Imp(phi, phi2))))
    else:
        th = mp(sym(e), ax(SchemaId.EQ3, Imp(Eq(t, s), Imp(phi2, phi))))
    for f, side in reversed(above):
        if type(f) is Not:
            th = contrapose(th)
        elif type(f) is Forall:
            th = forall_mono(th, f.var)
        elif side == 0:
            th = _imp_mono_ant(th, f.cons)
        else:
            th = _imp_mono_cons(th, f.ant)
    return th


def forall_mono(p: Thm, w: int) -> Thm:
    """From a -> b conclude (forall w. a) -> (forall w. b)."""
    a, b = p.formula.ant, p.formula.cons
    fa = Forall(w, a)
    i = ax(SchemaId.QUANT1, Imp(fa, a))
    g = gen(imp_trans(i, p), w)
    q2 = ax(SchemaId.QUANT2, Imp(g.formula, Imp(fa, Forall(w, b))))
    return mp(g, q2)


def rewrite_align(th: Thm, expected: Formula, positions) -> Thm:
    """Rewrite closed subterms of the conclusion so they match ``expected``
    at the given positions, justified by evaluation chains."""
    for pos in positions:
        pos = tuple(pos)
        cur_t = subterm_at(th.formula, pos)
        exp_t = subterm_at(expected, pos)
        if cur_t is exp_t:
            continue
        if not isinstance(cur_t, Term) or not isinstance(exp_t, Term):
            raise TacticError(f"position {pos} does not address a term")
        # a numeral's side needs no link
        e1 = eval_closed(cur_t) if cur_t.nv is None else None
        e2 = eval_closed(exp_t) if exp_t.nv is None else None
        if (cur_t if e1 is None else e1.formula.right) is not (exp_t if e2 is None else e2.formula.right):
            raise TacticError(
                f"terms at {pos} have different values: "
                f"{pretty_print(cur_t)} vs {pretty_print(exp_t)}"
            )
        eq = e1 if e2 is None else sym(e2) if e1 is None else trans(e1, sym(e2))
        th = mp(th, rewrite_imp(eq, th.formula, pos))
    return th


# ---------------------------------------------------------------------------
# truth lifting and implication chaining


def lift_imp(th: Thm, depth: int = 1) -> Thm:
    """Lift an implication under T: from a -> b derive T(#a) -> T(#b);
    with depth 2, from a -> (b -> c) derive T(#a) -> (T(#b) -> T(#c))."""
    f = th.formula
    if type(f) is not Imp:
        raise TacticError("lift needs an implication")
    ti = tintro(th)
    t1 = ax(SchemaId.TIMP, Imp(ti.formula, Imp(Tr(name_of(f.ant)), Tr(name_of(f.cons)))))
    r = mp(ti, t1)
    if depth == 1:
        return r
    g = f.cons
    if type(g) is not Imp:
        raise TacticError("depth-2 lift needs a nested implication")
    t2 = ax(SchemaId.TIMP, Imp(Tr(name_of(g)), Imp(Tr(name_of(g.ant)), Tr(name_of(g.cons)))))
    return imp_trans(r, t2)


def chain(th: Thm, lemma: Thm) -> Thm:
    """Compose implications, the lemma in front: from a -> b and the lemma
    c -> a conclude c -> b."""
    f, g = th.formula, lemma.formula
    if type(f) is not Imp or type(g) is not Imp:
        raise TacticError("chain needs implications")
    if g.cons is f.ant:
        return imp_trans(lemma, th)
    raise TacticError(f"cannot chain {pretty_print(f)} with {pretty_print(g)}")


# ---------------------------------------------------------------------------
# the omega-truth predicate and its two iteration laws


def omega_truth(t: Term) -> Formula:
    """``forall y. T(iter(y, t))`` with ``y`` fresh for ``t``."""
    y = OMEGA_VAR
    while y in t.fv:
        y += 1
    return Forall(y, Tr(FnApp(ITER, [Var(y), t])))


def derive_A2(phi: Formula) -> Thm:
    """T^omega(#phi) -> T(#phi), finitary."""
    if phi.fv:
        raise TacticError("A2 needs a sentence")
    nphi = name_of(phi)
    w = omega_truth(nphi)
    it0 = FnApp(ITER, [ZERO, nphi])
    q1 = ax(SchemaId.QUANT1, Imp(w, Tr(it0)))
    i = inst(ax(SchemaId.COMP_ITER0, ITER_ZERO_AXIOM), nphi)
    c = mp(i, ax(SchemaId.EQ3, Imp(i.formula, Imp(Tr(it0), Tr(nphi)))))
    out = imp_trans(q1, c)
    MACROS[out.proof] = ("a2", phi)
    return out


def derive_A1(phi: Formula) -> Thm:
    """T^omega(#phi) -> T(#T^omega(#phi)), finitary.

    Instantiate the omega-truth premise at a successor, rewrite through the
    iteration step template, evaluate the inner substitution, and close with
    the universal-inference schema.
    """
    if phi.fv:
        raise TacticError("A1 needs a sentence")
    nphi = name_of(phi)
    w = omega_truth(nphi)
    x = UINF_BOUND_VAR
    sx = Succ(Var(x))
    q1 = ax(SchemaId.QUANT1, Imp(w, Tr(FnApp(ITER, [sx, nphi]))))

    i2 = inst(inst(ax(SchemaId.COMP_ITER_STEP, ITER_STEP_AXIOM), Var(x)), nphi)
    e_inst = i2.formula

    chi = Tr(FnApp(ITER, [Var(OMEGA_VAR), nphi]))
    inner = e_inst.right.args[0]
    ei = ax(SchemaId.COMP_SUB, Eq(inner, name_of(chi)))
    e2 = mp(ei, ax(SchemaId.EQ3, Imp(ei.formula, Imp(e_inst, Eq(e_inst.left, replace_at(e_inst.right, (0,), name_of(chi)))))))
    aligned = mp(i2, e2)  # iter(S(x), #phi) = sub(#chi, #y-slot, x)

    dot = aligned.formula.right
    i3 = mp(aligned, ax(SchemaId.EQ3, Imp(aligned.formula, Imp(Tr(aligned.formula.left), Tr(dot)))))
    c1 = imp_trans(q1, i3)

    g = gen(c1, x)
    q2 = ax(SchemaId.QUANT2, Imp(g.formula, Imp(w, Forall(x, Tr(dot)))))
    c2 = mp(g, q2)

    u = ax(SchemaId.UINF, Imp(Forall(x, Tr(dot)), Tr(name_of(w))))
    out = imp_trans(c2, u)
    MACROS[out.proof] = ("a1", phi)
    return out


# ---------------------------------------------------------------------------
# the diagonal lemma


class DiagonalResult(namedtuple("DiagonalResult", "theta gamma equivalence_proof equivalence")):
    """Fixed point of a one-variable formula, with its equivalence proof."""

    __slots__ = ()

    def thm(self) -> Thm:
        return Thm(self.equivalence_proof, self.equivalence)


def diagonal_lemma(phi: Formula, v: int) -> DiagonalResult:
    """A sentence gamma with a checkable proof of gamma <-> phi(#gamma).

    With s the self-application term ``sub(v, #v, v)``, theta is phi(s), t*
    is s(#theta) and gamma is phi(t*): t* evaluates to the code of gamma, so
    rewriting t* into #gamma at each place of v in phi turns gamma into
    phi(#gamma).
    """
    if phi.fv != frozenset((v,)):
        raise ValueError(
            f"diagonalization needs exactly one free variable {v}, got {sorted(phi.fv)}"
        )
    s = FnApp(SUB, [Var(v), numeral(v), Var(v)])
    theta = substitute(phi, v, s)
    tstar = substitute(s, v, name_of(theta))
    gamma = substitute(phi, v, tstar)
    eq = ax(SchemaId.COMP_SUB, Eq(tstar, name_of(gamma)))

    fwd_acc: Thm | None = None
    bwd_acc: Thm | None = None
    cur = gamma
    for pos in free_var_positions(phi, v):
        f, b = rewrite_imp(eq, cur, pos), rewrite_imp(eq, cur, pos, forward=False)
        fwd_acc = f if fwd_acc is None else imp_trans(fwd_acc, f)
        bwd_acc = b if bwd_acc is None else imp_trans(b, bwd_acc)
        cur = f.formula.cons
    acc = iff_intro(fwd_acc, bwd_acc)
    MACROS[acc.proof] = ("diag", phi, v)
    return DiagonalResult(theta, gamma, acc.proof, acc.formula)
