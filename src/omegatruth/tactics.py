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

from functools import cache
from typing import NamedTuple

from .coding import (
    K0, OMEGA_VAR, TEMPLATE_CODE_VAR, UINF_BOUND_VAR, diagonal_pair,
    iter_step_axiom, iter_zero_axiom, name_of, omega_truth, sub_fn, value,
)
from .kernel import Axiom, Gen, MP, Proof, SchemaId, TIntro
from .syntax import (
    Add, Eq, FnApp, Forall, Formula, ITER, Imp, Mul, Not, SUB, Succ, Term,
    Tr, Var, ZERO, free_var_positions, mk_iff, numeral, pretty_print,
    replace_at, substitute, subterm_at,
)

__all__ = [
    "Thm", "TacticError", "TautologyError",
    "ax", "mp", "gen", "tintro",
    "hyp", "happly", "discharge", "compile_tree",
    "taut", "taut_id", "propositional_atoms", "propositional_counterexample",
    "imp_trans", "contrapose",
    "iff_intro", "iff_elim1", "iff_elim2", "iff_parts",
    "refl", "sym", "trans", "cong_term",
    "eval_closed", "rewrite_imp", "rewrite_align", "lift_imp",
    "chain",
    "forall_mono", "derive_A1", "derive_A2",
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


class Thm(NamedTuple):
    """A kernel proof with the formula it proves.

    A Thm is also the closed tree of the deduction compiler below: it
    depends on no hypothesis.
    """

    proof: Proof
    formula: Formula
    hyps = frozenset()


# The macro call that built a node, such as ("taut", phi) or ("diag", phi,
# v), so that scripts serialize the node as that form; expanding the form
# rebuilds the very same node.  The last call to build a node names it.
MACROS: dict[Proof, tuple] = {}


def ax(schema: SchemaId, instance: Formula) -> Thm:
    return Thm(Axiom(schema, instance), instance)


def mp(minor: Thm, major: Thm) -> Thm:
    f = major.formula
    if type(f) is not Imp or f.ant != minor.formula:
        raise TacticError(
            f"modus ponens mismatch: {pretty_print(minor.formula)} against {pretty_print(f)}"
        )
    return Thm(MP(minor.proof, major.proof), f.cons)


def gen(th: Thm, var: int) -> Thm:
    return Thm(Gen(var, th.proof), Forall(var, th.formula))


def tintro(th: Thm) -> Thm:
    if th.formula.fv:
        raise TacticError(f"T-introduction needs a sentence: {pretty_print(th.formula)}")
    return Thm(TIntro(th.proof), Tr(name_of(th.formula)))


# ---------------------------------------------------------------------------
# proofs from hypotheses and the deduction theorem
#
# A tree is an open hypothesis, modus ponens under an open hypothesis, or a
# closed Thm, whose kernel node was built as soon as the tree closed.


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


def hyp(formula: Formula) -> _HNode:
    return _HHyp(formula)


def happly(minor: _HNode, major: _HNode) -> _HNode:
    f = major.formula
    if type(f) is not Imp or f.ant is not minor.formula:
        raise TacticError(
            f"hypothetical modus ponens mismatch: {pretty_print(minor.formula)}"
            f" against {pretty_print(f)}"
        )
    if minor.hyps or major.hyps:
        return _HApp(minor, major, f.cons)
    # both sides are closed: emit the kernel node now, so that no closed
    # subtree is walked again when the hypotheses above it are discharged
    return Thm(MP(minor.proof, major.proof), f.cons)


def discharge(tree: _HNode, h: Formula) -> _HNode:
    """Deduction theorem: turn a proof of B from h into a proof of h -> B."""
    memo: dict[int, _HNode] = {}
    stack: list[tuple[_HNode, bool]] = [(tree, False)]
    while stack:
        node, ready = stack.pop()
        if id(node) in memo:
            continue
        if h not in node.hyps:
            k = ax(SchemaId.PROP1, Imp(node.formula, Imp(h, node.formula)))
            memo[id(node)] = happly(node, k)
        elif type(node) is _HHyp:  # node.formula is h
            memo[id(node)] = taut_id(h)
        elif not ready:
            stack.append((node, True))
            stack.append((node.minor, False))
            stack.append((node.major, False))
        else:
            dm = memo[id(node.minor)]
            dM = memo[id(node.major)]
            a, b = node.minor.formula, node.formula
            s = ax(
                SchemaId.PROP2,
                Imp(Imp(h, Imp(a, b)), Imp(Imp(h, a), Imp(h, b))),
            )
            memo[id(node)] = happly(dm, happly(dM, s))
    return memo[id(tree)]


def compile_tree(tree: _HNode) -> Thm:
    """A hypothesis-free tree, which is a Thm; an open tree is an error."""
    if tree.hyps:
        raise TacticError(
            "undischarged hypotheses: " + "; ".join(pretty_print(f) for f in tree.hyps)
        )
    return tree


def _close(tree: _HNode, *hs: Formula) -> Thm:
    for h in hs:
        tree = discharge(tree, h)
    return compile_tree(tree)


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
    s = ax(SchemaId.PROP2, Imp(Imp(a, Imp(aa, a)), Imp(Imp(a, aa), aa)))
    k1 = ax(SchemaId.PROP1, Imp(a, Imp(aa, a)))
    k2 = ax(SchemaId.PROP1, Imp(a, aa))
    return mp(k2, mp(k1, s))


@cache
def _l_dne(a: Formula) -> Thm:
    """~~a -> a."""
    n1, n2 = Not(a), Not(Not(a))
    n3, n4 = Not(Not(Not(a))), Not(Not(Not(Not(a))))
    h = hyp(n2)
    t1 = happly(h, ax(SchemaId.PROP1, Imp(n2, Imp(n4, n2))))
    t2 = happly(t1, ax(SchemaId.PROP3, Imp(Imp(n4, n2), Imp(n1, n3))))
    t3 = happly(t2, ax(SchemaId.PROP3, Imp(Imp(n1, n3), Imp(n2, a))))
    return _close(happly(h, t3), n2)


@cache
def _l_dni(a: Formula) -> Thm:
    """a -> ~~a."""
    dne = _l_dne(Not(a))
    return mp(dne, ax(SchemaId.PROP3, Imp(dne.formula, Imp(a, Not(Not(a))))))


def imp_trans(a: _HNode, b: _HNode) -> _HNode:
    """From a: X -> Y and b: Y -> Z conclude X -> Z; a Thm when both are."""
    x = a.formula.ant
    if x in a.hyps or x in b.hyps:
        raise TacticError("composition would capture an open hypothesis")
    return discharge(happly(happly(hyp(x), a), b), x)


def contrapose(t: _HNode) -> _HNode:
    """From X -> Y conclude ~Y -> ~X; a Thm when t is one."""
    f = t.formula
    c1 = imp_trans(_l_dne(f.ant), t)
    c2 = imp_trans(c1, _l_dni(f.cons))
    return happly(c2, ax(SchemaId.PROP3, Imp(c2.formula, Imp(Not(f.cons), Not(f.ant)))))


@cache
def _l_efq(a: Formula, b: Formula) -> Thm:
    """~a -> (a -> b)."""
    na, nb = Not(a), Not(b)
    k = happly(hyp(na), ax(SchemaId.PROP1, Imp(na, Imp(nb, na))))
    c = happly(k, ax(SchemaId.PROP3, Imp(Imp(nb, na), Imp(a, b))))
    return _close(happly(hyp(a), c), a, na)


@cache
def _l_counter(a: Formula, b: Formula) -> Thm:
    """a -> (~b -> ~(a -> b))."""
    ab = Imp(a, b)
    t = discharge(happly(hyp(a), hyp(ab)), ab)  # (a->b) -> b, from a
    return _close(contrapose(t), a)


@cache
def _l_caa(c: Formula) -> Thm:
    """(~c -> c) -> c."""
    nc = Not(c)
    h = Imp(nc, c)
    a = happly(hyp(nc), hyp(h))
    b = happly(hyp(nc), _l_efq(c, Not(h)))
    d = discharge(happly(a, b), nc)  # ~c -> ~(~c -> c), from h
    e = happly(d, ax(SchemaId.PROP3, Imp(d.formula, Imp(h, c))))
    return _close(happly(hyp(h), e), h)


@cache
def _l_cases(a: Formula, c: Formula) -> Thm:
    """(a -> c) -> ((~a -> c) -> c)."""
    p, q = Imp(a, c), Imp(Not(a), c)
    t = imp_trans(contrapose(hyp(p)), hyp(q))  # ~c -> c
    r = happly(t, _l_caa(c))
    return _close(r, q, p)


# ---------------------------------------------------------------------------
# tautology compilation

_TAUT_ATOM_LIMIT = 8


def _collect_atoms(phi: Formula, order: list[Formula], seen: set[Formula]) -> None:
    t = type(phi)
    if t is Not:
        _collect_atoms(phi.body, order, seen)
    elif t is Imp:
        _collect_atoms(phi.ant, order, seen)
        _collect_atoms(phi.cons, order, seen)
    elif phi not in seen:
        seen.add(phi)
        order.append(phi)


def _t_eval(phi: Formula, v: dict[Formula, bool]) -> bool:
    """Truth value of phi under v, which maps every atom of phi to a bool.

    The value of each compound subformula is stored in v as well, so a
    valuation evaluates each distinct subformula once.
    """
    r = v.get(phi)
    if r is None:  # phi is a negation or an implication
        if type(phi) is Not:
            r = not _t_eval(phi.body, v)
        else:
            r = (not _t_eval(phi.ant, v)) or _t_eval(phi.cons, v)
        v[phi] = r
    return r


def _branch(phi: Formula, v: dict[Formula, bool]) -> _HNode:
    """Prove phi when true under v, ~phi when false, from literal hypotheses."""
    t = type(phi)
    if t is Not:
        body = phi.body
        if _t_eval(body, v):
            return happly(_branch(body, v), _l_dni(body))
        return _branch(body, v)
    if t is Imp:
        a, b = phi.ant, phi.cons
        if not _t_eval(a, v):
            return happly(_branch(a, v), _l_efq(a, b))
        if _t_eval(b, v):
            return happly(_branch(b, v), ax(SchemaId.PROP1, Imp(b, phi)))
        return happly(_branch(b, v), happly(_branch(a, v), _l_counter(a, b)))
    return hyp(phi) if v[phi] else hyp(Not(phi))


def propositional_atoms(phi: Formula) -> list[Formula]:
    """Maximal subformulas that are not negations or implications."""
    order: list[Formula] = []
    _collect_atoms(phi, order, set())
    return order


def propositional_counterexample(phi: Formula) -> dict[Formula, bool] | None:
    """A falsifying assignment to the atoms, or None for a tautology."""
    order = propositional_atoms(phi)
    if len(order) > _TAUT_ATOM_LIMIT:
        raise TacticError(f"too many distinct atoms ({len(order)}) for a truth-table sweep")
    return _counterexample(phi, order)


def _counterexample(phi: Formula, order: list[Formula]) -> dict[Formula, bool] | None:
    """A falsifying assignment to the atoms ``order`` of phi, or None."""
    v: dict[Formula, bool] = {}

    def sweep(i: int) -> dict[Formula, bool] | None:
        if i == len(order):
            return None if _t_eval(phi, dict(v)) else dict(v)
        for b in (True, False):
            v[order[i]] = b
            bad = sweep(i + 1)
            if bad is not None:
                return bad
        del v[order[i]]
        return None

    return sweep(0)


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
        t1 = discharge(build(i + 1, v), a)
        v[a] = False
        t0 = discharge(build(i + 1, v), Not(a))
        del v[a]
        return happly(t0, happly(t1, _l_cases(a, phi)))

    th = compile_tree(build(0, {}))
    MACROS[th.proof] = ("taut", phi)
    return th


# ---------------------------------------------------------------------------
# biconditionals


def iff_parts(f: Formula) -> tuple[Formula, Formula]:
    """Destructure the primitive expansion of a biconditional."""
    if (
        type(f) is Not and type(f.body) is Imp and type(f.body.ant) is Imp
        and type(f.body.cons) is Not and type(f.body.cons.body) is Imp
    ):
        a, b = f.body.ant.ant, f.body.ant.cons
        rev = f.body.cons.body
        if rev.ant == b and rev.cons == a:
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
    if t2 != t:
        raise TacticError("equality chain mismatch")
    step = ax(SchemaId.EQ3, Imp(Eq(t, u), Imp(Eq(s, t), Eq(s, u))))
    return mp(a, mp(b, step))


def cong_term(e: Thm, context: Term, path) -> Thm:
    """From s = t conclude context = context[t at path], where context[path] is s."""
    s, t = e.formula.left, e.formula.right
    path = tuple(path)
    if not path:
        return e
    if subterm_at(context, path) != s:
        raise TacticError(f"position {path} does not hold the rewritten term")
    goal = Eq(context, replace_at(context, path, t))
    return mp(e, ax(SchemaId.EQ2, Imp(e.formula, goal)))


def _trans_chain(links: list[Thm]) -> Thm:
    links = [l for l in links if l is not None and l.formula.left != l.formula.right]
    if not links:
        raise TacticError("empty equality chain")
    out = links[0]
    for l in links[1:]:
        out = trans(out, l)
    return out


# ---------------------------------------------------------------------------
# closed-term evaluation


def eval_closed(t: Term) -> Thm:
    """Prove t = n for the canonical numeral n of t's value."""
    if t.fv:
        raise TacticError(f"eval needs a closed term: {pretty_print(t)}")
    v = value(t)
    if t.nv is not None:
        return refl(t)
    th = _eval_closed(t, v)
    MACROS[th.proof] = ("eval", t)
    return th


def _eval_closed(t: Term, v: int) -> Thm:
    if t.nv is not None:
        return refl(t)
    tt = type(t)
    if tt is Succ:
        u = t.arg
        eu = _eval_closed(u, value(u))
        un = eu.formula.right
        a = ax(SchemaId.COMP_SUCC, Eq(Succ(un), numeral(v)))
        return _trans_chain([cong_term(eu, t, (0,)), a])
    if tt is Add or tt is Mul:
        e1 = _eval_closed(t.left, value(t.left))
        e2 = _eval_closed(t.right, value(t.right))
        mid = _rebuild2(tt, e1.formula.right, t.right)
        c1 = cong_term(e1, t, (0,))
        c2 = cong_term(e2, mid, (1,))
        a = ax(SchemaId.COMP_SUCC, Eq(_rebuild2(tt, e1.formula.right, e2.formula.right), numeral(v)))
        return _trans_chain([c1, c2, a])
    if tt is FnApp and t.sym == SUB:
        links = []
        cur = t
        for i, arg in enumerate(t.args):
            ea = _eval_closed(arg, value(arg))
            nxt = replace_at(cur, (i,), ea.formula.right)
            links.append(cong_term(ea, cur, (i,)))
            cur = nxt
        links.append(ax(SchemaId.COMP_SUB, Eq(cur, numeral(v))))
        return _trans_chain(links)
    if tt is FnApp and t.sym == ITER:
        e1 = _eval_closed(t.args[0], value(t.args[0]))
        e2 = _eval_closed(t.args[1], value(t.args[1]))
        an, bn = e1.formula.right, e2.formula.right
        cur = FnApp(ITER, [an, bn])
        links = [
            cong_term(e1, t, (0,)),
            cong_term(e2, FnApp(ITER, [an, t.args[1]]), (1,)),
        ]
        n0 = an.nv
        if n0 == 0:
            axm = ax(SchemaId.COMP_ITER0, iter_zero_axiom())
            inst = mp(axm, ax(SchemaId.QUANT1, Imp(axm.formula, Eq(FnApp(ITER, [ZERO, bn]), bn))))
            links.append(inst)
            return _trans_chain(links)
        m = numeral(n0 - 1)
        sa = sym(ax(SchemaId.COMP_SUCC, Eq(Succ(m), an)))
        links.append(cong_term(sa, cur, (0,)))
        st = ax(SchemaId.COMP_ITER_STEP, iter_step_axiom())
        body = st.formula.body  # forall z. ...
        i1 = mp(st, ax(SchemaId.QUANT1, Imp(st.formula, substitute(body, st.formula.var, m))))
        e_inst = substitute(i1.formula.body, i1.formula.var, bn)
        i2 = mp(i1, ax(SchemaId.QUANT1, Imp(i1.formula, e_inst)))  # iter(S m, bn) = sub(sub(#K0,..,bn),..,m)
        links.append(i2)
        rhs = e_inst.right
        inner = rhs.args[0]
        ei = ax(SchemaId.COMP_SUB, Eq(inner, numeral(sub_fn(K0, TEMPLATE_CODE_VAR, bn.nv))))
        links.append(cong_term(ei, rhs, (0,)))
        outer = replace_at(rhs, (0,), ei.formula.right)
        links.append(ax(SchemaId.COMP_SUB, Eq(outer, numeral(v))))
        return _trans_chain(links)
    raise TacticError(f"cannot evaluate {pretty_print(t)}")


def _rebuild2(tt, a: Term, b: Term) -> Term:
    return Add(a, b) if tt is Add else Mul(a, b)


# ---------------------------------------------------------------------------
# congruence rewriting inside formulas


def _imp_mono_ant(bwd: Thm, r: Formula) -> Thm:
    """From a' -> a conclude (a -> r) -> (a' -> r)."""
    a2, a = bwd.formula.ant, bwd.formula.cons
    ar = Imp(a, r)
    tree = happly(happly(hyp(a2), bwd), hyp(ar))
    return _close(tree, a2, ar)


def _imp_mono_cons(fwd: Thm, r: Formula) -> Thm:
    """From b -> b' conclude (r -> b) -> (r -> b')."""
    b2 = fwd.formula.cons
    rb = Imp(r, fwd.formula.ant)
    tree = happly(happly(hyp(r), hyp(rb)), fwd)
    return _close(tree, r, rb)


def _rw_pair(e: Thm, phi: Formula, path) -> tuple[Thm, Thm]:
    """Both directions of the congruence phi <-> phi[t at path]."""
    s, t = e.formula.left, e.formula.right
    tphi = type(phi)
    if tphi is Eq or tphi is Tr:
        phi2 = replace_at(phi, path, t)
        if subterm_at(phi, path) != s:
            raise TacticError(
                f"position {path} of {pretty_print(phi)} does not hold {pretty_print(s)}"
            )
        f1 = mp(e, ax(SchemaId.EQ3, Imp(e.formula, Imp(phi, phi2))))
        f2 = mp(sym(e), ax(SchemaId.EQ3, Imp(Eq(t, s), Imp(phi2, phi))))
        return f1, f2
    if tphi is Not:
        sf, sb = _rw_pair(e, phi.body, path[1:])
        return contrapose(sb), contrapose(sf)
    if tphi is Imp:
        if path[0] == 0:
            sf, sb = _rw_pair(e, phi.ant, path[1:])
            return _imp_mono_ant(sb, phi.cons), _imp_mono_ant(sf, phi.cons)
        sf, sb = _rw_pair(e, phi.cons, path[1:])
        return _imp_mono_cons(sf, phi.ant), _imp_mono_cons(sb, phi.ant)
    if tphi is Forall:
        if s.fv or t.fv:
            raise TacticError("cannot rewrite with open terms under a quantifier")
        sf, sb = _rw_pair(e, phi.body, path[1:])
        return forall_mono(sf, phi.var), forall_mono(sb, phi.var)
    raise TacticError(f"position {path} does not address a term occurrence")


def rewrite_imp(e: Thm, phi: Formula, path) -> Thm:
    """Forward direction only: phi -> phi[t at path]."""
    return _rw_pair(e, phi, tuple(path))[0]


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
        if cur_t == exp_t:
            continue
        if not isinstance(cur_t, Term) or not isinstance(exp_t, Term):
            raise TacticError(f"position {pos} does not address a term")
        e1 = eval_closed(cur_t)
        e2 = eval_closed(exp_t)
        if e1.formula.right != e2.formula.right:
            raise TacticError(
                f"terms at {pos} have different values: "
                f"{pretty_print(cur_t)} vs {pretty_print(exp_t)}"
            )
        eq = _trans_chain([e1, sym(e2)])
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
    """Compose implications: the lemma extends the input at either end."""
    f, g = th.formula, lemma.formula
    if type(f) is not Imp or type(g) is not Imp:
        raise TacticError("chain needs implications")
    if f.cons == g.ant:
        return imp_trans(th, lemma)
    if g.cons == f.ant:
        return imp_trans(lemma, th)
    raise TacticError(
        f"cannot chain {pretty_print(f)} with {pretty_print(g)}"
    )


# ---------------------------------------------------------------------------
# the two iteration laws


def derive_A2(phi: Formula) -> Thm:
    """T^omega(#phi) -> T(#phi), finitary."""
    if phi.fv:
        raise TacticError("A2 needs a sentence")
    nphi = name_of(phi)
    w = omega_truth(nphi)
    it0 = FnApp(ITER, [ZERO, nphi])
    q1 = ax(SchemaId.QUANT1, Imp(w, Tr(it0)))
    axm = ax(SchemaId.COMP_ITER0, iter_zero_axiom())
    i = mp(axm, ax(SchemaId.QUANT1, Imp(axm.formula, Eq(it0, nphi))))
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

    st = ax(SchemaId.COMP_ITER_STEP, iter_step_axiom())
    i1 = mp(st, ax(SchemaId.QUANT1, Imp(st.formula, st.formula.body)))  # x := x
    e_inst = substitute(i1.formula.body, i1.formula.var, nphi)
    i2 = mp(i1, ax(SchemaId.QUANT1, Imp(i1.formula, e_inst)))

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


class DiagonalResult(NamedTuple):
    """Fixed point of a one-variable formula, with its equivalence proof."""

    theta: Formula
    gamma: Formula
    equivalence_proof: Proof
    equivalence: Formula

    def thm(self) -> Thm:
        return Thm(self.equivalence_proof, self.equivalence)


def diagonal_lemma(phi: Formula, v: int) -> DiagonalResult:
    """A sentence gamma with a checkable proof of gamma <-> phi(#gamma)."""
    theta, gamma = diagonal_pair(phi, v)
    ntheta = name_of(theta)
    ngamma = name_of(gamma)
    tstar = FnApp(SUB, [ntheta, numeral(v), ntheta])
    eq = ax(SchemaId.COMP_SUB, Eq(tstar, ngamma))

    target = substitute(phi, v, ngamma)
    fwd_acc: Thm | None = None
    bwd_acc: Thm | None = None
    cur = gamma
    for pos in free_var_positions(phi, v):
        f, b = _rw_pair(eq, cur, pos)
        fwd_acc = f if fwd_acc is None else imp_trans(fwd_acc, f)
        bwd_acc = b if bwd_acc is None else imp_trans(b, bwd_acc)
        cur = f.formula.cons
    if fwd_acc is None or cur != target:
        raise TacticError("diagonalization failed to align the fixed point")
    acc = iff_intro(fwd_acc, bwd_acc)
    MACROS[acc.proof] = ("diag", phi, v)
    return DiagonalResult(theta, gamma, acc.proof, acc.formula)
