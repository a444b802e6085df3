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
    K0, OMEGA_VAR, TEMPLATE_CODE_VAR, UINF_BOUND_VAR, _parts, diagonal_pair,
    iter_step_axiom, iter_zero_axiom, name_of, omega_truth, sub_fn, value,
)
from .kernel import Axiom, Gen, MP, Proof, SchemaId, TIntro
from .syntax import (
    Eq, FnApp, Forall, Formula, ITER, Imp, Not, SUB, Succ, Term, Tr, Var,
    ZERO, _postorder, free_var_positions, mk_iff, numeral,
    pretty_print, replace_at, substitute, subterm_at,
)

__all__ = [
    "Thm", "TacticError", "TautologyError",
    "ax", "mp", "gen", "inst", "tintro",
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
    if type(f) is not Imp or f.ant != minor.formula:
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
    return tuple.__new__(Thm, (MP(minor.proof, major.proof), f.cons))


def discharge(tree: _HNode, h: Formula) -> _HNode:
    """Deduction theorem: turn a proof of B from h into a proof of h -> B."""

    def parts(node: _HNode) -> tuple:
        return (node.major, node.minor) if type(node) is _HApp and h in node.hyps else ()

    def close(node: _HNode, done: list) -> _HNode:
        if h not in node.hyps:
            return happly(node, ax(SchemaId.PROP1, Imp(node.formula, Imp(h, node.formula))))
        if type(node) is _HHyp:  # node.formula is h
            return taut_id(h)
        dM, dm = done  # h -> (a -> b) and h -> a
        s = ax(SchemaId.PROP2, Imp(dM.formula, Imp(dm.formula, Imp(h, node.formula))))
        return happly(dm, happly(dM, s))

    return _postorder(tree, parts, close, {})


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
    """~~a -> a.

    The deduction compiler's proof, written out: from the hypothesis
    h = ~~a, the closed links h -> (~~~~a -> h) (PROP1),
    (~~~~a -> h) -> (~a -> ~~~a) and (~a -> ~~~a) -> (h -> a) (PROP3) lead
    to h -> a, which applied to h gives a.  Discharging h makes each link
    h -> link by PROP1, the last link first, then h -> h, then one PROP2
    step per modus ponens under h.  These are the same nodes in the same
    order, made with no hypothesis tree and, past the links, without
    ``mp``'s premise check, which the kernel repeats; the tests compare
    them with that tree.
    """
    n1 = Not(a)
    h = Not(n1)
    n3 = Not(h)
    n4 = Not(n3)
    links = (
        ax(SchemaId.PROP1, Imp(h, Imp(n4, h))),
        ax(SchemaId.PROP3, Imp(Imp(n4, h), Imp(n1, n3))),
        ax(SchemaId.PROP3, Imp(Imp(n1, n3), Imp(h, a))),
    )
    under = []  # each link k as h -> k, by PROP1
    for k in links[::-1]:
        hk = Imp(h, k.formula)
        under.append(tuple.__new__(Thm, (MP(k.proof, Axiom(SchemaId.PROP1, Imp(k.formula, hk))), hk)))
    hh = d = taut_id(h)
    for dM in reversed(under):  # h -> x and h -> (x -> y) give h -> y
        d = _mp_under(h, d, dM)
    return _mp_under(h, hh, d)


def _mp_under(h: Formula, dm: Thm, dM: Thm) -> Thm:
    """From h -> x and h -> (x -> y) conclude h -> y, by PROP2."""
    f = dM.formula
    hy = Imp(h, f.cons.cons)
    s = Axiom(SchemaId.PROP2, Imp(f, Imp(dm.formula, hy)))
    return tuple.__new__(Thm, (MP(dm.proof, MP(dM.proof, s)), hy))


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
            return happly(done[0], _l_dni(f.body)) if _t_eval(f.body, v) else done[0]
        if type(f) is not Imp:
            return hyp(f) if v[f] else hyp(Not(f))
        a, b = f.ant, f.cons
        if not v[a]:
            return happly(done[0], _l_efq(a, b))
        if v[b]:
            return happly(done[0], ax(SchemaId.PROP1, Imp(b, f)))
        return happly(done[0], happly(done[1], _l_counter(a, b)))

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


# ---------------------------------------------------------------------------
# closed-term evaluation


def eval_closed(t: Term) -> Thm:
    """Prove t = n for the canonical numeral n of t's value."""
    if t.fv:
        raise TacticError(f"eval needs a closed term: {pretty_print(t)}")
    if t.nv is not None:
        return refl(t)
    th = _postorder(t, _parts, _eval_step)
    MACROS[th.proof] = ("eval", t)
    return th


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
        n = numeral(value(t))
        if cur is not n:  # S(#2k) is the numeral #(2k+1) itself
            links.append(ax(schema, Eq(cur, n)))
        return reduce(trans, links)
    an, bn = cur.args
    n0 = an.nv
    if n0 == 0:
        links.append(inst(ax(SchemaId.COMP_ITER0, iter_zero_axiom()), bn))
        return reduce(trans, links)
    m = numeral(n0 - 1)
    if Succ(m) is not an:  # an even numeral is not spelled S(m)
        sa = sym(ax(SchemaId.COMP_SUCC, Eq(Succ(m), an)))
        links.append(cong_term(sa, cur, (0,)))
    # iter(S m, bn) = sub(sub(#K0, .., bn), .., m)
    step = inst(inst(ax(SchemaId.COMP_ITER_STEP, iter_step_axiom()), m), bn)
    links.append(step)
    rhs = step.formula.right
    inner = rhs.args[0]
    ei = ax(SchemaId.COMP_SUB, Eq(inner, numeral(sub_fn(K0, TEMPLATE_CODE_VAR, bn.nv))))
    links.append(cong_term(ei, rhs, (0,)))
    outer = replace_at(rhs, (0,), ei.formula.right)
    links.append(ax(SchemaId.COMP_SUB, Eq(outer, numeral(value(t)))))
    return reduce(trans, links)


# ---------------------------------------------------------------------------
# congruence rewriting inside formulas


def _imp_mono_ant(p: Thm, r: Formula) -> Thm:
    """From a' -> a conclude (a -> r) -> (a' -> r)."""
    a2, a = p.formula.ant, p.formula.cons
    ar = Imp(a, r)
    tree = happly(happly(hyp(a2), p), hyp(ar))
    return _close(tree, a2, ar)


def _imp_mono_cons(p: Thm, r: Formula) -> Thm:
    """From b -> b' conclude (r -> b) -> (r -> b')."""
    rb = Imp(r, p.formula.ant)
    tree = happly(happly(hyp(r), hyp(rb)), p)
    return _close(tree, r, rb)


def rewrite_imp(e: Thm, phi: Formula, path, forward: bool = True) -> Thm:
    """From s = t conclude phi -> phi[t at path], or the converse when
    ``forward`` is false."""
    s, t = e.formula.left, e.formula.right
    path = tuple(path)
    above = []  # the connectives passed on the way down, and the side taken
    while type(phi) is not Eq and type(phi) is not Tr:
        if type(phi) is Forall and (s.fv or t.fv):
            raise TacticError("cannot rewrite with open terms under a quantifier")
        side = path[0] if type(phi) is Imp else None
        above.append((phi, side))
        if type(phi) is Not or side == 0:  # a negative position
            forward = not forward
        phi = phi.body if side is None else phi.ant if side == 0 else phi.cons
        path = path[1:]
    phi2 = replace_at(phi, path, t)
    if subterm_at(phi, path) != s:
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
        if cur_t == exp_t:
            continue
        if not isinstance(cur_t, Term) or not isinstance(exp_t, Term):
            raise TacticError(f"position {pos} does not address a term")
        # a numeral's side needs no link
        e1 = eval_closed(cur_t) if cur_t.nv is None else None
        e2 = eval_closed(exp_t) if exp_t.nv is None else None
        if value(cur_t) != value(exp_t):
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
    i = inst(ax(SchemaId.COMP_ITER0, iter_zero_axiom()), nphi)
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

    i2 = inst(inst(ax(SchemaId.COMP_ITER_STEP, iter_step_axiom()), Var(x)), nphi)
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
        f, b = rewrite_imp(eq, cur, pos), rewrite_imp(eq, cur, pos, forward=False)
        fwd_acc = f if fwd_acc is None else imp_trans(fwd_acc, f)
        bwd_acc = b if bwd_acc is None else imp_trans(b, bwd_acc)
        cur = f.formula.cons
    if fwd_acc is None or cur != target:
        raise TacticError("diagonalization failed to align the fixed point")
    acc = iff_intro(fwd_acc, bwd_acc)
    MACROS[acc.proof] = ("diag", phi, v)
    return DiagonalResult(theta, gamma, acc.proof, acc.formula)
