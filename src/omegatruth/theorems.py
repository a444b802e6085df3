"""Bundled machine-checked derivations.

The derivability conditions M1-M3 hold for the omega-truth predicate
without internal consistency; the two refutation builders need it and fail
with :class:`MissingSchema` otherwise.  Loeb's theorem and its formalized
version are generic over any predicate that supplies the three conditions,
then instantiated with (M1, M2, M3).
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .coding import OMEGA_VAR, DIAG_VAR, name_of, omega_truth
from .kernel import (
    ApplyTIntro, ChainWith, CheckedTheorem, GAMMA, LiftImp, MissingSchema,
    Omega, Refutation, RewriteEval, SchemaId, SIGMA, TheoryConfig, check,
    q_axiom,
)
from .syntax import (
    Eq, FnApp, Forall, Formula, ITER, Imp, Not, Succ, Tr, Var, ZERO,
    substitute,
)
from .tactics import (
    Thm, ax, compile_tree, contrapose, derive_A1, derive_A2,
    diagonal_lemma, discharge, gen, happly, hyp, iff_elim1, iff_elim2,
    iff_intro, imp_trans, lift_imp, mp, refl, rewrite_align, taut, tintro,
)

__all__ = [
    "ProvabilityPredicate", "WitnessReport", "tomega_provability",
    "m1", "m2", "m3", "loeb", "formalized_loeb",
    "mcgee_original", "mcgee_via_loeb", "omega_witness",
]


def _require(config: TheoryConfig, *schemas: SchemaId) -> None:
    for s in schemas:
        if not config.active(s):
            raise MissingSchema(s)


# ---------------------------------------------------------------------------
# the derivability conditions for the omega-truth predicate


def _omega_family(base: Thm, phi: Formula) -> Omega:
    """Omega node over the family T(iter(y, #phi)) from a proof of phi."""
    w = omega_truth(name_of(phi))
    fam0 = substitute(w.body, w.var, ZERO)
    aligned = rewrite_align(tintro(base), fam0, [(0,)])
    return Omega(w.var, w.body, aligned.proof, (ApplyTIntro(), RewriteEval((0,))))


def _m1(th: Thm) -> Thm:
    """From phi conclude T^omega(#phi): introduce T and iterate."""
    om = _omega_family(th, th.formula)
    return Thm(om, om.conclusion)


def _m2(phi: Formula, psi: Formula) -> Thm:
    """T^omega(#(phi -> psi)) -> (T^omega(#phi) -> T^omega(#psi))."""
    if phi.fv or psi.fv:
        raise ValueError("M2 needs sentences")
    nf, na, nb = name_of(Imp(phi, psi)), name_of(phi), name_of(psi)
    y = OMEGA_VAR
    fam = Imp(
        Tr(FnApp(ITER, [Var(y), nf])),
        Imp(Tr(FnApp(ITER, [Var(y), na])), Tr(FnApp(ITER, [Var(y), nb]))),
    )
    positions = [(0, 0), (1, 0, 0), (1, 1, 0)]
    timp = ax(SchemaId.TIMP, Imp(Tr(nf), Imp(Tr(na), Tr(nb))))
    base = rewrite_align(timp, substitute(fam, y, ZERO), positions)
    node = Omega(
        y, fam, base.proof,
        (LiftImp(2),) + tuple(RewriteEval(p) for p in positions),
    )
    om = Thm(node, node.conclusion)

    p_w, q_w = omega_truth(nf), omega_truth(na)
    r_y = Tr(FnApp(ITER, [Var(y), nb]))
    inst = mp(om, ax(SchemaId.QUANT1, Imp(om.formula, fam)))
    pa = ax(SchemaId.QUANT1, Imp(p_w, fam.ant))
    pb = ax(SchemaId.QUANT1, Imp(q_w, fam.cons.ant))
    got_a = happly(hyp(p_w), pa)
    got_b = happly(hyp(q_w), pb)
    r = happly(got_b, happly(got_a, inst))
    h = compile_tree(discharge(discharge(r, q_w), p_w))  # P -> (Q -> R(y))
    gy = gen(h, y)
    s1 = mp(gy, ax(SchemaId.QUANT2, Imp(gy.formula, Imp(p_w, Forall(y, Imp(q_w, r_y))))))
    q2b = ax(SchemaId.QUANT2, Imp(Forall(y, Imp(q_w, r_y)), Imp(q_w, Forall(y, r_y))))
    return imp_trans(s1, q2b)


def _m3(phi: Formula) -> Thm:
    """T^omega(#phi) -> T^omega(#T^omega(#phi)): iterate the first law."""
    a1 = derive_A1(phi)
    w = omega_truth(name_of(phi))
    nw = name_of(w)
    y = OMEGA_VAR
    fam = Imp(w, Tr(FnApp(ITER, [Var(y), nw])))
    base = rewrite_align(a1, substitute(fam, y, ZERO), [(1, 0)])
    node = Omega(
        y, fam, base.proof,
        (LiftImp(1), ChainWith(a1.proof, a1.formula), RewriteEval((1, 0))),
    )
    om = Thm(node, node.conclusion)
    q2 = ax(SchemaId.QUANT2, Imp(om.formula, Imp(w, omega_truth(nw))))
    return mp(om, q2)


def m1(t: CheckedTheorem) -> CheckedTheorem:
    """T-introduce and iterate a checked theorem into its omega-truth."""
    th = _m1(Thm(t.proof, t.formula))
    return check(th.proof, t.theory)


def m2(phi: Formula, psi: Formula, config: TheoryConfig = SIGMA) -> CheckedTheorem:
    _require(config, SchemaId.TIMP)
    return check(_m2(phi, psi).proof, config)


def m3(phi: Formula, config: TheoryConfig = SIGMA) -> CheckedTheorem:
    _require(config, SchemaId.TIMP, SchemaId.UINF)
    return check(_m3(phi).proof, config)


class ProvabilityPredicate(NamedTuple):
    """A predicate applied to names, with the three derivability conditions.

    ``d1`` turns a proof of phi into a proof of P(#phi); ``d2`` and ``d3``
    produce the distribution and internal-iteration schemas.
    """

    template: Formula
    var: int
    d1: Callable[[Thm], Thm]
    d2: Callable[[Formula, Formula], Thm]
    d3: Callable[[Formula], Thm]

    def apply(self, phi: Formula) -> Formula:
        return substitute(self.template, self.var, name_of(phi))


def tomega_provability() -> ProvabilityPredicate:
    """The omega-truth predicate with (M1, M2, M3) as its conditions."""
    return ProvabilityPredicate(
        template=omega_truth(Var(DIAG_VAR)),
        var=DIAG_VAR,
        d1=_m1,
        d2=_m2,
        d3=_m3,
    )


# ---------------------------------------------------------------------------
# Loeb's theorem, generic over the provability predicate


def _loeb_core(pp: ProvabilityPredicate, phi: Formula):
    """Shared prefix: the diagonal sentence psi and P(#psi) -> P(#phi)."""
    delta = Imp(pp.template, phi)
    dr = diagonal_lemma(delta, pp.var)
    psi = dr.gamma
    eqv = dr.thm()  # psi <-> (P(#psi) -> phi)
    p_psi, p_phi = pp.apply(psi), pp.apply(phi)

    e1 = iff_elim1(eqv)
    t3 = pp.d1(e1)
    t4 = mp(t3, pp.d2(psi, Imp(p_psi, phi)))
    t5 = imp_trans(t4, pp.d2(p_psi, phi))  # P(#psi) -> (P(#P(#psi)) -> P(#phi))
    t6 = pp.d3(psi)
    s = mp(
        t6,
        mp(t5, ax(SchemaId.PROP2, Imp(t5.formula, Imp(t6.formula, Imp(p_psi, p_phi))))),
    )
    return psi, eqv, s, p_psi, p_phi


def _loeb(pp: ProvabilityPredicate, phi: Formula, premise: Thm) -> Thm:
    """From P(#phi) -> phi conclude phi."""
    if premise.formula != Imp(pp.apply(phi), phi):
        raise ValueError("premise must be the reflection implication for phi")
    _psi, eqv, s, _p_psi, _p_phi = _loeb_core(pp, phi)
    t7 = imp_trans(s, premise)  # P(#psi) -> phi
    t8 = mp(t7, iff_elim2(eqv))  # psi
    t9 = pp.d1(t8)  # P(#psi)
    return mp(t9, t7)


def _formalized_loeb(pp: ProvabilityPredicate, phi: Formula) -> Thm:
    """P(#(P(#phi) -> phi)) -> P(#phi)."""
    psi, eqv, s, p_psi, p_phi = _loeb_core(pp, phi)
    refl_phi = Imp(p_phi, phi)
    t = mp(s, taut(Imp(s.formula, Imp(refl_phi, Imp(p_psi, phi)))))
    b = imp_trans(t, iff_elim2(eqv))  # (P(#phi) -> phi) -> psi
    c = pp.d1(b)
    d = mp(c, pp.d2(refl_phi, psi))
    return imp_trans(d, s)


def loeb(
    pp: ProvabilityPredicate,
    phi: Formula,
    premise: CheckedTheorem,
    config: TheoryConfig | None = None,
) -> CheckedTheorem:
    config = config or premise.theory
    _require(config, SchemaId.TIMP, SchemaId.UINF)
    th = _loeb(pp, phi, Thm(premise.proof, premise.formula))
    return check(th.proof, config)


def formalized_loeb(
    pp: ProvabilityPredicate, phi: Formula, config: TheoryConfig = SIGMA
) -> CheckedTheorem:
    _require(config, SchemaId.TIMP, SchemaId.UINF)
    return check(_formalized_loeb(pp, phi).proof, config)


# ---------------------------------------------------------------------------
# the omega-inconsistency derivations


def _mcgee_lines(config: TheoryConfig):
    """Lines 1-7: the finitary half of the refutation, plus the omega node."""
    _require(config, SchemaId.CONS, SchemaId.TIMP, SchemaId.UINF)
    v = DIAG_VAR
    dr = diagonal_lemma(Not(omega_truth(Var(v))), v)
    gamma = dr.gamma
    w = omega_truth(name_of(gamma))  # T^omega(#gamma)

    line1 = dr.thm()  # gamma <-> ~T^omega(#gamma)
    l1a = iff_elim1(line1)
    l1b = iff_elim2(line1)
    l2a = lift_imp(l1a)
    l2b = lift_imp(l1b)
    line2 = iff_intro(l2a, l2b)  # T(#gamma) <-> T(#~T^omega(#gamma))
    cons = ax(SchemaId.CONS, Imp(Tr(name_of(Not(w))), Not(Tr(name_of(w)))))
    line3 = imp_trans(l2a, cons)  # T(#gamma) -> ~T(#T^omega(#gamma))
    a1 = derive_A1(gamma)
    line4 = imp_trans(line3, contrapose(a1))  # T(#gamma) -> ~T^omega(#gamma)
    line5 = derive_A2(gamma)  # T^omega(#gamma) -> T(#gamma)
    line6 = mp(
        line4,
        mp(line5, taut(Imp(line5.formula, Imp(line4.formula, Not(w))))),
    )
    line7 = mp(line6, mp(line1, taut(Imp(line1.formula, Imp(Not(w), gamma)))))
    omega = _omega_family(line7, gamma)
    narrative = (
        ("1", line1.formula),
        ("2", line2.formula),
        ("3", line3.formula),
        ("4", line4.formula),
        ("5", line5.formula),
        ("6", line6.formula),
        ("7", line7.formula),
        ("omega", w),
    )
    return gamma, w, line6, line7, omega, narrative


def mcgee_original(config: TheoryConfig = GAMMA) -> Refutation:
    """The direct refutation: the diagonal sentence is provable, its
    omega-truth refutable, and one omega-rule application closes the gap."""
    gamma, w, line6, _line7, omega, narrative = _mcgee_lines(config)
    positive = check(omega, config)
    negative = check(line6.proof, config)
    return Refutation(positive, negative, narrative)


def _not_zero_one() -> Thm:
    """~(0 = 1) from Robinson arithmetic and equality logic."""
    one = Succ(ZERO)
    z01 = Eq(ZERO, one)
    q2 = ax(SchemaId.Q2, q_axiom(SchemaId.Q2))
    inst = mp(q2, ax(SchemaId.QUANT1, Imp(q2.formula, Not(Eq(one, ZERO)))))
    e3 = ax(SchemaId.EQ3, Imp(z01, Imp(Eq(ZERO, ZERO), Eq(one, ZERO))))
    flip = compile_tree(discharge(happly(refl(ZERO), happly(hyp(z01), e3)), z01))
    return mp(inst, contrapose(flip))


def _reflection_for_zero_one(config: TheoryConfig) -> Thm:
    """T^omega(#(0=1)) -> 0=1, from internal consistency."""
    _require(config, SchemaId.CONS)
    one = Succ(ZERO)
    z01 = Eq(ZERO, one)
    n01 = _not_zero_one()
    ti = tintro(n01)
    cons = ax(SchemaId.CONS, Imp(Tr(name_of(Not(z01))), Not(Tr(name_of(z01)))))
    nt = mp(ti, cons)  # ~T(#(0=1))
    nw = mp(nt, contrapose(derive_A2(z01)))  # ~T^omega(#(0=1))
    w01 = omega_truth(name_of(z01))
    return mp(nw, taut(Imp(Not(w01), Imp(w01, z01))))


def mcgee_via_loeb(config: TheoryConfig = GAMMA) -> Refutation:
    """The refutation through Loeb's theorem: internal consistency yields
    the reflection implication for 0 = 1, Loeb turns it into 0 = 1."""
    _require(config, SchemaId.CONS, SchemaId.TIMP, SchemaId.UINF)
    one = Succ(ZERO)
    z01 = Eq(ZERO, one)
    reflection = _reflection_for_zero_one(config)
    pp = tomega_provability()
    positive_thm = _loeb(pp, z01, reflection)
    positive = check(positive_thm.proof, config)
    negative_thm = _not_zero_one()
    negative = check(negative_thm.proof, config)
    narrative = (
        ("q", negative_thm.formula),
        ("internal-consistency", Not(Tr(name_of(z01)))),
        ("omega-consistency", Not(omega_truth(name_of(z01)))),
        ("reflection", reflection.formula),
        ("loeb", z01),
    )
    return Refutation(positive, negative, narrative)


class WitnessReport(NamedTuple):
    """A finitary exhibit of omega-inconsistency: the negated universal
    together with the first instances of the witness family."""

    family: Formula
    var: int
    universal_negation: CheckedTheorem
    instances: tuple[CheckedTheorem, ...]


def omega_witness(config: TheoryConfig = GAMMA, count: int = 3) -> WitnessReport:
    """The witness family T(iter(y, #gamma)): refutable universally, provable
    at every instance, without any omega-rule application."""
    _gamma, _w, line6, _line7, omega, _narr = _mcgee_lines(config)
    negation = check(line6.proof, config)
    proofs = [omega.base] + [p for p, _ in omega.premises(count - 1)]
    return WitnessReport(
        family=omega.family,
        var=omega.var,
        universal_negation=negation,
        instances=tuple(check(p, config) for p in proofs[:count]),
    )
