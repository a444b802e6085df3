"""Bundled machine-checked derivations.

The derivability conditions M1-M3 hold for the omega-truth predicate
without internal consistency, so under ``SIGMA`` as under ``GAMMA``.  The
two refutation builders need Cons and raise :class:`MissingSchema` under
``SIGMA``.  Loeb's theorem and its formalized version are generic over any
predicate that supplies the three conditions, then instantiated with
(M1, M2, M3).
"""

from __future__ import annotations

from collections import namedtuple

from .coding import OMEGA_VAR, name_of
from .kernel import (
    ApplyTIntro, ChainWith, CheckedTheorem, GAMMA, LiftImp, Omega,
    RewriteEval, SchemaId, SIGMA, TheoryConfig, _Checked, check, q_axiom,
)
from .syntax import (
    Eq, FnApp, Forall, Formula, ITER, Imp, Not, Succ, Tr, Var, ZERO,
    mk_iff, substitute,
)
from .tactics import (
    Thm, _apply_under, _from_hyp, _mp_under, _trans_under, _weaken, ax,
    contrapose, derive_A1, derive_A2, diagonal_lemma, gen, iff_elim1,
    iff_elim2, imp_trans, inst, lift_imp, mp, omega_truth, refl,
    rewrite_align, taut, tintro,
)

__all__ = [
    "MissingSchema", "ProvabilityPredicate", "Refutation", "WitnessReport",
    "tomega_provability", "m1", "m2", "m3", "loeb", "formalized_loeb",
    "mcgee_original", "mcgee_via_loeb", "omega_witness",
]

DIAG_VAR = 5  # v: distinguished variable of diagonalized formulas


class MissingSchema(ValueError):
    """A bundled derivation needs a schema the configuration switched off."""

    def __init__(self, schema: SchemaId):
        super().__init__(f"MissingSchema({schema.value})")
        self.schema = schema


def _require_cons(config: TheoryConfig) -> None:
    if not config.has_cons:
        raise MissingSchema(SchemaId.CONS)


# ---------------------------------------------------------------------------
# the derivability conditions for the omega-truth predicate


def _omega(fam: Formula, base: Thm, lead: tuple, positions) -> Thm:
    """forall y. fam, for y the omega variable, by one omega node: ``base``
    aligned to fam(0) at ``positions`` is its base, and each step is
    ``lead`` followed by the same alignment to fam(n+1)."""
    y = OMEGA_VAR
    aligned = rewrite_align(base, substitute(fam, y, ZERO), positions)
    node = Omega(y, fam, aligned.proof, lead + tuple(RewriteEval(p) for p in positions))
    return Thm(node, node.conclusion)


def _m1(th: Thm) -> Thm:
    """From phi conclude T^omega(#phi): introduce T and iterate."""
    return _omega(omega_truth(name_of(th.formula)).body, tintro(th), (ApplyTIntro(),), [(0,)])


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
    timp = ax(SchemaId.TIMP, Imp(Tr(nf), Imp(Tr(na), Tr(nb))))
    om = _omega(fam, timp, (LiftImp(2),), [(0, 0), (1, 0, 0), (1, 1, 0)])

    p_w, q_w = omega_truth(nf), omega_truth(na)
    r_y = Tr(FnApp(ITER, [Var(y), nb]))
    at_y = inst(om, Var(y))
    pa = ax(SchemaId.QUANT1, Imp(p_w, fam.ant))
    pb = ax(SchemaId.QUANT1, Imp(q_w, fam.cons.ant))
    # P -> (Q -> R(y)): at_y applied to pa under P, then to pb under Q
    h = _trans_under(p_w, _from_hyp(q_w, pb), _apply_under(p_w, _from_hyp(p_w, pa), at_y))
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
    om = _omega(fam, a1, (LiftImp(1), ChainWith(a1.proof, a1.formula)), [(1, 0)])
    q2 = ax(SchemaId.QUANT2, Imp(om.formula, Imp(w, omega_truth(nw))))
    return mp(om, q2)


def m1(t: CheckedTheorem) -> CheckedTheorem:
    """T-introduce and iterate a checked theorem into its omega-truth."""
    th = _m1(Thm(t.proof, t.formula))
    return check(th.proof, t.theory)


def m2(phi: Formula, psi: Formula, config: TheoryConfig = SIGMA) -> CheckedTheorem:
    return check(_m2(phi, psi).proof, config)


def m3(phi: Formula, config: TheoryConfig = SIGMA) -> CheckedTheorem:
    return check(_m3(phi).proof, config)


class ProvabilityPredicate(namedtuple("ProvabilityPredicate", "template var d1 d2 d3")):
    """A predicate applied to names, with the three derivability conditions.

    ``template`` is a formula whose variable ``var`` takes the name.  ``d1``
    turns a proof of phi into a proof of P(#phi); ``d2`` and ``d3`` produce
    the distribution and internal-iteration schemas.
    """

    __slots__ = ()

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
    if premise.formula is not Imp(pp.apply(phi), phi):
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
    th = _loeb(pp, phi, Thm(premise.proof, premise.formula))
    return check(th.proof, config)


def formalized_loeb(
    pp: ProvabilityPredicate, phi: Formula, config: TheoryConfig = SIGMA
) -> CheckedTheorem:
    return check(_formalized_loeb(pp, phi).proof, config)


# ---------------------------------------------------------------------------
# the omega-inconsistency derivations


def _mcgee_lines(config: TheoryConfig):
    """Line 6, the omega node whose conclusion it refutes, and the narrative
    of lines 1-7 and omega, each with its justification."""
    _require_cons(config)
    v = DIAG_VAR
    dr = diagonal_lemma(Not(omega_truth(Var(v))), v)
    gamma = dr.gamma
    w = omega_truth(name_of(gamma))  # T^omega(#gamma)

    line1 = dr.thm()  # gamma <-> ~T^omega(#gamma)
    l2a = lift_imp(iff_elim1(line1))
    # T(#gamma) <-> T(#~T^omega(#gamma)): only its forward half l2a enters
    # the refutation, so the line is stated, not derived
    line2 = mk_iff(l2a.formula.ant, l2a.formula.cons)
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
    narrative = (
        ("1", line1.formula, "diagonal fixed point"),
        ("2", line2, "from 1 by T-Intro and T-Imp"),
        ("3", line3.formula, "from 2 by Cons"),
        ("4", line4.formula, "from 3 by A1"),
        ("5", line5.formula, "A2"),
        ("6", line6.formula, "from 4 and 5"),
        ("7", line7.formula, "from 1 and 6"),
        ("omega", w, "omega rule over the truth-iteration family"),
    )
    return line6, _m1(line7).proof, narrative


class Refutation(_Checked, namedtuple("Refutation", "positive negative narrative")):
    """Proofs of a sentence and of its negation under one configuration:
    two :class:`CheckedTheorem`, and the ``(label, formula, justification)``
    lines of the derivation's narrative."""

    __slots__ = ()

    def _check(self):
        if self.negative.formula is not Not(self.positive.formula):
            raise ValueError("refutation sides do not contradict each other")
        if self.negative.theory != self.positive.theory:
            raise ValueError("refutation sides use different theories")


def mcgee_original(config: TheoryConfig = GAMMA) -> Refutation:
    """The direct refutation: the diagonal sentence is provable, its
    omega-truth refutable, and one omega-rule application closes the gap."""
    line6, omega, narrative = _mcgee_lines(config)
    positive = check(omega, config)
    negative = check(line6.proof, config)
    return Refutation(positive, negative, narrative)


def _not_zero_one() -> Thm:
    """~(0 = 1) from Robinson arithmetic and equality logic."""
    one = Succ(ZERO)
    z01 = Eq(ZERO, one)
    at_zero = inst(ax(SchemaId.Q2, q_axiom(SchemaId.Q2)), ZERO)
    e3 = ax(SchemaId.EQ3, Imp(z01, Imp(Eq(ZERO, ZERO), Eq(one, ZERO))))
    flip = _mp_under(z01, _weaken(z01, refl(ZERO)), _from_hyp(z01, e3))  # 0=1 -> 1=0
    return mp(at_zero, contrapose(flip))


def _reflection_for_zero_one(config: TheoryConfig) -> Thm:
    """T^omega(#(0=1)) -> 0=1, from internal consistency."""
    _require_cons(config)
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
    one = Succ(ZERO)
    z01 = Eq(ZERO, one)
    reflection = _reflection_for_zero_one(config)
    pp = tomega_provability()
    positive_thm = _loeb(pp, z01, reflection)
    positive = check(positive_thm.proof, config)
    negative_thm = _not_zero_one()
    negative = check(negative_thm.proof, config)
    narrative = (
        ("q", negative_thm.formula, "Robinson arithmetic"),
        ("internal-consistency", Not(Tr(name_of(z01))), "by T-Intro and Cons"),
        ("omega-consistency", Not(omega_truth(name_of(z01))), "by A2, contraposed"),
        ("reflection", reflection.formula, "vacuous reflection from omega-consistency"),
        ("loeb", z01, "Loeb's theorem for the omega-truth predicate"),
    )
    return Refutation(positive, negative, narrative)


class WitnessReport(namedtuple("WitnessReport", "family var universal_negation instances")):
    """A finitary exhibit of omega-inconsistency: the negated universal
    together with the first instances of the witness family."""

    __slots__ = ()


def omega_witness(config: TheoryConfig = GAMMA, count: int = 3) -> WitnessReport:
    """The witness family T(iter(y, #gamma)): refutable universally, provable
    at every instance, without any omega-rule application."""
    line6, omega, _narrative = _mcgee_lines(config)
    negation = check(line6.proof, config)
    proofs = [omega.base] + [p for p, _ in omega.premises(count - 1)]
    return WitnessReport(
        family=omega.family,
        var=omega.var,
        universal_negation=negation,
        instances=tuple(check(p, config) for p in proofs[:count]),
    )
