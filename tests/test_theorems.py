import pytest

from omegatruth import theorems as TH
from omegatruth.coding import encode, iter_fn, name_of
from omegatruth.kernel import GAMMA, SIGMA, SchemaId, check
from omegatruth.syntax import (
    Eq, FnApp, Forall, Imp, Not, Succ, Tr, Var, ZERO, mk_iff, numeral, substitute,
)
from omegatruth.tactics import Thm, ax, iff_parts, mp, omega_truth, refl
from omegatruth.theorems import (
    MissingSchema, formalized_loeb, loeb, m1, m2, m3, mcgee_original,
    mcgee_via_loeb, omega_witness, tomega_provability,
)

from helpers import equals_all, reference_m2, reference_not_zero_one

A = Eq(ZERO, ZERO)
Z01 = Eq(ZERO, Succ(ZERO))


def weaken(th: Thm, a) -> Thm:
    """From phi conclude a -> phi."""
    return mp(th, ax(SchemaId.PROP1, Imp(th.formula, Imp(a, th.formula))))


def test_m1_trivial_input():
    base = check(refl(ZERO).proof, SIGMA)
    cert = m1(base)
    assert cert.formula == omega_truth(name_of(A))
    assert cert.omega_count == 1


def test_m1_increments_omega_count():
    base = check(refl(ZERO).proof, SIGMA)
    once = m1(base)
    twice = m1(once)
    assert twice.omega_count == once.omega_count + 1 == 2
    assert twice.formula == omega_truth(name_of(once.formula))


def test_m1_family_instances_match_iteration_function(mcgee):
    om = mcgee.positive.proof
    gamma_code = encode_gamma(mcgee)
    for n in range(8):
        inst = om.instance(n)
        assert inst == Tr(FnApp("iter", [numeral(n), numeral(gamma_code)]))


def encode_gamma(mcgee):
    w = mcgee.positive.formula  # forall y. T(iter(y, #gamma))
    return w.body.arg.args[1].nv


def test_m2_shapes_and_count():
    cert = m2(A, A, SIGMA)
    w = omega_truth(name_of(Imp(A, A)))
    wa = omega_truth(name_of(A))
    assert cert.formula == Imp(w, Imp(wa, wa))
    assert cert.omega_count == 1
    cert2 = m2(Z01, A, SIGMA)
    assert cert2.omega_count == 1


def test_straight_m2_and_not_zero_one_are_the_tree_builds():
    # the M2 lemma over the pairs Loeb's theorem for 0 = 1 passes it, both
    # plain and formalized, and demo loeb's own pair
    pairs = [(Z01, A)]
    pp = tomega_provability()

    def d2(phi, psi):
        pairs.append((phi, psi))
        return pp.d2(phi, psi)

    TH._formalized_loeb(pp._replace(d2=d2), Z01)
    assert len(set(pairs)) == 4
    for phi, psi in pairs:
        got, want = TH._m2(phi, psi), reference_m2(phi, psi)
        assert got.proof is want.proof and got.formula is want.formula
    got, want = TH._not_zero_one(), reference_not_zero_one()
    assert got.proof is want.proof and got.formula is want.formula
    assert check(got.proof, SIGMA).formula is Not(Z01)


def test_m3_shape_and_family():
    cert = m3(A, SIGMA)
    w = omega_truth(name_of(A))
    assert cert.formula == Imp(w, omega_truth(name_of(w)))
    assert cert.omega_count == 1
    # instance 1 of the generator family is the once-lifted law
    om = cert.proof.minor
    inst1 = om.instance(1)
    assert inst1 == Imp(w, Tr(FnApp("iter", [numeral(1), name_of(w)])))


def test_m3_base_is_the_first_law_plus_one_rewrite():
    from omegatruth.tactics import derive_A1

    cert = m3(A, SIGMA)
    base = cert.proof.minor.base
    # the base applies exactly one rewrite on top of the first iteration law
    assert base.minor == derive_A1(A).proof


def test_m_conditions_check_under_sigma():
    base = check(refl(ZERO).proof, SIGMA)
    assert m1(base).theory.preset_name() == "sigma"
    assert m2(A, A, SIGMA).theory.preset_name() == "sigma"
    assert m3(A, SIGMA).theory.preset_name() == "sigma"


def test_loeb_with_derived_reflection(mcgee_loeb):
    assert mcgee_loeb.positive.formula == Z01
    assert mcgee_loeb.positive.omega_count <= 3
    assert mcgee_loeb.negative.formula == Not(Z01)
    assert mcgee_loeb.negative.omega_count == 0


def test_loeb_trivial_premise():
    pp = tomega_provability()
    theorem = check(refl(ZERO).proof, GAMMA)
    premise = check(weaken(Thm(theorem.proof, theorem.formula), omega_truth(name_of(A))).proof, GAMMA)
    cert = loeb(pp, A, premise)
    assert cert.formula == A
    assert cert.omega_count <= 3


def test_loeb_rejects_mismatched_premise():
    pp = tomega_provability()
    premise = check(weaken(refl(ZERO), omega_truth(name_of(Z01))).proof, GAMMA)
    with pytest.raises(ValueError):
        loeb(pp, A, premise)


def test_formalized_loeb_under_sigma():
    pp = tomega_provability()
    cert = formalized_loeb(pp, Z01, SIGMA)
    w = omega_truth(name_of(Z01))
    assert cert.formula == Imp(omega_truth(name_of(Imp(w, Z01))), w)
    assert cert.theory.preset_name() == "sigma"
    cert2 = formalized_loeb(pp, A, SIGMA)
    assert cert2.formula == Imp(
        omega_truth(name_of(Imp(omega_truth(name_of(A)), A))), omega_truth(name_of(A))
    )


def test_mcgee_original_structure(mcgee):
    assert mcgee.positive.omega_count == 1
    assert mcgee.negative.omega_count == 0
    assert mcgee.negative.formula == Not(mcgee.positive.formula)
    labels = [l for l, _, _ in mcgee.narrative]
    assert labels == ["1", "2", "3", "4", "5", "6", "7", "omega"]
    # lines 6 and 7 close the finitary half
    line6 = {l: f for l, f, _ in mcgee.narrative}["6"]
    assert line6 == mcgee.negative.formula


def test_mcgee_line_2_lifts_the_sides_of_line_1(mcgee):
    # line 2 is stated, not derived: the biconditional of T of each side
    lines = {l: f for l, f, _ in mcgee.narrative}
    gamma, neg_w = iff_parts(lines["1"])
    assert neg_w is Not(omega_truth(name_of(gamma)))
    assert lines["2"] is mk_iff(Tr(name_of(gamma)), Tr(name_of(neg_w)))


def test_mcgee_fails_under_sigma():
    with pytest.raises(MissingSchema) as err:
        mcgee_original(SIGMA)
    assert err.value.schema is SchemaId.CONS
    with pytest.raises(MissingSchema) as err2:
        mcgee_via_loeb(SIGMA)
    assert err2.value.schema is SchemaId.CONS


def test_mcgee_via_loeb_pairs_with_q_negation(mcgee_loeb):
    lines = {l: f for l, f, _ in mcgee_loeb.narrative}
    assert lines["loeb"] == Z01
    assert lines["q"] == Not(Z01)


def test_witness_is_fully_finitary():
    report = omega_witness(GAMMA, 3)
    assert report.universal_negation.omega_count == 0
    assert len(report.instances) == 3
    gamma_name = report.family.arg.args[1]
    for n, inst in enumerate(report.instances):
        assert inst.omega_count == 0
        assert inst.formula == substitute(report.family, report.var, numeral(n))
        # instance formulas track the iteration function modulo evaluation
        assert inst.formula == Tr(FnApp("iter", [numeral(n), gamma_name]))
    assert report.universal_negation.formula == Not(Forall(report.var, report.family))


def test_witness_zero_instances():
    report = omega_witness(GAMMA, 0)
    assert report.instances == ()
    assert report.universal_negation.omega_count == 0


def test_witness_instances_name_the_iterates():
    from omegatruth.coding import value

    report = omega_witness(GAMMA, 3)
    gamma_code = report.family.arg.args[1].nv
    for n, inst in enumerate(report.instances):
        # the instance's term denotes the n-th iterate; the instance itself
        # codes the n+1-st
        assert value(inst.formula.arg) == iter_fn(n, gamma_code)
        assert encode(inst.formula) == iter_fn(n + 1, gamma_code)


def test_theorem_builders_refuse_what_they_cannot_use():
    # Loeb's premise is compared by identity: a formula equal to everything
    # is not the reflection implication
    pp = tomega_provability()
    for premise in (refl(ZERO), Thm(refl(ZERO).proof, equals_all())):
        with pytest.raises(ValueError) as err:
            TH._loeb(pp, Z01, premise)
        assert str(err.value) == "premise must be the reflection implication for phi"
    with pytest.raises(ValueError) as err:
        loeb(pp, Z01, check(refl(ZERO).proof, SIGMA))
    assert str(err.value) == "premise must be the reflection implication for phi"
    with pytest.raises(ValueError) as err:
        m2(Eq(Var(0), ZERO), A)
    assert str(err.value) == "M2 needs sentences"
