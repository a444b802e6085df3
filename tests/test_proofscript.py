import pytest

from omegatruth.kernel import GAMMA, SIGMA, check
from omegatruth.proofscript import (
    Script, ScriptError, expand, parse_script, serialize_script,
)
from omegatruth.syntax import Eq, Imp, Tr, ZERO, numeral

TINY = """
; reflexivity, weakened through a tautology
(theory sigma)
(prove (mp (axiom EQ1 "0 = 0")
           (taut "0 = 0 -> 0 = 0")))
"""


def test_parse_tiny_script():
    script = parse_script(TINY)
    assert script.theory == "sigma"
    cert = check(script.proof, SIGMA)
    assert cert.formula == Eq(ZERO, ZERO)


def test_macro_forms_expand():
    script = parse_script('(theory sigma) (prove (a2 "0 = 0"))')
    cert = check(script.proof, SIGMA)
    assert cert.omega_count == 0


def test_eval_macro():
    from omegatruth.syntax import FnApp

    script = parse_script('(theory gamma) (prove (eval "iter(#0, #262341)"))')
    cert = check(script.proof, GAMMA)
    assert cert.formula == Eq(FnApp("iter", [numeral(0), numeral(262341)]), numeral(262341))


def test_diag_macro():
    script = parse_script('(theory gamma) (prove (diag "~forall y. T(iter(y, v))" v))')
    cert = check(script.proof, GAMMA)
    assert cert.omega_count == 0


def test_omega_form_with_identity_step():
    text = """
    (theory gamma)
    (prove (omega (family y "x = x")
                  (base (axiom EQ1 "x = x"))
                  (step)))
    """
    script = parse_script(text)
    cert = check(script.proof, GAMMA)
    assert cert.omega_count == 1
    assert cert.samples_checked == 8


def test_mp_claim_mismatch_rejected():
    with pytest.raises(ScriptError):
        parse_script('(theory gamma) (prove (mp (axiom EQ1 "0 = 0") (axiom EQ1 "0 = 0")))')


def test_unknown_forms_rejected():
    with pytest.raises(ScriptError):
        parse_script("(prove (frobnicate))")
    with pytest.raises(ScriptError):
        parse_script('(theory delta) (prove (axiom EQ1 "0 = 0"))')
    with pytest.raises(ScriptError):
        parse_script('(prove (axiom NOSUCH "0 = 0"))')
    with pytest.raises(ScriptError):
        parse_script("(theory gamma)")


def test_unbalanced_parens_rejected():
    with pytest.raises(ScriptError):
        parse_script("(prove (axiom EQ1 ")
    with pytest.raises(ScriptError):
        parse_script("(prove))")


def test_malformed_forms_rejected():
    bad = [
        '(prove (axiom EQ1))',
        '(prove (axiom (EQ1) "0 = 0"))',
        '(prove (mp (axiom EQ1 "0 = 0")))',
        '(prove (gen q (axiom EQ1 "0 = 0")))',
        '(prove (omega (family y "0 = 0") (base (axiom EQ1 "0 = 0"))))',
        '(prove (omega (family y "0 = 0") (base (axiom EQ1 "0 = 0")) (step (lift q))))',
        '(prove (omega (family y "0 = 0") (base (axiom EQ1 "0 = 0")) (step (rewrite -1))))',
        '(samples nope) (prove (axiom EQ1 "0 = 0"))',
        '(prove (taut "0 = 0" "0 = 0"))',
    ]
    for text in bad:
        with pytest.raises(ScriptError):
            parse_script(text)


def test_round_trip_mcgee(mcgee):
    for side in (mcgee.positive, mcgee.negative):
        text = serialize_script(side.proof, "gamma")
        script = parse_script(text)
        assert script.theory == "gamma"
        assert script.proof is side.proof
        assert check(script.proof, GAMMA).certificate() == side.certificate()


def test_round_trip_loeb(mcgee_loeb):
    text = serialize_script(mcgee_loeb.positive.proof, "gamma", samples=8)
    script = parse_script(text)
    assert script.samples == 8
    assert script.proof is mcgee_loeb.positive.proof
    assert check(script.proof, GAMMA).certificate() == mcgee_loeb.positive.certificate()


def test_round_trip_m_conditions():
    from omegatruth.theorems import m2, m3
    from omegatruth.syntax import Succ

    for cert in (m2(Eq(ZERO, Succ(ZERO)), Eq(ZERO, ZERO), SIGMA), m3(Eq(ZERO, ZERO), SIGMA)):
        text = serialize_script(cert.proof, "sigma")
        script = parse_script(text)
        assert script.proof is cert.proof
        assert check(script.proof, SIGMA).certificate() == cert.certificate()


def test_strings_with_escapes_round_trip():
    # quoted formulas never need escapes, but the reader must cope
    from omegatruth.proofscript import _read_forms

    forms = _read_forms('(a "b \\" c" d)')
    assert forms == [["a", 'b " c', "d"]]


def test_nested_tintro_adds_one_numeral_per_level():
    # each level quotes the level below; its name is one numeral node
    from omegatruth.syntax import _INTERN

    for depth in (60, 400):
        body = '(axiom EQ1 "0 = 0")'
        for _ in range(depth):
            body = f"(tintro {body})"
        before = sum(type(k) is int for k in _INTERN)
        cert = check(parse_script(f"(theory gamma)\n(prove {body})\n").proof, GAMMA)
        assert cert.proof_size == depth + 1
        assert sum(type(k) is int for k in _INTERN) - before <= depth + 1
