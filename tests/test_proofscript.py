import pytest
from hypothesis import given, settings, strategies as st

from omegatruth import tactics as T
from omegatruth.kernel import GAMMA, SIGMA, check
from omegatruth.proofscript import (
    Script, ScriptError, _Q, _read_forms, expand, parse_script,
    serialize_script,
)
from omegatruth.syntax import Add, Eq, Imp, Tr, ZERO, numeral, parse_formula

from helpers import reference_read_forms

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


ZZ = Eq(ZERO, ZERO)
MACRO_BUILT = {
    "taut": (lambda: T.taut(Imp(ZZ, ZZ)), ["taut", "0 = 0 -> 0 = 0"]),
    "eval": (lambda: T.eval_closed(Add(numeral(2), numeral(3))), ["eval", "(#2 + #3)"]),
    "a1": (lambda: T.derive_A1(ZZ), ["a1", "0 = 0"]),
    "a2": (lambda: T.derive_A2(ZZ), ["a2", "0 = 0"]),
    "diag": (
        lambda: T.diagonal_lemma(parse_formula("~forall y. T(iter(y, v))"), 5).thm(),
        ["diag", "~(forall y. T(iter(y, v)))", "v"],
    ),
}


@pytest.mark.parametrize("kind", MACRO_BUILT)
def test_macro_built_node_serializes_as_its_macro_form(kind):
    build, form = MACRO_BUILT[kind]
    th = build()
    text = serialize_script(th.proof, "gamma")
    assert _read_forms(text)[-1] == ["prove", form]
    assert parse_script(text).proof is th.proof
    # also as a subproof of a larger proof
    outer = T.gen(T.tintro(th), 0)
    text = serialize_script(outer.proof, "gamma")
    assert _read_forms(text)[-1] == ["prove", ["gen", "x", ["tintro", form]]]
    assert parse_script(text).proof is outer.proof


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
    forms = _read_forms('(a "b \\" c" d)')
    assert forms == [["a", 'b " c', "d"]]


def _typed(forms):
    """Forms with every atom tagged as quoted or bare."""
    if isinstance(forms, list):
        return [_typed(f) for f in forms]
    return ("quoted" if isinstance(forms, _Q) else "bare", str(forms))


@pytest.mark.parametrize("text, atoms", [
    ('(a "x \\\\ y")', ["x \\ y"]),
    # an escaped backslash right before the closing quote ends the literal
    ('(a "x\\\\" "y")', ["x\\", "y"]),
    ('(a "" "\\\\\\"" "\\q")', ["", '\\"', "q"]),
    ('(a "line\none ; no comment" "y")', ["line\none ; no comment", "y"]),
])
def test_string_literals(text, atoms):
    assert _typed(_read_forms(text)) == [[("bare", "a"), *(("quoted", q) for q in atoms)]]


@pytest.mark.parametrize("text", [
    '(a "x',           # never closed
    '(a "x\\',         # a backslash at the end of input
    '(a "x\\"',        # the only quote after the opening one is escaped
    '(a "x\\\\\\")',    # likewise, after an escaped backslash
    '(a "x" "',
])
def test_unterminated_string_literal(text):
    with pytest.raises(ScriptError) as err:
        _read_forms(text)
    assert str(err.value) == "unterminated string literal"


def _read_outcome(read, text):
    try:
        return _typed(read(text))
    except ScriptError as e:
        return str(e)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(['(', ')', '"', '\\', '\\"', '\\\\', ' ', '\n', ';',
                                 'a', 'x = 0', '\t'])).map("".join))
def test_reader_agrees_with_the_reference_pattern(text):
    assert _read_outcome(_read_forms, text) == _read_outcome(reference_read_forms, text)


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
