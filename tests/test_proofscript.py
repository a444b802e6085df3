import pytest
from hypothesis import example, given, settings, strategies as st

from omegatruth import tactics as T
from omegatruth.kernel import GAMMA, SIGMA, Axiom, Gen, SchemaId, check
from omegatruth.proofscript import (
    _MAX_INDENT, ScriptError, _Q, _quote, _read_forms, parse_script,
    serialize_script,
)
from omegatruth.syntax import Add, Eq, Imp, ZERO, _QUOTE_LIMIT, numeral, parse_formula

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


def test_omega_part_heads_are_read_in_any_case():
    script = parse_script('(theory gamma) (prove (omega (FAMILY y "x = x") (Base (axiom EQ1 "x = x")) (STEP)))')
    assert check(script.proof, GAMMA).omega_count == 1


@pytest.mark.parametrize("parts, message", [
    ('(junk) (family y "0 = 0") (family y "0 = 0")', "unknown omega part 'junk'"),
    ('(family y "0 = 0") (Family y "0 = 0") (junk)', "omega holds more than one (family ...) part"),
    ('(step) (step) ("family" y "0 = 0")', "omega holds more than one (step ...) part"),
], ids=["unknown-then-second-family", "second-family-then-unknown", "second-step-then-quoted"])
def test_omega_part_errors_come_in_script_order(parts, message):
    with pytest.raises(ScriptError) as err:
        parse_script(f"(prove (omega {parts}))")
    assert str(err.value) == message


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


@pytest.mark.parametrize("text, message", [
    ('(theory gamma) (theory sigma) (prove (axiom EQ1 "0 = 0"))',
     "script holds more than one (theory ...) form"),
    ('(samples 3) (theory gamma) (SAMPLES 4) (prove (axiom EQ1 "0 = 0"))',
     "script holds more than one (samples ...) form"),
    ('(prove (axiom EQ1 "0 = 0")) (prove (axiom EQ1 "0 = 0"))',
     "script holds more than one (prove ...) form"),
    ("(theory gamma) (prove)", "prove takes 1 argument(s), got 0"),
    ('(theory (gamma)) (prove (axiom EQ1 "0 = 0"))', "theory must be gamma or sigma"),
])
def test_each_header_form_at_most_once(text, message):
    with pytest.raises(ScriptError) as err:
        parse_script(text)
    assert str(err.value) == message


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


def _gen_chain(depth: int):
    proof = Axiom(SchemaId.EQ1, Eq(ZERO, ZERO))
    for _ in range(depth):
        proof = Gen(0, proof)
    return proof


def test_deep_proof_text_is_linear_in_depth():
    # past the deepest indent, each (gen x ...) takes two lines at that
    # column and its parentheses
    proof = _gen_chain(40_000)
    text = serialize_script(proof, "gamma")
    assert len(text) <= (2 * (_MAX_INDENT + 2) + 5) * 40_001
    assert parse_script(text).proof is proof


def test_deep_gen_chain_bytes_per_level():
    # a level past the deepest indent is "(gen", then "x" and the inner form
    # on lines of their own at that column, and its ")"; forms shorter than
    # the 40 columns left there, like the innermost two levels, take one line
    short, long = (serialize_script(_gen_chain(n), "gamma") for n in (1000, 2000))
    assert (len(long) - len(short)) / 1000 == 2 * _MAX_INDENT + 8 == 128
    assert "\n" + " " * _MAX_INDENT + '(gen x (gen x (axiom EQ1 "0 = 0")))' in short


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


_TOKENS = st.one_of(st.text(max_size=40), st.text(max_size=40).map(_Q))


@settings(max_examples=150, deadline=None)
@given(st.recursive(_TOKENS, lambda inner: st.lists(inner, max_size=6), max_leaves=40))
@example([""] * 30)  # a repr of exactly _QUOTE_LIMIT characters
@example([""] * 31)
@example(["x"] * 100_000)
def test_quote_is_repr_cut_at_the_limit(x):
    r = repr(x)
    assert _quote(x) == (r if len(r) <= _QUOTE_LIMIT else r[:_QUOTE_LIMIT] + "...")
