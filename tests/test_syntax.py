import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from omegatruth.syntax import (
    Add, Eq, FnApp, Forall, Formula, Imp, Mul, Not, ParseError, Succ, Term,
    Tr, Var, ZERO, mk_iff, numeral, parse_formula, parse_term, pretty_print,
    substitute, subterm_at, var_name,
)

from helpers import (
    random_expr, random_formula, random_term, reference_parse_formula,
    reference_parse_term,
)


def test_parse_literal_equation():
    assert parse_formula("0 = 0") == Eq(ZERO, ZERO)
    assert pretty_print(Eq(ZERO, ZERO)) == "0 = 0"


def test_parse_omega_truth_shape():
    f = parse_formula("forall y. T(iter(y, x))")
    assert f == Forall(1, Tr(FnApp("iter", [Var(1), Var(0)])))


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_formula("T(0,")
    assert "column" in str(err.value)


# every kind of parse error, near the start, in the middle and at the end
# of a multi-line input, through both entry points
PARSE_ERRORS = [
    (parse_formula, '$ = 0 ->\n  0 = 0\n  -> 0 = 0',
     "unexpected character '$' (line 1, column 1)"),
    (parse_formula, '0 = 0 ->\n  0 $ 0\n  -> 0 = 0',
     "unexpected character '$' (line 2, column 5)"),
    (parse_formula, '0 = 0 ->\n  0 = 0\n  -> 0 = 0 $',
     "unexpected character '$' (line 3, column 12)"),
    (parse_term, '$(S(0)\n  + #1)',
     "unexpected character '$' (line 1, column 1)"),
    (parse_term, '(S(0)\n  $ #1)',
     "unexpected character '$' (line 2, column 3)"),
    (parse_term, '(S(0)\n  + #1) $',
     "unexpected character '$' (line 2, column 9)"),
    (parse_formula, 'T x ->\n  0 = 0\n  -> 0 = 0',
     "expected '(', found 'x' (line 1, column 3)"),
    (parse_formula, '0 = 0 ->\n  T(0 = 0\n  -> 0 = 0',
     "expected ')', found '=' (line 2, column 7)"),
    (parse_formula, '0 = 0 ->\n  0 = 0\n  -> T(0',
     "expected ')', found 'end of input' (line 3, column 9)"),
    (parse_term, 'S 0\n  + #1)',
     "expected '(', found '0' (line 1, column 3)"),
    (parse_term, '(S(0\n  + #1)',
     "expected ')', found '+' (line 2, column 3)"),
    (parse_term, '(S(0)\n  + #1',
     "expected ')', found 'end of input' (line 2, column 7)"),
    (parse_formula, 'T((x y)) ->\n  0 = 0\n  -> 0 = 0',
     "expected '+' or '*', found 'y' (line 1, column 6)"),
    (parse_formula, '0 = 0 ->\n  T((x y))\n  -> 0 = 0',
     "expected '+' or '*', found 'y' (line 2, column 8)"),
    (parse_formula, '0 = 0 ->\n  0 = 0\n  -> T((x',
     "expected '+' or '*', found '' (line 3, column 10)"),
    (parse_term, '(x y\n  + #1)',
     "expected '+' or '*', found 'y' (line 1, column 4)"),
    (parse_term, '(S(0)\n  + (x y))',
     "expected '+' or '*', found 'y' (line 2, column 8)"),
    (parse_term, '(S(0)\n  + (x',
     "expected '+' or '*', found '' (line 2, column 7)"),
    (parse_formula, 'foo = 0 ->\n  0 = 0\n  -> 0 = 0',
     "unknown identifier 'foo' (line 1, column 1)"),
    (parse_formula, '0 = 0 ->\n  T(foo)\n  -> 0 = 0',
     "unknown identifier 'foo' (line 2, column 5)"),
    (parse_formula, '0 = 0 ->\n  0 = 0\n  -> 0 = foo',
     "unknown identifier 'foo' (line 3, column 10)"),
    (parse_term, '(foo\n  + #1)',
     "unknown identifier 'foo' (line 1, column 2)"),
    (parse_term, '(S(0)\n  + iter(T, #1))',
     "unknown identifier 'T' (line 2, column 10)"),
    (parse_term, '(S(0)\n  + forall',
     "unknown identifier 'forall' (line 2, column 5)"),
    (parse_formula, 'forall 0. 0 = 0 ->\n  0 = 0\n  -> 0 = 0',
     "expected a variable after 'forall', found '0' (line 1, column 8)"),
    (parse_formula, '0 = 0 ->\n  (forall T. 0 = 0)\n  -> 0 = 0',
     "expected a variable after 'forall', found 'T' (line 2, column 11)"),
    (parse_formula, '0 = 0 ->\n  0 = 0\n  -> forall',
     "expected a variable after 'forall', found '' (line 3, column 12)"),
    (parse_term, 'forall x. x = x',
     "unknown identifier 'forall' (line 1, column 1)"),
    (parse_formula, '0 = 0 0 ->\n  0 = 0\n  -> 0 = 0',
     "trailing input after formula, found '0' (line 1, column 7)"),
    (parse_formula, '(0 = 0) ->\n  0 = 0)\n  -> 0 = 0',
     "trailing input after formula, found ')' (line 2, column 8)"),
    (parse_formula, '0 = 0 ->\n  0 = 0\n  -> 0 = 0 0',
     "trailing input after formula, found '0' (line 3, column 12)"),
    (parse_term, '0 (S(0)\n  + #1)',
     "trailing input after term, found '(' (line 1, column 3)"),
    (parse_term, '(S(0)\n  + #1))\n  + #1',
     "trailing input after term, found ')' (line 2, column 8)"),
    (parse_term, '(S(0)\n  + #1) #2',
     "trailing input after term, found '#2' (line 2, column 9)"),
    (parse_formula, ') = 0 ->\n  0 = 0\n  -> 0 = 0',
     "expected a term, found ')' (line 1, column 1)"),
    (parse_formula, '0 = 0 ->\n  0 = ,\n  -> 0 = 0',
     "expected a term, found ',' (line 2, column 7)"),
    (parse_formula, '0 = 0 ->\n  0 = 0\n  -> 0 =',
     "expected a term, found 'end of input' (line 3, column 9)"),
    (parse_term, ')(S(0)\n  + #1)',
     "expected a term, found ')' (line 1, column 1)"),
    (parse_term, '(S(0)\n  + ~)',
     "expected a term, found '~' (line 2, column 5)"),
    (parse_term, '(S(0)\n  +',
     "expected a term, found 'end of input' (line 2, column 4)"),
]


@pytest.mark.parametrize("parse, text, message", PARSE_ERRORS)
def test_parse_error_messages(parse, text, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == message


def test_parse_rejects_trailing_input():
    with pytest.raises(ParseError):
        parse_term("0 0")


def test_numeral_shapes():
    assert numeral(0) == ZERO
    assert numeral(1) == Succ(ZERO)
    assert numeral(3) == Succ(Mul(Succ(Succ(ZERO)), Succ(ZERO)))
    for n in (0, 1, 2, 5, 17, 256, 12345):
        assert numeral(n).nv == n


def test_nodes_are_interned():
    assert numeral(5) is Succ(numeral(4)) is parse_term("#5")
    assert Mul(Succ(Succ(ZERO)), numeral(3)) is numeral(6)
    assert parse_formula("forall y. T(iter(y, x))") is Forall(1, Tr(FnApp("iter", [Var(1), Var(0)])))


def test_numeral_is_one_node_until_read():
    from omegatruth.syntax import _INTERN

    n = (1 << 9_999) | 0x5EED  # a fresh 10,000-bit odd value
    assert n not in _INTERN
    before = len(_INTERN)
    t = numeral(n)
    assert len(_INTERN) == before + 1
    assert type(t) is Succ and t.nv == n and pretty_print(t) == f"#{n}"
    assert t.arg is numeral(n - 1)
    k = n >> 1
    assert type(numeral(2 * k)) is Mul
    assert numeral(2 * k).right is numeral(k)
    assert numeral(2 * k).left is Succ(Succ(ZERO))


def test_noncanonical_terms_print_structurally():
    two = Succ(Succ(ZERO))
    assert two.nv is None
    assert parse_term(pretty_print(two)) == two
    assert parse_term("#2") == numeral(2) != two


def test_round_trip_bulk():
    rng = random.Random(7)
    for _ in range(1000):
        e = random_expr(rng, rng.randrange(9))
        text = pretty_print(e)
        parse = parse_formula if isinstance(e, Formula) else parse_term
        assert parse(text) == e, text


def test_function_symbol_arity_enforced():
    with pytest.raises(ParseError):
        parse_term("iter(x)")
    with pytest.raises(ParseError):
        parse_term("sub(x, y)")
    with pytest.raises(ValueError):
        FnApp("iter", [ZERO])
    with pytest.raises(ValueError):
        FnApp("frob", [ZERO])


@st.composite
def formulas(draw, depth=4):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return random_formula(rng, draw(st.integers(0, depth)))


@settings(max_examples=200, deadline=None)
@given(formulas(depth=8))
def test_round_trip_property(phi):
    assert parse_formula(pretty_print(phi)) == phi


def test_substitute_free_occurrence():
    assert substitute(Tr(Var(5)), 5, numeral(3)) == Tr(numeral(3))


def test_substitute_bound_occurrence_unchanged():
    phi = Forall(5, Eq(Var(5), Var(5)))
    assert substitute(phi, 5, ZERO) is phi


def test_substitute_renames_on_capture():
    # w bound, v free; substituting w for v must rename the binder
    phi = Forall(3, Eq(Var(5), Var(3)))
    out = substitute(phi, 5, Var(3))
    assert type(out) is Forall and out.var != 3
    assert out.fv == frozenset({3})
    assert out.body == Eq(Var(3), Var(out.var))


@settings(max_examples=200, deadline=None)
@given(formulas(), st.integers(0, 5), st.integers(0, 50))
def test_substitute_free_var_law(phi, v, n):
    t = numeral(n)
    out = substitute(phi, v, t)
    want = (phi.fv - {v}) if v in phi.fv else phi.fv
    assert out.fv == want


@settings(max_examples=100, deadline=None)
@given(formulas(), st.integers(0, 5), st.integers(0, 50))
def test_substitute_idempotent_for_closed_terms(phi, v, n):
    once = substitute(phi, v, numeral(n))
    assert substitute(once, v, numeral(n)) == once


@settings(max_examples=100, deadline=None)
@given(formulas(), st.integers(0, 5))
def test_substitute_with_open_term_tracks_variables(phi, v):
    t = Add(Var(6), numeral(2))
    out = substitute(phi, v, t)
    if v in phi.fv:
        assert out.fv == (phi.fv - {v}) | {6}
    else:
        assert out is phi


def test_variable_names_round_trip():
    for idx in (0, 1, 5, 6, 17):
        assert parse_term(var_name(idx)) == Var(idx)


def test_iff_expansion_is_primitive():
    a, b = Eq(ZERO, ZERO), Tr(ZERO)
    f = mk_iff(a, b)
    assert f == Not(Imp(Imp(a, b), Not(Imp(b, a))))
    assert parse_formula(pretty_print(f)) == f


def test_subterm_navigation():
    f = Imp(Tr(numeral(4)), Eq(ZERO, Succ(ZERO)))
    assert subterm_at(f, (0, 0)) == numeral(4)
    assert subterm_at(f, (1, 1)) == Succ(ZERO)
    with pytest.raises(IndexError):
        subterm_at(f, (2,))


# token-level mutations of printed expressions, for the parser differential
_TOKENS = re.compile(r"#\d+|[A-Za-z_][A-Za-z0-9_]*|->|\S")
_VOCABULARY = ["(", ")", "=", "+", "*", ",", ".", "~", "->", "0", "#7", "x",
               "v12", "S", "T", "iter", "sub", "forall", "foo", "$", "#",
               "-", "1", "\u00e9"]


@st.composite
def parser_inputs(draw):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    toks = _TOKENS.findall(pretty_print(random_expr(rng, draw(st.integers(0, 6)))))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(toks)))
        op = draw(st.sampled_from(["delete", "duplicate", "swap", "replace", "insert"]))
        if op == "insert" or i == len(toks):
            toks.insert(i, draw(st.sampled_from(_VOCABULARY)))
        elif op == "delete":
            del toks[i]
        elif op == "duplicate":
            toks.insert(i, toks[i])
        elif op == "swap" and i + 1 < len(toks):
            toks[i], toks[i + 1] = toks[i + 1], toks[i]
        else:
            toks[i] = draw(st.sampled_from(_VOCABULARY))
    seps = draw(st.lists(st.sampled_from([" ", "", "\n  "]), min_size=len(toks), max_size=len(toks)))
    return "".join(sep + tok for sep, tok in zip(seps, toks))


def _outcome(parse, text):
    try:
        return parse(text)
    except ParseError as e:
        return (str(e), e.pos)


@settings(max_examples=500, deadline=None)
@given(parser_inputs())
def test_parser_agrees_with_the_reference_parser(text):
    for parse, reference in ((parse_formula, reference_parse_formula),
                             (parse_term, reference_parse_term)):
        got, want = _outcome(parse, text), _outcome(reference, text)
        if type(want) is tuple:
            assert got == want, text
        else:
            assert got is want, text
