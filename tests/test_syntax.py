import random

import pytest
from hypothesis import given, settings, strategies as st

from omegatruth.syntax import (
    Add, Eq, FnApp, Forall, Formula, Imp, Mul, Not, ParseError, Succ, Term,
    Tr, Var, ZERO, mk_iff, numeral, parse_formula, parse_term, pretty_print,
    substitute, subterm_at, var_name,
)

from helpers import random_expr, random_formula, random_term


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
