import random

import pytest
from hypothesis import given, settings, strategies as st

from omegatruth.coding import (
    DecodeError, EvalError, ITER_STEP_AXIOM, ITER_ZERO_AXIOM, K0, decode,
    encode, name_of, sub_fn,
)
from omegatruth.proofscript import parse_formula, parse_term
from omegatruth.syntax import (
    Eq, FnApp, Forall, Not, Succ, Tr, Var, ZERO, numeral, pretty_print,
    substitute,
)
from omegatruth.tactics import diagonal_lemma, eval_closed, omega_truth

from helpers import (
    oracle_iter, oracle_sub, oracle_value, random_evaluable_term, random_expr,
    random_formula,
)


def test_encode_decode_round_trip_simple():
    e = Eq(ZERO, ZERO)
    assert decode(encode(e)) == e


# one expression per node kind, with its code as the coder first produced
# it: a tag table wired wrong in a consistent way still round-trips, so
# only fixed values pin it
@pytest.mark.parametrize("parse, text, code", [
    (parse_term, "x", 33),
    (parse_term, "#6", 751),
    (parse_term, "S(x)", 577),
    (parse_term, "(x + 0)", 19503),
    (parse_term, "(x * #2)", 164213),
    (parse_term, "iter(y, #3)", 2754796),
    (parse_term, "sub(x, #5, x)", 11558337),
    (parse_formula, "x = 0", 24623),
    (parse_formula, "T(z)", 6405),
    (parse_formula, "~0 = 0", 434671),
    (parse_formula, "0 = 0 -> T(0)", 230940463),
    (parse_formula, "forall y. y = y", 474481668),
])
def test_golden_codes(parse, text, code):
    e = parse(text)
    assert encode(e) == code
    assert decode(code) is e


def test_encode_distinguishes_expressions():
    assert encode(Eq(ZERO, ZERO)) != encode(Tr(ZERO))


def test_round_trip_and_injectivity_bulk():
    rng = random.Random(11)
    seen = {}
    for _ in range(2000):
        e = random_expr(rng, 4)
        c = encode(e)
        assert decode(c) == e
        if c in seen:
            assert seen[c] == e
        seen[c] = e


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 6))
def test_round_trip_property(seed, depth):
    e = random_expr(random.Random(seed), depth)
    assert decode(encode(e)) == e


def test_code_length_tracks_size():
    # nesting a name inside a formula grows the code by a bounded factor
    phi = Eq(ZERO, ZERO)
    c1 = encode(phi).bit_length()
    c2 = encode(Tr(name_of(phi))).bit_length()
    c3 = encode(Tr(name_of(Tr(name_of(phi))))).bit_length()
    assert c2 < 3 * c1 + 64
    assert c3 < 3 * c2 + 64


def test_decode_rejects_non_image():
    for bad in (0, 1, 2, 3, 9, 0b10000):
        with pytest.raises(DecodeError):
            decode(bad)


def test_decode_rejects_noncanonical_numeral_coding():
    # tag 1 (structural Zero) is never emitted by encode
    with pytest.raises(DecodeError):
        decode(0b10001)


def test_decode_finds_a_natural_that_runs_out_truncated():
    # a variable's index: z zeros, then the z + 1 bits of the payload's
    # length n from a 1, then n - 1 payload bits; where the zeros run to the
    # end, the read of the length runs out too
    var = "1" + format(0, "04b")  # the sentinel and the tag of a variable
    assert decode(int(var + "0101", 2)) is Var(2)
    for bits in ("", "000", "01", "011", "0010"):
        with pytest.raises(DecodeError, match="^truncated code$"):
            decode(int(var + bits, 2))


def _node_code(tag: int, kid) -> int:
    """The code of a one-child node with the 4-bit ``tag`` over ``kid``."""
    return int("1" + format(tag, "04b") + bin(encode(kid))[3:], 2)


def test_decode_rejects_children_of_the_wrong_sort():
    with pytest.raises(DecodeError, match="^formula code in a term position$"):
        decode(_node_code(2, Eq(ZERO, ZERO)))  # S over a formula
    with pytest.raises(DecodeError, match="^term code in a formula position$"):
        decode(_node_code(10, Var(0)))  # ~ over a term
    assert decode(_node_code(2, Var(0))) is Succ(Var(0))
    assert decode(_node_code(10, Eq(ZERO, ZERO))) is Not(Eq(ZERO, ZERO))


def test_numeral_value_oracle_sweep():
    for n in range(1025):
        assert oracle_value(numeral(n)) == n


def test_name_of_composes():
    rng = random.Random(13)
    for _ in range(100):
        phi = random_formula(rng, 3)
        assert decode(name_of(phi).nv) == phi


def test_sub_fn_direct_example():
    phi = Tr(Var(5))
    assert sub_fn(encode(phi), 5, 3) == encode(Tr(numeral(3)))


def test_sub_fn_variable_absent():
    c = encode(Eq(ZERO, ZERO))
    assert sub_fn(c, 7, 7) == c


def test_sub_fn_agrees_with_substitute_then_encode():
    rng = random.Random(17)
    for _ in range(500):
        phi = random_formula(rng, 3)
        v = rng.randrange(6)
        n = rng.randrange(1000)
        assert sub_fn(encode(phi), v, n) == oracle_sub(encode(phi), v, n)


def test_sub_fn_rejects_non_formula_codes():
    with pytest.raises(EvalError):
        sub_fn(encode(numeral(5)), 0, 0)


def _iter(n: int, c: int) -> int:
    """The value of iter(#n, #c), read off the proof that eval_closed
    builds from the two iteration axioms; the tests below named after
    iter_fn check this iteration function."""
    return eval_closed(FnApp("iter", [numeral(n), numeral(c)])).formula.right.nv


def test_iter_fn_base_case_is_identity():
    rng = random.Random(19)
    for _ in range(50):
        c = rng.randrange(1, 10**9)
        assert _iter(0, c) == c


def test_iter_fn_step_shape():
    phi = Eq(ZERO, ZERO)
    c = encode(phi)
    assert decode(_iter(1, c)) == Tr(FnApp("iter", [numeral(0), name_of(phi)]))


def test_iter_fn_agrees_with_direct_constructor():
    rng = random.Random(23)
    for _ in range(100):
        phi = random_formula(rng, 2)
        c = encode(phi)
        n = rng.randrange(10)
        assert _iter(n, c) == oracle_iter(n, c)


def test_iter_fn_root_is_truth_predicate():
    c = encode(Tr(ZERO))
    for n in range(1, 6):
        assert type(decode(_iter(n, c))) is Tr


def test_iterates_of_sentences_are_sentences():
    rng = random.Random(29)
    for _ in range(50):
        phi = random_formula(rng, 2)
        closed = phi
        for v in sorted(phi.fv):
            closed = substitute(closed, v, ZERO)
        c = encode(closed)
        for n in range(4):
            assert not decode(_iter(n, c)).fv


def test_omega_truth_shape_and_freshness():
    phi = Eq(ZERO, ZERO)
    w = omega_truth(name_of(phi))
    assert not w.fv
    assert w == Forall(1, Tr(FnApp("iter", [Var(1), name_of(phi)])))
    open_w = omega_truth(Var(0))
    assert open_w.fv == frozenset({0})
    # the bound variable dodges the argument's variables
    dodged = omega_truth(Var(1))
    assert dodged.var != 1 and dodged.fv == frozenset({1})


def test_omega_truth_round_trips_through_grammar():
    w = omega_truth(Var(0))
    assert pretty_print(w) == "forall y. T(iter(y, x))"
    assert parse_formula(pretty_print(w)) == w


def test_step_template_code():
    assert decode(K0) == Tr(FnApp("iter", [Var(1), Var(2)]))


def test_iter_axioms_are_true_sentences():
    assert not ITER_ZERO_AXIOM.fv
    assert not ITER_STEP_AXIOM.fv


def test_diagonal_pair_fixed_point_equation():
    # gamma is theta applied to its own name
    dr = diagonal_lemma(Not(omega_truth(Var(5))), 5)
    assert not dr.gamma.fv
    assert dr.gamma == substitute(dr.theta, 5, name_of(dr.theta))


def test_diagonal_pair_rejects_wrong_variables():
    with pytest.raises(ValueError, match=r"^diagonalization needs exactly one free variable 0, got \[0, 1\]$"):
        diagonal_lemma(Eq(Var(0), Var(1)), 0)
    with pytest.raises(ValueError, match=r"^diagonalization needs exactly one free variable 0, got \[\]$"):
        diagonal_lemma(Eq(ZERO, ZERO), 0)


def test_value_agrees_with_oracle_on_evaluable_terms():
    rng = random.Random(31)
    for _ in range(200):
        t = random_evaluable_term(rng, 3)
        assert eval_closed(t).formula.right.nv == oracle_value(t)


def test_value_rejects_open_terms():
    with pytest.raises(EvalError, match="^open term: variable 0 has no value$"):
        eval_closed(Succ(Var(0)))
