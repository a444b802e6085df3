import ast
import functools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from omegatruth.cli import certificate
from omegatruth.coding import (
    ITER_STEP_AXIOM, ITER_ZERO_AXIOM, K0, encode, name_of, sub_fn,
)
from omegatruth.kernel import (
    ApplyTIntro, Axiom, ChainWith, CheckError, GAMMA, Gen, MP, Omega,
    RewriteEval, SIGMA, SchemaId, StepCombinator, THEORIES, TIntro,
    TheoryConfig, check, q_axiom, _m_comp_succ, _one_step_rewrite, _proof_children,
)
from omegatruth.syntax import (
    Add, Eq, FnApp, Forall, Imp, Mul, Not, Succ, Tr, Var, ZERO, _children, _cut,
    numeral, pretty_print, replace_at, substitute, subterm_at,
)
from omegatruth import tactics as T
from omegatruth.proofscript import parse_formula, parse_script
from omegatruth.tactics import Thm, ax, gen, inst, refl, tintro
from omegatruth.theorems import MissingSchema

from helpers import equals_all, oracle_value, random_expr, random_term, schema_of, term_positions


def _cons_instance(phi):
    return Imp(Tr(name_of(Not(phi))), Not(Tr(name_of(phi))))


def test_config_presets():
    assert GAMMA.preset_name() == "gamma"
    assert SIGMA.preset_name() == "sigma"
    # CONS is the one schema a configuration switches
    assert all(GAMMA.active(s) for s in SchemaId)
    assert [s for s in SchemaId if not SIGMA.active(s)] == [SchemaId.CONS]
    assert THEORIES == {"gamma": GAMMA, "sigma": SIGMA}
    assert all(config.preset_name() == name for name, config in THEORIES.items())


def test_config_is_a_value():
    assert GAMMA == TheoryConfig() and hash(GAMMA) == hash(TheoryConfig())
    assert SIGMA == TheoryConfig(has_cons=False) and SIGMA != GAMMA
    assert TheoryConfig(False, 3, 2) == TheoryConfig(
        has_cons=False, omega_samples=3, max_omega_count=2)
    assert TheoryConfig._fields == ("has_cons", "omega_samples", "max_omega_count")
    assert (GAMMA.omega_samples, GAMMA.max_omega_count) == (8, None)
    with pytest.raises(ValueError, match="^omega_samples must be at least 1$"):
        TheoryConfig(omega_samples=0)
    with pytest.raises(ValueError, match="^omega_samples must be at least 1$"):
        TheoryConfig(True, 0)
    with pytest.raises(ValueError, match="^max_omega_count must be at least 0$"):
        TheoryConfig(max_omega_count=-1)
    assert TheoryConfig(max_omega_count=0).max_omega_count == 0


def test_config_replace_is_checked():
    assert GAMMA._replace(has_cons=False) == SIGMA
    with pytest.raises(ValueError, match="^omega_samples must be at least 1$"):
        GAMMA._replace(omega_samples=0)


def test_records_are_immutable():
    cert = check(refl(ZERO).proof, GAMMA)
    with pytest.raises(AttributeError):
        GAMMA.omega_samples = 1
    with pytest.raises(AttributeError):
        cert.proof_size = 0
    assert GAMMA.omega_samples == 8 and cert.proof_size == 1


def test_cons_instance_matches_under_gamma_only():
    inst = _cons_instance(Eq(ZERO, ZERO))
    assert schema_of(inst, GAMMA) is SchemaId.CONS
    assert schema_of(inst, SIGMA) is None
    with pytest.raises(CheckError) as err:
        check(Axiom(SchemaId.CONS, inst), SIGMA)
    assert "CONS" in str(err.value) and "inactive" in str(err.value)


def test_rejected_axiom_names_the_nearest_schemas():
    # a PROP1 instance claimed as EQ1: the message names what it does match
    # and why a near schema fails
    phi = parse_formula("0 = 0 -> T(0) -> 0 = 0")
    with pytest.raises(CheckError) as err:
        check(Axiom(SchemaId.EQ1, phi), GAMMA)
    assert err.value.reason == (
        "EQ1: instance does not match the schema (nearest: PROP1 matches; "
        "EQ3: consequent is not a one-position rewrite of the antecedent): "
        "0 = 0 -> T(0) -> 0 = 0"
    )
    # a matching schema the theory switches off is named as inactive
    with pytest.raises(CheckError) as err:
        check(Axiom(SchemaId.PROP1, _cons_instance(Eq(ZERO, ZERO))), SIGMA)
    assert "(nearest: CONS matches but is inactive under this theory" in err.value.reason
    # claiming the inactive schema itself gives no hint
    with pytest.raises(CheckError) as err:
        check(Axiom(SchemaId.CONS, _cons_instance(Eq(ZERO, ZERO))), SIGMA)
    assert err.value.reason == "schema CONS is inactive under this theory"


def test_rejection_past_the_int_digit_limit_is_a_check_error(capsys, tmp_path):
    # the message prints a 6,021-digit numeral, past the int-to-str limit
    # CPython sets by default and only cli.main lifts
    import sys

    from omegatruth.cli import main

    big = numeral((1 << 20_000) + 3)
    phi = Imp(Eq(ZERO, ZERO), Imp(Tr(big), Tr(big)))
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(CheckError) as err:
            check(Axiom(SchemaId.PROP1, phi), SIGMA)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    # and quotes the formula cut to a bounded length
    assert err.value.reason.endswith(f"): {_cut(pretty_print(phi))}") and len(err.value.reason) < 300
    # the CLI reports the same message
    script = tmp_path / "big.proof"
    script.write_text(f'(theory sigma)\n(prove (axiom PROP1 "{pretty_print(phi)}"))\n')
    assert main(["check", str(script)]) == 1
    assert capsys.readouterr().err == f"check failure: {err.value}\n"


def test_schema_ids_hash_by_identity():
    assert SchemaId.__hash__ is object.__hash__


def test_cons_rejects_unrelated_names():
    bad = Imp(Tr(name_of(Eq(ZERO, ZERO))), Not(Tr(name_of(Eq(ZERO, ZERO)))))
    assert schema_of(bad, GAMMA) is None


def test_timp_shape():
    a, b = Eq(ZERO, ZERO), Tr(ZERO)
    inst = Imp(Tr(name_of(Imp(a, b))), Imp(Tr(name_of(a)), Tr(name_of(b))))
    assert schema_of(inst, SIGMA) is SchemaId.TIMP
    # open named formulas are rejected
    openb = Eq(Var(0), ZERO)
    bad = Imp(Tr(name_of(Imp(a, openb))), Imp(Tr(name_of(a)), Tr(name_of(openb))))
    assert schema_of(bad, SIGMA) is None


def test_uinf_shape():
    chi = Tr(FnApp("iter", [Var(1), name_of(Eq(ZERO, ZERO))]))
    dot = FnApp("sub", [name_of(chi), numeral(1), Var(0)])
    inst = Imp(Forall(0, Tr(dot)), Tr(name_of(Forall(1, chi))))
    assert schema_of(inst, SIGMA) is SchemaId.UINF
    wrong = Imp(Forall(0, Tr(dot)), Tr(name_of(Forall(2, chi))))
    assert schema_of(wrong, SIGMA) is None


def test_comp_sub_value_verified():
    c = encode(Tr(Var(5)))
    good = Eq(FnApp("sub", [numeral(c), numeral(5), numeral(3)]),
              numeral(sub_fn(c, 5, 3)))
    assert schema_of(good, SIGMA) is SchemaId.COMP_SUB
    bad = Eq(FnApp("sub", [numeral(c), numeral(5), numeral(3)]),
             numeral(sub_fn(c, 5, 3) + 1))
    assert schema_of(bad, SIGMA) is None
    with pytest.raises(CheckError) as err:
        check(Axiom(SchemaId.COMP_SUB, bad), SIGMA)
    assert "COMP_SUB" in str(err.value)


def test_comp_succ_arithmetic_verified():
    assert schema_of(Eq(Succ(numeral(7)), numeral(8)), SIGMA) is SchemaId.COMP_SUCC
    assert schema_of(Eq(Succ(numeral(7)), numeral(9)), SIGMA) is None
    assert schema_of(Eq(Add(numeral(3), numeral(4)), numeral(7)), SIGMA) is SchemaId.COMP_SUCC
    assert schema_of(Eq(Mul(numeral(3), numeral(4)), numeral(12)), SIGMA) is SchemaId.COMP_SUCC
    assert schema_of(Eq(Mul(numeral(3), numeral(4)), numeral(11)), SIGMA) is None


_NATS = st.one_of(st.integers(0, 20), st.integers(0, 2**80))


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(
        st.builds(Succ, _NATS.map(numeral)),
        st.builds(Add, _NATS.map(numeral), _NATS.map(numeral)),
        st.builds(Mul, _NATS.map(numeral), _NATS.map(numeral)),
        # lefts that are numerals themselves: S(#2k) is #(2k + 1)
        _NATS.map(lambda k: Succ(numeral(2 * k))),
    ),
    st.booleans(), st.integers(-2, 2), _NATS,
)
def test_comp_succ_agrees_with_the_oracle(left, near, delta, other):
    # COMP_SUCC computes its one operation on the numerals' values itself;
    # its verdict is the independent evaluator's, on a right side near the
    # value or anywhere
    want = oracle_value(left)
    right = max(want + delta, 0) if near else other
    ok, detail = _m_comp_succ(Eq(left, numeral(right)))
    assert ok is (right == want)
    assert detail == (None if ok else "right side disagrees with numeral arithmetic")


def test_iteration_axioms_match():
    assert schema_of(ITER_ZERO_AXIOM, SIGMA) is SchemaId.COMP_ITER0
    assert schema_of(ITER_STEP_AXIOM, SIGMA) is SchemaId.COMP_ITER_STEP


def test_iteration_axioms_with_other_bound_variables_are_derived():
    # the kernel accepts each iteration axiom only as its one sentence; a
    # variant with other bound variables follows from it by inst and gen
    zero = gen(inst(ax(SchemaId.COMP_ITER0, ITER_ZERO_AXIOM), Var(1)), 1)
    assert pretty_print(zero.formula) == "forall y. iter(0, y) = y"
    step = gen(gen(inst(inst(ax(SchemaId.COMP_ITER_STEP, ITER_STEP_AXIOM), Var(4)), Var(3)), 3), 4)
    assert step.formula is parse_formula(f"forall u. forall w. iter(S(u), w) = sub(sub(#{K0}, #2, w), #1, u)")
    assert [check(th.proof, SIGMA).proof_size for th in (zero, step)] == [4, 7]
    assert [check(th.proof, SIGMA).formula for th in (zero, step)] == [zero.formula, step.formula]


def test_quant1_instantiation():
    body = Eq(Var(0), Var(0))
    inst = Imp(Forall(0, body), Eq(numeral(3), numeral(3)))
    assert schema_of(inst, SIGMA) is SchemaId.QUANT1
    vacuous = Imp(Forall(0, Eq(ZERO, ZERO)), Eq(ZERO, ZERO))
    assert schema_of(vacuous, SIGMA) is SchemaId.QUANT1
    mixed = Imp(Forall(0, body), Eq(numeral(3), numeral(4)))
    assert schema_of(mixed, SIGMA) is None


def test_quant1_instantiates_into_numerals():
    # S(x) at x := #(n-1) is the numeral #n itself, so matching reads its spine
    body = Not(Eq(Succ(Var(0)), ZERO))
    for n in (1, 5, (1 << 200) + 1):
        inst = Imp(Forall(0, body), Not(Eq(numeral(n), ZERO)))
        assert schema_of(inst, SIGMA) is SchemaId.QUANT1
    assert schema_of(Imp(Forall(0, body), Not(Eq(numeral(4), ZERO))), SIGMA) is None


def _rewrites_by_definition(src, dst, s, t):
    """Some term position of src holds s, and putting t there gives dst."""
    return any(
        node is s and replace_at(src, path, t) is dst
        for path, node in term_positions(src)
    )


@settings(max_examples=400, deadline=None)
@given(st.randoms(use_true_random=False))
def test_one_step_rewrite_agrees_with_its_definition(rng):
    src = random_expr(rng, 3)
    positions = list(term_positions(src))  # numeral spines included
    path, s = rng.choice(positions)
    kind = rng.randrange(5)
    if kind == 0:  # src is dst
        t, dst = s, src
        if rng.random() < 0.5:
            s = t = rng.choice(positions)[1] if rng.random() < 0.5 else random_term(rng, 1)
    elif kind == 1:  # a rewrite next to a numeral's value
        t = numeral(s.nv + 1) if s.nv is not None else random_term(rng, 1)
        dst = replace_at(src, path, t)
    elif kind == 2:  # two positions rewritten
        t = random_term(rng, 1)
        once = replace_at(src, path, t)
        path2, _ = rng.choice(list(term_positions(once)))
        dst = replace_at(once, path2, random_term(rng, 1))
    else:
        t = random_term(rng, 1)
        dst = replace_at(src, path, t)
        if kind == 3:
            s = random_term(rng, 1)
    assert _one_step_rewrite(src, dst, s, t) is _rewrites_by_definition(src, dst, s, t)


def test_one_step_rewrite_edge_cases():
    x, two = Var(0), Succ(Succ(ZERO))
    cases = [
        # the binder or the function symbol differs, the one changed child fits
        (Forall(0, Eq(x, numeral(1))), Forall(1, Eq(x, numeral(2))), numeral(1), numeral(2), False),
        (FnApp("iter", [x, numeral(1)]), FnApp("sub", [x, numeral(2), ZERO]), numeral(1), numeral(2), False),
        # src is dst: S(S(0)) is the left factor of every even numeral
        (Tr(numeral(1)), Tr(numeral(1)), two, two, False),
        (Tr(numeral(2)), Tr(numeral(2)), two, two, True),
        (Tr(numeral(3)), Tr(numeral(3)), numeral(2), numeral(2), True),
        (Tr(numeral(11)), Tr(numeral(11)), numeral(6), numeral(6), False),
    ]
    for src, dst, s, t, want in cases:
        assert _rewrites_by_definition(src, dst, s, t) is want
        assert _one_step_rewrite(src, dst, s, t) is want


def test_identity_rewrite_reads_no_numeral_spine():
    from omegatruth.syntax import _INTERN

    big = numeral((1 << 20_000) + 3)
    phi = Imp(Eq(ZERO, ZERO), Imp(Tr(big), Tr(big)))
    before = sum(type(k) is int for k in _INTERN)
    assert schema_of(phi, SIGMA) is SchemaId.EQ3
    assert sum(type(k) is int for k in _INTERN) == before


def test_quant1_rejects_capture():
    body = Forall(1, Eq(Var(0), Var(1)))
    inst = Imp(Forall(0, body), Forall(1, Eq(Var(1), Var(1))))
    assert schema_of(inst, SIGMA) is None


_K0 = f"#{K0}"
_NOT_AN_INSTANCE = "consequent is not a substitution instance of the quantified body"


@pytest.mark.parametrize("schema, text, reason", [
    # QUANT1: capture, a renamed binder, a formula at the instance position,
    # a path that does not exist, and occurrences with different terms
    ("QUANT1", "(forall x. forall y. x = y) -> forall y. y = y", _NOT_AN_INSTANCE),
    ("QUANT1", "(forall x. forall y. x = y) -> forall z. y = z", _NOT_AN_INSTANCE),
    ("QUANT1", "(forall x. (x = x -> forall y. x = y)) -> (y = y -> forall z. y = z)", _NOT_AN_INSTANCE),
    ("QUANT1", "(forall x. x = 0) -> ~(0 = 0)", _NOT_AN_INSTANCE),
    ("QUANT1", "(forall x. S(x) = 0) -> 0 = 0", _NOT_AN_INSTANCE),
    ("QUANT1", "(forall x. S(S(x)) = 0) -> #6 = 0", _NOT_AN_INSTANCE),
    ("QUANT1", "(forall x. x = x) -> 0 = S(0)", _NOT_AN_INSTANCE),
    ("QUANT1", "(forall x. 0 = 0) -> S(0) = 0", _NOT_AN_INSTANCE),
    ("QUANT1", "(forall x. forall y. x = y) -> forall y. S(0) = y", None),
    ("QUANT1", "(forall x. 0 = 0) -> 0 = 0", None),
    ("QUANT2", "(forall x. (0 = 0 -> x = x)) -> (0 = 0 -> forall x. x = x)", None),
    ("QUANT2", "(forall x. (x = 0 -> x = x)) -> (x = 0 -> forall x. x = x)",
     f"variable 0 occurs free in the antecedent (nearest: QUANT1: {_NOT_AN_INSTANCE})"),
    ("QUANT2", "(forall x. (0 = 0 -> x = x)) -> (0 = 0 -> forall y. x = x)",
     f"instance does not match the schema (nearest: QUANT1: {_NOT_AN_INSTANCE})"),
    # the iteration axioms are fixed sentences: a renamed binder, a template
    # slot that is not a numeral, coinciding slots and another template
    # are all not the one sentence
    ("COMP_ITER0", "forall x. iter(0, x) = x", None),
    ("COMP_ITER0", "forall y. iter(0, y) = y", "instance does not match the schema"),
    ("COMP_ITER0", "forall y. iter(0, y) = x", "instance does not match the schema"),
    ("COMP_ITER_STEP", f"forall x. forall z. iter(S(x), z) = sub(sub({_K0}, #2, z), #1, x)", None),
    ("COMP_ITER_STEP", f"forall u. forall w. iter(S(u), w) = sub(sub({_K0}, #2, w), #1, u)",
     "instance does not match the schema"),
    ("COMP_ITER_STEP", f"forall x. forall x. iter(S(x), x) = sub(sub({_K0}, #2, x), #1, x)",
     "instance does not match the schema"),
    ("COMP_ITER_STEP", f"forall x. forall z. iter(S(x), z) = sub(sub({_K0}, y, z), #1, x)",
     "instance does not match the schema"),
    ("COMP_ITER_STEP", f"forall x. forall z. iter(S(x), z) = sub(sub({_K0}, #1, z), #1, x)",
     "instance does not match the schema"),
    ("COMP_ITER_STEP", "forall x. forall z. iter(S(x), z) = sub(sub(#7, #2, z), #1, x)",
     "instance does not match the schema"),
    ("COMP_SUB", "sub(#5, y, #1) = #3", "arguments are not canonical numerals"),
    ("COMP_SUCC", "(#3 * #4) = #13", "right side disagrees with numeral arithmetic"),
    ("COMP_SUCC", "#9 = #9", None),
    ("COMP_SUCC", "S(x) = #9", "instance does not match the schema"),
    ("UINF", "(forall x. T(sub(#5, #5, y))) -> T(#5)",
     f"inner substitution is not applied at the quantified variable (nearest: QUANT1: {_NOT_AN_INSTANCE})"),
    ("UINF", "(forall x. T(sub(#47, #5, x))) -> T(#29135)",  # #47 names the term 0
     f"first argument is not the name of a formula (nearest: QUANT1: {_NOT_AN_INSTANCE})"),
    ("UINF", "(forall x. T(sub(#47, y, x))) -> T(#29135)",
     f"name or variable-index argument is not a canonical numeral (nearest: QUANT1: {_NOT_AN_INSTANCE})"),
    ("UINF", "(forall x. T(iter(x, x))) -> T(0)",
     f"instance does not match the schema (nearest: QUANT1: {_NOT_AN_INSTANCE})"),
])
def test_matcher_verdicts_and_messages(schema, text, reason):
    phi = parse_formula(text)
    if reason is None:
        assert check(Axiom(SchemaId[schema], phi), SIGMA).formula is phi
        return
    with pytest.raises(CheckError) as err:
        check(Axiom(SchemaId[schema], phi), SIGMA)
    assert str(err.value) == f"at node <root> [axiom]: {schema}: {reason}: {pretty_print(phi)}"


_P, _Q, _R, _S = "0 = 0", "0 = #1", "#1 = 0", "#1 = #1"


# One near miss per conjunct of each propositional schema's shape, each
# falsifying that conjunct alone, then the instance itself.
@pytest.mark.parametrize("schema, text", [
    # PROP1: A -> (B -> A)
    ("PROP1", f"~({_P} -> {_Q} -> {_P})"),
    ("PROP1", f"~{_P} -> {_Q}"),
    ("PROP1", f"~{_P} -> {_Q} -> {_R}"),
    # PROP2: (A -> (B -> C)) -> ((A -> B) -> (A -> C))
    ("PROP2", f"~(({_P} -> {_Q} -> {_R}) -> ({_P} -> {_Q}) -> {_P} -> {_R})"),
    ("PROP2", f"{_P} -> ({_P} -> {_Q}) -> {_P} -> {_R}"),
    ("PROP2", f"({_P} -> {_Q}) -> ({_P} -> {_Q}) -> {_P} -> {_R}"),
    ("PROP2", f"({_P} -> {_Q} -> {_R}) -> {_R}"),
    ("PROP2", f"({_P} -> {_Q} -> {_R}) -> {_Q} -> {_P} -> {_R}"),
    ("PROP2", f"({_P} -> {_Q} -> {_R}) -> ({_P} -> {_Q}) -> {_R}"),
    ("PROP2", f"({_P} -> {_Q} -> {_R}) -> ({_S} -> {_Q}) -> {_P} -> {_R}"),
    ("PROP2", f"({_P} -> {_Q} -> {_R}) -> ({_P} -> {_S}) -> {_P} -> {_R}"),
    ("PROP2", f"({_P} -> {_Q} -> {_R}) -> ({_P} -> {_Q}) -> {_S} -> {_R}"),
    ("PROP2", f"({_P} -> {_Q} -> {_R}) -> ({_P} -> {_Q}) -> {_P} -> {_S}"),
    # PROP3: (~A -> ~B) -> (B -> A)
    ("PROP3", f"~((~{_P} -> ~{_Q}) -> {_Q} -> {_P})"),
    ("PROP3", f"~{_P} -> {_Q} -> {_P}"),
    ("PROP3", f"({_P} -> ~{_Q}) -> {_Q} -> {_P}"),
    ("PROP3", f"(~{_P} -> {_Q}) -> {_Q} -> {_P}"),
    ("PROP3", f"(~{_P} -> ~{_Q}) -> {_P}"),
    ("PROP3", f"(~{_P} -> ~{_Q}) -> {_S} -> {_P}"),
    ("PROP3", f"(~{_P} -> ~{_Q}) -> {_Q} -> {_S}"),
])
def test_propositional_near_misses(schema, text):
    phi = parse_formula(text)
    with pytest.raises(CheckError) as err:
        check(Axiom(SchemaId[schema], phi), SIGMA)
    assert str(err.value) == (
        f"at node <root> [axiom]: {schema}: instance does not match the schema: {pretty_print(phi)}")


@pytest.mark.parametrize("schema, text", [
    ("PROP1", f"{_P} -> {_Q} -> {_P}"),
    ("PROP2", f"({_P} -> {_Q} -> {_R}) -> ({_P} -> {_Q}) -> {_P} -> {_R}"),
    ("PROP3", f"(~{_P} -> ~{_Q}) -> {_Q} -> {_P}"),
])
def test_propositional_instances(schema, text):
    phi = parse_formula(text)
    assert check(Axiom(SchemaId[schema], phi), SIGMA).formula is phi


def test_q_axioms_are_fixed_sentences():
    for schema in (SchemaId.Q1, SchemaId.Q2, SchemaId.Q3, SchemaId.Q4,
                   SchemaId.Q5, SchemaId.Q6, SchemaId.Q7):
        assert schema_of(q_axiom(schema), SIGMA) is schema
    assert q_axiom(SchemaId.COMP_ITER0) is ITER_ZERO_AXIOM
    assert q_axiom(SchemaId.COMP_ITER_STEP) is ITER_STEP_AXIOM


def test_each_schema_is_judged_one_way():
    # by a matcher, or by identity with the one sentence of a fixed axiom
    from omegatruth.kernel import _FIXED, _MATCHERS

    assert not _MATCHERS.keys() & _FIXED.keys()
    assert _MATCHERS.keys() | _FIXED.keys() == set(SchemaId)
    assert [s.value for s in _FIXED] == ["Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7", "COMP_ITER0", "COMP_ITER_STEP"]
    assert all(not phi.fv for phi in _FIXED.values())


def test_check_two_node_proof():
    a = Eq(ZERO, ZERO)
    p = MP(Axiom(SchemaId.EQ1, a), Axiom(SchemaId.PROP1, Imp(a, Imp(a, a))))
    cert = check(p, GAMMA)
    assert cert.formula == Imp(a, a)
    assert cert.omega_count == 0 and cert.samples_checked == 0
    assert cert.proof_size == 3


def test_check_rejects_mp_mismatch():
    # the script reader refuses both proofs first, so only here does the
    # kernel give these messages
    a = Axiom(SchemaId.EQ1, Eq(ZERO, ZERO))
    with pytest.raises(CheckError) as err:
        check(MP(a, a), GAMMA)
    assert str(err.value) == "at node <root> [mp]: major premise is not an implication: 0 = 0"
    one = Axiom(SchemaId.EQ1, parse_formula("#1 = #1"))
    prop1 = Axiom(SchemaId.PROP1, parse_formula("0 = 0 -> 0 = 0 -> 0 = 0"))
    with pytest.raises(CheckError) as err:
        check(MP(one, prop1), GAMMA)
    assert str(err.value) == "at node <root> [mp]: minor premise #1 = #1 does not match antecedent 0 = 0"


def test_every_rejection_quotes_a_bounded_part_of_a_formula():
    # each formula a rejection prints, and a failed step's message, is cut
    # after 120 characters, so no rejection quotes more than two such cuts
    big = numeral(10 ** 300)
    a, b = Eq(big, big), Eq(big, ZERO)
    fam = Eq(Add(Var(1), big), Add(Var(1), big))
    fam0, fam1 = substitute(fam, 1, ZERO), substitute(fam, 1, numeral(1))
    # a chain step whose lemma fits neither end of instance 0 fails with a
    # message that prints both
    loud, lemma = Imp(fam, Imp(b, fam)), Imp(a, Imp(a, a))
    loud0 = substitute(loud, 1, ZERO)
    unchained = ChainWith(Axiom(SchemaId.PROP1, lemma), lemma)
    cases = [
        (MP(Axiom(SchemaId.EQ1, a), Axiom(SchemaId.EQ1, a)), f"major premise is not an implication: {_cut(pretty_print(a))}"),
        (MP(Axiom(SchemaId.EQ1, a), Axiom(SchemaId.PROP1, Imp(b, Imp(a, b)))),
         f"minor premise {_cut(pretty_print(a))} does not match antecedent {_cut(pretty_print(b))}"),
        (Axiom(SchemaId.EQ1, b), f"EQ1: instance does not match the schema: {_cut(pretty_print(b))}"),
        (TIntro(Axiom(SchemaId.EQ1, fam)), f"premise is not a sentence: {_cut(pretty_print(fam))}"),
        (Omega(1, fam, Axiom(SchemaId.EQ1, a), ()),
         f"base proves {_cut(pretty_print(a))}, not instance 0 {_cut(pretty_print(fam0))}"),
        (Omega(1, fam, Axiom(SchemaId.EQ1, fam0), ()),
         f"sample 1 proves {_cut(pretty_print(fam0))}, expected {_cut(pretty_print(fam1))}"),
        (Omega(1, loud, Axiom(SchemaId.PROP1, loud0), (unchained,)),
         f"step 0 failed at sample 1: {_cut(f'cannot chain {pretty_print(loud0)} with {pretty_print(lemma)}')}"),
    ]
    for proof, reason in cases:
        with pytest.raises(CheckError) as err:
            check(proof, SIGMA)
        assert err.value.reason == reason
        assert reason.count("...") in (1, 2) and len(str(err.value)) < 400


# ---------------------------------------------------------------------------
# the kernel judges only its own objects: ROADMAP item 23's three ways to
# make check accept a false sentence under sigma, and a fourth through an
# axiom's schema field.  Each foreign object is met by a CheckError that
# names its class, before anything of it is trusted


class _FalseOmega(Omega):
    """An omega node that replays nothing and concludes 0 = #1."""

    __slots__ = ()

    def premises(self, count, path=()):
        return iter(())

    @property
    def conclusion(self):
        return Eq(ZERO, numeral(1))


class _Opaque:
    """An object that raises on every attribute read."""

    def __getattribute__(self, name):
        raise AssertionError(f"read {name}")


def test_a_proof_node_of_a_foreign_class_is_rejected():
    base = refl(ZERO).proof
    check(base, SIGMA)  # so that the base holds a conclusion
    node = object.__new__(_FalseOmega)
    node._seen, node.var, node.family, node.base, node.steps = None, 0, Eq(ZERO, ZERO), base, ()
    with pytest.raises(CheckError) as err:
        check(node, SIGMA)
    assert str(err.value) == "at node <root> [node]: not a kernel proof node: _FalseOmega"
    # a foreign node is judged by its class alone, below other nodes too
    with pytest.raises(CheckError) as err:
        check(MP(base, TIntro(_Opaque())), SIGMA)
    assert str(err.value) == "at node 1/0 [node]: not a kernel proof node: _Opaque"


_NINE = numeral(9)


def _peel(k):
    """#k = S(#(k - 1)), by COMP_SUCC."""
    return T.sym(ax(SchemaId.COMP_SUCC, Eq(Succ(numeral(k - 1)), numeral(k))))


def _not_nine(m):
    """~#m = #9 for m < 9, from Q1, Q2, EQ3 and COMP_SUCC."""
    h = T.taut_id(Eq(numeral(m), _NINE))  # #m = #9 -> #a = #b, for a = m, m - 1, ..., 0
    q1 = ax(SchemaId.Q1, q_axiom(SchemaId.Q1))
    for a in range(m, 0, -1):
        b = a + 9 - m
        for side, k in ((0, a), (1, b)):
            h = T.imp_trans(h, T.rewrite_imp(_peel(k), h.formula.cons, (side,)))
        h = T.imp_trans(h, inst(inst(q1, numeral(a - 1)), numeral(b - 1)))
    # then 0 = S(#(d - 1)) and S(#(d - 1)) = 0, against Q2
    h = T.imp_trans(h, T.rewrite_imp(_peel(9 - m), h.formula.cons, (1,)))
    z, s = h.formula.cons, h.formula.cons.right
    flip = ax(SchemaId.EQ3, Imp(z, Imp(Eq(ZERO, ZERO), Eq(s, ZERO))))
    h = T.imp_trans(h, T._mp_under(z, T._weaken(z, refl(ZERO)), T._from_hyp(z, flip)))
    return T.mp(inst(ax(SchemaId.Q2, q_axiom(SchemaId.Q2)), s.arg), T.contrapose(h))


class _NotNine(StepCombinator):
    """A step that proves each ~#n = #9 afresh and so fails only at n = 9:
    not parametric, which no replay of samples 1..8 shows."""

    __slots__ = ()
    applied = 0

    def apply(self, proof, formula, expected):
        type(self).applied += 1
        return _not_nine(expected.body.left.nv)


class _LemmaLess(ChainWith):
    """A chain step whose lemma no reader may read."""

    __slots__ = ()

    @property
    def lemma(self):
        raise AssertionError("read lemma")


def test_an_omega_step_of_a_foreign_class_is_rejected_before_any_step_runs():
    fam = Not(Eq(Var(1), _NINE))
    # the step builds eight good samples, so a kernel that ran it would
    # accept forall y. ~y = #9
    for n in range(1, 9):
        th = _NotNine().apply(None, None, substitute(fam, 1, numeral(n)))
        assert check(th.proof, SIGMA).formula is th.formula is substitute(fam, 1, numeral(n))
    base = _not_nine(0).proof
    _NotNine.applied = 0
    for steps, name in [((_NotNine(),), "_NotNine"), ((ApplyTIntro(), object.__new__(_LemmaLess)), "_LemmaLess")]:
        om = Omega(1, fam, base, steps)
        assert _proof_children(om) == (base,)
        with pytest.raises(CheckError) as err:
            check(om, SIGMA)
        assert str(err.value) == f"at node <root> [omega]: step {len(steps) - 1} is not a kernel step: {name}"
    assert _NotNine.applied == 0


def test_a_formula_equal_to_everything_proves_nothing():
    w = equals_all()
    zero, z01 = refl(ZERO).proof, Eq(ZERO, numeral(1))
    # W -> (0 = 0 -> 0 = #1) is no PROP1 instance, however W compares
    prop1 = Axiom(SchemaId.PROP1, Imp(w, Imp(Eq(ZERO, ZERO), z01)))
    with pytest.raises(CheckError) as err:
        check(MP(zero, MP(zero, prop1)), SIGMA)
    assert str(err.value) == "at node 1/1 [axiom]: PROP1: instance does not match the schema: <EqualsAll> -> 0 = 0 -> 0 = #1"
    # and modus ponens does not take 0 = 0 for W
    prop1 = Axiom(SchemaId.PROP1, Imp(Eq(ZERO, ZERO), Imp(w, Eq(ZERO, ZERO))))
    with pytest.raises(CheckError) as err:
        check(MP(zero, MP(zero, prop1)), SIGMA)
    assert str(err.value) == "at node <root> [mp]: minor premise 0 = 0 does not match antecedent <EqualsAll>"


class _PosingAsCons:
    """A schema that hashes like CONS and equals everything: no kernel schema."""

    value = "CONS"

    def __hash__(self):
        return hash(SchemaId.CONS)

    def __eq__(self, other):
        return True


def test_an_axiom_of_a_foreign_schema_is_rejected():
    # the constructor refuses such a schema, so the node is built past it
    node = object.__new__(Axiom)
    node._seen, node.schema, node.instance = None, _PosingAsCons(), _cons_instance(Eq(numeral(7919), ZERO))
    with pytest.raises(CheckError) as err:
        check(node, SIGMA)
    assert str(err.value) == "at node <root> [axiom]: not a kernel schema: _PosingAsCons"


def test_a_foreign_schema_cannot_take_the_place_of_a_kernel_one():
    # an instance no other test builds, as the constructor interns the node;
    # filed under the foreign schema, it would stand in for the CONS axiom
    inst = _cons_instance(Eq(numeral(7927), ZERO))
    with pytest.raises(ValueError) as err:
        Axiom(_PosingAsCons(), inst)
    assert str(err.value) == "not a kernel schema: _PosingAsCons"
    node = Axiom(SchemaId.CONS, inst)
    assert node.schema is SchemaId.CONS
    assert check(node, GAMMA).formula is inst


_FOREIGN: dict = {}


def _foreign_copy(x):
    """A copy of ``x`` whose class subclasses x's and equals everything."""
    cls = type(x)
    if cls not in _FOREIGN:
        _FOREIGN[cls] = type(f"_Foreign{cls.__name__}", (cls,), {
            "__slots__": (), "__hash__": object.__hash__,
            "__eq__": lambda self, other: True, "__ne__": lambda self, other: False,
        })
    y = object.__new__(_FOREIGN[cls])
    for c in cls.__mro__:
        for name in vars(c).get("__slots__", ()):
            if hasattr(x, name):
                setattr(y, name, getattr(x, name))
    return y


def _kernel_sentence(f) -> bool:
    """Whether ``f`` is a sentence whose every node is of a syntax class."""
    kinds = (Var, type(ZERO), Succ, Add, Mul, FnApp, Eq, Tr, Not, Imp, Forall)
    stack = [f]
    while stack:
        e = stack.pop()
        if not any(type(e) is k for k in kinds):
            return False
        stack.extend(_children(e))
    return not f.fv


@functools.cache
def _bundled(name):
    text = (Path(__file__).resolve().parent.parent / "scripts" / "proofs" / f"{name}.proof").read_text(encoding="utf-8")
    script = parse_script(text)
    config = THEORIES[script.theory]
    return script.proof, config, check(script.proof, config).formula


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["not_zero_one", "m1_zero"]), st.sampled_from(["node", "step", "subformula"]),
       st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
def test_no_foreign_copy_in_a_bundled_proof_proves_another_sentence(name, kind, i, j):
    # one node, one omega step or one subformula of one axiom instance is
    # swapped for a copy of a subclass whose __eq__ is always True
    from helpers import proof_paths, proof_replace

    if kind == "step":
        name = "m1_zero"  # not_zero_one has no omega node
    root, config, want = _bundled(name)
    nodes = [(p, n) for p, n in proof_paths(root) if kind == "node" or type(n) is (Omega if kind == "step" else Axiom)]
    path, old = nodes[i % len(nodes)]
    if kind == "node":
        new = _foreign_copy(old)
    elif kind == "step":
        steps = list(old.steps)
        steps[j % len(steps)] = _foreign_copy(steps[j % len(steps)])
        new = Omega(old.var, old.family, old.base, steps)
    else:
        spots, stack = [], [()]  # the positions of the subformulas
        while stack:
            at = stack.pop()
            spots.append(at)
            f = subterm_at(old.instance, at)
            stack += [at + (k,) for k in range(len(_children(f))) if type(f) in (Not, Imp, Forall)]
        at = spots[j % len(spots)]
        new = Axiom(old.schema, replace_at(old.instance, at, _foreign_copy(subterm_at(old.instance, at))))
    mutant = proof_replace(root, path, new)
    try:
        got = check(mutant, config).formula
    except CheckError:
        return
    except Exception:
        # only a foreign object inside a formula, which the kernel assumes
        # away, may end otherwise
        assert kind == "subformula"
        return
    assert kind == "subformula"
    assert got is want or not _kernel_sentence(got)


def test_an_mp_with_two_failing_premises_reports_the_major():
    # the minor premise is pushed before the major, so the major's subproof
    # is checked, and its error reported, first: at child index 1
    eq = Axiom(SchemaId.EQ1, Eq(ZERO, ZERO))
    false = Axiom(SchemaId.EQ1, Eq(ZERO, numeral(1)))
    open_t = TIntro(Axiom(SchemaId.EQ1, Eq(Var(0), Var(0))))
    not_prop1 = Axiom(SchemaId.PROP1, parse_formula("0 = 0 -> #1 = #1"))
    cases = [
        (MP(false, not_prop1), ((0, 1), "axiom")),  # both axioms fail
        (MP(open_t, MP(eq, eq)), ((0, 1), "mp")),  # the minor fails at t-intro
        (MP(MP(eq, eq), open_t), ((0, 1), "t-intro")),  # the minor fails at mp
    ]
    for proof, want in cases:
        with pytest.raises(CheckError) as err:
            check(Gen(0, proof), GAMMA)
        assert (err.value.path, err.value.rule) == want


def test_an_error_under_a_shared_subproof_is_reported_where_it_is_first_reached():
    # a failing node with several parents is reported at the path of the
    # first parent the checker walks into: the major premise's side, and
    # there the deepest occurrence, as the major of an MP is walked first
    eq = Axiom(SchemaId.EQ1, Eq(ZERO, ZERO))
    false = Axiom(SchemaId.EQ1, Eq(ZERO, numeral(1)))
    open_t = TIntro(Axiom(SchemaId.EQ1, Eq(Var(0), Var(0))))
    for shared, rule in ((false, "axiom"), (open_t, "t-intro"), (MP(eq, eq), "mp")):
        with pytest.raises(CheckError) as err:
            check(MP(Gen(0, shared), MP(shared, Gen(1, shared))), GAMMA)
        assert (err.value.path, err.value.rule) == ((1, 1, 0), rule)
        with pytest.raises(CheckError) as err:
            check(MP(MP(Gen(1, shared), shared), Gen(0, TIntro(shared))), GAMMA)
        assert (err.value.path, err.value.rule) == ((1, 0, 0), rule)


def test_check_rejects_wrong_schema_declaration():
    bad = Axiom(SchemaId.PROP2, Imp(Eq(ZERO, ZERO), Imp(Tr(ZERO), Eq(ZERO, ZERO))))
    with pytest.raises(CheckError) as err:
        check(bad, GAMMA)
    assert err.value.rule == "axiom"


def test_tintro_needs_sentence():
    open_refl = Axiom(SchemaId.EQ1, Eq(Var(0), Var(0)))
    with pytest.raises(CheckError) as err:
        check(TIntro(open_refl), GAMMA)
    assert err.value.rule == "t-intro"
    closed = TIntro(Axiom(SchemaId.EQ1, Eq(ZERO, ZERO)))
    cert = check(closed, GAMMA)
    assert cert.formula == Tr(name_of(Eq(ZERO, ZERO)))


def test_gen_is_unconditional():
    cert = check(Gen(0, Axiom(SchemaId.EQ1, Eq(Var(0), Var(0)))), GAMMA)
    assert cert.formula == Forall(0, Eq(Var(0), Var(0)))


def test_constant_family_generator_with_identity_step():
    # the family does not mention the distinguished variable, so the empty
    # step list reproduces every instance
    fam = Eq(Var(0), Var(0))
    base = Axiom(SchemaId.EQ1, fam)
    om = Omega(1, fam, base, ())
    assert om.conclusion is Forall(1, fam)
    assert [p for p, _ in om.premises(3)] == [base] * 3
    proof_cert = check(om, GAMMA)
    assert proof_cert.formula == Forall(1, fam)
    assert proof_cert.omega_count == 1
    assert proof_cert.samples_checked == 8


def test_generator_base_must_prove_instance_zero():
    fam = Tr(FnApp("iter", [Var(1), name_of(Eq(ZERO, ZERO))]))
    base = Axiom(SchemaId.EQ1, Eq(ZERO, ZERO))
    om = Omega(1, fam, base, (ApplyTIntro(), RewriteEval((0,))))
    with pytest.raises(CheckError) as err:
        check(om, GAMMA)
    assert "instance 0" in err.value.reason


def test_generator_step_failure_reports_sample():
    # doubled step tries to reach instance n+2 and cannot align
    phi = Eq(ZERO, ZERO)
    fam = Tr(FnApp("iter", [Var(1), name_of(phi)]))
    base_thm = tintro(Thm(Axiom(SchemaId.EQ1, phi), phi))
    from omegatruth.tactics import rewrite_align
    from omegatruth.syntax import substitute

    base = rewrite_align(base_thm, substitute(fam, 1, ZERO), [(0,)])
    steps = (ApplyTIntro(), RewriteEval((0,)), ApplyTIntro(), RewriteEval((0,)))
    om = Omega(1, fam, base.proof, steps)
    with pytest.raises(CheckError) as err:
        check(om, GAMMA)
    assert "sample" in str(err.value)


def test_step_failure_and_wrong_sample_name_the_same_instance():
    # both omega nodes fail on their first replayed proof, the one of
    # instance 1: the doubled steps while building it, the single step by
    # proving another formula; both messages call it sample 1
    from omegatruth.tactics import rewrite_align

    phi = Eq(ZERO, ZERO)
    fam = Tr(FnApp("iter", [Var(1), name_of(phi)]))
    base = rewrite_align(tintro(Thm(Axiom(SchemaId.EQ1, phi), phi)), substitute(fam, 1, ZERO), [(0,)])
    doubled = (ApplyTIntro(), RewriteEval((0,)), ApplyTIntro(), RewriteEval((0,)))
    with pytest.raises(CheckError) as err:
        check(Omega(1, fam, base.proof, doubled), GAMMA)
    assert err.value.reason.startswith("step 3 failed at sample 1:")
    with pytest.raises(CheckError) as err:
        check(Omega(1, fam, base.proof, (ApplyTIntro(),)), GAMMA)
    # ApplyTIntro alone proves T of the name of instance 0, not instance 1
    assert err.value.reason == "sample 1 proves T(#435383689712), expected T(iter(#1, #25071))"
    assert pretty_print(substitute(fam, 1, numeral(1))) == "T(iter(#1, #25071))"


def test_error_path_names_the_failing_node(mcgee):
    # a false axiom put at one position of the proof tree occurs nowhere
    # else, so the checker must report exactly that position
    import random

    from helpers import proof_paths, proof_replace

    bad = Axiom(SchemaId.EQ1, Eq(ZERO, numeral(1)))
    paths = [path for path, node in proof_paths(mcgee.positive.proof) if type(node) is Axiom]
    for path in random.Random(5).sample(paths, 25) + [max(paths, key=len)]:
        with pytest.raises(CheckError) as err:
            check(proof_replace(mcgee.positive.proof, path, bad), GAMMA)
        assert err.value.path == path and err.value.rule == "axiom"


def test_omega_sample_paths_follow_the_children():
    # M3's omega node has two children, its base (0) and its ChainWith
    # lemma (1); sample k is checked at 1 + k, so no two nodes share a path
    from omegatruth.tactics import taut
    from omegatruth.theorems import m3

    proof = m3(Eq(ZERO, ZERO), SIGMA).proof  # mp(omega, QUANT2 instance)
    om = proof.minor
    lift, chain, align = om.steps
    assert type(chain) is ChainWith and len(_proof_children(om)) == 2

    def chained_with(lemma):
        steps = (lift, ChainWith(lemma, chain.conclusion), align)
        return MP(Omega(om.var, om.family, om.base, steps), proof.major)

    false = Axiom(SchemaId.EQ1, Eq(ZERO, numeral(1)))
    with pytest.raises(CheckError) as err:  # the lemma is checked as child 1
        check(chained_with(false), SIGMA)
    assert (err.value.path, err.value.rule) == ((0, 1), "axiom")
    # a sound lemma that proves another formula than the step states is
    # caught where sample 1 uses it
    other = taut(Imp(Not(Eq(ZERO, ZERO)), Not(Eq(ZERO, ZERO)))).proof
    with pytest.raises(CheckError) as err:
        check(chained_with(other), SIGMA)
    assert (err.value.path, err.value.rule) == ((0, 2, 0, 0, 1, 0), "mp")


def test_m1_style_generator_counts(mcgee):
    assert mcgee.positive.omega_count == 1
    assert mcgee.negative.omega_count == 0


def test_omega_cap_enforced(mcgee):
    capped = TheoryConfig(max_omega_count=0)
    with pytest.raises(CheckError):
        check(mcgee.positive.proof, capped)
    ok = TheoryConfig(max_omega_count=1)
    assert check(mcgee.positive.proof, ok).omega_count == 1


def test_sigma_proofs_accepted_under_gamma(mcgee):
    """Monotonicity: the schema set of sigma is a subset of gamma's."""
    from omegatruth.theorems import m2

    cert = m2(Eq(ZERO, Succ(ZERO)), Eq(ZERO, ZERO), SIGMA)
    again = check(cert.proof, GAMMA)
    assert again.formula == cert.formula
    assert again.omega_count == cert.omega_count


def test_checker_determinism(mcgee):
    a = check(mcgee.positive.proof, GAMMA)
    b = check(mcgee.positive.proof, GAMMA)
    assert certificate(a) == certificate(b)


def test_a_later_check_under_another_theory_checks_every_node_again(mcgee):
    # each check stamps the nodes it reaches with a fresh stamp, so nothing
    # the first gamma check found is taken on trust by the sigma check
    proof = mcgee.negative.proof
    first = certificate(check(proof, GAMMA))
    with pytest.raises(CheckError) as err:
        check(proof, SIGMA)
    assert err.value.path == (0, 0, 1, 0, 0, 1, 0, 0)
    assert err.value.reason == "schema CONS is inactive under this theory"
    again = certificate(check(proof, GAMMA))
    assert again == first and again["proof_size"] == 2668


def test_a_failed_check_leaves_no_trace_in_a_later_one(mcgee):
    # the subproofs a failing check accepted before it failed are checked
    # in full by the next check: each reports all of its distinct nodes
    from omegatruth.kernel import _Checker

    root = mcgee.negative.proof
    failed = _Checker(SIGMA)
    with pytest.raises(CheckError):
        failed.run(root)
    accepted = [p for p in _proof_children(root) if p._seen is failed.stamp]
    assert accepted
    for sub in accepted:
        stack, distinct = [sub], set()
        while stack:
            p = stack.pop()
            if p not in distinct:
                distinct.add(p)
                stack.extend(_proof_children(p))
        assert check(sub, SIGMA).proof_size == len(distinct)


def test_every_check_of_an_omega_node_replays_its_samples():
    fam = Eq(Var(0), Var(0))
    om = Omega(1, fam, Axiom(SchemaId.EQ1, fam), ())
    certs = [check(om, GAMMA), check(om, GAMMA), check(om, GAMMA._replace(omega_samples=3))]
    assert [c.samples_checked for c in certs] == [8, 8, 3]
    assert [c.proof_size for c in certs] == [2, 2, 2]


def test_missing_schema_message():
    err = MissingSchema(SchemaId.CONS)
    assert str(err) == "MissingSchema(CONS)"


def test_refutation_validates_contradiction(mcgee):
    from omegatruth.theorems import Refutation

    with pytest.raises(ValueError, match="^refutation sides do not contradict each other$"):
        Refutation(mcgee.positive, mcgee.positive, ())
    other = check(mcgee.negative.proof, TheoryConfig(omega_samples=2))
    with pytest.raises(ValueError, match="^refutation sides use different theories$"):
        Refutation(mcgee.positive, other, ())
    assert Refutation(mcgee.positive, mcgee.negative, ()).negative is mcgee.negative


def test_steps_are_interned_by_one_constructor():
    from omegatruth.kernel import LiftImp, StepCombinator

    lemma = Axiom(SchemaId.EQ1, Eq(ZERO, ZERO))
    chain = ChainWith(lemma, Eq(ZERO, ZERO))
    assert chain is ChainWith(lemma, Eq(ZERO, ZERO)) and chain.lemma is lemma
    assert LiftImp(2) is LiftImp(2) and LiftImp(2).depth == 2 and LiftImp().depth == 1
    assert RewriteEval([1, 0]) is RewriteEval((1, 0)) and RewriteEval([1, 0]).position == (1, 0)
    assert ApplyTIntro() is ApplyTIntro()
    with pytest.raises(ValueError, match="^LiftImp depth must be 1 or 2$"):
        LiftImp(3)
    steps = (ApplyTIntro, LiftImp, RewriteEval, ChainWith)
    assert [c for c in steps if "__new__" in vars(c)] == [LiftImp, RewriteEval]
    assert all("apply" in vars(c) and issubclass(c, StepCombinator) for c in steps)


# The functions kernel.check calls, by module, when one process checks the
# bundled scripts in sorted order, and when one process runs the four demos,
# which build their proofs in memory: both reach the same functions.  The
# trust statement's all-n claim rests on the tactics among them (kernel.py,
# README), so a change to the trusted base shows here as a diff.  A function
# is known by its co_name (3.10 has no co_qualname); <...> code objects are
# skipped, as 3.12 inlines comprehensions; a functools.cache hit counts as a
# call.
CHECK_REACHES = {
    "coding": [
        "__init__", "_build", "_chunk_of", "_nat_chunk", "_parts", "decode", "encode", "name_of",
        "read", "read_nat", "sub_fn",
    ],
    "kernel": [
        "__init__", "__new__", "_m_comp_sub", "_m_comp_succ", "_m_cons", "_m_eq1", "_m_eq2",
        "_m_eq3", "_m_prop1", "_m_prop2", "_m_prop3", "_m_quant1", "_m_quant2", "_m_timp",
        "_m_uinf", "_matches", "_named", "_one_step_rewrite", "_proof_children", "_reduce",
        "_spell", "active", "apply", "check", "conclusion", "instance", "premises", "run",
    ],
    "syntax": [
        "__getattr__", "__new__", "_children", "_make", "_postorder", "_rebuild", "_union",
        "free_var_positions", "into", "numeral", "put", "replace_at", "substitute", "subterm_at",
    ],
    "tactics": [
        "_apply_under", "_distribute", "_eval_step", "_from_hyp", "_imp_mono_ant",
        "_imp_mono_cons", "_iter_step_at", "_mp_under", "_op", "_trans_under", "_weaken",
        "ax", "chain", "cong_term", "eval_closed", "imp_trans", "lift_imp", "mp", "refl",
        "rewrite_align", "rewrite_imp", "sym", "taut_id", "tintro", "trans",
    ],
}

# the hypothesis-tree machinery of the deduction compiler, which only taut
# goes through
_TREE = {"_happly", "_discharge", "parts", "close", "__init__"}

# prints the functions reached inside kernel.check, while one process checks
# the scripts in the directory argv[1], or runs the four demos for "demos"
_REACH = """
import contextlib, io, json, pathlib, sys
from omegatruth import cli, kernel
from omegatruth.proofscript import parse_script

reached, depth = {}, [0]
def profile(frame, event, arg):
    if event == "call":
        mod, name = frame.f_globals.get("__name__", ""), frame.f_code.co_name
        depth[0] += frame.f_code is kernel.check.__code__
    elif event == "return":
        depth[0] -= frame.f_code is kernel.check.__code__
        return
    elif event == "c_call" and hasattr(arg, "__wrapped__"):
        mod, name = arg.__wrapped__.__module__, arg.__wrapped__.__code__.co_name
    else:
        return
    if depth[0] and mod.startswith("omegatruth.") and not name.startswith("<"):
        reached.setdefault(mod.split(".", 1)[1], set()).add(name)

if sys.argv[1] == "demos":
    for name in ("mcgee", "mcgee-via-loeb", "loeb", "witness"):
        sys.setprofile(profile)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["demo", name, "--quiet"])
        sys.setprofile(None)
        assert code == 0, code
else:
    for path in sorted(pathlib.Path(sys.argv[1]).glob("*.proof")):
        script = parse_script(path.read_text(encoding="utf-8"))
        sys.setprofile(profile)
        kernel.check(script.proof, kernel.THEORIES[script.theory])
        sys.setprofile(None)
print(json.dumps({m: sorted(names) for m, names in sorted(reached.items())}))
"""


def _reached(what: str) -> dict:
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-c", _REACH, what],
                         capture_output=True, text=True, env=env, timeout=120)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout)


def test_check_reaches_the_pinned_functions():
    root = Path(__file__).resolve().parent.parent
    reached = _reached(str(root / "scripts" / "proofs"))
    assert reached == CHECK_REACHES
    assert not _TREE & set(reached["tactics"])


def test_check_reaches_the_pinned_functions_on_the_demos():
    reached = _reached("demos")
    assert reached == CHECK_REACHES
    assert not _TREE & set(reached["tactics"])


def _between(text: str, start: str, end: str) -> str:
    text = " ".join(text.split())
    i = text.index(start) + len(start)
    return text[i:text.index(end, i)]


def test_the_trust_statements_list_the_pinned_tactics():
    # the README copies CHECK_REACHES["tactics"] by hand; the kernel
    # docstring points to the pin instead
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    in_readme = re.findall(r"`(\w+)`", _between(readme, "on the 4 demos, these are ", ". No hypothesis tree"))
    assert sorted(in_readme) == CHECK_REACHES["tactics"]


# The functions the trusted files define that check does not reach on the
# bundled scripts or the demos, each with the reason it stays there.
TRUSTED_EXTRAS = {
    "coding": {},
    "kernel": {
        "_nearest": "the hint of a rejected axiom: only rejections reach it",
        "_occurs": "EQ2/EQ3 with identical sides, which no bundled proof holds",
        "_check": "validates a TheoryConfig as it is built, before any check",
        "_make": "builds a TheoryConfig through _check",
        "preset_name": "the name of a configuration's theory, for certificates",
        "q_axiom": "reads the fixed sentences, _FIXED, for the tactics",
    },
    "syntax": {
        "pretty_print": "the printer: rejections and CaptureError quote with it",
        "_print": "the printer, cut at a limit",
        "_pp_pieces": "the printer's text of one node",
        "_decimal": "the printer's numerals past the digit limit",
        "_cut": "cuts what a rejection quotes",
        "_shown": "a formula as a rejection quotes it",
        "var_name": "the printer's variable names",
        "__repr__": "the printer, as repr of a node",
    },
}


def test_trusted_files_define_only_what_check_reaches():
    # a function of a trusted file that check never runs, and that is not
    # named above with its reason, belongs beside the code that uses it
    src = Path(__file__).resolve().parent.parent / "src" / "omegatruth"
    for module, extras in TRUSTED_EXTRAS.items():
        tree = ast.parse((src / f"{module}.py").read_text(encoding="utf-8"))
        defined = {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
        assert not extras.keys() & set(CHECK_REACHES[module]), module
        assert sorted(defined) == sorted({*CHECK_REACHES[module], *extras}), module


# Every == and != left where checking compares, by module and function:
# kernel.py whole, the functions CHECK_REACHES names in the other modules,
# the script reader's _build and theorems whole.  Each compares naturals,
# strings or theory records.  Kernel objects, proof nodes, steps, formulas
# and terms, are compared by identity, as interning makes equal ones the
# same object and a foreign __eq__ could otherwise decide a rule or a
# tactic; a new == shows here as a diff.  A comparison belongs to the
# innermost function around it.
_EQUALITY_SCOPE = {**CHECK_REACHES, "kernel": None, "proofscript": ["_build"], "theorems": None}
CHECK_EQUALITIES = {
    "coding": {
        "decode": ["r.pos != len(r.bits)", "encode(node) != code"],
        "read": ["tag == _T_ZERO", "tag == _T_NUM", "tag == _T_FORALL"],
        "read_nat": ["bits[pos + z] == '0'"],
    },
    "kernel": {
        "_m_comp_sub": ["phi.left.sym == SUB", "got != k.nv"],
        "_m_comp_succ": ["got == phi.right.nv"],
        "_m_uinf": ["arg.sym == SUB"],
        "_occurs": ["k == p", "k == p - 1"],
        "_one_step_rewrite": ["a.var != b.var", "a.sym != b.sym", "len(differ) != 1"],
    },
    "proofscript": {
        "_build": [
            "kind == 'family'", "head == 't-intro'", "head == 'lift'", "head == 'rewrite'",
            "head == 'chain'", "head == 'axiom'", "head == 'mp'", "head == 'gen'",
            "head == 'tintro'", "head == 'omega'", "head == 'eval'", "head == 'diag'",
        ],
    },
    "syntax": {
        "__getattr__": ["name != 'arg'", "name == 'left'"],
        "__new__": ["len(args) != FN_ARITY[sym]"],
        "_postorder": ["n == 1"],
    },
    "tactics": {
        "_eval_step": ["t.sym != ITER", "n0 == 0"],
        "lift_imp": ["depth == 1"],
        "rewrite_imp": ["side == 0", "side == 0"],
    },
    "theorems": {
        "_check": ["self.negative.theory != self.positive.theory"],
    },
}


def _equalities(tree: ast.AST, names) -> dict:
    """The == and != comparisons in ``tree``, by the innermost function
    around each, kept for the functions in ``names`` (all when None)."""
    found: dict[str, list] = {}

    def walk(node, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                walk(child, child.name)
                continue
            if (
                fn is not None and (names is None or fn in names) and isinstance(child, ast.Compare)
                and any(isinstance(op, (ast.Eq, ast.NotEq)) for op in child.ops)
            ):
                found.setdefault(fn, []).append((child.lineno, child.col_offset, ast.unparse(child)))
            walk(child, fn)

    walk(tree, None)
    return {fn: [c[-1] for c in sorted(cs)] for fn, cs in found.items()}


def test_kernel_compares_its_objects_by_identity():
    src = Path(__file__).resolve().parent.parent / "src" / "omegatruth"
    found = {
        module: _equalities(ast.parse((src / f"{module}.py").read_text(encoding="utf-8")), names)
        for module, names in _EQUALITY_SCOPE.items()
    }
    assert found == CHECK_EQUALITIES
    assert "lemmas" not in (src / "kernel.py").read_text(encoding="utf-8")
