import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from omegatruth.coding import encode, iter_fn, name_of, omega_truth, value
from omegatruth.kernel import GAMMA, SIGMA, SchemaId, TheoryConfig, check
from omegatruth.syntax import (
    Eq, FnApp, Forall, Imp, Not, Succ, Tr, Var, ZERO, mk_iff, numeral,
    parse_formula, pretty_print, replace_at, substitute, subterm_at,
)
from omegatruth.tactics import (
    TacticError, TautologyError, Thm, ax, compile_tree, contrapose,
    derive_A1, derive_A2, diagonal_lemma, discharge, eval_closed, happly,
    hyp, iff_elim1, iff_elim2, iff_intro, iff_parts, imp_trans, lift_imp, mp, propositional_atoms, propositional_counterexample,
    refl, rewrite_imp, sym, taut, tintro, trans, _rw_pair,
)

from helpers import (
    oracle_taut, oracle_value, random_evaluable_term, random_formula,
    term_positions,
)

Q_ONLY = TheoryConfig(has_cons=False, has_timp=False, has_uinf=False)

A = Eq(ZERO, ZERO)
B = Tr(ZERO)
C = Eq(Succ(ZERO), ZERO)


def _checked(th, config=GAMMA):
    cert = check(th.proof, config)
    assert cert.formula == th.formula
    return cert


def test_taut_identity():
    _checked(taut(Imp(A, A)))


def test_taut_biconditional_projection():
    # the shape used to peel the fixed-point equivalence
    phi = Imp(mk_iff(A, Not(B)), Imp(B, Not(A)))
    assert _checked(taut(phi)).omega_count == 0


def test_taut_rejects_with_counterexample():
    with pytest.raises(TautologyError) as err:
        taut(Imp(A, B))
    ce = err.value.counterexample
    assert ce[A] is True and ce[B] is False


def test_taut_atom_limit_messages():
    # nine distinct atoms, one past the limit
    phi = Eq(numeral(0), numeral(0))
    for n in range(1, 9):
        phi = Imp(Eq(numeral(n), numeral(n)), phi)
    with pytest.raises(TacticError, match=r"too many distinct atoms \(9\) for tautology compilation"):
        taut(phi)
    with pytest.raises(TacticError, match=r"too many distinct atoms \(9\) for a truth-table sweep"):
        propositional_counterexample(phi)


def test_taut_counterexample_messages():
    # the first falsifying row of the sweep, atoms in order of appearance,
    # each tried true before false
    cases = [
        (Imp(A, B), "not a tautology, falsified by [0 = 0=T, T(0)=F]: 0 = 0 -> T(0)"),
        (
            Imp(Imp(A, B), Imp(Not(C), Imp(B, A))),
            "not a tautology, falsified by [0 = 0=F, T(0)=T, #1 = 0=F]:"
            " (0 = 0 -> T(0)) -> ~#1 = 0 -> T(0) -> 0 = 0",
        ),
        (
            Imp(Imp(Imp(A, B), A), B),
            "not a tautology, falsified by [0 = 0=T, T(0)=F]: ((0 = 0 -> T(0)) -> 0 = 0) -> T(0)",
        ),
    ]
    for phi, msg in cases:
        for _ in range(2):  # a failure is not cached: the second call says the same
            with pytest.raises(TautologyError) as err:
                taut(phi)
            assert str(err.value) == msg


_props = st.recursive(
    st.sampled_from([A, B, C]),
    lambda sub: st.one_of(st.builds(Not, sub), st.builds(Imp, sub, sub)),
    max_leaves=8,
)


def _first_counterexample(phi):
    atoms = propositional_atoms(phi)

    def ev(f, env):
        if type(f) is Not:
            return not ev(f.body, env)
        if type(f) is Imp:
            return (not ev(f.ant, env)) or ev(f.cons, env)
        return env[f]

    for row in itertools.product((True, False), repeat=len(atoms)):
        env = dict(zip(atoms, row))
        if not ev(phi, env):
            return env
    return None


@settings(max_examples=60, deadline=None)
@given(_props, _props)
def test_cached_lemmas_return_what_a_fresh_call_builds(a, b):
    from omegatruth import tactics as T

    kit = [T.taut_id, T._l_dne, T._l_dni, T._l_efq, T._l_counter, T._l_caa, T._l_cases, T.taut]
    calls = [
        (T.taut_id, (a,)), (T._l_dne, (a,)), (T._l_dni, (a,)), (T._l_efq, (a, b)),
        (T._l_counter, (a, b)), (T._l_caa, (a,)), (T._l_cases, (a, b)),
    ]
    for phi in (Imp(a, b), Imp(a, a), Imp(Not(Not(a)), a)):
        want = _first_counterexample(phi)
        if want is None:
            calls.append((T.taut, (phi,)))
        else:
            with pytest.raises(TautologyError) as err:
                taut(phi)
            assert err.value.counterexample == want
            bits = ", ".join(f"{pretty_print(x)}={'T' if v else 'F'}" for x, v in want.items())
            assert str(err.value) == f"not a tautology, falsified by [{bits}]: {pretty_print(phi)}"
    for fn, args in calls:
        cached = fn(*args)
        assert fn(*args) is cached
        for f in kit:
            f.cache_clear()
        fresh = fn.__wrapped__(*args)
        assert fresh.proof is cached.proof and fresh.formula is cached.formula
        assert check(cached.proof).formula is cached.formula


def test_taut_matches_oracle_on_random_skeletons():
    rng = random.Random(37)
    atoms = [A, B, C, Forall(0, Eq(Var(0), Var(0)))]

    def skel(d):
        if d == 0:
            return rng.choice(atoms)
        if rng.random() < 0.4:
            return Not(skel(d - 1))
        return Imp(skel(d - 1), skel(d - 1))

    agree = 0
    for _ in range(300):
        phi = skel(rng.randrange(1, 5))
        want = oracle_taut(phi)
        got = propositional_counterexample(phi) is None
        assert got == want, pretty_print(phi)
        if want and agree < 40:
            _checked(taut(phi))
            agree += 1
    assert agree > 0


def test_imp_trans_and_contrapose():
    ab = taut(Imp(Imp(A, B), Imp(A, B)))
    p = imp_trans(iff_elim1(iff_intro(taut(Imp(A, A)), taut(Imp(A, A)))), taut(Imp(A, A)))
    assert type(p) is Thm
    _checked(p)
    cp = contrapose(taut(Imp(A, A)))
    assert type(cp) is Thm and cp.formula == Imp(Not(A), Not(A))
    _checked(cp)
    assert ab.formula == Imp(Imp(A, B), Imp(A, B))


def test_compile_tree_rejects_an_open_tree():
    with pytest.raises(TacticError, match=r"^undischarged hypotheses: 0 = 0$"):
        compile_tree(hyp(A))


def test_imp_trans_refuses_to_capture_an_open_hypothesis():
    # A -> A from the open hypothesis A: composing at A would discharge it
    under_a = happly(hyp(A), ax(SchemaId.PROP1, Imp(A, Imp(A, A))))
    for a, b in ((under_a, taut(Imp(A, A))), (taut(Imp(A, A)), under_a)):
        with pytest.raises(TacticError, match=r"^composition would capture an open hypothesis$"):
            imp_trans(a, b)


def test_imp_trans_and_contrapose_on_open_trees():
    hab, hbc = Imp(A, B), Imp(B, C)
    ac = imp_trans(hyp(hab), hyp(hbc))
    assert type(ac) is not Thm and ac.formula == Imp(A, C) and ac.hyps == {hab, hbc}
    closed = compile_tree(discharge(discharge(ac, hbc), hab))
    assert closed.formula == Imp(hab, Imp(hbc, Imp(A, C)))
    _checked(closed)

    nba = contrapose(hyp(hab))
    assert type(nba) is not Thm and nba.formula == Imp(Not(B), Not(A)) and nba.hyps == {hab}
    closed = compile_tree(discharge(nba, hab))
    assert closed.formula == Imp(hab, Imp(Not(B), Not(A)))
    _checked(closed)


def test_iff_machinery():
    idA = iff_intro(taut(Imp(A, A)), taut(Imp(A, A)))
    # chain two biconditionals through a propositional lemma
    chained = mp(idA, mp(idA, taut(Imp(idA.formula, Imp(idA.formula, mk_iff(A, A))))))
    assert iff_parts(chained.formula) == (A, A)
    _checked(chained)
    with pytest.raises(TacticError):
        iff_parts(Imp(A, A))


def test_eq_tactics():
    e = sym(refl(numeral(4)))
    assert e.formula == Eq(numeral(4), numeral(4))
    t1 = eval_closed(Succ(numeral(4)))
    t2 = sym(eval_closed(FnApp("iter", [ZERO, numeral(5)])))
    chain = trans(t1, t2)
    assert chain.formula == Eq(Succ(numeral(4)), FnApp("iter", [ZERO, numeral(5)]))
    _checked(chain)


def test_eval_closed_base_cases():
    assert eval_closed(numeral(7)).formula == Eq(numeral(7), numeral(7))
    it0 = FnApp("iter", [numeral(0), name_of(A)])
    th = eval_closed(it0)
    assert th.formula == Eq(it0, name_of(A))
    _checked(th, SIGMA)


def test_eval_closed_sub_application():
    c = encode(Tr(Var(5)))
    t = FnApp("sub", [numeral(c), numeral(5), numeral(3)])
    th = eval_closed(t)
    assert value(th.formula.right) == encode(Tr(numeral(3)))
    _checked(th, SIGMA)


def test_eval_closed_matches_independent_evaluator():
    rng = random.Random(41)
    for _ in range(200):
        t = random_evaluable_term(rng, 3)
        th = eval_closed(t)
        assert th.formula.left == t
        assert th.formula.right == numeral(oracle_value(t))
        _checked(th, SIGMA)


def test_eval_closed_rejects_open_terms():
    with pytest.raises(TacticError):
        eval_closed(Succ(Var(0)))


def _checked_both_ways(eq, phi, path, want):
    """Both directions of phi <-> phi[t at path] check and prove the
    implications between phi and ``want``."""
    fwd, bwd = _rw_pair(eq, phi, path)
    assert fwd.formula == Imp(phi, want) and bwd.formula == Imp(want, phi)
    _checked(fwd, SIGMA)
    _checked(bwd, SIGMA)


def test_rewrite_eq_single_congruence():
    eq = eval_closed(FnApp("iter", [ZERO, numeral(9)]))
    phi = Tr(FnApp("iter", [ZERO, numeral(9)]))
    _checked_both_ways(eq, phi, (0,), Tr(numeral(9)))


def test_rewrite_eq_invalid_position():
    eq = eval_closed(FnApp("iter", [ZERO, numeral(9)]))
    with pytest.raises((TacticError, IndexError)):
        _rw_pair(eq, Tr(ZERO), (0, 1, 4))


def test_rewrite_eq_random_positions():
    rng = random.Random(43)
    done = 0
    while done < 100:
        phi = random_formula(rng, 3)
        spots = [
            (path, node)
            for path, node in _term_spots(phi)
            if not node.fv
        ]
        if not spots:
            continue
        path, node = rng.choice(spots)
        n = value(node) if _evaluable(node) else None
        if n is None:
            continue
        eq = trans(eval_closed(node), sym(eval_closed(numeral(n))))
        if eq.formula.left == eq.formula.right:
            continue
        _checked_both_ways(eq, phi, path, replace_at(phi, path, numeral(n)))
        done += 1


def _term_spots(phi):
    return [(p, n) for p, n in term_positions(phi) if p]


def _evaluable(node):
    try:
        value(node)
        return True
    except Exception:
        return False


def test_rewrite_refuses_open_terms_under_quantifier():
    eq = Thm(None, Eq(Var(0), Var(0)))  # formula-level misuse is caught early
    phi = Forall(1, Eq(Var(0), Var(0)))
    with pytest.raises(TacticError):
        rewrite_imp(eq, phi, (0, 0))


def test_lift_imp_depths():
    one = lift_imp(taut(Imp(A, A)), 1)
    assert one.formula == Imp(Tr(name_of(A)), Tr(name_of(A)))
    _checked(one, SIGMA)
    two = lift_imp(taut(Imp(A, Imp(B, A))), 2)
    assert two.formula == Imp(Tr(name_of(A)), Imp(Tr(name_of(B)), Tr(name_of(A))))
    _checked(two, SIGMA)


def test_derive_a1_shape_and_configs():
    for phi in (A, Eq(ZERO, Succ(ZERO))):
        th = derive_A1(phi)
        w = omega_truth(name_of(phi))
        assert th.formula == Imp(w, Tr(name_of(w)))
        cert = check(th.proof, SIGMA)
        assert cert.omega_count == 0


def test_derive_a2_shape_and_configs():
    for phi in (A, Eq(ZERO, Succ(ZERO))):
        th = derive_A2(phi)
        assert th.formula == Imp(omega_truth(name_of(phi)), Tr(name_of(phi)))
        cert = check(th.proof, SIGMA)
        assert cert.omega_count == 0


def test_a_laws_need_sentences():
    with pytest.raises(TacticError):
        derive_A1(Eq(Var(0), ZERO))
    with pytest.raises(TacticError):
        derive_A2(Eq(Var(0), ZERO))


def test_diagonal_lemma_fixed_point():
    phi = Not(omega_truth(Var(5)))
    dr = diagonal_lemma(phi, 5)
    want = mk_iff(dr.gamma, Not(omega_truth(name_of(dr.gamma))))
    assert dr.equivalence == want
    cert = check(dr.equivalence_proof, Q_ONLY)
    assert cert.omega_count == 0


def test_diagonal_lemma_truth_teller():
    dr = diagonal_lemma(Tr(Var(5)), 5)
    assert check(dr.equivalence_proof, Q_ONLY).formula == dr.equivalence


def test_diagonal_lemma_reflexive_instance():
    dr = diagonal_lemma(Eq(Var(5), Var(5)), 5)
    cert = check(dr.equivalence_proof, Q_ONLY)
    assert cert.omega_count == 0
    # gamma is the reflexive equation on the self-application term
    assert type(dr.gamma) is Eq and dr.gamma.left == dr.gamma.right


def test_tintro_tactic_requires_sentence():
    with pytest.raises(TacticError):
        tintro(Thm(None, Eq(Var(0), Var(0))))
