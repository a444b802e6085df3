import itertools
import random
from functools import cache
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from omegatruth import tactics as T, theorems as TH
from omegatruth.coding import encode, name_of, value
from omegatruth.kernel import (
    GAMMA, SIGMA, Axiom, Omega, SchemaId, _proof_children, check,
)
from omegatruth.syntax import (
    Add, Eq, FnApp, Forall, Imp, Not, Succ, Tr, Var, ZERO, mk_iff, numeral,
    parse_term, pretty_print, replace_at,
)
from omegatruth.tactics import (
    TacticError, TautologyError, Thm, ax, chain, cong_term, contrapose, derive_A1,
    derive_A2, diagonal_lemma, eval_closed, iff_elim1, iff_intro,
    iff_parts, imp_trans, lift_imp, mp, omega_truth,
    propositional_atoms, propositional_counterexample,
    refl, rewrite_imp, sym, taut, tintro, trans,
)

from helpers import (
    equals_all, oracle_taut, oracle_value, random_evaluable_term, random_formula,
    reference_imp_mono_ant, reference_imp_mono_cons, reference_imp_trans,
    reference_iter_step_at, reference_l_caa, reference_l_cases,
    reference_l_counter, reference_l_dne, reference_l_efq, term_positions,
)

A = Eq(ZERO, ZERO)
B = Tr(ZERO)
C = Eq(Succ(ZERO), ZERO)


def _checked(th, config=GAMMA):
    cert = check(th.proof, config)
    assert cert.formula == th.formula
    return cert


def _check_without_truth_schemas(proof):
    """Check ``proof`` after walking its DAG: no node is an omega node,
    whose samples the walk would not reach, and no axiom is an instance of
    CONS, TIMP or UINF."""
    seen, stack = set(), [proof]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        assert type(node) is not Omega
        if type(node) is Axiom:
            assert node.schema not in (SchemaId.CONS, SchemaId.TIMP, SchemaId.UINF)
        stack.extend(_proof_children(node))
    return check(proof, GAMMA)


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


# the cached lemmas and taut, as defined, whatever a test patches in
_KIT = (T.taut_id, T._l_dne, T._l_dni, T._l_efq, T._l_counter, T._l_caa, T._l_cases, T.taut)


def _clear_kit():
    for f in _KIT:
        f.cache_clear()


@settings(max_examples=60, deadline=None)
@given(_props, _props)
def test_cached_lemmas_return_what_a_fresh_call_builds(a, b):
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
        _clear_kit()
        fresh = fn.__wrapped__(*args)
        assert fresh.proof is cached.proof and fresh.formula is cached.formula
        assert check(cached.proof).formula is cached.formula


def _tower(k, a=Eq(ZERO, ZERO)):
    for _ in range(k):
        a = Not(a)
    return a


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 4), st.integers(0, 12))
def test_straight_line_dne_is_the_deduction_compilers_theorem(seed, depth, tower):
    # the lemma written out node by node against the hypothesis tree it was
    # compiled from: the very same proof and formula, for ~~a -> a and for
    # a -> ~~a, which is built on it
    a = _tower(tower, random_formula(random.Random(seed), depth))
    _clear_kit()
    got = T._l_dne(a), T._l_dni(a)
    _clear_kit()
    try:
        with mock.patch.object(T, "_l_dne", cache(reference_l_dne)):
            want = T._l_dne(a), T._l_dni(a)
    finally:
        _clear_kit()
    for g, w in zip(got, want):
        assert g.proof is w.proof and g.formula is w.formula


def test_straight_line_dne_makes_no_hypothesis():
    a = _tower(3)
    _clear_kit()
    with mock.patch.object(T._HHyp, "__init__", side_effect=AssertionError("a hypothesis was made")):
        assert check(T._l_dne(a).proof).formula is Imp(Not(Not(a)), a)
        assert check(T._l_dni(a).proof).formula is Imp(a, Not(Not(a)))
        with pytest.raises(AssertionError, match="a hypothesis was made"):
            reference_l_dne(a)


def test_taut_of_negation_towers_is_the_same_node_with_the_reference_lemma():
    phis = [Imp(_tower(k), _tower(k)) for k in range(1, 65)]
    _clear_kit()
    got = [taut(phi).proof for phi in phis]
    _clear_kit()
    try:
        with mock.patch.object(T, "_l_dne", cache(reference_l_dne)):
            want = [taut(phi).proof for phi in phis]
    finally:
        _clear_kit()
    assert all(g is w for g, w in zip(got, want))


def _same(got, want):
    assert got.proof is want.proof and got.formula is want.formula


def _or_coinciding(rng, a, b):
    """b, or on purpose one of the coincidences b is a and b is ~a."""
    return rng.choice((b, b, a, Not(a)))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 3))
def test_straight_kit_lemmas_are_the_deduction_compilers_theorems(seed, depth):
    # each lemma written out node by node against the hypothesis tree it
    # was compiled from, both built afresh
    rng = random.Random(seed)
    a = random_formula(rng, depth)
    b = _or_coinciding(rng, a, random_formula(rng, depth))
    for fn, ref, args in (
        (T._l_efq, reference_l_efq, (a, b)), (T._l_counter, reference_l_counter, (a, b)),
        (T._l_caa, reference_l_caa, (a,)), (T._l_cases, reference_l_cases, (a, b)),
    ):
        _same(fn.__wrapped__(*args), ref(*args))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 3))
def test_straight_replay_lemmas_are_the_deduction_compilers_theorems(seed, depth):
    rng = random.Random(seed)
    x = random_formula(rng, depth)
    y = _or_coinciding(rng, x, random_formula(rng, depth))
    r = _or_coinciding(rng, x, random_formula(rng, depth))
    # x -> (y -> x), and (y -> x) -> (r -> (y -> x)), both by PROP1
    a = ax(SchemaId.PROP1, Imp(x, Imp(y, x)))
    b = ax(SchemaId.PROP1, Imp(a.formula.cons, Imp(r, a.formula.cons)))
    xx = T.taut_id(x)
    _same(imp_trans(a, b), reference_imp_trans(a, b))
    _same(imp_trans(xx, xx), reference_imp_trans(xx, xx))
    for p in (a, b, xx):
        _same(T._imp_mono_ant(p, r), reference_imp_mono_ant(p, r))
        _same(T._imp_mono_cons(p, r), reference_imp_mono_cons(p, r))
    # ((x -> x) -> r) -> (x -> x): in the tree of _imp_mono_ant its
    # antecedent and (x -> x) -> r are one hypothesis
    a2 = Imp(xx.formula, r)
    p = mp(xx, ax(SchemaId.PROP1, Imp(xx.formula, Imp(a2, xx.formula))))
    got = T._imp_mono_ant(p, r)
    _same(got, reference_imp_mono_ant(p, r))
    assert check(got.proof).formula is Imp(a2, Imp(a2, r))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 300), st.integers(0, 2**64))
def test_iteration_step_instance_is_the_two_substitutions(m, n):
    got = T._iter_step_at(numeral(m), numeral(n))
    _same(got, reference_iter_step_at(numeral(m), numeral(n)))
    assert check(got.proof).formula is got.formula


def test_straight_builders_make_no_hypothesis():
    a, b = A, Not(B)
    p = ax(SchemaId.PROP1, Imp(a, Imp(b, a)))
    q = ax(SchemaId.PROP1, Imp(p.formula.cons, Imp(C, p.formula.cons)))
    _clear_kit()
    with mock.patch.object(T._HHyp, "__init__", side_effect=AssertionError("a hypothesis was made")):
        built = [
            T._l_efq(a, b), T._l_counter(a, b), T._l_caa(a), T._l_cases(a, b),
            imp_trans(p, q), contrapose(p), T._imp_mono_ant(p, C), T._imp_mono_cons(p, C),
            T._iter_step_at(numeral(3), numeral(5)),
            TH._m2(Eq(ZERO, Succ(ZERO)), A), TH._not_zero_one(),
        ]
        for th in built:
            assert check(th.proof).formula is th.formula
        with pytest.raises(AssertionError, match="a hypothesis was made"):
            reference_l_cases(a, b)
    _clear_kit()


def test_straight_imp_trans_and_chain_keep_their_messages():
    a = ax(SchemaId.PROP1, Imp(A, Imp(B, A)))
    for b, against in ((T.taut_id(B), "T(0) -> T(0)"), (refl(ZERO), "0 = 0")):
        msg = f"hypothetical modus ponens mismatch: T(0) -> 0 = 0 against {against}"
        for compose in (imp_trans, reference_imp_trans):
            with pytest.raises(TacticError) as err:
                compose(a, b)
            assert str(err.value) == msg
    with pytest.raises(TacticError) as err:
        chain(a, T.taut_id(C))
    assert str(err.value) == "cannot chain 0 = 0 -> T(0) -> 0 = 0 with #1 = 0 -> #1 = 0"


def test_chain_puts_the_lemma_in_front_only():
    # every omega chain step of the scripts and demos puts its lemma c -> a
    # in front of a -> b; a lemma that would go behind is refused
    a = ax(SchemaId.PROP1, Imp(A, Imp(B, A)))
    front = chain(a, taut(Imp(Not(Not(A)), A)))
    assert front.formula is Imp(Not(Not(A)), a.formula.cons)
    _checked(front)
    with pytest.raises(TacticError) as err:
        chain(a, T.taut_id(a.formula.cons))
    assert str(err.value) == "cannot chain 0 = 0 -> T(0) -> 0 = 0 with (T(0) -> 0 = 0) -> T(0) -> 0 = 0"


def test_mismatched_tactic_inputs_are_refused_by_identity():
    # the failing branch of each comparison of formulas or terms in the
    # tactics check runs, with a formula equal to everything where a
    # foreign __eq__ once decided it
    a, w = ax(SchemaId.PROP1, Imp(A, Imp(B, A))), equals_all()
    cases = [
        (lambda: mp(refl(ZERO), ax(SchemaId.PROP1, Imp(C, Imp(A, C)))),
         "modus ponens mismatch: 0 = 0 against #1 = 0 -> 0 = 0 -> #1 = 0"),
        (lambda: mp(refl(ZERO), refl(ZERO)), "modus ponens mismatch: 0 = 0 against 0 = 0"),
        (lambda: mp(Thm(refl(ZERO).proof, w), a), "modus ponens mismatch: <EqualsAll> against 0 = 0 -> T(0) -> 0 = 0"),
        (lambda: trans(refl(ZERO), refl(Succ(ZERO))), "equality chain mismatch"),
        (lambda: cong_term(refl(ZERO), Add(Var(0), ZERO), (0,)), "position (0,) does not hold the rewritten term"),
        (lambda: rewrite_imp(refl(ZERO), Eq(Var(0), ZERO), (0,)), "position (0,) of x = 0 does not hold 0"),
        (lambda: iff_parts(A), "not a biconditional: 0 = 0"),
        (lambda: iff_parts(Not(Imp(Imp(A, B), Not(Imp(B, C))))),
         "not a biconditional: ~((0 = 0 -> T(0)) -> ~(T(0) -> #1 = 0))"),
        (lambda: iff_parts(Not(Imp(Imp(A, B), Not(Imp(B, w))))),
         "not a biconditional: ~((0 = 0 -> T(0)) -> ~(T(0) -> <EqualsAll>))"),
        (lambda: lift_imp(T.taut_id(A), 2), "depth-2 lift needs a nested implication"),
    ]
    for build, msg in cases:
        with pytest.raises(TacticError) as err:
            build()
        assert str(err.value) == msg


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


@pytest.mark.parametrize("text, size", [
    ("S((#2 + #3))", 7),
    ("((#1 + #2) + S(#3))", 13),
    ("(S(#2) * (#1 + #1))", 7),
    # 196751 is the code of y = 0
    ("sub(#196751, (#0 + #1), (#1 + #2))", 13),
    ("iter(0, S(#7))", 9),
    ("iter(S(#2), (#1 + #2))", 21),
])
def test_eval_closed_proof_sizes(text, size):
    # one term of each kind, each with an argument to evaluate first
    t = parse_term(text)
    th = eval_closed(t)
    assert th.formula.right is numeral(value(t))
    assert check(th.proof, GAMMA).proof_size == size


def _checked_both_ways(eq, phi, path, want):
    """Both directions of phi <-> phi[t at path] check and prove the
    implications between phi and ``want``."""
    fwd = rewrite_imp(eq, phi, path)
    bwd = rewrite_imp(eq, phi, path, forward=False)
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
        rewrite_imp(eq, Tr(ZERO), (0, 1, 4), forward=False)


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
    cert = _check_without_truth_schemas(dr.equivalence_proof)
    assert cert.omega_count == 0


def test_diagonal_lemma_truth_teller():
    dr = diagonal_lemma(Tr(Var(5)), 5)
    assert _check_without_truth_schemas(dr.equivalence_proof).formula == dr.equivalence


def test_diagonal_lemma_reflexive_instance():
    dr = diagonal_lemma(Eq(Var(5), Var(5)), 5)
    cert = _check_without_truth_schemas(dr.equivalence_proof)
    assert cert.omega_count == 0
    # gamma is the reflexive equation on the self-application term
    assert type(dr.gamma) is Eq and dr.gamma.left == dr.gamma.right


def test_tintro_tactic_requires_sentence():
    with pytest.raises(TacticError):
        tintro(Thm(None, Eq(Var(0), Var(0))))
