"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines; every
tolerance is pinned here.
"""

import json
import random
import time
from contextlib import contextmanager

import pytest

from omegatruth.cli import main
from omegatruth.coding import decode, encode, sub_fn
from omegatruth.kernel import (
    CheckError, GAMMA, MissingSchema, SIGMA, SchemaId, TheoryConfig, check,
)
from omegatruth.syntax import (
    Eq, Formula, Imp, Not, Succ, Tr, Var, ZERO, numeral, substitute,
)
from omegatruth.tactics import (
    derive_A1, derive_A2, eval_closed, propositional_counterexample, refl,
    taut,
)
from omegatruth.theorems import (
    formalized_loeb, m1, m2, m3, mcgee_original, mcgee_via_loeb,
    omega_witness, tomega_provability,
)

from helpers import (
    mutate_proof, oracle_sub, oracle_taut, oracle_value,
    random_evaluable_term, random_expr, random_formula,
)


@contextmanager
def criterion(n: int, detail: str):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {n}: {detail}")
        raise
    print(f"PASS criterion {n}: {detail}")


def _cli_json(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out


def test_criterion_1_mcgee_refutation(capsys):
    with criterion(1, "demo mcgee: lines 1-7 finitary, omega side count exactly 1, < 10 s"):
        t0 = time.monotonic()
        code, out = _cli_json(capsys, "demo", "mcgee", "--theory", "gamma", "--json")
        elapsed = time.monotonic() - t0
        assert code == 0
        doc = json.loads(out.out)
        labels = [e["label"] for e in doc["narrative"]]
        assert labels == ["1", "2", "3", "4", "5", "6", "7", "omega"]
        assert doc["negative"]["omega_count"] == 0
        assert doc["positive"]["omega_count"] == 1
        assert doc["positive"]["formula"].startswith("forall y. T(iter(y, #")
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_2_witness(capsys):
    with criterion(2, "demo witness --samples 5: negated universal plus 5 finitary instances"):
        code, out = _cli_json(capsys, "demo", "witness", "--samples", "5", "--json")
        assert code == 0
        doc = json.loads(out.out)
        assert doc["universal_negation"]["omega_count"] == 0
        assert len(doc["instances"]) == 5
        assert all(c["omega_count"] == 0 for c in doc["instances"])
        assert doc["universal_negation"]["formula"] == f"~(forall y. {doc['family']})"
        # the instances are exactly the family at successive numerals
        report = omega_witness(GAMMA, 5)
        for n, inst in enumerate(report.instances):
            assert inst.formula == substitute(report.family, report.var, numeral(n))


def test_criterion_3_sigma_splits(capsys):
    with criterion(3, "sigma: M1-M3, A1, A2, formalized Loeb check; both refutations fail"):
        base = check(refl(ZERO).proof, SIGMA)
        assert m1(base).theory.preset_name() == "sigma"
        assert m2(Eq(ZERO, Succ(ZERO)), Eq(ZERO, ZERO), SIGMA).omega_count == 1
        assert m3(Eq(ZERO, ZERO), SIGMA).omega_count == 1
        assert check(derive_A1(Eq(ZERO, ZERO)).proof, SIGMA).omega_count == 0
        assert check(derive_A2(Eq(ZERO, ZERO)).proof, SIGMA).omega_count == 0
        assert formalized_loeb(tomega_provability(), Eq(ZERO, Succ(ZERO)), SIGMA).omega_count >= 1
        with pytest.raises(MissingSchema) as e1:
            mcgee_original(SIGMA)
        assert e1.value.schema is SchemaId.CONS
        with pytest.raises(MissingSchema) as e2:
            mcgee_via_loeb(SIGMA)
        assert e2.value.schema is SchemaId.CONS
        code, out = _cli_json(capsys, "demo", "mcgee", "--theory", "sigma")
        assert code == 1 and "MissingSchema(CONS)" in out.err
        code, out = _cli_json(capsys, "demo", "mcgee-via-loeb", "--theory", "sigma")
        assert code == 1 and "MissingSchema(CONS)" in out.err


def test_criterion_4_loeb_refutation(capsys):
    with criterion(4, "demo mcgee-via-loeb: refutation on 0 = 1 with omega_count <= 3"):
        code, out = _cli_json(capsys, "demo", "mcgee-via-loeb", "--theory", "gamma", "--json")
        assert code == 0
        doc = json.loads(out.out)
        assert doc["positive"]["formula"] == "0 = #1"
        assert doc["negative"]["formula"] == "~0 = #1"
        assert doc["positive"]["omega_count"] <= 3
        labels = [e["label"] for e in doc["narrative"]]
        assert "loeb" in labels and "reflection" in labels


def test_criterion_5a_coding_round_trip():
    with criterion(5, "(a) encode/decode round trip and injectivity on 10^4 expressions"):
        rng = random.Random(101)
        seen = {}
        for _ in range(10_000):
            e = random_expr(rng, 4)
            c = encode(e)
            assert decode(c) == e
            if c in seen:
                assert seen[c] == e
            else:
                seen[c] = e


def test_criterion_5b_sub_fn_oracle():
    with criterion(5, "(b) substitution function equals substitute-then-encode on 500 triples"):
        rng = random.Random(103)
        for _ in range(500):
            phi = random_formula(rng, 3)
            v = rng.randrange(6)
            n = rng.randrange(10_000)
            c = encode(phi)
            assert sub_fn(c, v, n) == oracle_sub(c, v, n)


def test_criterion_5c_taut_oracle():
    with criterion(5, "(c) tautology decision agrees with the truth-table oracle on"
                      " all 4-atom formulas with up to 4 connectives"):
        atoms = [Eq(ZERO, ZERO), Tr(ZERO), Eq(ZERO, Succ(ZERO)), Eq(Var(0), Var(0))]
        levels = [list(atoms)]
        for c in range(1, 5):
            cur = [Not(f) for f in levels[c - 1]]
            for i in range(c):
                j = c - 1 - i
                cur += [Imp(a, b) for a in levels[i] for b in levels[j]]
            levels.append(cur)
        rng = random.Random(107)
        compiled = 0
        total = 0
        for level in levels:
            for phi in level:
                total += 1
                want = oracle_taut(phi)
                got = propositional_counterexample(phi) is None
                assert got == want, repr(phi)
                if want and rng.random() < 0.05 and compiled < 200:
                    cert = check(taut(phi).proof, GAMMA)
                    assert cert.formula == phi
                    compiled += 1
        assert total > 25_000 and compiled >= 100


def test_criterion_5d_eval_oracle():
    with criterion(5, "(d) closed-term evaluation matches the independent evaluator"
                      " on 200 random closed terms"):
        rng = random.Random(109)
        for _ in range(200):
            t = random_evaluable_term(rng, 3)
            th = eval_closed(t)
            assert th.formula == Eq(t, numeral(oracle_value(t)))
            cert = check(th.proof, GAMMA)
            assert cert.formula == th.formula


def test_criterion_6_mutation_fuzzing(mcgee):
    with criterion(6, "1000 single-node mutations: zero silent acceptances"):
        rng = random.Random(113)
        fast = TheoryConfig(omega_samples=2)
        a1 = derive_A1(Eq(ZERO, ZERO))
        a2 = derive_A2(Eq(ZERO, ZERO))
        ev = eval_closed(random_evaluable_term(rng, 3))
        from omegatruth.tactics import diagonal_lemma

        dg = diagonal_lemma(Tr(Var(5)), 5)
        m2c = m2(Eq(ZERO, Succ(ZERO)), Eq(ZERO, ZERO), TheoryConfig(omega_samples=2))
        m1c = m1(check(refl(ZERO).proof, fast))
        pool = [
            (a1.proof, a1.formula, 200),
            (a2.proof, a2.formula, 150),
            (ev.proof, ev.formula, 150),
            (dg.equivalence_proof, dg.equivalence, 150),
            (mcgee.negative.proof, mcgee.negative.formula, 150),
            (m2c.proof, m2c.formula, 100),
            (m1c.proof, m1c.formula, 50),
            (mcgee.positive.proof, mcgee.positive.formula, 50),
        ]
        tried = 0
        for proof, formula, count in pool:
            for _ in range(count):
                mutant = mutate_proof(rng, proof)
                assert mutant != proof
                try:
                    cert = check(mutant, fast)
                except (CheckError, ValueError):
                    tried += 1
                    continue
                assert cert.formula != formula, "silent acceptance with original conclusion"
                tried += 1
        assert tried == 1000


def test_criterion_7_sample_sweep():
    with criterion(7, "all bundled generators validate at 8 and at 16 samples, < 60 s"):
        t0 = time.monotonic()
        for samples in (8, 16):
            config = TheoryConfig(omega_samples=samples)
            sconfig = TheoryConfig(has_cons=False, omega_samples=samples)
            ref = mcgee_original(config)
            assert ref.positive.samples_checked == samples
            ref2 = mcgee_via_loeb(config)
            assert ref2.positive.samples_checked >= samples
            assert m1(check(refl(ZERO).proof, sconfig)).samples_checked == samples
            assert m2(Eq(ZERO, Succ(ZERO)), Eq(ZERO, ZERO), sconfig).samples_checked == samples
            assert m3(Eq(ZERO, ZERO), sconfig).samples_checked == samples
            assert formalized_loeb(tomega_provability(), Eq(ZERO, Succ(ZERO)), sconfig).samples_checked >= samples
        elapsed = time.monotonic() - t0
        assert elapsed < 60.0, f"took {elapsed:.2f}s"
