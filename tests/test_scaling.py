"""Gates on how work grows with input size, counted rather than timed.

Doubling the input may at most double the work, up to a 2.2x margin.  Each
gate counts something deterministic, so host load cannot move it.  The
input families here are the tautology ``~^k 0 = 0 -> ~^k 0 = 0``, whose
expanded proof has about 32 nodes per unit of k, the QUANT1 instance
``(forall x. ~^n x = 0) -> ~^n 0 = 0``, d pairs of parentheses around
an equation whose left side nests d sums, and the omega sample count N
of the bundled scripts, each of whose samples adds the same number of
checked nodes.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from omegatruth import syntax, tactics
from omegatruth.kernel import THEORIES, Axiom, MP, SchemaId, check
from omegatruth.proofscript import parse_script

LINEAR = 2.2
PROOFS = Path(__file__).resolve().parent.parent / "scripts" / "proofs"


def _taut_script(k: int) -> str:
    phi = "~" * k + "0 = 0"
    return f'(theory gamma)\n(prove (taut "{phi} -> {phi}"))\n'


def test_truth_evaluation_is_linear_in_taut_depth(monkeypatch):
    # truth values are computed once per subformula and valuation: count
    # the step that computes one node's value from its parts' values
    calls = 0
    body = tactics._truth

    def counted(phi, values):
        nonlocal calls
        calls += 1
        return body(phi, values)

    monkeypatch.setattr(tactics, "_truth", counted)
    counts = []
    for k in (500, 1000):
        tactics.taut.cache_clear()
        calls = 0
        parse_script(_taut_script(k))
        counts.append(calls)
    assert counts[1] <= LINEAR * counts[0], counts


def test_quant1_check_is_linear_in_depth(monkeypatch):
    # the occurrence search, the read of the term and the substitution each
    # take a node's children once per node they pass
    calls = 0
    body = syntax._children

    def counted(e):
        nonlocal calls
        calls += 1
        return body(e)

    monkeypatch.setattr(syntax, "_children", counted)
    counts = []
    for n in (10_000, 20_000):
        phi = syntax.parse_formula(f"(forall x. {'~' * n}x = 0) -> {'~' * n}0 = 0")
        calls = 0
        assert check(Axiom(SchemaId.QUANT1, phi)).proof_size == 1
        counts.append(calls)
    assert counts[1] <= LINEAR * counts[0], counts


def test_check_memory_is_linear_in_taut_depth():
    # the checker's own allocations: its memo and its stack, whose entries
    # name their path by a link to the parent entry
    peaks = []
    for k in (1000, 2000):
        proof = parse_script(_taut_script(k)).proof
        tracemalloc.start()
        try:
            check(proof)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= LINEAR * peaks[0], peaks


# traced bytes per proof node of parse_script + check of taut at k = 1000:
# 436 on CPython 3.11 when each node and axiom formula had a (class, child,
# child) intern key and the checker memo a (formula, omega count) pair per
# node, about 275 without them
BYTES_PER_NODE = 330

_MEMORY_PROBE = """
import sys, tracemalloc
from omegatruth.kernel import check
from omegatruth.proofscript import parse_script
tracemalloc.start()
cert = check(parse_script(sys.argv[1]).proof)
print(tracemalloc.get_traced_memory()[1], cert.proof_size)
"""


def test_parse_and_check_memory_per_proof_node():
    # a fresh process, so that no node of the proof is interned beforehand
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, "-c", _MEMORY_PROBE, _taut_script(1000)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert res.returncode == 0, res.stderr
    peak, size = map(int, res.stdout.split())
    assert peak <= BYTES_PER_NODE * size, (peak, size, peak / size)


def test_pair_keyed_nodes_are_distinct_and_interned():
    # MP is interned by its major premise and Imp by its consequent while
    # that is unshared; a second node over the same one is keyed by the pair
    a, b = syntax.parse_formula("0 = 0"), syntax.parse_formula("0 = #1")
    c = syntax.parse_formula("#1 = #1")
    first, second = syntax.Imp(a, c), syntax.Imp(b, c)
    assert first is not second and (first.ant, second.ant) == (a, b)
    assert syntax.Imp(a, c) is first and syntax.Imp(b, c) is second
    p, q, r = (Axiom(SchemaId.EQ1, syntax.Eq(t, t)) for t in (syntax.ZERO, syntax.TWO, syntax.numeral(3)))
    first, second = MP(p, r), MP(q, r)
    assert first is not second and (first.minor, second.minor) == (p, q)
    assert MP(p, r) is first and MP(q, r) is second


def test_parenthesized_formula_parse_is_linear_in_depth():
    # the parser's own allocations, its tokens and frame stack, on d formula
    # parentheses around d left-nested sums: each "(" stays open to both
    # readings until the token after its first operand, "+" for the inner
    # d and "=" for the outer d.  A first parse interns the nodes, so that
    # the growth of the intern tables is not counted
    peaks = []
    for d in (20_000, 40_000):
        text = "(" * 2 * d + "0" + " + 0)" * d + " = 0" + ")" * d
        syntax.parse_formula(text)
        tracemalloc.start()
        try:
            phi = syntax.parse_formula(text)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert type(phi) is syntax.Eq and phi.right is syntax.ZERO
    assert peaks[1] <= LINEAR * peaks[0], peaks


# the checked nodes each further omega sample adds: the replay of the
# steps builds one proof per sample, and all of it is checked
@pytest.mark.parametrize("name, per_sample", [
    ("m1_zero", 26), ("m3_zero", 64), ("m2_instance", 250),
])
def test_proof_size_is_linear_in_samples(name, per_sample):
    script = parse_script((PROOFS / f"{name}.proof").read_text(encoding="utf-8"))
    config = THEORIES[script.theory]
    size = {
        n: check(script.proof, config._replace(omega_samples=n)).proof_size
        for n in (4, 8, 16, 32)
    }
    assert size[8] - size[4] == 4 * per_sample, size
    for n in (4, 8, 16):
        assert size[2 * n] - size[n] == n * (size[8] - size[4]) // 4, size
