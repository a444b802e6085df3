"""Gates on how work grows with input size, counted rather than timed.

Doubling the input may at most double the work, up to a 2.2x margin.  Each
gate counts something deterministic, so host load cannot move it.  The
input families here are the tautology ``~^k 0 = 0 -> ~^k 0 = 0``, whose
expanded proof has about 32 nodes per unit of k, the QUANT1 instance
``(forall x. ~^n x = 0) -> ~^n 0 = 0``, d pairs of parentheses around
an equation whose left side nests d sums, and the omega sample count N
of the bundled scripts, whose samples after the first add two alternating
numbers of checked nodes, pinned per omega node.
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from omegatruth import kernel, syntax, tactics
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


# the checker's own traced bytes per proof node at taut k = 1000 and 2000:
# about 60 on CPython 3.11 while it kept a memo entry per checked node,
# about 2 since each node keeps its conclusion in a slot
CHECKER_BYTES_PER_NODE = 8


def test_check_memory_is_linear_in_taut_depth():
    # the checker's own allocations: its stack, whose entries name their
    # path by a link to the parent entry, and its omega count table.  A
    # full collection first empties the interpreter's tuple free lists, so
    # that the stack's tuples are traced however warm earlier tests left them
    peaks, sizes = [], []
    for k in (1000, 2000):
        proof = parse_script(_taut_script(k)).proof
        gc.collect()
        tracemalloc.start()
        try:
            sizes.append(check(proof).proof_size)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= LINEAR * peaks[0], peaks
    for peak, size in zip(peaks, sizes):
        assert peak <= CHECKER_BYTES_PER_NODE * size, (peak, size, peak / size)


# traced bytes per proof node of parse_script + check of taut at k = 1000:
# 436 on CPython 3.11 when each node and axiom formula had a (class, child,
# child) intern key and the checker memo a (formula, omega count) pair per
# node, about 275 without them, and about 246 since the checker keeps no
# memo and each node instead holds two slots, a stamp and a conclusion
BYTES_PER_NODE = 265

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


# the checked nodes each omega sample adds at omega_samples = 12, per omega
# node in the order the check reaches them: sample 1 adds the first count,
# samples 2, 4, ... the second and samples 3, 5, ... the third
SAMPLE_INCREMENTS = {
    "formalized_loeb_zero_one": [
        (244, 260, 240), (225, 233, 223), (4, 4, 4), (45, 42, 42), (225, 233, 223), (4, 4, 4),
    ],
    "m1_zero": [(23, 31, 21)],
    "m2_instance": [(244, 260, 240)],
    "m3_zero": [(63, 69, 59)],
    "mcgee_negative": [],
    "mcgee_positive": [(21, 31, 21)],
    "mcgee_via_loeb_positive": [
        (244, 260, 240), (225, 233, 223), (4, 4, 4), (45, 42, 42), (4, 4, 4),
    ],
    "not_zero_one": [],
}


@pytest.mark.parametrize("name", sorted(p.stem for p in PROOFS.glob("*.proof")))
def test_omega_samples_add_pinned_counts(name, monkeypatch):
    # a run with a path is the check of one sample, at the omega node's
    # path plus the sample's child index
    added = {}
    run = kernel._Checker.run

    def recording_run(self, root, path=()):
        before = self.size
        result = run(self, root, path)
        if path:
            added.setdefault(path[:-1], []).append(self.size - before)
        return result

    monkeypatch.setattr(kernel._Checker, "run", recording_run)
    script = parse_script((PROOFS / f"{name}.proof").read_text(encoding="utf-8"))
    check(script.proof, THEORIES[script.theory]._replace(omega_samples=12))
    want = [[first] + [pair[n % 2] for n in range(11)] for first, *pair in SAMPLE_INCREMENTS[name]]
    assert list(added.values()) == want
