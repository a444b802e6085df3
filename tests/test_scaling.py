"""Gates on how work grows with input size, counted rather than timed.

Doubling the input may at most double the work, up to a 2.2x margin.  Each
gate counts something deterministic, so host load cannot move it.  The
input families here are the tautology ``~^k 0 = 0 -> ~^k 0 = 0``, whose
expanded proof has about 32 nodes per unit of k, and the formula
``0 = 0`` inside d pairs of parentheses.
"""

from __future__ import annotations

import sys
import tracemalloc

from omegatruth import syntax, tactics
from omegatruth.kernel import check
from omegatruth.proofscript import parse_script

LINEAR = 2.2


def _taut_script(k: int) -> str:
    phi = "~" * k + "0 = 0"
    return f'(theory gamma)\n(prove (taut "{phi} -> {phi}"))\n'


def test_truth_evaluation_is_linear_in_taut_depth(monkeypatch):
    # truth values are computed once per subformula and valuation
    calls = 0
    body = tactics._t_eval

    def counted(phi, v):
        nonlocal calls
        calls += 1
        return body(phi, v)

    monkeypatch.setattr(tactics, "_t_eval", counted)
    counts = []
    for k in (500, 1000):
        tactics.taut.cache_clear()
        calls = 0
        parse_script(_taut_script(k))
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


def test_parenthesized_formula_parse_is_linear_in_depth(monkeypatch):
    # a term is tried at each "(" and backed off from at the "="; a failed
    # try is not repeated from the same token
    calls = 0
    body = syntax._Parser.term

    def counted(self):
        nonlocal calls
        calls += 1
        return body(self)

    monkeypatch.setattr(syntax._Parser, "term", counted)
    counts = []
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 20_000))
    try:
        for d in (500, 1000):
            calls = 0
            assert syntax.parse_formula("(" * d + "0 = 0" + ")" * d) is syntax.Eq(syntax.ZERO, syntax.ZERO)
            counts.append(calls)
    finally:
        sys.setrecursionlimit(limit)
    assert counts[1] <= LINEAR * counts[0], counts
