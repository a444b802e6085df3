"""Gates on how work grows with input size, counted rather than timed.

Doubling the input may at most double the work, up to a 2.2x margin.  Each
gate counts something deterministic, so host load cannot move it.  The
input family here is the tautology ``~^k 0 = 0 -> ~^k 0 = 0``, whose
expanded proof has about 32 nodes per unit of k.
"""

from __future__ import annotations

import tracemalloc

from omegatruth import tactics
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

