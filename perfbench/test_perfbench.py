"""Self-tests of the benchmark's own code.

    python3 -m pytest -q perfbench      (from the repository root)
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import generate  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from child import ChildResult  # noqa: E402


def _files(d):
    return {n: open(os.path.join(d, n), "rb").read() for n in sorted(os.listdir(d)) if n != "inputs.json"}


@pytest.mark.parametrize("workload", sorted(generate.GENERATORS))
def test_generator_is_deterministic(tmp_path, workload):
    a, b, c = (str(tmp_path / n) for n in "abc")
    generate.write_inputs(workload, 5, a, ROOT)
    generate.write_inputs(workload, 5, b, ROOT)
    generate.write_inputs(workload, 6, c, ROOT)
    assert _files(a) == _files(b)
    assert _files(a) != _files(c)


def test_mutants_keep_their_kinds(tmp_path):
    recs = generate.write_inputs("rejects", 3, str(tmp_path), ROOT)
    kinds = {r["kind"] for r in recs}
    assert kinds == {"mp-swap", "theory-flip", "family-numeral"}
    flips = sorted(r["source"] for r in recs if r["kind"] == "theory-flip")
    assert flips == ["mcgee_negative", "mcgee_positive", "mcgee_via_loeb_positive"]
    for r in recs:
        assert r["expect"]["exit"] in (1, 2)


def _result(stdout="", stderr="", rc=0, **kw):
    return ChildResult(argv=[], wall_s=0.1, cpu_s=0.1, peak_rss_mb=10.0, returncode=rc,
                       signal=kw.get("signal"), timed_out=kw.get("timed_out", False),
                       stdout=stdout, stderr=stderr)


def _manifest():
    with open(os.path.join(ROOT, workloads.MANIFEST)) as fh:
        return json.load(fh)


def test_right_answer_passes():
    cert = _manifest()["m1_zero"]
    assert workloads.expect_json(cert)(_result(json.dumps(cert) + "\n")) is None


@pytest.mark.parametrize("bad", [
    "corrupted certificate", "wrong exit code", "traceback", "timeout", "signal", "memory",
])
def test_each_defect_counts_as_a_failure(bad):
    cert = _manifest()["m1_zero"]
    good = json.dumps(cert) + "\n"
    result = {
        "corrupted certificate": _result(json.dumps(dict(cert, proof_size=cert["proof_size"] + 1))),
        "wrong exit code": _result(good, rc=1),
        "traceback": _result(good, "Traceback (most recent call last):\n  ...\nRecursionError: x\n"),
        "timeout": _result(good, timed_out=True, rc=None, signal=9),
        "signal": _result("", rc=None, signal=11),
        "memory": _result("", "Traceback (most recent call last):\nMemoryError\n", rc=1),
    }[bad]
    check = workloads.expect_json(cert)
    reason = check(result)
    assert reason is not None

    cmd = workloads.Command("m1_zero", [], check)
    ok = {"cmd": cmd, "result": _result(good), "reason": None}
    broken = {"cmd": cmd, "result": result, "reason": reason}
    plain = [{"wall_s": 1.0, "cpu_s": 1.0, "records": [ok, broken], "layers": {}}]
    res = run.summarize("scripts", 1, 1, False, [(0.1, 0.1)], plain, [], [], [])
    assert (res["attempted"], res["failed"]) == (2, 1)
    assert res["failed_share"]["value"] == 0.5


def test_traced_failures_are_reported_apart():
    cert = _manifest()["m1_zero"]
    cmd = workloads.Command("m1_zero", [], workloads.expect_json(cert))
    ok = {"cmd": cmd, "result": _result(json.dumps(cert) + "\n"), "reason": None}
    broken = {"cmd": cmd, "result": _result("", "Traceback (most recent call last):\n", rc=1),
              "reason": "traceback"}
    plain = [{"wall_s": 1.0, "cpu_s": 1.0, "records": [ok], "layers": {}}]
    traced = [{"wall_s": 2.0, "cpu_s": 2.0, "records": [broken], "layers": {}}]
    res = run.summarize("scripts", 1, 1, True, [(0.1, 0.1)], plain, traced, [], [])
    assert (res["attempted"], res["failed"]) == (1, 0)
    assert res["traced_failures"] == [("m1_zero", "traceback")]


def test_rejection_checks():
    check = workloads.expect_rejection(2, "input error:")
    assert check(_result("", "input error: mp premises do not fit: a vs b\n", rc=2)) is None
    assert "soundness" in check(_result('{"formula": "0 = 0"}\n', rc=0))
    assert check(_result("", "check failure: x\n", rc=1)) is not None
    assert check(_result("", "Traceback (most recent call last):\nValueError\ninput error: x\n", rc=2))


def test_tail_needs_ten_commands_beyond():
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(41) == 75
    assert run.tail_percentile(40) == 75
    assert run.tail_percentile(19) is None
    t = run.tail([1.0] * 16, 8)
    assert t["percentile"] == 50 and "note" in t
    xs = [float(i) for i in range(1, 83)]   # two passes of 41 commands
    t = run.tail(xs, 41)
    assert t["percentile"] == 75 and t["beyond"] >= 10
    assert t["value"] == pytest.approx(61.75)


def test_traced_self_times_fit_in_wall_time(tmp_path):
    runner = run.Runner(ROOT, str(tmp_path))
    spans_file = str(tmp_path / "spans.json")
    script = os.path.join(ROOT, "scripts", "proofs", "m3_zero.proof")
    cmd = workloads.Command("m3_zero", ["check", "--json", script],
                            workloads.expect_json(_manifest()["m3_zero"]))
    rec = runner.cli(cmd, spans_file)
    result = rec["result"]
    assert rec["reason"] is None
    spans = layers.load(spans_file)
    selfs = layers.self_times(spans)
    assert all(s >= -1e-9 for s in selfs)
    assert 0 < sum(selfs) <= result.wall_s
    names = {spans["names"][i] for i in spans["name"]}
    assert {"cli.main", "proofscript.parse_script", "kernel.check"} <= names
    agg = layers.aggregate(spans)
    assert agg["kernel.check.calls"] == 1
    assert agg["kernel.step_apply.calls"] > 0
    assert agg["kernel.check.self_s"] <= agg["kernel.check.total_s"]


def test_census_agrees_with_kernel_equality():
    import trace_boot
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from omegatruth.kernel import _proof_children
    from omegatruth.proofscript import parse_script

    script = os.path.join(ROOT, "scripts", "proofs", "m3_zero.proof")
    got = trace_boot.census(script)
    with open(script) as fh:
        stack, seen = [parse_script(fh.read()).proof], {}
    while stack:
        p = stack.pop()
        if id(p) not in seen:
            seen[id(p)] = p
            stack.extend(_proof_children(p))
    assert got == {"proof_objects": len(seen), "distinct": len(set(seen.values()))}
    assert got["distinct"] < got["proof_objects"]


def test_instrument_wraps_every_binding():
    code = (
        "import sys; sys.path.insert(0, %r)\n"
        "import trace_boot\n"
        "trace_boot.instrument(trace_boot.Recorder())\n"
        "import omegatruth.cli as c, omegatruth.proofscript as p, omegatruth.kernel as k\n"
        "assert hasattr(c.check, '__traced_original__')\n"
        "assert hasattr(p.parse_formula, '__traced_original__')\n"
        "assert hasattr(k.LiftImp.apply, '__traced_original__')\n"
        "assert c.check is k.check\n"
    ) % HERE
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", ".work"))
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "demos", "--seed", "1",
                        "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                       text=True, timeout=60)
    assert p.returncode != 0
    assert '"metrics"' not in p.stdout
