"""Benchmark of the omegatruth CLI.

    python3 perfbench/run.py --workload scripts|demos|deep-nesting|rejects|all \
        --seed N --seconds S --trace 0|1

Run from the repository root.  Every command is a fresh ``python -m
omegatruth.cli`` process, started only after the previous one ended: a
closed loop with one client.  Each child runs under its own address-space
limit and wall-clock timeout, and its answer is checked on the output of
that same run.  Passes over the workload's commands repeat until the next
one would end after S seconds (at least one pass).

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
untraced and traced passes alternate, the traced ones run under
perfbench/trace_boot.py, and the per-layer metrics are printed, together
with the tracing overhead (traced minus untraced pass time).  Each metric
is printed as one line with its unit, the full result (with the Python
version, CPU count, commit and seed) is written to perfbench/results/, and
the last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import layers
import workloads
from child import run_child

HERE = os.path.dirname(os.path.abspath(__file__))

END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("pass_cpu_s", "s"),
    ("verdict_s.p50", "s"),
    ("verdict_s.tail", "s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = tuple(layers.SPAN_METRICS) + (
    ("kernel.proof_size", "count"),
    ("kernel.samples_checked", "count"),
    ("proofscript.proof_objects", "count"),
    ("proofscript.distinct_ratio", "ratio"),
    ("trace.overhead_s", "s"),
)

SETUP_SAMPLES = 24
TIMEOUT_S = 60.0
MAX_BYTES = 1 << 30
TAIL_MIN_BEYOND = 10


# ---------------------------------------------------------------------------
# statistics


def tail_percentile(per_pass: int) -> int | None:
    """The highest whole percentile with at least TAIL_MIN_BEYOND of one
    pass's commands beyond it, or None when not even the median has.  It is
    fixed by the workload, not by how many passes fit in the run, so every
    run of a workload reports the same one."""
    p = 100 - math.ceil(100 * TAIL_MIN_BEYOND / per_pass) if per_pass else 0
    return p if p > 50 else None


def tail(values, per_pass: int) -> dict:
    p = tail_percentile(per_pass)
    info = {"samples": len(values), "commands_per_pass": per_pass}
    if p is None:
        p = 50
        info["note"] = (f"a pass has fewer than {TAIL_MIN_BEYOND} commands beyond every "
                        "percentile above the median; the median is shown")
        value = statistics.median(values)
    else:
        value = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
    info.update(percentile=p, value=value, beyond=len(values) * (100 - p) // 100)
    return info


def certificates(answer):
    """Every certificate (a dict with a proof_size) inside a JSON answer."""
    if isinstance(answer, dict):
        if "proof_size" in answer:
            yield answer
        for v in answer.values():
            yield from certificates(v)
    elif isinstance(answer, list):
        for v in answer:
            yield from certificates(v)


# ---------------------------------------------------------------------------
# running


class Runner:
    def __init__(self, root: str, workdir: str):
        self.root = root
        self.workdir = workdir
        src = os.path.join(root, "src")
        self.env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        # str and enum hashes are salted per process unless this is set, and
        # the kernel's structural-equality memo makes check time depend on
        # the salt: mcgee_via_loeb_positive takes 6.8-8.5 s over six salts.
        # A fixed salt keeps that out of the run-to-run spread.
        self.env["PYTHONHASHSEED"] = "0"

    def run(self, argv):
        return run_child(argv, env=self.env, cwd=self.root, timeout_s=TIMEOUT_S,
                         max_bytes=MAX_BYTES, tmpdir=self.workdir)

    def cli(self, cmd, spans_file=None) -> dict:
        """Run one command, traced when ``spans_file`` is given, and check it."""
        if spans_file is None:
            argv = [sys.executable, "-m", "omegatruth.cli", *cmd.args]
        else:
            argv = [sys.executable, os.path.join(HERE, "trace_boot.py"), spans_file, "--", *cmd.args]
        result = self.run(argv)
        return {"cmd": cmd, "result": result, "reason": cmd.check(result)}

    def setup_times(self, count: int) -> list:
        """``count`` fresh imports of omegatruth.cli, as (CPU, wall) seconds."""
        argv = [sys.executable, "-c", "import omegatruth.cli"]
        self.run(argv)  # fills the bytecode cache, as an installed package has it
        times = []
        for _ in range(count):
            r = self.run(argv)
            if r.returncode != 0:
                raise RuntimeError(f"importing omegatruth.cli failed: {r.stderr.strip()[-300:]}")
            times.append((r.cpu_s, r.wall_s))
        return times

    def census(self, script: str) -> dict:
        r = self.run([sys.executable, os.path.join(HERE, "trace_boot.py"), "--census", script])
        if r.returncode != 0:
            raise RuntimeError(f"census of {script} failed: {r.stderr.strip()[-300:]}")
        return json.loads(r.stdout)


def run_pass(runner: Runner, cmds, traced: bool) -> dict:
    """One pass over ``cmds``; with ``traced`` the per-layer numbers too."""
    records = []
    layer_sums: dict = {}
    t0 = time.perf_counter()
    for cmd in cmds:
        spans_file = os.path.join(runner.workdir, "spans.json") if traced else None
        rec = runner.cli(cmd, spans_file)
        records.append(rec)
        result, reason = rec["result"], rec["reason"]
        if traced and os.path.exists(spans_file):
            spans = layers.load(spans_file)
            os.remove(spans_file)
            own = sum(layers.self_times(spans))
            if own > result.wall_s:
                raise RuntimeError(f"{cmd.name}: span self times {own} exceed wall time {result.wall_s}")
            layers.add_into(layer_sums, layers.aggregate(spans))
            if reason is None and result.returncode == 0:
                answer = json.loads(result.stdout)
                certs = list(certificates(answer))
                layers.add_into(layer_sums, {
                    "kernel.proof_size": sum(c["proof_size"] for c in certs),
                    "kernel.samples_checked": sum(c["samples_checked"] for c in certs),
                })
    wall = time.perf_counter() - t0
    return {
        "wall_s": wall,
        "cpu_s": sum(r["result"].cpu_s for r in records),
        "records": records,
        "layers": layer_sums,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: str) -> dict:
    work_root = os.path.join(HERE, ".work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=work_root)
    try:
        runner = Runner(root, workdir)
        # Half the set-up samples before the passes and half after, so the
        # median spans the run rather than one moment of a shared machine.
        setup = runner.setup_times(SETUP_SAMPLES // 2)
        cmds = workloads.build(name, seed, root, workdir)
        timed = [c for c in cmds if not c.probe]
        probes = [c for c in cmds if c.probe]

        plain, traced = [], []
        deadline = time.perf_counter() + seconds
        while True:
            t0 = time.perf_counter()
            plain.append(run_pass(runner, timed, traced=False))
            if trace:
                traced.append(run_pass(runner, timed, traced=True))
            if time.perf_counter() + (time.perf_counter() - t0) > deadline:
                break

        setup += runner.setup_times(SETUP_SAMPLES - SETUP_SAMPLES // 2)
        probe_records = [runner.cli(c) for c in probes]
        census = []
        if trace:
            census = [runner.census(c.script) for c in timed if c.script]
        return summarize(name, seed, seconds, trace, setup, plain, traced, probe_records, census)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# ---------------------------------------------------------------------------
# metrics


def summarize(name, seed, seconds, trace, setup, plain, traced, probe_records, census) -> dict:
    # Verdicts come from the untraced passes only: a traced child runs under
    # a doubled recursion limit and one extra frame per wrapped call, so a
    # failure there may be the trace's own doing, and the doubled limit may
    # hide one.  Traced failures are reported apart, as trace artefacts.
    records = [r for p in plain for r in p["records"]]
    failures = [(r["cmd"].name, r["reason"]) for r in records if r["reason"]]
    attempted, failed = len(records), len(failures)
    trace_failures = [(r["cmd"].name, r["reason"])
                      for p in traced for r in p["records"] if r["reason"]]
    walls = [r["result"].wall_s for p in plain for r in p["records"]]
    tail_info = tail(walls, len(plain[0]["records"]))
    e2e = {
        # CPU time of the child: on a shared machine its wall time also
        # counts the moments the child waits for a CPU.
        "setup_s": statistics.median(cpu for cpu, _ in setup),
        "pass_s": statistics.median(p["wall_s"] for p in plain),
        "pass_cpu_s": statistics.median(p["cpu_s"] for p in plain),
        "verdict_s.p50": statistics.median(walls),
        "verdict_s.tail": tail_info["value"],
        "peak_rss_mb": max(r["result"].peak_rss_mb for p in plain for r in p["records"]),
    }
    probe_failed = sum(1 for r in probe_records if r["reason"])
    out = {
        "workload": name,
        "why": why(name),
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "loop": "closed, one client, one fresh process per command",
        "passes": len(plain),
        "traced_passes": len(traced),
        "commands_per_pass": len(plain[0]["records"]),
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "traced_failures": trace_failures,
        "end_to_end": {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END},
        "setup_samples_cpu_s": [cpu for cpu, _ in setup],
        "setup_samples_wall_s": [wall for _, wall in setup],
        "commands": [
            [{"name": r["cmd"].name, "wall_s": r["result"].wall_s, "cpu_s": r["result"].cpu_s,
              "peak_rss_mb": r["result"].peak_rss_mb, "exit": r["result"].returncode}
             for r in p["records"]]
            for p in plain
        ],
        "tail": tail_info,
        "known_defect_probes": [
            {"name": r["cmd"].name, "failed": r["reason"] is not None, "reason": r["reason"],
             "exit": r["result"].returncode, "wall_s": r["result"].wall_s}
            for r in probe_records
        ],
        # failed_share counts the known-defect probes, run once per run
        "failed_share": {
            "failed": failed + probe_failed,
            "attempted": attempted + len(probe_records),
            "value": (failed + probe_failed) / (attempted + len(probe_records)),
        },
    }
    if trace:
        per_pass = [p["layers"] for p in traced]
        lay = {k: statistics.median(p.get(k, 0) for p in per_pass) for k, _ in PER_LAYER
               if k not in ("proofscript.proof_objects", "proofscript.distinct_ratio",
                            "trace.overhead_s")}
        objects = sum(c["proof_objects"] for c in census)
        lay["proofscript.proof_objects"] = objects
        lay["proofscript.distinct_ratio"] = (
            sum(c["distinct"] for c in census) / objects if objects else 0.0)
        lay["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                   - statistics.median(p["wall_s"] for p in plain))
        out["per_layer"] = {k: {"value": lay[k], "unit": u} for k, u in PER_LAYER}
    return out


def declared() -> dict:
    """BENCHMARK.json of the repository the benchmark runs in."""
    with open(os.path.join(os.getcwd(), "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def why(name: str) -> str:
    """The reason BENCHMARK.json records for a workload."""
    return next((w["why"] for w in declared()["workloads"] if w["name"] == name), "")


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "commit": commit(),
    }


def commit() -> str:
    """HEAD of the checkout, or "unknown" when it is not a git work tree."""
    root = os.getcwd()
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, check=True, timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def report(res: dict) -> None:
    w = res["workload"]
    print(f"# {w}: {res['why']}")
    env = res["environment"]
    print(f"# python {env['python']}, nproc {env['nproc']}, commit {env['commit']}, "
          f"seed {res['seed']}, {res['passes']} pass(es) of {res['commands_per_pass']} commands"
          + (f", {res['traced_passes']} traced" if res["trace"] else ""))
    for k, m in res["end_to_end"].items():
        print(f"{w} {k} = {m['value']:.6g} {m['unit']}")
    t = res["tail"]
    print(f"{w} verdict_s.tail is p{t['percentile']} of {t['samples']} samples, "
          f"{t['beyond']} beyond it")
    fs = res["failed_share"]
    print(f"{w} failed_share = {fs['value']:.6g} ({fs['failed']} of {fs['attempted']} commands)")
    for name, why in res["failures"]:
        print(f"{w} FAILED {name}: {why}")
    for name, why in res["traced_failures"]:
        print(f"{w} traced run only (trace artefact, not counted) {name}: {why}")
    for p in res["known_defect_probes"]:
        state = f"still fails: {p['reason']}" if p["failed"] else "now passes"
        print(f"{w} known-defect probe {p['name']}: {state}")
    for k, m in res.get("per_layer", {}).items():
        print(f"{w} {k} = {m['value']:.6g} {m['unit']}")


def write_result(res: dict, tag: str) -> str:
    out_dir = os.path.join(HERE, "results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{tag}-seed{res['seed']}-trace{res['trace']}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(res, fh, indent=1)
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Benchmark of the omegatruth CLI.")
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # Turn SIGTERM into SystemExit, so run_child kills and reaps the child it waits on.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = os.getcwd()
    needed = [os.path.join(root, p) for p in ("src/omegatruth/cli.py", workloads.MANIFEST, "BENCHMARK.json")]
    missing = [p for p in needed if not os.path.isfile(p)]
    if missing:
        print(f"perfbench: run from the repository root; missing {', '.join(missing)}", file=sys.stderr)
        return 2

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace), root)
        report(res)
        print(f"# wrote {write_result(res, name)}")
        results.append(res)

    # The JSON line carries the metrics BENCHMARK.json declares; the lines
    # above and the result files carry every metric.
    key = "per_layer" if args.trace else "end_to_end"
    names = [m["name"] for m in declared()[key]]
    prefix = len(results) > 1
    metrics = {f"{r['workload']}.{k}" if prefix else k: r[key][k] for r in results for k in names}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
