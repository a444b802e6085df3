"""The four workloads: their commands and how each answer is checked.

Every command is one run of the real CLI, ``python -m omegatruth.cli``,
with ``--json``.  Each gets a ``check`` that inspects the exit code and the
output of that very run and returns ``None`` when the answer is right, or
the reason it is wrong.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

import generate

# Why each was chosen is recorded in BENCHMARK.json at the repository root.
WORKLOADS = ("scripts", "demos", "deep-nesting", "rejects")

MANIFEST = "scripts/proofs/manifest.json"
EXPECTED_DEMOS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected_demos.json")
DEMO_ARGS = {
    "mcgee": ["demo", "mcgee", "--json"],
    "mcgee-via-loeb": ["demo", "mcgee-via-loeb", "--json"],
    "loeb": ["demo", "loeb", "--theory", "sigma", "--json"],
    "witness": ["demo", "witness", "--samples", "5", "--json"],
}


@dataclass
class Command:
    name: str
    args: list            # arguments after the program name
    check: object         # ChildResult -> reason (str) or None
    script: str | None = None   # the script it reads, if any and if accepted
    probe: bool = False   # a known-defect probe: run apart from the timed passes


def failure_reason(result, want_exit: int) -> str | None:
    """Failures common to every command: crash, timeout, memory, traceback,
    wrong exit code."""
    if result.timed_out:
        return "timeout"
    if result.signal is not None:
        return f"killed by signal {result.signal}"
    if "MemoryError" in result.stderr:
        return "out of memory"
    if "Traceback (most recent call last)" in result.stderr:
        last = result.stderr.strip().splitlines()[-1] if result.stderr.strip() else ""
        return f"traceback: {last[:120]}"
    if result.returncode != want_exit:
        return f"exit {result.returncode}, expected {want_exit}"
    return None


def _json_answer(result):
    lines = result.stdout.strip().splitlines()
    if len(lines) != 1:
        return None, f"expected one JSON line on stdout, got {len(lines)}"
    try:
        return json.loads(lines[0]), None
    except json.JSONDecodeError as e:
        return None, f"stdout is not JSON: {e}"


def expect_json(expected):
    def check(result):
        why = failure_reason(result, 0)
        if why:
            return why
        got, why = _json_answer(result)
        if why:
            return why
        if got != expected:
            return f"answer differs from the reference: {json.dumps(got)[:200]}"
        return None
    return check


def expect_fields(fields: dict, formula_prefix: str | None = None):
    def check(result):
        why = failure_reason(result, 0)
        if why:
            return why
        got, why = _json_answer(result)
        if why:
            return why
        for k, v in fields.items():
            if got.get(k) != v:
                return f"{k} is {str(got.get(k))[:80]!r}, expected {str(v)[:80]!r}"
        if formula_prefix and not str(got.get("formula", "")).startswith(formula_prefix):
            return f"formula does not start with {formula_prefix!r}"
        return None
    return check


def expect_rejection(code: int, prefix: str):
    def check(result):
        why = failure_reason(result, code)
        if why:
            return why if result.returncode != 0 else "mutant accepted (soundness failure)"
        if result.stdout.strip():
            return "a rejected script printed a certificate"
        lines = result.stderr.strip().splitlines()
        if not lines or not lines[-1].startswith(prefix):
            return f"stderr does not end with a {prefix!r} line"
        return None
    return check


def resolve_manifest(template, manifest: dict):
    """Replace each {"manifest": NAME} in ``template`` by that certificate."""
    if isinstance(template, dict):
        if set(template) == {"manifest"}:
            return manifest[template["manifest"]]
        return {k: resolve_manifest(v, manifest) for k, v in template.items()}
    if isinstance(template, list):
        return [resolve_manifest(v, manifest) for v in template]
    return template


def build(workload: str, seed: int, root: str, workdir: str) -> list[Command]:
    """The commands of one pass, in the order the seed gives them, followed
    by any known-defect probes."""
    with open(os.path.join(root, MANIFEST), encoding="utf-8") as fh:
        manifest = json.load(fh)
    rng = random.Random(seed)
    if workload == "scripts":
        cmds = [
            Command(name, ["check", "--json", path], expect_json(manifest[name]), script=path)
            for name in sorted(manifest)
            for path in [os.path.join(root, "scripts", "proofs", name + ".proof")]
        ]
        rng.shuffle(cmds)
        return cmds
    if workload == "demos":
        with open(EXPECTED_DEMOS, encoding="utf-8") as fh:
            templates = json.load(fh)["demos"]
        cmds = [
            Command(name, args, expect_json(resolve_manifest(templates[name], manifest)))
            for name, args in DEMO_ARGS.items()
        ]
        rng.shuffle(cmds)
        return cmds
    if workload in generate.GENERATORS:
        cmds = []
        for rec in generate.write_inputs(workload, seed, workdir, root):
            want = dict(rec["expect"])
            if workload == "rejects":
                check, script = expect_rejection(want["exit"], want["stderr"]), None
            else:
                del want["exit"]
                prefix = want.pop("formula_prefix", None)
                check, script = expect_fields(want, prefix), rec["file"]
            cmds.append(Command(rec["name"], ["check", "--json", rec["file"]], check,
                                script=script, probe=rec.get("probe", False)))
        return cmds
    raise ValueError(f"unknown workload {workload!r}")
