"""Per-layer metrics from the spans that trace_boot.py writes.

A span's self time is its duration minus the durations of the spans nested
directly inside it.  A group's ``total_s`` counts only its outermost spans,
so a group that calls itself is not counted twice.
"""

from __future__ import annotations

import json

STEP_APPLY = tuple(f"kernel.{c}.apply" for c in ("ApplyTIntro", "LiftImp", "RewriteEval", "ChainWith"))

# metric prefix -> span names in the group
GROUPS = {
    "kernel.check": ("kernel.check",),
    "kernel.step_apply": STEP_APPLY,
    "proofscript.read": ("proofscript.parse_script",),
    "proofscript.expand": ("proofscript.expand",),
    "syntax.parse": ("syntax.parse_formula", "syntax.parse_term", "syntax.parse"),
    "tactics.macro": ("tactics.taut", "tactics.eval_closed", "tactics.derive_A1",
                      "tactics.derive_A2", "tactics.diagonal_lemma"),
    "tactics.step": ("tactics.tintro", "tactics.lift_imp", "tactics.rewrite_align", "tactics.chain"),
    "coding.name_of": ("coding.name_of",),
    "syntax.numeral": ("syntax.numeral",),
    "coding.encode": ("coding.encode",),
    "coding.decode": ("coding.decode",),
    "coding.sub_fn": ("coding.sub_fn",),
    "coding.iter_fn": ("coding.iter_fn",),
    "coding.value": ("coding.value",),
    "syntax.substitute": ("syntax.substitute",),
    "syntax.pretty_print": ("syntax.pretty_print",),
}
# every public function of the module
MODULE_GROUPS = ("cli", "proofscript", "syntax", "coding", "tactics", "theorems", "kernel")

# (metric, unit) reported by a traced run, in this order
SPAN_METRICS = (
    [("kernel.check.calls", "count"), ("kernel.check.total_s", "s"), ("kernel.check.self_s", "s"),
     ("kernel.step_apply.calls", "count"), ("kernel.step_apply.total_s", "s"),
     ("proofscript.read.self_s", "s"), ("proofscript.expand.self_s", "s"),
     ("syntax.parse.calls", "count"), ("syntax.parse.self_s", "s"),
     ("tactics.macro.calls", "count"), ("tactics.macro.self_s", "s"), ("tactics.step.self_s", "s"),
     ("theorems.build.self_s", "s"),
     ("coding.name_of.calls", "count"), ("coding.name_of.self_s", "s"),
     ("syntax.numeral.calls", "count"), ("syntax.numeral.self_s", "s")]
    + [(f"coding.{f}.self_s", "s") for f in ("encode", "decode", "sub_fn", "iter_fn", "value")]
    + [("syntax.substitute.self_s", "s"), ("syntax.pretty_print.self_s", "s")]
    + [(f"layer.{m}.self_s", "s") for m in MODULE_GROUPS]
    + [("trace.spans", "count")]
)


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def self_times(spans: dict) -> list[float]:
    start, end, parent = spans["start"], spans["end"], spans["parent"]
    child = [0.0] * len(start)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += end[i] - start[i]
    return [end[i] - start[i] - child[i] for i in range(len(start))]


def aggregate(spans: dict) -> dict[str, float]:
    """The SPAN_METRICS values of one command's spans."""
    names = [spans["names"][i] for i in spans["name"]]
    selfs = self_times(spans)
    dur = [e - s for s, e in zip(spans["start"], spans["end"])]
    parent = spans["parent"]
    groups = dict(GROUPS)
    groups["theorems.build"] = tuple(n for n in spans["names"] if n.startswith("theorems."))
    for m in MODULE_GROUPS:
        groups[f"layer.{m}"] = tuple(n for n in spans["names"] if n.startswith(m + "."))
    wanted = {k for k, _ in SPAN_METRICS}
    out = {}
    for g, members in groups.items():
        members = set(members)
        idx = [i for i, n in enumerate(names) if n in members]
        out[f"{g}.calls"] = len(idx)
        out[f"{g}.self_s"] = sum(selfs[i] for i in idx)
        if f"{g}.total_s" not in wanted:
            continue
        total = 0.0
        for i in idx:
            p = parent[i]
            while p >= 0 and names[p] not in members:
                p = parent[p]
            if p < 0:
                total += dur[i]
        out[f"{g}.total_s"] = total
    out["trace.spans"] = len(names)
    return {k: out[k] for k, _ in SPAN_METRICS}


def add_into(acc: dict, part: dict) -> None:
    for k, v in part.items():
        acc[k] = acc.get(k, 0) + v
