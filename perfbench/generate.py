"""Seeded input generator for the `deep-nesting` and `rejects` workloads.

Usage:
    python3 perfbench/generate.py --workload deep-nesting --seed 7 --out DIR

Each input is written to DIR as a proof script, and DIR/inputs.json lists
them in pass order with the verdict each must get.  The same seed gives the
same bytes.  The program under test only ever receives the script files.

Every mutation kind below is kept only because its verdict follows from how
the mutant was made, without running the checker:

- ``mp-swap``: swap the two premises of one ``(mp A B)``.  Expansion needs
  the second premise to prove ``f1 -> ...`` where ``f1`` is what the first
  proves; after the swap that would be a formula containing itself, so the
  script is refused while it is read: exit 2, ``input error:``.
- ``theory-flip``: change ``(theory gamma)`` to ``sigma`` in a script that
  uses a ``CONS`` axiom.  ``CONS`` is inactive under sigma: exit 1,
  ``check failure:``.
- ``family-numeral``: change one closed numeral ``#n`` in an omega
  ``(family ...)``.  Instance 0 of the new family differs from what the
  base proves, so the kernel must reject it: exit 1.  If the omega's changed
  conclusion reaches an ``(mp ...)`` through ``gen`` / ``tintro`` only, the
  premises no longer fit and the script is refused while read: exit 2.

The `deep-nesting` inputs are keyed on nesting depth:

- ``tintro``: ``(tintro ... (tintro (axiom EQ1 "0 = 0")))`` at depth d; the
  certificate is theory gamma, no omega nodes and ``proof_size`` d + 1.
- ``taut``: ``(taut "~^k 0 = 0 -> ~^k 0 = 0")``; the certificate states the
  input formula.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re

# The taut depths are jittered by the seed, so every seed gives other inputs
# while the work per pass stays about the same.  They stay below the depth
# where the certificate printer overflows the recursion limit; the depths
# past it are run as known-defect probes (see KNOWN_DEFECT_PROBES).  The
# tintro depths are fixed: peak RSS grows superlinearly with them (101 MB
# at 119, 105 MB at 121), so jitter would move peak_rss_mb between seeds.
TINTRO_DEPTHS = (30, 60, 90, 120)
TAUT_DEPTHS = (150, 300, 450, 600, 750, 900)
TAUT_JITTER = 4
KNOWN_DEFECT_PROBES = (1000, 2000)

MP_SWAPS_PER_SCRIPT = 4

_BUNDLED = "scripts/proofs"


# ---------------------------------------------------------------------------
# a small s-expression reader that keeps source offsets


class Node:
    """A list form: ``head`` word, ``items`` (Nodes or atom strings), and
    the [start, end) span of the form in the source text."""

    __slots__ = ("head", "items", "start", "end", "parent")

    def __init__(self, start: int):
        self.head = None
        self.items: list = []
        self.start = start
        self.end = start
        self.parent = None


class Atom(str):
    """A bare word or a quoted string, with its source span."""

    start: int
    end: int
    quoted: bool


_TOKEN = re.compile(r'\s+|;[^\n]*|\(|\)|"[^"]*"|[^\s()";]+')


def read_forms(text: str) -> list[Node]:
    top = Node(0)
    stack = [top]
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"cannot read script at offset {pos}")
        tok = m.group()
        if tok == "(":
            node = Node(pos)
            node.parent = stack[-1]
            stack[-1].items.append(node)
            stack.append(node)
        elif tok == ")":
            node = stack.pop()
            node.end = m.end()
            if node.items and isinstance(node.items[0], Atom) and not node.items[0].quoted:
                node.head = node.items[0].lower()
        elif not tok[0].isspace() and tok[0] != ";":
            quoted = tok[0] == '"'
            atom = Atom(tok[1:-1] if quoted else tok)
            atom.start, atom.end, atom.quoted = m.start(), m.end(), quoted
            stack[-1].items.append(atom)
        pos = m.end()
    if len(stack) != 1:
        raise ValueError("unbalanced parentheses")
    return [n for n in top.items if isinstance(n, Node)]


def walk(nodes):
    stack = list(reversed(nodes))
    while stack:
        n = stack.pop()
        yield n
        stack.extend(reversed([c for c in n.items if isinstance(c, Node)]))


def splice(text: str, edits) -> str:
    """Apply non-overlapping (start, end, replacement) edits."""
    out, last = [], 0
    for start, end, new in sorted(edits):
        out.append(text[last:start])
        out.append(new)
        last = end
    out.append(text[last:])
    return "".join(out)


# ---------------------------------------------------------------------------
# mutation kinds


def mp_swap(text: str, forms, rng: random.Random, count: int):
    """Swap the premises of ``count`` mp nodes, one from the middle half of
    each of ``count`` equal strata of the mp nodes in source order.  The
    script is refused once expansion reaches the swapped node, so keeping
    each pick near its stratum's middle keeps the work per seed alike."""
    mps = [n for n in walk(forms) if n.head == "mp" and len(n.items) == 3]
    out = []
    for i in range(count):
        node = mps[int((i + rng.uniform(0.25, 0.75)) * len(mps) / count)]
        a, b = node.items[1], node.items[2]
        mutant = splice(text, [(a.start, a.end, text[b.start:b.end]),
                               (b.start, b.end, text[a.start:a.end])])
        out.append((mutant, 2, "input error:", f"mp at offset {node.start}"))
    return out


def theory_flip(text: str, forms):
    uses_cons = any(
        n.head == "axiom" and len(n.items) > 1 and n.items[1].upper() == "CONS"
        for n in walk(forms)
    )
    theory = next((n for n in forms if n.head == "theory"), None)
    if not uses_cons or theory is None or theory.items[1] != "gamma":
        return []
    word = theory.items[1]
    mutant = splice(text, [(word.start, word.end, "sigma")])
    return [(mutant, 1, "check failure:", "theory gamma -> sigma")]


_NUMERAL = re.compile(r"#(\d+)")


def _family_verdict(omega: Node) -> tuple[int, str]:
    """Where the changed omega conclusion is first compared: at an mp while
    the script is read (exit 2) or by the kernel (exit 1)."""
    node = omega
    while node.parent is not None and node.parent.head in ("gen", "tintro"):
        node = node.parent
    if node.parent is not None and node.parent.head == "mp":
        return 2, "input error:"
    return 1, "check failure:"


def family_numeral(text: str, forms, rng: random.Random):
    """Change one closed numeral in the family of the first omega node in
    source order (the outermost one), by a seeded amount.  Which omega is
    hit decides how much is expanded and checked before the rejection, so
    it is fixed per script to keep the work per seed alike."""
    omega = next((n for n in walk(forms) if n.head == "omega" and not _inside_step(n)), None)
    fam = None if omega is None else next(
        (c for c in omega.items if isinstance(c, Node) and c.head == "family"), None)
    if fam is None or len(fam.items) != 3 or not fam.items[2].quoted:
        return []
    atom = fam.items[2]
    sites = list(_NUMERAL.finditer(atom))
    if not sites:
        return []
    m = sites[rng.randrange(len(sites))]
    old = int(m.group(1))
    new = old + rng.randrange(1, 1000)
    start = atom.start + 1 + m.start(1)
    mutant = splice(text, [(start, start + len(m.group(1)), str(new))])
    code, prefix = _family_verdict(omega)
    return [(mutant, code, prefix, f"family #{old} -> #{new} at offset {omega.start}")]


def _inside_step(node: Node) -> bool:
    p = node.parent
    while p is not None:
        if p.head == "step":
            return True
        p = p.parent
    return False


# ---------------------------------------------------------------------------
# workloads


def tintro_script(depth: int) -> str:
    body = '(axiom EQ1 "0 = 0")'
    for _ in range(depth):
        body = f"(tintro {body})"
    return f"(theory gamma)\n(prove {body})\n"


def taut_formula(k: int) -> str:
    side = "~" * k + "0 = 0"
    return f"{side} -> {side}"


def taut_script(k: int) -> str:
    return f'(theory gamma)\n(prove (taut "{taut_formula(k)}"))\n'


def _taut_expect(k: int) -> dict:
    return {"exit": 0, "formula": taut_formula(k), "theory": "gamma",
            "omega_count": 0, "samples_checked": 0}


def deep_nesting(seed: int, root: str = "."):
    rng = random.Random(seed)
    inputs = []
    for d in TINTRO_DEPTHS:
        inputs.append(({"name": f"tintro-{d}", "kind": "tintro", "depth": d,
                        "expect": {"exit": 0, "theory": "gamma", "omega_count": 0,
                                   "samples_checked": 0, "proof_size": d + 1,
                                   "formula_prefix": "T(#"}},
                       tintro_script(d)))
    for k in TAUT_DEPTHS:
        k += rng.randint(-TAUT_JITTER, TAUT_JITTER)
        inputs.append(({"name": f"taut-{k}", "kind": "taut", "depth": k,
                        "expect": _taut_expect(k)}, taut_script(k)))
    rng.shuffle(inputs)
    # Known defect, run apart from the timed pass: past about depth 990 the
    # certificate printer raises RecursionError and the CLI exits 1 with a
    # traceback.  The verdict a correct checker owes is still acceptance.
    for k in KNOWN_DEFECT_PROBES:
        inputs.append(({"name": f"taut-{k}", "kind": "taut", "depth": k, "probe": True,
                        "expect": _taut_expect(k)}, taut_script(k)))
    return inputs


def rejects(seed: int, root: str = "."):
    rng = random.Random(seed)
    inputs = []
    for path in sorted(os.listdir(os.path.join(root, _BUNDLED))):
        if not path.endswith(".proof"):
            continue
        stem = path[:-len(".proof")]
        with open(os.path.join(root, _BUNDLED, path), encoding="utf-8") as fh:
            text = fh.read()
        forms = read_forms(text)
        kinds = [("mp-swap", m) for m in mp_swap(text, forms, rng, MP_SWAPS_PER_SCRIPT)]
        kinds += [("theory-flip", m) for m in theory_flip(text, forms)]
        kinds += [("family-numeral", m) for m in family_numeral(text, forms, rng)]
        for i, (kind, (mutant, code, prefix, where)) in enumerate(kinds):
            inputs.append(({"name": f"{stem}.{kind}.{i}", "kind": kind, "source": stem,
                            "where": where, "expect": {"exit": code, "stderr": prefix}},
                           mutant))
    rng.shuffle(inputs)
    return inputs


GENERATORS = {"deep-nesting": deep_nesting, "rejects": rejects}


def write_inputs(workload: str, seed: int, out: str, root: str = ".") -> list[dict]:
    """Write the inputs of one seed into ``out``; return their records."""
    items = GENERATORS[workload](seed, root)
    os.makedirs(out, exist_ok=True)
    records = []
    for meta, text in items:
        meta = dict(meta, file=os.path.join(out, meta["name"] + ".proof"))
        with open(meta["file"], "w", encoding="utf-8") as fh:
            fh.write(text)
        records.append(meta)
    with open(os.path.join(out, "inputs.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "inputs": records}, fh, indent=1)
    return records


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(GENERATORS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, help="directory to write the scripts into")
    ap.add_argument("--root", default=".", help="repository root (holds scripts/proofs)")
    args = ap.parse_args(argv)
    records = write_inputs(args.workload, args.seed, args.out, args.root)
    print(f"wrote {len(records)} inputs to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
