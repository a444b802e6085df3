"""Child-process bootstrap for traced runs of the omegatruth CLI.

    python3 perfbench/trace_boot.py SPANS_FILE -- <omegatruth arguments>
    python3 perfbench/trace_boot.py --census SCRIPT

The first form imports every module of the package, wraps each binding of
each public function (re-bound imports such as ``cli.check`` and
``proofscript.parse_formula`` included) and the ``apply`` method of every
``StepCombinator`` subclass in a span recorder, asserts that no module still
holds an unwrapped original, and runs ``omegatruth.cli.main``.  Spans
(name, start, end, parent) are kept in memory and written to SPANS_FILE when
the process exits, also when the command raises.

The second form counts the proof objects of a script, reachable by
identity, and how many of them are structurally distinct.
"""

from __future__ import annotations

import array
import enum
import functools
import importlib
import inspect
import json
import sys
import time

MODULES = ("cli", "proofscript", "syntax", "coding", "tactics", "theorems", "kernel")

# A function counts as public when its name has no leading underscore.
# Classes are not wrapped; their public methods are, where named here.
STEP_CLASSES = ("ApplyTIntro", "LiftImp", "RewriteEval", "ChainWith")


class Recorder:
    """Spans in flat arrays: name id, start, end, parent index (-1 = root)."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.name = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("i")
        self.current = -1

    def intern(self, name: str) -> int:
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        return self.name_id[name]

    def wrap(self, fn, span_name: str):
        nid = self.intern(span_name)
        rec = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(rec.start)
            parent = rec.current
            rec.name.append(nid)
            rec.parent.append(parent)
            rec.end.append(0.0)
            rec.start.append(clock())
            rec.current = idx
            try:
                return fn(*args, **kwargs)
            finally:
                rec.end[idx] = clock()
                rec.current = parent

        traced.__traced_original__ = fn
        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "names": self.names,
                "name": self.name.tolist(),
                "start": self.start.tolist(),
                "end": self.end.tolist(),
                "parent": self.parent.tolist(),
            }, fh, separators=(",", ":"))


def _is_public_function(obj, package: str) -> bool:
    return (
        inspect.isfunction(obj)
        and obj.__module__.startswith(package + ".")
        and not obj.__name__.startswith("_")
    )


def instrument(rec: Recorder, package: str = "omegatruth") -> None:
    """Wrap every public function binding in every module of ``package``.

    The same original gets the same wrapper wherever it is bound, and its
    span is named after the module that defines it, e.g. ``kernel.check``.
    """
    mods = [importlib.import_module(package)]
    mods += [importlib.import_module(f"{package}.{m}") for m in MODULES]
    wrappers: dict[int, object] = {}

    def wrapper_for(fn):
        w = wrappers.get(id(fn))
        if w is None:
            short = fn.__module__.rsplit(".", 1)[-1]
            w = wrappers[id(fn)] = rec.wrap(fn, f"{short}.{fn.__name__}")
        return w

    originals = {}
    for mod in mods:
        for name, obj in list(vars(mod).items()):
            if _is_public_function(obj, package):
                originals[id(obj)] = obj
                setattr(mod, name, wrapper_for(obj))

    kernel = sys.modules[f"{package}.kernel"]
    for cls_name in STEP_CLASSES:
        cls = getattr(kernel, cls_name)
        fn = cls.__dict__["apply"]
        originals[id(fn)] = fn
        setattr(cls, "apply", rec.wrap(fn, f"kernel.{cls_name}.apply"))

    leftovers = [
        f"{mod.__name__}.{name}"
        for mod in mods
        for name, obj in vars(mod).items()
        if id(obj) in originals and not hasattr(obj, "__traced_original__")
    ]
    leftovers += [
        f"kernel.{c}.apply" for c in STEP_CLASSES
        if not hasattr(getattr(kernel, c).__dict__["apply"], "__traced_original__")
    ]
    if leftovers:
        raise AssertionError(f"unwrapped originals remain: {leftovers}")


def census(path: str) -> dict:
    """Proof objects of a script reachable by identity, and how many of them
    are structurally distinct.

    Each object gets a canonical number, bottom up, from its type and its
    public slots: formulas and terms by their Goedel code, sub-objects by
    their own canonical number.  This is linear in the proof, where
    deduplicating through the kernel's structural ``__eq__`` is quadratic.
    """
    from omegatruth.coding import encode
    from omegatruth.kernel import Proof
    from omegatruth.proofscript import parse_script
    from omegatruth.syntax import Formula, Term

    def fields(obj):
        for cls in type(obj).__mro__:
            for name in getattr(cls, "__slots__", ()):
                if name != "hash" and not name.startswith("_"):
                    yield getattr(obj, name)

    def is_node(v):
        return hasattr(type(v), "__slots__") and not isinstance(v, (Formula, Term, enum.Enum))

    def nodes_in(v):
        if isinstance(v, (tuple, list)):
            for x in v:
                yield from nodes_in(x)
        elif is_node(v):
            yield v

    canon: dict[int, int] = {}
    table: dict[tuple, int] = {}

    def key(v):
        if isinstance(v, (Formula, Term)):
            return ("code", encode(v))
        if isinstance(v, (tuple, list)):
            return tuple(key(x) for x in v)
        if isinstance(v, enum.Enum):
            return v.value
        return canon[id(v)] if is_node(v) else v

    with open(path, encoding="utf-8") as fh:
        root = parse_script(fh.read()).proof
    proofs: dict[int, Proof] = {}
    stack = [(root, False)]
    while stack:
        obj, ready = stack.pop()
        if id(obj) in canon:
            continue
        if not ready:
            stack.append((obj, True))
            stack.extend((n, False) for f in fields(obj) for n in nodes_in(f) if id(n) not in canon)
            continue
        canon[id(obj)] = table.setdefault((type(obj).__name__, *map(key, fields(obj))), len(table))
        if isinstance(obj, Proof):
            proofs[id(obj)] = obj
    return {"proof_objects": len(proofs), "distinct": len({canon[i] for i in proofs})}


def main(argv: list[str]) -> int:
    if argv[:1] == ["--census"]:
        print(json.dumps(census(argv[1])))
        return 0
    if len(argv) < 2 or argv[1] != "--":
        print("usage: trace_boot.py SPANS_FILE -- ARGS... | --census SCRIPT", file=sys.stderr)
        return 2
    spans_file, cli_args = argv[0], argv[2:]
    rec = Recorder()
    instrument(rec)
    # Each wrapper adds one frame under the function it wraps, so a
    # recursion of public functions needs up to twice the frames it needs
    # untraced.  Verdicts that hinge on the limit are taken from untraced
    # runs only.
    sys.setrecursionlimit(2 * sys.getrecursionlimit())
    cli = sys.modules["omegatruth.cli"]
    try:
        return cli.main(cli_args)
    finally:
        rec.dump(spans_file)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
