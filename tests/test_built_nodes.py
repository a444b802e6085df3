"""The tactics build only proof nodes that a checked proof contains.

Each bundled script and each demo runs in a fresh process, so that the
intern tables hold exactly the proof nodes the command built.  Every one
of them must be reached by one of the command's kernel checks, except the
omega node of the witness demo, which checks that node's instances one by
one instead.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts" / "proofs").glob("*.proof"))

# runs the CLI on argv and prints, as JSON, the number of proof nodes built
# and one label per node that no check reached
_PROBE = """
import contextlib, io, json, sys
from omegatruth import cli, kernel

checkers = []
init = kernel._Checker.__init__

def recording_init(self, config):
    init(self, config)
    checkers.append(self)

kernel._Checker.__init__ = recording_init
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
assert code == 0, code
tables = [*kernel._AXIOMS.values(), kernel._MP, kernel._MP_PAIRS, kernel._GEN,
          kernel._TINTRO, kernel._OMEGA]
built = [p for table in tables for p in table.values()]
reached = set().union(*(c.memo for c in checkers))

def label(p):
    return p.schema.value if type(p) is kernel.Axiom else type(p).__name__

print(json.dumps([len(built), [label(p) for p in built if p not in reached]]))
"""


@pytest.mark.parametrize("argv", [
    *(["check", str(path)] for path in SCRIPTS),
    ["demo", "mcgee"], ["demo", "mcgee-via-loeb"], ["demo", "loeb"], ["demo", "witness"],
], ids=lambda argv: " ".join([argv[0], Path(argv[1]).stem]))
def test_every_built_proof_node_is_checked(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, "-c", _PROBE, *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert res.returncode == 0, res.stderr
    built, unreached = json.loads(res.stdout)
    allowed = {"Omega"} if argv == ["demo", "witness"] else set()
    others = [kind for kind in unreached if kind not in allowed]
    assert not others, f"{len(others)} of {built} built nodes never checked: {sorted(set(others))}"
    if argv == ["demo", "witness"]:
        assert unreached.count("Omega") == 1
