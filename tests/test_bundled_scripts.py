"""The shipped proof scripts must check standalone, reproduce the
certificates recorded in the manifest, and be exactly what serializing the
in-memory derivations gives."""

import importlib.util
import json
from pathlib import Path

import pytest

from omegatruth.kernel import THEORIES, check
from omegatruth.proofscript import parse_script

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
PROOFS = SCRIPTS / "proofs"


def _manifest():
    return json.loads((PROOFS / "manifest.json").read_text())


@pytest.mark.parametrize("name", sorted(_manifest()))
def test_bundled_script_reproduces_certificate(name):
    text = (PROOFS / f"{name}.proof").read_text(encoding="utf-8")
    script = parse_script(text)
    cert = check(script.proof, THEORIES[script.theory])
    assert cert.certificate() == _manifest()[name]


def test_bundled_scripts_match_in_memory_derivations():
    spec = importlib.util.spec_from_file_location("regenerate", SCRIPTS / "regenerate_proof_scripts.py")
    regen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(regen)
    for name, cert in regen.bundle().items():
        shipped = (PROOFS / f"{name}.proof").read_text(encoding="utf-8")
        text = regen.script_text(cert)
        assert text == shipped, name
        assert parse_script(text).proof is cert.proof, name
