#!/usr/bin/env python3
"""Rebuild the serialized proof scripts under scripts/proofs/.

Each bundled derivation is constructed in memory, serialized, and re-checked
from its own serialization so the shipped files always reproduce the same
certificates as the in-memory builders.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from omegatruth.cli import certificate
from omegatruth.kernel import GAMMA, SIGMA, THEORIES, check
from omegatruth.proofscript import parse_script, serialize_script
from omegatruth.syntax import Eq, Succ, ZERO
from omegatruth.tactics import refl
from omegatruth.theorems import (
    formalized_loeb, m1, m2, m3, mcgee_original, mcgee_via_loeb,
    tomega_provability,
)

OUT = Path(__file__).resolve().parent / "proofs"


def bundle() -> dict:
    """Script name -> checked in-memory derivation.  The theory it was
    checked under gives the script's (theory ...) header."""
    zero = Eq(ZERO, ZERO)
    z01 = Eq(ZERO, Succ(ZERO))
    ref = mcgee_original(GAMMA)
    ref2 = mcgee_via_loeb(GAMMA)
    return {
        "mcgee_positive": ref.positive,
        "mcgee_negative": ref.negative,
        "mcgee_via_loeb_positive": ref2.positive,
        "not_zero_one": ref2.negative,
        "m1_zero": m1(check(refl(ZERO).proof, SIGMA)),
        "m2_instance": m2(z01, zero, SIGMA),
        "m3_zero": m3(zero, SIGMA),
        "formalized_loeb_zero_one": formalized_loeb(tomega_provability(), z01, SIGMA),
    }


def script_text(cert) -> str:
    return serialize_script(cert.proof, cert.theory.preset_name(), samples=cert.theory.omega_samples)


def main() -> int:
    OUT.mkdir(parents=True, exist_ok=True)
    manifest = {}
    for name, cert in bundle().items():
        text = script_text(cert)
        path = OUT / f"{name}.proof"
        path.write_text(text, encoding="utf-8")
        script = parse_script(text)
        re_cert = check(script.proof, THEORIES[script.theory])
        if certificate(re_cert) != certificate(cert):
            print(f"certificate drift in {name}", file=sys.stderr)
            return 1
        manifest[name] = certificate(re_cert)
        print(f"wrote {path.name}: {path.stat().st_size} bytes, "
              f"omega_count={re_cert.omega_count}")

    (OUT / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    print(f"wrote manifest.json ({len(manifest)} entries)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
