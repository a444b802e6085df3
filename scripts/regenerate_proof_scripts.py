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

from omegatruth.kernel import GAMMA, SIGMA, check
from omegatruth.proofscript import parse_script, serialize_script
from omegatruth.syntax import Eq, Succ, ZERO
from omegatruth.tactics import refl
from omegatruth.theorems import (
    formalized_loeb, m1, m2, m3, mcgee_original, mcgee_via_loeb,
    tomega_provability,
)

OUT = Path(__file__).resolve().parent / "proofs"


def bundle() -> dict:
    """Script name -> (theory, checked in-memory derivation)."""
    zero = Eq(ZERO, ZERO)
    z01 = Eq(ZERO, Succ(ZERO))
    ref = mcgee_original(GAMMA)
    ref2 = mcgee_via_loeb(GAMMA)
    return {
        "mcgee_positive": ("gamma", ref.positive),
        "mcgee_negative": ("gamma", ref.negative),
        "mcgee_via_loeb_positive": ("gamma", ref2.positive),
        "not_zero_one": ("gamma", ref2.negative),
        "m1_zero": ("sigma", m1(check(refl(ZERO).proof, SIGMA))),
        "m2_instance": ("sigma", m2(z01, zero, SIGMA)),
        "m3_zero": ("sigma", m3(zero, SIGMA)),
        "formalized_loeb_zero_one": ("sigma", formalized_loeb(tomega_provability(), z01, SIGMA)),
    }


def script_text(theory: str, cert) -> str:
    return serialize_script(cert.proof, theory, samples=cert.theory.omega_samples)


def main() -> int:
    OUT.mkdir(parents=True, exist_ok=True)
    manifest = {}
    for name, (theory, cert) in bundle().items():
        text = script_text(theory, cert)
        path = OUT / f"{name}.proof"
        path.write_text(text, encoding="utf-8")
        config = GAMMA if theory == "gamma" else SIGMA
        re_cert = check(parse_script(text).proof, config)
        if re_cert.certificate() != cert.certificate():
            print(f"certificate drift in {name}", file=sys.stderr)
            return 1
        manifest[name] = re_cert.certificate()
        print(f"wrote {path.name}: {path.stat().st_size} bytes, "
              f"omega_count={re_cert.omega_count}")

    (OUT / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    print(f"wrote manifest.json ({len(manifest)} entries)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
