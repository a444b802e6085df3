"""Garbage-in fuzzing: failures must be the documented typed errors."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from omegatruth.coding import DecodeError, decode, encode
from omegatruth.proofscript import ScriptError, parse_script
from omegatruth.syntax import Expr, Formula, ParseError, Term, parse_formula


def test_decode_random_integers_fail_cleanly():
    rng = random.Random(211)
    accepted = 0
    for _ in range(3000):
        code = rng.getrandbits(rng.randrange(1, 200)) | 1
        try:
            out = decode(code)
        except DecodeError:
            continue
        assert isinstance(out, (Term, Formula))
        assert encode(out) == code
        accepted += 1
    # near-random bit strings rarely parse, but some do, and those must
    # round-trip exactly
    assert accepted < 3000


def test_decode_bitflips_of_valid_codes_fail_cleanly():
    rng = random.Random(223)
    base = encode(parse_formula("forall y. T(iter(y, sub(#9, #5, x)))"))
    for _ in range(2000):
        flipped = base ^ (1 << rng.randrange(base.bit_length()))
        try:
            out = decode(flipped)
        except DecodeError:
            continue
        assert encode(out) == flipped


def test_formula_parser_fuzz_fails_cleanly():
    rng = random.Random(227)
    alphabet = "0#123xyzv ()=+*~->.forAllTiterSub,"
    for _ in range(2000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 30)))
        try:
            parse_formula(text)
        except ParseError:
            pass


def test_script_parser_fuzz_fails_cleanly():
    rng = random.Random(229)
    pieces = ['(', ')', '"0 = 0"', 'prove', 'axiom', 'EQ1', 'mp', 'omega',
              'family', 'base', 'step', 'theory', 'gamma', '"~x = y"', 'y',
              '7', '-3', 'lift', 'rewrite', 'chain', 'tintro', ';junk\n']
    for _ in range(1500):
        text = " ".join(rng.choice(pieces) for _ in range(rng.randrange(1, 25)))
        try:
            parse_script(text)
        except (ScriptError, ParseError):
            pass


def test_cli_help_and_unknown_command(capsys):
    from omegatruth.cli import main

    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc2:
        main(["frobnicate"])
    assert exc2.value.code == 2


@pytest.mark.parametrize("argv", [
    ["code", "~" * 5000 + "0 = 0"],
    ["eval", "S(" * 3000 + "0" + ")" * 3000],
], ids=["code-5000-negations", "eval-3000-successors"])
def test_deep_nesting_ends_without_a_traceback(argv):
    # a fresh process, so the stack depth at which the input arrives is the
    # one a user gets; exit 0 is fine once no walker recurses per level
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, "-m", "omegatruth.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert "Traceback" not in res.stderr
    assert res.returncode in (0, 2), res.stderr
    if res.returncode == 2:
        assert res.stderr.splitlines()[-1].startswith("input error: ")
