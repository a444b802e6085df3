"""Garbage-in fuzzing: failures must be the documented typed errors."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from omegatruth.coding import DecodeError, decode, encode
from omegatruth.proofscript import ScriptError, parse_script
from omegatruth.syntax import Formula, ParseError, Term, _cut, parse_formula


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
    # one argument of 120,001 bytes, under Linux's 131,072-byte limit on one
    ["eval", "S(" * 40_000 + "0" + ")" * 40_000],
], ids=["code-5000-negations", "eval-3000-successors", "eval-40000-successors"])
def test_deep_nesting_ends_without_a_traceback(argv):
    # a fresh process, so the stack depth at which the input arrives is the
    # one a user gets; no walker recurses per level, so each is accepted
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, "-m", "omegatruth.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (res.returncode, res.stderr) == (0, "")


DEEP = 40_000
_EQ1_REJECTS = "check failure: at node <root> [axiom]: EQ1: instance does not match the schema: "


def _deep_case(kind):
    """A script nesting one construct DEEP times, and the exit code, stdout
    certificate entries and stderr it must give."""
    n = DEEP
    if kind == "gen":
        proof = "(gen x " * n + '(axiom EQ1 "0 = 0")' + ")" * n
        return proof, 0, {"proof_size": n + 1}, ""
    if kind == "quant1":
        # forall-elimination under DEEP negations: substitution, the
        # occurrence search and the instance check all walk that depth
        proof = f'(axiom QUANT1 "(forall x. {"~" * n}x = 0) -> {"~" * n}0 = 0")'
        return proof, 0, {"proof_size": 1}, ""
    sum_ = "(0 + " * n + "0" + ")" * n
    # each formula as the rejection prints it, before the cut: S(0) is the
    # numeral #1
    formula = {
        "negations": "~" * n + "0 = 0",
        "foralls": "forall x. " * n + "0 = 0",
        "implications": "0 = 0 -> " * n + "0 = 0",
        "successors": "S(" * n + "#1" + ")" * n + " = 0",
        "iters": "iter(" * n + "0" + ", 0)" * n + " = 0",
        "parentheses": "(" * n + "0 = 0" + ")" * n,
        "sums": f"{sum_} = {sum_}",
    }[kind]
    if kind in ("parentheses", "sums"):
        return f'(axiom EQ1 "{formula}")', 0, {"proof_size": 1}, ""
    return f'(axiom EQ1 "{formula}")', 1, None, _EQ1_REJECTS + _cut(formula) + "\n"


@pytest.mark.parametrize("kind", [
    "gen", "quant1", "negations", "foralls", "implications", "successors", "iters", "parentheses", "sums",
])
def test_deep_scripts_in_a_fresh_process(kind, tmp_path):
    # nothing raises the recursion limit, so the C stack is never what
    # ends a deep input, on any Python version
    proof, code, cert, err = _deep_case(kind)
    script = tmp_path / f"{kind}.proof"
    script.write_text(f"(theory gamma)\n(prove {proof})\n", encoding="utf-8")
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, "-m", "omegatruth.cli", "check", str(script), "--json"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert res.returncode >= 0, f"killed by signal {-res.returncode}"
    assert "Traceback" not in res.stderr
    assert (res.returncode, res.stderr) == (code, err)
    assert len(res.stderr.encode("utf-8")) < 300  # a rejection quotes a bounded part
    if cert is not None:
        got = json.loads(res.stdout)
        assert {k: got[k] for k in cert} == cert


def test_a_rejection_prints_only_the_start_of_a_deep_formula(monkeypatch):
    # the DEEP iter( formula is quoted as the whole print, cut, but only
    # its first pieces are printed: counted in nodes visited, not in time
    from omegatruth import kernel, syntax

    deep = "iter(" * DEEP + "0" + ", 0)" * DEEP + " = 0"
    f = parse_formula(deep)
    whole = _cut(syntax.pretty_print(f))
    pieces, visits = syntax._pp_pieces, []
    monkeypatch.setattr(syntax, "_pp_pieces", lambda e: visits.append(e) or pieces(e))
    assert kernel._shown(f) == whole and len(visits) <= 200
    visits.clear()
    with pytest.raises(ScriptError) as err:
        parse_script(f'(theory gamma)(prove (mp (axiom EQ1 "0 = 0") (axiom EQ1 "{deep}")))')
    assert str(err.value) == f"mp premises do not fit: 0 = 0 vs {whole}" and len(visits) <= 200


def _oversized(kind: str) -> str:
    """A script whose offending form is far longer than any message."""
    if kind == "parenthesized-proof":
        # one extra pair of parentheses around the proof of a bundled script
        root = Path(__file__).resolve().parent.parent
        text = (root / "scripts" / "proofs" / "formalized_loeb_zero_one.proof").read_text(encoding="utf-8")
        return text.replace("(prove", "(prove (", 1).rstrip("\n") + ")\n"
    if kind == "schema-name":
        return '(theory gamma)\n(prove (axiom ' + "A" * 100_000 + ' "0 = 0"))\n'
    return "(theory gamma)\n(prove " + "(" * DEEP + "x" + ")" * DEEP + ")\n"  # a deep list


@pytest.mark.parametrize("kind", ["parenthesized-proof", "schema-name", "deep-list"])
def test_script_errors_quote_a_bounded_part_of_the_input(kind, tmp_path):
    script = tmp_path / f"{kind}.proof"
    script.write_text(_oversized(kind), encoding="utf-8")
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, "-m", "omegatruth.cli", "check", str(script)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert res.returncode == 2, res.stderr[-300:]
    assert res.stderr.startswith("input error: ") and res.stderr.count("\n") == 1
    assert len(res.stderr.encode("utf-8")) < 300
