import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from omegatruth.cli import main

CERT_KEYS = {"formula", "theory", "omega_count", "samples_checked", "proof_size"}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_demo_mcgee_gamma(capsys):
    code, out, err = run(capsys, "demo", "mcgee", "--theory", "gamma", "--json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc["positive"]) == CERT_KEYS
    assert doc["positive"]["omega_count"] == 1
    assert doc["negative"]["omega_count"] == 0
    assert [e["label"] for e in doc["narrative"]] == ["1", "2", "3", "4", "5", "6", "7", "omega"]


def test_demo_mcgee_sigma_fails(capsys):
    code, out, err = run(capsys, "demo", "mcgee", "--theory", "sigma")
    assert code == 1
    assert "MissingSchema(CONS)" in err


def test_demo_via_loeb_sigma_fails(capsys):
    code, out, err = run(capsys, "demo", "mcgee-via-loeb", "--theory", "sigma")
    assert code == 1
    assert "MissingSchema(CONS)" in err


def test_demo_witness_samples(capsys):
    code, out, err = run(capsys, "demo", "witness", "--samples", "3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["instances"]) == 3
    assert doc["universal_negation"]["omega_count"] == 0
    assert all(c["omega_count"] == 0 for c in doc["instances"])
    assert run(capsys, "demo", "witness", "--samples", "0") == (
        2, "", "input error: omega_samples must be at least 1\n")


def test_demo_loeb_sigma(capsys):
    code, out, err = run(capsys, "demo", "loeb", "--theory", "sigma", "--json")
    assert code == 0
    doc = json.loads(out)
    for key in ("m1", "m2", "m3", "a1", "a2", "formalized_loeb"):
        assert set(doc[key]) == CERT_KEYS
        assert doc[key]["theory"] == "sigma"


def test_check_script(tmp_path, capsys):
    path = tmp_path / "tiny.proof"
    path.write_text('(theory sigma)\n(prove (axiom EQ1 "0 = 0"))\n')
    code, out, err = run(capsys, "check", str(path), "--json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == CERT_KEYS
    assert doc["formula"] == "0 = 0"
    assert doc["theory"] == "sigma"


def test_check_respects_sample_counts(tmp_path, capsys):
    path = tmp_path / "gen.proof"
    path.write_text(
        '(theory gamma)\n(samples 3)\n'
        '(prove (omega (family y "x = x") (base (axiom EQ1 "x = x")) (step)))\n'
    )
    _, out, _ = run(capsys, "check", str(path), "--json")
    assert json.loads(out)["samples_checked"] == 3
    _, out, _ = run(capsys, "check", str(path), "--samples", "5", "--json")
    assert json.loads(out)["samples_checked"] == 5
    assert run(capsys, "check", str(path), "--samples", "0") == (
        2, "", "input error: omega_samples must be at least 1\n")


def test_check_script_failure(tmp_path, capsys):
    path = tmp_path / "bad.proof"
    path.write_text('(theory sigma)\n(prove (axiom CONS "0 = 0"))\n')
    code, out, err = run(capsys, "check", str(path))
    assert code == 1
    assert "check failure" in err


def test_check_script_syntax_error(tmp_path, capsys):
    path = tmp_path / "broken.proof"
    path.write_text("(prove (axiom EQ1")
    code, out, err = run(capsys, "check", str(path))
    assert code == 2


def test_check_missing_file(capsys):
    code, out, err = run(capsys, "check", "/nonexistent/file.proof")
    assert code == 2


def test_code_decode_round_trip(capsys):
    code, out, err = run(capsys, "code", "forall y. T(iter(y, x))", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "formula"
    code2, out2, err2 = run(capsys, "decode", doc["code_dec"], "--json")
    assert code2 == 0
    doc2 = json.loads(out2)
    assert doc2["text"] == doc["text"]
    # hex input is accepted as well
    code3, out3, _ = run(capsys, "decode", doc["code_hex"], "--json")
    assert json.loads(out3)["text"] == doc["text"]


def test_code_parse_error_exit_2(capsys):
    code, out, err = run(capsys, "code", "T(0,")
    assert code == 2
    assert "input error" in err


def test_decode_rejects_non_image(capsys):
    code, out, err = run(capsys, "decode", "7")
    assert code == 2


def test_diag_command(capsys):
    code, out, err = run(capsys, "diag", "~forall y. T(iter(y, v))", "v", "--json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"theta", "gamma", "certificate"}
    assert doc["certificate"]["omega_count"] == 0


def test_eval_command(capsys):
    code, out, err = run(capsys, "eval", "(S(#3) * #2)", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == "8"
    assert doc["certificate"]["omega_count"] == 0


def test_eval_open_term_exit_2(capsys):
    code, out, err = run(capsys, "eval", "S(x)")
    assert code == 2


def test_certificate_schema_stable(capsys):
    _, out, _ = run(capsys, "demo", "mcgee", "--json")
    doc = json.loads(out)
    for side in ("positive", "negative"):
        cert = doc[side]
        assert set(cert) == CERT_KEYS
        assert isinstance(cert["formula"], str)
        assert cert["theory"] in ("gamma", "sigma")
        for k in ("omega_count", "samples_checked", "proof_size"):
            assert isinstance(cert[k], int)


def test_check_prints_deeply_nested_certificate(capsys, tmp_path):
    # the formula is proved at any depth; printing it must not need a
    # deeper recursion limit than the default
    k = 1000
    phi = "~" * k + "0 = 0"
    script = tmp_path / "taut.proof"
    script.write_text(f'(theory gamma)\n(prove (taut "{phi} -> {phi}"))\n', encoding="utf-8")
    code, out, err = run(capsys, "check", str(script), "--json")
    assert code == 0, err
    assert json.loads(out)["formula"] == f"{phi} -> {phi}"


def test_code_of_a_numeral_past_4300_digits(capsys):
    text = "T(#" + "9" * 4290 + ")"
    code, out, err = run(capsys, "code", text, "--json")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["text"] == text
    code2, out2, err2 = run(capsys, "decode", doc["code_dec"], "--json")
    assert code2 == 0, err2
    assert json.loads(out2)["text"] == text


def test_check_nested_tintro_past_4300_digits(capsys, tmp_path):
    # at depth 800 the printed name in the certificate has over 4300 digits
    body = '(axiom EQ1 "0 = 0")'
    for _ in range(800):
        body = f"(tintro {body})"
    script = tmp_path / "tintro.proof"
    script.write_text(f"(theory gamma)\n(prove {body})\n", encoding="utf-8")
    code, out, err = run(capsys, "check", str(script), "--json")
    assert code == 0, err
    cert = json.loads(out)
    assert cert["proof_size"] == 801
    assert len(cert["formula"]) > 4300


@pytest.mark.parametrize("was_enabled", [True, False])
def test_main_restores_the_gc_state(capsys, tmp_path, was_enabled):
    bad = tmp_path / "bad.proof"
    bad.write_text('(theory sigma)\n(prove (axiom CONS "0 = 0"))\n')
    seen = []
    frozen = gc.get_freeze_count()
    # the int/str digit limit, which main lifts for the command (Python 3.11+)
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    digits = limit()

    def exit_code(*argv):
        try:
            return main(list(argv))
        except SystemExit as e:  # usage errors exit from argparse
            return e.code
        finally:
            # main restores the caller's collector state and digit limit,
            # and freezes nothing
            seen.append((gc.isenabled(), gc.get_freeze_count(), limit()))

    before = gc.isenabled()
    try:
        (gc.enable if was_enabled else gc.disable)()
        if digits is not None:
            sys.set_int_max_str_digits(5000)
        codes = [
            exit_code("eval", "S(0)"),
            exit_code("check", str(bad)),
            exit_code("code", "T(0,"),
            exit_code("demo", "no-such-demo"),
        ]
    finally:
        (gc.enable if before else gc.disable)()
        if digits is not None:
            sys.set_int_max_str_digits(digits)
    capsys.readouterr()
    assert codes == [0, 1, 2, 2]
    assert seen == [(was_enabled, frozen, None if digits is None else 5000)] * 4


ROOT = Path(__file__).resolve().parent.parent


def run_fresh(*argv, cli=True):
    """``python -m omegatruth.cli`` (or ``python``, without ``cli``) in a
    fresh process, its output piped and block-buffered, so output not
    flushed at exit would be lost."""
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *(["-m", "omegatruth.cli"] if cli else []), *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_check_in_a_fresh_process_matches_the_manifest():
    proofs = ROOT / "scripts" / "proofs"
    res = run_fresh("check", str(proofs / "m3_zero.proof"), "--json")
    assert res.returncode == 0, res.stderr
    manifest = json.loads((proofs / "manifest.json").read_text(encoding="utf-8"))
    assert json.loads(res.stdout) == manifest["m3_zero"]


def test_fresh_process_exit_codes_and_output(tmp_path):
    # the command-line entry freezes the heap and exits with main's code;
    # piped stdout must still be flushed in full
    proof = ROOT / "scripts" / "proofs" / "mcgee_positive.proof"
    manifest = json.loads((ROOT / "scripts" / "proofs" / "manifest.json").read_text(encoding="utf-8"))
    res = run_fresh("check", str(proof), "--json")
    assert (res.returncode, res.stderr) == (0, "")
    assert res.stdout == json.dumps(manifest["mcgee_positive"]) + "\n"

    rejected = tmp_path / "rejected.proof"
    rejected.write_text('(theory sigma)\n(prove (axiom CONS "0 = 0"))\n')
    res = run_fresh("check", str(rejected))
    assert (res.returncode, res.stdout) == (1, "")
    assert res.stderr == "check failure: at node <root> [axiom]: schema CONS is inactive under this theory\n"

    ill_formed = tmp_path / "ill_formed.proof"
    ill_formed.write_text('(theory sigma)\n(prove (axiom EQ1 "0 = 0)\n')
    res = run_fresh("check", str(ill_formed))
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr == "input error: unterminated string literal\n"


def test_cli_import_loads_no_dataclasses_or_inspect():
    # the modules the import adds, so that what site loads is left out;
    # dataclasses and the inspect it pulls in cost every command ~20 ms
    code = "import sys; before = set(sys.modules); import omegatruth.cli; print(*sorted(set(sys.modules) - before))"
    res = run_fresh("-c", code, cli=False)
    assert res.returncode == 0, res.stderr
    added = set(res.stdout.split())
    assert "omegatruth.cli" in added
    assert not added & {"dataclasses", "inspect"}, sorted(added & {"dataclasses", "inspect"})
