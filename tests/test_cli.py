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


_G = "#1312693938656945967785784122212728150755499720023008205839"  # the code of gamma
_DIAG = "sub(#964415193226009614, #5, #964415193226009614)"  # a term whose value is _G
_W = f"forall y. T(iter(y, {_G}))"  # T^omega(#gamma)
_NOT_W = "#184745247920406026394526497457065719478983439264916459042446976489217040"  # #~T^omega(#gamma)


@pytest.mark.parametrize("name, lines", [
    ("mcgee", [
        f"1. ~((~(forall y. T(iter(y, {_DIAG}))) -> ~({_W})) -> ~(~({_W}) -> ~(forall y. T(iter(y, {_DIAG})))))"
        "    ; diagonal fixed point",
        f"2. ~((T({_G}) -> T({_NOT_W})) -> ~(T({_NOT_W}) -> T({_G})))    ; from 1 by T-Intro and T-Imp",
        f"3. T({_G}) -> ~T(#12201589250641931708657600900140083167705714960656795163383870894234640)"
        "    ; from 2 by Cons",
        f"4. T({_G}) -> ~({_W})    ; from 3 by A1",
        f"5. ({_W}) -> T({_G})    ; A2",
        f"6. ~({_W})    ; from 4 and 5",
        f"7. ~(forall y. T(iter(y, {_DIAG})))    ; from 1 and 6",
        f"omega. {_W}    ; omega rule over the truth-iteration family",
    ]),
    ("mcgee-via-loeb", [
        "q. ~0 = #1    ; Robinson arithmetic",
        "internal-consistency. ~T(#200564)    ; by T-Intro and Cons",
        "omega-consistency. ~(forall y. T(iter(y, #200564)))    ; by A2, contraposed",
        "reflection. (forall y. T(iter(y, #200564))) -> 0 = #1    ; vacuous reflection from omega-consistency",
        "loeb. 0 = #1    ; Loeb's theorem for the omega-truth predicate",
    ]),
])
def test_refutation_demos_print_each_line_with_its_justification(capsys, name, lines):
    code, out, err = run(capsys, "demo", name)
    assert (code, err) == (0, "")
    head = "refutation under gamma: both sides below are machine-checked"
    assert out.split("\n")[:len(lines) + 2] == [head, *(f"  {line}" for line in lines), ""]


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


def test_check_theory_comes_from_the_option_then_the_header_then_gamma(tmp_path, capsys):
    path = tmp_path / "bare.proof"
    path.write_text('(prove (axiom EQ1 "0 = 0"))\n')
    _, out, _ = run(capsys, "check", str(path), "--json")
    assert json.loads(out)["theory"] == "gamma"
    path.write_text('(theory sigma)\n(prove (axiom EQ1 "0 = 0"))\n')
    _, out, _ = run(capsys, "check", str(path), "--theory", "gamma", "--json")
    assert json.loads(out)["theory"] == "gamma"


def test_check_and_demo_share_their_options_help():
    from omegatruth.cli import build_parser

    sub = next(a for a in build_parser()._actions if a.dest == "command")

    def helps(command):
        return {opt: a.help for a in sub.choices[command]._actions for opt in a.option_strings}

    check, demo = helps("check"), helps("demo")
    for opt in ("--theory", "--samples", "--max-omega", "--json", "--quiet"):
        assert check[opt] and check[opt] == demo[opt], opt


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


def test_check_rejects_zero_samples_in_the_header(tmp_path, capsys):
    # the header's count is used as given, like the command-line option
    path = tmp_path / "zero.proof"
    path.write_text('(theory sigma)\n(samples 0)\n(prove (axiom EQ1 "0 = 0"))\n')
    assert run(capsys, "check", str(path)) == (
        2, "", "input error: omega_samples must be at least 1\n")


def test_check_rejects_a_second_theory_header(tmp_path, capsys):
    # the second header is an input error, not a check under sigma
    path = tmp_path / "two_theories.proof"
    path.write_text('(theory gamma)\n(theory sigma)\n(prove (axiom CONS "T(#434671) -> ~T(#25071)"))\n')
    assert run(capsys, "check", str(path)) == (
        2, "", "input error: script holds more than one (theory ...) form\n")


@pytest.mark.parametrize("header, message", [
    ('(theory "sigma")', "theory must be gamma or sigma"),
    ('(samples "3")', "expected a sample count, got '3'"),
])
def test_check_rejects_a_quoted_header_atom(tmp_path, capsys, header, message):
    # both headers take a bare atom: a quoted name is not checked under sigma
    path = tmp_path / "quoted.proof"
    path.write_text(f'{header}\n(prove (axiom EQ1 "0 = 0"))\n')
    assert run(capsys, "check", str(path)) == (2, "", f"input error: {message}\n")


def test_check_rejects_a_negative_omega_cap(capsys):
    # a cap below 0 is an input error, not a failure of a proof without omega
    path = str(Path(__file__).resolve().parent.parent / "scripts" / "proofs" / "not_zero_one.proof")
    assert run(capsys, "check", path, "--max-omega", "-1") == (
        2, "", "input error: max_omega_count must be at least 0\n")
    code, out, err = run(capsys, "check", path, "--max-omega", "0", "--quiet")
    assert (code, err) == (0, "") and "omega_count=0" in out


@pytest.mark.parametrize("script, message", [
    ('(samples +3)\n(prove (axiom EQ1 "0 = 0"))', "expected a sample count, got '+3'"),
    ('(samples 1_0)\n(prove (axiom EQ1 "0 = 0"))', "expected a sample count, got '1_0'"),
    ('(prove (axiom EQ1 "#٣ = #3"))', "unexpected character '#' (line 1, column 1)"),
    ('(prove (gen v١ (axiom EQ1 "0 = 0")))', "expected a variable name, got 'v١'"),
])
def test_naturals_are_ascii_digits(tmp_path, capsys, script, message):
    path = tmp_path / "digits.proof"
    path.write_text(f"(theory sigma)\n{script}\n", encoding="utf-8")
    assert run(capsys, "check", str(path)) == (2, "", f"input error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    (["check", "{m1}", "--max-omega", "١"], "expected an omega cap or 'unlimited', got '١'"),
    (["check", "{m1}", "--max-omega", "+1"], "expected an omega cap or 'unlimited', got '+1'"),
    (["check", "{m1}", "--max-omega", "1_0"], "expected an omega cap or 'unlimited', got '1_0'"),
    (["check", "{m1}", "--samples", "٣"], "expected a sample count, got '٣'"),
    (["check", "{m1}", "--samples", "+3"], "expected a sample count, got '+3'"),
    (["demo", "witness", "--samples", "٣"], "expected a sample count, got '٣'"),
    (["demo", "witness", "--samples", "1_0"], "expected a sample count, got '1_0'"),
    (["demo", "mcgee", "--max-omega", "١"], "expected an omega cap or 'unlimited', got '١'"),
])
def test_command_line_naturals_are_ascii_digits(capsys, argv, message):
    # the command line reads its counts as scripts do
    m1 = str(Path(__file__).resolve().parent.parent / "scripts" / "proofs" / "m1_zero.proof")
    argv = [a.format(m1=m1) for a in argv]
    assert run(capsys, *argv) == (2, "", f"input error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    (["demo", "witness", "--samples", "{arg}"], "expected a sample count, got 'xxx"),
    (["decode", "{arg}"], "expected a code in decimal or 0x hex, got 'xxx"),
    (["diag", "v = v", "{arg}"], "unknown variable 'xxx"),
], ids=["sample-count", "code", "variable"])
def test_a_long_bad_argument_is_quoted_in_part(capsys, argv, message):
    arg = "x" * 100_000
    code, out, err = run(capsys, *(a.format(arg=arg) for a in argv))
    assert (code, out) == (2, "")
    assert err.startswith(f"input error: {message}") and err.count("\n") == 1
    assert "xxx..." in err and len(err.encode("utf-8")) < 300


@pytest.mark.parametrize("argv, message", [
    (["code", "x" * 100_000], "unknown identifier 'xxx"),
    (["code", "0 = 0 " + "y" * 100_000], "trailing input after formula, found 'yyy"),
    (["code", "forall " + "q" * 100_000 + ". 0 = 0"], "expected a variable after 'forall', found 'qqq"),
    (["code", "f" * 100_000 + "(0)"], "unknown identifier 'fff"),
], ids=["identifier", "trailing-input", "forall-variable", "function-symbol"])
def test_a_long_bad_token_is_quoted_in_part(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"input error: {message}") and err.count("\n") == 1
    assert len(err.encode("utf-8")) < 300


def test_a_bad_token_up_to_the_cut_is_quoted_whole(capsys):
    # its repr is 120 characters, the most that is quoted uncut
    name = "x" * 118
    assert run(capsys, "code", name) == (2, "", f"input error: unknown identifier '{name}' (line 1, column 1)\n")


@pytest.mark.parametrize("argv, message", [
    (["decode", "1"], "code lacks the sentinel bit"),
    (["decode", "94"], "trailing bits after a complete expression"),
    (["decode", "289"], "code is not in canonical form"),
    (["decode", "29"], "invalid node tag 13"),
    (["eval", "x"], "open term: variable 0 has no value"),
    (["eval", "sub(#1, #0, #0)"], "sub: first argument does not decode: code lacks the sentinel bit"),
    (["eval", "sub(#47, #0, #0)"], "sub: first argument is not the code of a formula"),
    (["diag", "x = y", "x"], "diagonalization needs exactly one free variable 0, got [0, 1]"),
])
def test_coding_and_diagonal_rejections_are_input_errors(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"input error: {message}\n")


@pytest.mark.parametrize("old, new, message", [
    ("(step ", "(junk 1 2) (step ", "unknown omega part 'junk'"),
    ("(family y", '(family y "0 = 0") (family y', "omega holds more than one (family ...) part"),
    (" (step (t-intro) (rewrite 0))", "", "omega needs (family ...), (base ...) and (step ...)"),
], ids=["unknown-part", "second-family", "no-step"])
def test_check_rejects_unknown_repeated_and_missing_omega_parts(tmp_path, capsys, old, new, message):
    text = (ROOT / "scripts" / "proofs" / "m1_zero.proof").read_text(encoding="utf-8")
    assert text.count(old) == 1
    path = tmp_path / "rejected.proof"
    path.write_text(text.replace(old, new))
    assert run(capsys, "check", str(path)) == (2, "", f"input error: {message}\n")


def test_mp_premises_that_do_not_fit_are_quoted_in_part(tmp_path, capsys):
    path = tmp_path / "mp.proof"
    path.write_text('(theory sigma)\n(prove (mp (axiom EQ1 "0 = 0") (axiom EQ1 "0 = 0")))\n')
    assert run(capsys, "check", str(path)) == (
        2, "", "input error: mp premises do not fit: 0 = 0 vs 0 = 0\n")
    n = 20_000
    path.write_text(
        f'(theory sigma)\n(prove (mp (axiom EQ1 "{"S(" * n}0{")" * n} = 0") (axiom EQ1 "0 = 0")))\n')
    code, out, err = run(capsys, "check", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("input error: mp premises do not fit: S(S(") and err.count("\n") == 1
    assert err.endswith("... vs 0 = 0\n") and len(err.encode("utf-8")) < 400


_PROVES_0_EQ_1 = """(theory sigma)
(prove (mp (axiom EQ1 "0 = 0")
  (mp (taut "0 = 0 -> 0 = 0")
    (mp (axiom PROP1 "0 = 0 -> 0 = 0 -> 0 = 0")
      (axiom PROP2 "(0 = 0 -> 0 = 0 -> 0 = 0) -> (0 = 0 -> 0 = 0) -> 0 = 0 -> 0 = #1")))))
"""


@pytest.mark.parametrize("script, message", [
    # a PROP2 that keeps three of its four identities and so would prove 0 = #1
    (_PROVES_0_EQ_1,
     "at node 1/1/1 [axiom]: PROP2: instance does not match the schema: "
     "(0 = 0 -> 0 = 0 -> 0 = 0) -> (0 = 0 -> 0 = 0) -> 0 = 0 -> 0 = #1"),
    ('(theory gamma)\n(prove (axiom CONS "T(x) -> ~T(x)"))\n',
     "at node <root> [axiom]: CONS: arguments are not names of formulas: T(x) -> ~T(x)"),
    # #47 is the code of the term 0, not of a formula
    ('(theory gamma)\n(prove (axiom UINF "(forall x. T(sub(#47, #5, x))) -> T(#29135)"))\n',
     "at node <root> [axiom]: UINF: first argument is not the name of a formula (nearest: QUANT1: "
     "consequent is not a substitution instance of the quantified body): "
     "(forall x. T(sub(#47, #5, x))) -> T(#29135)"),
    ('(theory gamma)\n(prove (axiom UINF "(forall x. T(sub(#47, y, x))) -> T(#29135)"))\n',
     "at node <root> [axiom]: UINF: name or variable-index argument is not a canonical numeral "
     "(nearest: QUANT1: consequent is not a substitution instance of the quantified body): "
     "(forall x. T(sub(#47, y, x))) -> T(#29135)"),
], ids=["prop2-proving-0-eq-1", "cons-on-open-terms", "uinf-on-a-term-name", "uinf-variable-index"])
def test_unsound_axioms_are_check_failures(tmp_path, capsys, script, message):
    path = tmp_path / "unsound.proof"
    path.write_text(script)
    assert run(capsys, "check", str(path)) == (1, "", f"check failure: {message}\n")


_QUANT1_NEAR = " (nearest: QUANT1: consequent is not a substitution instance of the quantified body)"


# one near miss per matcher rejection that no other input reaches; the
# names are codes: #24623 is x = 0, #25071 is 0 = 0, #434223 is ~x = 0,
# #7382753327 is x = 0 -> x = 0, #1573893 is y = z, #196751 is y = 0 and
# #474481669 is forall y. y = z
@pytest.mark.parametrize("schema, instance, reason", [
    ("EQ2", "0 = #1 -> (0 + 0) = (#1 + #1)",
     "right side is not a one-position rewrite of the left side"),
    ("CONS", "T(#434223) -> ~T(#24623)", "named formula is not a sentence"),
    ("CONS", "T(#25071) -> ~T(#25071)", "left name is not the negation of the right name"),
    ("TIMP", "T(#7382753327) -> T(#24623) -> T(#24623)", "named formulas are not sentences"),
    ("TIMP", "T(#25071) -> T(#25071) -> T(#25071)",
     "first name is not the implication of the other two (nearest: PROP1 matches)"),
    ("UINF", "(forall x. T(sub(#1573893, #1, x))) -> T(#474481669)",
     "named formula has free variables other than the distinguished one" + _QUANT1_NEAR),
    ("UINF", "(forall x. T(sub(#196751, #1, x))) -> T(#25071)",
     "consequent does not name the universal closure" + _QUANT1_NEAR),
    ("COMP_SUB", "sub(#196751, #1, 0) = #5", "right side disagrees with the substitution function"),
], ids=["eq2-two-positions", "cons-open-name", "cons-not-a-negation", "timp-open-names",
        "timp-not-an-implication", "uinf-second-free-variable", "uinf-wrong-closure",
        "comp-sub-wrong-value"])
def test_matcher_near_misses_are_check_failures(tmp_path, capsys, schema, instance, reason):
    path = tmp_path / "near_miss.proof"
    path.write_text(f'(theory gamma)(prove (axiom {schema} "{instance}"))')
    message = f"check failure: at node <root> [axiom]: {schema}: {reason}: {instance}\n"
    assert run(capsys, "check", str(path)) == (1, "", message)


# the matcher branches reached only by a numeral that decodes to nothing:
# #3 and #5 are truncated codes, and COMP_SUB's first argument too
@pytest.mark.parametrize("schema, instance, message", [
    ("CONS", "T(#3) -> ~T(#5)", "CONS: arguments are not names of formulas: T(#3) -> ~T(#5)"),
    ("TIMP", "T(#3) -> T(#5) -> T(#7)", "TIMP: arguments are not names of formulas: T(#3) -> T(#5) -> T(#7)"),
    ("COMP_SUB", "sub(#3, #1, #0) = #0",
     "COMP_SUB: sub: first argument does not decode: truncated code: sub(#3, #1, 0) = 0"),
], ids=["cons-undecodable-names", "timp-undecodable-names", "comp-sub-undecodable-code"])
def test_undecodable_names_are_check_failures(tmp_path, capsys, schema, instance, message):
    path = tmp_path / "undecodable.proof"
    path.write_text(f'(theory gamma)(prove (axiom {schema} "{instance}"))')
    assert run(capsys, "check", str(path)) == (1, "", f"check failure: at node <root> [axiom]: {message}\n")


@pytest.mark.parametrize("script, options, message", [
    ('(prove (tintro (axiom EQ1 "x = x")))', (), "[t-intro]: premise is not a sentence: x = x"),
    (None, ("--max-omega", "0"), "[omega]: omega_count 1 exceeds the configured cap 0"),
    ('(prove (omega (family y "y = y") (base (axiom EQ1 "#1 = #1")) (step (t-intro))))', (),
     "[omega]: base proves #1 = #1, not instance 0 0 = 0"),
], ids=["tintro-of-an-open-formula", "omega-over-the-cap", "omega-base-off-instance-0"])
def test_rule_rejections_are_check_failures(tmp_path, capsys, script, options, message):
    path = ROOT / "scripts" / "proofs" / "m1_zero.proof"
    if script is not None:
        path = tmp_path / "rejected.proof"
        path.write_text(script)
    assert run(capsys, "check", str(path), *options) == (1, "", f"check failure: at node <root> {message}\n")


def _omega_step(step):
    return f'(theory gamma)(prove (omega (family y "y = y") (base (axiom EQ1 "0 = 0")) (step {step})))'


@pytest.mark.parametrize("script, code, message", [
    (_omega_step("(lift 3)"), 2, "input error: LiftImp depth must be 1 or 2"),
    (_omega_step("(lift 1)"), 1,
     "check failure: at node <root> [omega]: step 0 failed at sample 1: lift needs an implication"),
    (_omega_step('(chain (axiom EQ1 "0 = 0"))'), 1,
     "check failure: at node <root> [omega]: step 0 failed at sample 1: chain needs implications"),
    (_omega_step("(frob)"), 2, "input error: unknown step combinator 'frob'"),
    ("(prove (axiom EQ1 0))", 2, "input error: expected a quoted formula, got '0'"),
    ("(prove (eval 0))", 2, "input error: expected a quoted term, got '0'"),
    (_omega_step("(rewrite)"), 1,
     "check failure: at node <root> [omega]: step 0 failed at sample 1: position () does not address a term"),
    ('(prove (axiom EQ1 "0 = 0")', 2, "input error: unbalanced '('"),
    ('(prove (axiom EQ1 "0 = 0")))', 2, "input error: unbalanced ')'"),
    ('(prove (axiom FOO "0 = 0"))', 2, "input error: unknown schema 'FOO'"),
    ('(prove (frob "0 = 0"))', 2, "input error: unknown proof form 'frob'"),
    ('(frob)', 2, "input error: unknown top-level form 'frob'"),
    # a script's eval ends as the eval command of the same term does
    ('(prove (eval "S(x)"))', 2, "input error: open term: variable 0 has no value"),
], ids=["lift-depth-3", "lift-of-an-equation", "chain-of-an-equation", "unknown-step",
        "unquoted-formula", "unquoted-term", "rewrite-at-the-root", "unclosed-form",
        "unopened-form", "unknown-schema", "unknown-proof-form", "unknown-top-level-form",
        "eval-of-an-open-term"])
def test_check_rejects_malformed_steps_and_arguments(tmp_path, capsys, script, code, message):
    path = tmp_path / "rejected.proof"
    path.write_text(script)
    assert run(capsys, "check", str(path)) == (code, "", message + "\n")


def test_a_rewrite_at_terms_that_already_agree_adds_nothing(tmp_path, capsys):
    # after (rewrite 0), position 0 1 holds the same numeral on both sides
    proofs = ROOT / "scripts" / "proofs"
    text = (proofs / "m1_zero.proof").read_text(encoding="utf-8")
    old = "(step (t-intro) (rewrite 0))"
    assert text.count(old) == 1
    path = tmp_path / "m1_zero_twice.proof"
    path.write_text(text.replace(old, "(step (t-intro) (rewrite 0) (rewrite 0 1))"))
    manifest = json.loads((proofs / "manifest.json").read_text(encoding="utf-8"))
    assert run(capsys, "check", str(path), "--json") == (0, json.dumps(manifest["m1_zero"]) + "\n", "")


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


@pytest.mark.parametrize("arg", ["+25071", " 25071 ", "٢٥٠٧١", "2_5071", "0x_61ef", "0X61EF\n", "0x"])
def test_decode_reads_ascii_decimal_or_hex_only(capsys, arg):
    # int() takes all but the last of these as 25071, the code of 0 = 0
    assert run(capsys, "decode", "25071") == (0, "formula: 0 = 0\n", "")
    assert run(capsys, "decode", "0x61ef") == (0, "formula: 0 = 0\n", "")
    assert run(capsys, "decode", arg) == (
        2, "", f"input error: expected a code in decimal or 0x hex, got {arg!r}\n")


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
