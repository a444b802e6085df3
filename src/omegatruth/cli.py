"""Command-line front end.

Exit codes: 0 on success, 1 when a proof fails to check (or a demo needs an
inactive schema), 2 on usage or parse errors.
"""

from __future__ import annotations

import argparse
import gc
import json
import re
import sys

from . import theorems as TH
from .coding import decode, encode
from .kernel import THEORIES, CheckError, CheckedTheorem, TheoryConfig, check
from .proofscript import (
    ParseError, _quote, parse_formula, parse_script, parse_term, var_index,
)
from .syntax import Eq, Formula, Succ, ZERO, pretty_print, var_name
from .tactics import (
    TacticError, derive_A1, derive_A2, diagonal_lemma, eval_closed, refl,
)

_REFUTATIONS = {"mcgee": TH.mcgee_original, "mcgee-via-loeb": TH.mcgee_via_loeb}


def _count(text: str, what: str) -> int:
    """A count given on the command line, read as scripts read theirs:
    ASCII digits only, since int() would also take a plus sign, underscores
    and other scripts' digits.  A leading minus is kept, so that a negative
    count reaches the bound that :class:`TheoryConfig` names."""
    digits = text[1:] if text[:1] == "-" else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"expected {what}, got {_quote(text)}")
    return int(text)


def _config(args, samples: int | None = None) -> TheoryConfig:
    # --samples, when given, overrides ``samples``, a script header's
    # count, which overrides the theory's default
    theory = THEORIES[args.theory]
    if args.samples is not None:
        samples = _count(args.samples, "a sample count")
    return theory._replace(
        omega_samples=theory.omega_samples if samples is None else samples,
        max_omega_count=(
            None if args.max_omega == "unlimited"
            else _count(args.max_omega, "an omega cap or 'unlimited'")
        ),
    )


def certificate(cert: CheckedTheorem) -> dict:
    """The 5-key certificate of a checked theorem, as ``--json`` prints it."""
    return {
        "formula": pretty_print(cert.formula),
        "theory": cert.theory.preset_name(),
        "omega_count": cert.omega_count,
        "samples_checked": cert.samples_checked,
        "proof_size": cert.proof_size,
    }


def _print_cert(name: str, cert: CheckedTheorem, quiet: bool) -> None:
    c = certificate(cert)
    line = (
        f"{name}: omega_count={c['omega_count']}"
        f" samples_checked={c['samples_checked']} proof_size={c['proof_size']}"
    )
    print(line)
    if not quiet:
        print(f"  formula: {c['formula']}")


def _print_refutation(ref: TH.Refutation, quiet: bool) -> None:
    if not quiet:
        print(f"refutation under {ref.positive.theory.preset_name()}: "
              "both sides below are machine-checked")
        for label, formula, note in ref.narrative:
            print(f"  {label}. {pretty_print(formula)}    ; {note}")
        print()
    _print_cert("positive", ref.positive, quiet)
    _print_cert("negative", ref.negative, quiet)


def _refutation_json(name: str, ref: TH.Refutation) -> dict:
    return {
        "demo": name,
        "positive": certificate(ref.positive),
        "negative": certificate(ref.negative),
        "narrative": [
            {"label": label, "formula": pretty_print(f)} for label, f, _note in ref.narrative
        ],
    }


def _cmd_check(args) -> int:
    # the text is not kept alive through the check
    with open(args.script, encoding="utf-8") as fh:
        script = parse_script(fh.read())
    # command-line options override the script's header
    args.theory = args.theory or script.theory or "gamma"
    cert = check(script.proof, _config(args, script.samples))
    if args.json:
        print(json.dumps(certificate(cert)))
    else:
        _print_cert("checked", cert, args.quiet)
    return 0


def _cmd_demo(args) -> int:
    config = _config(args)
    name = args.name
    if name in _REFUTATIONS:
        ref = _REFUTATIONS[name](config)
        if args.json:
            print(json.dumps(_refutation_json(name, ref)))
        else:
            _print_refutation(ref, args.quiet)
        return 0
    if name == "loeb":
        zero = Eq(ZERO, ZERO)
        z01 = Eq(ZERO, Succ(ZERO))
        pp = TH.tomega_provability()
        results = {
            "m1": TH.m1(check(refl(ZERO).proof, config)),
            "m2": TH.m2(z01, zero, config),
            "m3": TH.m3(zero, config),
            "a1": check(derive_A1(zero).proof, config),
            "a2": check(derive_A2(zero).proof, config),
            "formalized_loeb": TH.formalized_loeb(pp, z01, config),
        }
        if args.json:
            print(json.dumps({"demo": name, **{k: certificate(v) for k, v in results.items()}}))
        else:
            if not args.quiet:
                print(f"derivability conditions and Loeb's theorem under {config.preset_name()}:")
            for k, v in results.items():
                _print_cert(k, v, args.quiet)
        return 0
    # witness
    report = TH.omega_witness(config, config.omega_samples)
    if args.json:
        print(json.dumps({
            "demo": "witness",
            "family": pretty_print(report.family),
            "var": var_name(report.var),
            "universal_negation": certificate(report.universal_negation),
            "instances": [certificate(c) for c in report.instances],
        }))
        return 0
    if not args.quiet:
        print(f"witness family psi({var_name(report.var)}) = {pretty_print(report.family)}")
        print("refutable universally, yet provable at every instance (all finitary):")
    _print_cert("~forall", report.universal_negation, args.quiet)
    for n, inst in enumerate(report.instances):
        _print_cert(f"psi({n})", inst, args.quiet)
    return 0


def _parse_expr(text: str):
    try:
        return parse_formula(text)
    except ParseError as formula_err:
        try:
            return parse_term(text)
        except ParseError:
            raise formula_err from None


def _cmd_code(args) -> int:
    expr = _parse_expr(args.expr)
    c = encode(expr)
    if args.json:
        print(json.dumps({
            "kind": "formula" if isinstance(expr, Formula) else "term",
            "text": pretty_print(expr),
            "code_dec": str(c),
            "code_hex": hex(c),
        }))
    else:
        print(f"dec: {c}")
        print(f"hex: {hex(c)}")
    return 0


def _cmd_decode(args) -> int:
    # int() would also take signs, blanks, underscores and other scripts' digits
    if not re.fullmatch(r"[0-9]+|0[xX][0-9a-fA-F]+", args.code):
        raise ValueError(f"expected a code in decimal or 0x hex, got {_quote(args.code)}")
    expr = decode(int(args.code, 16 if args.code[1:2] in ("x", "X") else 10))
    kind = "formula" if isinstance(expr, Formula) else "term"
    if args.json:
        print(json.dumps({"kind": kind, "text": pretty_print(expr)}))
    else:
        print(f"{kind}: {pretty_print(expr)}")
    return 0


def _cmd_diag(args) -> int:
    phi = parse_formula(args.formula)
    v = var_index(args.var)
    if v is None:
        raise ParseError(f"unknown variable {_quote(args.var)}", 0, args.var)
    dr = diagonal_lemma(phi, v)
    cert = check(dr.equivalence_proof, _config(args))
    if args.json:
        print(json.dumps({
            "theta": pretty_print(dr.theta),
            "gamma": pretty_print(dr.gamma),
            "certificate": certificate(cert),
        }))
        return 0
    if not args.quiet:
        print(f"theta: {pretty_print(dr.theta)}")
        print(f"gamma: {pretty_print(dr.gamma)}")
    _print_cert("equivalence", cert, args.quiet)
    return 0


def _cmd_eval(args) -> int:
    t = parse_term(args.term)
    cert = check(eval_closed(t).proof, _config(args))
    v = cert.formula.right.nv
    if args.json:
        print(json.dumps({
            "term": pretty_print(t),
            "value": str(v),
            "equation": pretty_print(cert.formula),
            "certificate": certificate(cert),
        }))
        return 0
    if not args.quiet:
        print(f"value: {v}")
        print(f"equation: {pretty_print(cert.formula)}")
    _print_cert("evaluation", cert, args.quiet)
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--theory", choices=list(THEORIES), default="gamma",
                   help="gamma, or sigma: gamma without Cons (default: a "
                        "checked script's (theory ...) header, else gamma)")
    p.add_argument("--samples", default=None,
                   help="omega-rule samples replayed per omega node (default: "
                        "a checked script's (samples ...) header, else 8)")
    p.add_argument("--max-omega", default="unlimited",
                   help="cap on nested omega applications, or 'unlimited'")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--quiet", action="store_true", help="certificates only")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omegatruth",
        description="Proof checker for truth theories over Robinson arithmetic "
                    "with a finitely certified omega-rule.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="check a proof script and print its certificate")
    p.add_argument("script", help="path to a proof script")
    _add_common(p)
    # the script's header comes before the default theory
    p.set_defaults(func=_cmd_check, theory=None)

    p = sub.add_parser("demo", help="build and check a bundled derivation")
    p.add_argument("name", choices=["mcgee", "mcgee-via-loeb", "loeb", "witness"])
    _add_common(p)
    p.set_defaults(func=_cmd_demo)

    p = sub.add_parser("code", help="print the code of a formula or term")
    p.add_argument("expr")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_code)

    p = sub.add_parser("decode", help="decode a natural number (decimal or 0x hex)")
    p.add_argument("code")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("diag", help="diagonalize a one-variable formula")
    p.add_argument("formula", help="formula with one free variable")
    p.add_argument("var", help="the distinguished variable")
    _add_common(p)
    p.set_defaults(func=_cmd_diag)

    p = sub.add_parser("eval", help="evaluate a closed term with a proof")
    p.add_argument("term")
    _add_common(p)
    p.set_defaults(func=_cmd_eval)

    return parser


def main(argv=None) -> int:
    # codes and quoted names of formulas that hold codes run past the
    # 4300 decimal digits CPython converts by default; the caller's limit
    # is restored after
    digits = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if digits is not None:
        sys.set_int_max_str_digits(0)
    # pause the cyclic collector for the command and restore the caller's
    # state after: interned nodes hold no cycles and live until the process
    # ends, so collecting would only rescan them, and reference counting
    # frees the rest.  run() also freezes them on the way out, so that the
    # collection at interpreter exit skips them; main() never freezes, as a
    # library caller's heap is not its to pin
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as e:
        if isinstance(e, (CheckError, TH.MissingSchema, TacticError)):
            print(f"check failure: {e}", file=sys.stderr)
            return 1
        print(f"input error: {e}", file=sys.stderr)
        return 2
    finally:
        if was_enabled:
            gc.enable()
        if digits is not None:
            sys.set_int_max_str_digits(digits)


def run() -> None:
    """The ``omegatruth`` command: :func:`main` on ``sys.argv``, then exit
    with its code."""
    code = main()
    # all that is left lives until the process ends; frozen, it is not
    # walked again by the collection at interpreter exit
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
