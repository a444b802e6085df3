"""The proof-script exchange format.

Scripts are s-expressions.  A file holds a ``(theory gamma|sigma)`` header,
an optional ``(samples N)``, and one ``(prove <p>)`` form, where ``<p>`` is:

    (axiom <SCHEMA> "<formula>")
    (mp <p> <p>)                      first premise A, second A -> B
    (gen <var> <p>)
    (tintro <p>)
    (omega (family <var> "<formula>") (base <p>) (step <combinator>...))
    (taut "<formula>")                macro: tautology compilation
    (eval "<term>")                   macro: closed-term evaluation
    (a1 "<formula>") (a2 "<formula>") macro: the iteration laws
    (diag "<formula>" <var>)          macro: diagonal equivalence proof

with combinators ``(t-intro)``, ``(lift 1|2)``, ``(rewrite i j ...)`` and
``(chain <p>)``.  Formulas and terms are quoted strings in the concrete
grammar; ``;`` starts a line comment.  Macro forms expand deterministically
through the tactics layer, so re-checking a serialized script reproduces
the original certificate.
"""

from __future__ import annotations

import re
import sys
from typing import NamedTuple

from . import tactics as T
from .coding import name_of
from .kernel import (
    ApplyTIntro, Axiom, ChainWith, Gen, LiftImp, MP, Omega, Proof,
    RewriteEval, SchemaId, TIntro,
)
from .syntax import (
    Forall, Formula, Imp, Term, Tr, parse_formula, parse_term, pretty_print,
    var_index, var_name,
)

__all__ = ["Script", "ScriptError", "parse_script", "serialize_script", "expand"]


class ScriptError(ValueError):
    pass


class Script(NamedTuple):
    theory: str | None
    samples: int | None
    proof: Proof


# ---------------------------------------------------------------------------
# s-expression reader / writer


class _Q(str):
    """A string that renders quoted."""


_TOKEN = re.compile(
    r'[ \t\r\n]+|;[^\n]*'              # whitespace and line comments
    r'|([()]|[^ \t\r\n();"]+)'          # parentheses and atoms
    r'|"([^"\\]*(?:\\.[^"\\]*)*)"'      # strings: a backslash takes the next character
    r'|(")',                            # a string literal that is never closed
    re.S,
)
_ESCAPE = re.compile(r"\\(.)", re.S)


def _tokenize(text: str):
    toks = []
    for m in _TOKEN.finditer(text):
        kind = m.lastindex
        if kind == 1:
            toks.append(m.group(1))
        elif kind == 2:
            body = m.group(2)
            toks.append(_Q(_ESCAPE.sub(r"\1", body) if "\\" in body else body))
        elif kind == 3:
            raise ScriptError("unterminated string literal")
    return toks


def _read_forms(text: str) -> list:
    toks = _tokenize(text)
    stack: list[list] = [[]]
    for tok in toks:
        if tok == "(":
            stack.append([])
        elif tok == ")":
            if len(stack) == 1:
                raise ScriptError("unbalanced ')'")
            done = stack.pop()
            stack[-1].append(done)
        else:
            stack[-1].append(tok)
    if len(stack) != 1:
        raise ScriptError("unbalanced '('")
    return stack[0]


def _atom(sexp) -> str:
    if isinstance(sexp, _Q):
        return '"' + sexp.replace("\\", "\\\\").replace('"', '\\"') + '"'
    return sexp


def _render(sexp, out: list[str], indent: int) -> None:
    if isinstance(sexp, str):
        out.append(_atom(sexp))
        return
    flat = _flat(sexp, 100 - indent)
    if flat is not None:
        out.append(flat)
        return
    out.append("(" + _atom(sexp[0]))
    for item in sexp[1:]:
        out.append("\n" + " " * (indent + 2))
        _render(item, out, indent + 2)
    out.append(")")


def _flat(sexp, budget: int) -> str | None:
    """Single-line rendering if it fits the budget (atoms always fit)."""
    if isinstance(sexp, str):
        return _atom(sexp)
    parts = []
    total = 2
    for item in sexp:
        f = _flat(item, budget)
        if f is None:
            return None
        total += len(f) + 1
        if total > budget:
            return None
        parts.append(f)
    return "(" + " ".join(parts) + ")"


# ---------------------------------------------------------------------------
# serialization


def _proof_sexp(p: Proof):
    macro = T.MACROS.get(p)
    if macro is not None:  # (kind, formula or term[, var])
        return [macro[0], _Q(pretty_print(macro[1])), *map(var_name, macro[2:])]
    t = type(p)
    if t is Axiom:
        return ["axiom", p.schema.value, _Q(pretty_print(p.instance))]
    if t is MP:
        return ["mp", _proof_sexp(p.minor), _proof_sexp(p.major)]
    if t is Gen:
        return ["gen", var_name(p.var), _proof_sexp(p.premise)]
    if t is TIntro:
        return ["tintro", _proof_sexp(p.premise)]
    # Omega
    steps = []
    for s in p.steps:
        if isinstance(s, ApplyTIntro):
            steps.append(["t-intro"])
        elif isinstance(s, LiftImp):
            steps.append(["lift", str(s.depth)])
        elif isinstance(s, RewriteEval):
            steps.append(["rewrite", *map(str, s.position)])
        else:
            steps.append(["chain", _proof_sexp(s.lemma)])
    return [
        "omega",
        ["family", var_name(p.var), _Q(pretty_print(p.family))],
        ["base", _proof_sexp(p.base)],
        ["step", *steps],
    ]


def serialize_script(proof: Proof, theory: str, samples: int | None = None) -> str:
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 100_000))
    try:
        forms = [["theory", theory]]
        if samples is not None:
            forms.append(["samples", str(samples)])
        forms.append(["prove", _proof_sexp(proof)])
        out: list[str] = []
        for f in forms:
            _render(f, out, 0)
            out.append("\n")
        return "".join(out)
    finally:
        sys.setrecursionlimit(limit)


# ---------------------------------------------------------------------------
# expansion


def _want(sexp, what: str) -> None:
    if (
        not isinstance(sexp, list)
        or not sexp
        or not isinstance(sexp[0], str)
        or isinstance(sexp[0], _Q)
    ):
        raise ScriptError(f"expected {what}, got {sexp!r}")


def _arity(sexp, n: int) -> None:
    if len(sexp) != n + 1:
        raise ScriptError(f"{sexp[0]} takes {n} argument(s), got {len(sexp) - 1}")


def _nat(tok, what: str) -> int:
    try:
        if isinstance(tok, str) and not isinstance(tok, _Q):
            value = int(tok)
            if value >= 0:
                return value
    except ValueError:
        pass
    raise ScriptError(f"expected {what}, got {tok!r}")


def _var(tok) -> int:
    if isinstance(tok, str) and not isinstance(tok, _Q):
        v = var_index(tok)
        if v is not None:
            return v
    raise ScriptError(f"expected a variable name, got {tok!r}")


def _formula(tok, parsed: dict) -> Formula:
    if not isinstance(tok, _Q):
        raise ScriptError(f"expected a quoted formula, got {tok!r}")
    # parses are interned, so a string met again yields the same formula
    phi = parsed.get(tok)
    if phi is None:
        phi = parsed[tok] = parse_formula(str(tok))
    return phi


def _term(tok) -> Term:
    if not isinstance(tok, _Q):
        raise ScriptError(f"expected a quoted term, got {tok!r}")
    return parse_term(str(tok))


def _expand_proof(sexp, parsed: dict):
    """Expand a proof expression into a (Proof, claimed formula) pair;
    ``parsed`` maps the formula strings met so far to their parses."""
    _want(sexp, "a proof form")
    head = sexp[0].lower()
    args = sexp[1:]
    if head == "axiom":
        _arity(sexp, 2)
        if not isinstance(args[0], str) or isinstance(args[0], _Q):
            raise ScriptError(f"expected a schema name, got {args[0]!r}")
        try:
            schema = SchemaId(args[0].upper())
        except ValueError:
            raise ScriptError(f"unknown schema {args[0]!r}") from None
        inst = _formula(args[1], parsed)
        return Axiom(schema, inst), inst
    if head == "mp":
        _arity(sexp, 2)
        (p1, f1), (p2, f2) = _expand_proof(args[0], parsed), _expand_proof(args[1], parsed)
        if type(f2) is not Imp or f2.ant != f1:
            raise ScriptError(f"mp premises do not fit: {pretty_print(f1)} vs {pretty_print(f2)}")
        return MP(p1, p2), f2.cons
    if head == "gen":
        _arity(sexp, 2)
        v = _var(args[0])
        p, f = _expand_proof(args[1], parsed)
        return Gen(v, p), Forall(v, f)
    if head == "tintro":
        _arity(sexp, 1)
        p, f = _expand_proof(args[0], parsed)
        return TIntro(p), Tr(name_of(f))
    if head == "omega":
        fam_form = base_form = None
        steps_form = None
        for part in args:
            _want(part, "an omega part")
            if part[0] == "family":
                fam_form = part
            elif part[0] == "base":
                base_form = part
            elif part[0] == "step":
                steps_form = part
        if fam_form is None or base_form is None or steps_form is None:
            raise ScriptError("omega needs (family ...), (base ...) and (step ...)")
        _arity(fam_form, 2)
        _arity(base_form, 1)
        v = _var(fam_form[1])
        family = _formula(fam_form[2], parsed)
        base, base_f = _expand_proof(base_form[1], parsed)
        steps = tuple(_expand_step(s, parsed) for s in steps_form[1:])
        node = Omega(v, family, base, steps)
        return node, node.conclusion
    if head == "taut":
        _arity(sexp, 1)
        th = T.taut(_formula(args[0], parsed))
        return th.proof, th.formula
    if head == "eval":
        _arity(sexp, 1)
        th = T.eval_closed(_term(args[0]))
        return th.proof, th.formula
    if head == "a1":
        _arity(sexp, 1)
        th = T.derive_A1(_formula(args[0], parsed))
        return th.proof, th.formula
    if head == "a2":
        _arity(sexp, 1)
        th = T.derive_A2(_formula(args[0], parsed))
        return th.proof, th.formula
    if head == "diag":
        _arity(sexp, 2)
        dr = T.diagonal_lemma(_formula(args[0], parsed), _var(args[1]))
        return dr.equivalence_proof, dr.equivalence
    raise ScriptError(f"unknown proof form {sexp[0]!r}")


def _expand_step(sexp, parsed: dict):
    _want(sexp, "a step combinator")
    head = sexp[0].lower()
    if head == "t-intro":
        _arity(sexp, 0)
        return ApplyTIntro()
    if head == "lift":
        _arity(sexp, 1)
        return LiftImp(_nat(sexp[1], "a lift depth"))
    if head == "rewrite":
        return RewriteEval(tuple(_nat(i, "a position index") for i in sexp[1:]))
    if head == "chain":
        _arity(sexp, 1)
        p, f = _expand_proof(sexp[1], parsed)
        return ChainWith(p, f)
    raise ScriptError(f"unknown step combinator {sexp[0]!r}")


def expand(sexp) -> Proof:
    """Expand one proof form (including macros) into a kernel proof."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 100_000))
    try:
        return _expand_proof(sexp, {})[0]
    finally:
        sys.setrecursionlimit(limit)


def parse_script(text: str) -> Script:
    forms = _read_forms(text)
    theory = None
    samples = None
    proof = None
    for form in forms:
        _want(form, "a top-level form")
        head = form[0].lower()
        if head == "theory":
            if len(form) != 2 or form[1] not in ("gamma", "sigma"):
                raise ScriptError("theory must be gamma or sigma")
            theory = form[1]
        elif head == "samples":
            _arity(form, 1)
            samples = _nat(form[1], "a sample count")
        elif head == "prove":
            if proof is not None:
                raise ScriptError("script holds more than one (prove ...) form")
            proof = expand(form[1])
        else:
            raise ScriptError(f"unknown top-level form {form[0]!r}")
    if proof is None:
        raise ScriptError("script holds no (prove ...) form")
    return Script(theory=theory, samples=samples, proof=proof)
