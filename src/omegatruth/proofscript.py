"""The proof-script exchange format.

Scripts are s-expressions.  A file holds one ``(prove <p>)`` form and at
most one each of the headers ``(theory gamma|sigma)`` and ``(samples N)``,
where ``<p>`` is:

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
from collections import namedtuple

from . import tactics as T
from .coding import name_of
from .kernel import (
    ApplyTIntro, Axiom, ChainWith, Gen, LiftImp, MP, Omega, Proof,
    RewriteEval, SchemaId, THEORIES, TIntro, _proof_children,
)
from .syntax import (
    Forall, Formula, Imp, Term, Tr, _QUOTE_LIMIT, _cut, _postorder, _shown,
    parse_formula, parse_term, pretty_print, var_index, var_name,
)

__all__ = ["Script", "ScriptError", "parse_script", "serialize_script", "expand"]


class ScriptError(ValueError):
    pass


Script = namedtuple("Script", "theory samples proof")


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


# the deepest indent, so that a proof's text grows linearly with its depth;
# 40 of the 100 columns remain, so that short forms stay on one line there
_MAX_INDENT = 60


def _render(sexp: list, out: list[str]) -> None:
    """Append ``sexp``: on one line if shorter than 100 columns less its
    indent, else its head, then each item on a line indented two more, up
    to ``_MAX_INDENT``."""
    flat: dict[int, str] = {}  # by id, each list's one-line text shorter than 100

    def measure(x, texts: list):
        if type(x) is not list:
            return _atom(x)
        if None not in texts:
            text = "(" + " ".join(texts) + ")"
            if len(text) < 100:
                flat[id(x)] = text
                return text

    _postorder(sexp, lambda x: x if type(x) is list else (), measure)
    stack: list = [(sexp, 0)]  # text, or (list, indent)
    while stack:
        entry = stack.pop()
        if type(entry) is str:
            out.append(entry)
            continue
        x, indent = entry
        text = flat.get(id(x))
        if text is not None and len(text) < 100 - indent:
            out.append(text)
            continue
        inner = min(indent + 2, _MAX_INDENT)
        pieces = ["(" + _atom(x[0])]
        for item in x[1:]:
            pieces += ("\n" + " " * inner, (item, inner) if type(item) is list else _atom(item))
        pieces.append(")")
        stack.extend(reversed(pieces))


# ---------------------------------------------------------------------------
# serialization


def _proof_form(p: Proof, parts: list):
    macro = T.MACROS.get(p)
    if macro is not None:  # (kind, formula or term[, var])
        return [macro[0], _Q(pretty_print(macro[1])), *map(var_name, macro[2:])]
    t = type(p)
    if t is Axiom:
        return ["axiom", p.schema.value, _Q(pretty_print(p.instance))]
    if t is MP:
        return ["mp", *parts]
    if t is Gen:
        return ["gen", var_name(p.var), parts[0]]
    if t is TIntro:
        return ["tintro", parts[0]]
    # Omega: its base, then the lemma of each chain step
    lemmas = iter(parts[1:])
    steps = []
    for s in p.steps:
        if type(s) is ApplyTIntro:
            steps.append(["t-intro"])
        elif type(s) is LiftImp:
            steps.append(["lift", str(s.depth)])
        elif type(s) is RewriteEval:
            steps.append(["rewrite", *map(str, s.position)])
        else:
            steps.append(["chain", next(lemmas)])
    return [
        "omega",
        ["family", var_name(p.var), _Q(pretty_print(p.family))],
        ["base", parts[0]],
        ["step", *steps],
    ]


def serialize_script(proof: Proof, theory: str, samples: int | None = None) -> str:
    forms = [["theory", theory]]
    if samples is not None:
        forms.append(["samples", str(samples)])
    # a macro's node is written as the macro call, whatever it is made of
    sexp = _postorder(proof, lambda p: () if p in T.MACROS else _proof_children(p), _proof_form, {})
    forms.append(["prove", sexp])
    out: list[str] = []
    for f in forms:
        _render(f, out)
        out.append("\n")
    return "".join(out)


# ---------------------------------------------------------------------------
# expansion


def _quote(x) -> str:
    """repr of a token or a list of them, cut after _QUOTE_LIMIT characters;
    a list is written out piece by piece up to the cut, so that a large or
    deeply nested one costs no more than the cut and no recursion."""
    out, size, todo = [], 0, [x]
    while todo and size <= _QUOTE_LIMIT:
        x = todo.pop()
        if type(x) is list:  # "[", the items with ", " between, "]"
            todo.append(("]",))
            # each item takes 2 characters at least, so no more are reached
            todo += [y for e in reversed(x[:_QUOTE_LIMIT]) for y in ((", ",), e)][1:]
            out.append("[")
        else:  # a token, or punctuation as it is
            out.append(x[0] if type(x) is tuple else repr(x))
        size += len(out[-1])
    return _cut("".join(out))


def _want(sexp, what: str) -> None:
    if (
        not isinstance(sexp, list)
        or not sexp
        or not isinstance(sexp[0], str)
        or isinstance(sexp[0], _Q)
    ):
        raise ScriptError(f"expected {what}, got {_quote(sexp)}")


def _arity(sexp, n: int) -> None:
    if len(sexp) != n + 1:
        raise ScriptError(f"{sexp[0]} takes {n} argument(s), got {len(sexp) - 1}")


def _nat(tok, what: str) -> int:
    # ASCII digits only: int() would also take signs, underscores and
    # other scripts' digits
    if isinstance(tok, str) and not isinstance(tok, _Q) and tok.isascii() and tok.isdigit():
        return int(tok)
    raise ScriptError(f"expected {what}, got {_quote(tok)}")


def _var(tok) -> int:
    if isinstance(tok, str) and not isinstance(tok, _Q):
        v = var_index(tok)
        if v is not None:
            return v
    raise ScriptError(f"expected a variable name, got {_quote(tok)}")


def _formula(tok, parsed: dict) -> Formula:
    if not isinstance(tok, _Q):
        raise ScriptError(f"expected a quoted formula, got {_quote(tok)}")
    # parses are interned, so a string met again yields the same formula
    phi = parsed.get(tok)
    if phi is None:
        phi = parsed[tok] = parse_formula(str(tok))
    return phi


def _term(tok) -> Term:
    if not isinstance(tok, _Q):
        raise ScriptError(f"expected a quoted term, got {_quote(tok)}")
    return parse_term(str(tok))


def _parts(node) -> tuple:
    """The nodes that ``node`` is built from, once its head and arity are
    checked; a node without parts is checked whole by ``_build``.  So that
    errors come in script order, an omega form's family and steps are nodes
    of the walk too, as ("family", form) and ("step", form)."""
    if type(node) is tuple:
        kind, form = node
        if kind == "step":
            _want(form, "a step combinator")
            if form[0].lower() == "chain":
                _arity(form, 1)
                return (form[1],)
        return ()
    _want(node, "a proof form")
    head = node[0].lower()
    if head in ("mp", "gen", "tintro"):
        _arity(node, 1 if head == "tintro" else 2)
        if head == "gen":
            _var(node[1])
        return tuple(node[2:] if head == "gen" else node[1:])
    if head != "omega":
        return ()
    found = {}
    for part in node[1:]:
        _want(part, "an omega part")
        head = part[0].lower()
        if head not in ("family", "base", "step"):
            raise ScriptError(f"unknown omega part {_quote(part[0])}")
        if head in found:
            raise ScriptError(f"omega holds more than one ({head} ...) part")
        found[head] = part
    fam_form, base_form, steps_form = map(found.get, ("family", "base", "step"))
    if fam_form is None or base_form is None or steps_form is None:
        raise ScriptError("omega needs (family ...), (base ...) and (step ...)")
    _arity(fam_form, 2)
    _arity(base_form, 1)
    return (("family", fam_form), base_form[1], *(("step", s) for s in steps_form[1:]))


def _build(node, parts: list, parsed: dict):
    """The Thm of a proof form, the combinator of a step or the (variable,
    formula) of a family, from the values of its parts; ``parsed`` maps the
    formula strings met so far to their parses."""
    if type(node) is tuple:
        kind, form = node
        if kind == "family":
            return _var(form[1]), _formula(form[2], parsed)
        head = form[0].lower()
        if head == "t-intro":
            _arity(form, 0)
            return ApplyTIntro()
        if head == "lift":
            _arity(form, 1)
            return LiftImp(_nat(form[1], "a lift depth"))
        if head == "rewrite":
            return RewriteEval(tuple(_nat(i, "a position index") for i in form[1:]))
        if head == "chain":
            return ChainWith(*parts[0])
        raise ScriptError(f"unknown step combinator {_quote(form[0])}")
    head = node[0].lower()
    args = node[1:]
    if head == "axiom":
        _arity(node, 2)
        if not isinstance(args[0], str) or isinstance(args[0], _Q):
            raise ScriptError(f"expected a schema name, got {_quote(args[0])}")
        try:
            schema = SchemaId(args[0].upper())
        except ValueError:
            raise ScriptError(f"unknown schema {_quote(args[0])}") from None
        inst = _formula(args[1], parsed)
        return T.Thm(Axiom(schema, inst), inst)
    if head == "mp":
        (p1, f1), (p2, f2) = parts
        if type(f2) is not Imp or f2.ant is not f1:
            raise ScriptError(f"mp premises do not fit: {_shown(f1)} vs {_shown(f2)}")
        return T.Thm(MP(p1, p2), f2.cons)
    if head == "gen":
        v = _var(args[0])
        return T.Thm(Gen(v, parts[0].proof), Forall(v, parts[0].formula))
    if head == "tintro":
        return T.Thm(TIntro(parts[0].proof), Tr(name_of(parts[0].formula)))
    if head == "omega":
        (v, family), base, *steps = parts
        omega = Omega(v, family, base.proof, tuple(steps))
        return T.Thm(omega, omega.conclusion)
    if head in ("taut", "a1", "a2"):
        _arity(node, 1)
        make = {"taut": T.taut, "a1": T.derive_A1, "a2": T.derive_A2}[head]
        return make(_formula(args[0], parsed))
    if head == "eval":
        _arity(node, 1)
        return T.eval_closed(_term(args[0]))
    if head == "diag":
        _arity(node, 2)
        return T.diagonal_lemma(_formula(args[0], parsed), _var(args[1])).thm()
    raise ScriptError(f"unknown proof form {_quote(node[0])}")


def expand(sexp) -> Proof:
    """Expand one proof form (including macros) into a kernel proof."""
    parsed: dict = {}
    return _postorder(sexp, _parts, lambda node, parts: _build(node, parts, parsed)).proof


def parse_script(text: str) -> Script:
    forms = _read_forms(text)
    header: dict = {}
    for form in forms:
        _want(form, "a top-level form")
        head = form[0].lower()
        if head not in ("theory", "samples", "prove"):
            raise ScriptError(f"unknown top-level form {_quote(form[0])}")
        if head in header:
            raise ScriptError(f"script holds more than one ({head} ...) form")
        if head == "theory":
            # a bare atom, as a sample count is: a quoted string is no
            # theory name, and a list no dict key either
            if len(form) != 2 or type(form[1]) is not str or form[1] not in THEORIES:
                raise ScriptError("theory must be gamma or sigma")
            header[head] = form[1]
        else:
            _arity(form, 1)
            header[head] = _nat(form[1], "a sample count") if head == "samples" else expand(form[1])
    if "prove" not in header:
        raise ScriptError("script holds no (prove ...) form")
    return Script(theory=header.get("theory"), samples=header.get("samples"), proof=header["prove"])
