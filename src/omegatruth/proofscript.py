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
grammar, which :func:`parse_formula` and :func:`parse_term` read; ``;``
starts a line comment.  Macro forms expand deterministically through the
tactics layer, so re-checking a serialized script reproduces the original
certificate.

Nothing here is trusted.  The parser lives here, not in ``syntax``,
because checking never runs it: the kernel judges the nodes it builds
with the ``syntax`` constructors.
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
    Add, Eq, Expr, FN_ARITY, FnApp, Forall, Formula, Imp, Mul, Not, Succ, Term,
    Tr, Var, ZERO, _CANONICAL_NAMES, _QUOTE_LIMIT, _cut, _postorder, _shown,
    numeral, pretty_print, var_name,
)

__all__ = [
    "Script", "ScriptError", "parse_script", "serialize_script", "expand",
    "ParseError", "parse_term", "parse_formula",
]


class ScriptError(ValueError):
    pass


Script = namedtuple("Script", "theory samples proof")


# ---------------------------------------------------------------------------
# the concrete grammar of formulas and terms, read inside quoted strings

_NAME_TO_INDEX = {n: i for i, n in enumerate(_CANONICAL_NAMES)}


def var_index(name: str) -> int | None:
    """Index of a variable name in the concrete grammar, or None."""
    if name in _NAME_TO_INDEX:
        return _NAME_TO_INDEX[name]
    m = re.fullmatch(r"v([0-9]+)", name)
    if m:
        return int(m.group(1))
    return None


class ParseError(ValueError):
    """Syntax error in the concrete grammar, tagged with an input position."""

    def __init__(self, message: str, pos: int, text: str):
        line = text.count("\n", 0, pos) + 1
        col = pos - (text.rfind("\n", 0, pos) + 1) + 1
        super().__init__(f"{message} (line {line}, column {col})")
        self.pos = pos


# One match per token, skipping whitespace: group 1 is the token, or "" for
# a character that starts no token.
_TOKEN_RE = re.compile(r"(#[0-9]+|0|[A-Za-z_][A-Za-z0-9_]*|->|[()=+*,.~])|\S")

# The kinds of frame on _parse's stack, each spelled as the text read
# before the operand it waits for.  A frame is a tuple that starts with its
# kind; the last five wait for a formula, the others for a term.
_SUCC_ARG, _FN_ARG, _OP_LEFT, _OP_RIGHT, _TR_ARG, _EQ_RIGHT = "S(", "f(", "(", "(t +", "T(", "t ="
_NOT_BODY, _FORALL_BODY, _IMP_CONS, _PAREN_BODY, _WHOLE = "~", "forall v.", "A ->", "formula (", "formula"


def _offset(text: str, i: int) -> int:
    """Where token ``i`` starts in ``text`` (its length for the end)."""
    for k, m in enumerate(_TOKEN_RE.finditer(text)):
        if k == i:
            return m.start()
    return len(text)


def _parse(text: str, formula: bool) -> Expr:
    """The formula, or with ``formula`` false the term, that ``text`` spells.

    One loop reads each token once, left to right, and keeps one frame per
    construct still waiting for an operand, so nesting costs heap, not
    Python frames.  A ``(`` where a formula may start is settled by what
    follows its first operand: ``+`` or ``*`` makes it a sum or a product,
    ``=`` or a closed formula makes it a formula.  Each message and position
    is that of a parser that tries the term first and, where that fails,
    the formula.
    """
    toks = _TOKEN_RE.findall(text)
    toks.append("")  # the end of input
    bad = toks.index("")
    if bad < len(toks) - 1:
        pos = _offset(text, bad)
        raise ParseError(f"unexpected character {text[pos]!r}", pos, text)
    stack: list[tuple] = [(_WHOLE,)] if formula else []
    i, want_formula = 0, formula

    def error(msg: str, at: int) -> ParseError:
        # inside a sum read where "(" could also have opened a formula, the
        # error is that of the formula reading, tried last: at the operator.
        # Such a sum's operands are terms, so at most one is on the stack
        for frame in stack:
            if frame[0] is _OP_RIGHT and frame[3]:
                msg, at = frame[3]
        return ParseError(msg, _offset(text, at), text)

    def expected(want: str, at: int) -> ParseError:
        return error(f"expected {want}, found {_cut(repr(toks[at] or 'end of input'))}", at)

    while True:
        # prefixes push a frame each, up to the first atom
        tok = toks[i]
        i += 1
        if want_formula:
            if tok == "~":
                stack.append((_NOT_BODY,))
                continue
            if tok == "forall":
                idx = var_index(toks[i])
                if idx is None:
                    raise error(f"expected a variable after 'forall', found {_cut(repr(toks[i]))}", i)
                if toks[i + 1] != ".":
                    raise expected("'.'", i + 1)
                i += 2
                stack.append((_FORALL_BODY, idx))
                continue
            if tok == "(":
                stack.append((_PAREN_BODY,))
                continue
            want_formula = False
            if tok == "T":
                if toks[i] != "(":
                    raise expected("'('", i)
                i += 1
                stack.append((_TR_ARG,))
                continue
        if tok[:1] == "#":
            v = numeral(int(tok[1:]))
        elif tok == "0":
            # no bare integers other than 0 in the grammar
            v = ZERO
        elif tok == "(":
            stack.append((_OP_LEFT,))
            continue
        elif tok == "S" or tok in FN_ARITY:
            if toks[i] != "(":
                raise expected("'('", i)
            i += 1
            stack.append((_SUCC_ARG,) if tok == "S" else (_FN_ARG, tok, []))
            continue
        else:
            idx = var_index(tok)
            if idx is None:
                if tok.isidentifier():
                    raise error(f"unknown identifier {_cut(repr(tok))}", i - 1)
                raise expected("a term", i - 1)
            v = Var(idx)
        # v is an operand: pop each frame it completes, up to one that
        # waits for a further operand
        while stack:
            frame = stack[-1]
            kind = frame[0]
            tok = toks[i]
            if kind is _EQ_RIGHT:
                v = Eq(frame[1], v)
            elif kind is _FN_ARG:
                args = frame[2]
                args.append(v)
                if len(args) < FN_ARITY[frame[1]]:
                    if tok != ",":
                        raise expected("','", i)
                    i += 1
                    break
                if tok != ")":
                    raise expected("')'", i)
                i += 1
                v = FnApp(frame[1], args)
            elif kind is _OP_LEFT:
                if tok != "+" and tok != "*":
                    raise error(f"expected '+' or '*', found {_cut(repr(tok))}", i)
                i += 1
                stack[-1] = (_OP_RIGHT, v, tok, None)
                break
            elif kind is _SUCC_ARG or kind is _TR_ARG or kind is _OP_RIGHT:
                if tok != ")":
                    raise expected("')'", i)
                i += 1
                if kind is _SUCC_ARG:
                    v = Succ(v)
                elif kind is _TR_ARG:
                    v = Tr(v)
                else:
                    v = (Add if frame[2] == "+" else Mul)(frame[1], v)
            elif isinstance(v, Term):
                # the left side of an equation, or of a sum or product
                # where "(" opened what may also be a formula
                if kind is _PAREN_BODY and (tok == "+" or tok == "*"):
                    stack[-1] = (_OP_RIGHT, v, tok, (f"expected '=', found {tok!r}", i))
                    i += 1
                    break
                if tok != "=":
                    raise expected("'='", i)
                i += 1
                stack.append((_EQ_RIGHT, v))
                break
            elif kind is _NOT_BODY:
                v = Not(v)
            elif tok == "->":
                # '->' groups to the right, and a forall body reaches it
                i += 1
                stack.append((_IMP_CONS, v))
                want_formula = True
                break
            elif kind is _FORALL_BODY:
                v = Forall(frame[1], v)
            elif kind is _IMP_CONS:
                v = Imp(frame[1], v)
            elif kind is _PAREN_BODY:
                if tok != ")":
                    raise expected("')'", i)
                i += 1
            stack.pop()
        else:
            if toks[i]:
                raise error(f"trailing input after {'formula' if formula else 'term'}, found {_cut(repr(toks[i]))}", i)
            return v


def parse_term(text: str) -> Term:
    return _parse(text, False)


def parse_formula(text: str) -> Formula:
    return _parse(text, True)



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
    if type(sexp) is not list or not sexp or type(sexp[0]) is not str:
        raise ScriptError(f"expected {what}, got {_quote(sexp)}")


def _arity(sexp, n: int) -> None:
    if len(sexp) != n + 1:
        raise ScriptError(f"{sexp[0]} takes {n} argument(s), got {len(sexp) - 1}")


def _nat(tok, what: str) -> int:
    # ASCII digits only: int() would also take signs, underscores and
    # other scripts' digits
    if type(tok) is str and tok.isascii() and tok.isdigit():
        return int(tok)
    raise ScriptError(f"expected {what}, got {_quote(tok)}")


def _var(tok) -> int:
    if type(tok) is str:
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
        if type(args[0]) is not str:
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
