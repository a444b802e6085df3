"""Shared test utilities: random expression generators, independent
oracles, and the proof mutator used by the fuzzing suites."""

from __future__ import annotations

import random
import re
from unittest import mock

from omegatruth import proofscript
from omegatruth.coding import decode, encode
from omegatruth.kernel import (
    Axiom, CheckError, Gen, MP, Omega, Proof, SchemaId, TIntro, check,
)
from omegatruth.syntax import (
    FN_ARITY, Add, Eq, FnApp, Forall, Formula, Imp, Mul, Not, ParseError,
    Succ, Term, Tr, Var, ZERO, _children, numeral, substitute, var_index,
)

# ---------------------------------------------------------------------------
# random expressions


def random_term(rng: random.Random, depth: int, closed: bool = False) -> Term:
    if depth == 0:
        choices = [ZERO, numeral(rng.randrange(64))]
        if not closed:
            choices.append(Var(rng.randrange(8)))
        return rng.choice(choices)
    k = rng.randrange(6)
    if k == 0:
        return Succ(random_term(rng, depth - 1, closed))
    if k == 1:
        return Add(random_term(rng, depth - 1, closed), random_term(rng, depth - 1, closed))
    if k == 2:
        return Mul(random_term(rng, depth - 1, closed), random_term(rng, depth - 1, closed))
    if k == 3:
        return FnApp("iter", [random_term(rng, depth - 1, closed),
                              random_term(rng, depth - 1, closed)])
    if k == 4:
        return FnApp("sub", [random_term(rng, depth - 1, closed),
                             random_term(rng, depth - 1, closed),
                             random_term(rng, depth - 1, closed)])
    return random_term(rng, depth - 1, closed)


def random_formula(rng: random.Random, depth: int) -> Formula:
    if depth == 0:
        if rng.random() < 0.5:
            return Eq(random_term(rng, 1), random_term(rng, 1))
        return Tr(random_term(rng, 1))
    k = rng.randrange(4)
    if k == 0:
        return Not(random_formula(rng, depth - 1))
    if k == 1:
        return Imp(random_formula(rng, depth - 1), random_formula(rng, depth - 1))
    if k == 2:
        return Forall(rng.randrange(6), random_formula(rng, depth - 1))
    return random_formula(rng, depth - 1)


def random_expr(rng: random.Random, depth: int):
    return random_formula(rng, depth) if rng.random() < 0.6 else random_term(rng, depth)


def random_evaluable_term(rng: random.Random, depth: int) -> Term:
    """Closed terms whose sub-applications carry genuine formula codes."""
    if depth == 0:
        return numeral(rng.randrange(200))
    k = rng.randrange(6)
    if k == 0:
        return Succ(random_evaluable_term(rng, depth - 1))
    if k == 1:
        return Add(random_evaluable_term(rng, depth - 1), random_evaluable_term(rng, depth - 1))
    if k == 2:
        return Mul(random_evaluable_term(rng, depth - 1), random_evaluable_term(rng, depth - 1))
    if k == 3:
        return FnApp("iter", [numeral(rng.randrange(6)),
                              random_evaluable_term(rng, depth - 1)])
    if k == 4:
        v = rng.randrange(3)
        phi = Tr(Var(v)) if rng.random() < 0.5 else Eq(Var(v), numeral(rng.randrange(5)))
        return FnApp("sub", [numeral(encode(phi)), numeral(v),
                             random_evaluable_term(rng, depth - 1)])
    return random_evaluable_term(rng, depth - 1)


# ---------------------------------------------------------------------------
# term positions and axiom schemas


def term_positions(e):
    """All term positions of an expression (terms inside formulas and
    numeral spines included), as (path, subterm) pairs."""
    stack = [(e, ())]
    while stack:
        node, path = stack.pop()
        if isinstance(node, Term):
            yield path, node
        for i, c in enumerate(_children(node)):
            stack.append((c, path + (i,)))


def schema_of(phi: Formula, config):
    """The first schema under which the kernel accepts ``phi`` as an axiom,
    or None."""
    for schema in SchemaId:
        try:
            check(Axiom(schema, phi), config)
        except CheckError:
            continue
        return schema
    return None


# ---------------------------------------------------------------------------
# independent oracles


def oracle_sub(c: int, v: int, n: int) -> int:
    """Substitution function, by its definition."""
    return encode(substitute(decode(c), v, numeral(n)))


def oracle_iter(n: int, c: int) -> int:
    """Iteration function via the direct constructor (not the template)."""
    if n == 0:
        return c
    return encode(Tr(FnApp("iter", [numeral(n - 1), numeral(c)])))


def oracle_value(t: Term) -> int:
    """Term evaluator independent of the proof-producing evaluation chain."""
    tt = type(t)
    if tt.__name__ == "Zero":
        return 0
    if tt is Succ:
        return oracle_value(t.arg) + 1
    if tt is Add:
        return oracle_value(t.left) + oracle_value(t.right)
    if tt is Mul:
        return oracle_value(t.left) * oracle_value(t.right)
    if tt is FnApp and t.sym == "iter":
        return oracle_iter(oracle_value(t.args[0]), oracle_value(t.args[1]))
    if tt is FnApp:
        return oracle_sub(oracle_value(t.args[0]), oracle_value(t.args[1]),
                          oracle_value(t.args[2]))
    raise ValueError(f"not a closed evaluable term: {t!r}")


def oracle_taut(phi: Formula) -> bool:
    """Truth-table tautology decision, independent of the tactics module."""
    atoms: list[Formula] = []

    def collect(f: Formula) -> None:
        if type(f) is Not:
            collect(f.body)
        elif type(f) is Imp:
            collect(f.ant)
            collect(f.cons)
        elif f not in atoms:
            atoms.append(f)

    def evaluate(f: Formula, env) -> bool:
        if type(f) is Not:
            return not evaluate(f.body, env)
        if type(f) is Imp:
            return (not evaluate(f.ant, env)) or evaluate(f.cons, env)
        return env[f]

    collect(phi)
    for bits in range(1 << len(atoms)):
        env = {a: bool(bits >> i & 1) for i, a in enumerate(atoms)}
        if not evaluate(phi, env):
            return False
    return True


# ---------------------------------------------------------------------------
# reference reader and parser: the tokenizers and the backtracking parser as
# they were before the reader's string pattern was unrolled and the formula
# parser moved to one findall, kept to check that both give the same nodes
# and the same messages

# the s-expression token pattern, with the string alternative spelled one
# character per alternation
REFERENCE_SCRIPT_TOKEN = re.compile(
    r'[ \t\r\n]+|;[^\n]*'
    r'|([()]|[^ \t\r\n();"]+)'
    r'|"((?:[^"\\]|\\.)*)"'
    r'|(")',
    re.S,
)


def reference_read_forms(text: str) -> list:
    """``proofscript._read_forms`` under REFERENCE_SCRIPT_TOKEN."""
    with mock.patch.object(proofscript, "_TOKEN", REFERENCE_SCRIPT_TOKEN):
        return proofscript._read_forms(text)


_REFERENCE_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<num>#\d+)|(?P<zero>0)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<arrow>->)|(?P<sym>[()=+*,.~])"
)


def _reference_tokenize(text: str) -> list[tuple[str, str, int]]:
    out = []
    pos = 0
    while pos < len(text):
        m = _REFERENCE_TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", pos, text)
        pos = m.end()
        kind = m.lastgroup
        if kind != "ws":
            out.append((kind, m.group(), m.start()))
    out.append(("eof", "", len(text)))
    return out


class _ReferenceParser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _reference_tokenize(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def next(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect(self, want: str):
        kind, val, pos = self.next()
        if val != want and kind != want:
            raise ParseError(f"expected {want!r}, found {val or 'end of input'!r}", pos, self.text)
        return val

    def error(self, msg: str):
        _, val, pos = self.peek()
        raise ParseError(f"{msg}, found {val or 'end of input'!r}", pos, self.text)

    def term(self) -> Term:
        kind, val, pos = self.peek()
        if kind == "num":
            self.next()
            return numeral(int(val[1:]))
        if val == "0":
            self.next()
            return ZERO
        if val == "S":
            self.next()
            self.expect("(")
            t = self.term()
            self.expect(")")
            return Succ(t)
        if val in FN_ARITY:
            self.next()
            self.expect("(")
            args = [self.term()]
            for _ in range(FN_ARITY[val] - 1):
                self.expect(",")
                args.append(self.term())
            self.expect(")")
            return FnApp(val, args)
        if val == "(":
            self.next()
            left = self.term()
            kind2, op, pos2 = self.next()
            if op not in ("+", "*"):
                raise ParseError(f"expected '+' or '*', found {op!r}", pos2, self.text)
            right = self.term()
            self.expect(")")
            return Add(left, right) if op == "+" else Mul(left, right)
        if kind == "name":
            idx = var_index(val)
            if idx is None:
                raise ParseError(f"unknown identifier {val!r}", pos, self.text)
            self.next()
            return Var(idx)
        self.error("expected a term")
        raise AssertionError

    def formula(self) -> Formula:
        if self.peek()[1] == "forall":
            return self.forall()
        left = self.unary()
        if self.peek()[1] == "->":
            self.next()
            return Imp(left, self.formula())
        return left

    def forall(self) -> Formula:
        self.next()
        kind, name, pos = self.next()
        idx = var_index(name) if kind == "name" else None
        if idx is None:
            raise ParseError(f"expected a variable after 'forall', found {name!r}", pos, self.text)
        self.expect(".")
        return Forall(idx, self.formula())

    def unary(self) -> Formula:
        kind, val, pos = self.peek()
        if val == "~":
            self.next()
            if self.peek()[1] == "forall":
                return Not(self.forall())
            return Not(self.unary())
        if val == "T":
            self.next()
            self.expect("(")
            t = self.term()
            self.expect(")")
            return Tr(t)
        if val == "(":
            mark = self.i
            try:
                left = self.term()
            except ParseError:
                self.i = mark
                self.next()
                inner = self.formula()
                self.expect(")")
                return inner
            self.expect("=")
            return Eq(left, self.term())
        left = self.term()
        self.expect("=")
        return Eq(left, self.term())


def reference_parse_term(text: str) -> Term:
    p = _ReferenceParser(text)
    t = p.term()
    if p.peek()[0] != "eof":
        p.error("trailing input after term")
    return t


def reference_parse_formula(text: str) -> Formula:
    p = _ReferenceParser(text)
    f = p.formula()
    if p.peek()[0] != "eof":
        p.error("trailing input after formula")
    return f


# ---------------------------------------------------------------------------
# proof mutation


def proof_paths(p: Proof, prefix=()):
    """All (path, node) pairs of the proof tree (omega bases included)."""
    yield prefix, p
    t = type(p)
    if t is MP:
        yield from proof_paths(p.minor, prefix + (0,))
        yield from proof_paths(p.major, prefix + (1,))
    elif t is Gen or t is TIntro:
        yield from proof_paths(p.premise, prefix + (0,))
    elif t is Omega:
        yield from proof_paths(p.base, prefix + (0,))


def proof_replace(p: Proof, path, new: Proof) -> Proof:
    if not path:
        return new
    t = type(p)
    if t is MP:
        if path[0] == 0:
            return MP(proof_replace(p.minor, path[1:], new), p.major)
        return MP(p.minor, proof_replace(p.major, path[1:], new))
    if t is Gen:
        return Gen(p.var, proof_replace(p.premise, path[1:], new))
    if t is TIntro:
        return TIntro(proof_replace(p.premise, path[1:], new))
    if t is Omega:
        return Omega(p.var, p.family, proof_replace(p.base, path[1:], new), p.steps)
    raise ValueError("path into a leaf")


def _mutate_formula(rng: random.Random, f: Formula) -> Formula:
    t = type(f)
    k = rng.randrange(4)
    if k == 0:
        return Not(f)
    if k == 1 and t is Imp:
        return Imp(f.cons, f.ant)
    if k == 2 and t is Not:
        return f.body
    if t is Imp:
        return Imp(f.ant, _mutate_formula(rng, f.cons))
    if t is Not:
        return Not(_mutate_formula(rng, f.body))
    if t is Forall:
        return Forall(f.var + 1, f.body)
    if t is Eq:
        return Eq(f.right, Succ(f.left))
    if t is Tr:
        return Tr(Succ(f.arg))
    return Not(f)


def mutate_node(rng: random.Random, node: Proof) -> Proof:
    """Perturb the semantic content of one node.

    Relabeling an axiom with a different schema id is deliberately not a
    mutation here: two schemas can share instances (an odd canonical
    numeral is a literal successor application, so n = n is both a
    reflexivity and a successor-computation instance), and a relabeled
    node is then a different but equally valid proof of the same theorem.
    """
    t = type(node)
    if t is Axiom:
        return Axiom(node.schema, _mutate_formula(rng, node.instance))
    if t is MP:
        return MP(node.major, node.minor)
    if t is Gen:
        return Gen(node.var + 1, node.premise)
    if t is TIntro:
        return Gen(0, node.premise)
    # Omega: perturb the distinguished variable or the family
    if rng.random() < 0.5:
        return Omega(node.var + 1, node.family, node.base, node.steps)
    return Omega(node.var, _mutate_formula(rng, node.family), node.base, node.steps)


def mutate_proof(rng: random.Random, proof: Proof, tries: int = 20) -> Proof:
    """A structurally different single-node mutation of the proof."""
    nodes = list(proof_paths(proof))
    for _ in range(tries):
        path, node = rng.choice(nodes)
        mutant_node = mutate_node(rng, node)
        mutant = proof_replace(proof, path, mutant_node)
        if mutant != proof:
            return mutant
    raise AssertionError("could not produce a distinct mutant")
