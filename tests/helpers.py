"""Shared test utilities: random expression generators, independent
oracles, and the proof mutator used by the fuzzing suites."""

from __future__ import annotations

import random
import re
from unittest import mock

from omegatruth import proofscript, tactics as T
from omegatruth.coding import ITER_STEP_AXIOM, OMEGA_VAR, decode, encode, name_of
from omegatruth.kernel import (
    Axiom, CheckError, Gen, LiftImp, MP, Omega, Proof, RewriteEval, SchemaId,
    TIntro, check, q_axiom,
)
from omegatruth.proofscript import ParseError, var_index
from omegatruth.syntax import (
    FN_ARITY, ITER, Add, Eq, FnApp, Forall, Formula, Imp, Mul, Not, Succ,
    Term, Tr, Var, ZERO, _children, _rebuild, numeral, substitute,
)
from omegatruth.tactics import omega_truth

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


class EqualsAll(Eq):
    """An equation equal to every object: a foreign formula that no rule or
    tactic may take for the one it is compared with."""

    __slots__ = ()
    __hash__ = Eq.__hash__

    def __eq__(self, other):
        return True

    def __ne__(self, other):
        return False


def equals_all() -> EqualsAll:
    """An EqualsAll with the sides of 0 = 0, built past the interning
    constructor."""
    w = object.__new__(EqualsAll)
    w.fv, w.left, w.right = frozenset(), ZERO, ZERO
    return w


# ---------------------------------------------------------------------------
# independent oracles


def oracle_sub(c: int, v: int, n: int) -> int:
    """Substitution function, by its definition."""
    return encode(substitute(decode(c), v, numeral(n)))


def oracle_substitute(e, v: int, s: Term):
    """The recursive substitution that renamed a capturing binder to the
    smallest fresh index, kept as it was: it calls ``Var`` only to rename."""
    if v not in e.fv:
        return e
    t = type(e)
    if t is Var:
        return s
    if t is not Forall:
        return _rebuild(e, tuple(oracle_substitute(c, v, s) for c in _children(e)))
    # e.var != v since v is free in e
    w, body = e.var, e.body
    if w in s.fv:
        fresh = 0
        taken = body.fv | s.fv | {v}
        while fresh in taken:
            fresh += 1
        body = oracle_substitute(body, w, Var(fresh))
        w = fresh
    return Forall(w, oracle_substitute(body, v, s))


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
# reference lemmas: the fixed-shape lemmas as hypothesis trees closed by the
# deduction compiler, as tactics and theorems built them before they were
# written out node by node, kept to check that both give the very same
# theorem.  ``imp_trans`` and ``contrapose`` take closed theorems only, so
# the trees that compose open implications use their tree versions here.


def _close(tree, *hs: Formula) -> T.Thm:
    for h in hs:
        tree = T._discharge(tree, h)
    assert type(tree) is T.Thm, "undischarged hypotheses"
    return tree


def _tree_imp_trans(a, b):
    """X -> Z from trees a: X -> Y and b: Y -> Z, which may be open."""
    x = a.formula.ant
    return T._discharge(T._happly(T._happly(T._HHyp(x), a), b), x)


def _tree_contrapose(t):
    """~Y -> ~X from a tree t: X -> Y, which may be open."""
    f = t.formula
    c1 = _tree_imp_trans(T._l_dne(f.ant), t)
    c2 = _tree_imp_trans(c1, T._l_dni(f.cons))
    return T._happly(c2, T.ax(SchemaId.PROP3, Imp(c2.formula, Imp(Not(f.cons), Not(f.ant)))))


def reference_l_dne(a: Formula) -> T.Thm:
    """~~a -> a."""
    n1, n2 = Not(a), Not(Not(a))
    n3, n4 = Not(Not(Not(a))), Not(Not(Not(Not(a))))
    h = T._HHyp(n2)
    t1 = T._happly(h, T.ax(SchemaId.PROP1, Imp(n2, Imp(n4, n2))))
    t2 = T._happly(t1, T.ax(SchemaId.PROP3, Imp(Imp(n4, n2), Imp(n1, n3))))
    t3 = T._happly(t2, T.ax(SchemaId.PROP3, Imp(Imp(n1, n3), Imp(n2, a))))
    return _close(T._happly(h, t3), n2)


def reference_imp_trans(a: T.Thm, b: T.Thm) -> T.Thm:
    """X -> Z from the closed a: X -> Y and b: Y -> Z."""
    return _close(_tree_imp_trans(a, b))


def reference_imp_mono_ant(p: T.Thm, r: Formula) -> T.Thm:
    """(a -> r) -> (a' -> r) from p: a' -> a."""
    a2, a = p.formula.ant, p.formula.cons
    ar = Imp(a, r)
    return _close(T._happly(T._happly(T._HHyp(a2), p), T._HHyp(ar)), a2, ar)


def reference_imp_mono_cons(p: T.Thm, r: Formula) -> T.Thm:
    """(r -> b) -> (r -> b') from p: b -> b'."""
    rb = Imp(r, p.formula.ant)
    return _close(T._happly(T._happly(T._HHyp(r), T._HHyp(rb)), p), r, rb)


def reference_l_efq(a: Formula, b: Formula) -> T.Thm:
    """~a -> (a -> b)."""
    na, nb = Not(a), Not(b)
    k = T._happly(T._HHyp(na), T.ax(SchemaId.PROP1, Imp(na, Imp(nb, na))))
    c = T._happly(k, T.ax(SchemaId.PROP3, Imp(Imp(nb, na), Imp(a, b))))
    return _close(T._happly(T._HHyp(a), c), a, na)


def reference_l_counter(a: Formula, b: Formula) -> T.Thm:
    """a -> (~b -> ~(a -> b))."""
    ab = Imp(a, b)
    t = T._discharge(T._happly(T._HHyp(a), T._HHyp(ab)), ab)  # (a->b) -> b, from a
    return _close(_tree_contrapose(t), a)


def reference_l_caa(c: Formula) -> T.Thm:
    """(~c -> c) -> c."""
    nc = Not(c)
    h = Imp(nc, c)
    a = T._happly(T._HHyp(nc), T._HHyp(h))
    b = T._happly(T._HHyp(nc), T._l_efq(c, Not(h)))
    d = T._discharge(T._happly(a, b), nc)  # ~c -> ~(~c -> c), from h
    e = T._happly(d, T.ax(SchemaId.PROP3, Imp(d.formula, Imp(h, c))))
    return _close(T._happly(T._HHyp(h), e), h)


def reference_l_cases(a: Formula, c: Formula) -> T.Thm:
    """(a -> c) -> ((~a -> c) -> c)."""
    p, q = Imp(a, c), Imp(Not(a), c)
    t = _tree_imp_trans(_tree_contrapose(T._HHyp(p)), T._HHyp(q))  # ~c -> c
    return _close(T._happly(t, T._l_caa(c)), q, p)


def reference_m2(phi: Formula, psi: Formula) -> T.Thm:
    """T^omega(#(phi -> psi)) -> (T^omega(#phi) -> T^omega(#psi)), with
    P -> (Q -> R(y)) from a tree under the hypotheses P and Q."""
    nf, na, nb = name_of(Imp(phi, psi)), name_of(phi), name_of(psi)
    y = OMEGA_VAR
    fam = Imp(
        Tr(FnApp(ITER, [Var(y), nf])),
        Imp(Tr(FnApp(ITER, [Var(y), na])), Tr(FnApp(ITER, [Var(y), nb]))),
    )
    positions = [(0, 0), (1, 0, 0), (1, 1, 0)]
    timp = T.ax(SchemaId.TIMP, Imp(Tr(nf), Imp(Tr(na), Tr(nb))))
    base = T.rewrite_align(timp, substitute(fam, y, ZERO), positions)
    node = Omega(y, fam, base.proof, (LiftImp(2),) + tuple(RewriteEval(q) for q in positions))
    om = T.Thm(node, node.conclusion)

    p_w, q_w = omega_truth(nf), omega_truth(na)
    r_y = Tr(FnApp(ITER, [Var(y), nb]))
    at_y = T.inst(om, Var(y))
    pa = T.ax(SchemaId.QUANT1, Imp(p_w, fam.ant))
    pb = T.ax(SchemaId.QUANT1, Imp(q_w, fam.cons.ant))
    got_a = T._happly(T._HHyp(p_w), pa)
    got_b = T._happly(T._HHyp(q_w), pb)
    h = _close(T._happly(got_b, T._happly(got_a, at_y)), q_w, p_w)  # P -> (Q -> R(y))
    gy = T.gen(h, y)
    s1 = T.mp(gy, T.ax(SchemaId.QUANT2, Imp(gy.formula, Imp(p_w, Forall(y, Imp(q_w, r_y))))))
    q2b = T.ax(SchemaId.QUANT2, Imp(Forall(y, Imp(q_w, r_y)), Imp(q_w, Forall(y, r_y))))
    return T.imp_trans(s1, q2b)


def reference_not_zero_one() -> T.Thm:
    """~(0 = 1), with 0 = 1 -> 1 = 0 from a tree under the hypothesis 0 = 1."""
    one = Succ(ZERO)
    z01 = Eq(ZERO, one)
    at_zero = T.inst(T.ax(SchemaId.Q2, q_axiom(SchemaId.Q2)), ZERO)
    e3 = T.ax(SchemaId.EQ3, Imp(z01, Imp(Eq(ZERO, ZERO), Eq(one, ZERO))))
    flip = _close(T._happly(T.refl(ZERO), T._happly(T._HHyp(z01), e3)), z01)
    return T.mp(at_zero, T.contrapose(flip))


def reference_iter_step_at(m: Term, bn: Term) -> T.Thm:
    """iter(S m, bn) = ..., the iteration step axiom instantiated twice."""
    return T.inst(T.inst(T.ax(SchemaId.COMP_ITER_STEP, ITER_STEP_AXIOM), m), bn)


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
