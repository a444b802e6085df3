"""Proof objects, axiom schemas, inference rules and the proof checker.

The kernel accepts Hilbert-style proofs over the truth language: axiom
instances, modus ponens, generalization, the truth-introduction rule, and
omega-rule nodes.  An omega node does not carry infinitely many premises;
it is its own *premise generator*: a family formula with a distinguished
variable, a proof of the instance at 0, and a list of step combinators
that turn a proof of the instance at n into a proof of the instance at
n+1.  Its conclusion is derived, never stored: the universal closure of
the family.  The checker replays the steps for ``omega_samples``
successive instances and verifies every produced proof from scratch.

Trust statement.  Soundness of an accepted omega node for *all* n rests on
the step combinators being parametric: each one builds its output from the
shape of its input conclusion, delegating every numeral computation to the
COMP_* axiom schemas, whose instances the checker verifies by running the
meta-level functions.  The trusted computing base is exactly: evaluation of
the substitution function, the iteration template identities, numeral
arithmetic, and the sampled replay itself.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from . import coding
from .syntax import (
    Add, Eq, FnApp, Forall, Formula, Imp, ITER, Mul, Not, SUB, Succ, Term,
    Tr, Var, ZERO, TWO, _INTERN, _children, numeral, pretty_print, substitute,
)

__all__ = [
    "SchemaId", "TheoryConfig", "GAMMA", "SIGMA",
    "Proof", "Axiom", "MP", "Gen", "TIntro", "Omega",
    "StepCombinator", "ApplyTIntro", "LiftImp", "RewriteEval", "ChainWith",
    "CheckedTheorem", "Refutation",
    "CheckError", "MissingSchema", "check", "q_axiom",
]


class SchemaId(enum.Enum):
    # members are singletons compared by identity, so the identity hash
    # agrees with equality and skips Enum's Python-level hash of the name
    __hash__ = object.__hash__

    PROP1 = "PROP1"
    PROP2 = "PROP2"
    PROP3 = "PROP3"
    QUANT1 = "QUANT1"
    QUANT2 = "QUANT2"
    EQ1 = "EQ1"
    EQ2 = "EQ2"
    EQ3 = "EQ3"
    Q1 = "Q1"
    Q2 = "Q2"
    Q3 = "Q3"
    Q4 = "Q4"
    Q5 = "Q5"
    Q6 = "Q6"
    Q7 = "Q7"
    CONS = "CONS"
    TIMP = "TIMP"
    UINF = "UINF"
    COMP_SUB = "COMP_SUB"
    COMP_ITER0 = "COMP_ITER0"
    COMP_ITER_STEP = "COMP_ITER_STEP"
    COMP_SUCC = "COMP_SUCC"


class _Checked:
    """Mixed in before a NamedTuple: every way of building the record runs
    its ``_check``, ``_make`` and ``_replace`` included."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _TheoryFields(NamedTuple):
    has_cons: bool = True
    has_timp: bool = True
    has_uinf: bool = True
    omega_samples: int = 8
    max_omega_count: int | None = None


class TheoryConfig(_Checked, _TheoryFields):
    """Which axiom schemas are active, plus checker parameters.

    ``GAMMA`` activates all three truth schemas; ``SIGMA`` is ``GAMMA``
    without internal consistency.  The base logic, Robinson arithmetic and
    the computation schemas are always available.
    """

    __slots__ = ()

    def _check(self):
        if self.omega_samples < 1:
            raise ValueError("omega_samples must be at least 1")

    def active(self, schema: SchemaId) -> bool:
        if schema is SchemaId.CONS:
            return self.has_cons
        if schema is SchemaId.TIMP:
            return self.has_timp
        if schema is SchemaId.UINF:
            return self.has_uinf
        return True

    def preset_name(self) -> str:
        flags = (self.has_cons, self.has_timp, self.has_uinf)
        if flags == (True, True, True):
            return "gamma"
        if flags == (False, True, True):
            return "sigma"
        return "custom(cons={:d},timp={:d},uinf={:d})".format(*flags)


GAMMA = TheoryConfig()
SIGMA = TheoryConfig(has_cons=False)


class MissingSchema(ValueError):
    """A bundled derivation needs a schema the configuration switched off."""

    def __init__(self, schema: SchemaId):
        super().__init__(f"MissingSchema({schema.value})")
        self.schema = schema


class CheckError(ValueError):
    """Structured proof-check failure: offending node, rule and reason."""

    def __init__(self, path: tuple[int, ...], rule: str, reason: str):
        super().__init__(f"at node {'/'.join(map(str, path)) or '<root>'} [{rule}]: {reason}")
        self.path = path
        self.rule = rule
        self.reason = reason


# ---------------------------------------------------------------------------
# proof objects


class _Interned:
    """Base of the interned kernel objects: proofs and step combinators."""

    __slots__ = ()

    @classmethod
    def _make(cls, key):
        _INTERN[key] = self = object.__new__(cls)
        return self


class Proof(_Interned):
    """Base class for proof nodes, interned like terms and formulas.

    A node holds only what the kernel checks; which macro call built it,
    if any, is recorded by the tactics layer (``tactics.MACROS``).
    """

    __slots__ = ()


class Axiom(Proof):
    __slots__ = ("schema", "instance")

    def __new__(cls, schema: SchemaId, instance: Formula):
        key = (cls, schema, instance)
        self = _INTERN.get(key)
        if self is None:
            self = cls._make(key)
            self.schema = schema
            self.instance = instance
        return self


class MP(Proof):
    """Modus ponens: first premise proves A, second proves A -> B."""

    __slots__ = ("minor", "major")

    def __new__(cls, minor: Proof, major: Proof):
        key = (cls, minor, major)
        self = _INTERN.get(key)
        if self is None:
            self = cls._make(key)
            self.minor = minor
            self.major = major
        return self


class Gen(Proof):
    __slots__ = ("var", "premise")

    def __new__(cls, var: int, premise: Proof):
        key = (cls, var, premise)
        self = _INTERN.get(key)
        if self is None:
            self = cls._make(key)
            self.var = var
            self.premise = premise
        return self


class TIntro(Proof):
    __slots__ = ("premise",)

    def __new__(cls, premise: Proof):
        key = (cls, premise)
        self = _INTERN.get(key)
        if self is None:
            self = cls._make(key)
            self.premise = premise
        return self


class StepCombinator(_Interned):
    __slots__ = ()


class ApplyTIntro(StepCombinator):
    """phi  =>  T(name of phi)."""

    __slots__ = ()

    def __new__(cls):
        return _INTERN.get((cls,)) or cls._make((cls,))

    def apply(self, proof: Proof, formula: Formula, expected: Formula):
        from . import tactics as T

        th = T.tintro(T.Thm(proof, formula))
        return th.proof, th.formula


class LiftImp(StepCombinator):
    """Lift an implication under the truth predicate.

    depth 1: from A -> B derive T(#A) -> T(#B); depth 2: from A -> (B -> C)
    derive T(#A) -> (T(#B) -> T(#C)).  Uses T-Intro plus TIMP instances.
    """

    __slots__ = ("depth",)

    def __new__(cls, depth: int = 1):
        key = (cls, depth)
        self = _INTERN.get(key)
        if self is None:
            if depth not in (1, 2):
                raise ValueError("LiftImp depth must be 1 or 2")
            self = cls._make(key)
            self.depth = depth
        return self

    def apply(self, proof: Proof, formula: Formula, expected: Formula):
        from . import tactics as T

        th = T.lift_imp(T.Thm(proof, formula), self.depth)
        return th.proof, th.formula


class RewriteEval(StepCombinator):
    """Align the closed term at ``position`` with the expected conclusion
    through a chain of COMP_* evaluation axioms."""

    __slots__ = ("position",)

    def __new__(cls, position):
        position = tuple(position)
        key = (cls, position)
        self = _INTERN.get(key)
        if self is None:
            self = cls._make(key)
            self.position = position
        return self

    def apply(self, proof: Proof, formula: Formula, expected: Formula):
        from . import tactics as T

        th = T.rewrite_align(T.Thm(proof, formula), expected, [self.position])
        return th.proof, th.formula


class ChainWith(StepCombinator):
    """Compose the input implication with a fixed checked lemma."""

    __slots__ = ("lemma", "conclusion")

    def __new__(cls, lemma: Proof, conclusion: Formula):
        key = (cls, lemma, conclusion)
        self = _INTERN.get(key)
        if self is None:
            self = cls._make(key)
            self.lemma = lemma
            self.conclusion = conclusion
        return self

    def apply(self, proof: Proof, formula: Formula, expected: Formula):
        from . import tactics as T

        th = T.chain(T.Thm(proof, formula), T.Thm(self.lemma, self.conclusion))
        return th.proof, th.formula


class Omega(Proof):
    """The finitized omega-rule: a finite certificate for the infinite
    premise family, concluding its universal closure ``Forall(var, family)``.

    Instance n is ``family`` with the numeral of n substituted for ``var``.
    ``base`` proves instance 0 and ``steps``, applied in order, turn a proof
    of instance n into a proof of instance n+1 uniformly in n.
    """

    __slots__ = ("var", "family", "base", "steps")

    def __new__(cls, var: int, family: Formula, base: Proof, steps):
        steps = tuple(steps)
        key = (cls, var, family, base, steps)
        self = _INTERN.get(key)
        if self is None:
            self = cls._make(key)
            self.var = var
            self.family = family
            self.base = base
            self.steps = steps
        return self

    @property
    def conclusion(self) -> Formula:
        return Forall(self.var, self.family)

    def instance(self, n: int) -> Formula:
        return substitute(self.family, self.var, numeral(n))

    def premises(self, count: int, path: tuple[int, ...] = ()):
        """Yield ``(proof, instance n)`` for n = 1..count, each proof built
        by applying the steps to the previous one, starting from the base.

        A step that raises is reported as a :class:`CheckError` at ``path``
        naming the step and the sample n it was building.  Nothing yielded
        is checked here.
        """
        proof, formula = self.base, self.instance(0)
        for n in range(1, count + 1):
            expected = self.instance(n)
            for j, step in enumerate(self.steps):
                try:
                    proof, formula = step.apply(proof, formula, expected)
                except CheckError:
                    raise
                except Exception as e:  # tactic construction failure
                    raise CheckError(path, "omega", f"step {j} failed at sample {n}: {e}") from e
            yield proof, expected
            formula = expected


def _proof_children(p: Proof) -> tuple[Proof, ...]:
    t = type(p)
    if t is MP:
        return (p.minor, p.major)
    if t is Gen or t is TIntro:
        return (p.premise,)
    if t is Omega:
        return (p.base,) + tuple(
            s.lemma for s in p.steps if isinstance(s, ChainWith)
        )
    return ()


# ---------------------------------------------------------------------------
# schema matching

_X, _Y = Var(0), Var(1)
_Q_SENTENCES: dict[SchemaId, Formula] = {
    SchemaId.Q1: Forall(0, Forall(1, Imp(Eq(Succ(_X), Succ(_Y)), Eq(_X, _Y)))),
    SchemaId.Q2: Forall(0, Not(Eq(Succ(_X), ZERO))),
    SchemaId.Q3: Forall(0, Imp(Not(Eq(_X, ZERO)), Not(Forall(1, Not(Eq(_X, Succ(_Y))))))),
    SchemaId.Q4: Forall(0, Eq(Add(_X, ZERO), _X)),
    SchemaId.Q5: Forall(0, Forall(1, Eq(Add(_X, Succ(_Y)), Succ(Add(_X, _Y))))),
    SchemaId.Q6: Forall(0, Eq(Mul(_X, ZERO), ZERO)),
    SchemaId.Q7: Forall(0, Forall(1, Eq(Mul(_X, Succ(_Y)), Add(Mul(_X, _Y), _X)))),
}


def _m_prop1(phi):
    ok = type(phi) is Imp and type(phi.cons) is Imp and phi.cons.cons == phi.ant
    return ok, None


def _m_prop2(phi):
    if not (
        type(phi) is Imp
        and type(phi.ant) is Imp and type(phi.ant.cons) is Imp
        and type(phi.cons) is Imp
        and type(phi.cons.ant) is Imp and type(phi.cons.cons) is Imp
    ):
        return False, None
    a, bc = phi.ant.ant, phi.ant.cons
    ok = (
        phi.cons.ant.ant == a
        and phi.cons.ant.cons == bc.ant
        and phi.cons.cons.ant == a
        and phi.cons.cons.cons == bc.cons
    )
    return ok, None


def _m_prop3(phi):
    ok = (
        type(phi) is Imp
        and type(phi.ant) is Imp
        and type(phi.ant.ant) is Not and type(phi.ant.cons) is Not
        and type(phi.cons) is Imp
        and phi.cons.ant == phi.ant.cons.body
        and phi.cons.cons == phi.ant.ant.body
    )
    return ok, None


def _find_instance_term(body: Formula, inst: Formula, v: int):
    """Solve ``inst == substitute(body, v, t)`` for ``t`` (no bound renaming).

    Returns (True, t) on success (t is None for a vacuous instantiation) and
    (False, None) otherwise.
    """
    cands: list[Term] = []

    def walk(a, b, bound: frozenset[int]) -> bool:
        if v not in a.fv:
            return a == b
        ta = type(a)
        if ta is Var:
            if a.idx != v:
                return type(b) is Var and b.idx == a.idx
            if b.fv & bound:
                return False  # a variable of t would be captured here
            cands.append(b)
            return True
        if ta is not type(b):
            return False
        if ta is Forall:
            if a.var != b.var:
                return False
            return walk(a.body, b.body, bound | {a.var})
        if ta is FnApp and a.sym != b.sym:
            return False
        ka, kb = _children(a), _children(b)
        if len(ka) != len(kb):
            return False
        return all(walk(p, q, bound) for p, q in zip(ka, kb))

    if not walk(body, inst, frozenset()):
        return False, None
    t0 = cands[0] if cands else None
    for t in cands[1:]:
        if t != t0:
            return False, None
    return True, t0


def _m_quant1(phi):
    if not (type(phi) is Imp and type(phi.ant) is Forall):
        return False, None
    ok, _t = _find_instance_term(phi.ant.body, phi.cons, phi.ant.var)
    if not ok:
        return False, "consequent is not a substitution instance of the quantified body"
    return True, None


def _m_quant2(phi):
    if not (
        type(phi) is Imp
        and type(phi.ant) is Forall and type(phi.ant.body) is Imp
        and type(phi.cons) is Imp and type(phi.cons.cons) is Forall
    ):
        return False, None
    v = phi.ant.var
    a, b = phi.ant.body.ant, phi.ant.body.cons
    if phi.cons.ant != a or phi.cons.cons.var != v or phi.cons.cons.body != b:
        return False, None
    if v in a.fv:
        return False, f"variable {v} occurs free in the antecedent"
    return True, None


def _m_eq1(phi):
    return (type(phi) is Eq and phi.left == phi.right), None


def _one_step_rewrite(src, dst, s: Term, t: Term) -> bool:
    """dst is src with s replaced by t at exactly one term position.

    Nodes are interned, so a rewrite at position i.p changes child i and
    leaves every other child the very same object: one walk over both sides
    follows the single child pair that differs, down to where s meets t.
    """
    if src is dst:
        return s is t and _occurs(s, src)
    a, b = src, dst
    while a is not s:
        ta = type(a)
        if ta is not type(b) or (ta is Forall and a.var != b.var) or (ta is FnApp and a.sym != b.sym):
            return False
        differ = [(p, q) for p, q in zip(_children(a), _children(b)) if p is not q]
        if len(differ) != 1:
            return False
        a, b = differ[0]
    return b is t


def _occurs(s: Term, e) -> bool:
    """Whether s is e or lies inside it, reading no numeral's spine."""
    k = s.nv
    stack = [e]
    while stack:
        e = stack.pop()
        if e is s:
            return True
        m = e.nv if isinstance(e, Term) else None
        if not m:
            stack.extend(_children(e))
        elif s is TWO:
            if m >= 2:  # the left factor of every even numeral on the spine
                return True
        elif k is not None and k < m:
            # the spine of #m holds #(m >> j) for each j, and #((m >> j) - 1)
            # below each odd one: #k lies on it iff its bits start m's
            p = m >> (m.bit_length() - k.bit_length())
            if k == p or (p & 1 and k == p - 1):
                return True
    return False


def _m_eq2(phi):
    if not (
        type(phi) is Imp and type(phi.ant) is Eq and type(phi.cons) is Eq
    ):
        return False, None
    s, t = phi.ant.left, phi.ant.right
    if _one_step_rewrite(phi.cons.left, phi.cons.right, s, t):
        return True, None
    return False, "right side is not a one-position rewrite of the left side"


def _m_eq3(phi):
    if not (
        type(phi) is Imp and type(phi.ant) is Eq
        and type(phi.cons) is Imp
        and type(phi.cons.ant) in (Eq, Tr)
        and type(phi.cons.cons) in (Eq, Tr)
    ):
        return False, None
    s, t = phi.ant.left, phi.ant.right
    if _one_step_rewrite(phi.cons.ant, phi.cons.cons, s, t):
        return True, None
    return False, "consequent is not a one-position rewrite of the antecedent"


def _named(t: Term):
    """Decode a canonical numeral naming a sentence-or-formula, or None."""
    if not isinstance(t, Term) or t.nv is None:
        return None
    try:
        return coding.decode(t.nv)
    except coding.DecodeError:
        return None


def _m_cons(phi):
    if not (
        type(phi) is Imp and type(phi.ant) is Tr
        and type(phi.cons) is Not and type(phi.cons.body) is Tr
    ):
        return False, None
    da = _named(phi.ant.arg)
    db = _named(phi.cons.body.arg)
    if da is None or db is None or not isinstance(db, Formula):
        return False, "arguments are not names of formulas"
    if db.fv:
        return False, "named formula is not a sentence"
    if da != Not(db):
        return False, "left name is not the negation of the right name"
    return True, None


def _m_timp(phi):
    if not (
        type(phi) is Imp and type(phi.ant) is Tr
        and type(phi.cons) is Imp
        and type(phi.cons.ant) is Tr and type(phi.cons.cons) is Tr
    ):
        return False, None
    di = _named(phi.ant.arg)
    da = _named(phi.cons.ant.arg)
    db = _named(phi.cons.cons.arg)
    if di is None or da is None or db is None:
        return False, "arguments are not names of formulas"
    if not (isinstance(da, Formula) and isinstance(db, Formula)) or da.fv or db.fv:
        return False, "named formulas are not sentences"
    if di != Imp(da, db):
        return False, "first name is not the implication of the other two"
    return True, None


def _m_uinf(phi):
    if not (
        type(phi) is Imp and type(phi.ant) is Forall
        and type(phi.ant.body) is Tr and type(phi.cons) is Tr
    ):
        return False, None
    x = phi.ant.var
    arg = phi.ant.body.arg
    if not (type(arg) is FnApp and arg.sym == SUB):
        return False, None
    cn, vn, xv = arg.args
    if not (type(xv) is Var and xv.idx == x):
        return False, "inner substitution is not applied at the quantified variable"
    if cn.nv is None or vn.nv is None:
        return False, "name or variable-index argument is not a canonical numeral"
    body = _named(cn)
    if body is None or not isinstance(body, Formula):
        return False, "first argument is not the name of a formula"
    v = vn.nv
    if not body.fv <= {v}:
        return False, "named formula has free variables other than the distinguished one"
    want = coding.encode(Forall(v, body))
    if phi.cons.arg.nv != want:
        return False, "consequent does not name the universal closure"
    return True, None


def _m_comp_sub(phi):
    if not (type(phi) is Eq and type(phi.left) is FnApp and phi.left.sym == SUB):
        return False, None
    c, v, n = phi.left.args
    k = phi.right
    if any(a.nv is None for a in (c, v, n, k)):
        return False, "arguments are not canonical numerals"
    try:
        got = coding.sub_fn(c.nv, v.nv, n.nv)
    except coding.CodingError as e:
        return False, str(e)
    if got != k.nv:
        return False, "right side disagrees with the substitution function"
    return True, None


def _m_comp_iter0(phi):
    ok = (
        type(phi) is Forall
        and type(phi.body) is Eq
        and type(phi.body.left) is FnApp and phi.body.left.sym == ITER
        and phi.body.left.args[0].nv == 0
        and type(phi.body.left.args[1]) is Var and phi.body.left.args[1].idx == phi.var
        and type(phi.body.right) is Var and phi.body.right.idx == phi.var
    )
    return ok, None


def _m_comp_iter_step(phi):
    if not (
        type(phi) is Forall and type(phi.body) is Forall
        and type(phi.body.body) is Eq
    ):
        return False, None
    a, b = phi.var, phi.body.var
    eq = phi.body.body
    lhs, rhs = eq.left, eq.right
    if not (
        a != b
        and type(lhs) is FnApp and lhs.sym == ITER
        and type(lhs.args[0]) is Succ and type(lhs.args[0].arg) is Var
        and lhs.args[0].arg.idx == a
        and type(lhs.args[1]) is Var and lhs.args[1].idx == b
        and type(rhs) is FnApp and rhs.sym == SUB
    ):
        return False, None
    inner, yi, xv = rhs.args
    if not (
        type(inner) is FnApp and inner.sym == SUB
        and type(xv) is Var and xv.idx == a
        and type(inner.args[2]) is Var and inner.args[2].idx == b
    ):
        return False, None
    k0n, zi = inner.args[0], inner.args[1]
    if k0n.nv is None or zi.nv is None or yi.nv is None:
        return False, "template arguments are not canonical numerals"
    if zi.nv == yi.nv:
        return False, "template slots coincide"
    template = _named(k0n)
    want = Tr(FnApp(ITER, [Var(yi.nv), Var(zi.nv)]))
    if template != want:
        return False, "first argument does not name the iteration step template"
    return True, None


def _m_comp_succ(phi):
    if type(phi) is not Eq or phi.right.nv is None:
        return False, None
    lhs, k = phi.left, phi.right.nv
    t = type(lhs)
    if t is Succ and lhs.arg.nv is not None:
        ok = k == lhs.arg.nv + 1
    elif t is Add and lhs.left.nv is not None and lhs.right.nv is not None:
        ok = k == lhs.left.nv + lhs.right.nv
    elif t is Mul and lhs.left.nv is not None and lhs.right.nv is not None:
        ok = k == lhs.left.nv * lhs.right.nv
    else:
        return False, None
    return ok, (None if ok else "right side disagrees with numeral arithmetic")


_MATCHERS = {
    SchemaId.PROP1: _m_prop1,
    SchemaId.PROP2: _m_prop2,
    SchemaId.PROP3: _m_prop3,
    SchemaId.QUANT1: _m_quant1,
    SchemaId.QUANT2: _m_quant2,
    SchemaId.EQ1: _m_eq1,
    SchemaId.EQ2: _m_eq2,
    SchemaId.EQ3: _m_eq3,
    SchemaId.CONS: _m_cons,
    SchemaId.TIMP: _m_timp,
    SchemaId.UINF: _m_uinf,
    SchemaId.COMP_SUB: _m_comp_sub,
    SchemaId.COMP_ITER0: _m_comp_iter0,
    SchemaId.COMP_ITER_STEP: _m_comp_iter_step,
    SchemaId.COMP_SUCC: _m_comp_succ,
}


def _matches(schema: SchemaId, phi: Formula):
    m = _MATCHERS.get(schema)
    if m is not None:
        return m(phi)
    return (phi == _Q_SENTENCES[schema]), None


def q_axiom(schema: SchemaId) -> Formula:
    """The canonical sentence of one of the arithmetic axioms Q1..Q7."""
    return _Q_SENTENCES[schema]


def _nearest(phi: Formula, claimed: SchemaId, config: TheoryConfig) -> str:
    """A hint for an axiom rejected under ``claimed``: every other schema
    that ``phi`` matches, and every near miss with its reason."""
    near: list[str] = []
    for schema in SchemaId:
        if schema is claimed:
            continue
        ok, detail = _matches(schema, phi)
        if ok:
            inactive = "" if config.active(schema) else " but is inactive under this theory"
            near.append(f"{schema.value} matches{inactive}")
        elif detail:
            near.append(f"{schema.value}: {detail}")
    return f" (nearest: {'; '.join(near)})" if near else ""


# ---------------------------------------------------------------------------
# checking


class CheckedTheorem(NamedTuple):
    """A verified judgment.  ``omega_count`` is the maximum number of omega
    nodes on any root-to-leaf path; 0 means classical derivability."""

    formula: Formula
    theory: TheoryConfig
    omega_count: int
    samples_checked: int
    proof_size: int
    proof: Proof

    def certificate(self) -> dict:
        return {
            "formula": pretty_print(self.formula),
            "theory": self.theory.preset_name(),
            "omega_count": self.omega_count,
            "samples_checked": self.samples_checked,
            "proof_size": self.proof_size,
        }


class _RefutationFields(NamedTuple):
    positive: CheckedTheorem
    negative: CheckedTheorem
    narrative: tuple[tuple[str, Formula], ...]


class Refutation(_Checked, _RefutationFields):
    """Proofs of a sentence and of its negation under one configuration."""

    __slots__ = ()

    def _check(self):
        if self.negative.formula != Not(self.positive.formula):
            raise ValueError("refutation sides do not contradict each other")
        if self.negative.theory != self.positive.theory:
            raise ValueError("refutation sides use different theories")


def _spell(prefix: tuple[int, ...], link) -> tuple[int, ...]:
    """The path, below ``prefix``, of the node whose stack link is ``link``."""
    rev = []
    while link is not None:
        link, i = link
        rev.append(i)
    return prefix + tuple(reversed(rev))


class _Checker:
    def __init__(self, config: TheoryConfig):
        self.config = config
        # keyed by identity: proof nodes are interned, so each structurally
        # distinct subproof is checked once however often it occurs
        self.memo: dict[Proof, tuple[Formula, int]] = {}
        self.samples = 0
        self.size = 0

    def run(self, root: Proof, path: tuple[int, ...] = ()) -> tuple[Formula, int]:
        # a stack entry names its node by a link (parent link, child index)
        # back to the root, whose link is None; the path is spelled out
        # only for an error or an omega node
        memo = self.memo
        stack: list[tuple[Proof, tuple | None, bool]] = [(root, None, False)]
        while stack:
            node, link, ready = stack.pop()
            if node in memo:
                continue
            if not ready:
                stack.append((node, link, True))
                for i, child in enumerate(_proof_children(node)):
                    stack.append((child, (link, i), False))
            else:
                memo[node] = self._reduce(node, path, link)
                self.size += 1
        return memo[root]

    def _reduce(self, node: Proof, prefix: tuple[int, ...], link) -> tuple[Formula, int]:
        t = type(node)
        memo = self.memo
        if t is Axiom:
            if not self.config.active(node.schema):
                raise CheckError(_spell(prefix, link), "axiom", f"schema {node.schema.value} is inactive under this theory")
            ok, detail = _matches(node.schema, node.instance)
            if not ok:
                why = detail or "instance does not match the schema"
                hint = _nearest(node.instance, node.schema, self.config)
                raise CheckError(_spell(prefix, link), "axiom", f"{node.schema.value}: {why}{hint}: {pretty_print(node.instance)}")
            return node.instance, 0
        if t is MP:
            fa, oa = memo[node.minor]
            fb, ob = memo[node.major]
            if type(fb) is not Imp:
                raise CheckError(_spell(prefix, link), "mp", f"major premise is not an implication: {pretty_print(fb)}")
            if fb.ant != fa:
                raise CheckError(
                    _spell(prefix, link), "mp",
                    f"minor premise {pretty_print(fa)} does not match antecedent {pretty_print(fb.ant)}",
                )
            return fb.cons, max(oa, ob)
        if t is Gen:
            f, o = memo[node.premise]
            return Forall(node.var, f), o
        if t is TIntro:
            f, o = memo[node.premise]
            if f.fv:
                raise CheckError(_spell(prefix, link), "t-intro", f"premise is not a sentence: {pretty_print(f)}")
            return Tr(coding.name_of(f)), o
        # Omega
        path = _spell(prefix, link)
        base_f, worst = memo[node.base]
        fam0 = node.instance(0)
        if base_f != fam0:
            raise CheckError(path, "omega", f"base proves {pretty_print(base_f)}, not instance 0 {pretty_print(fam0)}")
        # sample n, the proof of instance n, is checked at child index c + n - 1
        # of an omega node with c children, so a path names one node
        first = len(_proof_children(node)) - 1
        for n, (proof, expected) in enumerate(node.premises(self.config.omega_samples, path), 1):
            got, ocount = self.run(proof, path + (first + n,))
            if got != expected:
                raise CheckError(
                    path, "omega",
                    f"sample {n} proves {pretty_print(got)}, expected {pretty_print(expected)}",
                )
            worst = max(worst, ocount)
        self.samples += self.config.omega_samples
        return node.conclusion, 1 + worst


def check(proof: Proof, config: TheoryConfig = GAMMA) -> CheckedTheorem:
    """Verify a proof and return its certificate; raises CheckError."""
    st = _Checker(config)
    formula, ocount = st.run(proof)
    if config.max_omega_count is not None and ocount > config.max_omega_count:
        raise CheckError((), "omega", f"omega_count {ocount} exceeds the configured cap {config.max_omega_count}")
    return CheckedTheorem(formula, config, ocount, st.samples, st.size, proof)
