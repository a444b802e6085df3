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

Trust statement.  The claim for *all* n rests on the steps being
parametric: each builds its output from the shape of its input conclusion
and leaves every numeral computation to the COMP_* axioms.  A step reaches
the tactics through ``apply``, and on the bundled scripts and the demos
``check`` reaches these ``tactics`` functions (``CHECK_REACHES`` in
``tests/test_kernel.py`` pins them by module): ax, mp, refl, sym, trans,
cong_term, tintro, taut_id, imp_trans, _imp_mono_ant, _imp_mono_cons,
_weaken, _mp_under, _apply_under, _from_hyp, _distribute, _trans_under,
chain, lift_imp, rewrite_imp, rewrite_align, eval_closed, _eval_step,
_iter_step_at, value and _value_of; no hypothesis tree among them.  The
rest of the trusted base is this module and the ``coding`` and ``syntax``
functions the checker decodes, substitutes or rebuilds an instance with,
pinned there too: among them ``substitute``, on whose refusal to let a
quantifier capture a term QUANT1's side condition rests, and ``sub_fn``
(substitution).  COMP_SUCC's one operation, ``+1``, ``+`` or ``*`` on the
values of numerals, is computed here.  Q1..Q7 and the two iteration axioms
are fixed sentences, each accepted only as itself: the iteration axioms
are ``coding.ITER_ZERO_AXIOM`` and ``ITER_STEP_AXIOM``, over ``K0``.

The checker judges only its own objects: a node of its five node classes,
a step of its four step classes and a ``SchemaId``, each by exact class,
before it reads the object; anything else is a :class:`CheckError`.  It
compares formulas and terms by identity, never by ``__eq__``, and so do
the tactics its steps run.  It assumes that nothing patches its modules or
the nodes it built, and that every formula inside a node is built by the
``syntax`` constructors alone.
"""

from __future__ import annotations

import enum
from collections import namedtuple

from . import coding
from .syntax import (
    Add, CaptureError, Eq, FnApp, Forall, Formula, Imp, Mul, Not, SUB,
    Succ, Term, Tr, Var, ZERO, TWO, _children, _cut, _shown,
    free_var_positions, numeral, pretty_print, substitute, subterm_at,
)

__all__ = [
    "SchemaId", "TheoryConfig", "GAMMA", "SIGMA", "THEORIES",
    "Proof", "Axiom", "MP", "Gen", "TIntro", "Omega",
    "StepCombinator", "ApplyTIntro", "LiftImp", "RewriteEval", "ChainWith",
    "CheckedTheorem",
    "CheckError", "check", "q_axiom",
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
    """Mixed in before a namedtuple: every way of building the record runs
    its ``_check``, ``_make`` and ``_replace`` included."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class TheoryConfig(_Checked, namedtuple(
    "TheoryConfig", "has_cons omega_samples max_omega_count",
    defaults=(True, 8, None),
)):
    """Whether internal consistency (CONS) is active, plus checker
    parameters.

    ``GAMMA`` is Cons + T-Imp + UInf with T-Intro; ``SIGMA`` is ``GAMMA``
    without Cons.  Every other schema, T-Imp and UInf included, is always
    available.
    """

    __slots__ = ()

    def _check(self):
        if self.omega_samples < 1:
            raise ValueError("omega_samples must be at least 1")
        if self.max_omega_count is not None and self.max_omega_count < 0:
            raise ValueError("max_omega_count must be at least 0")

    def active(self, schema: SchemaId) -> bool:
        return self.has_cons or schema is not SchemaId.CONS

    def preset_name(self) -> str:
        return "gamma" if self.has_cons else "sigma"


GAMMA = TheoryConfig()
SIGMA = TheoryConfig(has_cons=False)
# the one map from a theory's name to its configuration
THEORIES = {"gamma": GAMMA, "sigma": SIGMA}


class CheckError(ValueError):
    """Structured proof-check failure: offending node, rule and reason."""

    def __init__(self, path: tuple[int, ...], rule: str, reason: str):
        super().__init__(f"at node {'/'.join(map(str, path)) or '<root>'} [{rule}]: {reason}")
        self.path = path
        self.rule = rule
        self.reason = reason


# ---------------------------------------------------------------------------
# proof objects


# the intern tables of proofs, one per kind, keyed without the class: an
# Axiom by its instance in the table of its schema, a TIntro by its premise,
# the first MP over a major premise by that major alone and every later one
# by (minor, major)
_AXIOMS: dict = {schema: {} for schema in SchemaId}
_MP: dict = {}
_MP_PAIRS: dict = {}
_GEN: dict = {}
_TINTRO: dict = {}
_OMEGA: dict = {}
_STEPS: dict = {}


class Proof:
    """Base class for proof nodes, interned like terms and formulas.

    A node holds what the kernel checks and two slots the checker writes:
    ``_seen``, the stamp of the last check that reached the node (None
    until one does), and ``_concl``, the conclusion that check found.
    Which macro call built a node, if any, is recorded by the tactics
    layer (``tactics.MACROS``).
    """

    __slots__ = ("_seen", "_concl")


class Axiom(Proof):
    __slots__ = ("schema", "instance")

    def __new__(cls, schema: SchemaId, instance: Formula):
        if type(schema) is not SchemaId:  # before any hash or __eq__ of it runs
            raise ValueError(f"not a kernel schema: {_cut(type(schema).__name__)}")
        table = _AXIOMS[schema]
        self = table.get(instance)
        if self is None:
            self = table[instance] = object.__new__(cls)
            self._seen = None
            self.schema = schema
            self.instance = instance
        return self


class MP(Proof):
    """Modus ponens: first premise proves A, second proves A -> B."""

    __slots__ = ("minor", "major")

    def __new__(cls, minor: Proof, major: Proof):
        self = _MP.get(major)
        if self is None:
            table, key = _MP, major
        elif self.minor is minor:
            return self
        else:
            table, key = _MP_PAIRS, (minor, major)
            self = table.get(key)
            if self is not None:
                return self
        self = table[key] = object.__new__(cls)
        self._seen = None
        self.minor = minor
        self.major = major
        return self


class Gen(Proof):
    __slots__ = ("var", "premise")

    def __new__(cls, var: int, premise: Proof):
        key = (var, premise)
        self = _GEN.get(key)
        if self is None:
            self = _GEN[key] = object.__new__(cls)
            self._seen = None
            self.var = var
            self.premise = premise
        return self


class TIntro(Proof):
    __slots__ = ("premise",)

    def __new__(cls, premise: Proof):
        self = _TINTRO.get(premise)
        if self is None:
            self = _TINTRO[premise] = object.__new__(cls)
            self._seen = None
            self.premise = premise
        return self


class StepCombinator:
    """An omega step, interned under its class and fields.  The kernel runs
    a step of its own four classes only, by ``apply(proof, formula,
    expected)``, from a proof of instance n to one of instance n+1."""

    __slots__ = ()

    def __new__(cls, *fields):
        key = (cls, *fields)
        self = _STEPS.get(key)
        if self is None:
            self = _STEPS[key] = object.__new__(cls)
            for name, value in zip(cls.__slots__, fields):
                setattr(self, name, value)
        return self


class ApplyTIntro(StepCombinator):
    """phi  =>  T(name of phi)."""

    __slots__ = ()

    def apply(self, proof: Proof, formula: Formula, expected: Formula):
        from . import tactics as T

        return T.tintro(T.Thm(proof, formula))


class LiftImp(StepCombinator):
    """Lift an implication under the truth predicate.

    depth 1: from A -> B derive T(#A) -> T(#B); depth 2: from A -> (B -> C)
    derive T(#A) -> (T(#B) -> T(#C)).  Uses T-Intro plus TIMP instances.
    """

    __slots__ = ("depth",)

    def __new__(cls, depth: int = 1):
        if depth not in (1, 2):
            raise ValueError("LiftImp depth must be 1 or 2")
        return super().__new__(cls, depth)

    def apply(self, proof: Proof, formula: Formula, expected: Formula):
        from . import tactics as T

        return T.lift_imp(T.Thm(proof, formula), self.depth)


class RewriteEval(StepCombinator):
    """Align the closed term at ``position`` with the expected conclusion
    through a chain of COMP_* evaluation axioms."""

    __slots__ = ("position",)

    def __new__(cls, position):
        return super().__new__(cls, tuple(position))

    def apply(self, proof: Proof, formula: Formula, expected: Formula):
        from . import tactics as T

        return T.rewrite_align(T.Thm(proof, formula), expected, [self.position])


class ChainWith(StepCombinator):
    """Put a fixed checked lemma c -> a in front of the input a -> b."""

    __slots__ = ("lemma", "conclusion")

    def apply(self, proof: Proof, formula: Formula, expected: Formula):
        from . import tactics as T

        return T.chain(T.Thm(proof, formula), T.Thm(self.lemma, self.conclusion))


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
        key = (var, family, base, steps)
        self = _OMEGA.get(key)
        if self is None:
            self = _OMEGA[key] = object.__new__(cls)
            self._seen = None
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
                except Exception as e:  # tactic construction failure
                    raise CheckError(path, "omega", f"step {j} failed at sample {n}: {_cut(str(e))}") from e
            yield proof, expected
            formula = expected


# the kernel's step classes, the only ones whose ``apply`` a check runs
_STEP_CLASSES = (ApplyTIntro, LiftImp, RewriteEval, ChainWith)


def _proof_children(p: Proof) -> tuple[Proof, ...]:
    t = type(p)
    if t is MP:
        return (p.minor, p.major)
    if t is Gen or t is TIntro:
        return (p.premise,)
    if t is Omega:
        return (p.base, *[s.lemma for s in p.steps if type(s) is ChainWith])
    return ()


# ---------------------------------------------------------------------------
# schema matching

# the axioms that are one sentence each, judged by identity with it
_X, _Y = Var(0), Var(1)
_FIXED: dict[SchemaId, Formula] = {
    SchemaId.Q1: Forall(0, Forall(1, Imp(Eq(Succ(_X), Succ(_Y)), Eq(_X, _Y)))),
    SchemaId.Q2: Forall(0, Not(Eq(Succ(_X), ZERO))),
    SchemaId.Q3: Forall(0, Imp(Not(Eq(_X, ZERO)), Not(Forall(1, Not(Eq(_X, Succ(_Y))))))),
    SchemaId.Q4: Forall(0, Eq(Add(_X, ZERO), _X)),
    SchemaId.Q5: Forall(0, Forall(1, Eq(Add(_X, Succ(_Y)), Succ(Add(_X, _Y))))),
    SchemaId.Q6: Forall(0, Eq(Mul(_X, ZERO), ZERO)),
    SchemaId.Q7: Forall(0, Forall(1, Eq(Mul(_X, Succ(_Y)), Add(Mul(_X, _Y), _X)))),
    SchemaId.COMP_ITER0: coding.ITER_ZERO_AXIOM,
    SchemaId.COMP_ITER_STEP: coding.ITER_STEP_AXIOM,
}


def _m_prop1(phi):
    ok = type(phi) is Imp and type(phi.cons) is Imp and phi.cons.cons is phi.ant
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
        phi.cons.ant.ant is a
        and phi.cons.ant.cons is bc.ant
        and phi.cons.cons.ant is a
        and phi.cons.cons.cons is bc.cons
    )
    return ok, None


def _m_prop3(phi):
    ok = (
        type(phi) is Imp
        and type(phi.ant) is Imp
        and type(phi.ant.ant) is Not and type(phi.ant.cons) is Not
        and type(phi.cons) is Imp
        and phi.cons.ant is phi.ant.cons.body
        and phi.cons.cons is phi.ant.ant.body
    )
    return ok, None


def _m_quant1(phi):
    if not (type(phi) is Imp and type(phi.ant) is Forall):
        return False, None
    v, body = phi.ant.var, phi.ant.body
    # t is read at the first occurrence of v and substitute checks them all;
    # it refuses a t that a quantifier of body would capture
    paths = free_var_positions(body, v)
    try:
        t = subterm_at(phi.cons, paths[0]) if paths else Var(v)
        ok = isinstance(t, Term) and substitute(body, v, t) is phi.cons
    except (IndexError, CaptureError):
        ok = False
    return ok, (None if ok else "consequent is not a substitution instance of the quantified body")


def _m_quant2(phi):
    if not (type(phi) is Imp and type(phi.ant) is Forall and type(phi.ant.body) is Imp):
        return False, None
    v, (a, b) = phi.ant.var, _children(phi.ant.body)
    if phi.cons is not Imp(a, Forall(v, b)):
        return False, None
    if v in a.fv:
        return False, f"variable {v} occurs free in the antecedent"
    return True, None


def _m_eq1(phi):
    return (type(phi) is Eq and phi.left is phi.right), None


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
    if da is not Not(db):
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
    if di is not Imp(da, db):
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
    if xv is not Var(x):
        return False, "inner substitution is not applied at the quantified variable"
    if cn.nv is None or vn.nv is None:
        return False, "name or variable-index argument is not a canonical numeral"
    body = _named(cn)
    if body is None or not isinstance(body, Formula):
        return False, "first argument is not the name of a formula"
    v = vn.nv
    if not body.fv <= {v}:
        return False, "named formula has free variables other than the distinguished one"
    if phi.cons.arg is not coding.name_of(Forall(v, body)):
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


def _m_comp_succ(phi):
    if not (
        type(phi) is Eq and phi.right.nv is not None
        and type(phi.left) in (Succ, Add, Mul)
        and all(c.nv is not None for c in _children(phi.left))
    ):
        return False, None
    t, (a, *b) = type(phi.left), [c.nv for c in _children(phi.left)]
    got = a + 1 if t is Succ else a + b[0] if t is Add else a * b[0]
    ok = got == phi.right.nv
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
    SchemaId.COMP_SUCC: _m_comp_succ,
}


def _matches(schema: SchemaId, phi: Formula):
    m = _MATCHERS.get(schema)
    return m(phi) if m is not None else (phi is _FIXED[schema], None)


def q_axiom(schema: SchemaId) -> Formula:
    """The one sentence of a fixed axiom: Q1..Q7, COMP_ITER0 or COMP_ITER_STEP."""
    return _FIXED[schema]


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


class CheckedTheorem(namedtuple(
    "CheckedTheorem", "formula theory omega_count samples_checked proof_size proof",
)):
    """A verified judgment.  ``omega_count`` is the maximum number of omega
    nodes on any root-to-leaf path; 0 means classical derivability."""

    __slots__ = ()

    def certificate(self) -> dict:
        return {
            "formula": pretty_print(self.formula),
            "theory": self.theory.preset_name(),
            "omega_count": self.omega_count,
            "samples_checked": self.samples_checked,
            "proof_size": self.proof_size,
        }


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
        # each structurally distinct subproof is checked once however often
        # it occurs: a checked node keeps this check's stamp.  It is a fresh
        # object, which no caller holds, so a node's _concl is trusted only
        # where this check wrote it, a later check reaches every node again
        # and no node keeps a checker alive.  omega holds a checked node's
        # omega count only when that is above 0; size counts checked nodes
        self.stamp = object()
        self.omega: dict[Proof, int] = {}
        self.samples = 0
        self.size = 0

    def run(self, root: Proof, path: tuple[int, ...] = ()) -> tuple[Formula, int]:
        # a stack entry names its node by a link (parent link, child index)
        # back to the root, whose link is None; the path is spelled out
        # only for an error or an omega node.  The loop applies the two
        # rules nearly every node is checked by: an axiom is settled where
        # it is met, and modus ponens once both premises are, the major
        # first (it is pushed last).  _reduce settles the other rules.  A
        # node is judged by its exact class before any of its attributes is
        # read, so a child is pushed unread and skipped, if checked, when
        # popped
        stamp, omega, config = self.stamp, self.omega, self.config
        stack: list[tuple[Proof, tuple | None, bool]] = [(root, None, False)]
        while stack:
            node, link, ready = stack.pop()
            t = type(node)
            if ready:
                if t is MP:
                    fa, fb = node.minor._concl, node.major._concl
                    if type(fb) is not Imp:
                        raise CheckError(_spell(path, link), "mp", f"major premise is not an implication: {_shown(fb)}")
                    if fb.ant is not fa:
                        raise CheckError(
                            _spell(path, link), "mp",
                            f"minor premise {_shown(fa)} does not match antecedent {_shown(fb.ant)}",
                        )
                    node._concl = fb.cons
                    count = max(omega.get(node.minor, 0), omega.get(node.major, 0)) if omega else 0
                else:
                    node._concl, count = self._reduce(node, path, link)
            elif not (t is Axiom or t is MP or t is Gen or t is TIntro or t is Omega):
                raise CheckError(_spell(path, link), "node", f"not a kernel proof node: {_cut(t.__name__)}")
            elif node._seen is stamp:
                continue
            elif t is Axiom:
                schema = node.schema
                if type(schema) is not SchemaId:
                    raise CheckError(_spell(path, link), "axiom", f"not a kernel schema: {_cut(type(schema).__name__)}")
                if not config.active(schema):
                    raise CheckError(_spell(path, link), "axiom", f"schema {schema.value} is inactive under this theory")
                ok, detail = _matches(schema, node.instance)
                if not ok:
                    why = detail or "instance does not match the schema"
                    hint = _nearest(node.instance, schema, config)
                    raise CheckError(_spell(path, link), "axiom", f"{schema.value}: {why}{hint}: {_shown(node.instance)}")
                node._concl, count = node.instance, 0
            else:
                stack.append((node, link, True))
                if t is MP:
                    stack.append((node.minor, (link, 0), False))
                    stack.append((node.major, (link, 1), False))
                else:
                    stack += [(child, (link, i), False) for i, child in enumerate(_proof_children(node))]
                continue
            node._seen = stamp
            self.size += 1
            if count:
                omega[node] = count
        return root._concl, omega.get(root, 0)

    def _reduce(self, node: Proof, prefix: tuple[int, ...], link) -> tuple[Formula, int]:
        """The conclusion and the omega count of ``node``, a Gen, TIntro or
        Omega node whose children are checked."""
        t = type(node)
        omega = self.omega
        if t is Gen:
            return Forall(node.var, node.premise._concl), omega.get(node.premise, 0)
        if t is TIntro:
            f = node.premise._concl
            if f.fv:
                raise CheckError(_spell(prefix, link), "t-intro", f"premise is not a sentence: {_shown(f)}")
            return Tr(coding.name_of(f)), omega.get(node.premise, 0)
        # Omega
        path = _spell(prefix, link)
        for j, step in enumerate(node.steps):
            if not any(type(step) is c for c in _STEP_CLASSES):
                raise CheckError(path, "omega", f"step {j} is not a kernel step: {_cut(type(step).__name__)}")
        base_f, worst = node.base._concl, omega.get(node.base, 0)
        fam0 = node.instance(0)
        if base_f is not fam0:
            raise CheckError(path, "omega", f"base proves {_shown(base_f)}, not instance 0 {_shown(fam0)}")
        # sample n, the proof of instance n, is checked at child index c + n - 1
        # of an omega node with c children, so a path names one node
        first = len(_proof_children(node)) - 1
        for n, (proof, expected) in enumerate(node.premises(self.config.omega_samples, path), 1):
            got, ocount = self.run(proof, path + (first + n,))
            if got is not expected:
                raise CheckError(
                    path, "omega",
                    f"sample {n} proves {_shown(got)}, expected {_shown(expected)}",
                )
            worst = max(worst, ocount)
            self.samples += 1
        return node.conclusion, 1 + worst


def check(proof: Proof, config: TheoryConfig = GAMMA) -> CheckedTheorem:
    """Verify a proof and return its certificate; raises CheckError."""
    st = _Checker(config)
    formula, ocount = st.run(proof)
    if config.max_omega_count is not None and ocount > config.max_omega_count:
        raise CheckError((), "omega", f"omega_count {ocount} exceeds the configured cap {config.max_omega_count}")
    return CheckedTheorem(formula, config, ocount, st.samples, st.size, proof)
