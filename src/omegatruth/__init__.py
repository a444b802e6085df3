"""A proof kernel for truth theories over Robinson arithmetic.

The kernel checks Hilbert-style proofs in an arithmetical language with a
unary truth predicate, extended by truth schemas and a finitely certified
omega-rule.  Bundled derivations show that the full schema set is
omega-inconsistent, both directly and through Loeb's theorem for the
omega-truth predicate.
"""

from .syntax import (
    Add, Eq, FnApp, Forall, Formula, Imp, Mul, Not, Succ, Term, Tr, Var,
    ZERO, Zero, numeral, pretty_print, substitute,
)
from .coding import decode, encode, name_of, sub_fn
from .kernel import (
    Axiom, CheckError, CheckedTheorem, GAMMA, Gen, MP, Omega, Proof, SIGMA,
    SchemaId, TIntro, TheoryConfig, check,
)
from .tactics import (
    DiagonalResult, Thm, derive_A1, derive_A2, diagonal_lemma, eval_closed,
    mk_iff, omega_truth, taut,
)
from .theorems import (
    MissingSchema, ProvabilityPredicate, Refutation, WitnessReport,
    formalized_loeb, loeb, m1, m2, m3, mcgee_original, mcgee_via_loeb,
    omega_witness, tomega_provability,
)
from .proofscript import parse_formula, parse_term

__version__ = "0.1.0"
