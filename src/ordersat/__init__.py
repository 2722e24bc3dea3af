"""Certificate-producing satisfiability solver for partial and linear orders.

``decide`` answers satisfiability of quantifier-free formulas over order
atoms.  Unsatisfiable inputs come with a falsity certificate validated by
two independent checkers (a structured one and a generic replay kernel);
satisfiable inputs come with a verified finite model.
"""

import sys

from .core import (
    And,
    Atom,
    EvaluationError,
    Formula,
    InvariantViolation,
    Literal,
    Neg,
    Or,
    OrderAtom,
    OrderSatError,
    ParseError,
    Relation,
    SymbolTable,
    Theory,
    eq,
    eval_formula,
    eval_literal,
    le,
    lt,
    parse_input,
    relation_props,
)
from .certs import (
    FLS,
    FLS_FORMULA,
    ConversionError,
    ProofError,
    apply_conv,
    check_atom_proof,
    check_prop_proof,
    parse_cert,
    serialize_cert,
)
from .closure import Sat, Unsat, Verdict, decide
from .model import Model, verify_model
from .oracle import brute_sat, enumerate_posets
from .replay import ReplayError, export, replay, replay_refutation

# Deep certificates (long transitivity chains, one conjunction eliminator per
# literal) recurse past CPython's default stack limit.
sys.setrecursionlimit(max(sys.getrecursionlimit(), 50_000))

__all__ = [
    "And",
    "Atom",
    "ConversionError",
    "EvaluationError",
    "FLS",
    "FLS_FORMULA",
    "Formula",
    "InvariantViolation",
    "Literal",
    "Model",
    "Neg",
    "Or",
    "OrderAtom",
    "OrderSatError",
    "ParseError",
    "ProofError",
    "Relation",
    "ReplayError",
    "Sat",
    "SymbolTable",
    "Theory",
    "Unsat",
    "Verdict",
    "apply_conv",
    "brute_sat",
    "check_atom_proof",
    "check_prop_proof",
    "decide",
    "enumerate_posets",
    "eq",
    "eval_formula",
    "eval_literal",
    "export",
    "le",
    "lt",
    "parse_cert",
    "parse_input",
    "relation_props",
    "replay",
    "replay_refutation",
    "serialize_cert",
    "verify_model",
]
