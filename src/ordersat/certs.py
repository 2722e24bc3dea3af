"""Certificate languages and the trusted checker.

Three layers of certificates mirror the solver's three layers of reasoning:

* atom level: derivations of single order literals from a set of assumed
  literals (assumption, reflexivity, transitivity, antisymmetry, the two
  equality eliminations, and contradiction against a negative assumption);
* conversion level: equivalence rewrites on formulas (strict-literal
  elimination, negation pushing, distribution) together with the congruence
  combinators that apply them inside a formula;
* propositional level: conjunction/disjunction elimination and certified
  conversion steps that tie a refutation to the original goal formula.

The checkers in this module are the artifact's trust root.  They depend only
on the core types, never on the solver, so a bug in the search can at worst
produce a certificate that fails to check, not an accepted falsehood.
Falsity is the distinguished literal ``FLS``, the always-false ``v0 != v0``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Iterable

from .core import (
    EQ,
    LE,
    LT,
    And,
    Atom,
    Formula,
    Literal,
    Neg,
    Or,
    OrderAtom,
    OrderSatError,
    ParseError,
    VarId,
    eq,
    le,
)
from .sexpr import TokenStream


class ProofError(OrderSatError):
    """A certificate failed to check; the message locates the offending rule."""


class ConversionError(OrderSatError):
    """A conversion rule was applied to a formula of the wrong shape."""


FLS = Literal(False, eq(0, 0))
FLS_FORMULA = Atom(FLS)


# ---------------------------------------------------------------------------
# Atom-level certificates


class CertProof:
    """Derivation of a single literal from assumed literals."""

    __slots__ = ()


@dataclass(frozen=True)
class AssmP(CertProof):
    lit: Literal


@dataclass(frozen=True)
class ReflP(CertProof):
    var: VarId


@dataclass(frozen=True)
class TransP(CertProof):
    left: CertProof
    right: CertProof


@dataclass(frozen=True)
class AntisymP(CertProof):
    left: CertProof
    right: CertProof


@dataclass(frozen=True)
class EQE1P(CertProof):
    lit: Literal


@dataclass(frozen=True)
class EQE2P(CertProof):
    lit: Literal


@dataclass(frozen=True)
class ContrP(CertProof):
    lit: Literal
    proof: CertProof


def check_atom_proof(assumptions: AbstractSet[Literal], proof: CertProof) -> Literal:
    """Return the literal proved by ``proof`` under ``assumptions``.

    Raises ProofError if any rule is misapplied: a missing assumption, a
    polarity or kind mismatch, or transitivity steps that do not share their
    middle variable.
    """
    if isinstance(proof, AssmP):
        lit = proof.lit
        if not lit.pos or lit.atom.kind != LE:
            raise ProofError(f"assumption rule expects a positive <=, got {lit}")
        if lit not in assumptions:
            raise ProofError(f"assumption {lit} is not among the assumptions")
        return lit
    if isinstance(proof, ReflP):
        return Literal(True, le(proof.var, proof.var))
    if isinstance(proof, TransP):
        c1 = check_atom_proof(assumptions, proof.left)
        c2 = check_atom_proof(assumptions, proof.right)
        if c1.atom.kind != LE or c2.atom.kind != LE:
            raise ProofError(f"transitivity needs <= premises, got {c1} and {c2}")
        if c1.atom.y != c2.atom.x:
            raise ProofError(f"transitivity premises do not chain: {c1} then {c2}")
        return Literal(True, le(c1.atom.x, c2.atom.y))
    if isinstance(proof, AntisymP):
        c1 = check_atom_proof(assumptions, proof.left)
        c2 = check_atom_proof(assumptions, proof.right)
        if c1.atom.kind != LE or c2.atom.kind != LE:
            raise ProofError(f"antisymmetry needs <= premises, got {c1} and {c2}")
        if c1.atom.x != c2.atom.y or c1.atom.y != c2.atom.x:
            raise ProofError(f"antisymmetry premises are not converse: {c1} and {c2}")
        return Literal(True, eq(c1.atom.x, c1.atom.y))
    if isinstance(proof, EQE1P):
        lit = _checked_equality(assumptions, proof.lit)
        return Literal(True, le(lit.atom.x, lit.atom.y))
    if isinstance(proof, EQE2P):
        lit = _checked_equality(assumptions, proof.lit)
        return Literal(True, le(lit.atom.y, lit.atom.x))
    if isinstance(proof, ContrP):
        lit = proof.lit
        if lit.pos:
            raise ProofError(f"contradiction rule expects a negative literal, got {lit}")
        if lit not in assumptions:
            raise ProofError(f"negative assumption {lit} is not among the assumptions")
        concl = check_atom_proof(assumptions, proof.proof)
        if concl != Literal(True, lit.atom):
            raise ProofError(f"contradiction premise proves {concl}, expected {Literal(True, lit.atom)}")
        return FLS
    raise ProofError(f"unknown atom proof node {proof!r}")


def _checked_equality(assumptions: AbstractSet[Literal], lit: Literal) -> Literal:
    if not lit.pos or lit.atom.kind != EQ:
        raise ProofError(f"equality elimination expects a positive =, got {lit}")
    if lit not in assumptions:
        raise ProofError(f"equality {lit} is not among the assumptions")
    return lit


# ---------------------------------------------------------------------------
# Conversion-level certificates


class ConvProof:
    """Certified equivalence rewrite on formulas."""

    __slots__ = ()


@dataclass(frozen=True)
class LessLe(ConvProof):
    """x < y  to  x <= y and x != y."""


@dataclass(frozen=True)
class NlessLe(ConvProof):
    """not x < y  to  not x <= y or x = y (partial orders)."""


@dataclass(frozen=True)
class NleConv(ConvProof):
    """not x <= y  to  x != y and y <= x (linear orders)."""


@dataclass(frozen=True)
class NlessConv(ConvProof):
    """not x < y  to  y <= x (linear orders)."""


@dataclass(frozen=True)
class AllConv(ConvProof):
    """Identity conversion."""


@dataclass(frozen=True)
class AtomConv(ConvProof):
    rule: ConvProof


@dataclass(frozen=True)
class ArgConv(ConvProof):
    rule: ConvProof


@dataclass(frozen=True)
class BinopConv(ConvProof):
    left: ConvProof
    right: ConvProof


@dataclass(frozen=True)
class ThenConv(ConvProof):
    first: ConvProof
    second: ConvProof


@dataclass(frozen=True)
class NegAtomConv(ConvProof):
    """neg (Atom l)  to  Atom (negated l)."""


@dataclass(frozen=True)
class NegNegConv(ConvProof):
    """neg (neg f)  to  f."""


@dataclass(frozen=True)
class NegAndConv(ConvProof):
    """neg (a and b)  to  neg a or neg b."""


@dataclass(frozen=True)
class NegOrConv(ConvProof):
    """neg (a or b)  to  neg a and neg b."""


@dataclass(frozen=True)
class AndOrLConv(ConvProof):
    """(a or b) and c  to  (a and c) or (b and c)."""


@dataclass(frozen=True)
class AndOrRConv(ConvProof):
    """a and (b or c)  to  (a and b) or (a and c)."""


_ATOM_RULES = (LessLe, NlessLe, NleConv, NlessConv, AllConv)


def _apply_atom_rule(rule: ConvProof, lit: Literal) -> Formula:
    a = lit.atom
    if isinstance(rule, LessLe):
        if lit.pos and a.kind == LT:
            return And(Atom(Literal(True, le(a.x, a.y))), Atom(Literal(False, eq(a.x, a.y))))
        raise ConversionError(f"LessLe does not apply to {lit}")
    if isinstance(rule, NlessLe):
        if not lit.pos and a.kind == LT:
            return Or(Atom(Literal(False, le(a.x, a.y))), Atom(Literal(True, eq(a.x, a.y))))
        raise ConversionError(f"NlessLe does not apply to {lit}")
    if isinstance(rule, NleConv):
        if not lit.pos and a.kind == LE:
            return And(Atom(Literal(False, eq(a.x, a.y))), Atom(Literal(True, le(a.y, a.x))))
        raise ConversionError(f"NleConv does not apply to {lit}")
    if isinstance(rule, NlessConv):
        if not lit.pos and a.kind == LT:
            return Atom(Literal(True, le(a.y, a.x)))
        raise ConversionError(f"NlessConv does not apply to {lit}")
    if isinstance(rule, AllConv):
        return Atom(lit)
    raise ConversionError(f"{type(rule).__name__} is not an atom-level rule")


def apply_conv(conv: ConvProof, formula: Formula) -> Formula:
    """Apply a conversion to a formula, or raise ConversionError on mismatch."""
    if isinstance(conv, AllConv):
        return formula
    if isinstance(conv, _ATOM_RULES):
        if isinstance(formula, Atom):
            return _apply_atom_rule(conv, formula.lit)
        raise ConversionError(f"{type(conv).__name__} needs an atom, got {formula}")
    if isinstance(conv, AtomConv):
        if not isinstance(formula, Atom):
            raise ConversionError(f"AtomConv needs an atom, got {formula}")
        if not isinstance(conv.rule, _ATOM_RULES):
            raise ConversionError(f"AtomConv carries {type(conv.rule).__name__}, not an atom-level rule")
        return _apply_atom_rule(conv.rule, formula.lit)
    if isinstance(conv, ArgConv):
        if not isinstance(formula, Neg):
            raise ConversionError(f"ArgConv needs a negation, got {formula}")
        return Neg(apply_conv(conv.rule, formula.arg))
    if isinstance(conv, BinopConv):
        if isinstance(formula, And):
            return And(apply_conv(conv.left, formula.left), apply_conv(conv.right, formula.right))
        if isinstance(formula, Or):
            return Or(apply_conv(conv.left, formula.left), apply_conv(conv.right, formula.right))
        raise ConversionError(f"BinopConv needs a binary connective, got {formula}")
    if isinstance(conv, ThenConv):
        return apply_conv(conv.second, apply_conv(conv.first, formula))
    if isinstance(conv, NegAtomConv):
        if isinstance(formula, Neg) and isinstance(formula.arg, Atom):
            return Atom(formula.arg.lit.negate())
        raise ConversionError(f"NegAtomConv needs a negated atom, got {formula}")
    if isinstance(conv, NegNegConv):
        if isinstance(formula, Neg) and isinstance(formula.arg, Neg):
            return formula.arg.arg
        raise ConversionError(f"NegNegConv needs a double negation, got {formula}")
    if isinstance(conv, NegAndConv):
        if isinstance(formula, Neg) and isinstance(formula.arg, And):
            return Or(Neg(formula.arg.left), Neg(formula.arg.right))
        raise ConversionError(f"NegAndConv needs a negated conjunction, got {formula}")
    if isinstance(conv, NegOrConv):
        if isinstance(formula, Neg) and isinstance(formula.arg, Or):
            return And(Neg(formula.arg.left), Neg(formula.arg.right))
        raise ConversionError(f"NegOrConv needs a negated disjunction, got {formula}")
    if isinstance(conv, AndOrLConv):
        if isinstance(formula, And) and isinstance(formula.left, Or):
            a, b, c = formula.left.left, formula.left.right, formula.right
            return Or(And(a, c), And(b, c))
        raise ConversionError(f"AndOrLConv needs a left disjunction under and, got {formula}")
    if isinstance(conv, AndOrRConv):
        if isinstance(formula, And) and isinstance(formula.right, Or):
            a, b, c = formula.left, formula.right.left, formula.right.right
            return Or(And(a, b), And(a, c))
        raise ConversionError(f"AndOrRConv needs a right disjunction under and, got {formula}")
    raise ConversionError(f"unknown conversion node {conv!r}")


# ---------------------------------------------------------------------------
# Propositional certificates


class PropProof:
    """Refutation-style derivation over a context of assumed formulas."""

    __slots__ = ()


@dataclass(frozen=True)
class Lift(PropProof):
    proof: CertProof


@dataclass(frozen=True)
class ConjE(PropProof):
    left: Formula
    right: Formula
    proof: PropProof


@dataclass(frozen=True)
class DisjE(PropProof):
    left: Formula
    right: Formula
    left_proof: PropProof
    right_proof: PropProof


@dataclass(frozen=True)
class ConvRule(PropProof):
    source: Formula
    conversion: ConvProof
    proof: PropProof


def check_prop_proof(context: Iterable[Formula], proof: PropProof) -> Formula:
    """Return the formula proved by ``proof`` under the assumed ``context``.

    Lift consults only the literals that occur as whole atoms in the
    context; ConjE/DisjE require the corresponding connective to be assumed;
    ConvRule requires its source formula to be assumed and extends the
    context with the conversion's result.
    """
    return _check_prop(frozenset(context), proof)


def _check_prop(context: frozenset[Formula], proof: PropProof) -> Formula:
    if isinstance(proof, Lift):
        atoms = frozenset(f.lit for f in context if isinstance(f, Atom))
        return Atom(check_atom_proof(atoms, proof.proof))
    if isinstance(proof, ConjE):
        if And(proof.left, proof.right) not in context:
            raise ProofError(f"conjunction {And(proof.left, proof.right)} is not among the assumptions")
        return _check_prop(context | {proof.left, proof.right}, proof.proof)
    if isinstance(proof, DisjE):
        if Or(proof.left, proof.right) not in context:
            raise ProofError(f"disjunction {Or(proof.left, proof.right)} is not among the assumptions")
        c1 = _check_prop(context | {proof.left}, proof.left_proof)
        c2 = _check_prop(context | {proof.right}, proof.right_proof)
        if c1 != c2:
            raise ProofError(f"case split branches prove different formulas: {c1} and {c2}")
        return c1
    if isinstance(proof, ConvRule):
        if proof.source not in context:
            raise ProofError(f"conversion source {proof.source} is not among the assumptions")
        rewritten = apply_conv(proof.conversion, proof.source)
        return _check_prop(context | {rewritten}, proof.proof)
    raise ProofError(f"unknown propositional proof node {proof!r}")


def is_refutation(goal: Formula, proof: PropProof) -> bool:
    """True iff ``proof`` derives falsity from ``goal`` as the sole assumption."""
    try:
        return check_prop_proof({goal}, proof) == FLS_FORMULA
    except (ProofError, ConversionError):
        return False


def cert_size(proof: PropProof | CertProof | ConvProof) -> int:
    """Number of certificate nodes (formulas referenced inside count as 1)."""
    if isinstance(proof, (AssmP, ReflP, EQE1P, EQE2P)):
        return 1
    if isinstance(proof, (TransP, AntisymP)):
        return 1 + cert_size(proof.left) + cert_size(proof.right)
    if isinstance(proof, ContrP):
        return 1 + cert_size(proof.proof)
    if isinstance(proof, (AtomConv, ArgConv)):
        return 1 + cert_size(proof.rule)
    if isinstance(proof, BinopConv):
        return 1 + cert_size(proof.left) + cert_size(proof.right)
    if isinstance(proof, ThenConv):
        return 1 + cert_size(proof.first) + cert_size(proof.second)
    if isinstance(proof, ConvProof):
        return 1
    if isinstance(proof, Lift):
        return 1 + cert_size(proof.proof)
    if isinstance(proof, ConjE):
        return 1 + cert_size(proof.proof)
    if isinstance(proof, DisjE):
        return 1 + cert_size(proof.left_proof) + cert_size(proof.right_proof)
    if isinstance(proof, ConvRule):
        return 1 + cert_size(proof.conversion) + cert_size(proof.proof)
    raise ValueError(f"not a certificate node: {proof!r}")


# ---------------------------------------------------------------------------
# Serialization (whitespace-separated ASCII s-expressions)

# The one table of niladic conversion names, shared with the replay kernel,
# where the same names are its conversion proof constants.
NILADIC_CONVERSIONS: dict[str, ConvProof] = {
    "lessle": LessLe(),
    "nlessle": NlessLe(),
    "nle": NleConv(),
    "nless": NlessConv(),
    "allconv": AllConv(),
    "negatom": NegAtomConv(),
    "negneg": NegNegConv(),
    "negand": NegAndConv(),
    "negor": NegOrConv(),
    "andorl": AndOrLConv(),
    "andorr": AndOrRConv(),
}

CONVERSION_NAME = {type(v): k for k, v in NILADIC_CONVERSIONS.items()}


def serialize_literal(lit: Literal) -> str:
    sign = "+" if lit.pos else "-"
    a = lit.atom
    return f"({sign} {a.kind} v{a.x} v{a.y})"


def serialize_formula(f: Formula) -> str:
    if isinstance(f, Atom):
        return f"(atom {serialize_literal(f.lit)})"
    if isinstance(f, And):
        return f"(and {serialize_formula(f.left)} {serialize_formula(f.right)})"
    if isinstance(f, Or):
        return f"(or {serialize_formula(f.left)} {serialize_formula(f.right)})"
    if isinstance(f, Neg):
        return f"(neg {serialize_formula(f.arg)})"
    raise ValueError(f"not a formula node: {f!r}")


def serialize_atom_proof(p: CertProof) -> str:
    if isinstance(p, AssmP):
        return f"(assm {serialize_literal(p.lit)})"
    if isinstance(p, ReflP):
        return f"(refl v{p.var})"
    if isinstance(p, TransP):
        return f"(trans {serialize_atom_proof(p.left)} {serialize_atom_proof(p.right)})"
    if isinstance(p, AntisymP):
        return f"(antisym {serialize_atom_proof(p.left)} {serialize_atom_proof(p.right)})"
    if isinstance(p, EQE1P):
        return f"(eqe1 {serialize_literal(p.lit)})"
    if isinstance(p, EQE2P):
        return f"(eqe2 {serialize_literal(p.lit)})"
    if isinstance(p, ContrP):
        return f"(contr {serialize_literal(p.lit)} {serialize_atom_proof(p.proof)})"
    raise ValueError(f"not an atom proof node: {p!r}")


def serialize_conv_proof(c: ConvProof) -> str:
    token = CONVERSION_NAME.get(type(c))
    if token is not None:
        return token
    if isinstance(c, AtomConv):
        return f"(atom {serialize_conv_proof(c.rule)})"
    if isinstance(c, ArgConv):
        return f"(arg {serialize_conv_proof(c.rule)})"
    if isinstance(c, BinopConv):
        return f"(binop {serialize_conv_proof(c.left)} {serialize_conv_proof(c.right)})"
    if isinstance(c, ThenConv):
        return f"(then {serialize_conv_proof(c.first)} {serialize_conv_proof(c.second)})"
    raise ValueError(f"not a conversion node: {c!r}")


def serialize_cert(p: PropProof) -> str:
    if isinstance(p, Lift):
        return f"(lift {serialize_atom_proof(p.proof)})"
    if isinstance(p, ConjE):
        return f"(conje {serialize_formula(p.left)} {serialize_formula(p.right)} {serialize_cert(p.proof)})"
    if isinstance(p, DisjE):
        return (
            f"(disje {serialize_formula(p.left)} {serialize_formula(p.right)} "
            f"{serialize_cert(p.left_proof)} {serialize_cert(p.right_proof)})"
        )
    if isinstance(p, ConvRule):
        return (
            f"(conv {serialize_formula(p.source)} {serialize_conv_proof(p.conversion)} "
            f"{serialize_cert(p.proof)})"
        )
    raise ValueError(f"not a certificate node: {p!r}")


def _parse_var(ts: TokenStream) -> VarId:
    tok = ts.next()
    if not tok.text.startswith("v") or not tok.text[1:].isdigit():
        raise ts.error(tok, f"expected a variable like v0, got {tok.text!r}")
    return int(tok.text[1:])


def _parse_literal(ts: TokenStream) -> Literal:
    ts.next("(")
    sign = ts.next()
    if sign.text not in ("+", "-"):
        raise ts.error(sign, f"expected polarity + or -, got {sign.text!r}")
    kind = ts.next()
    if kind.text not in ("le", "lt", "eq"):
        raise ts.error(kind, f"expected atom kind le/lt/eq, got {kind.text!r}")
    x = _parse_var(ts)
    y = _parse_var(ts)
    ts.next(")")
    return Literal(sign.text == "+", OrderAtom(kind.text, x, y))


def _parse_formula(ts: TokenStream) -> Formula:
    ts.next("(")
    head = ts.next()
    if head.text == "atom":
        lit = _parse_literal(ts)
        ts.next(")")
        return Atom(lit)
    if head.text in ("and", "or"):
        left = _parse_formula(ts)
        right = _parse_formula(ts)
        ts.next(")")
        return And(left, right) if head.text == "and" else Or(left, right)
    if head.text == "neg":
        arg = _parse_formula(ts)
        ts.next(")")
        return Neg(arg)
    raise ts.error(head, f"expected a formula head, got {head.text!r}")


def _parse_atom_proof(ts: TokenStream) -> CertProof:
    ts.next("(")
    head = ts.next()
    name = head.text
    if name == "assm":
        node: CertProof = AssmP(_parse_literal(ts))
    elif name == "refl":
        node = ReflP(_parse_var(ts))
    elif name == "trans":
        node = TransP(_parse_atom_proof(ts), _parse_atom_proof(ts))
    elif name == "antisym":
        node = AntisymP(_parse_atom_proof(ts), _parse_atom_proof(ts))
    elif name == "eqe1":
        node = EQE1P(_parse_literal(ts))
    elif name == "eqe2":
        node = EQE2P(_parse_literal(ts))
    elif name == "contr":
        lit = _parse_literal(ts)
        node = ContrP(lit, _parse_atom_proof(ts))
    else:
        raise ts.error(head, f"expected an atom proof head, got {name!r}")
    ts.next(")")
    return node


def _parse_conv_proof(ts: TokenStream) -> ConvProof:
    tok = ts.peek()
    if tok is None:
        raise ParseError("syntax error: unexpected end of input in conversion")
    if tok.text != "(":
        ts.next()
        rule = NILADIC_CONVERSIONS.get(tok.text)
        if rule is None:
            raise ts.error(tok, f"unknown conversion {tok.text!r}")
        return rule
    ts.next("(")
    head = ts.next()
    name = head.text
    if name == "atom":
        node: ConvProof = AtomConv(_parse_conv_proof(ts))
    elif name == "arg":
        node = ArgConv(_parse_conv_proof(ts))
    elif name == "binop":
        node = BinopConv(_parse_conv_proof(ts), _parse_conv_proof(ts))
    elif name == "then":
        node = ThenConv(_parse_conv_proof(ts), _parse_conv_proof(ts))
    else:
        raise ts.error(head, f"expected a conversion head, got {name!r}")
    ts.next(")")
    return node


def _parse_cert(ts: TokenStream) -> PropProof:
    ts.next("(")
    head = ts.next()
    name = head.text
    if name == "lift":
        node: PropProof = Lift(_parse_atom_proof(ts))
    elif name == "conje":
        node = ConjE(_parse_formula(ts), _parse_formula(ts), _parse_cert(ts))
    elif name == "disje":
        node = DisjE(_parse_formula(ts), _parse_formula(ts), _parse_cert(ts), _parse_cert(ts))
    elif name == "conv":
        node = ConvRule(_parse_formula(ts), _parse_conv_proof(ts), _parse_cert(ts))
    else:
        raise ts.error(head, f"expected a certificate head, got {name!r}")
    ts.next(")")
    return node


def parse_cert(text: str) -> PropProof:
    """Inverse of serialize_cert; raises ParseError with the failing offset."""
    ts = TokenStream(text)
    cert = _parse_cert(ts)
    ts.expect_end()
    return cert
