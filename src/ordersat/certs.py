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

Elimination nodes restate subformulas of the formulas above them, so the
text states each formula once: the writer labels the first occurrence of a
formula object that recurs ``#n=`` and writes ``#n#`` wherever it recurs.
The reader, in one pass over the tokens, hash-conses every formula it
builds, so equal formulas are one object however the text states them, and
both kernels compare them by identity first.  It refuses a formula with
more nodes than the text has tokens, which only labels could name, so a
kernel that prints or walks a formula the text states does work in
proportion to the text, not to the formula's exponentially larger tree.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
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
    quote_token,
)
from . import sexpr


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
    if isinstance(proof, (EQE1P, EQE2P)):
        lit = proof.lit
        if not lit.pos or lit.atom.kind != EQ:
            raise ProofError(f"equality elimination expects a positive =, got {lit}")
        if lit not in assumptions:
            raise ProofError(f"equality {lit} is not among the assumptions")
        x, y = lit.atom.x, lit.atom.y
        return Literal(True, le(x, y) if isinstance(proof, EQE1P) else le(y, x))
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
    return Atom(lit)  # AllConv, the last of _ATOM_RULES


def apply_conv(conv: ConvProof, formula: Formula) -> Formula:
    """Apply a conversion to a formula, or raise ConversionError on mismatch."""
    if isinstance(conv, AllConv):
        return formula
    if isinstance(conv, AtomConv) or isinstance(conv, _ATOM_RULES):
        if not isinstance(formula, Atom):
            raise ConversionError(f"{type(conv).__name__} needs an atom, got {formula}")
        rule = conv.rule if isinstance(conv, AtomConv) else conv
        if not isinstance(rule, _ATOM_RULES):
            raise ConversionError(f"AtomConv carries {type(rule).__name__}, not an atom-level rule")
        return _apply_atom_rule(rule, formula.lit)
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

    The check loops down the certificate's spine over one copy of
    ``context``: ConjE and ConvRule add to it in place, and only a DisjE
    copies it, once for each case, so a spine takes linear time and memory.
    """
    return _check_spine(set(context), proof)


def _check_spine(context: set[Formula], proof: PropProof) -> Formula:
    # ``context`` belongs to this call, which adds to it.
    while True:
        if isinstance(proof, Lift):
            atoms = frozenset(f.lit for f in context if isinstance(f, Atom))
            return Atom(check_atom_proof(atoms, proof.proof))
        if isinstance(proof, ConjE):
            if And(proof.left, proof.right) not in context:
                raise ProofError(f"conjunction {And(proof.left, proof.right)} is not among the assumptions")
            context.add(proof.left)
            context.add(proof.right)
        elif isinstance(proof, DisjE):
            if Or(proof.left, proof.right) not in context:
                raise ProofError(f"disjunction {Or(proof.left, proof.right)} is not among the assumptions")
            c1 = _check_spine(context | {proof.left}, proof.left_proof)
            c2 = _check_spine(context | {proof.right}, proof.right_proof)
            if c1 != c2:
                raise ProofError(f"case split branches prove different formulas: {c1} and {c2}")
            return c1
        elif isinstance(proof, ConvRule):
            if proof.source not in context:
                raise ProofError(f"conversion source {proof.source} is not among the assumptions")
            context.add(apply_conv(proof.conversion, proof.source))
        else:
            raise ProofError(f"unknown propositional proof node {proof!r}")
        proof = proof.proof


def is_refutation(goal: Formula, proof: PropProof) -> bool:
    """True iff ``proof`` derives falsity from ``goal`` as the sole assumption."""
    try:
        return check_prop_proof({goal}, proof) == FLS_FORMULA
    except (ProofError, ConversionError):
        return False


# ---------------------------------------------------------------------------
# Writing (whitespace-separated ASCII s-expressions)

# The one table of niladic conversion names.
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


# A proof node other than a niladic conversion is written
# ``(head field ...)`` with its fields in declaration order.
_HEADS: dict[type, str] = {
    AssmP: "assm",
    ReflP: "refl",
    TransP: "trans",
    AntisymP: "antisym",
    EQE1P: "eqe1",
    EQE2P: "eqe2",
    ContrP: "contr",
    AtomConv: "atom",
    ArgConv: "arg",
    BinopConv: "binop",
    ThenConv: "then",
    Lift: "lift",
    ConjE: "conje",
    DisjE: "disje",
    ConvRule: "conv",
}
_FIELDS = {cls: tuple(f.name for f in fields(cls)) for cls in _HEADS}


def cert_size(proof: PropProof | CertProof | ConvProof) -> int:
    """Number of certificate nodes: 1 per node plus its proof-valued fields.

    A niladic conversion counts 1; the formulas, literals and variables a
    node restates count 0.  The nodes are counted on an explicit stack.
    """
    size = 0
    stack = [proof]
    while stack:
        node = stack.pop()
        size += 1
        if type(node) in CONVERSION_NAME:
            continue
        if type(node) not in _FIELDS:
            raise ValueError(f"not a certificate node: {node!r}")
        for name in _FIELDS[type(node)]:
            value = getattr(node, name)
            if isinstance(value, (PropProof, CertProof, ConvProof)):
                stack.append(value)
    return size


class _Writer:
    """The parts of one certificate text, each formula object written once.

    An empty part is reserved before the text of every formula object.  When
    the same object comes up again, that part becomes ``#n=`` and this and
    every later occurrence is written ``#n#``, so one pass labels exactly the
    objects that recur.  Keys are object ids, which stay unique while the
    certificate being written holds every formula in it.
    """

    __slots__ = ("out", "seen", "labels")

    def __init__(self) -> None:
        self.out: list[str] = []
        # id of a formula written so far: its reserved part's index, or its label.
        self.seen: dict[int, int | str] = {}
        self.labels = 0

    def formula(self, f: Formula) -> None:
        out, key = self.out, id(f)
        mark = self.seen.get(key)
        if mark is None:
            self.seen[key] = len(out)
            out.append("")
            if isinstance(f, Atom):
                out.append(f"(atom {serialize_literal(f.lit)})")
            elif isinstance(f, (And, Or)):
                out.append("(and " if isinstance(f, And) else "(or ")
                self.formula(f.left)
                out.append(" ")
                self.formula(f.right)
                out.append(")")
            elif isinstance(f, Neg):
                out.append("(neg ")
                self.formula(f.arg)
                out.append(")")
            else:
                raise ValueError(f"not a formula node: {f!r}")
            return
        if isinstance(mark, int):
            out[mark] = f"#{self.labels}="
            mark = self.seen[key] = f"#{self.labels}#"
            self.labels += 1
        out.append(mark)

    def node(self, node: PropProof | CertProof | ConvProof) -> None:
        out = self.out
        name = CONVERSION_NAME.get(type(node))
        if name is not None:
            out.append(name)
            return
        head = _HEADS.get(type(node))
        if head is None:
            raise ValueError(f"not a certificate node: {node!r}")
        out += ("(", head)
        for field in _FIELDS[type(node)]:
            value = getattr(node, field)
            out.append(" ")
            if isinstance(value, Formula):
                self.formula(value)
            elif isinstance(value, Literal):
                out.append(serialize_literal(value))
            elif isinstance(value, int):
                out.append(f"v{value}")
            else:
                self.node(value)
        out.append(")")


def serialize_cert(p: PropProof) -> str:
    """Certificate text, written in one pass as a list of parts joined once.

    Each formula object is written in full once; an object that recurs is
    labelled ``#n=`` where it is first written and is ``#n#`` wherever it
    recurs.  Below ten million labels, ``#n=`` and ``#n#`` together are
    shorter than the smallest formula text, so labelling never lengthens the
    text.
    """
    w = _Writer()
    w.node(p)
    return "".join(w.out)


# ---------------------------------------------------------------------------
# Reading


class _Reader:
    """Cursor over the tokens of one certificate text.

    Formulas are hash-consed as they are built: a node is keyed by its head
    and the objects of its children, an atom by its literal, so equal
    formulas are one object wherever the text states them, and both kernels
    compare them by identity first.  ``#n=`` binds label ``n`` to the
    formula after it once that formula closes, and ``#n#`` yields that same
    object.  With labels a short text could name a formula whose tree is
    exponentially larger, which would take as long to print, so no formula
    may have more nodes than the text has tokens, as none stated without
    labels does.  The tables belong to the reader, so nothing is kept from
    one ``parse_cert`` call to the next.
    """

    __slots__ = ("text", "tokens", "pos", "formulas", "labels")

    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = sexpr.tokenize(text)
        self.pos = 0
        # A node's key to the node and the number of nodes in its tree.
        self.formulas: dict[tuple, tuple[Formula, int]] = {}
        # A label's digits to its formula, or to None while that formula is read.
        self.labels: dict[str, tuple[Formula, int] | None] = {}

    def next(self, expected: str | None = None) -> str:
        pos = self.pos
        if pos == len(self.tokens):
            raise ParseError(f"syntax error at offset {len(self.text)}: unexpected end of input")
        tok = self.tokens[pos]
        self.pos = pos + 1
        if expected is not None and tok != expected:
            raise self.error(f"expected {expected!r}, got {quote_token(tok)}", pos)
        return tok

    def error(self, message: str, k: int | None = None) -> ParseError:
        """``message`` at token ``k``, by default the token read last."""
        offset = sexpr.offset_of(self.text, self.tokens, self.pos - 1 if k is None else k)
        return ParseError(f"syntax error at offset {offset}: {message}")


def _parse_var(r: _Reader) -> VarId:
    tok = r.next()
    digits = tok[1:]
    if not tok.startswith("v") or not (digits.isascii() and digits.isdigit()):
        raise r.error(f"expected a variable like v0, got {quote_token(tok)}")
    try:
        return int(digits)
    except ValueError:  # more digits than int() converts
        raise r.error(f"variable id of {len(digits)} digits is too long") from None


def _literal_fields(r: _Reader) -> tuple[bool, str, VarId, VarId]:
    r.next("(")
    sign = r.next()
    if sign not in ("+", "-"):
        raise r.error(f"expected polarity + or -, got {quote_token(sign)}")
    kind = r.next()
    if kind not in ("le", "lt", "eq"):
        raise r.error(f"expected atom kind le/lt/eq, got {quote_token(kind)}")
    x = _parse_var(r)
    y = _parse_var(r)
    r.next(")")
    return sign == "+", kind, x, y


def _parse_literal(r: _Reader) -> Literal:
    sign, kind, x, y = _literal_fields(r)
    return Literal(sign, OrderAtom(kind, x, y))


def _parse_formula(r: _Reader) -> tuple[Formula, int]:
    """The next formula, hash-consed, and the number of nodes in its tree."""
    tok = r.next()
    if tok != "(":
        if tok[0] == "#":
            return _parse_label(r, tok)
        raise r.error(f"expected '(', got {quote_token(tok)}")
    head = r.next()
    if head == "atom":
        key: tuple = _literal_fields(r)
        size = 1
    elif head in ("and", "or"):
        left = _parse_formula(r)
        right = _parse_formula(r)
        key = (head, id(left[0]), id(right[0]))
        size = 1 + left[1] + right[1]
    elif head == "neg":
        arg = _parse_formula(r)
        key = (head, id(arg[0]))
        size = 1 + arg[1]
    else:
        raise r.error(f"expected a formula head, got {quote_token(head)}")
    r.next(")")
    node = r.formulas.get(key)
    if node is None:
        if size > len(r.tokens):
            raise r.error(f"formula of {size} nodes is larger than the text of {len(r.tokens)} tokens")
        if head == "atom":
            f: Formula = Atom(Literal(key[0], OrderAtom(key[1], key[2], key[3])))
        elif head == "neg":
            f = Neg(arg[0])
        else:
            f = (And if head == "and" else Or)(left[0], right[0])
        node = r.formulas[key] = f, size
    return node


def _parse_label(r: _Reader, tok: str) -> tuple[Formula, int]:
    # ``tok`` was read last.  A label binds only once its formula closes,
    # so a formula cannot refer to itself and no cycle can form.
    digits, mark = tok[1:-1], tok[-1]
    if mark not in "=#" or not (digits.isascii() and digits.isdigit()):
        raise r.error(f"expected a formula or a label, got {quote_token(tok)}")
    labels = r.labels
    if mark == "#":
        node = labels.get(digits)
        if node is None:
            raise r.error(f"undefined label {quote_token(tok)}")
        return node
    if digits in labels:
        raise r.error(f"label {quote_token(tok)} is defined twice")
    labels[digits] = None
    labels[digits] = node = _parse_formula(r)
    return node


def _parse_atom_proof(r: _Reader) -> CertProof:
    r.next("(")
    name = r.next()
    if name == "assm":
        node: CertProof = AssmP(_parse_literal(r))
    elif name == "refl":
        node = ReflP(_parse_var(r))
    elif name in ("trans", "antisym"):
        node = (TransP if name == "trans" else AntisymP)(_parse_atom_proof(r), _parse_atom_proof(r))
    elif name in ("eqe1", "eqe2"):
        node = (EQE1P if name == "eqe1" else EQE2P)(_parse_literal(r))
    elif name == "contr":
        lit = _parse_literal(r)
        node = ContrP(lit, _parse_atom_proof(r))
    else:
        raise r.error(f"expected an atom proof head, got {quote_token(name)}")
    r.next(")")
    return node


def _parse_conv_proof(r: _Reader) -> ConvProof:
    tok = r.next()
    if tok != "(":
        rule = NILADIC_CONVERSIONS.get(tok)
        if rule is None:
            raise r.error(f"unknown conversion {quote_token(tok)}")
        return rule
    name = r.next()
    if name == "atom":
        node: ConvProof = AtomConv(_parse_conv_proof(r))
    elif name == "arg":
        node = ArgConv(_parse_conv_proof(r))
    elif name == "binop":
        node = BinopConv(_parse_conv_proof(r), _parse_conv_proof(r))
    elif name == "then":
        node = ThenConv(_parse_conv_proof(r), _parse_conv_proof(r))
    else:
        raise r.error(f"expected a conversion head, got {quote_token(name)}")
    r.next(")")
    return node


def _parse_cert(r: _Reader) -> PropProof:
    r.next("(")
    name = r.next()
    if name == "lift":
        node: PropProof = Lift(_parse_atom_proof(r))
    elif name == "conje":
        node = ConjE(_parse_formula(r)[0], _parse_formula(r)[0], _parse_cert(r))
    elif name == "disje":
        node = DisjE(_parse_formula(r)[0], _parse_formula(r)[0], _parse_cert(r), _parse_cert(r))
    elif name == "conv":
        node = ConvRule(_parse_formula(r)[0], _parse_conv_proof(r), _parse_cert(r))
    else:
        raise r.error(f"expected a certificate head, got {quote_token(name)}")
    r.next(")")
    return node


def parse_cert(text: str) -> PropProof:
    """Inverse of serialize_cert, in one pass over the tokens of ``text``.

    Equal formulas read to one object, and ``#n#`` to the object labelled
    ``#n=``.  A ParseError names the offset of the offending token.
    """
    r = _Reader(text)
    cert = _parse_cert(r)
    if r.pos < len(r.tokens):
        raise r.error(f"trailing input {quote_token(r.tokens[r.pos])}", r.pos)
    return cert
