"""Certificate languages and the trusted checker.

Three layers of certificates mirror the solver's three layers of reasoning:

* atom level: derivations of single order literals from a set of assumed
  literals (assumption, reflexivity, transitivity, antisymmetry, the two
  equality eliminations, and contradiction against a negative assumption);
* conversion level: equivalence rewrites on formulas and the congruence
  combinators ``atom``, ``arg``, ``binop`` and ``then`` that apply them
  inside a formula.  Each niladic rule (strict-literal elimination,
  negation pushing, distribution) is one row of ``_RULES``: its certificate
  token, whether ``atom`` may carry it, and its rewrite.  A ``Rule`` node
  only names its row, so the kernel applies its own rewrite;
* propositional level: conjunction/disjunction elimination and certified
  conversion steps that tie a refutation to the original goal formula.

Certificate nodes are values: nothing changes a node after it is built.
They are not frozen only because a frozen dataclass costs a slow attribute
store per field on every construction.

The checkers in this module are the artifact's trust root.  They depend only
on the core types, never on the solver, so a bug in the search can at worst
produce a certificate that fails to check, not an accepted falsehood.
Falsity is the distinguished literal ``FLS``, the always-false ``v0 != v0``.

Elimination nodes restate subformulas of the formulas above them, so the
text states each formula once: the writer labels the first occurrence of a
formula object that recurs ``#n=`` and writes ``#n#`` wherever it recurs.
The reader, in one pass over the tokens with no Python call per token,
hash-conses every formula it builds, keying a node by its head and the
objects of its parts, so equal formulas are one object however the text
states them, and both kernels compare them by identity first.  It reads
each distinct variable token and literal once per text.  It refuses a
formula with more nodes than the text has tokens, which only labels could
name, so a kernel that walks a formula the text states does work in
proportion to the text, not to the formula's exponentially larger tree;
printing one is bounded by ``Formula.__str__``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Container, Iterable

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
    neg,
    pos,
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


@dataclass(slots=True, unsafe_hash=True)
class AssmP(CertProof):
    lit: Literal


@dataclass(slots=True, unsafe_hash=True)
class ReflP(CertProof):
    var: VarId


@dataclass(slots=True, unsafe_hash=True)
class TransP(CertProof):
    left: CertProof
    right: CertProof


@dataclass(slots=True, unsafe_hash=True)
class AntisymP(CertProof):
    left: CertProof
    right: CertProof


@dataclass(slots=True, unsafe_hash=True)
class EQE1P(CertProof):
    lit: Literal


@dataclass(slots=True, unsafe_hash=True)
class EQE2P(CertProof):
    lit: Literal


@dataclass(slots=True, unsafe_hash=True)
class ContrP(CertProof):
    lit: Literal
    proof: CertProof


def check_atom_proof(context: Container[Formula], proof: CertProof) -> Literal:
    """Return the literal proved by ``proof`` under the atoms of ``context``.

    Only atoms count: each literal ``lit`` the proof cites is looked up as
    ``Atom(lit) in context``, so a check takes time in the proof, not the context.

    Raises ProofError if any rule is misapplied: a missing assumption, a
    polarity or kind mismatch, or transitivity steps that do not share their
    middle variable.
    """
    if isinstance(proof, AssmP):
        lit = proof.lit
        if not lit.pos or lit.atom.kind != LE:
            raise ProofError(f"assumption rule expects a positive <=, got {lit}")
        if Atom(lit) not in context:
            raise ProofError(f"assumption {lit} is not among the assumptions")
        return lit
    if isinstance(proof, ReflP):
        return Literal(True, le(proof.var, proof.var))
    if isinstance(proof, TransP):
        c1 = check_atom_proof(context, proof.left)
        c2 = check_atom_proof(context, proof.right)
        if c1.atom.kind != LE or c2.atom.kind != LE:
            raise ProofError(f"transitivity needs <= premises, got {c1} and {c2}")
        if c1.atom.y != c2.atom.x:
            raise ProofError(f"transitivity premises do not chain: {c1} then {c2}")
        return Literal(True, le(c1.atom.x, c2.atom.y))
    if isinstance(proof, AntisymP):
        c1 = check_atom_proof(context, proof.left)
        c2 = check_atom_proof(context, proof.right)
        if c1.atom.kind != LE or c2.atom.kind != LE:
            raise ProofError(f"antisymmetry needs <= premises, got {c1} and {c2}")
        if c1.atom.x != c2.atom.y or c1.atom.y != c2.atom.x:
            raise ProofError(f"antisymmetry premises are not converse: {c1} and {c2}")
        return Literal(True, eq(c1.atom.x, c1.atom.y))
    if isinstance(proof, (EQE1P, EQE2P)):
        lit = proof.lit
        if not lit.pos or lit.atom.kind != EQ:
            raise ProofError(f"equality elimination expects a positive =, got {lit}")
        if Atom(lit) not in context:
            raise ProofError(f"equality {lit} is not among the assumptions")
        x, y = lit.atom.x, lit.atom.y
        return Literal(True, le(x, y) if isinstance(proof, EQE1P) else le(y, x))
    if isinstance(proof, ContrP):
        lit = proof.lit
        if lit.pos:
            raise ProofError(f"contradiction rule expects a negative literal, got {lit}")
        if Atom(lit) not in context:
            raise ProofError(f"negative assumption {lit} is not among the assumptions")
        concl = check_atom_proof(context, proof.proof)
        if concl != Literal(True, lit.atom):
            raise ProofError(f"contradiction premise proves {concl}, expected {Literal(True, lit.atom)}")
        return FLS
    raise ProofError(f"unknown atom proof node {proof!r}")


# ---------------------------------------------------------------------------
# Conversion-level certificates


class ConvProof:
    """Certified equivalence rewrite on formulas."""

    __slots__ = ()


@dataclass(slots=True, unsafe_hash=True)
class Rule(ConvProof):
    """A niladic conversion, named by its certificate token: a row of ``_RULES``."""

    name: str


@dataclass(slots=True, unsafe_hash=True)
class AtomConv(ConvProof):
    rule: ConvProof


@dataclass(slots=True, unsafe_hash=True)
class ArgConv(ConvProof):
    rule: ConvProof


@dataclass(slots=True, unsafe_hash=True)
class BinopConv(ConvProof):
    left: ConvProof
    right: ConvProof


@dataclass(slots=True, unsafe_hash=True)
class ThenConv(ConvProof):
    first: ConvProof
    second: ConvProof


_Rewrite = Callable[[Formula], Formula | None]


def _on_atom(sign: bool, kind: str, result: Callable[[VarId, VarId], Formula]) -> _Rewrite:
    """``result(x, y)`` on the atom ``x kind y`` of polarity ``sign``."""

    def rewrite(f: Formula) -> Formula | None:
        if isinstance(f, Atom) and f.lit.pos == sign and f.lit.atom.kind == kind:
            return result(f.lit.atom.x, f.lit.atom.y)
        return None

    return rewrite


def _neg(inner: type, result: Callable[[Formula], Formula]) -> _Rewrite:
    """``result(a)`` on ``neg a`` where ``a`` is an ``inner`` node."""
    return lambda f: result(f.arg) if isinstance(f, Neg) and isinstance(f.arg, inner) else None


def _and_or(left: bool, result: Callable[[Formula, Formula, Formula], Formula]) -> _Rewrite:
    """``result(a, b, c)`` on ``(a or b) and c`` if ``left``, else on ``a and (b or c)``."""

    def rewrite(f: Formula) -> Formula | None:
        if isinstance(f, And):
            if left and isinstance(f.left, Or):
                return result(f.left.left, f.left.right, f.right)
            if not left and isinstance(f.right, Or):
                return result(f.left, f.right.left, f.right.right)
        return None

    return rewrite


# The niladic conversions, one row each: the certificate token, whether
# ``(atom …)`` may carry the rule, and its rewrite, which is None where the
# rule does not apply.  The README's conversion table states the same rows.
_RULES: dict[str, tuple[bool, _Rewrite]] = {
    "lessle": (True, _on_atom(True, LT, lambda x, y: And(Atom(pos(le(x, y))), Atom(neg(eq(x, y)))))),
    "nlessle": (True, _on_atom(False, LT, lambda x, y: Or(Atom(neg(le(x, y))), Atom(pos(eq(x, y)))))),
    "nle": (True, _on_atom(False, LE, lambda x, y: And(Atom(neg(eq(x, y))), Atom(pos(le(y, x)))))),
    "nless": (True, _on_atom(False, LT, lambda x, y: Atom(pos(le(y, x))))),
    "allconv": (True, lambda f: f),
    "negatom": (False, _neg(Atom, lambda a: Atom(a.lit.negate()))),
    "negneg": (False, _neg(Neg, lambda a: a.arg)),
    "negand": (False, _neg(And, lambda a: Or(Neg(a.left), Neg(a.right)))),
    "negor": (False, _neg(Or, lambda a: And(Neg(a.left), Neg(a.right)))),
    "andorl": (False, _and_or(True, lambda a, b, c: Or(And(a, c), And(b, c)))),
    "andorr": (False, _and_or(False, lambda a, b, c: Or(And(a, b), And(a, c)))),
}

NILADIC_CONVERSIONS: dict[str, Rule] = {name: Rule(name) for name in _RULES}


def apply_conv(conv: ConvProof, formula: Formula) -> Formula:
    """Apply a conversion to a formula, or raise ConversionError on mismatch.

    A niladic rule is looked up by name in the kernel's own ``_RULES``, so a
    certificate can name a rule but never supply its rewrite.
    """
    if isinstance(conv, BinopConv):
        if isinstance(formula, And):
            return And(apply_conv(conv.left, formula.left), apply_conv(conv.right, formula.right))
        if isinstance(formula, Or):
            return Or(apply_conv(conv.left, formula.left), apply_conv(conv.right, formula.right))
        raise ConversionError(f"BinopConv needs a binary connective, got {formula}")
    if isinstance(conv, ThenConv):
        return apply_conv(conv.second, apply_conv(conv.first, formula))
    if isinstance(conv, ArgConv):
        if not isinstance(formula, Neg):
            raise ConversionError(f"ArgConv needs a negation, got {formula}")
        return Neg(apply_conv(conv.rule, formula.arg))
    if isinstance(conv, AtomConv):
        if not isinstance(formula, Atom):
            raise ConversionError(f"AtomConv needs an atom, got {formula}")
        conv = conv.rule
        if not (isinstance(conv, Rule) and conv.name in _RULES and _RULES[conv.name][0]):
            name = conv.name if isinstance(conv, Rule) else type(conv).__name__
            raise ConversionError(f"AtomConv carries {name}, not an atom-level rule")
    row = _RULES.get(conv.name) if isinstance(conv, Rule) else None
    if row is None:
        raise ConversionError(f"unknown conversion node {conv!r}")
    result = row[1](formula)
    if result is None:
        raise ConversionError(f"{conv.name} does not apply to {formula}")
    return result


# ---------------------------------------------------------------------------
# Propositional certificates


class PropProof:
    """Refutation-style derivation over a context of assumed formulas."""

    __slots__ = ()


@dataclass(slots=True, unsafe_hash=True)
class Lift(PropProof):
    proof: CertProof


@dataclass(slots=True, unsafe_hash=True)
class ConjE(PropProof):
    left: Formula
    right: Formula
    proof: PropProof


@dataclass(slots=True, unsafe_hash=True)
class DisjE(PropProof):
    left: Formula
    right: Formula
    left_proof: PropProof
    right_proof: PropProof


@dataclass(slots=True, unsafe_hash=True)
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

    One scoped context serves the whole check: ConjE and ConvRule add to it,
    a DisjE takes out what its left case added before its right case, and
    Lift looks up only the literals it cites, so a check is linear in the certificate.
    """
    return _check_spine(dict.fromkeys(context), proof)


def _check_spine(context: dict[Formula, None], proof: PropProof) -> Formula:
    # Adds to ``context``; the caller takes out what it no longer holds.
    while True:
        if isinstance(proof, Lift):
            return Atom(check_atom_proof(context, proof.proof))
        if isinstance(proof, ConjE):
            if And(proof.left, proof.right) not in context:
                raise ProofError(f"conjunction {And(proof.left, proof.right)} is not among the assumptions")
            context[proof.left] = context[proof.right] = None
        elif isinstance(proof, DisjE):
            if Or(proof.left, proof.right) not in context:
                raise ProofError(f"disjunction {Or(proof.left, proof.right)} is not among the assumptions")
            # A formula already held keeps its place, so popping back to ``mark`` keeps it.
            mark = len(context)
            context[proof.left] = None
            c1 = _check_spine(context, proof.left_proof)
            while len(context) > mark:
                context.popitem()
            context[proof.right] = None
            c2 = _check_spine(context, proof.right_proof)
            if c1 != c2:
                raise ProofError(f"case split branches prove different formulas: {c1} and {c2}")
            return c1
        elif isinstance(proof, ConvRule):
            if proof.source not in context:
                raise ProofError(f"conversion source {proof.source} is not among the assumptions")
            context[apply_conv(proof.conversion, proof.source)] = None
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
        if type(node) is Rule:
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
        if type(node) is Rule:
            out.append(node.name)
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


_FORMULA_HEADS: dict[str, type] = {"atom": Atom, "and": And, "or": Or, "neg": Neg}


class _Reader:
    """The tokens of one certificate text and the tables of one reading.

    The parse functions take each token with ``next(reader.rest)``, a call
    into C, and compare parentheses inline, so no Python function runs per
    token; a token's index is worked out only for an error message.  The
    tables hash-cons formulas, check each distinct variable token once and
    build each distinct literal once.  They belong to the reader, so nothing
    is kept from one ``parse_cert`` call to the next.
    """

    __slots__ = ("text", "tokens", "rest", "vids", "lits", "formulas", "labels")

    def __init__(self, text: str) -> None:
        self.text = text
        # Through the module, so that bench/spans.py's rebound ``sexpr.tokenize`` times it.
        self.tokens = sexpr.tokenize(text)
        self.rest = iter(self.tokens)
        # A variable token to its id, and a literal's fields to the literal.
        self.vids: dict[str, VarId] = {}
        self.lits: dict[tuple[str, str, VarId, VarId], Literal] = {}
        # A node's key to the node and the number of nodes in its tree.
        self.formulas: dict[object, tuple[Formula, int]] = {}
        # A reference ``#n#`` to its formula, or to None while that formula is read.
        self.labels: dict[str, tuple[Formula, int] | None] = {}

    def error(self, message: str) -> ParseError:
        """``message`` at the token read last, which a ``{}`` in it quotes."""
        k = len(self.tokens) - self.rest.__length_hint__() - 1
        offset = sexpr.offset_of(self.text, self.tokens, k)
        return ParseError(f"syntax error at offset {offset}: {message.format(quote_token(self.tokens[k]))}")


def _var(r: _Reader, tok: str) -> VarId:
    """The id of the variable token ``tok``, the token read last; checked once per text."""
    digits = tok[1:]
    if not tok.startswith("v") or not (digits.isascii() and digits.isdigit()):
        raise r.error("expected a variable like v0, got {}")
    try:
        r.vids[tok] = var = int(digits)
    except ValueError:  # more digits than int() converts
        raise r.error(f"variable id of {len(digits)} digits is too long") from None
    return var


def _parse_literal(r: _Reader) -> Literal:
    rest, vids = r.rest, r.vids
    if next(rest) != "(":
        raise r.error("expected '(', got {}")
    sign = next(rest)
    if sign != "+" and sign != "-":
        raise r.error("expected polarity + or -, got {}")
    kind = next(rest)
    if kind != "le" and kind != "lt" and kind != "eq":
        raise r.error("expected atom kind le/lt/eq, got {}")
    x = vids[tok] if (tok := next(rest)) in vids else _var(r, tok)
    y = vids[tok] if (tok := next(rest)) in vids else _var(r, tok)
    if next(rest) != ")":
        raise r.error("expected ')', got {}")
    lit = r.lits.get(key := (sign, kind, x, y))
    if lit is None:
        lit = r.lits[key] = Literal(sign == "+", OrderAtom(kind, x, y))
    return lit


def _parse_formula(r: _Reader) -> tuple[Formula, int]:
    """The next formula, hash-consed, and the number of nodes in its tree.

    The labels in front of it are read in this frame, so they add no nesting,
    and bind once it closes, so no formula can refer to itself.
    """
    rest, labels = r.rest, r.labels
    tok, defined = next(rest), ()
    while tok != "(":
        node = labels.get(tok)
        if node is not None:
            for ref in defined:
                labels[ref] = node
            return node
        digits, mark = tok[1:-1], tok[-1]
        if tok[0] != "#":
            raise r.error("expected '(', got {}")
        if mark not in "=#" or not (digits.isascii() and digits.isdigit()):
            raise r.error("expected a formula or a label, got {}")
        if mark == "#":
            raise r.error("undefined label {}")
        if (ref := f"#{digits}#") in labels:
            raise r.error("label {} is defined twice")
        labels[ref] = None
        defined += (ref,)
        tok = next(rest)
    head = next(rest)
    if head == "atom":
        parts: tuple = (_parse_literal(r),)
        key: object = id(parts[0])  # one literal object per literal in a text
        size = 1
    elif head == "and" or head == "or":
        left, right = _parse_formula(r), _parse_formula(r)
        parts, key, size = (left[0], right[0]), (head, id(left[0]), id(right[0])), 1 + left[1] + right[1]
    elif head == "neg":
        arg = _parse_formula(r)
        parts, key, size = (arg[0],), (head, id(arg[0])), 1 + arg[1]
    else:
        raise r.error("expected a formula head, got {}")
    if next(rest) != ")":
        raise r.error("expected ')', got {}")
    node = r.formulas.get(key)
    if node is None:
        if size > len(r.tokens):
            raise r.error(f"formula of {size} nodes is larger than the text of {len(r.tokens)} tokens")
        node = r.formulas[key] = _FORMULA_HEADS[head](*parts), size
    for ref in defined:
        labels[ref] = node
    return node


def _parse_atom_proof(r: _Reader) -> CertProof:
    rest = r.rest
    if next(rest) != "(":
        raise r.error("expected '(', got {}")
    name = next(rest)
    if name == "trans" or name == "antisym":
        node: CertProof = (TransP if name == "trans" else AntisymP)(_parse_atom_proof(r), _parse_atom_proof(r))
    elif name == "assm":
        node = AssmP(_parse_literal(r))
    elif name == "refl":
        node = ReflP(r.vids[tok] if (tok := next(rest)) in r.vids else _var(r, tok))
    elif name == "eqe1" or name == "eqe2":
        node = (EQE1P if name == "eqe1" else EQE2P)(_parse_literal(r))
    elif name == "contr":
        node = ContrP(_parse_literal(r), _parse_atom_proof(r))
    else:
        raise r.error("expected an atom proof head, got {}")
    if next(rest) != ")":
        raise r.error("expected ')', got {}")
    return node


def _parse_conv_proof(r: _Reader) -> ConvProof:
    rest = r.rest
    if (tok := next(rest)) != "(":
        if tok not in NILADIC_CONVERSIONS:
            raise r.error("unknown conversion {}")
        return NILADIC_CONVERSIONS[tok]
    name = next(rest)
    if name == "atom":
        node: ConvProof = AtomConv(_parse_conv_proof(r))
    elif name == "arg":
        node = ArgConv(_parse_conv_proof(r))
    elif name == "binop":
        node = BinopConv(_parse_conv_proof(r), _parse_conv_proof(r))
    elif name == "then":
        node = ThenConv(_parse_conv_proof(r), _parse_conv_proof(r))
    else:
        raise r.error("expected a conversion head, got {}")
    if next(rest) != ")":
        raise r.error("expected ')', got {}")
    return node


def _parse_cert(r: _Reader) -> PropProof:
    rest = r.rest
    if next(rest) != "(":
        raise r.error("expected '(', got {}")
    name = next(rest)
    if name == "conje":
        node: PropProof = ConjE(_parse_formula(r)[0], _parse_formula(r)[0], _parse_cert(r))
    elif name == "lift":
        node = Lift(_parse_atom_proof(r))
    elif name == "disje":
        node = DisjE(_parse_formula(r)[0], _parse_formula(r)[0], _parse_cert(r), _parse_cert(r))
    elif name == "conv":
        node = ConvRule(_parse_formula(r)[0], _parse_conv_proof(r), _parse_cert(r))
    else:
        raise r.error("expected a certificate head, got {}")
    if next(rest) != ")":
        raise r.error("expected ')', got {}")
    return node


def parse_cert(text: str) -> PropProof:
    """Inverse of serialize_cert, in one pass over the tokens of ``text``.

    Equal formulas read to one object.  A ParseError names the offset of
    the offending token; running out of tokens is the end of input.
    """
    r = _Reader(text)
    try:
        cert = _parse_cert(r)
    except StopIteration:
        raise ParseError(f"syntax error at offset {len(text)}: unexpected end of input") from None
    if next(r.rest, None) is not None:
        raise r.error("trailing input {}")
    return cert
