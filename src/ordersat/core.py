"""Syntax and semantics of order constraints.

Variables are dense non-negative integers handed out by a SymbolTable.
An atom relates two variables by ``le``, ``lt`` or ``eq``; a literal attaches
a polarity; formulas combine literal atoms with And/Or/Neg, and neither
hashing nor comparing them recurses.  Truth is judged against a finite
relation together with a valuation mapping variables into the relation's
carrier.  ``parse_input`` reads the surface syntax of formula files into a
formula and the SymbolTable that names its variables.  One regular
expression splits a text into plain-string tokens; the ``line:col`` of a
token is worked out from the text only when an error names it.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, fields
from enum import Enum
from typing import Iterable, Iterator, Mapping

VarId = int

LE = "le"
LT = "lt"
EQ = "eq"
ATOM_KINDS = (LE, LT, EQ)

_KIND_SYMBOL = {LE: "<=", LT: "<", EQ: "="}


class OrderSatError(Exception):
    """Base class for every error this package raises deliberately."""


class EvaluationError(OrderSatError):
    """A literal or formula could not be evaluated (unmapped variable)."""


class ParseError(OrderSatError):
    """Malformed textual input; the message carries the position."""


def quote_token(tok: str) -> str:
    """``repr(tok)``, or the repr of its first 40 characters and "…" if it is longer.

    A parse error quotes the offending token this way, so its line stays
    short however long the token is.
    """
    return repr(tok) if len(tok) <= 40 else f"{tok[:40]!r}…"


class InvariantViolation(OrderSatError):
    """An internal self-check failed; indicates a bug rather than bad input."""


@dataclass(slots=True, unsafe_hash=True)
class OrderAtom:
    kind: str
    x: VarId
    y: VarId

    def __post_init__(self) -> None:
        if self.kind not in ATOM_KINDS:
            raise ValueError(f"unknown atom kind {self.kind!r}")

    def __str__(self) -> str:
        return f"v{self.x} {_KIND_SYMBOL[self.kind]} v{self.y}"


def le(x: VarId, y: VarId) -> OrderAtom:
    return OrderAtom(LE, x, y)


def lt(x: VarId, y: VarId) -> OrderAtom:
    return OrderAtom(LT, x, y)


def eq(x: VarId, y: VarId) -> OrderAtom:
    return OrderAtom(EQ, x, y)


@dataclass(slots=True, unsafe_hash=True)
class Literal:
    pos: bool
    atom: OrderAtom

    def negate(self) -> Literal:
        return Literal(not self.pos, self.atom)

    def __str__(self) -> str:
        body = str(self.atom)
        return body if self.pos else f"~({body})"


def pos(atom: OrderAtom) -> Literal:
    return Literal(True, atom)


def neg(atom: OrderAtom) -> Literal:
    return Literal(False, atom)


MAX_FORMULA_TEXT = 400  # a formula prints as at most this many characters


class Formula:
    """Base class of the formula tree; nodes are Atom, And, Or and Neg.

    Each node stores its hash in ``_hash`` when it is built, from its literal
    or its children's stored hashes, and ``==`` and ``str`` walk an explicit
    stack; it returns at once for two nodes of one type that hold the same
    literal object or the same two children.  Any other subclass
    stores a ``_hash`` too and brings its own ``==`` and its own text.

    Nodes are never changed after they are built, so a stored hash stays
    the hash of the tree.  They are not frozen only because a frozen
    dataclass costs a slow attribute store per field on every construction.
    """

    __slots__ = ()

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # A copy or an unpickled node is built again, so it stores its own hash.
        return type(self), tuple(getattr(self, field.name) for field in fields(self))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Formula):
            return NotImplemented
        kind = type(self)
        if kind is type(other):
            if kind is Atom:
                if self.lit is other.lit:
                    return True
            elif (kind is And or kind is Or) and self.left is other.left and self.right is other.right:
                return True
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if type(a) is not type(b) or a._hash != b._hash:
                return False
            if type(a) is Atom:
                if a.lit != b.lit:
                    return False
            elif type(a) is Neg:
                stack.append((a.arg, b.arg))
            elif type(a) is And or type(a) is Or:
                stack.append((a.right, b.right))
                stack.append((a.left, b.left))
            elif a != b:
                return False
        return True

    def __str__(self) -> str:
        """The text, or its first ``MAX_FORMULA_TEXT - 1`` characters and "…", from an explicit stack."""
        parts: list[str] = []
        size = 0
        stack: list[Formula | str] = [self]
        while stack and size <= MAX_FORMULA_TEXT:
            node = stack.pop()
            if type(node) is And or type(node) is Or:
                stack += ")", node.right, (" & " if type(node) is And else " | "), node.left, "("
            elif type(node) is Neg:
                stack += node.arg, "~"
            else:  # a piece of text, an atom, or a subclass that brings its own text
                text = str(node.lit) if type(node) is Atom else str(node)
                parts.append(text)
                size += len(text)
        text = "".join(parts)
        return text if size <= MAX_FORMULA_TEXT else text[: MAX_FORMULA_TEXT - 1] + "…"


@dataclass(eq=False)
class Atom(Formula):
    __slots__ = ("lit", "_hash", "__weakref__")
    lit: Literal

    def __post_init__(self) -> None:
        self._hash = hash(self.lit)


@dataclass(eq=False)
class And(Formula):
    __slots__ = ("left", "right", "_hash", "__weakref__")
    left: Formula
    right: Formula

    def __post_init__(self) -> None:
        self._hash = hash((1, self.left._hash, self.right._hash))


@dataclass(eq=False)
class Or(Formula):
    __slots__ = ("left", "right", "_hash", "__weakref__")
    left: Formula
    right: Formula

    def __post_init__(self) -> None:
        self._hash = hash((2, self.left._hash, self.right._hash))


@dataclass(eq=False)
class Neg(Formula):
    __slots__ = ("arg", "_hash", "__weakref__")
    arg: Formula

    def __post_init__(self) -> None:
        self._hash = hash((3, self.arg._hash))


class Theory(Enum):
    PARTIAL = "partial"
    LINEAR = "linear"


class SymbolTable:
    """Bidirectional, insertion-ordered mapping between names and variables.

    ``intern`` is idempotent and assigns ids in first-seen order starting
    from 0; both directions of the mapping stay injective.
    """

    def __init__(self) -> None:
        self._ids: dict[str, VarId] = {}
        self._names: list[str] = []

    def intern(self, name: str) -> VarId:
        if not name:
            raise ValueError("variable names must be non-empty")
        var = self._ids.get(name)
        if var is None:
            var = len(self._names)
            self._ids[name] = var
            self._names.append(name)
        return var

    def name_of(self, var: VarId) -> str:
        if not 0 <= var < len(self._names):
            raise KeyError(f"unknown variable id {var}")
        return self._names[var]

    def names(self) -> list[str]:
        return list(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._ids

    def __len__(self) -> int:
        return len(self._names)


@dataclass(frozen=True)
class Relation:
    """A finite binary relation with an explicit carrier set."""

    carrier: frozenset[int]
    pairs: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        for a, b in self.pairs:
            if a not in self.carrier or b not in self.carrier:
                raise ValueError(f"pair ({a}, {b}) leaves the carrier")

    @staticmethod
    def make(carrier: Iterable[int], pairs: Iterable[tuple[int, int]]) -> Relation:
        return Relation(frozenset(carrier), frozenset(pairs))


@dataclass(frozen=True)
class RelationProps:
    refl: bool
    trans: bool
    antisym: bool
    total: bool


def relation_props(r: Relation) -> RelationProps:
    """Decide reflexivity, transitivity, antisymmetry and totality of ``r``."""
    pairs = r.pairs
    refl = all((c, c) in pairs for c in r.carrier)
    antisym = all(a == b or (b, a) not in pairs for a, b in pairs)
    succ: dict[int, set[int]] = {c: set() for c in r.carrier}
    for a, b in pairs:
        succ[a].add(b)
    trans = all(succ[b] <= succ[a] for a, b in pairs)
    total = all(
        (a, b) in pairs or (b, a) in pairs for a in r.carrier for b in r.carrier
    )
    return RelationProps(refl, trans, antisym, total)


Valuation = Mapping[VarId, int]


def _image(r: Relation, v: Valuation, var: VarId) -> int:
    if var not in v:
        raise EvaluationError(f"variable v{var} has no value")
    value = v[var]
    if value not in r.carrier:
        raise EvaluationError(f"variable v{var} maps to {value}, outside the carrier")
    return value


def eval_literal(r: Relation, v: Valuation, lit: Literal) -> bool:
    """Truth of a literal: the polarity must match the atom's truth in ``r``."""
    vx = _image(r, v, lit.atom.x)
    vy = _image(r, v, lit.atom.y)
    kind = lit.atom.kind
    if kind == LE:
        holds = (vx, vy) in r.pairs
    elif kind == LT:
        holds = (vx, vy) in r.pairs and vx != vy
    else:
        holds = vx == vy
    return holds == lit.pos


def eval_formula(r: Relation, v: Valuation, f: Formula) -> bool:
    if isinstance(f, Atom):
        return eval_literal(r, v, f.lit)
    if isinstance(f, And):
        return eval_formula(r, v, f.left) and eval_formula(r, v, f.right)
    if isinstance(f, Or):
        return eval_formula(r, v, f.left) or eval_formula(r, v, f.right)
    if isinstance(f, Neg):
        return not eval_formula(r, v, f.arg)
    raise EvaluationError(f"cannot evaluate {f!r}")


def formula_literals(f: Formula) -> list[Literal]:
    """Leaf literals of ``f`` in left-to-right order."""
    out: list[Literal] = []
    stack = [f]
    while stack:
        node = stack.pop()
        if isinstance(node, Atom):
            out.append(node.lit)
        elif isinstance(node, Neg):
            stack.append(node.arg)
        elif isinstance(node, (And, Or)):
            stack.append(node.right)
            stack.append(node.left)
        else:
            raise EvaluationError(f"not a formula node: {node!r}")
    return out


def formula_vars(f: Formula) -> set[VarId]:
    return {v for l in formula_literals(f) for v in (l.atom.x, l.atom.y)}


def literal_vars(lits: Iterable[Literal]) -> set[VarId]:
    return {v for l in lits for v in (l.atom.x, l.atom.y)}


def iter_valuations(vars: Iterable[VarId], carrier: Iterable[int]) -> Iterator[dict[VarId, int]]:
    """All total maps from ``vars`` into ``carrier``, in a deterministic order."""
    vs = sorted(set(vars))
    elems = sorted(set(carrier))
    if not vs:
        yield {}
        return
    for combo in itertools.product(elems, repeat=len(vs)):
        yield dict(zip(vs, combo))


_RELOPS = ("<=", ">=", "!=", "<", ">", "=")

# One match per token: a parenthesis, a connective, a relation or a run of
# word characters.  A comment, "#" to the end of its line, is one match too,
# and so is any other character on its own, so that it can be reported.
# Whitespace, whatever ``str.isspace`` accepts, starts no match and is
# skipped.  ``\w`` is exactly ``str.isalnum()`` or "_".
_TOKEN = re.compile(r"#.*|[<>!]=|[()&|~<>=]|\w+|\S")


class _Parser:
    """Grammar: disjunction of conjunctions of ~-prefixed atoms or groups.

    Tokens are plain strings, with "" past the last one.  Where a token
    stands is worked out from the text only when an error is reported.
    """

    def __init__(self, text: str, table: SymbolTable) -> None:
        self.text = text
        self.table = table
        tokens = [tok for tok in _TOKEN.findall(text) if not tok.startswith("#")]
        # A token that is no symbol must be an identifier, which starts with
        # a letter or "_"; otherwise its first character starts no token.
        for k, name in enumerate(tokens):
            if not (name[0].isalpha() or name[0] in "_()&|~<>=" or name == "!="):
                raise self._error(f"unexpected character {name[0]!r}", k)
        tokens.append("")
        self.tokens = tokens
        self.k = 0

    def parse(self) -> Formula:
        f = self._disj()
        if self.tokens[self.k]:
            raise self._error(f"unexpected {quote_token(self.tokens[self.k])}", self.k)
        return f

    def _disj(self) -> Formula:
        f = self._conj()
        while self.tokens[self.k] == "|":
            self.k += 1
            f = Or(f, self._conj())
        return f

    def _conj(self) -> Formula:
        f = self._unary()
        while self.tokens[self.k] == "&":
            self.k += 1
            f = And(f, self._unary())
        return f

    def _unary(self) -> Formula:
        tok = self.tokens[self.k]
        if tok == "~":
            self.k += 1
            return Neg(self._unary())
        if tok == "(":
            self.k += 1
            f = self._disj()
            closing = self._next()
            if closing != ")":
                raise self._error(f"expected ')', got {quote_token(closing)}")
            return f
        return self._atom()

    def _atom(self) -> Formula:
        left = self._ident()
        op = self._next()
        if op not in _RELOPS:
            raise self._error(f"expected a relation, got {quote_token(op)}")
        right = self._ident()
        x = self.table.intern(left)
        y = self.table.intern(right)
        if op == "<=":
            return Atom(Literal(True, OrderAtom("le", x, y)))
        if op == "<":
            return Atom(Literal(True, OrderAtom("lt", x, y)))
        if op == "=":
            return Atom(Literal(True, OrderAtom("eq", x, y)))
        if op == "!=":
            return Neg(Atom(Literal(True, OrderAtom("eq", x, y))))
        if op == ">":
            return Atom(Literal(True, OrderAtom("lt", y, x)))
        return Atom(Literal(True, OrderAtom("le", y, x)))

    def _ident(self) -> str:
        name = self._next()
        if not (name[0].isalpha() or name[0] == "_"):
            raise self._error(f"expected an identifier, got {quote_token(name)}")
        return name

    def _next(self) -> str:
        tok = self.tokens[self.k]
        if not tok:
            raise self._error("unexpected end of input", self.k)
        self.k += 1
        return tok

    def _error(self, message: str, k: int | None = None) -> ParseError:
        """``message`` at token ``k``, by default the token read last."""
        return ParseError(f"{self._where(self.k - 1 if k is None else k)}: {message}")

    def _where(self, k: int) -> str:
        """``line:col`` of token ``k``, or of the end of the input past the last token.

        Columns count characters from 1, and only "\\n" starts a line.  Comment
        characters take no column, so the end of a last line that holds a
        comment is at its first "#".
        """
        text = self.text
        starts = [m.start() for m in _TOKEN.finditer(text) if not m[0].startswith("#")]
        if k < len(starts):
            at = starts[k]
        else:
            at = text.find("#", text.rfind("\n") + 1)
            if at < 0:
                at = len(text)
        line = text.count("\n", 0, at) + 1
        column = at - text.rfind("\n", 0, at)
        return f"{line}:{column}"


def parse_input(text: str) -> tuple[Formula, SymbolTable]:
    """Parse the surface syntax; > and >= desugar to flipped < and <=."""
    table = SymbolTable()
    return _Parser(text, table).parse(), table
