"""Generic replay kernel: simple terms, proof terms, and the axiom table.

A second, structure-agnostic checker.  Certificates are compiled into a
small lambda-free proof-term language (constants, proof application, proof
abstraction, term application, conversions) and replayed against an axiom
environment ``SIGMA``.  Hypotheses are referenced by their encoding as a
term rather than by de Bruijn indices, so contexts are plain maps from
terms to propositions.

Propositions are literal or formula judgements closed under implication
and universal quantification over variable ids.  The schemas for the two
propositional axioms quantify over formulas; a hole node that only ever
appears inside ``SIGMA`` marks the positions a term application fills in.
A literal judgement and the judgement of its atomic formula are identified
(``FmP(Atom(l))`` normalizes to ``LitP(l)``).

Axiom binders are the negative ids -1, -2 and -3, and the kernel rejects a
negative variable in any term, so no instantiation value can mention a
bound id.  Substitution therefore replaces binders only: it never captures
a variable, never renames, and never touches ``v0``, the variable of
falsity ``v0 != v0``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Callable, Mapping

from .core import (
    And,
    Atom,
    Formula,
    Literal,
    Neg,
    Or,
    OrderAtom,
    OrderSatError,
    VarId,
    cache_hash,
    eq,
    le,
)
from .certs import (
    CONVERSION_NAME,
    FLS,
    NILADIC_CONVERSIONS,
    AntisymP,
    ArgConv,
    AssmP,
    AtomConv,
    BinopConv,
    CertProof,
    ConjE,
    ContrP,
    ConvProof,
    ConvRule,
    ConversionError,
    DisjE,
    EQE1P,
    EQE2P,
    Lift,
    PropProof,
    ReflP,
    ThenConv,
    TransP,
    apply_conv,
)
from .sexpr import TokenStream


class ReplayError(OrderSatError):
    """A proof term failed to replay."""


class ExportError(OrderSatError):
    """A structured certificate could not be compiled into a proof term."""


# ---------------------------------------------------------------------------
# Terms and proof terms


class GTrm:
    __slots__ = ()


@dataclass(frozen=True)
class ConstT(GTrm):
    name: str


@cache_hash
@dataclass(frozen=True)
class AppT(GTrm):
    fn: GTrm
    arg: GTrm


@dataclass(frozen=True)
class VarT(GTrm):
    var: VarId


class GPrf:
    __slots__ = ()


@dataclass(frozen=True)
class PThm(GPrf):
    name: str


@dataclass(frozen=True)
class Bound(GPrf):
    term: GTrm


@dataclass(frozen=True)
class AppP(GPrf):
    fn: GPrf
    arg: GPrf


@dataclass(frozen=True)
class AbsP(GPrf):
    hyp: GTrm
    body: GPrf


@dataclass(frozen=True)
class Appt(GPrf):
    proof: GPrf
    term: GTrm


@dataclass(frozen=True)
class ConvP(GPrf):
    source: GTrm
    conversion: GPrf
    proof: GPrf


# ---------------------------------------------------------------------------
# Propositions


class MetaProp:
    __slots__ = ()


@dataclass(frozen=True)
class LitP(MetaProp):
    lit: Literal


@dataclass(frozen=True)
class FmP(MetaProp):
    formula: Formula


@dataclass(frozen=True)
class Implies(MetaProp):
    hyp: MetaProp
    concl: MetaProp


@dataclass(frozen=True)
class All(MetaProp):
    binder: VarId
    body: MetaProp


@dataclass(frozen=True)
class FmHole(Formula):
    """Formula placeholder; occurs only inside axiom schemas."""

    hole: VarId


def _fmp(f: Formula) -> MetaProp:
    if isinstance(f, Atom):
        return LitP(f.lit)
    return FmP(f)


# ---------------------------------------------------------------------------
# Encoding between core syntax and terms

@lru_cache(maxsize=1 << 16)
def encode_literal(lit: Literal) -> GTrm:
    atom = AppT(AppT(ConstT(lit.atom.kind), VarT(lit.atom.x)), VarT(lit.atom.y))
    if lit.pos:
        return atom
    return AppT(ConstT("not"), atom)


@lru_cache(maxsize=1 << 16)
def encode_formula(f: Formula) -> GTrm:
    if isinstance(f, Atom):
        return AppT(ConstT("atom"), encode_literal(f.lit))
    if isinstance(f, And):
        return AppT(AppT(ConstT("and"), encode_formula(f.left)), encode_formula(f.right))
    if isinstance(f, Or):
        return AppT(AppT(ConstT("or"), encode_formula(f.left)), encode_formula(f.right))
    if isinstance(f, Neg):
        return AppT(ConstT("not"), encode_formula(f.arg))
    raise ValueError(f"not an encodable formula: {f!r}")


def _spine(t: GTrm) -> tuple[GTrm, list[GTrm]]:
    args: list[GTrm] = []
    while isinstance(t, AppT):
        args.append(t.arg)
        t = t.fn
    args.reverse()
    return t, args


@lru_cache(maxsize=1 << 16)
def decode_term(t: GTrm) -> VarId | Literal | Formula:
    """Interpret a term as a variable, a literal, or a formula."""
    if isinstance(t, VarT):
        if t.var < 0:
            raise ReplayError(f"negative variable ids are reserved for axiom binders: {t!r}")
        return t.var
    head, args = _spine(t)
    if not isinstance(head, ConstT):
        raise ReplayError(f"term head is not a constant: {t!r}")
    name = head.name
    if name == "fls":
        if args:
            raise ReplayError("fls takes no arguments")
        return FLS
    if name in ("le", "lt", "eq"):
        if len(args) != 2:
            raise ReplayError(f"{name} takes two variables")
        x, y = (decode_term(a) for a in args)
        if not isinstance(x, int) or not isinstance(y, int):
            raise ReplayError(f"{name} takes variables, got {t!r}")
        return Literal(True, OrderAtom(name, x, y))
    if name == "not":
        if len(args) != 1:
            raise ReplayError("not takes one argument")
        inner = decode_term(args[0])
        if isinstance(inner, Literal):
            if not inner.pos:
                raise ReplayError("cannot negate a negative literal term")
            return inner.negate()
        if isinstance(inner, Formula):
            return Neg(inner)
        raise ReplayError("not applied to a bare variable")
    if name == "atom":
        if len(args) != 1:
            raise ReplayError("atom takes one argument")
        inner = decode_term(args[0])
        if not isinstance(inner, Literal):
            raise ReplayError("atom takes a literal term")
        return Atom(inner)
    if name in ("and", "or"):
        if len(args) != 2:
            raise ReplayError(f"{name} takes two formulas")
        left, right = (decode_term(a) for a in args)
        if not isinstance(left, Formula) or not isinstance(right, Formula):
            raise ReplayError(f"{name} takes formula terms")
        return And(left, right) if name == "and" else Or(left, right)
    raise ReplayError(f"unknown term constant {name!r}")


def decode_prop(t: GTrm) -> MetaProp:
    value = decode_term(t)
    if isinstance(value, Literal):
        return LitP(value)
    if isinstance(value, Formula):
        return _fmp(value)
    raise ReplayError("a bare variable is not a proposition")


# ---------------------------------------------------------------------------
# The axiom environment

_X, _Y, _Z = -1, -2, -3


def _lit(pol: bool, atom: OrderAtom) -> MetaProp:
    return LitP(Literal(pol, atom))


SIGMA: dict[str, MetaProp] = {
    "refl": All(_X, _lit(True, le(_X, _X))),
    "trans": All(
        _X,
        All(
            _Y,
            All(
                _Z,
                Implies(
                    _lit(True, le(_X, _Y)),
                    Implies(_lit(True, le(_Y, _Z)), _lit(True, le(_X, _Z))),
                ),
            ),
        ),
    ),
    "antisym": All(
        _X,
        All(
            _Y,
            Implies(
                _lit(True, le(_X, _Y)),
                Implies(_lit(True, le(_Y, _X)), _lit(True, eq(_X, _Y))),
            ),
        ),
    ),
    "eqe1": All(_X, All(_Y, Implies(_lit(True, eq(_X, _Y)), _lit(True, le(_X, _Y))))),
    "eqe2": All(_X, All(_Y, Implies(_lit(True, eq(_X, _Y)), _lit(True, le(_Y, _X))))),
    "contr_le": All(
        _X,
        All(
            _Y,
            Implies(
                _lit(False, le(_X, _Y)),
                Implies(_lit(True, le(_X, _Y)), LitP(FLS)),
            ),
        ),
    ),
    "contr_eq": All(
        _X,
        All(
            _Y,
            Implies(
                _lit(False, eq(_X, _Y)),
                Implies(_lit(True, eq(_X, _Y)), LitP(FLS)),
            ),
        ),
    ),
    "conje": All(
        _X,
        All(
            _Y,
            Implies(
                FmP(And(FmHole(_X), FmHole(_Y))),
                Implies(
                    Implies(FmP(FmHole(_X)), Implies(FmP(FmHole(_Y)), LitP(FLS))),
                    LitP(FLS),
                ),
            ),
        ),
    ),
    "disje": All(
        _X,
        All(
            _Y,
            Implies(
                FmP(Or(FmHole(_X), FmHole(_Y))),
                Implies(
                    Implies(FmP(FmHole(_X)), LitP(FLS)),
                    Implies(Implies(FmP(FmHole(_Y)), LitP(FLS)), LitP(FLS)),
                ),
            ),
        ),
    ),
}

_CONVERSION_COMBINATORS = {"atom": AtomConv, "arg": ArgConv, "binop": BinopConv, "then": ThenConv}


# ---------------------------------------------------------------------------
# Substitution

SubstValue = VarId | Formula


def _rename_lit(lit: Literal, old: VarId, new: VarId) -> Literal:
    a = lit.atom
    x = new if a.x == old else a.x
    y = new if a.y == old else a.y
    if x == a.x and y == a.y:
        return lit
    return Literal(lit.pos, OrderAtom(a.kind, x, y))


def _subst_fm(f: Formula, binder: VarId, value: SubstValue) -> Formula:
    if isinstance(f, FmHole):
        if f.hole != binder:
            return f
        if isinstance(value, Formula):
            return value
        raise ReplayError("cannot fill a formula position with a variable")
    if isinstance(f, Atom):
        if isinstance(value, int):
            return Atom(_rename_lit(f.lit, binder, value))
        if binder in (f.lit.atom.x, f.lit.atom.y):
            raise ReplayError("cannot substitute a formula for a variable position")
        return f
    if isinstance(f, And):
        return And(_subst_fm(f.left, binder, value), _subst_fm(f.right, binder, value))
    if isinstance(f, Or):
        return Or(_subst_fm(f.left, binder, value), _subst_fm(f.right, binder, value))
    if isinstance(f, Neg):
        return Neg(_subst_fm(f.arg, binder, value))
    raise ReplayError(f"not a formula: {f!r}")


def _subst(prop: MetaProp, binder: VarId, value: SubstValue) -> MetaProp:
    """Instantiate ``binder`` with ``value``.

    Values come from decode_term, which rejects the negative binder ids, so
    no value can be captured by an inner quantifier.
    """
    if isinstance(prop, LitP):
        if isinstance(value, int):
            return LitP(_rename_lit(prop.lit, binder, value))
        if binder in (prop.lit.atom.x, prop.lit.atom.y):
            raise ReplayError("cannot substitute a formula for a variable position")
        return prop
    if isinstance(prop, FmP):
        return _fmp(_subst_fm(prop.formula, binder, value))
    if isinstance(prop, Implies):
        return Implies(_subst(prop.hyp, binder, value), _subst(prop.concl, binder, value))
    if isinstance(prop, All):
        if prop.binder == binder:
            return prop
        return All(prop.binder, _subst(prop.body, binder, value))
    raise ReplayError(f"not a proposition: {prop!r}")


# ---------------------------------------------------------------------------
# Replay

Context = Mapping[GTrm, MetaProp]


def replay(context: Context, proof: GPrf) -> MetaProp:
    """Return the proposition proved by ``proof`` in ``context``.

    Each failure mode is distinct: unknown constants, unbound hypotheses,
    implication mismatches in proof application, term application to a
    non-quantified proposition, and conversion failures.
    """
    if isinstance(proof, PThm):
        prop = SIGMA.get(proof.name)
        if prop is not None:
            return prop
        if proof.name in NILADIC_CONVERSIONS or proof.name in _CONVERSION_COMBINATORS:
            raise ReplayError(f"conversion constant {proof.name!r} used as a proposition")
        raise ReplayError(f"unknown proof constant {proof.name!r}")
    if isinstance(proof, Bound):
        prop = context.get(proof.term)
        if prop is None:
            raise ReplayError(f"unbound hypothesis {proof.term!r}")
        return prop
    if isinstance(proof, AbsP):
        hyp = decode_prop(proof.hyp)
        extended = dict(context)
        extended[proof.hyp] = hyp
        return Implies(hyp, replay(extended, proof.body))
    if isinstance(proof, AppP):
        fn = replay(context, proof.fn)
        arg = replay(context, proof.arg)
        if not isinstance(fn, Implies):
            raise ReplayError(f"proof application needs an implication, got {fn!r}")
        if fn.hyp != arg:
            raise ReplayError(
                f"proof application mismatch: expected {fn.hyp!r}, got {arg!r}"
            )
        return fn.concl
    if isinstance(proof, Appt):
        target = replay(context, proof.proof)
        if not isinstance(target, All):
            raise ReplayError(f"term application needs a quantified proposition, got {target!r}")
        value = decode_term(proof.term)
        if isinstance(value, Literal):
            raise ReplayError("cannot instantiate with a bare literal term")
        return _subst(target.body, target.binder, value)
    if isinstance(proof, ConvP):
        prop = context.get(proof.source)
        if prop is None:
            raise ReplayError(f"conversion source {proof.source!r} is not in the context")
        if isinstance(prop, LitP):
            formula: Formula = Atom(prop.lit)
        elif isinstance(prop, FmP):
            formula = prop.formula
        else:
            raise ReplayError("conversion source must be a literal or formula judgement")
        rewriter = rpc(proof.conversion)
        try:
            result = rewriter(formula)
        except ConversionError as exc:
            raise ReplayError(f"conversion failed: {exc}") from exc
        extended = dict(context)
        extended[encode_formula(result)] = _fmp(result)
        return replay(extended, proof.proof)
    raise ReplayError(f"unknown proof term {proof!r}")


def rpc(conversion: GPrf) -> Callable[[Formula], Formula]:
    """Interpret a proof term built from conversion constants as a rewriter."""
    conv = _conv_of_gprf(conversion)
    return lambda formula: apply_conv(conv, formula)


def _conv_of_gprf(proof: GPrf) -> ConvProof:
    if isinstance(proof, PThm):
        conv = NILADIC_CONVERSIONS.get(proof.name)
        if conv is not None:
            return conv
        if proof.name in _CONVERSION_COMBINATORS:
            raise ReplayError(f"conversion combinator {proof.name!r} needs arguments")
        raise ReplayError(f"not a conversion constant: {proof.name!r}")
    if isinstance(proof, AppP):
        head = proof
        args: list[GPrf] = []
        while isinstance(head, AppP):
            args.append(head.arg)
            head = head.fn
        args.reverse()
        if not isinstance(head, PThm) or head.name not in _CONVERSION_COMBINATORS:
            raise ReplayError(f"not a conversion combinator application: {proof!r}")
        combinator = _CONVERSION_COMBINATORS[head.name]
        arity = len(fields(combinator))
        if len(args) != arity:
            raise ReplayError(f"conversion {head.name!r} takes {arity} arguments, got {len(args)}")
        return combinator(*(_conv_of_gprf(a) for a in args))
    raise ReplayError(f"not a conversion proof term: {proof!r}")


# ---------------------------------------------------------------------------
# Export from structured certificates


def _hyp(lit: Literal) -> GPrf:
    return Bound(encode_formula(Atom(lit)))


def _export_atom(proof: CertProof) -> tuple[GPrf, Literal]:
    """The proof term of an atom proof and the literal it concludes.

    The conclusion is structural; replay re-validates it.
    """
    if isinstance(proof, AssmP):
        return _hyp(proof.lit), proof.lit
    if isinstance(proof, ReflP):
        return Appt(PThm("refl"), VarT(proof.var)), Literal(True, le(proof.var, proof.var))
    if isinstance(proof, TransP):
        left, c1 = _export_atom(proof.left)
        right, c2 = _export_atom(proof.right)
        x, y, z = c1.atom.x, c1.atom.y, c2.atom.y
        head = Appt(Appt(Appt(PThm("trans"), VarT(x)), VarT(y)), VarT(z))
        return AppP(AppP(head, left), right), Literal(True, le(x, z))
    if isinstance(proof, AntisymP):
        left, c1 = _export_atom(proof.left)
        right, _ = _export_atom(proof.right)
        x, y = c1.atom.x, c1.atom.y
        head = Appt(Appt(PThm("antisym"), VarT(x)), VarT(y))
        return AppP(AppP(head, left), right), Literal(True, eq(x, y))
    if isinstance(proof, EQE1P):
        a = proof.lit.atom
        head = Appt(Appt(PThm("eqe1"), VarT(a.x)), VarT(a.y))
        return AppP(head, _hyp(proof.lit)), Literal(True, le(a.x, a.y))
    if isinstance(proof, EQE2P):
        a = proof.lit.atom
        head = Appt(Appt(PThm("eqe2"), VarT(a.x)), VarT(a.y))
        return AppP(head, _hyp(proof.lit)), Literal(True, le(a.y, a.x))
    if isinstance(proof, ContrP):
        a = proof.lit.atom
        if a.kind == "le":
            axiom = "contr_le"
        elif a.kind == "eq":
            axiom = "contr_eq"
        else:
            raise ExportError("no contradiction axiom for strict atoms")
        head = Appt(Appt(PThm(axiom), VarT(a.x)), VarT(a.y))
        return AppP(AppP(head, _hyp(proof.lit)), _export_atom(proof.proof)[0]), FLS
    raise ExportError(f"unknown atom proof node {proof!r}")


def export(proof: PropProof, goal: Formula) -> GPrf:
    """Compile a structured refutation of ``goal`` into a proof term.

    The result replays to falsity in the context that assumes only the
    encoded goal (see initial_context).  The compilation is structural and
    performs no checking of its own; replaying is what validates it.
    """
    del goal  # the goal only matters when the result is replayed
    return _export_prop(proof)


def _export_prop(proof: PropProof) -> GPrf:
    if isinstance(proof, Lift):
        return _export_atom(proof.proof)[0]
    if isinstance(proof, ConjE):
        left, right = encode_formula(proof.left), encode_formula(proof.right)
        head = Appt(Appt(PThm("conje"), left), right)
        conjunction = Bound(encode_formula(And(proof.left, proof.right)))
        return AppP(AppP(head, conjunction), AbsP(left, AbsP(right, _export_prop(proof.proof))))
    if isinstance(proof, DisjE):
        left, right = encode_formula(proof.left), encode_formula(proof.right)
        head = Appt(Appt(PThm("disje"), left), right)
        disjunction = Bound(encode_formula(Or(proof.left, proof.right)))
        left_case = AbsP(left, _export_prop(proof.left_proof))
        right_case = AbsP(right, _export_prop(proof.right_proof))
        return AppP(AppP(AppP(head, disjunction), left_case), right_case)
    if isinstance(proof, ConvRule):
        return ConvP(
            encode_formula(proof.source),
            _conv_to_gprf(proof.conversion),
            _export_prop(proof.proof),
        )
    raise ExportError(f"unknown propositional proof node {proof!r}")


def _conv_to_gprf(conv: ConvProof) -> GPrf:
    name = CONVERSION_NAME.get(type(conv))
    if name is not None:
        return PThm(name)
    for name, combinator in _CONVERSION_COMBINATORS.items():
        if type(conv) is combinator:
            term: GPrf = PThm(name)
            for field in fields(combinator):
                term = AppP(term, _conv_to_gprf(getattr(conv, field.name)))
            return term
    raise ExportError(f"unknown conversion node {conv!r}")


def initial_context(goal: Formula) -> dict[GTrm, MetaProp]:
    """The replay context assuming only the goal formula."""
    return {encode_formula(goal): _fmp(goal)}


def replay_refutation(proof: GPrf, goal: Formula) -> bool:
    """True iff ``proof`` replays to falsity assuming only ``goal``."""
    try:
        return replay(initial_context(goal), proof) == LitP(FLS)
    except ReplayError:
        return False


# ---------------------------------------------------------------------------
# Serialization


def serialize_term(t: GTrm) -> str:
    if isinstance(t, ConstT):
        return f"(const {t.name})"
    if isinstance(t, AppT):
        return f"(app {serialize_term(t.fn)} {serialize_term(t.arg)})"
    if isinstance(t, VarT):
        return f"(var v{t.var})"
    raise ValueError(f"not a term: {t!r}")


def serialize_gprf(p: GPrf) -> str:
    if isinstance(p, PThm):
        return f"(pthm {p.name})"
    if isinstance(p, Bound):
        return f"(bound {serialize_term(p.term)})"
    if isinstance(p, AppP):
        return f"(appp {serialize_gprf(p.fn)} {serialize_gprf(p.arg)})"
    if isinstance(p, AbsP):
        return f"(absp {serialize_term(p.hyp)} {serialize_gprf(p.body)})"
    if isinstance(p, Appt):
        return f"(appt {serialize_gprf(p.proof)} {serialize_term(p.term)})"
    if isinstance(p, ConvP):
        return (
            f"(convp {serialize_term(p.source)} {serialize_gprf(p.conversion)} "
            f"{serialize_gprf(p.proof)})"
        )
    raise ValueError(f"not a proof term: {p!r}")


def _parse_term(ts: TokenStream) -> GTrm:
    ts.next("(")
    head = ts.next()
    if head.text == "const":
        name = ts.next()
        node: GTrm = ConstT(name.text)
    elif head.text == "app":
        node = AppT(_parse_term(ts), _parse_term(ts))
    elif head.text == "var":
        tok = ts.next()
        if not tok.text.startswith("v") or not tok.text[1:].isdigit():
            raise ts.error(tok, f"expected a variable like v0, got {tok.text!r}")
        node = VarT(int(tok.text[1:]))
    else:
        raise ts.error(head, f"expected a term head, got {head.text!r}")
    ts.next(")")
    return node


def _parse_gprf(ts: TokenStream) -> GPrf:
    ts.next("(")
    head = ts.next()
    name = head.text
    if name == "pthm":
        node: GPrf = PThm(ts.next().text)
    elif name == "bound":
        node = Bound(_parse_term(ts))
    elif name == "appp":
        node = AppP(_parse_gprf(ts), _parse_gprf(ts))
    elif name == "absp":
        node = AbsP(_parse_term(ts), _parse_gprf(ts))
    elif name == "appt":
        node = Appt(_parse_gprf(ts), _parse_term(ts))
    elif name == "convp":
        node = ConvP(_parse_term(ts), _parse_gprf(ts), _parse_gprf(ts))
    else:
        raise ts.error(head, f"expected a proof term head, got {name!r}")
    ts.next(")")
    return node


def parse_gprf(text: str) -> GPrf:
    ts = TokenStream(text)
    proof = _parse_gprf(ts)
    ts.expect_end()
    return proof
