"""Generic replay kernel: proof terms and the axiom table.

A second, structure-agnostic checker.  Certificates are compiled into a
small lambda-free proof-term language (axiom instances with their premise
proofs, hypotheses, conversions) and replayed against an axiom environment
``SIGMA``.  The terms of that language are the certificate's
own variable ids and formulas.  A hypothesis is named by the formula it
assumes rather than by a de Bruijn index, so a context is a set of
formulas.  A conversion step carries the certificate's own conversion and
applies it with the structured checker's ``apply_conv``, so each conversion
rule is stated once, as its row of ``certs._RULES`` (the README's
conversion table); conversion names are not proof constants.

A judgement is one of the certificate's own formulas: a hypothesis proves
the formula it assumes.  Falsity is the structured checker's
``FLS_FORMULA``, so both kernels conclude the same value.  Each axiom of
``SIGMA`` is a row ``(binders, premises, conclusion)``, the rule
``[P1; ...; Pn] ==> C`` of its row in the README's replay axiom table,
where a premise is a pair ``(hypotheses, goal)``.  The rows for the two
propositional axioms bind formulas; a hole node that only ever appears
inside ``SIGMA`` marks the positions an axiom instance fills in.

Axiom binders are the negative ids -1, -2 and -3, and the kernel rejects a
negative variable id as a term, so no instantiation value can be a bound
id.  A formula value is never walked: formula binders occur only as holes
of ``conje`` and ``disje``, which bind no variables.  Substitution
therefore replaces binders only: it never captures a variable, never
renames, and never touches ``v0``, the variable of falsity ``v0 != v0``.
It keeps every binder-free part of a row as it is, so the falsity of
each instance is the kernel's own ``FLS_FORMULA``, not a copy.
A ``PThm`` names an axiom, a term for each of its binders and, in order,
exactly one proof for each of its premises: a premise ``(hs, c)`` is
proved by a proof of ``c`` in the context plus the instances of ``hs``,
and what that proof proves is matched against ``c`` in place, reading
each term where its binder stands.  Only the conclusion is instantiated.
The context is one set, which a premise's hypotheses and a conversion's
result join, if absent, only while their proof replays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Mapping

from .core import (
    LE,
    And,
    Atom,
    Formula,
    Literal,
    Neg,
    Or,
    OrderAtom,
    OrderSatError,
    VarId,
    eq,
    le,
)
from .certs import (
    FLS_FORMULA,
    AntisymP,
    AssmP,
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
    TransP,
    apply_conv,
)


class ReplayError(OrderSatError):
    """A proof term failed to replay."""


class ExportError(OrderSatError):
    """A structured certificate could not be compiled into a proof term."""


# ---------------------------------------------------------------------------
# Proof terms


class GPrf:
    __slots__ = ()


@dataclass(slots=True, unsafe_hash=True)
class PThm(GPrf):
    name: str
    terms: tuple[VarId | Formula, ...]
    premises: tuple[GPrf, ...] = ()


@dataclass(slots=True, unsafe_hash=True)
class Bound(GPrf):
    hyp: Formula


@dataclass(slots=True, unsafe_hash=True)
class ConvP(GPrf):
    source: Formula
    conversion: ConvProof
    proof: GPrf


# ---------------------------------------------------------------------------
# The axiom environment


@dataclass
class FmHole(Formula):
    """Formula placeholder; occurs only inside the rows of ``SIGMA``."""

    __slots__ = ("hole", "_hash")
    hole: VarId

    def __post_init__(self) -> None:
        self._hash = hash(self.hole)

    __hash__ = Formula.__hash__

    def __str__(self) -> str:
        return f"v{self.hole}"


_X, _Y, _Z = -1, -2, -3
_C, _D = FmHole(_X), FmHole(_Y)


def _pos(atom: OrderAtom) -> Atom:
    return Atom(Literal(True, atom))


def _neg(atom: OrderAtom) -> Atom:
    return Atom(Literal(False, atom))


Premise = tuple[tuple[Formula, ...], Formula]

SIGMA: dict[str, tuple[tuple[VarId, ...], tuple[Premise, ...], Formula]] = {
    "refl": ((_X,), (), _pos(le(_X, _X))),
    "trans": ((_X, _Y, _Z), (((), _pos(le(_X, _Y))), ((), _pos(le(_Y, _Z)))), _pos(le(_X, _Z))),
    "antisym": ((_X, _Y), (((), _pos(le(_X, _Y))), ((), _pos(le(_Y, _X)))), _pos(eq(_X, _Y))),
    "eqe1": ((_X, _Y), (((), _pos(eq(_X, _Y))),), _pos(le(_X, _Y))),
    "eqe2": ((_X, _Y), (((), _pos(eq(_X, _Y))),), _pos(le(_Y, _X))),
    "contr_le": ((_X, _Y), (((), _neg(le(_X, _Y))), ((), _pos(le(_X, _Y)))), FLS_FORMULA),
    "contr_eq": ((_X, _Y), (((), _neg(eq(_X, _Y))), ((), _pos(eq(_X, _Y)))), FLS_FORMULA),
    "conje": ((_X, _Y), (((), And(_C, _D)), ((_C, _D), FLS_FORMULA)), FLS_FORMULA),
    "disje": ((_X, _Y), (((), Or(_C, _D)), ((_C,), FLS_FORMULA), ((_D,), FLS_FORMULA)), FLS_FORMULA),
}


# ---------------------------------------------------------------------------
# Substitution and matching

SubstValue = VarId | Formula
Env = Mapping[VarId, SubstValue]


def _ends(a: OrderAtom, env: Env) -> tuple[VarId, VarId]:
    """The variable ids that ``env`` puts at the two ends of ``a``."""
    x, y = env.get(a.x, a.x), env.get(a.y, a.y)
    if isinstance(x, int) and isinstance(y, int):
        return x, y
    raise ReplayError("cannot substitute a formula for a variable position")


def _subst_fm(f: Formula, env: Env) -> Formula:
    if isinstance(f, FmHole):
        value = env.get(f.hole, f)
        if isinstance(value, Formula):
            return value
        raise ReplayError("cannot fill a formula position with a variable")
    if isinstance(f, Atom):
        a = f.lit.atom
        if a.x not in env and a.y not in env:
            return f
        return Atom(Literal(f.lit.pos, OrderAtom(a.kind, *_ends(a, env))))
    if isinstance(f, (And, Or)):
        left, right = _subst_fm(f.left, env), _subst_fm(f.right, env)
        return f if left is f.left and right is f.right else type(f)(left, right)
    if isinstance(f, Neg):
        arg = _subst_fm(f.arg, env)
        return f if arg is f.arg else Neg(arg)
    raise ReplayError(f"not a formula: {f}")


def _match(part: Formula, env: Env, f: object) -> bool:
    """Whether ``_subst_fm(part, env) == f``, found by walking ``part`` and ``f`` together.

    No instance is built, and all of ``part`` is walked even past a mismatch,
    so a value of the wrong kind raises ``_subst_fm``'s error wherever it sits.
    """
    if isinstance(part, Atom):
        a, (x, y) = part.lit.atom, _ends(part.lit.atom, env)
        b = f.lit.atom if type(f) is Atom else None
        return b is not None and f.lit.pos == part.lit.pos and (b.kind, b.x, b.y) == (a.kind, x, y)
    if isinstance(part, (And, Or)):
        same = type(f) is type(part)
        left = _match(part.left, env, f.left if same else None)
        return same & left & _match(part.right, env, f.right if same else None)
    value = _subst_fm(part, env)  # a hole's value, or a negation's instance (no SIGMA row has one)
    return value is f or value == f


# ---------------------------------------------------------------------------
# Replay

Context = AbstractSet[Formula]


def replay(context: Context, proof: GPrf) -> Formula:
    """Return the formula proved by ``proof`` in ``context``.

    Each failure mode is distinct: unknown constants, an axiom given the
    wrong number of terms or of premise proofs, unbound hypotheses, a
    premise proof of the wrong conclusion, and conversion failures.
    ``context`` is copied once and left as it is.
    """
    return _replay(set(context), proof)


def _replay(scope: set[Formula], proof: GPrf) -> Formula:
    if isinstance(proof, PThm):
        row = SIGMA.get(proof.name)
        if row is None:
            raise ReplayError(f"unknown proof constant {proof.name!r}")
        binders, premises, conclusion = row
        if len(proof.terms) != len(binders):
            raise ReplayError(f"axiom {proof.name} takes {len(binders)} terms, got {len(proof.terms)}")
        for term in proof.terms:
            if isinstance(term, int) and term < 0:
                raise ReplayError(f"negative variable ids are reserved for axiom binders: v{term}")
            if isinstance(term, Literal):
                raise ReplayError("cannot instantiate with a bare literal term")
        if len(proof.premises) != len(premises):
            raise ReplayError(
                f"axiom {proof.name} takes {len(premises)} premise proofs, got {len(proof.premises)}"
            )
        env = dict(zip(binders, proof.terms))
        for (hyps, goal), premise in zip(premises, proof.premises):
            if hyps:
                added = {_subst_fm(hyp, env) for hyp in hyps} - scope
                scope |= added
                proved = _replay(scope, premise)
                scope -= added
            else:
                proved = _replay(scope, premise)
            if not _match(goal, env, proved):
                raise ReplayError(f"proof application mismatch: expected {_subst_fm(goal, env)}, got {proved}")
        return _subst_fm(conclusion, env)
    if isinstance(proof, Bound):
        if proof.hyp not in scope:
            raise ReplayError(f"unbound hypothesis {proof.hyp}")
        return proof.hyp
    if isinstance(proof, ConvP):
        if proof.source not in scope:
            raise ReplayError(f"conversion source {proof.source} is not in the context")
        try:
            result = apply_conv(proof.conversion, proof.source)
        except ConversionError as exc:
            raise ReplayError(f"conversion failed: {exc}") from exc
        added = {result} - scope
        scope |= added
        proved = _replay(scope, proof.proof)
        scope -= added
        return proved
    raise ReplayError(f"unknown proof term {proof!r}")


# ---------------------------------------------------------------------------
# Export from structured certificates

def _export_atom(proof: CertProof) -> tuple[GPrf, VarId, VarId]:
    """The proof term of an atom proof and the two variables its conclusion relates.

    The conclusion is structural; replay re-validates it.
    """
    if isinstance(proof, AssmP):
        lit = proof.lit
        if not lit.pos or lit.atom.kind != LE:
            raise ExportError(f"assumption rule expects a positive <=, got {lit}")
        return Bound(Atom(lit)), lit.atom.x, lit.atom.y
    if isinstance(proof, ReflP):
        return PThm("refl", (proof.var,)), proof.var, proof.var
    if isinstance(proof, (TransP, AntisymP)):
        left, x, y = _export_atom(proof.left)
        right, _, z = _export_atom(proof.right)
        if isinstance(proof, TransP):
            return PThm("trans", (x, y, z), (left, right)), x, z
        return PThm("antisym", (x, y), (left, right)), x, y
    if isinstance(proof, (EQE1P, EQE2P)):
        a = proof.lit.atom
        name, x, y = ("eqe1", a.x, a.y) if isinstance(proof, EQE1P) else ("eqe2", a.y, a.x)
        return PThm(name, (a.x, a.y), (Bound(Atom(proof.lit)),)), x, y
    if isinstance(proof, ContrP):
        a = proof.lit.atom
        name = f"contr_{a.kind}"
        if name not in SIGMA:
            raise ExportError("no contradiction axiom for strict atoms")
        premises = (Bound(Atom(proof.lit)), _export_atom(proof.proof)[0])
        # Falsity ``v0 != v0`` relates v0 to itself.
        return PThm(name, (a.x, a.y), premises), 0, 0
    raise ExportError(f"unknown atom proof node {proof!r}")


def export(proof: PropProof, goal: Formula) -> GPrf:
    """Compile a structured refutation of ``goal`` into a proof term.

    The result replays to falsity in the context ``frozenset({goal})``,
    which assumes only the goal.  Its terms are the certificate's own
    variable ids and formulas, passed through as they are.  The compilation
    is structural, and replaying is what validates it.  Its one check is
    that an ``assm`` cites a positive ``<=``, as the structured kernel's
    rule requires, since a hypothesis may cite any formula in scope.
    """
    del goal  # the goal only matters when the result is replayed
    return _export_prop(proof)


def _export_prop(proof: PropProof) -> GPrf:
    if isinstance(proof, Lift):
        return _export_atom(proof.proof)[0]
    if isinstance(proof, ConjE):
        premises = (Bound(And(proof.left, proof.right)), _export_prop(proof.proof))
        return PThm("conje", (proof.left, proof.right), premises)
    if isinstance(proof, DisjE):
        disjunction = Bound(Or(proof.left, proof.right))
        cases = (_export_prop(proof.left_proof), _export_prop(proof.right_proof))
        return PThm("disje", (proof.left, proof.right), (disjunction, *cases))
    if isinstance(proof, ConvRule):
        return ConvP(proof.source, proof.conversion, _export_prop(proof.proof))
    raise ExportError(f"unknown propositional proof node {proof!r}")


def replay_refutation(proof: GPrf, goal: Formula) -> bool:
    """True iff ``proof`` replays to falsity assuming only ``goal``."""
    try:
        return replay(frozenset({goal}), proof) == FLS_FORMULA
    except ReplayError:
        return False
