"""Generic replay kernel: a certificate read as instances of an axiom table.

A second, structure-agnostic checker.  It walks a structured certificate
and reads each node as an instance of one axiom of ``SIGMA``, the README's
replay axiom table, checking each instance where it stands, so no separate
proof object is built (the LCF discipline).  ``contr`` is ``contr_le`` or
``contr_eq`` by its literal's kind, and every other rule node is the row of
its name.  ``lift`` adds nothing, ``assm`` cites a positive ``<=``, and
``conv`` applies the certificate's conversion with the structured
checker's ``apply_conv``, so each conversion rule is stated once, as its
row of ``certs._RULES`` (the README's conversion table).

A row ``(binders, premises, conclusion)`` is the rule ``[P1; ...; Pn] ==>
C``, a premise a pair ``(hypotheses, goal)``; a hole node that occurs only
in ``SIGMA`` marks the formula positions of ``conje`` and ``disje``.  A
node's fields give its row's terms: the variable of ``refl``, the ends of
the literal of ``eqe1``, ``eqe2`` and ``contr``, and the formulas of
``conje`` and ``disje``.  ``trans`` and ``antisym`` bind theirs as their
premises are matched: the first premise conclusion that holds a binder
binds it, and the later ones are checked against it.  A premise is proved
by a sub-proof, replayed with the premise's hypotheses in the context, or
by a formula the node cites (its literal, or its conjunction or
disjunction), which must be in the context.  Only the conclusion is
instantiated; a premise's goal is matched in place.

Judgements are the certificate's own formulas, and falsity is the
structured checker's ``FLS_FORMULA``.  No variable can be captured:
substitution and matching walk only the rows of ``SIGMA``, whose variable
positions hold the binders -1, -2 and -3 or the ``v0`` of falsity, and a
value (a certificate's variable id or formula) placed at a binder's
position is never walked again.  So no certificate variable, whatever its
id, is taken for a binder, and each instance concludes the kernel's own
``FLS_FORMULA``.  The context is one set; a premise's hypotheses and a
conversion's result join it, if absent, only while their proof replays.
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
    ConversionError,
    ConvRule,
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
    """A certificate failed to replay."""


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


def _match(part: Formula, env: dict[VarId, SubstValue], f: object) -> bool:
    """Whether ``_subst_fm(part, env) == f``, found by walking ``part`` and ``f`` together.

    A binder at an end of an atom of ``part`` that ``env`` does not hold yet
    is first bound, in ``env``, to the variable at that end of ``f``.  No
    instance is built, and all of ``part`` is walked even past a mismatch,
    so a value of the wrong kind raises ``_subst_fm``'s error wherever it sits.
    """
    if isinstance(part, Atom):
        a, b = part.lit.atom, f.lit.atom if type(f) is Atom else None
        if b is not None:
            # Only binders are negative in a row; ``v0`` of falsity is not one.
            if a.x < 0:
                env.setdefault(a.x, b.x)
            if a.y < 0:
                env.setdefault(a.y, b.y)
        x, y = _ends(a, env)
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
Node = PropProof | CertProof


def replay(context: Context, proof: Node) -> Formula:
    """Return the formula that the certificate ``proof`` proves in ``context``.

    ``context`` is copied once and left as it is.
    """
    return _replay(set(context), proof)


def _cite(scope: set[Formula], f: Formula) -> Formula:
    if f not in scope:
        raise ReplayError(f"unbound hypothesis {f}")
    return f


def _instance(scope: set[Formula], proof: Node) -> tuple[str, dict[VarId, SubstValue], tuple]:
    """The row that ``proof`` instantiates, the terms its fields give, and its premises.

    A premise is a sub-proof or a formula the node cites, looked up in ``scope``.
    Nothing is replayed, so a certificate level costs one frame, of ``_replay``.
    """
    if isinstance(proof, ReflP):
        return "refl", {_X: proof.var}, ()
    if isinstance(proof, (TransP, AntisymP)):
        return "trans" if isinstance(proof, TransP) else "antisym", {}, (proof.left, proof.right)
    if isinstance(proof, (EQE1P, EQE2P, ContrP)):
        a = proof.lit.atom
        env: dict[VarId, SubstValue] = {_X: a.x, _Y: a.y}
        if isinstance(proof, ContrP):
            name = f"contr_{a.kind}"
            if name not in SIGMA:
                raise ReplayError("no contradiction axiom for strict atoms")
            return name, env, (_cite(scope, Atom(proof.lit)), proof.proof)
        return "eqe1" if isinstance(proof, EQE1P) else "eqe2", env, (_cite(scope, Atom(proof.lit)),)
    if isinstance(proof, ConjE):
        conjunction = _cite(scope, And(proof.left, proof.right))
        return "conje", {_X: proof.left, _Y: proof.right}, (conjunction, proof.proof)
    if isinstance(proof, DisjE):
        disjunction = _cite(scope, Or(proof.left, proof.right))
        return "disje", {_X: proof.left, _Y: proof.right}, (disjunction, proof.left_proof, proof.right_proof)
    raise ReplayError(f"unknown certificate node {proof!r}")


def _replay(scope: set[Formula], proof: Node) -> Formula:
    while isinstance(proof, Lift):
        proof = proof.proof
    if isinstance(proof, AssmP):
        lit = proof.lit
        if not lit.pos or lit.atom.kind != LE:
            raise ReplayError(f"assumption rule expects a positive <=, got {lit}")
        return _cite(scope, Atom(lit))
    if isinstance(proof, ConvRule):
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
    name, env, proofs = _instance(scope, proof)
    _, premises, conclusion = SIGMA[name]
    for (hyps, goal), premise in zip(premises, proofs):
        if isinstance(premise, Formula):
            proved = premise
        elif hyps:
            added = {_subst_fm(hyp, env) for hyp in hyps} - scope
            scope |= added
            proved = _replay(scope, premise)
            scope -= added
        else:
            proved = _replay(scope, premise)
        if not _match(goal, env, proved):
            raise ReplayError(f"proof application mismatch: expected {_subst_fm(goal, env)}, got {proved}")
    return _subst_fm(conclusion, env)


def export(proof: PropProof, goal: Formula) -> PropProof:
    """``proof`` itself, since replay reads the certificate.

    Kept for ``bench/run.py``, ``bench/spans.py``, ``tests/test_acceptance.py``
    and ``tools/differential.py`` (which also runs older trees that compile
    before they replay); ROADMAP item 1 removes it.
    """
    del goal
    return proof


def replay_refutation(proof: Node, goal: Formula) -> bool:
    """True iff the certificate ``proof`` replays to falsity assuming only ``goal``."""
    try:
        return replay(frozenset({goal}), proof) == FLS_FORMULA
    except ReplayError:
        return False
