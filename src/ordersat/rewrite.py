"""Certified negation normal form, strict-literal elimination and DNF.

Every rewrite emits the conversion certificate that replays it, and a
produced certificate applies to exactly the formula the solver goes on to
analyse.  Strict elimination states each rule once, as a certificate: the
rewrite of an atom is the checker's own ``apply_conv`` of its rule, so the
two agree by construction.  ``to_nnf`` pushes every negation into the
atoms and rewrites each atom by the theory's ``deless`` rule, in one walk
on an explicit stack; ``to_dnf`` takes the negation-free result and
only distributes it.  Each builds the formula and its certificate together,
with no simplification and no clause deduplication.  ``amap_fm`` and
``amap_fm_prf`` state an atom rewrite on its own, as a formula pass and a
certificate pass.

Every transformation returns its input object for a subtree it leaves
unchanged, so the clauses of a DNF are, by identity, subterms of the formula
they came from, and a certificate that states both writes each once.
"""

from __future__ import annotations

from typing import Callable

from .core import (
    LE,
    LT,
    And,
    Atom,
    Formula,
    Literal,
    Neg,
    Or,
    OrderSatError,
)
from .certs import NILADIC_CONVERSIONS as _RULE
from .certs import ArgConv, AtomConv, BinopConv, ConvProof, ThenConv, apply_conv

_ALLCONV = _RULE["allconv"]
_NNF_ATOM = (_ALLCONV, _RULE["negatom"])  # an atom's NNF step, unnegated and negated


class StructureError(OrderSatError):
    """A formula did not have the shape an operation requires."""


def deless_partial_prf(lit: Literal) -> ConvProof:
    """The rule that eliminates a strict atom over a partial order.

    ``x < y`` becomes ``x <= y and x != y``; its negation becomes
    ``not x <= y or x = y``; every other literal is kept as an atom.
    """
    if lit.atom.kind == LT:
        return _RULE["lessle"] if lit.pos else _RULE["nlessle"]
    return _ALLCONV


def deless_linear_prf(lit: Literal) -> ConvProof:
    """The rule that eliminates a strict atom or a negated <= over a linear order.

    Totality additionally turns ``not x <= y`` into ``x != y and y <= x``
    and ``not x < y`` into ``y <= x``.
    """
    a = lit.atom
    if a.kind == LT:
        return _RULE["lessle"] if lit.pos else _RULE["nless"]
    if a.kind == LE and not lit.pos:
        return _RULE["nle"]
    return _ALLCONV


def amap_fm(fn: Callable[[Literal], Formula], f: Formula) -> Formula:
    """Replace every atom leaf of ``f`` by ``fn(leaf)``, keeping connectives.

    An atom that ``fn`` maps to an equal atom is kept as it is.
    """
    if isinstance(f, Atom):
        g = fn(f.lit)
        return f if g == f else g
    if isinstance(f, (And, Or)):
        return _rebuilt(f, amap_fm(fn, f.left), amap_fm(fn, f.right))
    if isinstance(f, Neg):
        arg = amap_fm(fn, f.arg)
        return f if arg is f.arg else Neg(arg)
    raise StructureError(f"not a formula node: {f!r}")


def amap_fm_prf(ap: Callable[[Literal], ConvProof], f: Formula) -> ConvProof:
    """Certificate for amap_fm: atom rules under AtomConv, congruence above.

    A subtree whose atoms the rule all leaves unchanged gets ``allconv``.
    """
    if isinstance(f, Atom):
        rule = ap(f.lit)
        return rule if rule == _ALLCONV else AtomConv(rule)
    if isinstance(f, (And, Or)):
        return _binop(amap_fm_prf(ap, f.left), amap_fm_prf(ap, f.right))
    if isinstance(f, Neg):
        inner = amap_fm_prf(ap, f.arg)
        return inner if inner == _ALLCONV else ArgConv(inner)
    raise StructureError(f"not a formula node: {f!r}")


def then(first: ConvProof, second: ConvProof) -> ConvProof:
    """``first`` followed by ``second``, dropping either side that is ``allconv``."""
    if first == _ALLCONV:
        return second
    if second == _ALLCONV:
        return first
    return ThenConv(first, second)


def _binop(left: ConvProof, right: ConvProof) -> ConvProof:
    if left == _ALLCONV and right == _ALLCONV:
        return _ALLCONV
    return BinopConv(left, right)


def _rebuilt(f: And | Or, left: Formula, right: Formula) -> Formula:
    """``f`` itself if both children are its own, else a node of its kind over them."""
    if left is f.left and right is f.right:
        return f
    return type(f)(left, right)


def to_nnf(f: Formula, rule: Callable[[Literal], ConvProof]) -> tuple[Formula, ConvProof]:
    """Push every negation into the atoms and apply ``rule`` to each, with a conversion certificate.

    The negation normal form contains no Neg node: a negated atom becomes the
    atom of the negated literal, double negations cancel and De Morgan's laws
    swap And and Or.  Each atom of it is then rewritten by
    ``apply_conv(rule(lit), atom)``, and the certificate is ``then(p, q)`` for
    the certificate ``p`` of the negation normal form and ``q =
    amap_fm_prf(rule, nnf)``.  One walk on an explicit stack does both.
    Subtrees that neither step changes are kept as they are: on a
    negation-free formula the rule leaves alone, the result is the input and
    the certificate is ``allconv``.
    """
    # ``done`` holds (result, nnf proof, rule proof) per finished subtree.
    # ``todo`` holds (node, step): visit the node (negated if ``step`` is 1),
    # join the top two results under it (negated if ``step`` is 3), or put
    # ``negneg`` before the top result (``step`` 4).
    done: list[tuple[Formula, ConvProof, ConvProof]] = []
    todo: list[tuple[Formula, int]] = [(f, 0)]
    while todo:
        g, step = todo.pop()
        kind = type(g)
        if step >= 2:
            h, p, q = done.pop()
            if step == 4:
                done.append((h, _RULE["negneg"] if p is _ALLCONV else ThenConv(_RULE["negneg"], p), q))
                continue
            hl, pl, ql = done.pop()
            p = _ALLCONV if pl is _ALLCONV and p is _ALLCONV else BinopConv(pl, p)
            q = _ALLCONV if ql is _ALLCONV and q is _ALLCONV else BinopConv(ql, q)
            if step == 2:
                done.append((_rebuilt(g, hl, h), p, q))
            else:
                name, dual = ("negand", Or) if kind is And else ("negor", And)
                done.append((dual(hl, h), _RULE[name] if p is _ALLCONV else ThenConv(_RULE[name], p), q))
        elif kind is Atom:
            atom = Atom(g.lit.negate()) if step else g
            r = rule(atom.lit)
            if r == _ALLCONV:
                done.append((atom, _NNF_ATOM[step], _ALLCONV))
            else:
                done.append((apply_conv(r, atom), _NNF_ATOM[step], AtomConv(r)))
        elif kind is And or kind is Or:
            todo += (g, step + 2), (g.right, step), (g.left, step)
        elif kind is Neg:
            if step:
                todo.append((g, 4))
            todo.append((g.arg, 1 - step))
        else:
            raise StructureError(f"not a formula node: {g!r}")
    h, p, q = done.pop()
    return h, then(p, q)


def _dist_and(left: Formula, right: Formula) -> tuple[Formula, ConvProof]:
    # Both sides are in DNF; fully distribute the conjunction, left first.
    if isinstance(left, Or):
        r1, p1 = _dist_and(left.left, right)
        r2, p2 = _dist_and(left.right, right)
        return Or(r1, r2), then(_RULE["andorl"], _binop(p1, p2))
    if isinstance(right, Or):
        r1, p1 = _dist_and(left, right.left)
        r2, p2 = _dist_and(left, right.right)
        return Or(r1, r2), then(_RULE["andorr"], _binop(p1, p2))
    return And(left, right), _ALLCONV


def to_dnf(f: Formula) -> tuple[Formula, ConvProof]:
    """Convert a formula in negation normal form to DNF, with a conversion certificate.

    ``f`` must contain no Neg node, as ``to_nnf`` leaves it; a negation
    raises StructureError.  Conjunctions are distributed over disjunctions
    outermost-first with a left bias.  The result contains no Or node below
    an And node; ``apply_conv`` of the returned certificate on ``f``
    reproduces it.
    """
    if isinstance(f, Atom):
        return f, _ALLCONV
    if isinstance(f, (And, Or)):
        left, pl = to_dnf(f.left)
        right, pr = to_dnf(f.right)
        if isinstance(f, And) and (isinstance(left, Or) or isinstance(right, Or)):
            result, pd = _dist_and(left, right)
            return result, then(_binop(pl, pr), pd)
        return _rebuilt(f, left, right), _binop(pl, pr)
    raise StructureError(f"negation survived NNF: {f!r}")


def _leaves(f: Formula, kind: type) -> list[Formula]:
    """The maximal subtrees of ``f`` that are not ``kind`` nodes, left to right, by a loop."""
    out: list[Formula] = []
    stack = [f]
    while stack:
        g = stack.pop()
        while type(g) is kind:
            stack.append(g.right)
            g = g.left
        out.append(g)
    return out


def conj_list(f: Formula) -> list[Literal]:
    """Atoms of a pure conjunction, left to right."""
    leaves = _leaves(f, And)
    for g in leaves:
        if type(g) is not Atom:
            raise StructureError(f"not a conjunction of atoms: {g}")
    return [g.lit for g in leaves]


def disj_clauses(f: Formula) -> list[Formula]:
    """Maximal non-disjunction subtrees of a DNF, left to right."""
    return _leaves(f, Or)
