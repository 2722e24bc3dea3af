"""Certified negation normal form, strict-literal elimination and DNF.

Every rewrite emits the conversion certificate that replays it, and a
produced certificate applies to exactly the formula the solver goes on to
analyse.  Strict elimination states each rule once, as a certificate in the
theory's table ``DELESS``: the rewrite of an atom is the checker's own
``apply_conv`` of its rule, so the two agree by construction.  ``to_nnf``
pushes every negation into the atoms and rewrites each atom by its rule, in
one walk on an explicit stack, and writes one conversion tree whose every
atom carries its negation step and its rule where it stands; ``to_dnf``
takes the negation-free result and only distributes it.  Each builds the
formula and its certificate together, with no simplification and no clause
deduplication.  ``amap_fm`` and ``amap_fm_prf`` state an atom rewrite on
its own, as a formula pass and a certificate pass.

Every transformation returns its input object for a subtree it leaves
unchanged, so the clauses of a DNF are, by identity, subterms of the formula
they came from, and a certificate that states both writes each once.
"""

from __future__ import annotations

from collections.abc import Mapping
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
    Theory,
)
from .certs import NILADIC_CONVERSIONS as _RULE
from .certs import ArgConv, AtomConv, BinopConv, ConvProof, ThenConv, apply_conv

_ALLCONV = _RULE["allconv"]
_NNF_ATOM = (_ALLCONV, _RULE["negatom"])  # an atom's NNF step, unnegated and negated


class StructureError(OrderSatError):
    """A formula did not have the shape an operation requires."""


# An atom rule table: a literal's (polarity, kind) to the rule that rewrites
# its atom; a literal with no entry is kept as an atom.
Rules = Mapping[tuple[bool, str], ConvProof]

# Each theory's rules, which eliminate strict literals: over a partial order
# ``x < y`` becomes ``x <= y and x != y`` and its negation ``not x <= y or
# x = y``; totality additionally turns ``not x <= y`` into ``x != y and
# y <= x`` and ``not x < y`` into ``y <= x``.
DELESS: dict[Theory, Rules] = {
    Theory.PARTIAL: {(True, LT): _RULE["lessle"], (False, LT): _RULE["nlessle"]},
    Theory.LINEAR: {(True, LT): _RULE["lessle"], (False, LT): _RULE["nless"], (False, LE): _RULE["nle"]},
}


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


def amap_fm_prf(rules: Rules, f: Formula) -> ConvProof:
    """Certificate for amap_fm: each atom's rule in ``rules`` under AtomConv, congruence above.

    A subtree none of whose atoms has a rule gets ``allconv``.
    """
    if isinstance(f, Atom):
        rule = rules.get((f.lit.pos, f.lit.atom.kind))
        return _ALLCONV if rule is None else AtomConv(rule)
    if isinstance(f, (And, Or)):
        return _binop(amap_fm_prf(rules, f.left), amap_fm_prf(rules, f.right))
    if isinstance(f, Neg):
        inner = amap_fm_prf(rules, f.arg)
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


def to_nnf(f: Formula, rules: Rules) -> tuple[Formula, ConvProof]:
    """Push every negation into the atoms and rewrite each by its rule in ``rules``, with one conversion.

    The negation normal form contains no Neg node: a negated atom becomes the
    atom of the negated literal, double negations cancel and De Morgan's laws
    swap And and Or.  Each atom of it whose literal has a rule in ``rules``,
    such as ``DELESS[theory]``, becomes ``apply_conv(rule, atom)``; an empty
    table only pushes negations.  The conversion is one tree that writes,
    where each atom stands, its negation step and its rule:
    ``(then negatom (atom r))``, ``(atom r)``, ``negatom`` or ``allconv``.
    One walk on an explicit stack builds both.  Subtrees that neither step
    changes are kept as they are: on a negation-free formula with no ruled
    atom, the result is the input and the conversion is ``allconv``.
    """
    # ``done`` holds (result, conversion) per finished subtree.  ``todo``
    # holds (node, step): visit the node (negated if ``step`` is 1), join the
    # top two results under it (negated if ``step`` is 3), or put ``negneg``
    # before the top result (``step`` 4).
    done: list[tuple[Formula, ConvProof]] = []
    todo: list[tuple[Formula, int]] = [(f, 0)]
    while todo:
        g, step = todo.pop()
        kind = type(g)
        if step >= 2:
            h, p = done.pop()
            if step == 4:
                done.append((h, _RULE["negneg"] if p is _ALLCONV else ThenConv(_RULE["negneg"], p)))
                continue
            hl, pl = done.pop()
            p = _ALLCONV if pl is _ALLCONV and p is _ALLCONV else BinopConv(pl, p)
            if step == 2:
                done.append((_rebuilt(g, hl, h), p))
            else:
                name, dual = ("negand", Or) if kind is And else ("negor", And)
                done.append((dual(hl, h), _RULE[name] if p is _ALLCONV else ThenConv(_RULE[name], p)))
        elif kind is Atom:
            atom = Atom(g.lit.negate()) if step else g
            r = rules.get((atom.lit.pos, atom.lit.atom.kind))
            if r is None:
                done.append((atom, _NNF_ATOM[step]))
            else:
                done.append((apply_conv(r, atom), then(_NNF_ATOM[step], AtomConv(r))))
        elif kind is And or kind is Or:
            todo += (g, step + 2), (g.right, step), (g.left, step)
        elif kind is Neg:
            if step:
                todo.append((g, 4))
            todo.append((g.arg, 1 - step))
        else:
            raise StructureError(f"not a formula node: {g!r}")
    return done.pop()


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
