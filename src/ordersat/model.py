"""Finite model construction for satisfiable clauses.

A non-contradictory clause is satisfied by quotienting its variables: the
positive literals induce a preorder, variables related both ways collapse
into one equivalence class, and the class with the smallest variable id
names each class.  For linear orders the quotient is then extended to a
total order by topological sorting with a smallest-id tie-break, a finite
stand-in for the classical order-extension theorem.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import (
    EQ,
    LE,
    LT,
    EvaluationError,
    InvariantViolation,
    Literal,
    Relation,
    Theory,
    VarId,
    eval_literal,
    literal_vars,
    relation_props,
)


@dataclass(frozen=True)
class Model:
    relation: Relation
    assignment: dict[VarId, int]
    theory: Theory


def _transitive_closure(pairs: set[tuple[int, int]]) -> set[tuple[int, int]]:
    closed = set(pairs)
    while True:
        extra = {
            (a, d)
            for (a, b) in closed
            for (c, d) in closed
            if b == c and (a, d) not in closed
        }
        if not extra:
            return closed
        closed |= extra


def sym_classes(leq_keys: set[tuple[VarId, VarId]], vars: set[VarId]) -> dict[VarId, VarId]:
    """Map each variable to its class representative (the minimal id).

    Two variables share a class when the given closure relates them in both
    directions; the diagonal is implicit, so singletons map to themselves.
    """
    rep = {x: x for x in vars}
    for x, y in leq_keys:
        if x in rep and y in rep and y < rep[x] and (y, x) in leq_keys:
            rep[x] = y
    return rep


def build_partial_model(clause: Sequence[Literal], extra_vars: Iterable[VarId] = ()) -> Model:
    """Quotient model of a strict-free, non-contradictory clause.

    ``extra_vars`` become isolated singleton classes so that the assignment
    also covers variables the clause does not mention.  Raises
    InvariantViolation when the clause contains a strict atom or turns out
    to be contradictory (the built candidate fails verification).
    """
    lits = list(clause)
    for lit in lits:
        if lit.atom.kind == LT:
            raise InvariantViolation(f"strict literal {lit} reached the model builder")
    vars = literal_vars(lits) | set(extra_vars)

    base: set[tuple[VarId, VarId]] = set()
    for lit in lits:
        if not lit.pos:
            continue
        a = lit.atom
        if a.kind == LE:
            base.add((a.x, a.y))
        elif a.kind == EQ:
            base.add((a.x, a.y))
            base.add((a.y, a.x))
    leq = _transitive_closure(base)

    rep = sym_classes(leq, vars)
    carrier = set(rep.values())
    pairs = {(rep[x], rep[y]) for (x, y) in leq}
    pairs |= {(c, c) for c in carrier}

    m = Model(Relation.make(carrier, pairs), dict(sorted(rep.items())), Theory.PARTIAL)
    if not verify_model(m, lits):
        raise InvariantViolation("clause admits no partial-order model")
    return m


def linear_extension(r: Relation) -> Relation:
    """Deterministic total order on the same carrier containing ``r``.

    Kahn's algorithm over the strict part, always emitting the smallest
    available element, then the chain induced by the resulting sequence.
    """
    props = relation_props(r)
    if not (props.refl and props.trans and props.antisym):
        raise ValueError("linear_extension needs a partial order as input")
    remaining = sorted(r.carrier)
    preds: dict[int, set[int]] = {c: set() for c in remaining}
    for a, b in r.pairs:
        if a != b:
            preds[b].add(a)
    sequence: list[int] = []
    while remaining:
        ready = next(c for c in remaining if not preds[c])
        sequence.append(ready)
        remaining.remove(ready)
        for c in remaining:
            preds[c].discard(ready)
    position = {c: i for i, c in enumerate(sequence)}
    pairs = {
        (a, b)
        for a in sequence
        for b in sequence
        if position[a] <= position[b]
    }
    return Relation.make(r.carrier, pairs)


def build_linear_model(clause: Sequence[Literal], extra_vars: Iterable[VarId] = ()) -> Model:
    """Quotient model followed by a linear extension.

    The clause must be free of strict atoms and of negated <= literals;
    both are eliminated by the linear rewrite pass before models are built.
    """
    lits = list(clause)
    for lit in lits:
        if lit.atom.kind == LT or (lit.atom.kind == LE and not lit.pos):
            raise InvariantViolation(f"literal {lit} is not supported in linear model clauses")
    base = build_partial_model(lits, extra_vars)
    m = Model(linear_extension(base.relation), base.assignment, Theory.LINEAR)
    if not verify_model(m, lits):
        raise InvariantViolation("clause admits no linear-order model")
    return m


def verify_model(m: Model, clause: Sequence[Literal]) -> bool:
    """Check the relation's order axioms for the theory and every literal."""
    props = relation_props(m.relation)
    if not (props.refl and props.trans and props.antisym):
        return False
    if m.theory is Theory.LINEAR and not props.total:
        return False
    try:
        return all(eval_literal(m.relation, m.assignment, lit) for lit in clause)
    except EvaluationError:
        return False
