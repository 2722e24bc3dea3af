"""Finite model construction for satisfiable clauses.

A non-contradictory clause is satisfied by quotienting its variables by the
transitive closure the search computed for it: variables related both ways
collapse into one equivalence class, and the smallest variable id names each
class.  For linear orders the quotient is then extended to a total order by
topological sorting with a smallest-id tie-break, a finite stand-in for the
classical order-extension theorem.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import AbstractSet, Iterable, Sequence

from .core import (
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


Pair = tuple[VarId, VarId]


def sym_classes(leq_keys: AbstractSet[Pair], vars: set[VarId]) -> dict[VarId, VarId]:
    """Map each variable to its class representative (the minimal id).

    Two variables share a class when the given closure relates them in both
    directions; the diagonal is implicit, so singletons map to themselves.
    """
    rep = {x: x for x in vars}
    for x, y in leq_keys:
        if x in rep and y in rep and y < rep[x] and (y, x) in leq_keys:
            rep[x] = y
    return rep


def build_partial_model(
    clause: Sequence[Literal], leq: AbstractSet[Pair], extra_vars: Iterable[VarId] = ()
) -> Model:
    """Quotient model of a strict-free, non-contradictory clause.

    ``leq`` is the closed pair set of the clause's positive literals, the
    keys of the search's closure map.  ``extra_vars`` become isolated
    singleton classes so that the assignment also covers variables the
    clause does not mention.  Raises InvariantViolation when the clause
    contains a strict atom or turns out to be contradictory (the built
    candidate fails verification).
    """
    lits = list(clause)
    for lit in lits:
        if lit.atom.kind == LT:
            raise InvariantViolation(f"strict literal {lit} reached the model builder")
    vars = literal_vars(lits) | set(extra_vars)

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

    ``r`` must be a partial order, which ``build_partial_model`` verified.
    Kahn's algorithm over the strict part with a min-heap of the elements
    whose predecessors are all emitted, so the smallest available element
    comes first, then the chain induced by the resulting sequence.
    """
    indegree = dict.fromkeys(r.carrier, 0)
    succ: dict[int, list[int]] = {c: [] for c in r.carrier}
    for a, b in r.pairs:
        if a != b:
            succ[a].append(b)
            indegree[b] += 1
    ready = [c for c, d in indegree.items() if d == 0]
    heapq.heapify(ready)
    sequence: list[int] = []
    while ready:
        c = heapq.heappop(ready)
        sequence.append(c)
        for b in succ[c]:
            indegree[b] -= 1
            if indegree[b] == 0:
                heapq.heappush(ready, b)
    pairs = {(a, b) for i, a in enumerate(sequence) for b in sequence[i:]}
    return Relation.make(r.carrier, pairs)


def build_linear_model(
    clause: Sequence[Literal], leq: AbstractSet[Pair], extra_vars: Iterable[VarId] = ()
) -> Model:
    """Quotient model followed by a linear extension.

    The clause must be free of strict atoms and of negated <= literals;
    both are eliminated by the linear rewrite pass before models are built.
    """
    lits = list(clause)
    for lit in lits:
        if lit.atom.kind == LT or (lit.atom.kind == LE and not lit.pos):
            raise InvariantViolation(f"literal {lit} is not supported in linear model clauses")
    base = build_partial_model(lits, leq, extra_vars)
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
