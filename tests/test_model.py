import random

import pytest

from ordersat.core import (
    InvariantViolation,
    Relation,
    Theory,
    eq,
    le,
    lt,
    neg,
    pos,
    relation_props,
)
from ordersat.closure import contr_list
from ordersat.model import (
    build_linear_model,
    build_partial_model,
    linear_extension,
    sym_classes,
    verify_model,
)
from ordersat.selfcheck import iter_clauses

from helpers import closed, list_kahn_sequence, naive_closure


def test_sym_classes_examples():
    assert sym_classes({(0, 1), (1, 0)}, {0, 1}) == {0: 0, 1: 0}
    assert sym_classes(set(), {0, 1, 2}) == {0: 0, 1: 1, 2: 2}
    assert sym_classes({(0, 1)}, {0, 1}) == {0: 0, 1: 1}
    cycle = naive_closure({(7, 5), (5, 2), (2, 7)})
    assert sym_classes(cycle, {2, 5, 7, 9}) == {2: 2, 5: 2, 7: 2, 9: 9}


def test_build_partial_model_examples():
    clause = [pos(le(0, 1))]
    m = build_partial_model(clause, closed(clause))
    assert m.assignment == {0: 0, 1: 1}
    assert m.relation == Relation.make({0, 1}, {(0, 0), (1, 1), (0, 1)})

    cycle = [pos(le(0, 1)), pos(le(1, 0))]
    collapsed = build_partial_model(cycle, closed(cycle))
    assert collapsed.assignment == {0: 0, 1: 0}
    assert collapsed.relation == Relation.make({0}, {(0, 0)})

    distinct = build_partial_model([neg(eq(0, 1))], closed([]))
    assert distinct.assignment == {0: 0, 1: 1}
    assert distinct.relation == Relation.make({0, 1}, {(0, 0), (1, 1)})


def test_build_partial_model_rejects_strict_and_contradictory():
    with pytest.raises(InvariantViolation):
        build_partial_model([pos(lt(0, 1))], closed([]))
    with pytest.raises(InvariantViolation):
        build_partial_model([pos(le(0, 1)), neg(le(0, 1))], closed([pos(le(0, 1))]))


def test_linear_extension_examples():
    diagonal = Relation.make({0, 1}, {(0, 0), (1, 1)})
    assert linear_extension(diagonal) == Relation.make({0, 1}, {(0, 0), (0, 1), (1, 1)})

    chain = Relation.make({0, 1}, {(0, 0), (0, 1), (1, 1)})
    assert linear_extension(chain) == chain

    diamond_pairs = {(a, a) for a in range(4)} | {(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)}
    diamond = Relation.make(range(4), diamond_pairs)
    expected = Relation.make(
        range(4), {(a, b) for a in range(4) for b in range(4) if a <= b}
    )
    assert linear_extension(diamond) == expected


def test_linear_extension_properties_random():
    rng = random.Random(3)
    for _ in range(300):
        n = rng.randrange(1, 7)
        base = {(a, a) for a in range(n)}
        for _ in range(rng.randrange(0, 8)):
            a, b = rng.randrange(n), rng.randrange(n)
            if a != b and (b, a) not in naive_closure(base | {(a, b)}):
                base.add((a, b))
        poset = Relation.make(range(n), naive_closure(base))
        props = relation_props(poset)
        assert props.refl and props.trans and props.antisym
        extended = linear_extension(poset)
        eprops = relation_props(extended)
        assert eprops.refl and eprops.trans and eprops.antisym and eprops.total
        assert poset.pairs <= extended.pairs
        assert extended.carrier == poset.carrier


def test_linear_extension_emits_what_the_list_based_kahn_loop_did():
    rng = random.Random(17)
    for _ in range(400):
        n = rng.randrange(1, 10)
        ids = rng.sample(range(30), n)  # sparse ids, in no particular order
        base = {(a, a) for a in ids}
        for _ in range(rng.randrange(0, 14)):
            a, b = rng.choice(ids), rng.choice(ids)
            if a != b and (b, a) not in naive_closure(base | {(a, b)}):
                base.add((a, b))
        poset = Relation.make(ids, naive_closure(base))
        sequence = list_kahn_sequence(poset)
        chain = {(a, b) for i, a in enumerate(sequence) for b in sequence[i:]}
        assert linear_extension(poset) == Relation.make(ids, chain)


def test_build_linear_model_examples():
    m = build_linear_model([pos(le(0, 1)), neg(eq(0, 1))], closed([pos(le(0, 1))]))
    assert m.assignment[0] != m.assignment[1]
    assert (m.assignment[0], m.assignment[1]) in m.relation.pairs

    merged = build_linear_model([pos(eq(0, 1))], closed([pos(eq(0, 1))]))
    assert merged.assignment[0] == merged.assignment[1]

    path = [pos(le(0, 1)), pos(le(1, 2))]
    chain = build_linear_model(path, closed(path))
    assert (chain.assignment[0], chain.assignment[1]) in chain.relation.pairs
    assert (chain.assignment[1], chain.assignment[2]) in chain.relation.pairs


def test_build_linear_model_rejects_unsupported_literals():
    with pytest.raises(InvariantViolation):
        build_linear_model([neg(le(0, 1))], closed([]))
    with pytest.raises(InvariantViolation):
        build_linear_model([pos(lt(0, 1))], closed([]))


def test_extra_vars_become_singletons():
    clause = [pos(le(0, 1))]
    m = build_partial_model(clause, closed(clause), extra_vars={5})
    assert m.assignment[5] == 5
    assert (5, 5) in m.relation.pairs
    lm = build_linear_model(clause, closed(clause), extra_vars={5})
    assert relation_props(lm.relation).total


def test_verify_model_examples():
    clause = [pos(le(0, 1))]
    m = build_partial_model(clause, closed(clause))
    assert verify_model(m, clause)

    from ordersat.model import Model

    broken = Model(Relation.make({0, 1}, {(0, 1)}), {0: 0, 1: 1}, Theory.PARTIAL)
    assert not verify_model(broken, clause)

    lm = build_linear_model(clause, closed(clause))
    partial_view = Model(lm.relation, lm.assignment, Theory.PARTIAL)
    assert verify_model(partial_view, clause)


def test_quotient_matches_closure_on_clause_vars():
    # (x, y) in the closed preorder iff the class images are related.
    rng = random.Random(17)
    for _ in range(200):
        lits = []
        for _ in range(rng.randrange(1, 5)):
            a, b = rng.randrange(3), rng.randrange(3)
            lits.append(pos(le(a, b)) if rng.random() < 0.7 else pos(eq(a, b)))
        m = build_partial_model(lits, closed(lits))
        vars = sorted(m.assignment)
        pairs = set()
        for lit in lits:
            if lit.atom.kind == "le":
                pairs.add((lit.atom.x, lit.atom.y))
            else:
                pairs.add((lit.atom.x, lit.atom.y))
                pairs.add((lit.atom.y, lit.atom.x))
        preorder = naive_closure(pairs) | {(v, v) for v in vars}
        for x in vars:
            for y in vars:
                assert ((x, y) in preorder) == (
                    (m.assignment[x], m.assignment[y]) in m.relation.pairs
                )


def test_models_are_deterministic():
    clause = [pos(le(2, 0)), pos(eq(0, 1)), neg(eq(2, 1))]
    assert build_partial_model(clause, closed(clause)) == build_partial_model(clause, closed(clause))
    single = [pos(le(2, 0))]
    assert build_linear_model(single, closed(single)) == build_linear_model(single, closed(single))


def test_partial_completeness_small_clauses():
    # Bounded version of the exhaustive run: every non-contradictory
    # strict-free clause has a verifying quotient model.
    checked = 0
    for clause in iter_clauses(3, 2):
        if any(l.atom.kind == "lt" for l in clause):
            continue
        leq = closed(clause)
        if contr_list(leq, list(clause), []) is not None:
            continue
        m = build_partial_model(list(clause), leq)
        assert verify_model(m, list(clause))
        checked += 1
    assert checked > 100
