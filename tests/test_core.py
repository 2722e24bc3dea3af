import pytest

from ordersat.core import (
    And,
    Atom,
    EvaluationError,
    Literal,
    Neg,
    Or,
    Relation,
    SymbolTable,
    eq,
    eval_formula,
    eval_literal,
    formula_vars,
    le,
    lt,
    neg,
    pos,
    relation_props,
)
from ordersat.oracle import enumerate_posets


def test_intern_first_seen_order():
    table = SymbolTable()
    assert table.intern("x") == 0
    assert table.intern("y") == 1
    assert table.intern("x") == 0
    assert table.name_of(0) == "x"
    assert table.name_of(1) == "y"


def test_intern_inverse_on_images():
    table = SymbolTable()
    names = ["alpha", "beta", "gamma", "beta"]
    for name in names:
        var = table.intern(name)
        assert table.name_of(var) == name
    for var in range(len(table)):
        assert table.intern(table.name_of(var)) == var


def test_intern_rejects_empty():
    with pytest.raises(ValueError):
        SymbolTable().intern("")


def test_eval_literal_examples():
    r = Relation.make({0, 1}, {(0, 1)})
    identity = {0: 0, 1: 1}
    assert eval_literal(r, identity, pos(le(0, 1)))

    r_loop = Relation.make({0}, {(0, 0)})
    assert not eval_literal(r_loop, {0: 0}, pos(lt(0, 0)))

    r_empty = Relation.make({7}, set())
    assert not eval_literal(r_empty, {0: 7, 1: 7}, neg(eq(0, 1)))


def test_eval_literal_polarity_is_complement():
    for k in (1, 2, 3):
        for rel in enumerate_posets(k):
            for vx in rel.carrier:
                for vy in rel.carrier:
                    v = {0: vx, 1: vy}
                    for atom in (le(0, 1), lt(0, 1), eq(0, 1)):
                        assert eval_literal(rel, v, Literal(False, atom)) == (
                            not eval_literal(rel, v, Literal(True, atom))
                        )


def test_lt_is_le_and_not_eq():
    for k in (1, 2, 3):
        for rel in enumerate_posets(k):
            for vx in rel.carrier:
                for vy in rel.carrier:
                    v = {0: vx, 1: vy}
                    expected = eval_literal(rel, v, pos(le(0, 1))) and not eval_literal(
                        rel, v, pos(eq(0, 1))
                    )
                    assert eval_literal(rel, v, pos(lt(0, 1))) == expected


def test_eval_literal_unmapped_variable():
    r = Relation.make({0}, {(0, 0)})
    with pytest.raises(EvaluationError):
        eval_literal(r, {0: 0}, pos(le(0, 1)))
    with pytest.raises(EvaluationError):
        eval_literal(r, {0: 0, 1: 5}, pos(le(0, 1)))


def test_eval_formula():
    r = Relation.make({0, 1}, {(0, 0), (1, 1), (0, 1)})
    v = {0: 0, 1: 1}
    f = Neg(Atom(pos(le(0, 1))))
    assert eval_formula(r, v, f) == (not eval_literal(r, v, pos(le(0, 1))))
    conj = And(Atom(pos(le(0, 0))), Atom(pos(eq(0, 0))))
    assert eval_formula(r, v, conj)
    tauto = Or(Atom(pos(le(0, 1))), Atom(neg(le(0, 1))))
    assert eval_formula(r, v, tauto)
    assert eval_formula(Relation.make({0, 1}, set()), v, tauto)


def test_relation_props_examples():
    identity = Relation.make({0, 1}, {(0, 0), (1, 1)})
    props = relation_props(identity)
    assert props.refl and props.trans and props.antisym and not props.total

    chain = Relation.make(
        {0, 1, 2}, {(a, b) for a in range(3) for b in range(3) if a <= b}
    )
    props = relation_props(chain)
    assert props.refl and props.trans and props.antisym and props.total

    cycle = Relation.make({0, 1}, {(0, 1), (1, 0)})
    assert not relation_props(cycle).antisym


def test_relation_validates_carrier():
    with pytest.raises(ValueError):
        Relation.make({0}, {(0, 1)})


def test_formula_vars():
    f = And(Atom(pos(le(0, 3))), Neg(Atom(pos(eq(2, 2)))))
    assert formula_vars(f) == {0, 2, 3}


def test_a_deep_formula_hashes_as_the_generated_hash_without_a_deep_stack():
    # Two equal trees, 100,000 negations deep, hashed children first on an
    # explicit stack; each node's hash is still the dataclass hash of its fields.
    leaf = Atom(pos(le(0, 1)))
    trees = []
    for _ in range(2):
        f = leaf
        for _ in range(100_000):
            f = Neg(f)
        trees.append(f)
    first, second = trees
    assert hash(first) == hash(second) == hash((first.arg,))
    pair = And(first, Or(leaf, second))
    assert hash(pair) == hash((first, Or(leaf, second)))
    # A shared subformula is hashed once: 300 doublings name a tree of 2**300
    # nodes.
    doubled = leaf
    for _ in range(300):
        doubled = And(doubled, doubled)
    assert hash(doubled) == hash((doubled.left, doubled.left))
