import copy
import pickle
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from ordersat.core import (
    ATOM_KINDS,
    MAX_FORMULA_TEXT,
    And,
    Atom,
    EvaluationError,
    Literal,
    Neg,
    Or,
    OrderAtom,
    Relation,
    SymbolTable,
    Theory,
    eq,
    eval_formula,
    eval_literal,
    formula_vars,
    le,
    lt,
    neg,
    parse_input,
    pos,
    relation_props,
)
from ordersat.certs import parse_cert, serialize_cert
from ordersat.closure import decide
from ordersat.oracle import enumerate_posets
from ordersat.replay import FmHole

from helpers import rebuild_formula, recursive_str, structurally_equal


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


def test_deep_and_shared_formulas_hash_and_compare_without_a_deep_stack():
    # Each node stores its hash when it is built and ``==`` walks an explicit
    # stack, so neither recurses, even under a recursion limit of 1,000.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        def tower(leaf):
            f = leaf
            for _ in range(100_000):
                f = Neg(f)
            return f

        first, second = tower(Atom(pos(le(0, 1)))), tower(Atom(pos(le(0, 1))))
        assert first is not second
        assert first == second and hash(first) == hash(second)
        assert And(first, second) == And(second, first)
        assert first != tower(Atom(neg(le(0, 1))))
        assert first != tower(Atom(pos(le(1, 0))))
        # 300 doublings name a tree of 2**300 nodes; its hash is made of its
        # children's stored ones, and the shared part of two distinct trees is
        # one identical pair.  Only booleans are asserted, since a failing
        # assertion would print the tree.
        leaf = Atom(pos(le(0, 1)))
        doubled = leaf
        for _ in range(300):
            doubled = And(doubled, doubled)
        results = [
            hash(doubled) == hash(And(doubled.left, doubled.left)),
            And(doubled, leaf) == And(doubled, Atom(pos(le(0, 1)))),
            And(doubled, leaf) != And(doubled, Atom(neg(le(0, 1)))),
            doubled != Or(doubled.left, doubled.left),
        ]
        assert results == [True] * 4
    finally:
        sys.setrecursionlimit(limit)


def test_formulas_copy_and_pickle_with_their_hash():
    f = And(Atom(pos(le(0, 1))), Or(Neg(Atom(neg(eq(1, 2)))), FmHole(-1)))
    for copied in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert copied == f and hash(copied) == hash(f)
    # Certificate nodes have slots and no instance dict; they copy all the same.
    goal, _ = parse_input("(a < b | b < a) & a = b & ~(c <= d & d <= c & ~(c = d))")
    cert = parse_cert(serialize_cert(decide(goal, Theory.LINEAR).certificate))
    for copied in (copy.copy(cert), copy.deepcopy(cert), pickle.loads(pickle.dumps(cert))):
        assert copied == cert and hash(copied) == hash(cert)


_LITERALS = st.builds(
    Literal,
    st.booleans(),
    st.builds(OrderAtom, st.sampled_from(ATOM_KINDS), st.integers(0, 2), st.integers(0, 2)),
)
_LEAVES = st.builds(Atom, _LITERALS) | st.builds(FmHole, st.integers(-3, -1))
_FORMULAS = st.recursive(
    _LEAVES,
    lambda parts: st.builds(And, parts, parts) | st.builds(Or, parts, parts) | st.builds(Neg, parts),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(_FORMULAS, _FORMULAS, st.integers(0, 2**32))
def test_formula_equality_agrees_with_a_recursive_structural_oracle(f, g, seed):
    rebuilt = rebuild_formula(f)
    mutant = rebuild_formula(f, random.Random(seed))
    pairs = [(f, g), (f, rebuilt), (f, mutant), (rebuilt, mutant), (Or(f, g), Or(rebuilt, g)), (f, f)]
    for a, b in pairs:
        same = structurally_equal(a, b)
        assert (a == b) is same and (a != b) is not same
        assert (b == a) is same
        if same:
            assert hash(a) == hash(b)
    assert f.__eq__(str(f)) is NotImplemented and f != str(f)


def _joined(first, rest):
    """``first`` joined with each part of ``rest`` by its connective, on its side."""
    f = first
    for part, kind, on_the_left in rest:
        f = kind(part, f) if on_the_left else kind(f, part)
    return f


# A formula joined with dozens of leaves, so that most are longer than the bound.
_LONG_FORMULAS = st.builds(
    _joined,
    _FORMULAS,
    st.lists(st.tuples(_LEAVES, st.sampled_from([And, Or]), st.booleans()), min_size=20, max_size=80),
)


@settings(max_examples=200, deadline=None)
@given(_FORMULAS | _LONG_FORMULAS)
def test_formula_text_is_the_recursive_text_cut_at_the_bound(f):
    whole, text = recursive_str(f), str(f)
    if len(whole) <= MAX_FORMULA_TEXT:
        assert text == whole
    else:
        assert text == whole[: MAX_FORMULA_TEXT - 1] + "…"
    assert len(text) <= MAX_FORMULA_TEXT


def test_formula_text_cuts_a_long_atom_and_fits_the_bound_exactly():
    long_atom = Atom(pos(le(10**1000, 0)))
    assert str(long_atom) == recursive_str(long_atom)[: MAX_FORMULA_TEXT - 1] + "…"
    fits = Atom(pos(le(10 ** (MAX_FORMULA_TEXT - 8), 0)))  # "v1000…0 <= v0"
    assert len(recursive_str(fits)) == MAX_FORMULA_TEXT
    assert str(fits) == recursive_str(fits)
    over = Atom(pos(le(10 ** (MAX_FORMULA_TEXT - 7), 0)))
    assert str(over) == recursive_str(over)[: MAX_FORMULA_TEXT - 1] + "…"


def test_deep_and_wide_formulas_print_without_a_deep_stack():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        deep = wide = Atom(pos(le(0, 1)))
        for i in range(100_000):
            deep = Neg(deep)
            wide = And(wide, Atom(neg(le(i, i))))
        assert str(deep) == "~" * (MAX_FORMULA_TEXT - 1) + "…"
        assert str(wide) == "(" * (MAX_FORMULA_TEXT - 1) + "…"
        assert str(Or(Atom(pos(le(0, 1))), deep)) == "(v0 <= v1 | " + "~" * (MAX_FORMULA_TEXT - 13) + "…"
    finally:
        sys.setrecursionlimit(limit)
