import itertools
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from ordersat.core import (
    ATOM_KINDS,
    And,
    Atom,
    Formula,
    Literal,
    Neg,
    Or,
    OrderAtom,
    Relation,
    Theory,
    eq,
    eval_formula,
    eval_literal,
    formula_literals,
    iter_valuations,
    le,
    lt,
    neg,
    pos,
)
from ordersat.certs import ArgConv, AtomConv, BinopConv, Rule, ThenConv, apply_conv
from ordersat.closure import preprocess
from ordersat.oracle import enumerate_posets
from ordersat.replay import FmHole

from helpers import (
    deless_linear,
    is_dnf,
    deless_partial,
    keep_atoms,
    recursive_conj_list,
    recursive_to_nnf,
    stack_formula_eq,
    three_walk_preprocess,
)
from ordersat.rewrite import (
    StructureError,
    amap_fm,
    amap_fm_prf,
    conj_list,
    deless_linear_prf,
    deless_partial_prf,
    disj_clauses,
    to_dnf,
    to_nnf,
)

atoms = st.builds(
    OrderAtom, st.sampled_from(ATOM_KINDS), st.integers(0, 3), st.integers(0, 3)
)
literals = st.builds(Literal, st.booleans(), atoms)
formulas = st.recursive(
    st.builds(Atom, literals),
    lambda children: st.one_of(
        st.builds(And, children, children),
        st.builds(Or, children, children),
        st.builds(Neg, children),
    ),
    max_leaves=10,
)


def _linear_orders(k):
    # Total orders on {0..k-1}: one per permutation.
    for perm in itertools.permutations(range(k)):
        position = {c: i for i, c in enumerate(perm)}
        yield Relation.make(
            range(k), {(a, b) for a in range(k) for b in range(k) if position[a] <= position[b]}
        )


def _all_literals(num_vars=2):
    return [
        Literal(p, OrderAtom(kind, x, y))
        for p in (True, False)
        for kind in ATOM_KINDS
        for x in range(num_vars)
        for y in range(num_vars)
    ]


def test_deless_partial_examples():
    x, y = 0, 1
    assert deless_partial(pos(lt(x, y))) == And(Atom(pos(le(x, y))), Atom(neg(eq(x, y))))
    assert deless_partial(neg(lt(x, y))) == Or(Atom(neg(le(x, y))), Atom(pos(eq(x, y))))
    assert deless_partial(pos(le(x, y))) == Atom(pos(le(x, y)))


def test_deless_linear_examples():
    x, y = 0, 1
    assert deless_linear(neg(le(x, y))) == And(Atom(neg(eq(x, y))), Atom(pos(le(y, x))))
    assert deless_linear(neg(lt(x, y))) == Atom(pos(le(y, x)))
    assert deless_linear(pos(eq(x, y))) == Atom(pos(eq(x, y)))


def test_not_less_equals_flipped_le_on_linear_orders():
    # Truth-table check over every linear order with carrier size <= 2.
    for k in (1, 2):
        for rel in _linear_orders(k):
            for v in iter_valuations({0, 1}, rel.carrier):
                assert eval_literal(rel, v, neg(lt(0, 1))) == eval_literal(
                    rel, v, pos(le(1, 0))
                )


def test_deless_partial_semantics_preserved():
    # Holds for every poset on carriers of size <= 4, not just size 2.
    for lit in _all_literals():
        f = deless_partial(lit)
        for k in (1, 2, 3, 4):
            for rel in enumerate_posets(k):
                for v in iter_valuations({0, 1}, rel.carrier):
                    assert eval_formula(rel, v, f) == eval_literal(rel, v, lit)


def test_deless_linear_semantics_preserved():
    for lit in _all_literals():
        f = deless_linear(lit)
        for k in (1, 2, 3, 4):
            for rel in _linear_orders(k):
                for v in iter_valuations({0, 1}, rel.carrier):
                    assert eval_formula(rel, v, f) == eval_literal(rel, v, lit)


def test_amap_fm_examples():
    x, y = 0, 1
    assert amap_fm(deless_partial, Atom(pos(lt(x, y)))) == And(
        Atom(pos(le(x, y))), Atom(neg(eq(x, y)))
    )
    inner = Atom(pos(lt(x, y)))
    assert amap_fm(deless_partial, Neg(inner)) == Neg(amap_fm(deless_partial, inner))
    f = And(Atom(pos(le(x, y))), Neg(Atom(pos(eq(x, y)))))
    assert amap_fm(Atom, f) == f


def test_amap_fm_prf_examples():
    x, y = 0, 1
    assert amap_fm_prf(deless_partial_prf, Atom(pos(lt(x, y)))) == AtomConv(Rule("lessle"))
    a, b = Atom(pos(lt(x, y))), Atom(pos(eq(x, y)))
    assert amap_fm_prf(deless_partial_prf, And(a, b)) == BinopConv(
        amap_fm_prf(deless_partial_prf, a), amap_fm_prf(deless_partial_prf, b)
    )
    assert amap_fm_prf(deless_partial_prf, Atom(pos(le(x, y)))) == Rule("allconv")
    assert amap_fm_prf(deless_partial_prf, Or(b, Neg(b))) == Rule("allconv")
    assert amap_fm_prf(deless_partial_prf, Neg(a)) == ArgConv(AtomConv(Rule("lessle")))
    assert deless_linear_prf(neg(le(x, y))) == Rule("nle")


@given(formulas)
@settings(max_examples=150, deadline=None)
def test_deless_conversion_matches_rewrite(f):
    for deless, deless_prf in (
        (deless_partial, deless_partial_prf),
        (deless_linear, deless_linear_prf),
    ):
        assert apply_conv(amap_fm_prf(deless_prf, f), f) == amap_fm(deless, f)


def test_to_dnf_examples():
    a = Atom(pos(le(0, 1)))
    b = Atom(pos(eq(0, 1)))
    c = Atom(pos(le(1, 2)))
    dnf, _ = to_dnf(And(Or(a, b), c))
    assert dnf == Or(And(a, c), And(b, c))

    dnf, _ = to_dnf(to_nnf(Neg(Atom(pos(le(0, 1)))), keep_atoms)[0])
    assert dnf == Atom(neg(le(0, 1)))

    dnf, _ = to_dnf(to_nnf(Neg(And(a, b)), keep_atoms)[0])
    assert dnf == Or(Atom(a.lit.negate()), Atom(b.lit.negate()))

    # to_dnf only distributes: it takes its input in negation normal form.
    with pytest.raises(StructureError, match="^negation survived NNF"):
        to_dnf(And(a, Neg(b)))


@given(formulas)
@settings(max_examples=200, deadline=None)
def test_to_dnf_shape(f):
    dnf, _ = to_dnf(to_nnf(f, keep_atoms)[0])
    assert is_dnf(dnf)


@given(formulas)
@settings(max_examples=200, deadline=None)
def test_to_dnf_certificate_applies(f):
    nnf, _ = to_nnf(f, keep_atoms)
    dnf, proof = to_dnf(nnf)
    assert apply_conv(proof, nnf) == dnf


def _eval_propositional(f: Formula, assignment) -> bool:
    if isinstance(f, Atom):
        value = assignment[f.lit.atom]
        return value if f.lit.pos else not value
    if isinstance(f, And):
        return _eval_propositional(f.left, assignment) and _eval_propositional(f.right, assignment)
    if isinstance(f, Or):
        return _eval_propositional(f.left, assignment) or _eval_propositional(f.right, assignment)
    return not _eval_propositional(f.arg, assignment)


@given(formulas)
@settings(max_examples=150, deadline=None)
def test_to_dnf_propositionally_equivalent(f):
    dnf, _ = to_dnf(to_nnf(f, keep_atoms)[0])
    distinct = sorted({l.atom for l in formula_literals(f)}, key=str)
    for values in itertools.product((False, True), repeat=len(distinct)):
        assignment = dict(zip(distinct, values))
        assert _eval_propositional(f, assignment) == _eval_propositional(dnf, assignment)


def test_conj_list_examples():
    a, b, c = pos(le(0, 1)), pos(eq(1, 2)), neg(eq(0, 2))
    assert conj_list(And(Atom(a), And(Atom(b), Atom(c)))) == [a, b, c]
    assert conj_list(Atom(a)) == [a]
    with pytest.raises(StructureError):
        conj_list(Or(Atom(a), Atom(b)))
    with pytest.raises(StructureError):
        conj_list(Neg(Atom(a)))


clauses = st.recursive(st.builds(Atom, literals), lambda children: st.builds(And, children, children), max_leaves=30)


def _outcome(fn, f):
    try:
        return fn(f)
    except StructureError as exc:
        return str(exc)


@given(clauses | formulas)
@settings(max_examples=300)
def test_conj_list_agrees_with_the_recursive_version(f):
    assert _outcome(conj_list, f) == _outcome(recursive_conj_list, f)


def test_conj_list_and_disj_clauses_walk_a_long_spine_without_a_deep_stack():
    n = 100_000
    lits = [pos(le(i, i + 1)) for i in range(n)]
    clause = Atom(lits[0])
    for lit in lits[1:]:
        clause = And(clause, Atom(lit))
    disjunction = Or(Atom(lits[0]), Atom(lits[1]))
    for i in range(n):
        disjunction = Or(disjunction, Atom(lits[i]))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        assert conj_list(clause) == lits
        assert conj_list(And(Atom(lits[0]), clause)) == lits[:1] + lits
        assert disj_clauses(disjunction) == [Atom(lits[0]), Atom(lits[1])] + [Atom(lit) for lit in lits]
        with pytest.raises(StructureError, match=re.escape("atoms: (v0 <= v1 | v1 <= v2)")):
            conj_list(And(clause, Or(Atom(lits[0]), Atom(lits[1]))))
    finally:
        sys.setrecursionlimit(limit)


def test_disj_clauses_examples():
    c1 = Atom(pos(le(0, 1)))
    c2 = And(Atom(pos(eq(0, 1))), Atom(neg(eq(1, 2))))
    c3 = Atom(neg(le(2, 0)))
    assert disj_clauses(Or(c1, Or(c2, c3))) == [c1, c2, c3]
    assert disj_clauses(c2) == [c2]
    assert disj_clauses(c1) == [c1]


def test_preprocess_eliminates_negated_strict_atoms_once():
    x, y = 0, 1
    f = Neg(Atom(pos(lt(x, y))))
    assert preprocess(f, Theory.LINEAR).result == Atom(pos(le(y, x)))
    assert preprocess(f, Theory.PARTIAL).result == Or(
        Atom(neg(le(x, y))), Atom(pos(eq(x, y)))
    )


@given(formulas)
def test_preprocess_has_one_conversion_that_applies(f):
    for theory in Theory:
        prep = preprocess(f, theory)
        assert apply_conv(prep.conversion, f) == prep.result
        assert is_dnf(prep.result)
        assert (prep.conversion == Rule("allconv")) == (prep.result == f)


@given(formulas)
def test_preprocess_partial_matches_deless_then_dnf(f):
    assert preprocess(f, Theory.PARTIAL).result == to_dnf(to_nnf(amap_fm(deless_partial, f), keep_atoms)[0])[0]


# ---------------------------------------------------------------------------
# One walk: negation normal form and strict elimination together

# Over three variables, with ``~``, ``<`` and ``!=`` (a negated ``=``), and
# goals that state a subformula object twice, so that sharing is tested.
small_formulas = st.recursive(
    st.builds(Atom, st.builds(Literal, st.booleans(), st.builds(
        OrderAtom, st.sampled_from(ATOM_KINDS), st.integers(0, 2), st.integers(0, 2)))),
    lambda children: st.one_of(
        st.builds(And, children, children),
        st.builds(Or, children, children),
        st.builds(Neg, children),
    ),
    max_leaves=8,
)
goals = st.one_of(
    small_formulas,
    small_formulas.map(lambda c: And(c, Neg(c))),
    st.tuples(small_formulas, small_formulas).map(lambda cd: And(Or(cd[0], cd[1]), Neg(And(cd[1], cd[0])))),
)


def _sharing(g: Formula, f: Formula) -> list:
    """``g``'s nodes in preorder: its type, the index of its first visit, and whether it is a node of ``f``."""
    ids_of_f = set()
    stack = [f]
    while stack:
        node = stack.pop()
        ids_of_f.add(id(node))
        if type(node) is Neg:
            stack.append(node.arg)
        elif type(node) is not Atom:
            stack += node.right, node.left
    first: dict[int, int] = {}
    shape = []
    stack = [g]
    while stack:
        node = stack.pop()
        shape.append((type(node).__name__, first.setdefault(id(node), len(first)), id(node) in ids_of_f))
        if type(node) is And or type(node) is Or:
            stack += node.right, node.left
    return shape


@given(goals)
@settings(max_examples=300, deadline=None)
def test_preprocess_gives_the_three_walk_result_conversion_and_certificate(f):
    for theory in Theory:
        prep, oracle = preprocess(f, theory), three_walk_preprocess(f, theory)
        assert prep.conversion == oracle.conversion
        assert prep.result == oracle.result
        assert _sharing(prep.result, f) == _sharing(oracle.result, f)


@given(formulas)
@settings(max_examples=200, deadline=None)
def test_to_nnf_keeping_atoms_is_the_recursive_walk(f):
    nnf, proof = to_nnf(f, keep_atoms)
    expected, expected_proof = recursive_to_nnf(f)
    assert (nnf, proof) == (expected, expected_proof)
    assert _sharing(nnf, f) == _sharing(expected, f)
    assert (nnf is f) == (proof == Rule("allconv"))


def test_to_nnf_names_a_node_of_another_kind():
    with pytest.raises(StructureError, match=re.escape("not a formula node: FmHole(hole=-1)")):
        to_nnf(And(Atom(pos(le(0, 1))), Neg(FmHole(-1))), keep_atoms)


def _preorder(conv) -> list[str]:
    """A conversion's node classes and rule names in preorder, which determine it, by a loop."""
    out = []
    stack = [conv]
    while stack:
        node = stack.pop()
        out.append(node.name if isinstance(node, Rule) else type(node).__name__)
        if isinstance(node, BinopConv):
            stack += node.right, node.left
        elif isinstance(node, ThenConv):
            stack += node.second, node.first
        elif not isinstance(node, Rule):
            stack.append(node.rule)
    return out


def test_to_nnf_walks_a_hundred_thousand_deep_nesting_without_a_deep_stack():
    n = 100_000
    f = Atom(pos(lt(0, 1)))
    for i in range(n):
        f = (Neg(f), And(f, Atom(neg(le(i, 0)))), Or(Atom(pos(eq(0, i))), f))[i % 3]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        nnf, proof = to_nnf(f, keep_atoms)
        assert to_nnf(nnf, keep_atoms) == (nnf, Rule("allconv"))
        result, conversion = to_nnf(f, deless_partial_prf)
        assert to_nnf(result, deless_partial_prf)[0] is result
        assert type(conversion) is ThenConv
        assert _preorder(conversion.first) == _preorder(proof)
        kinds = {Atom: 0, And: 0, Or: 0, Neg: 0}
        stack = [result]
        while stack:
            node = stack.pop()
            kinds[type(node)] += 1
            if type(node) is not Atom:
                stack += node.right, node.left
        # Every third level is a Neg, gone; the strict atom at the bottom became two.
        assert kinds == {Atom: 2 * n // 3 + 2, And: kinds[And], Or: kinds[Or], Neg: 0}
        assert kinds[And] + kinds[Or] == kinds[Atom] - 1
    finally:
        sys.setrecursionlimit(limit)


pairs_of_formulas = st.one_of(
    st.tuples(formulas, formulas),
    formulas.map(lambda f: (f, f)),
    st.tuples(formulas, formulas).map(lambda ab: (And(*ab), And(*ab))),
    st.tuples(formulas, formulas).map(lambda ab: (Or(*ab), Or(ab[0], to_nnf(ab[1], keep_atoms)[0]))),
    st.tuples(formulas, formulas).map(lambda ab: (And(*ab), Or(*ab))),
    literals.map(lambda lit: (Atom(lit), Atom(lit))),
    literals.map(lambda lit: (Atom(lit), Atom(Literal(lit.pos, OrderAtom(lit.atom.kind, lit.atom.x, lit.atom.y))))),
    formulas.map(lambda f: (Neg(f), Neg(f))),
    formulas.map(lambda f: (f, to_nnf(f, keep_atoms)[0])),
)


@given(pairs_of_formulas)
@settings(max_examples=400)
def test_formula_equality_agrees_with_the_stack_walk(pair):
    a, b = pair
    assert (a == b) == stack_formula_eq(a, b)
    assert (b == a) == stack_formula_eq(b, a)
