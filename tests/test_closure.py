import dataclasses
import functools
import itertools
import math
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from ordersat import closure, selfcheck
from ordersat.core import (
    And,
    Atom,
    Neg,
    Or,
    Relation,
    Theory,
    eq,
    formula_vars,
    le,
    literal_vars,
    lt,
    neg,
    parse_input,
    pos,
)
from ordersat.certs import (
    FLS_FORMULA,
    AntisymP,
    AssmP,
    ConjE,
    ContrP,
    ConvRule,
    DisjE,
    EQE1P,
    EQE2P,
    Lift,
    PropProof,
    ReflP,
    TransP,
    check_atom_proof,
    check_prop_proof,
    parse_cert,
    serialize_cert,
)
from ordersat.closure import (
    OpenClause,
    Sat,
    Unsat,
    contr1_list,
    contr_fm_prf,
    contr_list,
    decide,
    is_in_eq,
    is_in_leq,
    leq1_mapping,
    leq1_member_list,
    pair_proof,
    preprocess,
    trancl_floyd_warshall,
    trancl_mapping,
)
from ordersat.model import Model, build_linear_model, build_partial_model
from ordersat.oracle import brute_sat
from ordersat.replay import replay_refutation
from ordersat.rewrite import StructureError, conj_list, deless_linear_prf, deless_partial_prf, disj_clauses, to_nnf

from helpers import (
    clause_literals,
    closed,
    dnf_decide,
    eager_trancl,
    from_conj_prf,
    naive_closure,
    proof_carrying_floyd_warshall,
    random_formula,
    random_literal,
    rounds_closure,
    trans_depth,
    trans_steps,
    unpruned_conj_prf,
)


def test_leq1_member_list():
    assert leq1_member_list(pos(le(0, 1))) == [((0, 1), AssmP(pos(le(0, 1))))]
    assert leq1_member_list(pos(eq(0, 1))) == [
        ((0, 1), EQE1P(pos(eq(0, 1)))),
        ((1, 0), EQE2P(pos(eq(0, 1)))),
    ]
    assert leq1_member_list(neg(le(0, 1))) == []
    assert leq1_member_list(pos(lt(0, 1))) == []


def test_leq1_mapping_keys():
    assert set(leq1_mapping([pos(le(0, 1)), pos(le(1, 0))])) == {(0, 1), (1, 0)}
    assert set(leq1_mapping([pos(eq(0, 1))])) == {(0, 1), (1, 0)}
    assert leq1_mapping([neg(le(0, 1))]) == {}


def test_leq1_mapping_first_writer_wins():
    first = AssmP(pos(le(0, 1)))
    m = leq1_mapping([pos(le(0, 1)), pos(eq(0, 1))])
    assert m[(0, 1)] == first
    assert m[(1, 0)] == EQE2P(pos(eq(0, 1)))


def test_trancl_mapping_examples():
    p, q = AssmP(pos(le(0, 1))), AssmP(pos(le(1, 2)))
    closed = trancl_mapping({(0, 1): p, (1, 2): q})
    assert set(closed) == {(0, 1), (1, 2), (0, 2)}
    assert pair_proof(closed, 0, 2) == TransP(p, q)

    single = {(0, 1): p}
    assert trancl_mapping(single) == single

    chain = leq1_mapping([pos(le(0, 1)), pos(le(1, 2)), pos(le(2, 3))])
    # Independent oracle: fixpoint closure of the key set.
    assert set(trancl_mapping(chain)) == naive_closure(set(chain))
    assert set(trancl_mapping(chain)) == set(chain) | {(0, 2), (1, 3), (0, 3)}


def test_trancl_never_overwrites():
    p, q, loop = AssmP(pos(le(0, 1))), AssmP(pos(le(1, 0))), AssmP(pos(le(0, 0)))
    m = {(0, 1): p, (1, 0): q, (0, 0): loop}
    for closure in (trancl_mapping, trancl_floyd_warshall):
        assert closure(m)[(0, 0)] == loop


_pairs = st.tuples(st.integers(0, 5), st.integers(0, 5))
_maps = st.lists(_pairs, max_size=12).map(
    lambda keys: {k: AssmP(pos(le(*k))) for k in keys}
)


@given(_maps)
@settings(max_examples=300, deadline=None)
def test_trancl_key_set_matches_fixpoint_oracle(m):
    expected = naive_closure(set(m))
    assert set(trancl_mapping(m)) == expected
    assert set(trancl_floyd_warshall(m)) == expected


@given(_maps)
@settings(max_examples=200, deadline=None)
def test_trancl_proofs_check(m):
    assumptions = frozenset(pos(le(*k)) for k in m)
    for closure in (trancl_mapping, trancl_floyd_warshall):
        closed = closure(m)
        for x, y in closed:
            assert check_atom_proof(assumptions, pair_proof(closed, x, y)) == pos(le(x, y))


def _assert_balanced_chains(closed, expected) -> None:
    """Each pair's proof has the oracle's chain of steps, nested at most ⌈log₂ n⌉ deep."""
    for key in closed:
        proof = pair_proof(closed, *key)
        steps = trans_steps(proof)
        assert steps == trans_steps(expected[key])
        assert trans_depth(proof) <= math.ceil(math.log2(len(steps)))


# Positive <= and = literals over up to 8 variables: x == y gives self-loops,
# and each = literal puts both of its directions into the map.
_positive_literals = st.lists(
    st.builds(
        lambda kind, x, y: pos(kind(x, y)),
        st.sampled_from([le, eq]),
        st.integers(0, 7),
        st.integers(0, 7),
    ),
    max_size=20,
)


@given(_positive_literals)
@settings(max_examples=400, deadline=None)
def test_trancl_matches_round_based_closure(literals):
    m = leq1_mapping(literals)
    closed, expected = trancl_mapping(m), rounds_closure(m)
    assert closed.keys() == expected.keys()
    _assert_balanced_chains(closed, expected)


@given(_positive_literals)
@settings(max_examples=400, deadline=None)
def test_row_at_a_time_closure_equals_the_eager_one(literals):
    m = leq1_mapping(literals)
    lazy, expected = trancl_mapping(m), eager_trancl(m)
    assert list(lazy.items()) == list(expected.items())
    assert len(lazy) == len(expected)
    # Sized before anything is read, and looked up before it is walked.
    assert len(trancl_mapping(m)) == len(expected)
    fresh = trancl_mapping(m)
    assert {key: fresh[key] for key in reversed(expected)} == expected
    pairs = itertools.product(range(9), repeat=2)
    assert {key for key in pairs if key in trancl_mapping(m)} == expected.keys()


@given(_positive_literals)
@settings(max_examples=300, deadline=None)
def test_floyd_warshall_midpoints_build_the_proof_carrying_certificates(literals):
    m = leq1_mapping(literals)
    closed, expected = trancl_floyd_warshall(m), proof_carrying_floyd_warshall(m)
    assert closed.keys() == expected.keys()
    _assert_balanced_chains(closed, expected)


def _counting_rows(monkeypatch) -> list:
    """Patch ``closure.bfs_row`` to record the source of each row it builds."""
    sources = []
    original = closure.bfs_row

    def counting(succ, x):
        sources.append(x)
        return original(succ, x)

    monkeypatch.setattr(closure, "bfs_row", counting)
    return sources


def test_a_cycle_builds_only_the_chains_its_contradiction_cites(monkeypatch):
    # x0 <= x1 <= ... <= x(n-1) <= x0 & x0 != x(n-1): the closure has n²
    # pairs, and the refutation cites two chains of fewer than n steps each,
    # read from at most two rows.
    n = 2000
    atoms = [Atom(pos(le(i, (i + 1) % n))) for i in range(n)]
    goal = Atom(neg(eq(0, n - 1)))
    for atom in reversed(atoms):
        goal = And(atom, goal)
    built = []

    def counting_trans(left, right):
        built.append(None)
        return TransP(left, right)

    monkeypatch.setattr(closure, "TransP", counting_trans)
    rows = _counting_rows(monkeypatch)
    verdict = decide(goal, Theory.PARTIAL)
    assert isinstance(verdict, Unsat)
    assert 0 < len(built) <= 2 * n
    assert 0 < len(rows) <= 2


def test_a_wide_conjunction_refuted_by_refl_builds_no_row(monkeypatch):
    # x0 <= x1 & ... & x(n-1) <= xn & ~(x0 <= x0): the closure has n²/2
    # pairs, and the contradiction needs only refl.  It cites only the last
    # literal, so only the conjunctions above it are decomposed: the root
    # when the goal nests to the left, as the parser reads it, and each of
    # the n when it nests to the right.
    n = 2000
    atoms = [Atom(pos(le(i, i + 1))) for i in range(n)] + [Atom(neg(le(0, 0)))]
    left = functools.reduce(And, atoms)
    right = functools.reduce(lambda inner, atom: And(atom, inner), reversed(atoms))
    for goal, conjes in ((left, 1), (right, n)):
        rows = _counting_rows(monkeypatch)
        tracemalloc.start()
        try:
            verdict = decide(goal, Theory.PARTIAL)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert isinstance(verdict, Unsat)
        assert rows == []
        assert peak < 30 * 2**20
        assert _conje_count(verdict.certificate) == conjes


def _prop_nodes(proof: PropProof) -> list[PropProof]:
    """The propositional nodes of a certificate, by an explicit stack."""
    nodes, stack = [], [proof]
    while stack:
        node = stack.pop()
        nodes.append(node)
        if isinstance(node, DisjE):
            stack += node.left_proof, node.right_proof
        elif not isinstance(node, Lift):
            stack.append(node.proof)
    return nodes


def _conje_count(proof: PropProof) -> int:
    return sum(isinstance(node, ConjE) for node in _prop_nodes(proof))


def test_is_in_leq_examples():
    closed = trancl_mapping(leq1_mapping([pos(le(0, 1)), pos(le(1, 2))]))
    assert is_in_leq(closed, 3, 3) == ReflP(3)
    assert is_in_leq(closed, 0, 2) == pair_proof(closed, 0, 2)
    assert is_in_leq(closed, 0, 2) == TransP(AssmP(pos(le(0, 1))), AssmP(pos(le(1, 2))))
    assert is_in_leq(closed, 2, 0) is None


def test_is_in_eq_examples():
    closed = trancl_mapping(leq1_mapping([pos(le(0, 1)), pos(le(1, 0))]))
    assert is_in_eq(closed, 0, 1) == AntisymP(closed[(0, 1)], closed[(1, 0)])
    assert is_in_eq(closed, 2, 2) == AntisymP(ReflP(2), ReflP(2))
    only_one = trancl_mapping(leq1_mapping([pos(le(0, 1))]))
    assert is_in_eq(only_one, 0, 1) is None


def test_contr1_list_examples():
    closed = trancl_mapping(leq1_mapping([pos(le(0, 1))]))
    found = contr1_list(closed, neg(le(0, 1)))
    assert found == Lift(ContrP(neg(le(0, 1)), AssmP(pos(le(0, 1)))))
    assert contr1_list(closed, pos(le(0, 1))) is None
    assert contr1_list(closed, neg(lt(0, 1))) is None
    assert contr1_list(closed, neg(eq(0, 2))) is None


def test_contr_list_antisym_certificate():
    # Hand-application of the assumption, antisymmetry and contradiction rules.
    lits = [pos(le(0, 1)), pos(le(1, 0)), neg(eq(0, 1))]
    expected = Lift(
        ContrP(
            neg(eq(0, 1)),
            AntisymP(AssmP(pos(le(0, 1))), AssmP(pos(le(1, 0)))),
        )
    )
    assert contr_list(closed(lits), lits) == expected
    assert check_prop_proof({Atom(l) for l in lits}, expected) == FLS_FORMULA


def test_contr_list_trans_certificate():
    lits = [pos(le(0, 1)), pos(le(1, 2)), neg(le(0, 2))]
    expected = Lift(
        ContrP(
            neg(le(0, 2)),
            TransP(AssmP(pos(le(0, 1))), AssmP(pos(le(1, 2)))),
        )
    )
    assert contr_list(closed(lits), lits) == expected


def test_contr_list_no_contradiction():
    lits = [pos(le(0, 1))]
    assert contr_list(closed(lits), lits) is None
    assert contr_list({}, []) is None


def test_contr_list_first_hit_wins():
    lits = [neg(eq(0, 0)), neg(le(1, 1))]
    found = contr_list(closed(lits), lits)
    assert isinstance(found, Lift)
    assert found.proof.lit == neg(eq(0, 0))


def _wrapped(proof, clause, cited):
    return from_conj_prf(proof, clause_literals(clause)[2], cited)


def test_from_conj_prf_examples():
    marker = Lift(ReflP(9))
    a, b, c, d = (Atom(pos(le(i, i + 1))) for i in range(4))
    assert _wrapped(marker, a, [a.lit]) == marker
    assert _wrapped(marker, And(a, b), [b.lit]) == ConjE(a, b, marker)
    # A pair of conjuncts with no cited literal is not decomposed.
    assert _wrapped(marker, And(a, b), []) == marker
    nested = And(a, And(b, c))
    assert _wrapped(marker, nested, [a.lit]) == ConjE(a, And(b, c), marker)
    assert _wrapped(marker, nested, [c.lit]) == ConjE(a, And(b, c), ConjE(b, c, marker))
    # Outermost first in pre-order: the root, then the left half, then the right.
    halves = And(And(a, b), And(c, d))
    both = ConjE(And(a, b), And(c, d), ConjE(a, b, ConjE(c, d, marker)))
    assert _wrapped(marker, halves, [b.lit, d.lit]) == both
    assert _wrapped(marker, halves, [d.lit]) == ConjE(And(a, b), And(c, d), ConjE(c, d, marker))
    every = [a.lit, b.lit, c.lit, d.lit]
    assert _wrapped(marker, halves, every) == unpruned_conj_prf(marker, halves)
    # Leaves are matched by object: an equal literal elsewhere is not cited.
    assert _wrapped(marker, And(a, b), [pos(le(1, 2))]) == marker


def test_clause_literals_examples():
    a, b, c, d = (pos(le(i, i + 1)) for i in range(4))
    na, nb, nc, nd = (lit.negate() for lit in (a, b, c, d))
    assert clause_literals(Atom(na)) == ([na], [na], [])
    left = And(And(Atom(na), Atom(b)), Atom(nc))
    assert clause_literals(left) == ([na, b, nc], [nc, na], [left, left.left])
    assert clause_literals(And(Atom(na), And(Atom(nb), Atom(nc))))[:2] == ([na, nb, nc], [na, nb, nc])
    assert clause_literals(And(And(Atom(na), Atom(nb)), And(Atom(nc), Atom(nd))))[1] == [na, nb, nc, nd]
    with pytest.raises(StructureError):
        clause_literals(And(Atom(a), Or(Atom(b), Atom(c))))


def _pre_order(clause):
    """The nodes of a conjunction, each before its left and then its right subtree."""
    if isinstance(clause, And):
        return [clause] + _pre_order(clause.left) + _pre_order(clause.right)
    return [clause]


def _level_order(clause):
    """The literals of a conjunction in breadth-first order, by a queue."""
    out, queue = [], [clause]
    for g in queue:
        if isinstance(g, And):
            queue += g.left, g.right
        else:
            out.append(g.lit)
    return out


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_clause_literals_gives_conj_list_and_breadth_first_order(seed):
    rng = random.Random(seed)
    clause = Atom(random_literal(rng, 4))
    for _ in range(rng.randrange(12)):
        leaf = Atom(random_literal(rng, 4))
        clause = And(clause, leaf) if rng.random() < 0.5 else And(leaf, clause)
        if rng.random() < 0.3:
            clause = And(clause, clause)
    lits, shallow, ands = clause_literals(clause)
    assert lits == conj_list(clause)
    assert shallow == [lit for lit in _level_order(clause) if not lit.pos]
    assert [id(g) for g in ands] == [id(g) for g in _pre_order(clause) if isinstance(g, And)]


def _lift_citations(proof: PropProof) -> set:
    """The literals the lifts below ``proof`` cite: their assm, eqe1, eqe2 and contr literals."""
    cited, stack = set(), list(_prop_nodes(proof))
    while stack:
        node = stack.pop()
        if isinstance(node, (AssmP, EQE1P, EQE2P)):
            cited.add(node.lit)
        elif isinstance(node, ContrP):
            cited.add(node.lit)
            stack.append(node.proof)
        elif isinstance(node, (TransP, AntisymP)):
            stack += node.left, node.right
        elif isinstance(node, Lift):
            stack.append(node.proof)
    return cited


def _and_leaves(f):
    """The maximal subtrees of ``f`` that are not conjunctions, by an explicit stack."""
    out, stack = [], [f]
    while stack:
        g = stack.pop()
        if isinstance(g, And):
            stack += g.right, g.left
        else:
            out.append(g)
    return out


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_decide_decomposes_only_conjunctions_that_hold_a_cited_literal(seed):
    # A leaf is cited below a ConjE if a lift below it cites its literal, or
    # a DisjE below it splits it.
    f = random_formula(random.Random(seed), 4, 4)
    for theory in Theory:
        verdict = decide(f, theory)
        if not isinstance(verdict, Unsat):
            continue
        cert = verdict.certificate
        for node in _prop_nodes(cert):
            if isinstance(node, ConjE):
                below = _prop_nodes(node.proof)
                split = {Or(d.left, d.right) for d in below if isinstance(d, DisjE)}
                cited = _lift_citations(node.proof)
                leaves = _and_leaves(And(node.left, node.right))
                assert any(g in split if isinstance(g, Or) else g.lit in cited for g in leaves)
        assert check_prop_proof({f}, cert) == FLS_FORMULA
        assert replay_refutation(cert, f)


def test_contr_fm_prf_examples():
    c1 = And(Atom(pos(le(0, 1))), Atom(neg(le(0, 1))))
    c2 = Atom(neg(eq(0, 0)))
    both = Or(c1, c2)
    found = contr_fm_prf(both, closure_fn=trancl_mapping)
    assert isinstance(found, DisjE)
    assert (found.left, found.right) == (c1, c2)
    assert check_prop_proof({both}, found) == FLS_FORMULA

    satisfiable = Or(c1, Atom(pos(le(0, 1))))
    assert contr_fm_prf(satisfiable, closure_fn=trancl_mapping) == OpenClause(
        1, (pos(le(0, 1)),), {(0, 1): AssmP(pos(le(0, 1)))}
    )

    diagonal = Atom(neg(eq(0, 0)))
    assert isinstance(contr_fm_prf(diagonal, closure_fn=trancl_mapping), Lift)


def test_decide_motivating_example_unsat():
    x, y = 0, 1
    f = And(
        And(Neg(Atom(pos(lt(x, y)))), Atom(pos(eq(x, y)))),
        Neg(Atom(pos(le(x, y)))),
    )
    verdict = decide(f, Theory.PARTIAL)
    assert isinstance(verdict, Unsat)
    assert check_prop_proof({f}, verdict.certificate) == FLS_FORMULA


def test_decide_trivial_sat():
    verdict = decide(Atom(pos(le(0, 1))), Theory.PARTIAL)
    assert isinstance(verdict, Sat)
    assert verdict.clause_index == 0


def test_decide_theory_split_on_incomparability():
    f = And(Atom(neg(le(0, 1))), Atom(neg(le(1, 0))))
    # Cross-checked against the brute-force oracle over two-element carriers.
    assert brute_sat(f, Theory.PARTIAL) and not brute_sat(f, Theory.LINEAR)
    assert isinstance(decide(f, Theory.LINEAR), Unsat)
    assert isinstance(decide(f, Theory.PARTIAL), Sat)


def test_decide_rejects_unknown_algorithm():
    with pytest.raises(ValueError):
        decide(Atom(pos(le(0, 1))), Theory.PARTIAL, algorithm="magic")


def test_decide_algorithms_agree():
    rng = random.Random(5)
    for _ in range(60):
        f = random_formula(rng, 3, 3)
        for theory in Theory:
            naive = decide(f, theory, algorithm="naive")
            fw = decide(f, theory, algorithm="fw")
            assert isinstance(naive, Unsat) == isinstance(fw, Unsat)


def _two_pass_answer(f, theory):
    """Leftmost open clause of the DNF and its model, clause by clause."""
    for index, clause in enumerate(disj_clauses(preprocess(f, theory).result)):
        lits = conj_list(clause)
        leq = closed(lits)
        if contr_list(leq, lits) is None:
            extra = formula_vars(f) - literal_vars(lits)
            build = build_linear_model if theory is Theory.LINEAR else build_partial_model
            return index, build(lits, leq, extra_vars=extra)
    return None


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_decide_sat_answer_matches_the_two_pass_search(seed):
    f = random_formula(random.Random(seed), 4, 4)
    for theory in Theory:
        verdict = decide(f, theory)
        expected = _two_pass_answer(f, theory)
        if expected is None:
            assert isinstance(verdict, Unsat)
        else:
            assert isinstance(verdict, Sat)
            assert (verdict.clause_index, verdict.model) == expected


@given(st.integers(0, 2**32 - 1), st.integers(3, 6), st.integers(3, 5))
@settings(max_examples=300, deadline=None)
def test_the_tableau_agrees_with_the_clause_by_clause_search(seed, depth, num_vars):
    f = random_formula(random.Random(seed), depth, num_vars)
    for theory in Theory:
        verdict, expected = decide(f, theory), dnf_decide(f, theory)
        assert type(verdict) is type(expected)
        if isinstance(verdict, Sat):
            assert (verdict.clause_index, verdict.model) == (expected.clause_index, expected.model)
            continue
        nnf, _ = to_nnf(f, deless_linear_prf if theory is Theory.LINEAR else deless_partial_prf)
        if not any(isinstance(g, Or) for g in _and_leaves(nnf)):
            assert serialize_cert(verdict.certificate) == serialize_cert(expected.certificate)


def test_the_twelve_rung_linear_ladder_splits_once():
    # (x0 < x1 | x1 < x0) & x0 = x1 & ...: the first rung's case split
    # closes the goal, where the DNF has 4,096 clauses.
    text = " & ".join(f"(x{i} < x{i + 1} | x{i + 1} < x{i}) & x{i} = x{i + 1}" for i in range(12))
    f, _ = parse_input(text)
    start = time.perf_counter()
    verdict = decide(f, Theory.LINEAR)
    assert isinstance(verdict, Unsat)
    written = serialize_cert(verdict.certificate)
    cert = parse_cert(written)
    assert check_prop_proof({f}, cert) == FLS_FORMULA
    assert replay_refutation(cert, f)
    assert time.perf_counter() - start < 1.0
    assert len(written) < 16 * 1024
    assert sum(isinstance(node, DisjE) for node in _prop_nodes(cert)) == 1


def _tableau_closures(nnf):
    """The closures the tableau over ``nnf`` builds up to its first open branch, by recursion.

    A node takes in its disjunct's literals and holds its disjunctions, in
    formula order, before the ones still pending.  It builds a closure when
    its branch holds a negative literal and more positive ones than its last
    closure saw, and the first open branch builds one if its last closure is
    stale.  A branch with no positive literal builds none.
    """
    built = 0

    def node(lits, todo, seen):
        nonlocal built
        leaves = _and_leaves(todo[0])
        lits = lits + [g.lit for g in leaves if isinstance(g, Atom)]
        todo = [g for g in leaves if isinstance(g, Or)] + todo[1:]
        positives = sum(lit.pos for lit in lits)
        if positives > seen and not all(lit.pos for lit in lits):
            built, seen = built + 1, positives
        if contr_list(closed(lits), lits) is not None:
            return False
        if not todo:
            built += positives > seen
            return True
        split = todo[0]
        return node(lits, [split.left] + todo[1:], seen) or node(lits, [split.right] + todo[1:], seen)

    node([], [nnf], 0)
    return built


def test_decide_closes_each_clause_at_most_once(monkeypatch):
    calls = []

    def counting(mapping):
        calls.append(mapping)
        return trancl_mapping(mapping)

    monkeypatch.setitem(closure._CLOSURE_ALGORITHMS, "naive", counting)
    rng = random.Random(11)
    for _ in range(200):
        f = random_formula(rng, 4, 4)
        for theory in Theory:
            calls.clear()
            decide(f, theory)
            nnf, _ = to_nnf(f, deless_linear_prf if theory is Theory.LINEAR else deless_partial_prf)
            assert len(calls) == _tableau_closures(nnf)
            # At most one closure per node of a tableau whose leaves are at
            # most the DNF's clauses.
            assert len(calls) <= 2 * len(disj_clauses(preprocess(f, theory).result)) - 1
    # Not at most one per clause: the root checks its negative literal, and
    # each branch needs its own positive literal.
    calls.clear()
    x, y, z, w = range(4)
    goal = And(
        And(Atom(pos(le(x, y))), Atom(neg(le(y, x)))),
        Or(And(Atom(pos(le(y, z))), Atom(neg(le(x, z)))), And(Atom(pos(le(y, w))), Atom(neg(le(x, w))))),
    )
    assert isinstance(decide(goal, Theory.PARTIAL), Unsat)
    assert len(calls) == _tableau_closures(goal) == 3


def _conv_rules(proof: PropProof) -> list[ConvRule]:
    found = [proof] if isinstance(proof, ConvRule) else []
    for field in dataclasses.fields(proof):
        child = getattr(proof, field.name)
        if isinstance(child, PropProof):
            found += _conv_rules(child)
    return found


def test_certificates_have_at_most_one_conv_node_at_the_root():
    rng = random.Random(23)
    unsat = 0
    for _ in range(300):
        f = random_formula(rng, 4, 4)
        for theory in Theory:
            verdict = decide(f, theory)
            if isinstance(verdict, Unsat):
                unsat += 1
                cert = verdict.certificate
                assert _conv_rules(cert) in ([], [cert])
                if isinstance(cert, ConvRule):
                    assert cert.source == f
    assert unsat > 20


def test_a_goal_already_in_dnf_gets_no_conv_node():
    x, y, z = 0, 1, 2
    goal = Or(
        And(And(Atom(pos(le(x, y))), Atom(pos(le(y, x)))), Atom(neg(eq(x, y)))),
        And(Atom(pos(eq(y, z))), Atom(neg(eq(z, y)))),
    )
    for theory in Theory:
        verdict = decide(goal, theory)
        assert isinstance(verdict, Unsat)
        assert _conv_rules(verdict.certificate) == []
    # A negated <= is rewritten only over linear orders.
    clash = And(Atom(pos(le(x, y))), Atom(neg(le(x, y))))
    assert _conv_rules(decide(clash, Theory.PARTIAL).certificate) == []
    assert len(_conv_rules(decide(clash, Theory.LINEAR).certificate)) == 1


def test_contr_list_complete_on_strict_free_clauses():
    # Every contradictory strict-free clause yields a kernel-accepted
    # certificate; every other one yields None.
    from ordersat.selfcheck import clause_formula, iter_clauses

    contradictory = 0
    for clause in iter_clauses(3, 2):
        lits = list(clause)
        if any(l.atom.kind == "lt" for l in lits):
            continue
        f = clause_formula(lits)
        found = contr_list(closed(lits), lits)
        if brute_sat(f, Theory.PARTIAL):
            assert found is None
        else:
            contradictory += 1
            assert found is not None
            assert check_prop_proof({Atom(l) for l in lits}, found) == FLS_FORMULA
    assert contradictory > 100


def test_refutation_is_monotone_under_conjunction():
    rng = random.Random(13)
    found = 0
    for _ in range(120):
        f = random_formula(rng, 3, 3)
        g = random_formula(rng, 2, 3)
        for theory in Theory:
            if isinstance(decide(f, theory), Unsat):
                found += 1
                assert isinstance(decide(And(f, g), theory), Unsat)
    assert found > 10


@pytest.mark.parametrize(
    "assignment", [{0: 0, 1: 1}, {0: 0}], ids=["falsifies", "unassigned"]
)
def test_check_case_checks_models_against_the_formula(monkeypatch, assignment):
    # A valid partial order whose assignment falsifies x <= y (or misses y).
    relation = Relation.make({0, 1}, {(0, 0), (1, 1), (1, 0)})
    model = Model(relation, assignment, Theory.PARTIAL)
    monkeypatch.setattr(selfcheck, "decide", lambda f, theory: Sat(model, 0))
    stats = selfcheck.AgreementStats()
    selfcheck.check_case(Atom(pos(le(0, 1))), Theory.PARTIAL, stats)
    assert stats.sat == {Theory.PARTIAL: 1}
    assert len(stats.model_failures) == 1 and stats.failures == 1

