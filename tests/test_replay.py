import itertools
import random

import pytest

from ordersat.core import (
    And,
    Atom,
    Neg,
    Or,
    Theory,
    eq,
    eval_formula,
    eval_literal,
    iter_valuations,
    le,
    lt,
    neg,
    pos,
)
from ordersat.certs import (
    FLS,
    BinopConv,
    LessLe,
    Lift,
    NegAtomConv,
    ReflP,
    apply_conv,
    is_refutation,
)
from ordersat.closure import Unsat, decide
from ordersat.oracle import enumerate_posets
from ordersat.replay import (
    SIGMA,
    All,
    AppP,
    Appt,
    Bound,
    ConstT,
    ExportError,
    FmHole,
    FmP,
    Implies,
    LitP,
    PThm,
    ReplayError,
    VarT,
    _subst,
    decode_term,
    encode_formula,
    encode_literal,
    export,
    initial_context,
    parse_gprf,
    replay,
    replay_refutation,
    rpc,
    serialize_gprf,
)
from ordersat.selfcheck import clause_formula, iter_clauses

from helpers import mutate_cert


def test_sigma_names():
    assert set(SIGMA) == {
        "refl",
        "trans",
        "antisym",
        "eqe1",
        "eqe2",
        "contr_le",
        "contr_eq",
        "conje",
        "disje",
    }


def test_replay_axiom_lookup():
    assert replay({}, PThm("refl")) == All(-1, LitP(pos(le(-1, -1))))
    with pytest.raises(ReplayError, match="unknown proof constant"):
        replay({}, PThm("modus_ponens"))
    with pytest.raises(ReplayError, match="conversion constant"):
        replay({}, PThm("lessle"))


def test_replay_trans_by_hand():
    x, y, z = 4, 5, 6
    hyp_xy = encode_literal(pos(le(x, y)))
    hyp_yz = encode_literal(pos(le(y, z)))
    context = {hyp_xy: LitP(pos(le(x, y))), hyp_yz: LitP(pos(le(y, z)))}
    proof = AppP(
        AppP(
            Appt(Appt(Appt(PThm("trans"), VarT(x)), VarT(y)), VarT(z)),
            Bound(hyp_xy),
        ),
        Bound(hyp_yz),
    )
    assert replay(context, proof) == LitP(pos(le(x, z)))


def test_replay_bound_requires_context():
    with pytest.raises(ReplayError, match="unbound"):
        replay({}, Bound(encode_literal(pos(le(0, 1)))))


def test_replay_appp_mismatch():
    proof = AppP(
        Appt(Appt(PThm("eqe1"), VarT(0)), VarT(1)),
        Appt(PThm("refl"), VarT(0)),
    )
    with pytest.raises(ReplayError, match="mismatch"):
        replay({}, proof)


def test_replay_appt_needs_quantifier():
    with pytest.raises(ReplayError, match="quantified"):
        replay({}, Appt(Appt(PThm("refl"), VarT(0)), VarT(1)))


def test_substitution_matches_direct_instantiation():
    # Instantiating trans at every triple equals writing the instance down.
    for x, y, z in itertools.product(range(4), repeat=3):
        proof = Appt(Appt(Appt(PThm("trans"), VarT(x)), VarT(y)), VarT(z))
        expected = Implies(
            LitP(pos(le(x, y))),
            Implies(LitP(pos(le(y, z))), LitP(pos(le(x, z)))),
        )
        assert replay({}, proof) == expected
    # Same for the one-binder axiom.
    for x in range(4):
        assert replay({}, Appt(PThm("refl"), VarT(x))) == LitP(pos(le(x, x)))
    # And for every two-binder literal axiom.
    instances = {
        "antisym": lambda x, y: Implies(
            LitP(pos(le(x, y))), Implies(LitP(pos(le(y, x))), LitP(pos(eq(x, y))))
        ),
        "eqe1": lambda x, y: Implies(LitP(pos(eq(x, y))), LitP(pos(le(x, y)))),
        "eqe2": lambda x, y: Implies(LitP(pos(eq(x, y))), LitP(pos(le(y, x)))),
        "contr_le": lambda x, y: Implies(
            LitP(neg(le(x, y))), Implies(LitP(pos(le(x, y))), LitP(FLS))
        ),
        "contr_eq": lambda x, y: Implies(
            LitP(neg(eq(x, y))), Implies(LitP(pos(eq(x, y))), LitP(FLS))
        ),
    }
    for name, instance in instances.items():
        for x, y in itertools.product(range(4), repeat=2):
            proof = Appt(Appt(PThm(name), VarT(x)), VarT(y))
            assert replay({}, proof) == instance(x, y), (name, x, y)


def test_replay_rejects_binder_ids_in_terms():
    # Negative ids are reserved for axiom binders; no term may mention one.
    with pytest.raises(ReplayError, match="negative"):
        replay({}, Appt(PThm("refl"), VarT(-1)))


def test_substitution_avoids_capture():
    # Instantiating x with the ids used by the inner binders must not confuse
    # the later instantiations.
    proof = Appt(Appt(Appt(PThm("trans"), VarT(2)), VarT(3)), VarT(1))
    expected = Implies(
        LitP(pos(le(2, 3))),
        Implies(LitP(pos(le(3, 1))), LitP(pos(le(2, 1)))),
    )
    assert replay({}, proof) == expected


def test_formula_instantiation_avoids_capture():
    # conje applied to formulas whose variables collide with the binder ids.
    c = Atom(pos(le(1, 2)))
    d = Atom(neg(eq(2, 2)))
    proof = Appt(Appt(PThm("conje"), encode_formula(c)), encode_formula(d))
    prop = replay({}, proof)
    assert prop == Implies(
        FmP(And(c, d)),
        Implies(Implies(LitP(c.lit), Implies(LitP(d.lit), LitP(FLS))), LitP(FLS)),
    )


def test_rpc_examples():
    strict = Atom(pos(lt(0, 1)))
    assert rpc(PThm("lessle"))(strict) == apply_conv(LessLe(), strict)
    f = Or(Atom(pos(le(0, 1))), Atom(neg(eq(0, 1))))
    assert rpc(PThm("allconv"))(f) == f
    composite = AppP(AppP(PThm("binop"), PThm("negatom")), PThm("negatom"))
    target = Or(Neg(Atom(pos(le(0, 1)))), Neg(Atom(pos(eq(0, 1)))))
    assert rpc(composite)(target) == apply_conv(
        BinopConv(NegAtomConv(), NegAtomConv()), target
    )
    with pytest.raises(ReplayError, match="not a conversion constant"):
        rpc(PThm("trans"))
    with pytest.raises(ReplayError, match="needs arguments"):
        rpc(PThm("binop"))


def test_decode_encode_round_trip():
    lits = [pos(le(0, 1)), neg(eq(2, 2)), pos(lt(1, 0))]
    for lit in lits:
        assert decode_term(encode_literal(lit)) == lit
    f = Or(And(Atom(lits[0]), Neg(Atom(lits[1]))), Atom(lits[2]))
    assert decode_term(encode_formula(f)) == f
    assert decode_term(ConstT("fls")) == FLS


def test_export_lift_refl():
    root = Atom(pos(le(0, 1)))
    proof = export(Lift(ReflP(0)), root)
    assert replay(initial_context(root), proof) == LitP(pos(le(0, 0)))


def test_export_motivating_example():
    x, y = 0, 1
    f = And(
        And(Neg(Atom(pos(lt(x, y)))), Atom(pos(eq(x, y)))),
        Neg(Atom(pos(le(x, y)))),
    )
    verdict = decide(f, Theory.PARTIAL)
    assert isinstance(verdict, Unsat)
    proof = export(verdict.certificate, f)
    assert replay(initial_context(f), proof) == LitP(FLS)
    assert replay_refutation(proof, f)


def test_export_strict_contradiction_unsupported():
    from ordersat.certs import ContrP, AssmP

    bad = Lift(ContrP(neg(lt(0, 1)), AssmP(pos(le(0, 1)))))
    with pytest.raises(ExportError, match="strict"):
        export(bad, Atom(pos(le(0, 1))))


def test_checker_agreement_on_small_corpus():
    matched = 0
    for clause in iter_clauses(3, 2):
        f = clause_formula(clause)
        verdict = decide(f, Theory.PARTIAL)
        if isinstance(verdict, Unsat):
            assert replay_refutation(export(verdict.certificate, f), f)
            matched += 1
    assert matched > 200


def test_rejected_mutants_also_rejected_by_replay():
    rng = random.Random(99)
    clauses = [c for c in iter_clauses(3, 2)]
    spot_checked = 0
    for clause in clauses[::5]:
        f = clause_formula(clause)
        verdict = decide(f, Theory.PARTIAL)
        if not isinstance(verdict, Unsat):
            continue
        for _ in range(3):
            mutant = mutate_cert(rng, verdict.certificate)
            if mutant == verdict.certificate or is_refutation(f, mutant):
                continue
            spot_checked += 1
            try:
                accepted = replay_refutation(export(mutant, f), f)
            except ExportError:
                accepted = False
            assert not accepted
    assert spot_checked > 100


def _prop_holds(prop, rel, valuation, pool):
    if isinstance(prop, LitP):
        return eval_literal(rel, valuation, prop.lit)
    if isinstance(prop, FmP):
        return eval_formula(rel, valuation, prop.formula)
    if isinstance(prop, Implies):
        return (not _prop_holds(prop.hyp, rel, valuation, pool)) or _prop_holds(
            prop.concl, rel, valuation, pool
        )
    if isinstance(prop, All):
        if _has_hole(prop.body, prop.binder):
            return all(
                _prop_holds(_subst(prop.body, prop.binder, f), rel, valuation, pool)
                for f in pool
            )
        return all(
            _prop_holds(prop.body, rel, {**valuation, prop.binder: c}, pool)
            for c in rel.carrier
        )
    raise AssertionError(f"unexpected proposition {prop!r}")


def _has_hole(prop, binder):
    if isinstance(prop, (LitP,)):
        return False
    if isinstance(prop, FmP):
        stack = [prop.formula]
        while stack:
            f = stack.pop()
            if isinstance(f, FmHole) and f.hole == binder:
                return True
            if isinstance(f, (And, Or)):
                stack.extend((f.left, f.right))
            elif isinstance(f, Neg):
                stack.append(f.arg)
        return False
    if isinstance(prop, Implies):
        return _has_hole(prop.hyp, binder) or _has_hole(prop.concl, binder)
    if isinstance(prop, All):
        return prop.binder != binder and _has_hole(prop.body, binder)
    return False


def test_sigma_axioms_semantically_valid():
    # Variables range over every poset carrier of size <= 3; formula holes
    # range over a pool of sample formulas on those variables.
    pool = [
        Atom(pos(le(1, 2))),
        Atom(neg(eq(0, 1))),
        And(Atom(pos(le(0, 0))), Atom(neg(le(1, 2)))),
        Or(Atom(pos(eq(1, 1))), Atom(pos(lt(0, 2)))),
        Neg(Atom(pos(le(2, 1)))),
    ]
    for name, schema in SIGMA.items():
        for k in (1, 2, 3):
            for rel in enumerate_posets(k):
                for valuation in iter_valuations({0, 1, 2}, rel.carrier):
                    assert _prop_holds(schema, rel, valuation, pool), name


def test_gprf_serialization_round_trip():
    x, y = 0, 1
    f = And(Atom(pos(le(x, y))), Atom(neg(le(x, y))))
    verdict = decide(f, Theory.PARTIAL)
    assert isinstance(verdict, Unsat)
    proof = export(verdict.certificate, f)
    text = serialize_gprf(proof)
    assert parse_gprf(text) == proof
    assert serialize_gprf(parse_gprf(text)) == text
