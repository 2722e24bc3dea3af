import dataclasses
import gc
import importlib
import itertools
import random
import re
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from ordersat import certs
from ordersat.core import (
    ATOM_KINDS,
    And,
    Atom,
    Formula,
    Literal,
    Neg,
    Or,
    OrderAtom,
    Theory,
    eq,
    eval_formula,
    iter_valuations,
    le,
    lt,
    neg,
    parse_input,
    pos,
)
from ordersat.certs import (
    FLS_FORMULA,
    AntisymP,
    AssmP,
    BinopConv,
    ConjE,
    ContrP,
    ConvRule,
    DisjE,
    EQE1P,
    EQE2P,
    Lift,
    ReflP,
    Rule,
    TransP,
    apply_conv,
    cert_size,
    check_prop_proof,
    is_refutation,
    parse_cert,
    serialize_cert,
)
from ordersat.closure import Unsat, decide
from ordersat.oracle import enumerate_posets
from ordersat.replay import (
    SIGMA,
    FmHole,
    ReplayError,
    _match,
    _subst_fm,
    export,
    replay,
    replay_refutation,
)
from ordersat.selfcheck import clause_formula, iter_clauses

from helpers import (
    ExportError,
    Implies,
    curried,
    curried_export,
    curried_replay,
    mutate_cert,
    random_formula,
    rebuild_formula,
    sequential_instance,
    wide_conjunction,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from workloads import chain_text, ladder_text  # noqa: E402

# The package re-exports the function ``replay`` under the module's name.
kernel = importlib.import_module("ordersat.replay")


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


def _readme_row(binders, premises, conclusion, names) -> str:
    """The ``SIGMA`` row in the notation of the README's replay axiom table.

    A premise with hypotheses reads ``(h1 => ... => goal)``.
    """
    parts = []
    for hyps, goal in premises:
        premise = " => ".join(_readme_notation(f, names) for f in (*hyps, goal))
        parts.append(f"({premise})" if hyps else premise)
    parts.append(_readme_notation(conclusion, names))
    return f"!{' '.join(names[b] for b in binders)}. {' => '.join(parts)}"


def _readme_notation(prop, names) -> str:
    """The formula ``prop`` in the notation of the README's replay axiom table."""
    if prop is FLS_FORMULA:
        return "Fls"
    if isinstance(prop, FmHole):
        return names[prop.hole]
    if isinstance(prop, (And, Or)):
        connective = "and" if isinstance(prop, And) else "or"
        return f"({_readme_notation(prop.left, names)} {connective} {_readme_notation(prop.right, names)})"
    a = prop.lit.atom
    relation = f"{names[a.x]} {'<=' if a.kind == 'le' else '='} {names[a.y]}"
    return relation if prop.lit.pos else f"~({relation})"


def test_sigma_states_the_rows_of_the_readme_axiom_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("## Appendix: replay axiom table (normative)", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in table.splitlines():
        if line.startswith("| `"):
            name, schema = (cell.strip().strip("`") for cell in line.strip("|").split("|"))
            rows[name] = schema
    # Variable binders read x, y, z; the formula binders of conje and disje read c, d.
    variables, formulas = {-1: "x", -2: "y", -3: "z"}, {-1: "c", -2: "d"}
    rendered = {
        name: _readme_row(*row, formulas if name in ("conje", "disje") else variables)
        for name, row in SIGMA.items()
    }
    assert rendered == rows


def test_replay_axiom_lookup():
    # A node is read as the row of its class; a conversion is not a proof node.
    assert replay(frozenset(), Lift(ReflP(3))) == Atom(pos(le(3, 3)))
    with pytest.raises(ReplayError, match=r"^unknown certificate node Rule\(name='lessle'\)$"):
        replay(frozenset(), Rule("lessle"))
    with pytest.raises(ReplayError, match=r"^unknown certificate node Atom\("):
        replay(frozenset(), Lift(Atom(pos(le(0, 1)))))


def test_replay_trans_by_hand():
    x, y, z = 4, 5, 6
    hyp_xy, hyp_yz = pos(le(x, y)), pos(le(y, z))
    context = frozenset({Atom(hyp_xy), Atom(hyp_yz)})
    assert replay(context, Lift(TransP(AssmP(hyp_xy), AssmP(hyp_yz)))) == Atom(pos(le(x, z)))
    # The first premise binds the middle variable, and the second is checked against it.
    with pytest.raises(ReplayError, match="^proof application mismatch: expected v5 <= v5, got v4 <= v5$"):
        replay(context, Lift(TransP(AssmP(hyp_xy), AssmP(hyp_xy))))


def test_replay_bound_requires_context():
    # Each formula a node cites must be in the context: an assm's, eqe's or
    # contr's literal, a conje's conjunction and a disje's disjunction.
    c, d = Atom(pos(le(0, 1))), Atom(neg(le(0, 1)))
    body = Lift(ContrP(d.lit, AssmP(c.lit)))
    cited = [
        (Lift(AssmP(c.lit)), "v0 <= v1"),
        (Lift(EQE1P(pos(eq(0, 1)))), "v0 = v1"),
        (Lift(EQE2P(pos(eq(0, 1)))), "v0 = v1"),
        (body, r"~\(v0 <= v1\)"),
        (ConjE(c, d, body), r"\(v0 <= v1 & ~\(v0 <= v1\)\)"),
        (DisjE(c, d, body, body), r"\(v0 <= v1 \| ~\(v0 <= v1\)\)"),
    ]
    for proof, hypothesis in cited:
        with pytest.raises(ReplayError, match=f"^unbound hypothesis {hypothesis}$"):
            replay(frozenset(), proof)


def test_replay_premise_mismatch():
    xy = Atom(pos(le(0, 1)))
    with pytest.raises(ReplayError, match="^proof application mismatch: expected v0 = v1, got v0 <= v1$"):
        replay(frozenset({xy}), Lift(EQE1P(xy.lit)))


# One valid certificate per row of ``SIGMA``: the context it replays in, the
# node that instantiates the row, and what wraps that node into a refutation.
_LE01, _LE10, _LE12, _EQ01 = pos(le(0, 1)), pos(le(1, 0)), pos(le(1, 2)), pos(eq(0, 1))
_ROW_CASES = {
    "refl": ({neg(le(3, 3))}, ReflP(3), lambda node: Lift(ContrP(neg(le(3, 3)), node))),
    "trans": (
        {neg(le(0, 2)), _LE01, _LE12},
        TransP(AssmP(_LE01), AssmP(_LE12)),
        lambda node: Lift(ContrP(neg(le(0, 2)), node)),
    ),
    "antisym": (
        {neg(eq(0, 1)), _LE01, _LE10},
        AntisymP(AssmP(_LE01), AssmP(_LE10)),
        lambda node: Lift(ContrP(neg(eq(0, 1)), node)),
    ),
    "eqe1": ({neg(le(0, 1)), _EQ01}, EQE1P(_EQ01), lambda node: Lift(ContrP(neg(le(0, 1)), node))),
    "eqe2": ({neg(le(1, 0)), _EQ01}, EQE2P(_EQ01), lambda node: Lift(ContrP(neg(le(1, 0)), node))),
    "contr_le": ({neg(le(0, 1)), _LE01}, ContrP(neg(le(0, 1)), AssmP(_LE01)), Lift),
    "contr_eq": (
        {neg(eq(0, 1)), _LE01, _LE10},
        ContrP(neg(eq(0, 1)), AntisymP(AssmP(_LE01), AssmP(_LE10))),
        Lift,
    ),
    "conje": (
        {And(Atom(_LE01), Atom(neg(le(0, 1))))},
        ConjE(Atom(_LE01), Atom(neg(le(0, 1))), Lift(ContrP(neg(le(0, 1)), AssmP(_LE01)))),
        lambda node: node,
    ),
    "disje": (
        {Or(Atom(_LE01), Atom(_LE12)), neg(le(0, 1)), neg(le(1, 2))},
        DisjE(
            Atom(_LE01),
            Atom(_LE12),
            Lift(ContrP(neg(le(0, 1)), AssmP(_LE01))),
            Lift(ContrP(neg(le(1, 2)), AssmP(_LE12))),
        ),
        lambda node: node,
    ),
}


def _context(items) -> frozenset:
    return frozenset(Atom(item) if isinstance(item, Literal) else item for item in items)


def _cited(node):
    """The formula that ``node`` cites in the context, if any."""
    if isinstance(node, ConjE):
        return And(node.left, node.right)
    if isinstance(node, DisjE):
        return Or(node.left, node.right)
    return Atom(node.lit) if hasattr(node, "lit") else None


def test_replay_needs_a_premise_for_each_premise_proof():
    # Replay pairs a row's premises with what the node gives for them, so
    # each node must give exactly one sub-proof or cited formula per premise.
    assert set(_ROW_CASES) == set(SIGMA)
    for name, (context, node, _) in _ROW_CASES.items():
        read, _, premises = kernel._instance(set(_context(context)), node)
        assert read == name
        assert len(premises) == len(SIGMA[name][1]), name


def test_replay_axiom_takes_one_term_per_binder():
    # A binder's term comes from the node's fields or, where they do not
    # give it, from the first premise goal that holds it; replay binds them all.
    for name, (context, node, _) in _ROW_CASES.items():
        _, env, _ = kernel._instance(set(_context(context)), node)
        binders, premises, _ = SIGMA[name]
        in_goals = {end for _, goal in premises if isinstance(goal, Atom) for end in (goal.lit.atom.x, goal.lit.atom.y)}
        assert set(env) <= set(binders), name
        assert set(binders) - set(env) <= in_goals, name
        # The cases use no negative id, so a binder left unbound would show in the conclusion.
        proved = replay(_context(context), Lift(node) if isinstance(node, certs.CertProof) else node)
        assert min(proved.lit.atom.x, proved.lit.atom.y) >= 0, name


def test_an_axiom_takes_exactly_one_proof_per_premise():
    # Every premise is checked: a wrong proof of any one of them, or a cited
    # formula missing from the context, is rejected.
    for name, (context, node, wrap) in _ROW_CASES.items():
        context = _context(context)
        assert replay(context, wrap(node)) is FLS_FORMULA, name
        for field in dataclasses.fields(node):
            value = getattr(node, field.name)
            if isinstance(value, (certs.CertProof, certs.PropProof)):
                wrong = ReflP(7) if isinstance(value, certs.CertProof) else Lift(ReflP(7))
                broken = dataclasses.replace(node, **{field.name: wrong})
                with pytest.raises(ReplayError, match="^proof application mismatch: "):
                    replay(context, wrap(broken))
        cited = _cited(node)
        if cited is not None:
            with pytest.raises(ReplayError, match="^unbound hypothesis "):
                replay(context - {cited}, wrap(node))


def test_a_premise_discharges_the_hypotheses_it_names_and_only_there():
    c, d = Atom(pos(le(0, 1))), Atom(neg(le(0, 1)))
    uses_both = Lift(ContrP(d.lit, AssmP(c.lit)))
    context = {And(c, d)}
    before = set(context)
    # The conje body proof may use c and d.
    assert replay(context, ConjE(c, d, uses_both)) is FLS_FORMULA
    assert context == before
    # Nothing outside the body may.
    with pytest.raises(ReplayError, match=r"^unbound hypothesis ~\(v0 <= v1\)$"):
        replay(context, uses_both)
    # A disje case sees only its own disjunct, and not the hypotheses that
    # a conje in the other case discharged.
    e, f = Atom(pos(le(2, 3))), Atom(pos(le(3, 2)))
    conje = ConjE(c, d, uses_both)
    for cases in ((uses_both, conje), (conje, uses_both)):
        with pytest.raises(ReplayError, match=r"^unbound hypothesis ~\(v0 <= v1\)$"):
            replay(frozenset({Or(e, f), And(c, d)}), DisjE(e, f, *cases))
    uses_e = Lift(ContrP(neg(le(2, 3)), AssmP(e.lit)))
    context = frozenset({Or(e, f), Atom(neg(le(2, 3)))})
    with pytest.raises(ReplayError, match=r"^unbound hypothesis v2 <= v3$"):
        replay(context, DisjE(e, f, uses_e, uses_e))
    context = frozenset({Or(e, e), Atom(neg(le(2, 3)))})
    assert replay(context, DisjE(e, e, uses_e, uses_e)) is FLS_FORMULA


def test_a_disje_case_sees_no_conversion_made_in_the_other_case():
    # A case that cites the other case's disjunct is rejected in
    # test_a_premise_discharges_the_hypotheses_it_names_and_only_there.
    e, g = Atom(pos(le(0, 1))), Atom(pos(eq(0, 1)))
    source, not_e = Neg(e), Atom(neg(le(0, 1)))
    assert apply_conv(Rule("negatom"), source) == not_e
    refutes_e = ConvRule(source, Rule("negatom"), Lift(ContrP(not_e.lit, AssmP(e.lit))))
    refutes_g = Lift(ContrP(not_e.lit, EQE1P(g.lit)))

    def disje(right):
        return DisjE(e, g, refutes_e, right)

    context = frozenset({Or(e, g), source})
    assert replay(context, disje(ConvRule(source, Rule("negatom"), refutes_g))) is FLS_FORMULA
    # The right case cites the conversion result made inside the left case.
    with pytest.raises(ReplayError, match=r"^unbound hypothesis ~\(v0 <= v1\)$"):
        replay(context, disje(refutes_g))
    # Unless that result was assumed before the disje.
    assert replay(context | {not_e}, disje(refutes_g)) is FLS_FORMULA


def test_a_conje_part_assumed_before_its_body_outlives_the_body():
    c, d = Atom(pos(le(0, 1))), Atom(pos(le(1, 0)))
    not_eq, not_c, not_d = Atom(neg(eq(0, 1))), Atom(neg(le(0, 1))), Atom(neg(le(1, 0)))
    conje = ConjE(c, d, Lift(ContrP(not_eq.lit, AntisymP(AssmP(c.lit), AssmP(d.lit)))))
    e, f = Atom(pos(eq(2, 3))), Atom(pos(eq(3, 2)))

    def disje(right):
        return DisjE(e, f, conje, right)

    # c was assumed before the conje, so the later case still sees it; d was not.
    context = frozenset({Or(e, f), And(c, d), not_eq, not_c, not_d, c})
    assert replay(context, disje(Lift(ContrP(not_c.lit, AssmP(c.lit))))) is FLS_FORMULA
    with pytest.raises(ReplayError, match=r"^unbound hypothesis v1 <= v0$"):
        replay(context, disje(Lift(ContrP(not_d.lit, AssmP(d.lit)))))


@pytest.mark.parametrize("make", [frozenset, set])
def test_replay_leaves_the_callers_context_as_it_was(make):
    c, d, e = Atom(pos(le(0, 1))), Atom(neg(le(0, 1))), Atom(pos(le(2, 3)))
    source = Neg(Atom(pos(le(0, 1))))
    accepted = ConjE(c, d, Lift(ContrP(d.lit, AssmP(c.lit))))
    # The conversion adds d and the conje adds c and e before its body fails.
    rejected = ConvRule(source, Rule("negatom"), ConjE(c, e, Lift(AssmP(e.lit))))
    context = make({And(c, d), And(c, e), source})
    before = frozenset(context)
    assert replay(context, accepted) is FLS_FORMULA
    assert context == before and type(context) is make
    with pytest.raises(ReplayError, match=r"^proof application mismatch: expected ~\(v0 = v0\), got v2 <= v3$"):
        replay(context, rejected)
    assert context == before and type(context) is make


def _instance(name, terms):
    """The row ``name`` with each part instantiated at ``terms`` by ``_subst_fm``, curried."""
    binders, premises, conclusion = SIGMA[name]
    return curried(*_subst_row(premises, conclusion, dict(zip(binders, terms))))


def _subst_row(premises, conclusion, env):
    """A row's premises and conclusion with ``env`` substituted into each part by ``_subst_fm``."""
    premises = tuple((tuple(_subst_fm(h, env) for h in hyps), _subst_fm(goal, env)) for hyps, goal in premises)
    return premises, _subst_fm(conclusion, env)


def test_substitution_matches_direct_instantiation():
    # Instantiating trans at every triple equals writing the instance down.
    for x, y, z in itertools.product(range(4), repeat=3):
        expected = Implies(
            Atom(pos(le(x, y))),
            Implies(Atom(pos(le(y, z))), Atom(pos(le(x, z)))),
        )
        assert _instance("trans", (x, y, z)) == expected
    # Same for the one-binder axiom, which replay instantiates on its own.
    for x in range(4):
        assert replay(frozenset(), Lift(ReflP(x))) == _instance("refl", (x,)) == Atom(pos(le(x, x)))
    # And for every two-binder literal axiom.
    instances = {
        "antisym": lambda x, y: Implies(
            Atom(pos(le(x, y))), Implies(Atom(pos(le(y, x))), Atom(pos(eq(x, y))))
        ),
        "eqe1": lambda x, y: Implies(Atom(pos(eq(x, y))), Atom(pos(le(x, y)))),
        "eqe2": lambda x, y: Implies(Atom(pos(eq(x, y))), Atom(pos(le(y, x)))),
        "contr_le": lambda x, y: Implies(
            Atom(neg(le(x, y))), Implies(Atom(pos(le(x, y))), FLS_FORMULA)
        ),
        "contr_eq": lambda x, y: Implies(
            Atom(neg(eq(x, y))), Implies(Atom(pos(eq(x, y))), FLS_FORMULA)
        ),
    }
    for name, instance in instances.items():
        for x, y in itertools.product(range(4), repeat=2):
            assert _instance(name, (x, y)) == instance(x, y), (name, x, y)


def test_both_kernels_accept_negative_variable_ids():
    # Terms are read from certificate fields and only a row's binder positions
    # are ever substituted, so a negative id, even one equal to a binder id,
    # is a variable like any other.
    lit = Literal(False, le(-1, -1))
    goal, cert = Atom(lit), Lift(ContrP(lit, ReflP(-1)))
    assert check_prop_proof({goal}, cert) == FLS_FORMULA
    assert replay(frozenset({goal}), cert) is FLS_FORMULA
    # trans binds x, y and z to -2, -1 and -3, each another binder's id.
    context = {Atom(neg(le(-2, -3))), Atom(pos(le(-2, -1))), Atom(pos(le(-1, -3)))}
    cert = Lift(ContrP(neg(le(-2, -3)), TransP(AssmP(pos(le(-2, -1))), AssmP(pos(le(-1, -3))))))
    assert check_prop_proof(context, cert) == replay(context, cert) == FLS_FORMULA
    # Both reject a chain that does not meet.
    unmet = Lift(ContrP(neg(le(-2, -3)), TransP(AssmP(pos(le(-1, -3))), AssmP(pos(le(-2, -1))))))
    with pytest.raises(certs.ProofError, match="^transitivity premises do not chain: "):
        check_prop_proof(context | {Atom(pos(le(-1, -3)))}, unmet)
    with pytest.raises(ReplayError, match="^proof application mismatch: expected v-3 <= v-1, got v-2 <= v-1$"):
        replay(context, unmet)


def test_a_term_of_the_wrong_kind_is_rejected_where_replay_first_reads_it():
    # A certificate read from text gives each field its kind; a hand-built
    # one may not, and replay reads a formula in a variable position as an error.
    c = Atom(pos(le(2, 2)))
    # refl reads x, here a formula, in its conclusion.
    with pytest.raises(ReplayError, match="^cannot substitute a formula for a variable position$"):
        replay(frozenset(), Lift(ReflP(c)))
    # contr reads x and y, here formulas, first in the literal it cites, so
    # a missing citation is reported before them.
    odd = Literal(False, OrderAtom("le", c, c))
    with pytest.raises(ReplayError, match="^unbound hypothesis "):
        replay(frozenset(), Lift(ContrP(odd, ReflP(0))))
    with pytest.raises(ReplayError, match="^cannot substitute a formula for a variable position$"):
        replay(frozenset({Atom(odd)}), Lift(ContrP(odd, ReflP(0))))


def test_substitution_avoids_capture():
    # Instantiating x with the magnitudes of the other binder ids must not
    # confuse the instantiation of y and z.
    expected = Implies(
        Atom(pos(le(2, 3))),
        Implies(Atom(pos(le(3, 1))), Atom(pos(le(2, 1)))),
    )
    assert _instance("trans", (2, 3, 1)) == expected


def test_formula_instantiation_avoids_capture():
    # conje applied to formulas whose variables collide with the binder ids.
    c = Atom(pos(le(1, 2)))
    d = Atom(neg(eq(2, 2)))
    assert _instance("conje", (c, d)) == Implies(
        And(c, d),
        Implies(Implies(c, Implies(d, FLS_FORMULA)), FLS_FORMULA),
    )


_atoms = st.builds(OrderAtom, st.sampled_from(ATOM_KINDS), st.integers(0, 3), st.integers(0, 3))
_literals = st.builds(Literal, st.booleans(), _atoms)
# Formulas over v0..v3, so v1..v3 collide with the binder magnitudes.
_formulas = st.recursive(
    st.builds(Atom, _literals),
    lambda children: st.one_of(
        st.builds(And, children, children),
        st.builds(Or, children, children),
        st.builds(Neg, children),
    ),
    max_leaves=6,
)
_terms = st.one_of(st.integers(0, 5), _formulas, _literals)


@st.composite
def _instances(draw):
    """An axiom name and mostly one term per binder, mostly of the binder's kind."""
    name = draw(st.sampled_from(sorted(SIGMA)))
    count = len(SIGMA[name][0]) + draw(st.sampled_from((0, 0, 0, 1, -1)))
    kind = _formulas if name in ("conje", "disje") else st.integers(0, 5)
    return name, draw(st.lists(st.one_of(kind, _terms), min_size=count, max_size=count))


# A proof of falsity that cites the falsity atom.
_FALSITY = Lift(ContrP(FLS_FORMULA.lit, AntisymP(ReflP(0), ReflP(0))))

# The certificate node that instantiates each row at given terms, its
# premises proved by citing their goals, or by _FALSITY.
_NODE_AT = {
    "refl": lambda x: ReflP(x),
    "trans": lambda x, y, z: TransP(AssmP(pos(le(x, y))), AssmP(pos(le(y, z)))),
    "antisym": lambda x, y: AntisymP(AssmP(pos(le(x, y))), AssmP(pos(le(y, x)))),
    "eqe1": lambda x, y: EQE1P(pos(eq(x, y))),
    "eqe2": lambda x, y: EQE2P(pos(eq(x, y))),
    "contr_le": lambda x, y: ContrP(neg(le(x, y)), AssmP(pos(le(x, y)))),
    "contr_eq": lambda x, y: ContrP(neg(eq(x, y)), AntisymP(AssmP(pos(le(x, y))), AssmP(pos(le(y, x))))),
    "conje": lambda c, d: ConjE(c, d, _FALSITY),
    "disje": lambda c, d: DisjE(c, d, _FALSITY, _FALSITY),
}


@settings(max_examples=400, deadline=None)
@given(_instances())
def test_spine_instantiation_matches_the_sequential_oracle(instance):
    name, terms = instance
    try:
        expected = sequential_instance(name, terms)
    except ReplayError:
        return  # no certificate node has such terms
    assert _instance(name, terms) == expected
    # Replay of the row's node proves the instance's conclusion from the premises' goals.
    goals, conclusion = [FLS_FORMULA], expected
    while isinstance(conclusion, Implies):
        goal = conclusion.hyp
        while isinstance(goal, Implies):
            goal = goal.concl
        goals.append(goal)
        conclusion = conclusion.concl
    if name == "contr_eq":
        goals += [Atom(pos(le(terms[0], terms[1]))), Atom(pos(le(terms[1], terms[0])))]
    node = _NODE_AT[name](*terms)
    assert replay(frozenset(goals), Lift(node) if isinstance(node, certs.CertProof) else node) == conclusion


def _row_parts(premises, conclusion):
    """Every formula part of a ``SIGMA`` row: each premise's hypotheses and goal, and its conclusion."""
    return [f for hyps, goal in premises for f in (*hyps, goal)] + [conclusion]


_ROW_PARTS = [(name, part) for name, (_, *row) in SIGMA.items() for part in _row_parts(*row)]


def _root_mutants(f):
    """``f`` with one field of its root node changed, for each field."""
    if isinstance(f, Atom):
        lit, a = f.lit, f.lit.atom
        other_kind = ATOM_KINDS[(ATOM_KINDS.index(a.kind) + 1) % len(ATOM_KINDS)]
        atoms = [OrderAtom(other_kind, a.x, a.y), OrderAtom(a.kind, a.x + 1, a.y), OrderAtom(a.kind, a.x, a.y + 1)]
        return [Atom(lit.negate())] + [Atom(Literal(lit.pos, atom)) for atom in atoms]
    if isinstance(f, (And, Or)):
        other = Or if isinstance(f, And) else And
        return [other(f.left, f.right), type(f)(f.right, f.left), type(f)(f.left, f.left)]
    if isinstance(f, Neg):
        return [f.arg, Neg(Neg(f.arg))]
    return [FmHole(f.hole - 1)] if isinstance(f, FmHole) else []


@st.composite
def _part_and_candidate(draw):
    """A schema part, a binder map and a formula to match it against.

    Values are mostly of the binders' kind; the candidate is mostly the
    exact instance, a copy of it from new nodes, or a one-field mutant of it.
    """
    name, part = draw(st.sampled_from(_ROW_PARTS))
    kind = _formulas if name in ("conje", "disje") else st.integers(0, 5)
    values = st.one_of(kind, kind, st.integers(0, 5), _formulas, st.sampled_from([None, "v1"]))
    env = draw(st.dictionaries(st.sampled_from((-1, -2, -3)), values))
    try:
        instance = _subst_fm(part, env)
    except ReplayError:
        return part, env, draw(_formulas)
    mutants = _root_mutants(instance) + [rebuild_formula(instance, random.Random(draw(st.integers(0, 99))))]
    candidates = [instance, rebuild_formula(instance), *mutants, Implies(instance, instance)]
    return part, env, draw(st.one_of(st.sampled_from(candidates), _formulas))


# The goals of the first premises of trans and conje.
_XY, _CD = SIGMA["trans"][1][0][1], SIGMA["conje"][1][0][1]


@settings(max_examples=600, deadline=None)
@given(_part_and_candidate())
# A value of the wrong kind after a mismatch: at the other end of an atom,
# and in the right hole of a connective whose root or left hole mismatches.
@example((_XY, {-1: 0, -2: Atom(pos(le(0, 1)))}, Atom(pos(le(1, 0)))))
@example((_CD, {-1: Atom(pos(le(0, 1))), -2: 3}, Atom(pos(le(0, 1)))))
@example((_CD, {-1: Atom(pos(le(0, 1))), -2: 3}, And(Atom(pos(le(1, 1))), Atom(pos(le(0, 1))))))
def test_matching_a_schema_part_agrees_with_instantiating_it(case):
    # Matching first binds, from ``f``, each binder that ``env`` does not
    # hold yet, so it agrees with instantiating at what it bound.
    part, env, f = case
    bound = dict(env)
    try:
        matched = _match(part, bound, f)
    except ReplayError as exc:
        with pytest.raises(ReplayError, match=f"^{re.escape(str(exc))}$"):
            _subst_fm(part, bound)
    else:
        assert matched is (_subst_fm(part, bound) == f)
    assert env.items() <= bound.items()
    assert set(bound) - set(env) <= {-1, -2, -3}


def test_a_schema_part_with_binders_does_not_match_itself():
    # Matching reads the binders' values, so a part never matches itself on
    # identity.  Only a binder-free part, such as falsity, does.
    for name, part in _ROW_PARTS:
        binders = SIGMA[name][0]
        values = [Atom(pos(le(0, 1))), Atom(neg(eq(1, 2))), Atom(pos(le(2, 2)))]
        env = dict(zip(binders, values if name in ("conje", "disje") else (0, 1, 2)))
        assert _match(part, env, part) is (part is FLS_FORMULA), (name, part)


def _schema_formula_nodes():
    nodes, stack = set(), [part for _, part in _ROW_PARTS]
    while stack:
        node = stack.pop()
        nodes.add(node)
        if isinstance(node, (And, Or, Neg)):
            stack.extend(getattr(node, name) for name in node.__dataclass_fields__)
    return nodes


@pytest.mark.parametrize(
    "make, size, theory", [(chain_text, 60, Theory.PARTIAL), (ladder_text, 5, Theory.LINEAR)]
)
def test_instantiation_walks_only_schema_nodes(monkeypatch, make, size, theory):
    # A value is placed once and never walked again, so replay stays linear
    # in the certificate even where conje restates a long conjunction.
    f, _ = parse_input(make(random.Random(1), size))
    verdict = decide(f, theory)
    assert isinstance(verdict, Unsat)
    walked = []
    subst_fm = kernel._subst_fm

    def recording(node, *args):
        walked.append(node)
        return subst_fm(node, *args)

    monkeypatch.setattr(kernel, "_subst_fm", recording)
    assert replay_refutation(verdict.certificate, f)
    assert walked
    assert set(walked) <= _schema_formula_nodes()
    assert len(walked) <= 4 * cert_size(verdict.certificate)


def test_convp_applies_the_certificate_conversion():
    # A conversion that applies adds its result to the context.
    source = Atom(pos(lt(0, 1)))
    context = frozenset({source})
    rewritten = apply_conv(Rule("lessle"), source)
    assert rewritten == And(Atom(pos(le(0, 1))), Atom(neg(eq(0, 1))))
    antisym = AntisymP(AssmP(pos(le(0, 1))), AssmP(pos(le(1, 0))))
    uses_result = ConjE(rewritten.left, rewritten.right, Lift(ContrP(neg(eq(0, 1)), antisym)))
    with_yx = context | {Atom(pos(le(1, 0)))}
    assert replay(with_yx, ConvRule(source, Rule("lessle"), uses_result)) is FLS_FORMULA
    with pytest.raises(ReplayError, match=r"^unbound hypothesis \(v0 <= v1 & ~\(v0 = v1\)\)$"):
        replay(with_yx, uses_result)
    f = Or(Neg(Atom(pos(le(0, 1)))), Neg(Atom(pos(eq(0, 1)))))
    both = BinopConv(Rule("negatom"), Rule("negatom"))
    not_le, not_eq = Atom(neg(le(0, 1))), Atom(neg(eq(0, 1)))
    cases = DisjE(not_le, not_eq, Lift(ContrP(not_le.lit, ReflP(0))), Lift(ContrP(not_eq.lit, ReflP(0))))
    with pytest.raises(ReplayError, match=r"^proof application mismatch: expected v0 <= v1, got v0 <= v0$"):
        replay(frozenset({f}), ConvRule(f, both, cases))
    # One that does not apply is a replay error, as is a source not assumed.
    with pytest.raises(ReplayError, match="^conversion failed: nlessle does not apply to v0 < v1$"):
        replay(context, ConvRule(source, Rule("nlessle"), Lift(ReflP(0))))
    with pytest.raises(ReplayError, match="conversion failed: BinopConv needs a binary connective"):
        replay(context, ConvRule(source, both, Lift(ReflP(0))))
    with pytest.raises(ReplayError, match="is not in the context"):
        replay(frozenset(), ConvRule(source, Rule("lessle"), Lift(ReflP(0))))


def test_replay_keeps_no_formula_alive_after_the_call():
    # Terms are the certificate's own formulas, held only while a call runs.
    f, _ = parse_input("~(p < q) & q = r & r = p & s <= q & ~(p <= q)")
    verdict = decide(f, Theory.PARTIAL)
    cert = parse_cert(serialize_cert(verdict.certificate))
    assert isinstance(cert, ConvRule)
    assert replay_refutation(cert, f)
    source = weakref.ref(cert.source)
    del f, verdict, cert
    gc.collect()
    assert source() is None


def test_export_lift_refl():
    # export is the identity, kept for callers that compile before they replay.
    root = Atom(pos(le(0, 1)))
    cert = Lift(ReflP(0))
    assert export(cert, root) is cert
    assert replay(frozenset({root}), cert) == Atom(pos(le(0, 0)))


def test_export_motivating_example():
    x, y = 0, 1
    f = And(
        And(Neg(Atom(pos(lt(x, y)))), Atom(pos(eq(x, y)))),
        Neg(Atom(pos(le(x, y)))),
    )
    verdict = decide(f, Theory.PARTIAL)
    assert isinstance(verdict, Unsat)
    assert replay(frozenset({f}), verdict.certificate) == FLS_FORMULA
    assert replay_refutation(verdict.certificate, f)


def test_instances_conclude_the_kernels_own_falsity():
    # Instantiation keeps every binder-free part of a schema as it is.
    x, m, y = 2, 7, 5
    hyp, xm, my = Atom(neg(le(x, y))), Atom(pos(le(x, m))), Atom(pos(le(m, y)))
    proof = Lift(ContrP(hyp.lit, TransP(AssmP(xm.lit), AssmP(my.lit))))
    assert replay(frozenset({hyp, xm, my}), proof) is FLS_FORMULA
    c, d = Atom(pos(le(0, 1))), Atom(neg(le(0, 1)))
    body = Lift(ContrP(d.lit, AssmP(c.lit)))
    assert replay(frozenset({And(c, d)}), ConjE(c, d, body)) is FLS_FORMULA
    # conje c d: [c & d; (c, d) => Fls] ==> Fls
    premises, conclusion = _subst_row(*SIGMA["conje"][1:], {-1: c, -2: d})
    assert premises[1][1] is conclusion is FLS_FORMULA


@pytest.mark.skipif(sys.version_info < (3, 11), reason="deep recursion overflows the C stack before 3.11")
def test_both_kernels_accept_a_forty_five_thousand_literal_conjunction():
    # One conje node per literal: replay takes one call frame per certificate
    # level, so it reaches this depth under the package's recursion limit of 50,000.
    f, cert = wide_conjunction(45_000)
    assert check_prop_proof({f}, cert) == FLS_FORMULA
    try:
        accepted = replay_refutation(cert, f)
    except RecursionError:
        accepted = None  # fail without printing 50,000 frames, which takes minutes
    assert accepted is True


def _replayed(check, *args):
    try:
        return "proves", check(*args)
    except (ExportError, ReplayError) as exc:
        return "rejects", str(exc)


def test_replay_agrees_with_the_curried_kernel():
    # The export into proof terms and the kernel that applied an instance to
    # one premise proof at a time and bound each hypothesis with its own
    # abstraction are the reference, on certificates and their mutants.
    # Only a premise mismatch may read differently: it names the premise's
    # conclusion, not the whole premise.  And replay rejects an assm of
    # anything but a positive <=, as the structured kernel does, where the
    # curried compiler passed it on.
    rng = random.Random(19)
    corpus = []
    for theory in Theory:
        goals = [random_formula(rng, 4, 3) for _ in range(1000)]
        goals += [parse_input(chain_text(rng, 10))[0], parse_input(ladder_text(rng, 2))[0]]
        for f in goals:
            verdict = decide(f, theory)
            if isinstance(verdict, Unsat):
                corpus.append((f, verdict.certificate))
    checked = changed = assm = 0
    for f, cert in corpus:
        for proof in [cert] + [mutate_cert(rng, cert) for _ in range(3)]:
            new = _replayed(replay, frozenset({f}), proof)
            old = _replayed(lambda p: curried_replay(frozenset({f}), curried_export(p)), proof)
            assert (new == ("proves", FLS_FORMULA)) == (old == ("proves", FLS_FORMULA)), proof
            checked += 1
            if new == old:
                continue
            if new[1].startswith("assumption rule expects a positive <=, got "):
                assm += 1
                continue
            changed += 1
            mismatch = "proof application mismatch: expected "
            assert new[0] == old[0] == "rejects", proof
            assert new[1].startswith(mismatch) and old[1].startswith(mismatch), proof
            assert old[1].endswith(new[1].split(", got ", 1)[1]), proof
    assert checked >= 1_500
    assert changed > 0 and assm > 0


def test_proof_terms_and_literals_carry_no_instance_dict():
    lit = pos(le(0, 1))
    f = Atom(lit)
    slotted = [
        lit,
        lit.atom,
        FmHole(-1),
        f,
        And(f, f),
        Or(f, f),
        Neg(f),
    ]
    refl, rule = ReflP(0), Rule("lessle")
    lift = Lift(refl)
    certificate_nodes = [
        certs.AssmP(lit),
        refl,
        certs.TransP(refl, refl),
        certs.AntisymP(refl, refl),
        certs.EQE1P(lit),
        certs.EQE2P(lit),
        certs.ContrP(lit, refl),
        certs.AtomConv(rule),
        certs.ArgConv(rule),
        certs.BinopConv(rule, rule),
        certs.ThenConv(rule, rule),
        lift,
        certs.ConjE(f, f, lift),
        certs.DisjE(f, f, lift, lift),
        certs.ConvRule(f, rule, lift),
    ]
    assert {type(node) for node in certificate_nodes} == set(certs._HEADS)
    slotted += [*certificate_nodes, rule]
    assert not [node for node in slotted if hasattr(node, "__dict__")]


def _formula_nodes(f: Formula) -> list[Formula]:
    nodes, stack = [], [f]
    while stack:
        node = stack.pop()
        nodes.append(node)
        if isinstance(node, Neg):
            stack.append(node.arg)
        elif isinstance(node, (And, Or)):
            stack += (node.left, node.right)
    return nodes


def _certificate_formulas(cert) -> list[Formula]:
    found, stack = [], [cert]
    while stack:
        node = stack.pop()
        for field in dataclasses.fields(node):
            value = getattr(node, field.name)
            if isinstance(value, Formula):
                found.append(value)
            elif isinstance(value, (certs.PropProof, certs.CertProof, certs.ConvProof)):
                stack.append(value)
    return found


def test_the_pipeline_leaves_every_node_as_it_was_built():
    # Nodes are not frozen, so nothing but this test stops a layer from
    # assigning to a field: deciding, and both kernels must leave
    # each certificate writing its first text and each stored hash current.
    rng = random.Random(23)
    goals = [random_formula(rng, 4, 3) for _ in range(300)]
    goals += [parse_input(chain_text(rng, 12))[0], parse_input(ladder_text(rng, 3))[0]]
    unsat = 0
    for theory in Theory:
        for f in goals:
            verdict = decide(f, theory)
            if not isinstance(verdict, Unsat):
                continue
            unsat += 1
            certificates = [verdict.certificate, parse_cert(serialize_cert(verdict.certificate))]
            texts = [serialize_cert(cert) for cert in certificates]
            for cert in certificates:
                assert check_prop_proof({f}, cert) == FLS_FORMULA
                assert replay(frozenset({f}), cert) == FLS_FORMULA
            assert [serialize_cert(cert) for cert in certificates] == texts
            for formula in [f, *(g for cert in certificates for g in _certificate_formulas(cert))]:
                for node in _formula_nodes(formula):
                    assert node._hash == hash(rebuild_formula(node))
    assert unsat >= 100


def test_both_kernels_conclude_the_same_falsity():
    rng = random.Random(11)
    goals = [
        parse_input("~(x <= y) & ~(y <= x)")[0],
        parse_input(chain_text(random.Random(2), 12))[0],
        parse_input(ladder_text(random.Random(3), 3))[0],
        *(random_formula(rng) for _ in range(200)),
    ]
    concluded = 0
    for f in goals:
        for theory in Theory:
            verdict = decide(f, theory)
            if not isinstance(verdict, Unsat):
                continue
            c = verdict.certificate
            assert check_prop_proof({f}, c) == replay(frozenset({f}), c) == FLS_FORMULA
            concluded += 1
    assert concluded > 50
    # An assm proves the very formula it cites.
    h = Atom(pos(le(0, 1)))
    assert replay(frozenset({h}), Lift(AssmP(h.lit))) == h


# ``~(x <= y) & y <= x`` holds in the two-element chain, so no certificate
# refutes it.  This one claims that ``nle`` turns ``~(x <= y)`` into
# ``x != y & x <= y``, where the rule gives ``x != y & y <= x``.
_WRONG_SIDE_CERT = (
    "(conv #0=(and (neg (atom (+ le v0 v1))) #1=(atom (+ le v1 v0))) (binop (then negatom nle) allconv)"
    " (conje (and #2=(atom (- eq v0 v1)) #3=(atom (+ le v0 v1))) #1#"
    " (conje #2# #3# (lift (contr (- eq v0 v1) (antisym (assm (+ le v0 v1)) (assm (+ le v1 v0))))))))"
)


def test_both_kernels_reject_a_wrong_nle_side():
    f, _ = parse_input("~(x <= y) & y <= x")
    cert = parse_cert(_WRONG_SIDE_CERT)
    assert not is_refutation(f, cert)
    assert not replay_refutation(cert, f)


@pytest.mark.xfail(strict=True, reason="replay applies certs.apply_conv; ROADMAP item 6")
def test_replay_rejects_a_wrong_nle_side_despite_a_faulty_structured_rule(monkeypatch):
    # The replay kernel should not share a fault planted in the structured
    # kernel's conversion rules.
    def nle_to_the_wrong_side(f):
        if isinstance(f, Atom) and not f.lit.pos and f.lit.atom.kind == "le":
            a = f.lit.atom
            return And(Atom(neg(eq(a.x, a.y))), Atom(pos(le(a.x, a.y))))
        return None

    monkeypatch.setitem(certs._RULES, "nle", (True, nle_to_the_wrong_side))
    f, _ = parse_input("~(x <= y) & y <= x")
    assert not replay_refutation(parse_cert(_WRONG_SIDE_CERT), f)


def test_export_strict_contradiction_unsupported():
    bad = Lift(ContrP(neg(lt(0, 1)), AssmP(pos(le(0, 1)))))
    with pytest.raises(ReplayError, match="^no contradiction axiom for strict atoms$"):
        replay(frozenset({Atom(neg(lt(0, 1))), Atom(pos(le(0, 1)))}), bad)


def test_checker_agreement_on_small_corpus():
    matched = 0
    for clause in iter_clauses(3, 2):
        f = clause_formula(clause)
        verdict = decide(f, Theory.PARTIAL)
        if isinstance(verdict, Unsat):
            assert replay_refutation(verdict.certificate, f)
            matched += 1
    assert matched > 200


def test_rejected_mutants_also_rejected_by_replay():
    # The two kernels accept exactly the same mutants, in both theories.
    rng = random.Random(99)
    clauses = [c for c in iter_clauses(3, 2)]
    checked = {theory: 0 for theory in Theory}
    for theory in Theory:
        for clause in clauses[::5]:
            f = clause_formula(clause)
            verdict = decide(f, theory)
            if not isinstance(verdict, Unsat):
                continue
            for _ in range(3):
                mutant = mutate_cert(rng, verdict.certificate)
                if mutant == verdict.certificate:
                    continue
                checked[theory] += 1
                assert is_refutation(f, mutant) == replay_refutation(mutant, f), (theory, f, mutant)
    assert min(checked.values()) > 100


def _row_holds(binders, premises, conclusion, rel, valuation, pool):
    """Whether the row holds for every value of ``binders``, taken one at a time."""
    if not binders:

        def holds(f):
            return eval_formula(rel, valuation, f)

        premises_hold = all(not all(map(holds, hyps)) or holds(goal) for hyps, goal in premises)
        return not premises_hold or holds(conclusion)
    binder, rest = binders[0], binders[1:]
    if any(_has_hole(part, binder) for part in _row_parts(premises, conclusion)):
        return all(
            _row_holds(rest, *_subst_row(premises, conclusion, {binder: f}), rel, valuation, pool)
            for f in pool
        )
    return all(
        _row_holds(rest, premises, conclusion, rel, {**valuation, binder: c}, pool) for c in rel.carrier
    )


def _has_hole(f, binder):
    stack = [f]
    while stack:
        f = stack.pop()
        if isinstance(f, FmHole) and f.hole == binder:
            return True
        if isinstance(f, (And, Or)):
            stack.extend((f.left, f.right))
        elif isinstance(f, Neg):
            stack.append(f.arg)
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
    for name, (binders, premises, conclusion) in SIGMA.items():
        for k in (1, 2, 3):
            for rel in enumerate_posets(k):
                for valuation in iter_valuations({0, 1, 2}, rel.carrier):
                    assert _row_holds(binders, premises, conclusion, rel, valuation, pool), name
