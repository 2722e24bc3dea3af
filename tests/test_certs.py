import dataclasses
import functools
import random
import re
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ordersat.core import (
    And,
    Atom,
    Formula,
    Literal,
    Neg,
    Or,
    OrderAtom,
    ParseError,
    Theory,
    eq,
    formula_vars,
    le,
    lt,
    neg,
    parse_input,
    pos,
)
from ordersat.certs import (
    FLS,
    FLS_FORMULA,
    NILADIC_CONVERSIONS,
    AntisymP,
    ArgConv,
    AssmP,
    AtomConv,
    BinopConv,
    ConjE,
    ContrP,
    ConvRule,
    ConversionError,
    DisjE,
    EQE1P,
    EQE2P,
    Lift,
    ProofError,
    ReflP,
    Rule,
    ThenConv,
    TransP,
    apply_conv,
    cert_size,
    check_atom_proof,
    check_prop_proof,
    is_refutation,
    parse_cert,
    serialize_cert,
)
from ordersat.closure import Unsat, decide
from ordersat.oracle import brute_sat
from ordersat.replay import ReplayError, replay, replay_refutation
from ordersat.selfcheck import clause_formula, iter_clauses
from ordersat.sexpr import tokenize

from helpers import (
    doubling_cert,
    mutate_cert,
    plain_serialize_cert,
    random_formula,
    recursive_check_prop_proof,
    reference_parse_cert,
    wide_conjunction,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from workloads import chain_text, ladder_text  # noqa: E402


def test_check_atom_proof_examples():
    x, y = 0, 1
    a = frozenset({Atom(pos(le(x, y)))})
    assert check_atom_proof(a, AssmP(pos(le(x, y)))) == pos(le(x, y))
    assert check_atom_proof(frozenset(), ReflP(3)) == pos(le(3, 3))
    full = frozenset({Atom(pos(le(x, y))), Atom(pos(le(y, x))), Atom(neg(eq(x, y)))})
    contr = ContrP(neg(eq(x, y)), AntisymP(AssmP(pos(le(x, y))), AssmP(pos(le(y, x)))))
    assert check_atom_proof(full, contr) == FLS


def test_check_atom_proof_transitivity():
    a = frozenset({Atom(pos(le(0, 1))), Atom(pos(le(1, 2)))})
    p = TransP(AssmP(pos(le(0, 1))), AssmP(pos(le(1, 2))))
    assert check_atom_proof(a, p) == pos(le(0, 2))


def test_check_atom_proof_distinct_errors():
    with pytest.raises(ProofError, match="not among the assumptions"):
        check_atom_proof(frozenset(), AssmP(pos(le(0, 1))))
    with pytest.raises(ProofError, match="positive <="):
        check_atom_proof(frozenset({Atom(neg(le(0, 1)))}), AssmP(neg(le(0, 1))))
    a = frozenset({Atom(pos(le(0, 1))), Atom(pos(le(2, 3)))})
    with pytest.raises(ProofError, match="do not chain"):
        check_atom_proof(a, TransP(AssmP(pos(le(0, 1))), AssmP(pos(le(2, 3)))))
    with pytest.raises(ProofError, match="not converse"):
        check_atom_proof(a, AntisymP(AssmP(pos(le(0, 1))), AssmP(pos(le(2, 3)))))
    with pytest.raises(ProofError, match="negative literal"):
        check_atom_proof(a, ContrP(pos(le(0, 1)), AssmP(pos(le(0, 1)))))
    with pytest.raises(ProofError, match="expects a positive ="):
        check_atom_proof(frozenset({Atom(pos(le(0, 1)))}), EQE1P(pos(le(0, 1))))


def test_apply_conv_examples():
    x, y = 0, 1
    strict = Atom(pos(lt(x, y)))
    assert apply_conv(Rule("lessle"), strict) == And(Atom(pos(le(x, y))), Atom(neg(eq(x, y))))
    f = Or(Atom(pos(le(x, y))), Neg(Atom(pos(eq(x, y)))))
    assert apply_conv(Rule("allconv"), f) == f
    l1, l2 = pos(le(x, y)), pos(eq(x, y))
    two_step = ThenConv(Rule("negand"), BinopConv(Rule("negatom"), Rule("negatom")))
    assert apply_conv(two_step, Neg(And(Atom(l1), Atom(l2)))) == Or(
        Atom(l1.negate()), Atom(l2.negate())
    )


def test_apply_conv_errors_name_rule():
    with pytest.raises(ConversionError, match="^lessle does not apply to v0 <= v1$"):
        apply_conv(Rule("lessle"), Atom(pos(le(0, 1))))
    with pytest.raises(ConversionError, match="^negatom does not apply to v0 <= v1$"):
        apply_conv(Rule("negatom"), Atom(pos(le(0, 1))))
    with pytest.raises(ConversionError, match="AtomConv"):
        apply_conv(AtomConv(Rule("allconv")), And(Atom(pos(le(0, 1))), Atom(pos(le(0, 1)))))


# One generic instance of each niladic rule's source: variables v1 and v2
# read x and y, three placeholder atoms read a, b and c, and for negatom a
# placeholder literal reads l.
_X, _Y = 1, 2
_A, _B, _C = (Atom(pos(eq(v, v))) for v in (11, 12, 13))
_L = pos(eq(21, 22))
_INSTANCES = {
    "lessle": Atom(pos(lt(_X, _Y))),
    "nlessle": Atom(neg(lt(_X, _Y))),
    "nle": Atom(neg(le(_X, _Y))),
    "nless": Atom(neg(lt(_X, _Y))),
    "allconv": _A,
    "negatom": Neg(Atom(_L)),
    "negneg": Neg(Neg(_A)),
    "negand": Neg(And(_A, _B)),
    "negor": Neg(Or(_A, _B)),
    "andorl": And(Or(_A, _B), _C),
    "andorr": And(_A, Or(_B, _C)),
}


def _fm_notation(f) -> str:
    """``f`` in the certificate's ``fm`` notation, placeholders by their README names."""
    holes = {_A: "a", _B: "b", _C: "c"}
    if f in holes:
        return holes[f]
    if isinstance(f, Atom):
        if f.lit.atom == _L.atom:
            return f"(atom {'l' if f.lit == _L else '-l'})"
        names = {_X: "x", _Y: "y"}
        a = f.lit.atom
        return f"(atom ({'+' if f.lit.pos else '-'} {a.kind} {names[a.x]} {names[a.y]}))"
    if isinstance(f, Neg):
        return f"(neg {_fm_notation(f.arg)})"
    return f"({'and' if isinstance(f, And) else 'or'} {_fm_notation(f.left)} {_fm_notation(f.right)})"


def _carried_by_atom(rule) -> bool:
    try:
        apply_conv(AtomConv(rule), _INSTANCES["lessle"])
    except ConversionError as exc:
        return "carries" not in str(exc)
    return True


def test_the_readme_certificate_example_is_what_solve_writes():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    after = readme.split("`x <= y & ~(x <= y)` in the partial theory gives", 1)[1]
    example = after.split("```\n", 2)[1]
    f, _ = parse_input("x <= y & ~(x <= y)")
    assert serialize_cert(decide(f, Theory.PARTIAL).certificate) == " ".join(example.split())


def test_the_readme_session_goal_has_its_pinned_linear_certificate():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    session = readme.split("$ cat goal.txt\n", 1)[1].split("\n$ ", 1)[0]
    f, _ = parse_input(session)
    assert serialize_cert(decide(f, Theory.LINEAR).certificate) == (
        "(conv (and (neg (atom (+ le v0 v1))) (neg (atom (+ le v1 v0))))"
        " (binop (then negatom (atom nle)) (then negatom (atom nle)))"
        " (conje (and #0=(atom (- eq v0 v1)) #1=(atom (+ le v1 v0))) (and #2=(atom (- eq v1 v0)) #3=(atom (+ le v0 v1)))"
        " (conje #0# #1# (conje #2# #3# (lift (contr (- eq v0 v1) (antisym (assm (+ le v0 v1)) (assm (+ le v1 v0)))))))))"
    )


def test_rules_state_the_rows_of_the_readme_conversion_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("## Appendix: conversion table (normative)", 1)[1].split("\n## ", 1)[0]
    rows = [
        tuple(cell.strip().strip("`") for cell in line.strip().strip("|").split("|"))
        for line in table.splitlines()
        if line.startswith("| `")
    ]
    rendered = [
        (
            name,
            _fm_notation(_INSTANCES[name]),
            _fm_notation(apply_conv(rule, _INSTANCES[name])),
            "yes" if _carried_by_atom(rule) else "no",
        )
        for name, rule in NILADIC_CONVERSIONS.items()
    ]
    assert rendered == rows


def _shapes() -> list:
    """Formulas over v0, v1 and v2 of every shape a niladic rule applies to."""
    atoms = [Atom(Literal(p, OrderAtom(k, x, y))) for p in (True, False) for k in ("le", "lt", "eq")
             for x in range(3) for y in range(3)]
    few = [Atom(pos(le(0, 1))), Atom(neg(lt(1, 2))), Atom(pos(eq(2, 0))), Neg(Atom(pos(le(1, 0))))]
    pairs = [(a, b) for a in few for b in few]
    return (
        atoms
        + [Neg(a) for a in atoms]
        + [Neg(Neg(a)) for a in few]
        + [Neg(op(a, b)) for op in (And, Or) for a, b in pairs]
        + [And(Or(a, b), c) for a, b in pairs for c in few]
        + [And(a, Or(b, c)) for a in few for b, c in pairs]
    )


def _equivalence_failures(rule, theory) -> list:
    """The shapes ``rule`` applies to whose result differs from them in some small model."""
    failures, applied = [], 0
    for f in _shapes():
        try:
            g = apply_conv(rule, f)
        except ConversionError:
            continue
        applied += 1
        if brute_sat(Or(And(f, Neg(g)), And(Neg(f), g)), theory):
            failures.append(f)
    assert applied, rule
    return failures


# The rules that use totality; the test states them, not the library.
_LINEAR_ONLY = ("nle", "nless")


def test_every_rule_is_an_equivalence_over_linear_orders():
    for rule in NILADIC_CONVERSIONS.values():
        assert _equivalence_failures(rule, Theory.LINEAR) == [], rule


def test_rules_but_nle_and_nless_are_equivalences_over_partial_orders():
    for name, rule in NILADIC_CONVERSIONS.items():
        if name not in _LINEAR_ONLY:
            assert _equivalence_failures(rule, Theory.PARTIAL) == [], rule


def test_nle_and_nless_fail_over_partial_orders_exactly_on_distinct_variables():
    for name in _LINEAR_ONLY:
        failures = _equivalence_failures(NILADIC_CONVERSIONS[name], Theory.PARTIAL)
        # Of the 9 atoms over 3 variables each rule applies to, the 6 with x != y.
        assert len(failures) == 6, name
        assert all(f.lit.atom.x != f.lit.atom.y for f in failures), name


def test_check_prop_proof_examples():
    x, y = 0, 1

    # CONJE: falsity from an assumed conjunction, x = y giving both <=.
    lits = And(Atom(pos(eq(x, y))), Atom(neg(eq(x, y))))
    proof = ConjE(
        Atom(pos(eq(x, y))),
        Atom(neg(eq(x, y))),
        Lift(
            ContrP(
                neg(eq(x, y)),
                AntisymP(EQE1P(pos(eq(x, y))), EQE2P(pos(eq(x, y)))),
            )
        ),
    )
    assert check_prop_proof({lits}, proof) == FLS_FORMULA

    # DISJE: both branches must refute.
    branch = Atom(neg(eq(x, x)))
    split = Or(branch, branch)
    one = Lift(ContrP(neg(eq(x, x)), AntisymP(ReflP(x), ReflP(x))))
    assert check_prop_proof({split}, DisjE(branch, branch, one, one)) == FLS_FORMULA

    # CONV: rewrite an assumed strict atom, then refute the result.
    strict = Atom(pos(lt(x, x)))
    rewritten_refutation = ConjE(
        Atom(pos(le(x, x))),
        Atom(neg(eq(x, x))),
        Lift(ContrP(neg(eq(x, x)), AntisymP(ReflP(x), ReflP(x)))),
    )
    cert = ConvRule(strict, AtomConv(Rule("lessle")), rewritten_refutation)
    assert check_prop_proof({strict}, cert) == FLS_FORMULA


def test_check_prop_proof_membership_errors():
    x = 0
    a = Atom(pos(le(x, x)))
    with pytest.raises(ProofError, match="conjunction"):
        check_prop_proof({a}, ConjE(a, a, Lift(ReflP(x))))
    with pytest.raises(ProofError, match="disjunction"):
        check_prop_proof({a}, DisjE(a, a, Lift(ReflP(x)), Lift(ReflP(x))))
    with pytest.raises(ProofError, match="source"):
        check_prop_proof(set(), ConvRule(a, Rule("allconv"), Lift(ReflP(x))))
    bad_branches = DisjE(a, a, Lift(ReflP(0)), Lift(ReflP(1)))
    with pytest.raises(ProofError, match="different"):
        check_prop_proof({Or(a, a)}, bad_branches)


def test_serialization_round_trip():
    cert = Lift(ReflP(0))
    assert serialize_cert(cert) == "(lift (refl v0))"
    assert parse_cert(serialize_cert(cert)) == cert

    x, y = 0, 1
    rich = ConvRule(
        Atom(pos(lt(x, y))),
        AtomConv(Rule("lessle")),
        ConjE(
            Atom(pos(le(x, y))),
            Atom(neg(eq(x, y))),
            DisjE(
                Atom(pos(le(x, y))),
                Atom(neg(eq(x, y))),
                Lift(ContrP(neg(eq(x, y)), AntisymP(AssmP(pos(le(x, y))), AssmP(pos(le(y, x)))))),
                Lift(ReflP(3)),
            ),
        ),
    )
    assert parse_cert(serialize_cert(rich)) == rich


def test_parse_cert_reports_offset():
    with pytest.raises(ParseError, match="offset"):
        parse_cert("(lift (refl")
    with pytest.raises(ParseError, match="offset"):
        parse_cert("(lift (refl v0)) extra")
    # str.isdigit accepts superscripts and other scripts' digits; int() does not.
    with pytest.raises(ParseError, match="offset 22: expected a variable like v0"):
        parse_cert("(lift (contr (- le v0 v²) (assm (+ le v0 v1))))")
    with pytest.raises(ParseError, match="offset"):
        parse_cert("(lift (refl v١))")


def _unsat_certificates(rng, count, theory):
    certs = []
    while len(certs) < count:
        verdict = decide(random_formula(rng, 3, 4), theory)
        if isinstance(verdict, Unsat):
            certs.append(verdict.certificate)
    return certs


def test_replacing_any_token_reports_its_offset():
    # " bogus " puts the bad token one character after the replaced one.
    for cert in _unsat_certificates(random.Random(3), 20, Theory.LINEAR):
        text = serialize_cert(cert)
        for m in re.finditer(r"[()]|[^\s()]+", text):
            bad = text[: m.start()] + " bogus " + text[m.end() :]
            with pytest.raises(ParseError, match=f"^syntax error at offset {m.start() + 1}: "):
                parse_cert(bad)


def test_truncating_after_any_token_reports_the_end_of_input():
    # Every proper prefix that ends with a token, inside a conversion too,
    # reports the offset where the text ends.
    rng = random.Random(4)
    for theory in Theory:
        for cert in _unsat_certificates(rng, 20, theory):
            text = serialize_cert(cert)
            for m in list(re.finditer(r"[()]|[^\s()]+", text))[:-1]:
                prefix = text[: m.end()]
                message = f"^syntax error at offset {len(prefix)}: unexpected end of input$"
                with pytest.raises(ParseError, match=message):
                    parse_cert(prefix)


def test_tokens_split_on_unicode_whitespace():
    text = "(lift\x1c(refl\u3000v0)\u2028)\x85"
    assert parse_cert(text) == Lift(ReflP(0))
    with pytest.raises(ParseError, match="^syntax error at offset 18: trailing input 'x'"):
        parse_cert("(lift (refl v0))\u00a0\tx")


def test_writer_output_reads_back_to_the_same_text():
    # The writer labels formula objects that recur, and the reader makes
    # equal formulas one object.  A certificate that holds two equal but
    # distinct objects, like the two halves of ``~(x <= x) & ~(x <= x)``,
    # reads back with one of them, so its text gains a label once and then
    # reads back to itself.
    goal, _ = parse_input("~(x <= x) & ~(x <= x)")
    rng = random.Random(5)
    for theory in Theory:
        for cert in [decide(goal, theory).certificate, *_unsat_certificates(rng, 30, theory)]:
            text = serialize_cert(cert)
            again = serialize_cert(parse_cert(text))
            assert len(again) <= len(text)
            assert parse_cert(again) == cert
            assert serialize_cert(parse_cert(again)) == again
    text = serialize_cert(decide(goal, Theory.PARTIAL).certificate)
    assert "#" not in text
    assert serialize_cert(parse_cert(text)) == (
        "(conv (and #0=(neg (atom (+ le v0 v0))) #0#) (binop negatom negatom) "
        "(conje #1=(atom (- le v0 v0)) #1# (lift (contr (- le v0 v0) (refl v0)))))"
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from(list(Theory)), st.integers(0, 3))
def test_parse_inverts_serialize_on_certificates_and_mutants(seed, theory, mutations):
    rng = random.Random(seed)
    [cert] = _unsat_certificates(rng, 1, theory)
    for _ in range(mutations):
        cert = mutate_cert(rng, cert)
    labelled, plain = serialize_cert(cert), plain_serialize_cert(cert)
    assert len(labelled) <= len(plain)
    assert parse_cert(labelled) == parse_cert(plain) == cert


def test_labels_state_each_formula_of_a_chain_once():
    f, _ = parse_input(chain_text(random.Random(1), 40))
    cert = decide(f, Theory.PARTIAL).certificate
    labelled, plain = serialize_cert(cert), plain_serialize_cert(cert)
    assert len(labelled) * 5 < len(plain)
    assert parse_cert(labelled) == parse_cert(plain) == cert
    assert serialize_cert(parse_cert(labelled)) == labelled
    assert serialize_cert(parse_cert(plain)) == labelled


NOT_A_FORMULA = "expected a formula or a label, got "


# ``^`` marks the offending token and is removed before parsing.
@pytest.mark.parametrize(
    "marked, message",
    [
        # A label used before its definition, and one used inside its own
        # formula: a label binds only once its formula closes.
        ("(conje ^#0# (atom (+ le v0 v1)) (lift (refl v0)))", "undefined label '#0#'"),
        ("(conje #3=(and (atom (+ le v0 v1)) ^#3#) #3# (lift (refl v0)))", "undefined label '#3#'"),
        (
            "(conje #0=(atom (+ le v0 v1)) ^#0=(atom (+ le v0 v1)) (lift (refl v0)))",
            "label '#0=' is defined twice",
        ),
        (
            "(conje #1=(and ^#1=(atom (+ le v0 v1)) (atom (+ le v0 v1))) #1# (lift (refl v0)))",
            "label '#1=' is defined twice",
        ),
        # str.isdigit accepts superscripts and other scripts' digits.
        ("(conje ^#\u0661=(atom (+ le v0 v1)) #\u0661# (lift (refl v0)))", NOT_A_FORMULA + "'#\u0661='"),
        ("(conje #0=(atom (+ le v0 v1)) ^#\u00b2# (lift (refl v0)))", NOT_A_FORMULA + "'#\u00b2#'"),
        ("(conje ^#0 (atom (+ le v0 v1)) (lift (refl v0)))", NOT_A_FORMULA + "'#0'"),
        ("(conje ^# (atom (+ le v0 v1)) (lift (refl v0)))", NOT_A_FORMULA + "'#'"),
        ("(conje ^#x# (atom (+ le v0 v1)) (lift (refl v0)))", NOT_A_FORMULA + "'#x#'"),
        # Labels stand only where a formula may.
        ("(conje #0=(atom (+ le v0 v1)) #0# ^#0#)", "expected '(', got '#0#'"),
        ("(conje #0=(atom (+ le v0 v1)) #0# (lift ^#0#))", "expected '(', got '#0#'"),
        ("(conv #0=(atom (+ lt v0 v1)) ^#0# (lift (refl v0)))", "unknown conversion '#0#'"),
        ("(conje (atom ^#0=(+ le v0 v1)) (atom (+ le v0 v1)) (lift (refl v0)))", "expected '(', got '#0='"),
        ("(conje #0=(atom (+ le v0 v1)) (atom (+ le v0 ^#0#)) (lift (refl v0)))", "expected a variable"),
        ("^#0=(lift (refl v0))", "expected '(', got '#0='"),
        # Errors inside a run of labels.
        ("(conje #1= ^#1=(atom (+ le v0 v1)) #1# (lift (refl v0)))", "label '#1=' is defined twice"),
        ("(conje #1= ^#1# (atom (+ le v0 v1)) (lift (refl v0)))", "undefined label '#1#'"),
        ("(conje #1= #2=(^lift (refl v0)) #1# (lift (refl v0)))", "expected a formula head, got 'lift'"),
    ],
)
def test_label_errors_report_the_offset_of_the_label(marked, message):
    offset = marked.index("^")
    with pytest.raises(ParseError, match=f"^syntax error at offset {offset}: {re.escape(message)}"):
        parse_cert(marked.replace("^", "", 1))


def test_a_label_may_label_a_label():
    text = (
        "(conje #0=(atom (+ le v0 v1)) #1= #0#"
        " (conje #1# #2= #3=(atom (+ le v1 v0)) (conje #2# #3# (lift (refl v0)))))"
    )
    cert = parse_cert(text)
    inner = cert.proof.proof
    assert cert.left is cert.right is cert.proof.left
    assert cert.proof.right is inner.left is inner.right
    assert parse_cert(serialize_cert(cert)) == cert


@functools.cache
def _labelled_chain_and_ladder_tokens():
    out = []
    for make, size in ((chain_text, 12), (ladder_text, 3)):
        for theory in Theory:
            goal, _ = parse_input(make(random.Random(size), size))
            text = serialize_cert(decide(goal, theory).certificate)
            assert "#" in text
            out.append((goal, tuple(tokenize(text))))
    return out


def _kernel_verdicts(goal, cert):
    try:
        structured = check_prop_proof({goal}, cert) == FLS_FORMULA
    except (ProofError, ConversionError):
        structured = False
    try:
        replayed = replay(frozenset({goal}), cert) == FLS_FORMULA
    except ReplayError:
        replayed = False
    return structured, replayed


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 3),
    st.lists(
        st.tuples(st.sampled_from(["delete", "duplicate", "renumber"]), st.integers(0, 2**32)),
        min_size=1,
        max_size=3,
    ),
)
def test_corrupted_labels_give_a_parse_error_or_a_verdict(which, edits):
    goal, tokens = _labelled_chain_and_ladder_tokens()[which]
    tokens = list(tokens)
    for op, seed in edits:
        rng = random.Random(seed)
        labels = [k for k, tok in enumerate(tokens) if tok[0] == "#"]
        if op == "renumber" or rng.random() < 0.5:
            k = rng.choice(labels)
        else:
            k = rng.randrange(len(tokens))
        if op == "delete":
            del tokens[k]
        elif op == "duplicate":
            tokens.insert(k, tokens[k])
        else:
            defined = [tok[1:-1] for tok in tokens if tok[0] == "#" and tok[-1] == "="]
            mark = tokens[k][-1] if rng.random() < 0.75 else rng.choice("=#")
            tokens[k] = f"#{rng.choice(defined)}{mark}"
    try:
        cert = parse_cert(" ".join(tokens))
    except ParseError:
        return
    _kernel_verdicts(goal, cert)


def test_repeated_formula_text_parses_to_one_object():
    a, b = "(atom (+ le v0 v1))", "(atom (- eq v0 v1))"
    text = (
        f"(conv (and {a} (or {b} {b})) allconv (conje {a} (or {b} {b}) "
        f"(disje {b} {b} (lift (refl v0)) (lift (refl v0)))))"
    )
    cert = parse_cert(text)
    conje = cert.proof
    assert conje.left is cert.source.left
    assert conje.right is cert.source.right
    assert conje.proof.left is conje.proof.right is conje.right.left
    assert serialize_cert(cert) == (
        f"(conv (and #1={a} #2=(or #0={b} #0#)) allconv (conje #1# #2# "
        f"(disje #0# #0# (lift (refl v0)) (lift (refl v0)))))"
    )


def test_deep_formula_reads_in_linear_time_and_memory():
    # The first conv node states the goal, a 3,000-deep neg chain that no
    # later node restates.  Keying every level of it by its whole text would
    # copy some 13 million tokens and keep about 110 MB of keys; the reader
    # keys each node by its head and its children's objects instead.
    goal, _ = parse_input("~" * 3000 + "x <= y & ~(x <= y)")
    cert = decide(goal, Theory.PARTIAL).certificate
    text = serialize_cert(cert)
    readings = []
    for source in (text, plain_serialize_cert(cert)):
        start = time.perf_counter()
        tracemalloc.start()
        try:
            readings.append(parse_cert(source))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 2.0
        assert peak < 16_000_000
    labelled, plain = readings
    assert labelled.source == goal
    assert plain == labelled
    again = serialize_cert(labelled)
    assert len(again) <= len(text)
    assert serialize_cert(parse_cert(again)) == again


def test_equal_formulas_read_to_one_object_however_they_are_stated():
    a = "(atom (+ le v0 v1))"
    cert = parse_cert(f"(conje #0=(and {a} #1=(neg {a})) (and #2={a} (neg #2#)) (lift (refl v0)))")
    assert cert.left is cert.right
    assert cert.left.left is cert.left.right.arg


@pytest.mark.parametrize("levels", [18, 400])
def test_labels_cannot_name_a_formula_larger_than_the_text(levels):
    text = doubling_cert(levels)
    tokens = len(tokenize(text))
    # The first level with more nodes than the text has tokens is refused
    # at the ``)`` that closes it.
    level = next(i for i in range(levels + 1) if 2 ** (i + 1) - 1 > tokens)
    offset = text.index(f" #{level - 1}#)") + len(f" #{level - 1}#")
    message = f"formula of {2 ** (level + 1) - 1} nodes is larger than the text of {tokens} tokens"
    start = time.perf_counter()
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match=f"^syntax error at offset {offset}: {message}$"):
            parse_cert(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 0.5
    assert peak < 2_000_000


def _unsat_corpus(max_literals=3, num_vars=2):
    corpus = []
    for clause in iter_clauses(max_literals, num_vars):
        f = clause_formula(clause)
        verdict = decide(f, Theory.PARTIAL)
        if isinstance(verdict, Unsat):
            corpus.append((f, verdict.certificate))
    return corpus


def test_kernel_soundness_small_models():
    # Accepted refutations only exist for formulas with no small poset model.
    corpus = _unsat_corpus()
    assert corpus
    for f, cert in corpus[::7]:
        assert check_prop_proof({f}, cert) == FLS_FORMULA
        assert not brute_sat(f, Theory.PARTIAL)


def test_mutation_robustness_small():
    rng = random.Random(2024)
    corpus = _unsat_corpus()
    rejected = 0
    total = 0
    for f, cert in corpus[::11]:
        for _ in range(4):
            mutant = mutate_cert(rng, cert)
            if mutant == cert:
                continue
            total += 1
            if is_refutation(f, mutant):
                # Any accepted mutant must still witness a real contradiction.
                assert not brute_sat(f, Theory.PARTIAL, vars=formula_vars(f))
            else:
                rejected += 1
    assert total > 100
    assert rejected / total >= 0.95


def _outcome(compute, *args):
    try:
        return compute(*args)
    except (ProofError, ConversionError) as exc:
        return type(exc), str(exc)


def test_structured_kernel_agrees_with_the_recursive_checker():
    # The recursive frozenset checker is the reference, on certificates and
    # their mutants.
    rng = random.Random(15)
    corpus = []
    for theory in (Theory.PARTIAL, Theory.LINEAR):
        for _ in range(1000):
            f = random_formula(rng, 4, 3)
            verdict = decide(f, theory)
            if isinstance(verdict, Unsat):
                corpus.append((f, verdict.certificate))
        for text in (chain_text(rng, 30), ladder_text(rng, 4)):
            f, _ = parse_input(text)
            verdict = decide(f, theory)
            assert isinstance(verdict, Unsat)
            corpus.append((f, verdict.certificate))
    checked = 0
    for f, cert in corpus:
        for proof in [cert] + [mutate_cert(rng, cert) for _ in range(3)]:
            expected = _outcome(recursive_check_prop_proof, {f}, proof)
            assert _outcome(check_prop_proof, {f}, proof) == expected, proof
            checked += 1
    assert checked >= 1_000


def test_assumptions_stay_in_their_case_and_out_of_the_callers_set():
    # The context grows in place down a spine, so a case's disjunct must not
    # reach the other case, and nothing may reach the caller's set.
    xy, yx = Atom(pos(le(0, 1))), Atom(pos(le(1, 0)))
    uses_xy = Lift(ContrP(neg(le(0, 1)), AssmP(xy.lit)))
    context = {Or(xy, yx), Atom(neg(le(0, 1)))}
    with pytest.raises(ProofError, match="^assumption v0 <= v1 is not among the assumptions$"):
        check_prop_proof(context, DisjE(xy, yx, uses_xy, uses_xy))
    context = {And(xy, yx), Atom(neg(le(0, 1)))}
    before = set(context)
    assert check_prop_proof(context, ConjE(xy, yx, uses_xy)) == FLS_FORMULA
    assert context == before


def test_a_case_split_takes_out_what_its_left_case_added():
    # The left case adds v0 <= v1 by a conje and v1 <= v2 by a conv, and
    # the right case may cite neither.  A disjunct assumed before the split
    # stays for both cases.
    xy, yz, other = Atom(pos(le(0, 1))), Atom(pos(le(1, 2))), Atom(pos(le(5, 6)))
    left = And(xy, Neg(Neg(yz)))
    closes = Lift(ContrP(neg(le(0, 2)), TransP(AssmP(xy.lit), AssmP(yz.lit))))
    left_proof = ConjE(xy, left.right, ConvRule(left.right, Rule("negneg"), closes))
    context = {Or(left, other), Atom(neg(le(0, 2)))}
    assert check_prop_proof({left, Atom(neg(le(0, 2)))}, left_proof) == FLS_FORMULA
    for cited in (xy, yz):
        proof = DisjE(left, other, left_proof, Lift(AssmP(cited.lit)))
        message = f"assumption {cited.lit} is not among the assumptions"
        assert _outcome(check_prop_proof, context, proof) == (ProofError, message)
        assert _outcome(recursive_check_prop_proof, context, proof) == (ProofError, message)
    uses_xy = Lift(ContrP(neg(le(0, 1)), AssmP(xy.lit)))
    held = {Or(xy, other), xy, Atom(neg(le(0, 1)))}
    assert check_prop_proof(held, DisjE(xy, other, uses_xy, uses_xy)) == FLS_FORMULA


def test_structured_kernel_hashes_only_the_literals_each_lift_cites(monkeypatch):
    # A context of n atoms and k branches, closed through nested disje.  A
    # kernel that gathers the context's literals at each lift hashes about
    # n·k literals; one that looks up what each lift cites, O(n + k).
    n, k = 2000, 200
    facts = [Atom(pos(le(i, i + 1))) for i in range(n)]
    cases = [Atom(neg(le(i, i + 1))) for i in range(k)]
    split, proof = cases[-1], Lift(ContrP(cases[-1].lit, AssmP(facts[k - 1].lit)))
    for i in reversed(range(k - 1)):
        closes = Lift(ContrP(cases[i].lit, AssmP(facts[i].lit)))
        split, proof = Or(cases[i], split), DisjE(cases[i], split, closes, proof)
    context = [*facts, split]
    calls = 0
    literal_hash = Literal.__hash__

    def counting(lit):
        nonlocal calls
        calls += 1
        return literal_hash(lit)

    monkeypatch.setattr(Literal, "__hash__", counting)
    assert check_prop_proof(context, proof) == FLS_FORMULA
    assert calls < 10 * (n + k)


def test_structured_kernel_checks_a_spine_in_linear_memory_and_constant_stack():
    # A context copied at every conje would hold n²/2 formula references:
    # about 170 MB at n = 2,000.
    peaks = []
    for n in (1000, 2000):
        f, cert = wide_conjunction(n)
        tracemalloc.start()
        try:
            assert check_prop_proof({f}, cert) == FLS_FORMULA
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 5_000_000
    assert peaks[1] < 3 * peaks[0]
    # ``decide``'s own object, and the same certificate read back: reading
    # gives formulas equal to the goal's but distinct from them.
    f, cert = wide_conjunction(5000)
    reread = parse_cert(serialize_cert(cert))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        assert check_prop_proof({f}, cert) == FLS_FORMULA
        assert check_prop_proof({f}, reread) == FLS_FORMULA
    finally:
        sys.setrecursionlimit(limit)


def test_replay_kernel_replays_a_spine_in_linear_memory():
    # Replay of the same spines.  A context copied for every
    # conje body peaked at 175 MB at n = 2,000; one scoped context does not.
    peaks = []
    for n in (1000, 2000):
        f, cert = wide_conjunction(n)
        tracemalloc.start()
        try:
            assert replay_refutation(cert, f)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 10_000_000
    assert peaks[1] < 3 * peaks[0]


def test_cert_size_counts_proof_nodes_and_no_formulas():
    a, b = pos(le(0, 1)), pos(le(1, 2))
    x, y = Atom(a), Atom(b)
    cases = [
        (AssmP(a), 1),
        (ReflP(0), 1),
        (TransP(AssmP(a), AssmP(b)), 3),
        (AntisymP(AssmP(a), ReflP(1)), 3),
        (EQE1P(pos(eq(0, 1))), 1),
        (EQE2P(pos(eq(0, 1))), 1),
        (ContrP(neg(le(0, 1)), AssmP(a)), 2),
        (Rule("lessle"), 1),
        (AtomConv(Rule("nlessle")), 2),
        (ArgConv(Rule("negatom")), 2),
        (BinopConv(Rule("allconv"), AtomConv(Rule("lessle"))), 4),
        (ThenConv(Rule("negneg"), Rule("andorl")), 3),
        (Lift(ReflP(0)), 2),
        (ConjE(x, y, Lift(ReflP(0))), 3),
        (DisjE(And(x, y), y, Lift(ReflP(0)), Lift(TransP(ReflP(0), ReflP(0)))), 7),
        (ConvRule(And(x, y), ThenConv(Rule("allconv"), Rule("lessle")), Lift(ReflP(0))), 6),
    ]
    for node, size in cases:
        assert cert_size(node) == size, node
    with pytest.raises(ValueError):
        cert_size(x)


# ---------------------------------------------------------------------------
# The reader against its reference


def _read(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return str(exc)


_REPLACEMENTS = ["bogus", "(", ")", "#0#", "#99=", "v1", "le", "atom", ""]


def _reader_corpus():
    rng = random.Random(25)
    texts = []
    for theory in Theory:
        texts += [serialize_cert(cert) for cert in _unsat_certificates(rng, 4, theory)]
        for make, size in ((chain_text, 6), (ladder_text, 2)):
            goal, _ = parse_input(make(rng, size))
            texts.append(serialize_cert(decide(goal, theory).certificate))
    return texts


def test_reader_agrees_with_the_reference_on_prefixes_and_replaced_tokens():
    # Every proper prefix that ends with a token, every text with one token
    # replaced or deleted, and the text with a token after its end read to an
    # equal certificate or to the same ParseError text under both readers.
    compared = 0
    for text in _reader_corpus():
        marks = list(re.finditer(r"[()]|[^\s()]+", text))
        variants = [text, text + " x"] + [text[: m.end()] for m in marks[:-1]]
        variants += [f"{text[: m.start()]} {new} {text[m.end() :]}" for m in marks for new in _REPLACEMENTS]
        for variant in variants:
            assert _read(parse_cert, variant) == _read(reference_parse_cert, variant), variant
            compared += 1
    assert compared > 20_000


def _formulas_and_literals(cert):
    """The distinct formula and literal objects ``cert`` holds, by id."""
    found, stack = {}, [cert]
    while stack:
        node = stack.pop()
        if isinstance(node, (Formula, Literal)):
            if id(node) in found:
                continue
            found[id(node)] = node
        if dataclasses.is_dataclass(node):
            stack += [getattr(node, field.name) for field in dataclasses.fields(node)]
    return found


def test_each_reading_builds_its_own_objects_and_shares_equal_ones():
    # Two readings of one text share no formula and no literal, so no table
    # outlives a parse_cert call; within one reading, equal formulas are one
    # object and so are equal literals, however often the text states them.
    goal, _ = parse_input(chain_text(random.Random(7), 12))
    cert = decide(goal, Theory.LINEAR).certificate
    for text in (serialize_cert(cert), plain_serialize_cert(cert)):
        first, second = parse_cert(text), parse_cert(text)
        assert first == second
        objects = _formulas_and_literals(first)
        assert not objects.keys() & _formulas_and_literals(second).keys()
        for kind in (Formula, Literal):
            same = [node for node in objects.values() if isinstance(node, kind)]
            assert len(same) == len(set(same)) > 10
