import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import ordersat
from ordersat.core import MAX_FORMULA_TEXT, And, Atom, Neg, ParseError, eq, le, lt, pos
from ordersat.certs import ProofError, check_prop_proof, parse_cert, serialize_cert
from ordersat import cli
from ordersat.cli import format_model, parse_input, run
from ordersat.closure import Sat, Unsat, decide
from ordersat.core import Theory
from ordersat.replay import ReplayError, replay

from helpers import doubling_cert, mutate_cert, random_formula, tokenizer_parse_input

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from workloads import chain_text, ladder_text, render, sat_wide_text  # noqa: E402

MOTIVATING_EXAMPLE = "~(x < y) & x = y & ~(x <= y)\n"


def test_parse_input_motivating_example():
    f, table = parse_input(MOTIVATING_EXAMPLE)
    x, y = 0, 1
    assert table.name_of(x) == "x" and table.name_of(y) == "y"
    expected = And(
        And(Neg(Atom(pos(lt(x, y)))), Atom(pos(eq(x, y)))),
        Neg(Atom(pos(le(x, y)))),
    )
    assert f == expected


def test_parse_input_desugaring():
    f, table = parse_input("a >= b")
    assert f == Atom(pos(le(1, 0)))
    assert table.name_of(0) == "a"

    f, _ = parse_input("a > b")
    assert f == Atom(pos(lt(1, 0)))

    f, _ = parse_input("a != b")
    assert f == Neg(Atom(pos(eq(0, 1))))


def test_parse_input_precedence_and_comments():
    f, _ = parse_input("# comment line\na <= b | b <= c & ~c = a\n")
    from ordersat.core import Or

    left = Atom(pos(le(0, 1)))
    right = And(Atom(pos(le(1, 2))), Neg(Atom(pos(eq(2, 0)))))
    assert f == Or(left, right)


def test_parse_input_errors_carry_position():
    with pytest.raises(ParseError, match=r"1:"):
        parse_input("x <")
    with pytest.raises(ParseError, match=r"2:"):
        parse_input("x <= y &\n| y")


@pytest.mark.parametrize(
    "text, message",
    [
        ("x <= y &\n| y", "2:1: expected an identifier, got '|'"),
        ("x <= y\t\r\x0b| 2x <= y", "1:12: unexpected character '2'"),
        # The character that starts no token is reported before any parse error.
        ("x <= | y $", "1:10: unexpected character '$'"),
        ("(x <= y", "1:8: unexpected end of input"),
        # Comment characters take no column; a comment ends at its newline.
        ("x <= # c", "1:6: unexpected end of input"),
        ("# c\nx <= # c\n", "3:1: unexpected end of input"),
        ("(x <= y x", "1:9: expected ')', got 'x'"),
        ("x ~ y", "1:3: expected a relation, got '~'"),
        ("x <= y)", "1:7: unexpected ')'"),
    ],
)
def test_parse_input_error_messages(text, message):
    with pytest.raises(ParseError) as caught:
        parse_input(text)
    assert str(caught.value) == message


def test_parse_input_identifiers_are_unicode_letters_then_alphanumerics():
    # An identifier starts with a character that passes str.isalpha() or is
    # "_", and goes on with str.isalnum() characters or "_".
    f, table = parse_input("é <= x² & _1 = ab")
    assert f == And(Atom(pos(le(0, 1))), Atom(pos(eq(2, 3))))
    assert table.names() == ["é", "x²", "_1", "ab"]
    with pytest.raises(ParseError, match="^1:6: unexpected character '²'$"):
        parse_input("x <= ²x")


# Pieces of formula text: every token, a few identifiers, the whitespace
# other than " " that str.isspace accepts, comments with and without their
# newline, and characters that start no token or only an identifier's tail.
_PIECES = [
    "~", "&", "|", "(", ")", "<", "<=", "=", "!=", ">", ">=", "x", "y", "_1", "é", "²",
    "$", "!", "2x", " ", "\t", "\r", "\x0b", "\n", "# c", "# c\n", "x <= y", "y != x",
]
_SEPARATORS = [" ", "", "\t", "\n", "\r\n", "\x0b", "# c\n"]


def _random_texts(rng: random.Random, count: int):
    """Random pieces, and rendered formulas with random separators and one edit."""
    for _ in range(count // 2):
        yield rng.choice(("", " ")).join(rng.choices(_PIECES, k=rng.randrange(12)))
        text = render(random_formula(rng, 3, 3), ["x", "y", "z"])
        tokens = text.replace("(", " ( ").replace(")", " ) ").replace("~", " ~ ").split()
        if tokens and rng.random() < 0.5:
            tokens[rng.randrange(len(tokens))] = rng.choice(_PIECES)
        yield "".join(tok + rng.choice(_SEPARATORS) for tok in tokens)


def _outcome(parse, text: str):
    try:
        f, table = parse(text)
    except ParseError as exc:
        return str(exc)
    return f, table.names()


def test_parse_input_agrees_with_the_per_character_reader():
    rng = random.Random(14)
    texts = list(_random_texts(rng, 30_000))
    texts += [chain_text(rng, n) for n in range(26, 74, 2)]
    texts += [ladder_text(rng, k) for k in (3, 4, 5)]
    texts += [sat_wide_text(rng, v) for v in range(100, 204, 4)]
    parsed = 0
    for text in texts:
        expected = _outcome(tokenizer_parse_input, text)
        assert _outcome(parse_input, text) == expected, text
        parsed += not isinstance(expected, str)
    assert parsed > len(texts) // 4


@pytest.mark.parametrize(
    "text",
    [" " * 10**6 + "x <= y", "x <= y # " + "c" * 10**6 + "\n"],
    ids=["spaces", "comment"],
)
def test_parse_input_reads_a_long_run_of_one_kind_in_linear_time(text):
    # A pattern that backtracked over the run would take minutes here.
    start = time.perf_counter()
    f, _ = parse_input(text)
    assert f == Atom(pos(le(0, 1)))
    assert time.perf_counter() - start < 5.0


def test_solve_unsat_with_certificate(tmp_path, capsys):
    source = tmp_path / "goal.txt"
    source.write_text(MOTIVATING_EXAMPLE)
    cert = tmp_path / "proof.cert"
    code = run(["solve", str(source), "--theory", "partial", "--cert", str(cert)])
    assert code == 0
    assert capsys.readouterr().out.strip() == "unsat"
    expected = decide(parse_input(MOTIVATING_EXAMPLE)[0], Theory.PARTIAL).certificate
    assert cert.read_text().strip() == serialize_cert(expected)
    assert parse_cert(cert.read_text()) == expected

    code = run(["check", str(cert), "--goal", str(source)])
    assert code == 0
    assert capsys.readouterr().out.strip() == "ok"

    code = run(["check", str(cert), "--goal", str(source), "--kernel", "replay"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_solve_sat_with_model(tmp_path, capsys):
    source = tmp_path / "goal.txt"
    source.write_text("x <= y\n")
    model = tmp_path / "model.txt"
    code = run(["solve", str(source), "--theory", "partial", "--model", str(model)])
    assert code == 0
    assert capsys.readouterr().out.strip() == "sat"
    lines = model.read_text().splitlines()
    assert lines[0].startswith("carrier")
    assert any(line.startswith("assign x ") for line in lines)
    assert any(line.startswith("rel") for line in lines)


@pytest.mark.parametrize(
    ("goal", "flag"), [(MOTIVATING_EXAMPLE, "--cert"), ("x <= y\n", "--model")], ids=["cert", "model"]
)
def test_solve_unwritable_output_is_usage_error(tmp_path, capsys, goal, flag):
    source = tmp_path / "goal.txt"
    source.write_text(goal)
    target = tmp_path / "no" / "such" / "dir" / "out.txt"
    code = run(["solve", str(source), "--theory", "partial", flag, str(target)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {target}: ")


def test_solve_json_fields(tmp_path, capsys):
    source = tmp_path / "goal.txt"
    source.write_text(MOTIVATING_EXAMPLE)
    code = run(["solve", str(source), "--theory", "partial", "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "unsat"
    assert isinstance(payload["literals"], int)
    assert isinstance(payload["variables"], int)
    assert isinstance(payload["certificate_size"], int) and payload["certificate_size"] > 0
    assert isinstance(payload["wall_time_ms"], float)
    assert json.loads(json.dumps(payload)) == payload


def test_solve_parse_error_exit_code(tmp_path, capsys):
    source = tmp_path / "bad.txt"
    source.write_text("x <\n")
    assert run(["solve", str(source), "--theory", "partial"]) == 2
    assert run(["solve", str(tmp_path / "missing.txt"), "--theory", "partial"]) == 2


def test_usage_error_exit_code(tmp_path, capsys):
    assert run(["solve"]) == 2
    assert run(["frobnicate"]) == 2


def test_check_rejects_mutated_certificate(tmp_path, capsys):
    import random

    source = tmp_path / "goal.txt"
    source.write_text(MOTIVATING_EXAMPLE)
    f, _ = parse_input(MOTIVATING_EXAMPLE)
    verdict = decide(f, Theory.PARTIAL)
    assert isinstance(verdict, Unsat)

    from ordersat.certs import is_refutation

    rng = random.Random(4)
    mutant = mutate_cert(rng, verdict.certificate)
    while mutant == verdict.certificate or is_refutation(f, mutant):
        mutant = mutate_cert(rng, verdict.certificate)
    cert = tmp_path / "mutant.cert"
    cert.write_text(serialize_cert(mutant) + "\n")
    for kernel in ("structured", "replay"):
        code = run(["check", str(cert), "--goal", str(source), "--kernel", kernel])
        out = capsys.readouterr().out
        assert code == 3
        assert out.startswith("rejected")


def test_check_malformed_certificate(tmp_path, capsys):
    source = tmp_path / "goal.txt"
    source.write_text(MOTIVATING_EXAMPLE)
    cert = tmp_path / "broken.cert"
    cert.write_text("(lift (refl")
    assert run(["check", str(cert), "--goal", str(source)]) == 2


@pytest.mark.parametrize("kernel", ["structured", "replay"])
def test_check_non_ascii_variable_digits_are_a_parse_error(tmp_path, capsys, kernel):
    source = tmp_path / "goal.txt"
    source.write_text("x <= y & ~(x <= y)\n")
    cert = tmp_path / "bad.cert"
    cert.write_text("(lift (contr (- le v0 v²) (assm (+ le v0 v1))))\n")
    assert run(["check", str(cert), "--goal", str(source), "--kernel", kernel]) == 2
    assert capsys.readouterr().err.startswith("error: syntax error at offset 22")


@pytest.mark.parametrize("kernel", ["structured", "replay"])
def test_check_variable_id_longer_than_int_reads_is_a_parse_error(tmp_path, capsys, kernel):
    # int() converts at most 4,300 digits unless the interpreter is told otherwise.
    source = tmp_path / "goal.txt"
    source.write_text("x <= y\n")
    cert = tmp_path / "long.cert"
    cert.write_text("(lift (refl v" + "1" * 5000 + "))\n")
    assert run(["check", str(cert), "--goal", str(source), "--kernel", kernel]) == 2
    err = capsys.readouterr().err
    assert err == "error: syntax error at offset 12: variable id of 5000 digits is too long\n"


def test_solve_quotes_a_bounded_prefix_of_a_long_identifier(tmp_path, capsys):
    source = tmp_path / "goal.txt"
    source.write_text("x <= y " + "z" * 200_000 + "\n")
    assert run(["solve", str(source), "--theory", "partial"]) == 2
    assert capsys.readouterr().err == "error: 1:8: unexpected '" + "z" * 40 + "'…\n"


@pytest.mark.parametrize("kernel", ["structured", "replay"])
def test_check_quotes_a_bounded_prefix_of_a_long_token(tmp_path, capsys, kernel):
    source = tmp_path / "goal.txt"
    source.write_text("x <= y\n")
    cert = tmp_path / "long.cert"
    cert.write_text("(lift (refl w" + "z" * 200_000 + "))\n")
    assert run(["check", str(cert), "--goal", str(source), "--kernel", kernel]) == 2
    err = capsys.readouterr().err
    assert err == "error: syntax error at offset 12: expected a variable like v0, got 'w" + "z" * 39 + "'…\n"


@pytest.mark.parametrize("kernel", ["structured", "replay"])
def test_check_cuts_long_variable_ids_in_a_rejection(tmp_path, capsys, kernel):
    # Two assumptions over four 4,300-digit ids, the longest the reader
    # takes, that the goal does not assume: each id is quoted by its first
    # 40 digits.
    source = tmp_path / "goal.txt"
    source.write_text("x <= y\n")
    v1, v2, v3, v4 = (f"v{digit * 4300}" for digit in "1234")
    cert = tmp_path / "long-ids.cert"
    cert.write_text(f"(lift (trans (assm (+ le {v1} {v2})) (assm (+ le {v3} {v4}))))\n")
    assert run(["check", str(cert), "--goal", str(source), "--kernel", kernel]) == 3
    out = capsys.readouterr().out
    assert out.startswith("rejected: ") and out.count("\n") == 1
    assert f" {v1[:41]}… <= {v2[:41]}…" in out
    assert len(out.encode()) < 1100


@pytest.mark.parametrize("kernel", ["structured", "replay"])
def test_check_bounds_a_rejection_that_quotes_a_huge_formula(tmp_path, capsys, kernel):
    # The certificate of a 2,000-literal conjunction against a goal that
    # differs in its last literal: both kernels quote the formula, cut short.
    literals = [f"x{i} <= y{i}" for i in range(1999)]
    source = tmp_path / "goal.txt"
    source.write_text(" & ".join(literals + ["~(x0 <= x0)"]) + "\n")
    other = tmp_path / "other.txt"
    other.write_text(" & ".join(literals + ["~(x1 <= x1)"]) + "\n")
    cert = tmp_path / "proof.cert"
    assert run(["solve", str(source), "--theory", "partial", "--cert", str(cert)]) == 0
    capsys.readouterr()
    goal, _ = parse_input(other.read_text())
    proof = parse_cert(cert.read_text())
    with pytest.raises((ProofError, ReplayError)) as caught:
        if kernel == "structured":
            check_prop_proof({goal}, proof)
        else:
            replay(frozenset({goal}), proof)
    message = str(caught.value)
    assert message.count("…") == 1 and len(message) < MAX_FORMULA_TEXT + 100
    assert run(["check", str(cert), "--goal", str(other), "--kernel", kernel]) == 3
    out = capsys.readouterr().out
    assert out == f"rejected: {message}\n"
    assert len(out.encode()) < 1100


@pytest.mark.parametrize("kernel", ["structured", "replay"])
def test_a_rejection_quotes_a_formula_that_fits_in_full(tmp_path, capsys, kernel):
    source = tmp_path / "goal.txt"
    source.write_text("x <= y & ~(x <= y)\n")
    other = tmp_path / "other.txt"
    other.write_text("x <= y & ~(y <= x)\n")
    cert = tmp_path / "proof.cert"
    assert run(["solve", str(source), "--theory", "partial", "--cert", str(cert)]) == 0
    capsys.readouterr()
    assert run(["check", str(cert), "--goal", str(other), "--kernel", kernel]) == 3
    out = capsys.readouterr().out
    assert out.startswith("rejected: conversion source (v0 <= v1 & ~v0 <= v1) is not ")
    assert "…" not in out


@pytest.mark.parametrize("kernel", ["structured", "replay"])
def test_check_refuses_labels_that_name_a_huge_formula(tmp_path, capsys, kernel):
    # Forty labels, each naming two copies of the one before, would name a
    # formula of 2 ** 41 - 1 nodes in a text of 2 KB.
    source = tmp_path / "goal.txt"
    source.write_text("x <= y\n")
    cert = tmp_path / "huge.cert"
    cert.write_text(doubling_cert(40))
    assert run(["check", str(cert), "--goal", str(source), "--kernel", kernel]) == 2
    assert "nodes is larger than the text" in capsys.readouterr().err


def test_check_replay_reports_the_kernel_reason(tmp_path, capsys):
    source = tmp_path / "goal.txt"
    source.write_text("x <= y & ~(x <= y)\n")
    cert = tmp_path / "proof.cert"
    assert run(["solve", str(source), "--theory", "partial", "--cert", str(cert)]) == 0
    capsys.readouterr()
    text = cert.read_text()
    assert "(assm (+ le v0 v1))" in text
    cert.write_text(text.replace("(assm (+ le v0 v1))", "(assm (+ le v1 v0))"))
    assert run(["check", str(cert), "--goal", str(source), "--kernel", "replay"]) == 3
    assert capsys.readouterr().out == "rejected: unbound hypothesis v1 <= v0\n"


@pytest.mark.parametrize("kernel", ["structured", "replay"])
def test_check_replay_rejects_a_conclusion_other_than_falsity(tmp_path, capsys, kernel):
    source = tmp_path / "goal.txt"
    source.write_text("x <= y\n")
    cert = tmp_path / "proof.cert"
    cert.write_text("(lift (refl v0))\n")
    assert run(["check", str(cert), "--goal", str(source), "--kernel", kernel]) == 3
    assert capsys.readouterr().out == "rejected: certificate concludes v0 <= v0, not falsity\n"


@pytest.mark.parametrize(
    "kernel, message",
    [
        ("structured", "certificate concludes v0 <= v0, not falsity"),
        ("replay", "proof application mismatch: expected ~(v0 = v0), got v0 <= v0"),
    ],
)
def test_check_names_what_a_conje_body_concludes(tmp_path, capsys, kernel, message):
    source = tmp_path / "goal.txt"
    source.write_text("x <= y & y <= x\n")
    cert = tmp_path / "proof.cert"
    cert.write_text("(conje (atom (+ le v0 v1)) (atom (+ le v1 v0)) (lift (refl v0)))\n")
    assert run(["check", str(cert), "--goal", str(source), "--kernel", kernel]) == 3
    assert capsys.readouterr().out == f"rejected: {message}\n"


@pytest.mark.parametrize("role", ["formula", "certificate", "goal"])
def test_non_utf8_input_is_a_usage_error(tmp_path, capsys, role):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"x <= y\xff\n")
    goal = tmp_path / "goal.txt"
    goal.write_text("x <= y\n")
    cert = tmp_path / "proof.cert"
    cert.write_text("(lift (refl v0))\n")
    argv = {
        "formula": ["solve", str(bad), "--theory", "partial"],
        "certificate": ["check", str(bad), "--goal", str(goal)],
        "goal": ["check", str(cert), "--goal", str(bad)],
    }[role]
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read {bad}: 'utf-8' codec can't decode")


# Before Python 3.11 every Python call also takes C stack, so 50,000 nested
# calls (the recursion limit the package sets) overflow it before any
# RecursionError is raised.
needs_stackless_calls = pytest.mark.skipif(
    sys.version_info < (3, 11), reason="deep recursion overflows the C stack before 3.11"
)


@needs_stackless_calls
def test_solve_deeply_nested_formula_is_a_parse_error(tmp_path, capsys):
    source = tmp_path / "goal.txt"
    source.write_text("~" * 100_000 + "x <= y")
    assert run(["solve", str(source), "--theory", "partial"]) == 2
    assert capsys.readouterr().err == "error: formula nested too deeply\n"


@needs_stackless_calls
@pytest.mark.parametrize("kernel", ["structured", "replay"])
def test_check_deeply_nested_certificate_is_a_parse_error(tmp_path, capsys, kernel):
    source = tmp_path / "goal.txt"
    source.write_text("x <= y & ~(x <= y)\n")
    cert = tmp_path / "deep.cert"
    cert.write_text("(lift " + "(trans " * 100_000)
    assert run(["check", str(cert), "--goal", str(source), "--kernel", kernel]) == 2
    assert capsys.readouterr().err == "error: goal or certificate nested too deeply\n"


_ATOM = "(atom (+ le v0 v1))"


# The other recursive read paths, as deep as the atom proof above: a
# formula, a conversion and the certificate's spine.
@needs_stackless_calls
@pytest.mark.parametrize(
    "deep",
    [
        "(conv " + "(neg " * 100_000,
        f"(conv {_ATOM} " + "(then " * 100_000,
        f"(conje {_ATOM} {_ATOM} " * 100_000,
    ],
    ids=["formula", "conversion", "spine"],
)
@pytest.mark.parametrize("kernel", ["structured", "replay"])
def test_check_deeply_nested_formula_conversion_or_spine_is_a_parse_error(tmp_path, capsys, kernel, deep):
    source = tmp_path / "goal.txt"
    source.write_text("x <= y & ~(x <= y)\n")
    cert = tmp_path / "deep.cert"
    cert.write_text(deep)
    assert run(["check", str(cert), "--goal", str(source), "--kernel", kernel]) == 2
    assert capsys.readouterr().err == "error: goal or certificate nested too deeply\n"


def _long_chain(tmp_path, n: int):
    """``x0 <= x1 & … & x(n-1) <= xn & ~(x0 <= xn)``: its refutation is a chain of n steps."""
    source = tmp_path / "chain.txt"
    literals = [f"x{i} <= x{i + 1}" for i in range(n)] + [f"~(x0 <= x{n})"]
    source.write_text(" & ".join(literals) + "\n")
    return source


@needs_stackless_calls
def test_solve_refutes_a_thirty_thousand_step_chain(tmp_path, capsys):
    # Its closure has 450 million pairs, and the refutation reads one row.
    source = _long_chain(tmp_path, 30_000)
    assert run(["solve", str(source), "--theory", "partial"]) == 0
    assert capsys.readouterr() == ("unsat\n", "")


def test_solve_cert_too_deep_to_write_is_an_internal_error(tmp_path, capsys, monkeypatch):
    source = tmp_path / "goal.txt"
    source.write_text(MOTIVATING_EXAMPLE)
    cert = tmp_path / "proof.cert"
    monkeypatch.setattr(cli, "serialize_cert", _too_deep)
    assert run(["solve", str(source), "--theory", "partial", "--cert", str(cert)]) == 4
    assert capsys.readouterr() == ("", "internal error: certificate nested too deeply to write\n")
    assert not cert.exists()


def _in_a_child(*argv: str) -> subprocess.CompletedProcess:
    """``ordersat`` run on ``argv`` in a child process, so that a crash cannot take the tests down."""
    package_root = os.path.dirname(os.path.dirname(ordersat.__file__))
    return subprocess.run(
        [sys.executable, "-m", "ordersat.cli", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=package_root),
        timeout=120,
    )


def _solve_in_a_child(tmp_path, goal: str):
    """``goal`` written to a file and solved with ``--cert``; the goal's and the certificate's paths."""
    source = tmp_path / "goal.txt"
    source.write_text(goal)
    cert = tmp_path / "proof.cert"
    done = _in_a_child("solve", str(source), "--theory", "partial", "--cert", str(cert))
    assert (done.returncode, done.stdout, done.stderr) == (0, "unsat\n", "")
    return source, cert


def _solve_then_check_in_a_child(tmp_path, goal: str) -> None:
    """``solve`` ``goal`` and check its certificate with both kernels, each in a child process."""
    source, cert = _solve_in_a_child(tmp_path, goal)
    for kernel in ("structured", "replay"):
        done = _in_a_child("check", str(cert), "--goal", str(source), "--kernel", kernel)
        assert (done.returncode, done.stdout, done.stderr) == (0, "ok\n", ""), kernel


def _check_a_mismatch_in_a_child(tmp_path, goal: str, other: str) -> None:
    """The certificate of ``goal`` checked against ``other``: one short ``rejected:`` line from each kernel."""
    _, cert = _solve_in_a_child(tmp_path, goal)
    mismatch = tmp_path / "other.txt"
    mismatch.write_text(other)
    for kernel in ("structured", "replay"):
        done = _in_a_child("check", str(cert), "--goal", str(mismatch), "--kernel", kernel)
        assert (done.returncode, done.stderr) == (3, ""), kernel
        assert done.stdout.startswith("rejected: ") and done.stdout.count("\n") == 1
        assert len(done.stdout.encode()) < 1100


@needs_stackless_calls
def test_both_kernels_accept_the_certificate_of_a_thirty_thousand_step_chain(tmp_path):
    # Its refutation is one chain of 30,000 steps, nested 15 trans deep.
    _solve_then_check_in_a_child(tmp_path, _long_chain(tmp_path, 30_000).read_text())


def test_both_kernels_reject_a_mismatch_under_twenty_thousand_negations(tmp_path):
    # Each kernel quotes the 20,000-deep goal, whose text once recursed once
    # per negation and overflowed the C stack (SIGSEGV).
    _check_a_mismatch_in_a_child(
        tmp_path, "~" * 20_000 + "x <= y & ~(x <= y)\n", "~" * 20_000 + "x <= y & ~(y <= x)\n"
    )


@needs_stackless_calls
def test_both_kernels_reject_a_mismatch_in_a_twenty_thousand_literal_conjunction(tmp_path):
    literals = [f"x{i} <= y{i}" for i in range(19_999)]
    _check_a_mismatch_in_a_child(
        tmp_path, " & ".join(literals + ["~(x0 <= x0)"]) + "\n", " & ".join(literals + ["~(x1 <= x1)"]) + "\n"
    )


def test_solve_refutes_a_formula_under_twenty_thousand_negations(tmp_path):
    # Hashing, comparing and sizing such a formula's certificate once
    # overflowed the C stack (SIGSEGV), so the CLI runs in a child process.
    _solve_then_check_in_a_child(tmp_path, "~" * 20_000 + "x <= y & ~(x <= y)\n")


def test_both_kernels_accept_the_certificate_of_a_twenty_thousand_literal_conjunction(tmp_path):
    # Its certificate nests 20,000 labelled conjunctions, which the reader
    # once read in two call frames each and so ran out of stack.
    literals = [f"x{i} <= y{i}" for i in range(19_999)] + ["~(x0 <= x0)"]
    _solve_then_check_in_a_child(tmp_path, " & ".join(literals) + "\n")


@pytest.mark.parametrize("kernel", ["structured", "replay"])
def test_both_kernels_reject_an_assumption_that_is_not_a_positive_le(tmp_path, capsys, kernel):
    source = tmp_path / "goal.txt"
    source.write_text("x = y & ~(x = y)\n")
    cert = tmp_path / "proof.cert"
    assert run(["solve", str(source), "--theory", "partial", "--cert", str(cert)]) == 0
    capsys.readouterr()
    text = cert.read_text()
    derived = "(antisym (eqe1 (+ eq v0 v1)) (eqe2 (+ eq v0 v1)))"
    assert derived in text
    # The assumption holds in the goal, but the assm rule takes only a positive <=.
    cert.write_text(text.replace(derived, "(assm (+ eq v0 v1))"))
    assert run(["check", str(cert), "--goal", str(source), "--kernel", kernel]) == 3
    assert capsys.readouterr().out == "rejected: assumption rule expects a positive <=, got v0 = v1\n"


def _too_deep(*args, **kwargs):
    raise RecursionError("maximum recursion depth exceeded")


@pytest.mark.parametrize("kernel, name", [("structured", "check_prop_proof"), ("replay", "replay")])
def test_check_kernel_out_of_stack_is_a_rejection(tmp_path, capsys, monkeypatch, kernel, name):
    source = tmp_path / "goal.txt"
    source.write_text(MOTIVATING_EXAMPLE)
    cert = tmp_path / "proof.cert"
    assert run(["solve", str(source), "--theory", "partial", "--cert", str(cert)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli, name, _too_deep)
    assert run(["check", str(cert), "--goal", str(source), "--kernel", kernel]) == 3
    assert capsys.readouterr().out == f"rejected: certificate nested too deeply for the {kernel} kernel\n"


def test_solve_out_of_stack_in_decide_is_an_internal_error(tmp_path, capsys, monkeypatch):
    source = tmp_path / "goal.txt"
    source.write_text(MOTIVATING_EXAMPLE)
    monkeypatch.setattr(cli, "decide", _too_deep)
    assert run(["solve", str(source), "--theory", "partial"]) == 4
    assert capsys.readouterr().err == "internal error: formula nested too deeply to decide\n"


def test_module_entry_point_writes_nothing_to_stderr(tmp_path):
    source = tmp_path / "goal.txt"
    source.write_text(MOTIVATING_EXAMPLE)
    package_root = os.path.dirname(os.path.dirname(ordersat.__file__))
    env = dict(os.environ, PYTHONPATH=package_root)
    done = subprocess.run(
        [sys.executable, "-m", "ordersat.cli", "solve", str(source), "--theory", "partial"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 0
    assert done.stdout == "unsat\n"
    assert done.stderr == ""


def test_check_wrong_goal_rejected(tmp_path, capsys):
    unsat_source = tmp_path / "goal.txt"
    unsat_source.write_text(MOTIVATING_EXAMPLE)
    other_goal = tmp_path / "other.txt"
    other_goal.write_text("x <= y\n")
    cert = tmp_path / "proof.cert"
    assert run(["solve", str(unsat_source), "--theory", "partial", "--cert", str(cert)]) == 0
    capsys.readouterr()
    assert run(["check", str(cert), "--goal", str(other_goal)]) == 3


def test_solve_linear_vs_partial(tmp_path, capsys):
    source = tmp_path / "goal.txt"
    source.write_text("~(x <= y) & ~(y <= x)\n")
    assert run(["solve", str(source), "--theory", "partial"]) == 0
    assert capsys.readouterr().out.strip() == "sat"
    assert run(["solve", str(source), "--theory", "linear"]) == 0
    assert capsys.readouterr().out.strip() == "unsat"


def test_solve_fw_algorithm(tmp_path, capsys):
    source = tmp_path / "goal.txt"
    source.write_text("a <= b & b <= c & ~(a <= c)\n")
    assert run(["solve", str(source), "--theory", "partial", "--algorithm", "fw"]) == 0
    assert capsys.readouterr().out.strip() == "unsat"


def test_selftest_command(capsys):
    assert run(["selftest", "--max-literals", "2", "--num-vars", "2"]) == 0
    out = capsys.readouterr().out
    assert "selftest ok" in out
    assert "disagreements: 0" in out


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["--max-literals", "3", "--num-vars", "5"],
            "error: clauses of 3 literals over 5 variables can mention 5 variables;"
            " the brute-force oracle takes at most 4\n",
        ),
        (["--max-literals", "0"], "error: --max-literals and --num-vars must be at least 1\n"),
        (["--num-vars", "0"], "error: --max-literals and --num-vars must be at least 1\n"),
    ],
)
def test_selftest_out_of_range_is_a_usage_error(capsys, argv, message):
    assert run(["selftest", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == message
    assert captured.out == ""


def test_selftest_reaches_the_oracle_limit(capsys):
    # Two literals mention at most four of the five variables.
    assert run(["selftest", "--max-literals", "2", "--num-vars", "5"]) == 0
    assert "selftest ok" in capsys.readouterr().out


def test_format_model_sorted():
    m = decide(Atom(pos(le(0, 1))), Theory.LINEAR)
    assert isinstance(m, Sat)
    text = format_model(m.model)
    lines = text.splitlines()
    assert lines[0] == "carrier 0 1"
    rel_lines = [l for l in lines if l.startswith("rel ")]
    assert rel_lines == sorted(rel_lines)
