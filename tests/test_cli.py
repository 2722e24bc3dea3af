import json

import pytest

from ordersat.core import And, Atom, Neg, ParseError, eq, le, lt, pos
from ordersat.certs import parse_cert, serialize_cert
from ordersat.cli import format_model, parse_input, run
from ordersat.closure import Sat, Unsat, decide
from ordersat.core import Theory

from helpers import mutate_cert

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


def test_solve_unsat_with_certificate(tmp_path, capsys):
    source = tmp_path / "goal.txt"
    source.write_text(MOTIVATING_EXAMPLE)
    cert = tmp_path / "proof.cert"
    code = run(["solve", str(source), "--theory", "partial", "--cert", str(cert)])
    assert code == 0
    assert capsys.readouterr().out.strip() == "unsat"
    parsed = parse_cert(cert.read_text())
    assert serialize_cert(parsed) == cert.read_text().strip()

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


def test_format_model_sorted():
    m = decide(Atom(pos(le(0, 1))), Theory.LINEAR)
    assert isinstance(m, Sat)
    text = format_model(m.model)
    lines = text.splitlines()
    assert lines[0] == "carrier 0 1"
    rel_lines = [l for l in lines if l.startswith("rel ")]
    assert rel_lines == sorted(rel_lines)
