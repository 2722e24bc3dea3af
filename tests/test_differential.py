import importlib.util
import re
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "tools" / "differential.py"

_spec = importlib.util.spec_from_file_location("differential", SCRIPT)
differential = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(differential)

_SUMMARY = re.compile(
    r"differential against HEAD \(\w{12}\): (\d+) records, (\d+) identical, (\d+) differ "
    r"\((\d+) goals, (\d+) certificates, (\d+) mutants\)"
)


def test_differential_against_head_finds_no_difference(capsys, monkeypatch):
    head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "HEAD"], capture_output=True)
    if head.returncode != 0:
        pytest.skip("needs a git checkout with a HEAD commit")
    monkeypatch.setattr(differential, "RANDOM_FORMULAS", 60)
    monkeypatch.setattr(differential, "FAMILIES", 1)
    monkeypatch.setattr(differential, "MUTANTS", 3)
    code = differential.differential("HEAD", 1)
    summary = _SUMMARY.fullmatch(capsys.readouterr().out.splitlines()[0])
    assert summary, "no summary line"
    records, same, differ, goals, certificates, mutants = map(int, summary.groups())
    assert records == goals + mutants and same + differ == records
    assert certificates >= 40 and mutants == 3 * certificates
    assert code == (0 if differ == 0 else 1)
    # Local edits under src/ may change a message or a certificate on purpose.
    edits = subprocess.run(
        ["git", "-C", str(ROOT), "status", "--porcelain", "--", "src"], capture_output=True, text=True
    ).stdout
    if not edits:
        assert differ == 0


def test_comparison_groups_differences_by_class_with_digits_masked():
    old = [
        {"id": "a", "verdict": "unsat", "replay": "ok"},
        {"id": "b", "read": "ParseError: syntax error at offset 12"},
        {"id": "c", "read": "ParseError: syntax error at offset 40"},
        {"id": "d", "verdict": "sat", "model": "0123456789abcdef"},
    ]
    new = [
        {"id": "a", "verdict": "unsat", "replay": "ok"},
        {"id": "b", "read": "ParseError: syntax error at token 3"},
        {"id": "c", "read": "ParseError: syntax error at token 9"},
        {"id": "d", "verdict": "sat", "model": "fedcba9876543210"},
    ]
    same, classes = differential.compare(old, new)
    assert same == 1
    assert classes == {
        ("read", "ParseError: syntax error at offset N", "ParseError: syntax error at token N"): [
            2, "b", old[1]["read"], new[1]["read"],
        ],
        ("model", "N", "N"): [1, "d", old[3]["model"], new[3]["model"]],
    }
