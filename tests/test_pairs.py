import argparse
import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "tools" / "pairs.py"

_spec = importlib.util.spec_from_file_location("pairs", SCRIPT)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

METRICS = [metric["name"] for metric in pairs.benchmark_spec()["end_to_end"]]


def test_one_pair_against_head_reports_every_end_to_end_metric(capsys):
    head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "HEAD"], capture_output=True)
    if head.returncode != 0:
        pytest.skip("needs a git checkout with a HEAD commit")
    code = pairs.pairs("HEAD", [7], 1.0, ["chain-unsat"])
    out, err = capsys.readouterr()
    assert code == 0, err
    report = json.loads(out.splitlines()[-1])
    assert report["pairs"] == 1 and report["seeds"] == [7]
    rows = report["workloads"]["chain-unsat"]
    assert list(rows) == METRICS
    for name, row in rows.items():
        assert row["pairs"] == 1 and row["wins"] in (0, 1)
        assert row["parent"]["q1"] == row["parent"]["median"] == row["parent"]["q3"]
        assert f"  {name} " in out


def test_a_seed_range_gives_one_pair_per_seed():
    assert pairs._seed_range("11-30") == list(range(11, 31))
    with pytest.raises(argparse.ArgumentTypeError):
        pairs._seed_range("30-11")


def _metrics(**values):
    """A complete metric object: every end-to-end metric, 1.0 unless given."""
    return {name: {"value": values.get(name, 1.0), "unit": "ms"} for name in METRICS}


def test_summary_counts_wins_in_the_better_direction_and_flags_a_metric_past_its_bound():
    runs = {"w": [
        (_metrics(solve_per_s=100.0, solve_ms_p50=1.0), _metrics(solve_per_s=110.0, solve_ms_p50=1.5)),
        (_metrics(solve_per_s=120.0, solve_ms_p50=1.2), _metrics(solve_per_s=115.0, solve_ms_p50=1.6)),
        (_metrics(solve_per_s=100.0, solve_ms_p50=1.1), _metrics(solve_per_s=130.0, solve_ms_p50=1.0)),
    ]}
    rows = pairs.summarize(runs, pairs.benchmark_spec()["end_to_end"])["w"]
    assert list(rows) == METRICS
    assert rows["cert_bytes"]["wins"] == 0 and rows["cert_bytes"]["ratio"] == 1.0
    per_s, p50 = rows["solve_per_s"], rows["solve_ms_p50"]
    assert per_s["wins"] == 2 and p50["wins"] == 1
    assert per_s["parent"] == {"q1": 100.0, "median": 100.0, "q3": 110.0}
    assert per_s["ratio"] == pytest.approx(1.15) and not per_s["worse"]
    assert per_s["gap_iqr"] == pytest.approx(1.5)  # (115 - 100) / (110 - 100)
    assert p50["ratio"] == pytest.approx(1.5 / 1.1) and p50["worse"]
    assert p50["gap_iqr"] < 0


def test_name_check_names_what_a_revision_lacks(tmp_path):
    for part in ("src", "bench"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=shutil.ignore_patterns("__pycache__", ".bench_out"))
    assert pairs._missing_names(tmp_path) == []
    library = tmp_path / "src" / "ordersat"
    with open(library / "closure.py", "a") as source:
        source.write("del amap_fm\n")
    assert pairs._missing_names(tmp_path) == [
        "bench/spans.py Tracer.install: AttributeError: module 'ordersat.closure' has no attribute 'amap_fm'"
    ]
    with open(library / "cli.py", "a") as source:
        source.write("del format_model\n")
    assert pairs._missing_names(tmp_path)[0] == "ordersat.cli.format_model"
