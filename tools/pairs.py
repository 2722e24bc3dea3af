"""Paired benchmark runs of this checkout's ``src/`` against another revision's.

    python3 tools/pairs.py --against REV [--seeds A-B]

``REV``'s ``src/`` is extracted from the local repository with ``git
archive`` into a temporary tree, and this checkout's ``bench/`` is copied
next to it, so both sides run the same harness and only ``src/`` differs.
Before any run, a child process checks that ``REV``'s library has every
name the harness calls (``bench/run.py``'s library calls and the names
``bench/spans.py`` rebinds); if one is missing, the script stops and names
it.

There is one pair per seed of ``--seeds`` (default ``1-10``).  Each pair
runs ``bench/run.py --trace 0`` once per side on each gated workload of
``BENCHMARK.json``, for its ``run_seconds``, with the pair's own seed; the
side that goes first alternates from pair to pair, and workloads are
interleaved within a pair, so drift in the machine's speed falls on both
sides alike.  For each workload and each end-to-end metric of
``BENCHMARK.json`` the report gives both medians and quartiles, the ratio
of the medians, in how many pairs the change was better, and the gap
between the medians in the better direction as a multiple of the parent's
interquartile range.  A metric whose change median is worse than the
parent's by more than its bound is flagged ``WORSE``.  The last line of standard output is the same table as one JSON object.

It is a report, not a gate: it exits 0 unless a run fails, reports an
incorrect answer or lacks an end-to-end metric (1), or the revision cannot
be set up (2).  It uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def benchmark_spec() -> dict:
    """This checkout's ``BENCHMARK.json``: the gated workloads and end-to-end metrics."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# Run in a child with REV's ``src/`` and the copied ``bench/`` on the path:
# prints each name the harness calls that the library lacks, one a line.
_NAME_CHECK = """
import importlib, re, sys
src, bench = sys.argv[1:3]
sys.path[:0] = [src, bench]
missing = []
calls = set(re.findall(r"\\b(?:self|lib)\\.(cli|closure|certs|replay|core)\\.([A-Za-z]\\w*)", open(bench + "/run.py").read()))
for module, name in sorted(calls):
    if not hasattr(importlib.import_module("ordersat." + module), name):
        missing.append(f"ordersat.{module}.{name}")
import spans
tracer = spans.Tracer()
try:
    tracer.install()
except (AttributeError, KeyError) as exc:
    missing.append(f"bench/spans.py Tracer.install: {type(exc).__name__}: {exc}")
tracer.uninstall()
print("\\n".join(missing))
"""


def _extract(rev: str, into: Path) -> str:
    """``rev``'s ``src/`` under ``into``, with this checkout's ``bench/`` beside it; the commit."""
    commit = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", f"{rev}^{{commit}}"],
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    archive = into.parent / "src.tar"
    subprocess.run(["git", "-C", str(ROOT), "archive", "-o", str(archive), commit, "src"], check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(into)
    shutil.copytree(ROOT / "bench", into / "bench", ignore=shutil.ignore_patterns("__pycache__", ".bench_out"))
    shutil.copy(ROOT / "BENCHMARK.json", into / "BENCHMARK.json")
    return commit


def _missing_names(tree: Path) -> list[str]:
    done = subprocess.run(
        [sys.executable, "-I", "-c", _NAME_CHECK, str(tree / "src"), str(tree / "bench")],
        capture_output=True, text=True,
    )
    if done.returncode != 0:
        return [f"the name check exited {done.returncode}: {done.stderr.strip()[-2000:]}"]
    return [line for line in done.stdout.splitlines() if line]


def _run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py --trace 0`` run in ``tree``: its JSON line, with an ``error`` if it failed."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=tree,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {"error": f"exit {done.returncode}: {done.stderr.strip()[-2000:]}"}
    result = json.loads(lines[-1])
    if not result["correct"]:
        failures = [line for line in lines if line.startswith("FAILED:")]
        result["error"] = f"{result['failed']} of {result['attempted']} operations failed: {failures[:3]}"
    metrics = benchmark_spec()["end_to_end"]
    lacking = [metric["name"] for metric in metrics if metric["name"] not in result["metrics"]]
    if lacking:
        result.setdefault("error", f"its report lacks {', '.join(lacking)}")
    return result


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(runs: dict[str, list[tuple[dict, dict]]], metrics: list[dict]) -> dict:
    """The report table: per workload, per end-to-end metric, the paired comparison.

    ``runs`` maps a workload to its pairs of ``(parent, change)`` metric
    objects as ``bench/run.py`` prints them, and ``metrics`` are the
    ``end_to_end`` entries of ``BENCHMARK.json``; every run has each of them.
    """
    table: dict[str, dict] = {}
    for workload, pairs in runs.items():
        rows = {}
        for metric in metrics:
            name, higher = metric["name"], metric["better"] == "higher"
            old = [pair[0][name]["value"] for pair in pairs]
            new = [pair[1][name]["value"] for pair in pairs]
            old_q, new_q = _quartiles(old), _quartiles(new)
            gain = (new_q[1] - old_q[1]) if higher else (old_q[1] - new_q[1])
            iqr = old_q[2] - old_q[0]
            ratio = new_q[1] / old_q[1] if old_q[1] else None
            bound = metric["bound"]
            worse = ratio is not None and (ratio < 1 - bound if higher else ratio > 1 + bound)
            rows[name] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "parent": {"q1": old_q[0], "median": old_q[1], "q3": old_q[2]},
                "change": {"q1": new_q[0], "median": new_q[1], "q3": new_q[2]},
                "ratio": ratio,
                "wins": sum((b > a) if higher else (b < a) for a, b in zip(old, new)),
                "pairs": len(pairs),
                "gap_iqr": gain / iqr if iqr else None,
                "worse": worse,
            }
        table[workload] = rows
    return table


def _print_table(table: dict) -> None:
    for workload, rows in table.items():
        print(f"{workload}:")
        print(f"  {'metric':14s} {'parent q1/med/q3':>30s} {'change q1/med/q3':>30s} "
              f"{'ratio':>7s} {'wins':>6s} {'gap/IQR':>8s}")
        for name, row in rows.items():
            old, new = row["parent"], row["change"]
            ratio = "n/a" if row["ratio"] is None else f"{row['ratio']:.3f}"
            gap = "n/a" if row["gap_iqr"] is None else f"{row['gap_iqr']:.1f}"
            print(f"  {name:14s} {old['q1']:10.4g}{old['median']:10.4g}{old['q3']:10.4g} "
                  f"{new['q1']:10.4g}{new['median']:10.4g}{new['q3']:10.4g} {ratio:>7s} "
                  f"{row['wins']:>3d}/{row['pairs']:<2d} {gap:>8s}{'  WORSE' if row['worse'] else ''}")


def _seed_range(text: str) -> list[int]:
    match = re.fullmatch(r"(\d+)-(\d+)", text)
    if not match or int(match[1]) > int(match[2]):
        raise argparse.ArgumentTypeError(f"expected A-B with A <= B, got {text!r}")
    return list(range(int(match[1]), int(match[2]) + 1))


def pairs(rev: str, seeds: list[int], seconds: float, workloads: list[str]) -> int:
    """Run one pair per seed against ``rev``, print the report; the exit code."""
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        tree = Path(tmp) / "tree"
        try:
            commit = _extract(rev, tree)
        except subprocess.CalledProcessError as exc:
            print(f"error: cannot extract src/ of {rev!r}: {exc}", file=sys.stderr)
            return 2
        missing = _missing_names(tree)
        if missing:
            print(f"error: {rev}'s src/ lacks names the harness calls:", *missing, sep="\n  ", file=sys.stderr)
            return 2
        sides = {"parent": tree, "change": ROOT}
        runs: dict[str, list[tuple[dict, dict]]] = {workload: [] for workload in workloads}
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for workload in workloads:
                result = {side: _run(sides[side], workload, seed, seconds) for side in order}
                for side in order:
                    if "error" in result[side]:
                        print(f"error: {side} run of {workload}, seed {seed}: {result[side]['error']}",
                              file=sys.stderr)
                        return 1
                runs[workload].append((result["parent"]["metrics"], result["change"]["metrics"]))
                print(f"pair {i + 1}/{len(seeds)} seed {seed} {workload}: done", file=sys.stderr, flush=True)
    table = summarize(runs, benchmark_spec()["end_to_end"])
    print(f"pairs against {rev} ({commit[:12]}): {len(seeds)} pairs of {seconds:g} s, seeds "
          f"{seeds[0]}-{seeds[-1]}, parent first in odd pairs")
    _print_table(table)
    print(json.dumps({"against": rev, "commit": commit, "pairs": len(seeds), "seconds": seconds,
                      "seeds": seeds, "workloads": table}))
    return 0


def main(argv: list[str] | None = None) -> int:
    spec = benchmark_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REV", required=True, help="revision whose src/ is the parent")
    parser.add_argument("--seeds", type=_seed_range, default="1-10", metavar="A-B",
                        help="one pair per seed (default 1-10)")
    args = parser.parse_args(argv)
    workloads = [workload["name"] for workload in spec["workloads"]]
    return pairs(args.against, args.seeds, spec["run_seconds"], workloads)


if __name__ == "__main__":
    sys.exit(main())
