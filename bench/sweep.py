"""Growth sweep: per-layer cost of one workload family across sizes.

    python3 bench/sweep.py chain 50 100 200 400
    python3 bench/sweep.py ladder 4 6 8 10 12 --theory linear
    python3 bench/sweep.py sat-wide 150 300 1000 --max-seconds 30

For each size one seeded instance goes through solve, check and replay
with the tracer installed, once; the table has one column per size and one
row per layer metric, plus ``certs.nodes``, ``cert_bytes`` and the closure
and DNF counts, so growth orders can be read along a row.  Times are raw
milliseconds of a single run.  Sizes after the first whose run takes longer
than ``--max-seconds`` are skipped.  Not a gated workload: nothing here is
compared between commits automatically.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from run import Library, Tally, run_pass  # noqa: E402
from spans import LAYER_MS_METRICS, Tracer  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from workloads import Instance, chain_text, ladder_text, sat_wide_text  # noqa: E402

FAMILIES = {
    "chain": (chain_text, False),
    "ladder": (ladder_text, False),
    "sat-wide": (sat_wide_text, True),
}
COUNTS = ("rewrite.dnf_clauses", "closure.trancl.calls", "closure.pairs", "model.verify.calls")


def run_size(lib: Library, family: str, size: int, theory, seed: int) -> dict[str, float]:
    make, expected = FAMILIES[family]
    inst = Instance(make(random.Random(f"{seed}/sweep/{size}"), size), theory, expected, size)
    tracer, tally = Tracer(), Tally()
    tracer.install()
    try:
        run_pass(lib, [inst], tally, SpeedProbe(), tracer, keep_sizes=True)
    finally:
        tracer.uninstall()
    if tally.failed:
        raise SystemExit(f"size {size}: {tally.failures}")
    row = {f"{op}.ms": sum(tally.raw_ms(op)) for op in ("solve", "check", "replay")}
    row.update(tracer.layer_ms())
    row.update({name: tracer.counts.get(name, 0) for name in COUNTS})
    row["certs.nodes"] = sum(tally.cert_nodes)
    row["cert_bytes"] = sum(tally.cert_bytes)
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("family", choices=sorted(FAMILIES))
    parser.add_argument("sizes", type=int, nargs="+")
    parser.add_argument("--theory", choices=["partial", "linear"], default="partial")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--max-seconds", type=float, default=60.0)
    args = parser.parse_args(argv)

    lib = Library()
    theory = lib.core.Theory(args.theory)
    columns: dict[int, dict[str, float]] = {}
    for size in args.sizes:
        start = time.perf_counter()
        columns[size] = run_size(lib, args.family, size, theory, args.seed)
        if time.perf_counter() - start > args.max_seconds:
            print(f"# stopped after size {size}: over {args.max_seconds:g} s")
            break

    rows = ("solve.ms", "check.ms", "replay.ms", *LAYER_MS_METRICS, *COUNTS,
            "certs.nodes", "cert_bytes")
    print(f"# {args.family}, theory {args.theory}, seed {args.seed}")
    print(f"{'size':24s}" + "".join(f"{size:>14d}" for size in columns))
    for name in rows:
        print(f"{name:24s}" + "".join(f"{col[name]:14.3f}" for col in columns.values()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
