"""Benchmark of the ordersat library, end to end and layer by layer.

    python3 bench/run.py --workload mix --seed 1 --seconds 30 --trace 0

One process, one caller, closed loop, no threads: each formula goes from
text to verdict and witness text, and each certificate is then checked by
the structured kernel and by export and replay, all through the library's
public entry points.  ``--trace 0`` prints the end-to-end metrics and
``--trace 1`` the per-layer ones.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it repeat the figures for a reader, with the
raw latencies beside the speed-scaled ones (see ``speed.py``).

Every output is checked outside the timed region: verdicts against the
answer known by construction (the brute-force oracle for ``mix``), every
certificate against both kernels, every model against the original formula
under the order axioms.  Run from the root of a checkout that holds
``src/ordersat``; without it the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 5
# Every operation with samples gets at least this many, so that its p90 has
# ten or more samples beyond it.
MIN_SAMPLES = 110
WARMUP_INSTANCES = 2
OPS = ("solve", "check", "replay")


# ---------------------------------------------------------------------------
# The measured operations


class Library:
    """The library modules, looked up by attribute at every call.

    Calling through the module attribute is what lets the tracer rebind a
    function without editing the library.
    """

    def __init__(self) -> None:
        for name in ("cli", "closure", "certs", "replay", "core"):
            setattr(self, name, importlib.import_module(f"ordersat.{name}"))

    def solve(self, text: str, theory):
        """Text to verdict plus witness text, as ``ordersat solve`` does."""
        formula, table = self.cli.parse_input(text)
        verdict = self.closure.decide(formula, theory)
        if isinstance(verdict, self.closure.Unsat):
            witness = self.certs.serialize_cert(verdict.certificate)
        else:
            witness = self.cli.format_model(verdict.model, table)
        return formula, table, verdict, witness

    def check_structured(self, formula, cert_text: str) -> bool:
        """What ``ordersat check --kernel structured`` does after reading files."""
        cert = self.certs.parse_cert(cert_text)
        return self.certs.check_prop_proof({formula}, cert) == self.certs.FLS_FORMULA

    def check_replay(self, formula, cert_text: str) -> bool:
        """What ``ordersat check --kernel replay`` does after reading files."""
        cert = self.certs.parse_cert(cert_text)
        return self.replay.replay_refutation(self.replay.export(cert, formula), formula)

    def model_holds(self, formula, table, theory, model_text: str) -> bool:
        """Independent check of a printed model against the original formula."""
        carrier: list[int] = []
        assignment: dict[int, int] = {}
        pairs = []
        for line in model_text.splitlines():
            head, *rest = line.split()
            if head == "carrier":
                carrier = [int(c) for c in rest]
            elif head == "assign":
                assignment[table.intern(rest[0])] = int(rest[1])
            elif head == "rel":
                pairs.append((int(rest[0]), int(rest[1])))
        core = self.core
        relation = core.Relation.make(carrier, pairs)
        props = core.relation_props(relation)
        if not (props.refl and props.trans and props.antisym):
            return False
        if theory is core.Theory.LINEAR and not props.total:
            return False
        try:
            return core.eval_formula(relation, assignment, formula)
        except core.EvaluationError:
            return False


# ---------------------------------------------------------------------------
# Inputs and their known answers


def pass_instances(workload, seed: int, stream: str, index: int, oracle):
    return workload.make_pass(random.Random(f"{seed}/{stream}/{index}"), index, oracle)


class OracleProcess:
    """The brute-force oracle, in a child process of its own.

    Called with (formula text, theory) pairs, it says which are satisfiable.
    Its cost stays out of the benchmark process, its tables out of peak
    memory, and the seconds spent waiting for it are kept in ``waited``.
    """

    def __init__(self) -> None:
        self._child = None
        self.waited = 0.0

    def __call__(self, pairs) -> list[bool]:
        start = time.perf_counter()
        if self._child is None:
            self._child = subprocess.Popen(
                [sys.executable, "-I", str(HERE / "oracle_child.py"), str(SRC)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            )
        self._child.stdin.write(json.dumps([[text, theory.value] for text, theory in pairs]) + "\n")
        self._child.stdin.flush()
        line = self._child.stdout.readline()
        if not line:
            raise RuntimeError("the oracle process ended early")
        self.waited += time.perf_counter() - start
        return json.loads(line)

    def close(self) -> None:
        if self._child is not None:
            self._child.stdin.close()
            self._child.wait(timeout=60)
            self._child.stdout.close()


# ---------------------------------------------------------------------------
# Running passes


@dataclass
class Tally:
    # Per operation: (raw latency in ms, index of the speed probe before it).
    samples: dict[str, list[tuple[float, int]]] = field(
        default_factory=lambda: {op: [] for op in OPS})
    cert_bytes: list[int] = field(default_factory=list)
    cert_nodes: list[int] = field(default_factory=list)
    instances: int = 0
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    # (formula, table, theory, model text) of each Sat verdict, checked later.
    models: list[tuple] = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(what)

    def raw_ms(self, op: str) -> list[float]:
        return [ms for ms, _ in self.samples[op]]

    def scaled_ms(self, op: str, probe) -> list[float]:
        return [ms * probe.scale(index) for ms, index in self.samples[op]]


def timed(tally: Tally, op: str, probe, tracer, fn, *args):
    """Run one operation and record its latency; on an exception count it failed."""
    tally.attempted += 1
    index = probe.mark()
    sid = tracer.open(f"op.{op}") if tracer else None
    t0 = time.perf_counter()
    try:
        result = fn(*args)
    except Exception as exc:  # noqa: BLE001 - a failure to count, not to stop on
        tally.fail(f"{op} raised {exc!r}")
        return None
    finally:
        t1 = time.perf_counter()
        if tracer:
            tracer.close(sid)
    tally.samples[op].append(((t1 - t0) * 1000.0, index))
    return result


def run_pass(lib, instances, tally: Tally, probe, tracer=None, keep_sizes=False) -> None:
    """Solve every instance, then check and replay its certificate.

    A failed operation is counted and gives no latency.  ``keep_sizes``
    records certificate bytes and nodes.
    """
    for inst in instances:
        tally.instances += 1
        solved = timed(tally, "solve", probe, tracer, lib.solve, inst.text, inst.theory)
        if solved is None:
            continue
        formula, table, verdict, witness = solved
        unsat = isinstance(verdict, lib.closure.Unsat)
        if unsat == inst.expected_sat:
            tally.samples["solve"].pop()
            tally.fail(f"wrong verdict {'unsat' if unsat else 'sat'} on {inst.text[:80]!r}")
            continue
        if not unsat:
            tally.models.append((formula, table, inst.theory, witness))
            continue
        if keep_sizes:
            tally.cert_bytes.append(len(witness))
            tally.cert_nodes.append(lib.certs.cert_size(verdict.certificate))
        for op, kernel in (("check", lib.check_structured), ("replay", lib.check_replay)):
            if timed(tally, op, probe, tracer, kernel, formula, witness) is False:
                tally.samples[op].pop()
                tally.fail(f"{op} kernel rejected the certificate of {inst.text[:80]!r}")


def gate_models(lib: Library, tally: Tally) -> None:
    """Every model against the original formula; runs outside the timed loop."""
    for formula, table, theory, text in tally.models:
        if not lib.model_holds(formula, table, theory, text):
            tally.fail(f"model fails the independent check: {text[:80]!r}")
    tally.models.clear()


def enough(workload, tally: Tally, index: int, elapsed: float, seconds: float) -> bool:
    """Stop after the whole pass that ends nearest ``seconds``.

    The first ``count_passes`` passes always run, so the size and count
    metrics cover the same inputs in every run with the same seed, and so
    do the passes needed for ``MIN_SAMPLES``.
    """
    short = any(0 < len(samples) < MIN_SAMPLES for samples in tally.samples.values())
    return (index >= workload.count_passes and not short
            and elapsed + elapsed / index / 2 >= seconds)


def measure(lib, oracle, probe, workload, seed: int, seconds: float):
    tally = Tally()
    start = time.perf_counter()
    index = 0
    while True:
        instances = pass_instances(workload, seed, "run", index, oracle)
        run_pass(lib, instances, tally, probe, keep_sizes=index < workload.count_passes)
        gate_models(lib, tally)
        index += 1
        if index == workload.count_passes:
            tally.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        elapsed = time.perf_counter() - start
        if enough(workload, tally, index, elapsed, seconds):
            probe.sample()
            return tally, elapsed


def measure_traced(lib, oracle, probe, workload, seed: int, seconds: float, name: str):
    """Every instance twice, once traced and once not, in alternating order.

    The untraced runs give the baseline for the tracing overhead; the
    alternation spreads the benefit of running second over both sides.  The
    spans are written to ``.bench_out`` at the end.
    """
    from spans import Tracer

    tracer = Tracer()
    plain, traced = Tally(), Tally()
    ratios: dict[str, list[float]] = {op: [] for op in OPS}
    start = time.perf_counter()
    index = 0
    while True:
        instances = pass_instances(workload, seed, "run", index, oracle)
        keep = index < workload.count_passes
        for i, inst in enumerate(instances):
            before = {op: (len(plain.samples[op]), len(traced.samples[op])) for op in OPS}
            for with_spans in (i % 2 == 0, i % 2 == 1):
                if not with_spans:
                    run_pass(lib, [inst], plain, probe)
                    continue
                tracer.install()
                try:
                    run_pass(lib, [inst], traced, probe, tracer, keep_sizes=keep)
                finally:
                    tracer.uninstall()
            for op, (n_plain, n_traced) in before.items():
                if len(plain.samples[op]) > n_plain and len(traced.samples[op]) > n_traced:
                    ratios[op].append(traced.samples[op][-1][0] / plain.samples[op][-1][0])
        gate_models(lib, plain)
        gate_models(lib, traced)
        index += 1
        if index == workload.count_passes:
            counts, counted = dict(tracer.counts), traced.instances
        elapsed = time.perf_counter() - start
        if enough(workload, traced, index, elapsed, seconds):
            probe.sample()
            break
    tracer.write(OUT / f"trace-{name}-{seed}.jsonl")
    metrics = layer_metrics(tracer, traced, ratios, probe, counts, counted)
    tally = Tally(attempted=plain.attempted + traced.attempted,
                  failed=plain.failed + traced.failed,
                  failures=plain.failures + traced.failures)
    return tally, metrics, elapsed


# ---------------------------------------------------------------------------
# Set-up time and CLI parity, both outside the measured loop


def time_import() -> float:
    """Seconds to import the package in a fresh interpreter."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import ordersat; print(time.perf_counter() - t)"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-c", code, str(SRC)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return float(done.stdout)


def measure_setup(lib: Library, oracle, workload, seed: int) -> float:
    """Median over repeats of import + one pass of generation + warm-up ops.

    Each repeat draws its own instances, so warm-up never hits inputs a
    previous repeat already saw.  Time spent waiting for the oracle is not
    counted.
    """
    totals = []
    for rep in range(SETUP_REPEATS):
        imported = time_import()
        start, waited = time.perf_counter(), oracle.waited
        instances = pass_instances(workload, seed, "setup", rep, oracle)
        for inst in sorted(instances, key=lambda i: i.size)[:WARMUP_INSTANCES]:
            formula, _table, verdict, witness = lib.solve(inst.text, inst.theory)
            if isinstance(verdict, lib.closure.Unsat):
                lib.check_structured(formula, witness)
                lib.check_replay(formula, witness)
        totals.append(imported + time.perf_counter() - start - (oracle.waited - waited))
    return statistics.median(totals)


def cli_parity(lib: Library, oracle, workload, seed: int, name: str, tally: Tally) -> None:
    """Run the first Sat and first Unsat instance of a pass through the CLI.

    The verdict, exit code 0, the witness file and ``ok`` from both kernels
    must agree with the library path, so that library timings describe what
    a CLI user gets.
    """
    chosen = {}
    for inst in pass_instances(workload, seed, "parity", 0, oracle):
        _formula, _table, verdict, witness = lib.solve(inst.text, inst.theory)
        chosen.setdefault(isinstance(verdict, lib.closure.Unsat), (inst, witness))
    workdir = OUT / f"parity-{name}-{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        for unsat, (inst, witness) in sorted(chosen.items()):
            goal = workdir / "goal.txt"
            goal.write_text(inst.text + "\n", encoding="utf-8")
            out = workdir / ("proof.cert" if unsat else "model.txt")
            flag = "--cert" if unsat else "--model"
            commands = [(["solve", str(goal), "--theory", inst.theory.value, flag, str(out)],
                         "unsat" if unsat else "sat")]
            if unsat:
                commands += [(["check", str(out), "--goal", str(goal), "--kernel", kernel], "ok")
                             for kernel in ("structured", "replay")]
            for args, expect in commands:
                tally.attempted += 1
                done = subprocess.run(
                    [sys.executable, "-m", "ordersat.cli", *args],
                    capture_output=True, text=True, timeout=120, cwd=ROOT,
                    env=dict(os.environ, PYTHONPATH=str(SRC)),
                )
                if done.returncode != 0 or done.stdout.strip() != expect:
                    tally.fail(f"cli {args[0]} gave {done.returncode} {done.stdout.strip()!r}")
                elif args[0] == "solve" and out.read_text(encoding="utf-8").strip() != witness.strip():
                    tally.fail(f"cli wrote a different {flag[2:]} than the library")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# ---------------------------------------------------------------------------
# Metrics


def percentile(samples: list[float], q: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def geomean(values: list[int]) -> float:
    """Geometric mean, or 0 without values.

    Certificate sizes span three orders of magnitude on ``mix``, where a few
    100 KB certificates move the arithmetic mean of a run by a sixth from
    seed to seed; the geometric mean follows every certificate's size alike.
    """
    return statistics.geometric_mean(values) if values else 0.0


def end_to_end(tally: Tally, probe, setup_s: float) -> dict[str, tuple[float, str]]:
    """Latencies at reference speed; a metric without samples is left out."""
    solve = tally.scaled_ms("solve", probe)
    metrics = {
        "solve_per_s": (1000.0 * len(solve) / sum(solve), "1/s"),
        "solve_ms_p50": (percentile(solve, 50), "ms"),
        "solve_ms_p90": (percentile(solve, 90), "ms"),
    }
    for op in ("check", "replay"):
        scaled = tally.scaled_ms(op, probe)
        if scaled:
            metrics[f"{op}_ms_p50"] = (percentile(scaled, 50), "ms")
            metrics[f"{op}_ms_p90"] = (percentile(scaled, 90), "ms")
    if tally.cert_bytes:
        metrics["cert_bytes"] = (geomean(tally.cert_bytes), "bytes")
    # Read after the first count_passes passes: the replay kernel's caches
    # keep growing with every new formula, so a later reading would depend
    # on how many passes the machine's speed allowed.
    metrics["peak_rss_mb"] = (tally.peak_rss_mb, "MB")
    metrics["setup_s"] = (setup_s, "s")
    return metrics


def layer_metrics(tracer, traced: Tally, ratios: dict, probe, counts: dict, counted: int):
    """Per-layer self times and counts, each per instance unless noted.

    Times cover every traced pass, taken to reference speed by the traced
    operations' mean scale.  Counts cover the first ``count_passes`` traced
    passes (``counted`` instances), so they repeat exactly for a seed.
    ``certs.nodes`` and ``certs.bytes`` are per certificate,
    ``model.carrier`` per model built and ``closure.calls_per_clause`` per
    DNF clause.
    """
    raw = sum(sum(traced.raw_ms(op)) for op in OPS)
    scale = sum(sum(traced.scaled_ms(op, probe)) for op in OPS) / raw
    metrics: dict[str, tuple[float, str]] = {
        layer: (ms * scale / traced.instances, "ms") for layer, ms in tracer.layer_ms().items()
    }
    clauses = counts.get("rewrite.dnf_clauses", 0)
    calls = counts.get("closure.trancl.calls", 0)
    built = counts.get("model.built", 0)
    metrics.update({
        "rewrite.dnf_clauses": (clauses / counted, "count"),
        "rewrite.dnf_literals": (counts.get("rewrite.dnf_literals", 0) / counted, "count"),
        "closure.trancl.calls": (calls / counted, "count"),
        "closure.pairs": (counts.get("closure.pairs", 0) / counted, "count"),
        "closure.calls_per_clause": (calls / clauses if clauses else 0.0, "ratio"),
        "certs.nodes": (geomean(traced.cert_nodes), "count"),
        "certs.bytes": (geomean(traced.cert_bytes), "bytes"),
        "model.verify.calls": (counts.get("model.verify.calls", 0) / counted, "count"),
        "model.carrier": (counts.get("model.carrier", 0) / built if built else 0.0, "count"),
        "trace.spans": (len(tracer.spans) / traced.instances, "count"),
    })
    # Tracing overhead: the median over instances of traced over untraced
    # latency of each operation; medians, because a few large certificates
    # would otherwise decide the figure.
    for op in OPS:
        overhead = 100.0 * (statistics.median(ratios[op]) - 1.0) if ratios[op] else 0.0
        metrics[f"trace.overhead.{op}_pct"] = (overhead, "%")
    return metrics


def raw_lines(tally: Tally, probe, reference_s: float) -> list[str]:
    """Sample counts and unscaled latencies, for the reader."""
    lines = [f"reference loop: median {1000 * statistics.median(probe.durations):.4f} ms "
             f"over {len(probe.durations)} probes, scaled to {1000 * reference_s:.4f} ms"]
    for op in OPS:
        raw = tally.raw_ms(op)
        if raw:
            lines.append(f"{op}: {len(raw)} samples, raw p50 {percentile(raw, 50):.4f} ms, "
                         f"raw p90 {percentile(raw, 90):.4f} ms")
    lines.append(f"certificates sized: {len(tally.cert_bytes)}")
    return lines


# ---------------------------------------------------------------------------
# Entry point


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ordersat" / "__init__.py").is_file():
        print(f"error: no library source at {SRC / 'ordersat'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    from speed import REFERENCE_S, SpeedProbe
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    lib = Library()
    if not Path(lib.cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported ordersat from {lib.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    probe = SpeedProbe()
    oracle = OracleProcess()
    try:
        pass_instances(workload, args.seed, "warm", 0, oracle)  # fills the oracle's tables
        if args.trace:
            tally, metrics, elapsed = measure_traced(lib, oracle, probe, workload, args.seed,
                                                     args.seconds, args.workload)
            details = []
        else:
            setup_s = measure_setup(lib, oracle, workload, args.seed)
            tally, elapsed = measure(lib, oracle, probe, workload, args.seed, args.seconds)
            metrics = end_to_end(tally, probe, setup_s)
            details = raw_lines(tally, probe, REFERENCE_S)
        cli_parity(lib, oracle, workload, args.seed, args.workload, tally)
    finally:
        oracle.close()

    print(f"workload {args.workload} seed {args.seed}: {elapsed:.1f} s measured, "
          f"{tally.attempted} operations, {tally.failed} failed "
          f"(fail_ratio {tally.failed / tally.attempted:.6f})")
    for line in details:
        print(line)
    for failure in tally.failures:
        print(f"FAILED: {failure}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.4f} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
