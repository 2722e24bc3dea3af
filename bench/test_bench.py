"""Tests of the benchmark's own parts: generators, tracer and checks.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import hashlib
import importlib
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads as W  # noqa: E402
from ordersat.cli import parse_input  # noqa: E402
from ordersat.core import Theory  # noqa: E402
from ordersat.oracle import brute_sat  # noqa: E402
from run import Library, Tally, gate_models, pass_instances, run_pass  # noqa: E402
from spans import LAYER_OF_SPAN, Tracer  # noqa: E402
from speed import REFERENCE_S, SpeedProbe  # noqa: E402

THEORIES = (Theory.PARTIAL, Theory.LINEAR)


def oracle(pairs):
    return [brute_sat(parse_input(text)[0], theory) for text, theory in pairs]


@pytest.mark.parametrize(
    "make, sizes, expected",
    [
        (W.chain_text, (2, 3, 4), False),
        (W.ladder_text, (1, 2, 3), False),
        (W.sat_wide_text, (2, 3, 4), True),
    ],
)
def test_claimed_answer_matches_the_oracle_in_both_theories(make, sizes, expected):
    rng = random.Random(0)
    for size in sizes:
        for _ in range(40):
            text = make(rng, size)
            formula, table = parse_input(text)
            assert len(table) <= 4
            for theory in THEORIES:
                assert brute_sat(formula, theory) == expected, text


def test_rendering_keeps_the_meaning_of_mix_formulas():
    rng = random.Random(0)
    for _ in range(300):
        f = W.random_formula(rng)
        parsed, _ = parse_input(W.render(f, ["a", "b", "c", "d"]))
        for theory in THEORIES:
            assert brute_sat(parsed, theory) == brute_sat(f, theory)


def test_mix_passes_fill_the_strata_quotas():
    rng = random.Random(0)
    instances = W.mix(rng, 0, oracle)
    assert abs(len(instances) - 500) <= len(W.MIX_QUOTAS)
    unsat = sum(not i.expected_sat for i in instances)
    assert unsat == sum(int(q) for (_, sat, _), q in W.MIX_QUOTAS.items() if not sat)
    assert all(W.dnf_bucket(parse_input(i.text)[0]) <= 5 for i in instances)
    for inst in instances[:50]:
        assert brute_sat(parse_input(inst.text)[0], inst.theory) == inst.expected_sat


# Digests of pass 0 for seed 1: a changed generator changes its workload.
FROZEN = {
    "chain-unsat": "576934392387",
    "ladder-unsat": "3e05bb5d7ead",
    "mix": "03af6fa217ca",
    "sat-wide": "d7e0083f2a81",
}


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_workload_inputs_are_frozen(name):
    instances = pass_instances(W.WORKLOADS[name], 1, "run", 0, oracle)
    again = pass_instances(W.WORKLOADS[name], 1, "run", 0, oracle)
    assert instances == again
    text = "\n".join(f"{i.theory.value} {i.expected_sat} {i.text}" for i in instances)
    assert hashlib.sha256(text.encode()).hexdigest()[:12] == FROZEN[name]


def _small_instances():
    rng = random.Random(3)
    chain = W.Instance(W.chain_text(rng, 6), Theory.LINEAR, False, 6)
    ladder = W.Instance(W.ladder_text(rng, 2), Theory.PARTIAL, False, 2)
    wide = W.Instance(W.sat_wide_text(rng, 9), Theory.LINEAR, True, 9)
    return [chain, ladder, wide]


def test_tracer_restores_every_name_it_rebinds():
    modules = [importlib.import_module(f"ordersat.{m}")
               for m in ("cli", "closure", "certs", "sexpr", "replay", "model")]
    before = [dict(vars(m)) for m in modules]
    closure = modules[1]
    algorithms = dict(closure._CLOSURE_ALGORITHMS)
    tracer = Tracer()
    tracer.install()
    assert closure.decide is not before[1]["decide"]
    tracer.uninstall()
    assert [dict(vars(m)) for m in modules] == before
    assert closure._CLOSURE_ALGORITHMS == algorithms


def test_traced_pass_records_nested_spans_and_counts():
    lib, tracer, tally = Library(), Tracer(), Tally()
    tracer.install()
    try:
        run_pass(lib, _small_instances(), tally, SpeedProbe(), tracer, keep_sizes=True)
    finally:
        tracer.uninstall()
    gate_models(lib, tally)
    assert tally.failed == 0 and tally.instances == 3
    names = [span[3] for span in tracer.spans]
    # Recursive functions open one span per outermost call.
    assert names.count("certs.serialize") == 2
    assert names.count("closure.contr_fm_prf") == 3
    assert names.count("closure.decide") == 3
    for sid, parent, root, _name, start, end in tracer.spans:
        assert start <= end
        if parent >= 0:
            outer = tracer.spans[parent]
            assert outer[4] <= start and end <= outer[5] and outer[2] == root
    # Self times add up to the time of the benchmark's own operations.
    total = sum(ms for ms in tracer.self_ms().values())
    ops = sum((s[5] - s[4]) * 1000 for s in tracer.spans if s[1] < 0)
    assert total == pytest.approx(ops)
    assert set(tracer.layer_ms()) == set(LAYER_OF_SPAN.values())
    assert tracer.counts["closure.trancl.calls"] >= 3
    assert tracer.counts["model.verify.calls"] == 3  # one linear Sat instance
    assert len(tally.cert_nodes) == 2


def test_gate_rejects_a_model_that_breaks_the_formula():
    lib = Library()
    formula, table = parse_input("x < y")
    assert lib.model_holds(formula, table, Theory.LINEAR,
                           "carrier 0 1\nassign x 0\nassign y 1\nrel 0 0\nrel 0 1\nrel 1 1\n")
    assert not lib.model_holds(formula, table, Theory.LINEAR,
                               "carrier 0 1\nassign x 1\nassign y 0\nrel 0 0\nrel 0 1\nrel 1 1\n")
    # Not total, so no linear order.
    assert not lib.model_holds(parse_input("x <= x")[0], table, Theory.LINEAR,
                               "carrier 0 1\nassign x 0\nrel 0 0\nrel 1 1\n")


def test_wrong_verdicts_and_rejected_certificates_count_as_failures():
    lib, tally = Library(), Tally()
    liar = W.Instance("x <= y & y <= x & x != y", Theory.PARTIAL, True, 2)
    run_pass(lib, [liar], tally, SpeedProbe())
    assert tally.failed == 1 and not tally.samples["solve"]
    lib.check_structured = lambda formula, text: False
    tally = Tally()
    run_pass(lib, [W.Instance(liar.text, Theory.PARTIAL, False, 2)], tally, SpeedProbe())
    assert tally.failed == 1 and not tally.samples["check"] and len(tally.samples["replay"]) == 1


def test_probe_scales_to_the_reference_speed():
    probe = SpeedProbe()
    probe.durations = [2 * REFERENCE_S] * 5 + [REFERENCE_S] * 10
    assert probe.scale(0) == pytest.approx(0.5)
    assert probe.scale(14) == pytest.approx(1.0)
