"""Frozen, seeded input generators for the benchmark workloads.

Each generator returns ``Instance`` records holding the formula text a user
would write, the theory to decide it in, and the answer known by
construction or, for ``mix``, from the brute-force oracle.  The
generators are copies owned by the benchmark, so later edits to the test
helpers cannot silently change a workload.

A run is a sequence of passes, each a fresh batch of instances drawn from
its own seeded stream, so no input repeats and no cache sees the same
formula twice.  Sizes are stratified rather than drawn at random: every pass
covers the same grid of sizes, theories alternating along it, and the seed
decides everything else (names, conjunct order, edge kinds, which literal
closes a cycle).  That keeps the latency distribution of a run the same
shape from seed to seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

from ordersat.core import ATOM_KINDS, And, Atom, Formula, Literal, Neg, Or, OrderAtom, Theory

THEORIES = (Theory.PARTIAL, Theory.LINEAR)


@dataclass(frozen=True)
class Instance:
    text: str
    theory: Theory
    expected_sat: bool
    size: int


# ---------------------------------------------------------------------------
# Rendering


_OP = {"le": "<=", "lt": "<", "eq": "="}


def render(f: Formula, names: list[str]) -> str:
    """Surface syntax for ``f``, fully parenthesised, in the given names."""
    if isinstance(f, Atom):
        a = f.lit.atom
        atom = f"{names[a.x]} {_OP[a.kind]} {names[a.y]}"
        return atom if f.lit.pos else f"~({atom})"
    if isinstance(f, And):
        return f"({render(f.left, names)} & {render(f.right, names)})"
    if isinstance(f, Or):
        return f"({render(f.left, names)} | {render(f.right, names)})"
    if isinstance(f, Neg):
        return f"~({render(f.arg, names)})"
    raise ValueError(f"not a formula node: {f!r}")


def _names(rng: random.Random, count: int) -> list[str]:
    """``count`` distinct identifiers in a seeded order."""
    ids = list(range(count))
    rng.shuffle(ids)
    return [f"{rng.choice('abcdefghpqrstuxyz')}{i}" for i in ids]


def _conjunction(parts: list[str]) -> str:
    return " & ".join(parts)


def _stratified(rng: random.Random, make, grid: list[int], expected: bool) -> list[Instance]:
    """One instance per grid entry, theories alternating along the grid."""
    out = [Instance(make(rng, n), THEORIES[i % 2], expected, n) for i, n in enumerate(grid)]
    rng.shuffle(out)
    return out


# An oracle takes (formula text, theory) pairs and says which are satisfiable.
Answer = Callable[[list[tuple[str, Theory]]], list[bool]]


# ---------------------------------------------------------------------------
# mix: the acceptance-criterion-2 distribution


def random_formula(rng: random.Random, max_depth: int = 4, num_vars: int = 4) -> Formula:
    """Random and/or/not tree over ``num_vars`` variables (frozen copy)."""
    if max_depth == 0 or rng.random() < 0.35:
        atom = OrderAtom(
            rng.choice(ATOM_KINDS), rng.randrange(num_vars), rng.randrange(num_vars)
        )
        return Atom(Literal(rng.random() < 0.5, atom))
    roll = rng.random()
    if roll < 0.4:
        return And(
            random_formula(rng, max_depth - 1, num_vars),
            random_formula(rng, max_depth - 1, num_vars),
        )
    if roll < 0.8:
        return Or(
            random_formula(rng, max_depth - 1, num_vars),
            random_formula(rng, max_depth - 1, num_vars),
        )
    return Neg(random_formula(rng, max_depth - 1, num_vars))


def dnf_clauses(f: Formula, positive: bool = True) -> int:
    """Clauses of the DNF the solver builds from ``f``, strict atoms expanded.

    A strict atom under an odd number of negations becomes a disjunction
    of two literals, in either theory; everything else maps to one clause.
    """
    if isinstance(f, Atom):
        return 2 if f.lit.atom.kind == "lt" and f.lit.pos != positive else 1
    if isinstance(f, Neg):
        return dnf_clauses(f.arg, not positive)
    left, right = dnf_clauses(f.left, positive), dnf_clauses(f.right, positive)
    return left * right if isinstance(f, And) == positive else left + right


def dnf_bucket(f: Formula) -> int:
    """Stratum of the DNF size of ``f``: 1, 2, 3-4, 5-8, 9-16, 17-32 or more clauses."""
    return min(6, (dnf_clauses(f) - 1).bit_length())


# Formulas of each (theory, satisfiable, DNF bucket) stratum in a mix pass of
# 500, as measured over 100,000 draws of random_formula.  Filling these quotas
# keeps the criterion-2 distribution while every pass holds the same mixture:
# certificate sizes are so spread out that without the quotas the median
# certificate of a run moves by a fifth from seed to seed.  The 0.8% of draws
# whose DNF has more than 32 clauses are left out: one of them sets a run's
# peak memory and p90 by itself, and ladder-unsat measures that growth on
# purpose.
MIX_QUOTAS = {
    ("partial", True, 0): 78.92, ("partial", True, 1): 38.60, ("partial", True, 2): 37.74,
    ("partial", True, 3): 37.81, ("partial", True, 4): 16.41, ("partial", True, 5): 4.56,
    ("partial", False, 0): 18.00, ("partial", False, 1): 5.34, ("partial", False, 2): 5.75,
    ("partial", False, 3): 3.95, ("partial", False, 4): 2.04, ("partial", False, 5): 0.87,
    ("linear", True, 0): 80.22, ("linear", True, 1): 38.37, ("linear", True, 2): 36.74,
    ("linear", True, 3): 37.51, ("linear", True, 4): 15.90, ("linear", True, 5): 4.49,
    ("linear", False, 0): 18.15, ("linear", False, 1): 5.64, ("linear", False, 2): 5.91,
    ("linear", False, 3): 4.17, ("linear", False, 4): 2.12, ("linear", False, 5): 0.81,
}
_MIX_NAMES = ["a", "b", "c", "d"]


def mix(rng: random.Random, index: int, answer: Answer) -> list[Instance]:
    """Pass ``index`` of random formulas, each stratum filled to its quota.

    Fractional quotas carry from pass to pass, so every stratum keeps its
    share over any run of passes.  Theories alternate over the draws.
    """
    want = {
        key: math.floor((index + 1) * quota) - math.floor(index * quota)
        for key, quota in MIX_QUOTAS.items()
    }
    out: list[Instance] = []
    drawn = 0
    while any(want.values()):
        batch = []
        for _ in range(500):
            f = random_formula(rng)
            batch.append((render(f, _MIX_NAMES), THEORIES[drawn % 2], dnf_bucket(f)))
            drawn += 1
        sat = answer([(text, theory) for text, theory, _ in batch])
        for (text, theory, bucket), is_sat in zip(batch, sat):
            key = (theory.value, is_sat, bucket)
            if want.get(key):
                want[key] -= 1
                out.append(Instance(text, theory, is_sat, 4))
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# chain-unsat: a cycle of <= / = edges closed by != or <


def chain_text(rng: random.Random, n: int) -> str:
    """Cycle over ``n`` variables, contradicted by one strict or != literal."""
    names = _names(rng, n)
    parts = []
    for i in range(n):
        x, y = names[i], names[(i + 1) % n]
        edge = rng.randrange(4)
        if edge == 0:
            parts.append(f"{x} <= {y}")
        elif edge == 1:
            parts.append(f"{y} >= {x}")
        else:
            parts.append(f"{x} = {y}" if edge == 2 else f"{y} = {x}")
    i, j = rng.sample(range(n), 2)
    parts.append(f"{names[i]} != {names[j]}" if rng.random() < 0.5 else f"{names[i]} < {names[j]}")
    rng.shuffle(parts)
    return _conjunction(parts)


def chain(rng: random.Random, grid: list[int]) -> list[Instance]:
    return _stratified(rng, chain_text, grid, False)


# ---------------------------------------------------------------------------
# ladder-unsat: k disjunctive rungs, every one collapsed by an equality


def ladder_text(rng: random.Random, k: int) -> str:
    """``k`` rungs each demanding x_i != x_{i+1}, plus x_i = x_{i+1} for all i."""
    names = _names(rng, k + 1)
    parts = []
    for i in range(k):
        x, y = names[i], names[i + 1]
        if rng.random() < 0.5:
            parts.append(f"({x} < {y} | {y} < {x})")
        else:
            parts.append(f"(({x} <= {y} & {x} != {y}) | ({y} <= {x} & {y} != {x}))")
        parts.append(f"{x} = {y}" if rng.random() < 0.5 else f"{y} = {x}")
    rng.shuffle(parts)
    return _conjunction(parts)


def ladder(rng: random.Random, grid: list[int]) -> list[Instance]:
    return _stratified(rng, ladder_text, grid, False)


# ---------------------------------------------------------------------------
# sat-wide: flat conjunctions true under a seeded assignment


def sat_wide_text(rng: random.Random, v: int) -> str:
    """About ``2 v`` literals over ``v`` variables, all true on a seeded chain.

    Each variable gets one of about ``v / 3`` levels; every literal holds
    when levels are compared as integers, so the conjunction is satisfiable
    over linear and therefore also over partial orders.
    """
    names = _names(rng, v)
    levels = max(1, v // 3)
    level = [rng.randrange(levels) for _ in range(v)]
    parts = []
    for _ in range(2 * v):
        i, j = rng.randrange(v), rng.randrange(v)
        x, y = names[i], names[j]
        if level[i] == level[j]:
            parts.append(rng.choice([f"{x} = {y}", f"{x} <= {y}", f"{y} >= {x}"]))
        else:
            if level[i] > level[j]:
                x, y = y, x
            parts.append(
                rng.choice([f"{x} <= {y}", f"{x} < {y}", f"{x} != {y}", f"~({y} <= {x})"])
            )
    return _conjunction(parts)


def sat_wide(rng: random.Random, grid: list[int]) -> list[Instance]:
    return _stratified(rng, sat_wide_text, grid, True)

# ---------------------------------------------------------------------------
# The workloads


@dataclass(frozen=True)
class Workload:
    why: str
    # (seeded stream, pass index, oracle) -> the instances of that pass.
    make_pass: Callable[[random.Random, int, Answer], list[Instance]]
    # Passes whose certificates set cert_bytes and the count metrics, and
    # after which peak memory is read, so those repeat for a seed however
    # many passes a run makes.
    count_passes: int


WORKLOADS = {
    "mix": Workload(
        "acceptance-criterion-2 traffic: small random formulas, 86% Sat; "
        "per-call overhead and certificate parsing dominate, closure is trivial",
        mix,
        8,
    ),
    "chain-unsat": Workload(
        "cyclic <=/= chains closed by != or <: transitive closure dominates "
        "solving, certificates are deep conje and trans chains",
        lambda rng, _index, _answer: chain(rng, list(range(26, 74, 2))),
        2,
    ),
    "ladder-unsat": Workload(
        "disjunctive ladders collapsed by equalities: 2^k DNF clauses load "
        "rewrite, the self-check, certificate parsing and replay",
        lambda rng, _index, _answer: ladder(rng, [3] * 8 + [4] * 8 + [5] * 4),
        2,
    ),
    "sat-wide": Workload(
        "wide satisfiable conjunctions: model construction and verification "
        "dominate and no certificate is built",
        lambda rng, _index, _answer: sat_wide(rng, list(range(100, 204, 4))),
        1,
    ),
}
