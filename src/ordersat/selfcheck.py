"""Exhaustive agreement harness: the solver against the brute-force oracle.

Enumerates every clause up to a literal count and variable count, decides it
with the full pipeline for each theory, and compares against brute force.
Unsat verdicts additionally have their certificates checked by both kernels;
sat verdicts have their models checked against the formula.  Used by the CLI
selftest at small bounds and by the acceptance suite at full bounds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .core import (
    ATOM_KINDS,
    And,
    Atom,
    EvaluationError,
    Formula,
    Literal,
    OrderAtom,
    Theory,
    eval_formula,
)
from .certs import FLS_FORMULA, check_prop_proof
from .closure import Sat, Unsat, decide
from .model import verify_model
from .oracle import brute_sat
from .replay import replay_refutation


def literal_pool(num_vars: int) -> list[Literal]:
    """Every literal over the first ``num_vars`` variables, fixed order."""
    pool = [
        Literal(pol, OrderAtom(kind, x, y))
        for pol in (True, False)
        for kind in ATOM_KINDS
        for x in range(num_vars)
        for y in range(num_vars)
    ]
    return pool


def _canonical(literals: Sequence[Literal]) -> tuple[Literal, ...]:
    # Rename variables in first-occurrence order; isomorphic clauses collapse.
    renaming: dict[int, int] = {}
    out = []
    for lit in literals:
        a = lit.atom
        x = renaming.setdefault(a.x, len(renaming))
        y = renaming.setdefault(a.y, len(renaming))
        out.append(Literal(lit.pos, OrderAtom(a.kind, x, y)))
    return tuple(out)


def iter_clauses(max_literals: int, num_vars: int) -> Iterator[tuple[Literal, ...]]:
    """Canonicalized multisets of literals, deduplicated.

    Verdicts do not depend on literal order or variable names, so one
    representative per renaming class covers all sequences of that shape.
    """
    pool = literal_pool(num_vars)
    seen: set[tuple] = set()
    for length in range(1, max_literals + 1):
        for combo in itertools.combinations_with_replacement(pool, length):
            canon = _canonical(combo)
            key = tuple((l.pos, l.atom.kind, l.atom.x, l.atom.y) for l in canon)
            if key in seen:
                continue
            seen.add(key)
            yield canon


def clause_formula(literals: Sequence[Literal]) -> Formula:
    f: Formula = Atom(literals[0])
    for lit in literals[1:]:
        f = And(f, Atom(lit))
    return f


@dataclass
class AgreementStats:
    cases: int = 0
    checked: int = 0
    sat: dict[Theory, int] = field(default_factory=dict)
    unsat: dict[Theory, int] = field(default_factory=dict)
    disagreements: list[str] = field(default_factory=list)
    cert_failures: list[str] = field(default_factory=list)
    model_failures: list[str] = field(default_factory=list)
    replay_failures: list[str] = field(default_factory=list)

    @property
    def failures(self) -> int:
        return (
            len(self.disagreements)
            + len(self.cert_failures)
            + len(self.model_failures)
            + len(self.replay_failures)
        )

    def summary_lines(self) -> list[str]:
        lines = [f"cases: {self.cases} ({self.checked} theory checks)"]
        for theory in self.sat:
            lines.append(
                f"{theory.value}: {self.sat[theory]} sat, {self.unsat[theory]} unsat"
            )
        lines.append(f"disagreements: {len(self.disagreements)}")
        lines.append(f"certificate failures: {len(self.cert_failures)}")
        lines.append(f"replay failures: {len(self.replay_failures)}")
        lines.append(f"model failures: {len(self.model_failures)}")
        return lines


def check_case(f: Formula, theory: Theory, stats: AgreementStats) -> None:
    """Decide ``f``, compare with brute force, and validate the witness.

    A model is checked against ``f`` itself and the theory's order axioms,
    independently of the clause the solver built it from.
    """
    expected = brute_sat(f, theory)
    verdict = decide(f, theory)
    stats.checked += 1

    if isinstance(verdict, Unsat):
        stats.unsat[theory] = stats.unsat.get(theory, 0) + 1
        if expected:
            stats.disagreements.append(f"{theory.value}: {f}: decide unsat, oracle sat")
            return
        error = ""
        try:
            ok = check_prop_proof({f}, verdict.certificate) == FLS_FORMULA
        except Exception as exc:  # noqa: BLE001
            ok = False
            error = f": {exc}"
        if not ok:
            stats.cert_failures.append(f"{theory.value}: {f}{error}")
        if not replay_refutation(verdict.certificate, f):
            stats.replay_failures.append(f"{theory.value}: {f}{error}")
    else:
        assert isinstance(verdict, Sat)
        stats.sat[theory] = stats.sat.get(theory, 0) + 1
        if not expected:
            stats.disagreements.append(f"{theory.value}: {f}: decide sat, oracle unsat")
            return
        m = verdict.model
        try:
            ok = (
                m.theory is theory
                and verify_model(m, [])
                and eval_formula(m.relation, m.assignment, f)
            )
        except EvaluationError:
            ok = False
        if not ok:
            stats.model_failures.append(f"{theory.value}: {f}")


def run_agreement(
    max_literals: int = 4,
    num_vars: int = 3,
    theories: Sequence[Theory] = (Theory.PARTIAL, Theory.LINEAR),
) -> AgreementStats:
    stats = AgreementStats()
    for clause in iter_clauses(max_literals, num_vars):
        f = clause_formula(clause)
        stats.cases += 1
        for theory in theories:
            check_case(f, theory, stats)
    return stats
