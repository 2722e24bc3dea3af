"""Command line front end: parse formula files, solve, check certificates.

Exit codes: 0 command succeeded (the verdict goes to stdout), 2 usage or
parse error, 3 certificate rejected, 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Sequence

from .core import (
    InvariantViolation,
    ParseError,
    SymbolTable,
    Theory,
    formula_literals,
    formula_vars,
    parse_input,
)
from .certs import (
    FLS_FORMULA,
    ConversionError,
    ProofError,
    cert_size,
    check_prop_proof,
    parse_cert,
    serialize_cert,
)
from .closure import Sat, Unsat, decide
from .model import Model
from .oracle import MAX_CARRIER
from .replay import ReplayError, replay
from .selfcheck import run_agreement

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_REJECTED = 3
EXIT_INTERNAL = 4

# A ``rejected:`` or ``internal error:`` line quotes at most this many
# characters of its message.
MAX_MESSAGE = 1000


# ---------------------------------------------------------------------------
# Model output


def format_model(m: Model, table: SymbolTable | None = None) -> str:
    """Carrier, assignment pairs and relation pairs, each sorted."""
    lines = ["carrier " + " ".join(str(c) for c in sorted(m.relation.carrier))]
    named = []
    for var, value in m.assignment.items():
        name = table.name_of(var) if table is not None and var < len(table) else f"v{var}"
        named.append((name, value))
    for name, value in sorted(named):
        lines.append(f"assign {name} {value}")
    for a, b in sorted(m.relation.pairs):
        lines.append(f"rel {a} {b}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Commands


def _bounded(message: object) -> str:
    """``message`` as text, or its first ``MAX_MESSAGE`` characters and its length."""
    text = str(message)
    if len(text) <= MAX_MESSAGE:
        return text
    return f"{text[:MAX_MESSAGE]}… ({len(text)} characters)"


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _write(path: str, text: str) -> bool:
    """Write ``text`` to ``path``; report a failure on stderr and return False."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return False
    return True


def _cmd_solve(args: argparse.Namespace) -> int:
    try:
        formula, table = parse_input(_read(args.file))
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RecursionError:
        print("error: formula nested too deeply", file=sys.stderr)
        return EXIT_USAGE

    theory = Theory(args.theory)
    start = time.perf_counter()
    try:
        verdict = decide(formula, theory, algorithm=args.algorithm)
    except InvariantViolation as exc:
        print(f"internal error: {_bounded(exc)}", file=sys.stderr)
        return EXIT_INTERNAL
    except RecursionError:
        print("internal error: formula nested too deeply to decide", file=sys.stderr)
        return EXIT_INTERNAL
    elapsed_ms = (time.perf_counter() - start) * 1000.0

    if isinstance(verdict, Unsat):
        if args.cert and not _write(args.cert, serialize_cert(verdict.certificate) + "\n"):
            return EXIT_USAGE
        size = cert_size(verdict.certificate)
        clause_index = None
    else:
        assert isinstance(verdict, Sat)
        if args.model and not _write(args.model, format_model(verdict.model, table)):
            return EXIT_USAGE
        size = 0
        clause_index = verdict.clause_index

    word = "unsat" if isinstance(verdict, Unsat) else "sat"
    if args.format == "json":
        print(
            json.dumps(
                {
                    "verdict": word,
                    "theory": theory.value,
                    "literals": len(formula_literals(formula)),
                    "variables": len(formula_vars(formula)),
                    "certificate_size": size,
                    "clause_index": clause_index,
                    "wall_time_ms": elapsed_ms,
                }
            )
        )
    else:
        print(word)
    return EXIT_OK


def _cmd_check(args: argparse.Namespace) -> int:
    try:
        goal, _ = parse_input(_read(args.goal))
        cert = parse_cert(_read(args.file))
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RecursionError:
        print("error: goal or certificate nested too deeply", file=sys.stderr)
        return EXIT_USAGE

    try:
        if args.kernel == "structured":
            conclusion = check_prop_proof({goal}, cert)
        else:
            conclusion = replay(frozenset({goal}), cert)
    except (ProofError, ConversionError, ReplayError) as exc:
        print(f"rejected: {_bounded(exc)}")
        return EXIT_REJECTED
    except RecursionError:
        print(f"rejected: certificate nested too deeply for the {args.kernel} kernel")
        return EXIT_REJECTED
    if conclusion != FLS_FORMULA:
        print(f"rejected: {_bounded(f'certificate concludes {conclusion}, not falsity')}")
        return EXIT_REJECTED
    print("ok")
    return EXIT_OK


def _cmd_selftest(args: argparse.Namespace) -> int:
    # A clause of L literals over K variables mentions up to min(K, 2L) of them.
    mentioned = min(args.num_vars, 2 * args.max_literals)
    if min(args.max_literals, args.num_vars) < 1:
        print("error: --max-literals and --num-vars must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    if mentioned > MAX_CARRIER:
        print(
            f"error: clauses of {args.max_literals} literals over {args.num_vars} variables can"
            f" mention {mentioned} variables; the brute-force oracle takes at most {MAX_CARRIER}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    stats = run_agreement(args.max_literals, args.num_vars)
    for line in stats.summary_lines():
        print(line)
    if stats.failures:
        print("selftest FAILED")
        return EXIT_INTERNAL
    print("selftest ok")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ordersat",
        description="Certificate-producing satisfiability solver for partial and linear orders",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="decide a formula file")
    solve.add_argument("file")
    solve.add_argument("--theory", choices=["partial", "linear"], required=True)
    solve.add_argument("--cert", help="write the falsity certificate here on unsat")
    solve.add_argument("--model", help="write the finite model here on sat")
    solve.add_argument("--algorithm", choices=["naive", "fw"], default="naive")
    solve.add_argument("--format", choices=["text", "json"], default="text")
    solve.set_defaults(fn=_cmd_solve)

    check = sub.add_parser("check", help="validate a certificate against a goal formula")
    check.add_argument("file")
    check.add_argument("--goal", required=True)
    check.add_argument("--kernel", choices=["structured", "replay"], default="structured")
    check.set_defaults(fn=_cmd_check)

    selftest = sub.add_parser("selftest", help="run the oracle-agreement suite")
    selftest.add_argument("--max-literals", type=int, default=3)
    selftest.add_argument("--num-vars", type=int, default=2)
    selftest.set_defaults(fn=_cmd_selftest)

    return parser


def run(argv: Sequence[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    return args.fn(args)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
