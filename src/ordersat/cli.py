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
    And,
    Atom,
    Formula,
    InvariantViolation,
    Literal,
    Neg,
    Or,
    OrderAtom,
    ParseError,
    SymbolTable,
    Theory,
    formula_literals,
    formula_vars,
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
from .replay import ExportError, ReplayError, export, replay_refutation
from .selfcheck import run_agreement

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_REJECTED = 3
EXIT_INTERNAL = 4


# ---------------------------------------------------------------------------
# Formula parsing

_RELOPS = ("<=", ">=", "!=", "<", ">", "=")


class _Tokenizer:
    def __init__(self, text: str) -> None:
        self.tokens: list[tuple[str, int, int]] = []
        line, col = 1, 1
        i = 0
        n = len(text)
        while i < n:
            c = text[i]
            if c == "\n":
                line += 1
                col = 1
                i += 1
            elif c.isspace():
                col += 1
                i += 1
            elif c == "#":
                while i < n and text[i] != "\n":
                    i += 1
            elif c in "()&|~":
                self.tokens.append((c, line, col))
                col += 1
                i += 1
            elif text.startswith(("<=", ">=", "!="), i):
                self.tokens.append((text[i : i + 2], line, col))
                col += 2
                i += 2
            elif c in "<>=":
                self.tokens.append((c, line, col))
                col += 1
                i += 1
            elif c.isalpha() or c == "_":
                start = i
                while i < n and (text[i].isalnum() or text[i] == "_"):
                    i += 1
                self.tokens.append((text[start:i], line, col))
                col += i - start
            else:
                raise ParseError(f"{line}:{col}: unexpected character {c!r}")
        self.pos = 0
        self.end = (line, col)

    def peek(self) -> tuple[str, int, int] | None:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return None

    def next(self) -> tuple[str, int, int]:
        tok = self.peek()
        if tok is None:
            raise ParseError(f"{self.end[0]}:{self.end[1]}: unexpected end of input")
        self.pos += 1
        return tok


class _Parser:
    """Grammar: disjunction of conjunctions of ~-prefixed atoms or groups."""

    def __init__(self, text: str, table: SymbolTable) -> None:
        self.ts = _Tokenizer(text)
        self.table = table

    def parse(self) -> Formula:
        f = self._disj()
        tok = self.ts.peek()
        if tok is not None:
            raise ParseError(f"{tok[1]}:{tok[2]}: unexpected {tok[0]!r}")
        return f

    def _disj(self) -> Formula:
        f = self._conj()
        while self._eat("|"):
            f = Or(f, self._conj())
        return f

    def _conj(self) -> Formula:
        f = self._unary()
        while self._eat("&"):
            f = And(f, self._unary())
        return f

    def _unary(self) -> Formula:
        tok = self.ts.peek()
        if tok is None:
            raise ParseError(f"{self.ts.end[0]}:{self.ts.end[1]}: unexpected end of input")
        if tok[0] == "~":
            self.ts.next()
            return Neg(self._unary())
        if tok[0] == "(":
            self.ts.next()
            f = self._disj()
            closing = self.ts.next()
            if closing[0] != ")":
                raise ParseError(f"{closing[1]}:{closing[2]}: expected ')', got {closing[0]!r}")
            return f
        return self._atom()

    def _atom(self) -> Formula:
        left = self._ident()
        op_tok = self.ts.next()
        op = op_tok[0]
        if op not in _RELOPS:
            raise ParseError(f"{op_tok[1]}:{op_tok[2]}: expected a relation, got {op!r}")
        right = self._ident()
        x = self.table.intern(left)
        y = self.table.intern(right)
        if op == "<=":
            return Atom(Literal(True, OrderAtom("le", x, y)))
        if op == "<":
            return Atom(Literal(True, OrderAtom("lt", x, y)))
        if op == "=":
            return Atom(Literal(True, OrderAtom("eq", x, y)))
        if op == "!=":
            return Neg(Atom(Literal(True, OrderAtom("eq", x, y))))
        if op == ">":
            return Atom(Literal(True, OrderAtom("lt", y, x)))
        return Atom(Literal(True, OrderAtom("le", y, x)))

    def _ident(self) -> str:
        tok = self.ts.next()
        name = tok[0]
        if not (name[0].isalpha() or name[0] == "_") or name in ("&", "|", "~"):
            raise ParseError(f"{tok[1]}:{tok[2]}: expected an identifier, got {name!r}")
        return name

    def _eat(self, text: str) -> bool:
        tok = self.ts.peek()
        if tok is not None and tok[0] == text:
            self.ts.next()
            return True
        return False


def parse_input(text: str) -> tuple[Formula, SymbolTable]:
    """Parse the surface syntax; > and >= desugar to flipped < and <=."""
    table = SymbolTable()
    return _Parser(text, table).parse(), table


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


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
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

    theory = Theory(args.theory)
    start = time.perf_counter()
    try:
        verdict = decide(formula, theory, algorithm=args.algorithm)
    except InvariantViolation as exc:
        print(f"internal error: {exc}", file=sys.stderr)
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
        cert_text = _read(args.file)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        cert = parse_cert(cert_text)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if args.kernel == "structured":
        try:
            conclusion = check_prop_proof({goal}, cert)
        except (ProofError, ConversionError) as exc:
            print(f"rejected: {exc}")
            return EXIT_REJECTED
        if conclusion != FLS_FORMULA:
            print(f"rejected: certificate concludes {conclusion}, not falsity")
            return EXIT_REJECTED
    else:
        try:
            proof_term = export(cert, goal)
        except ExportError as exc:
            print(f"rejected: {exc}")
            return EXIT_REJECTED
        try:
            accepted = replay_refutation(proof_term, goal)
        except ReplayError as exc:
            print(f"rejected: {exc}")
            return EXIT_REJECTED
        if not accepted:
            print("rejected: proof term does not replay to falsity")
            return EXIT_REJECTED
    print("ok")
    return EXIT_OK


def _cmd_selftest(args: argparse.Namespace) -> int:
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
