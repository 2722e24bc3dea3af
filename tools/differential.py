"""Differential run of this checkout's ``src/`` against another revision's.

    python3 tools/differential.py --against REV [--seed N]

``REV``'s ``src/`` and ``tests/helpers.py`` are extracted from the local
repository with ``git archive`` into a temporary directory.  One child
process per tree reads the same seeded corpus and writes one JSON line per
case:

* a goal case is a formula text and a theory.  Its record holds the verdict,
  the ``clause_index`` of a Sat verdict, a hash of the certificate text (or
  of the model the CLI would print), and what each kernel says of the
  certificate after reading its text back: ``ok`` or its message;
* a mutant case is a goal and a certificate text with one node changed.
  Mutants are drawn once, by ``REV``'s child with ``REV``'s own
  ``helpers.mutate_cert``, and written as text, so both trees read the same
  mutant texts and a change to this tree's mutator cannot hide a
  difference.  Its record holds the reader's and each kernel's ``ok`` or
  message.

The corpus holds random formulas in both theories (the benchmark's
``random_formula``), the benchmark's chains and ladders, and a wide
conjunction.  The script prints how many records are identical, groups the
differing fields by class, with digits masked, shows one example of each,
and exits 0 only when nothing differs.  It uses the standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import random
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# The corpus: random formulas per theory, chains and ladders of each
# size, and mutants per certificate of ``REV``.
RANDOM_FORMULAS = 2000
FAMILIES = 3
MUTANTS = 8

# A message longer than this is kept as its head and a hash of the whole.
_MESSAGE_CHARS = 2000


# ---------------------------------------------------------------------------
# The child: run one tree's ``ordersat`` over a case file


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _message(exc: BaseException) -> str:
    text = f"{type(exc).__name__}: {exc}"
    if len(text) > _MESSAGE_CHARS:
        text = f"{text[:_MESSAGE_CHARS]}… ({len(text)} chars, sha {_digest(text)})"
    return text


def _run_child(job: dict) -> None:
    """Run ``job["src"]``'s ``ordersat`` over the cases in ``job["cases"]``.

    With ``job["mutants"]``, a ``[path, count, seed]``, it also writes
    ``count`` mutants of each Unsat certificate to ``path``, drawn with the
    tree's own ``tests/helpers.mutate_cert``.
    """
    src = job["src"]
    sys.path.insert(0, src)
    import ordersat
    from ordersat import cli

    if not Path(ordersat.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"imported {ordersat.__file__}, not the tree under {src}")
    mutants_path, count, seed = job.get("mutants") or (None, 0, 0)
    if count:
        sys.path.insert(1, str(Path(src).parent / "tests"))
        from helpers import mutate_cert

        rng = random.Random(f"differential/mutants/{seed}")

    checks = {
        "structured": lambda goal, cert: ordersat.check_prop_proof({goal}, cert),
        "replay": lambda goal, cert: ordersat.replay(frozenset({goal}), ordersat.export(cert, goal)),
    }

    def kernels(goal, text: str) -> dict[str, str]:
        # A message, and a crash of either tree, is part of the record.
        try:
            cert = ordersat.parse_cert(text)
        except Exception as exc:
            return {"read": _message(exc)}
        result = {"read": "ok"}
        for kernel, check in checks.items():
            try:
                conclusion = check(goal, cert)
            except Exception as exc:
                result[kernel] = _message(exc)
            else:
                result[kernel] = "ok" if conclusion == ordersat.FLS_FORMULA else f"concludes {conclusion}"
        return result

    side_file = open(mutants_path, "w") if count else contextlib.nullcontext()
    with open(job["cases"]) as lines, open(job["out"], "w") as records, side_file as side:
        for line in lines:
            case = json.loads(line)
            goal, table = ordersat.parse_input(case["goal"])
            record: dict = {"id": case["id"]}
            if "cert" in case:
                record.update(kernels(goal, case["cert"]))
            else:
                try:
                    verdict = ordersat.decide(goal, ordersat.Theory(case["theory"]))
                except Exception as exc:
                    record["verdict"] = _message(exc)
                else:
                    if isinstance(verdict, ordersat.Sat):
                        record["verdict"] = "sat"
                        record["clause_index"] = verdict.clause_index
                        record["model"] = _digest(cli.format_model(verdict.model, table))
                    else:
                        text = ordersat.serialize_cert(verdict.certificate)
                        record["verdict"] = "unsat"
                        record["cert"] = _digest(text)
                        record.update(kernels(goal, text))
                        for j in range(count):
                            mutant = ordersat.serialize_cert(mutate_cert(rng, verdict.certificate))
                            side.write(json.dumps({"id": f"{case['id']}/m{j}", "goal": case["goal"], "cert": mutant}) + "\n")
            records.write(json.dumps(record, ensure_ascii=False) + "\n")


# ---------------------------------------------------------------------------
# The corpus


def _goal_cases(seed: int, random_formulas: int, families: int) -> list[dict]:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import workloads

    rng = random.Random(f"differential/{seed}")
    cases = []
    for i in range(random_formulas):
        for theory in ("partial", "linear"):
            text = workloads.render(workloads.random_formula(rng), list("abcd"))
            cases.append({"id": f"random/{i}/{theory}", "goal": text, "theory": theory})
    named = [(f"chain/{n}/{j}", workloads.chain_text(rng, n)) for n in range(4, 64, 4) for j in range(families)]
    named += [(f"ladder/{k}/{j}", workloads.ladder_text(rng, k)) for k in range(1, 6) for j in range(families)]
    named.append(("wide/400", " & ".join(f"x{i} <= y{i}" for i in range(400)) + " & ~(x0 <= x0)"))
    for name, text in named:
        for theory in ("partial", "linear"):
            cases.append({"id": f"{name}/{theory}", "goal": text, "theory": theory})
    return cases


# ---------------------------------------------------------------------------
# Comparing the records


def _mask(message) -> str:
    """``message`` with each run of digits, and each 16-digit hex hash, as ``N``."""
    return re.sub(r"\b[0-9a-f]{16}\b|\d+", "N", str(message))


def compare(old: list[dict], new: list[dict]) -> tuple[int, dict[tuple, list]]:
    """The number of identical records, and the differing fields by class.

    A class is a field with both values masked; its value is the count and
    one example as ``[count, id, old value, new value]``.
    """
    same = 0
    classes: dict[tuple, list] = {}
    for a, b in zip(old, new):
        if a == b:
            same += 1
            continue
        for field in sorted(set(a) | set(b)):
            x, y = a.get(field), b.get(field)
            if x != y:
                key = (field, _mask(x), _mask(y))
                if key in classes:
                    classes[key][0] += 1
                else:
                    classes[key] = [1, a.get("id", b.get("id")), x, y]
    return same, classes


# ---------------------------------------------------------------------------
# Running both trees


def _extract(rev: str, into: Path) -> str:
    commit = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", f"{rev}^{{commit}}"],
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    archive = into / "src.tar"
    subprocess.run(
        ["git", "-C", str(ROOT), "archive", "-o", str(archive), commit, "src", "tests/helpers.py"], check=True
    )
    with tarfile.open(archive) as tar:
        tar.extractall(into / "tree")
    return commit


def _children(jobs: list[dict]) -> None:
    """Run one child per job (see ``_run_child``) at once."""
    procs = []
    for job in jobs:
        cmd = [sys.executable, "-I", str(Path(__file__).resolve()), "--child", json.dumps(job)]
        procs.append((job["src"], subprocess.Popen(cmd, stderr=subprocess.PIPE, text=True)))
    failed = []
    for src, proc in procs:
        _, err = proc.communicate()
        if proc.returncode != 0:
            failed.append(f"child for {src} exited {proc.returncode}:\n{err[-3000:]}")
    if failed:
        raise SystemExit("\n".join(failed))


def _load(path: Path) -> list[dict]:
    with open(path) as lines:
        return [json.loads(line) for line in lines]


def differential(rev: str, seed: int) -> int:
    """Compare this checkout's ``src/`` with ``rev``'s and print the summary; the exit code."""
    with tempfile.TemporaryDirectory(prefix="differential-") as tmp:
        work = Path(tmp)
        try:
            commit = _extract(rev, work)
        except subprocess.CalledProcessError as exc:
            print(f"error: cannot extract src/ and tests/helpers.py of {rev!r}: {exc}", file=sys.stderr)
            return 2
        old_src, new_src = str(work / "tree" / "src"), str(ROOT / "src")

        goals, mutant_cases = work / "goals.jsonl", work / "mutants.jsonl"
        goal_cases = _goal_cases(seed, RANDOM_FORMULAS, FAMILIES)
        goals.write_text("".join(json.dumps(case) + "\n" for case in goal_cases))
        _children([
            {"src": old_src, "cases": str(goals), "out": str(work / "old-goals.jsonl"),
             "mutants": [str(mutant_cases), MUTANTS, seed]},
            {"src": new_src, "cases": str(goals), "out": str(work / "new-goals.jsonl")},
        ])
        _children([
            {"src": old_src, "cases": str(mutant_cases), "out": str(work / "old-mutants.jsonl")},
            {"src": new_src, "cases": str(mutant_cases), "out": str(work / "new-mutants.jsonl")},
        ])

        old_goals, old_mutants = _load(work / "old-goals.jsonl"), _load(work / "old-mutants.jsonl")
        old = old_goals + old_mutants
        new = _load(work / "new-goals.jsonl") + _load(work / "new-mutants.jsonl")

    if len(old) != len(new) or any(a["id"] != b["id"] for a, b in zip(old, new)):
        print(f"error: the trees wrote different cases ({len(old)} and {len(new)} records)", file=sys.stderr)
        return 1
    same, classes = compare(old, new)
    differ = len(old) - same
    certificates = sum(record.get("verdict") == "unsat" for record in old_goals)
    print(
        f"differential against {rev} ({commit[:12]}): {len(old)} records, {same} identical, "
        f"{differ} differ ({len(goal_cases)} goals, {certificates} certificates, {len(old_mutants)} mutants)"
    )
    for (field, _, _), (count, case, x, y) in sorted(classes.items(), key=lambda item: -item[1][0]):
        print(f"  {count} x {field}: {case}\n    {rev}: {str(x)[:300]}\n    this tree: {str(y)[:300]}")
    return 0 if differ == 0 else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REV", help="revision whose src/ is the reference")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        _run_child(json.loads(args.child))
        return 0
    if not args.against:
        parser.error("--against REV is required")
    return differential(args.against, args.seed)


if __name__ == "__main__":
    sys.exit(main())
