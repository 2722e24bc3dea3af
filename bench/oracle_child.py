"""Brute-force answers for the benchmark, computed in a process of their own.

    python3 bench/oracle_child.py SRC_DIR

Reads one JSON list of ``[formula text, theory]`` pairs per line and writes
one JSON list of booleans per line, true where the formula is satisfiable.
Keeping the oracle's model tables out of the benchmark process keeps them
out of its peak memory.
"""

import json
import sys

sys.path.insert(0, sys.argv[1])

from ordersat.cli import parse_input  # noqa: E402
from ordersat.core import Theory  # noqa: E402
from ordersat.oracle import brute_sat  # noqa: E402

for line in sys.stdin:
    batch = json.loads(line)
    answers = [brute_sat(parse_input(text)[0], Theory(theory)) for text, theory in batch]
    print(json.dumps(answers), flush=True)
