"""Machine-speed probe that takes timings to a reference speed.

Small shared virtual machines change speed in phases of several seconds, by
a quarter or more, as other tenants come and go; a pure-Python loop of
fixed work slows down with everything else.  The probe times such a loop
(owned by the benchmark, independent of the library) every ``INTERVAL``
seconds between operations.  An operation's latency is
then scaled by ``REFERENCE_S`` over the loop time measured around it: the
result is the latency on a machine where the loop takes exactly
``REFERENCE_S``, and it keeps only the library's own share of a change.
"""

from __future__ import annotations

import statistics
import time

INTERVAL = 0.25
REFERENCE_S = 0.0003
# Probes on each side of an operation that set its scale: about two seconds
# in all, shorter than the speed phases and long enough to smooth over the
# odd probe slowed by what the operation left behind.
WINDOW = 4


class _Node:
    __slots__ = ("left", "right", "key")

    def __init__(self, left, right, key: int) -> None:
        self.left, self.right, self.key = left, right, key


def _build(depth: int, key: int):
    if depth == 0:
        return key
    return _Node(_build(depth - 1, 2 * key), _build(depth - 1, 2 * key + 1), key)


def _walk(node, acc: dict) -> dict:
    if isinstance(node, _Node):
        acc[(node.key, node.key & 7)] = str(node.key)
        _walk(node.left, acc)
        _walk(node.right, acc)
    return acc


def unit() -> float:
    """Seconds for one fixed unit of allocation, dispatch and dict work."""
    start = time.perf_counter()
    acc = _walk(_build(8, 1), {})
    " ".join(acc.values())
    sorted(acc)
    return time.perf_counter() - start


class SpeedProbe:
    """Loop times taken between operations, each the median of three units."""

    def __init__(self) -> None:
        self.durations: list[float] = []
        self._due = 0.0

    def sample(self) -> None:
        self.durations.append(statistics.median(unit() for _ in range(3)))
        self._due = time.perf_counter() + INTERVAL

    def mark(self) -> int:
        """Index of the latest probe, taking a new one when one is due."""
        if time.perf_counter() >= self._due:
            self.sample()
        return len(self.durations) - 1

    def scale(self, index: int) -> float:
        """Factor for an operation that started after probe ``index``.

        Uses the median probe of a window around the operation; ``sample``
        must have run once more after the last operation.
        """
        around = self.durations[max(0, index - WINDOW + 1) : index + WINDOW + 1]
        return REFERENCE_S / statistics.median(around)
