"""A fixed, pure-stdlib reference kernel that the timings are divided by.

The machine this benchmark runs on drifts by about a fifth between
back-to-back sets of runs, and one vCPU's speed swings by up to a third
within a second (shared vCPUs, neighbours' cache traffic).  Running this
kernel on the workload's CPU while the workload runs, and reporting the
workload's time as a multiple of one unit of it, cancels most of that.  The
kernel mixes the kinds of work monadforge does: big-integer binomials,
tuple/dict churn, canonical JSON encoding and Gaussian elimination mod p.

Nothing here may change once the benchmark has a baseline: every ratio the
benchmark has reported is relative to exactly this work.
"""

from __future__ import annotations

import json
import random
import threading
import time
from math import comb
from typing import Optional, Tuple

_PRIME = 2_147_483_647
# Result of one unit of work, _work(); a mismatch means the kernel itself broke.
EXPECTED_CHECKSUM = 226681067


def _binomials() -> int:
    total = 0
    for a in range(400):
        for b in range(130):
            total += comb(a + 12, 12) * comb(b + 9, 9) % 1_000_003
    return total


def _churn() -> int:
    acc = {}
    for i in range(13_000):
        key = (i % 97, i % 89, -(i % 13), i % 7)
        acc[key] = acc.get(key, 0) + i
    merged = sorted(acc.items())
    return sum(v for _, v in merged[::3]) % _PRIME


def _encode() -> int:
    rows = [{"q": q, "twist": [-a, -b, a - b, b - a], "h0": 0} for q in range(1, 9) for a in range(18) for b in range(18)]
    return len(json.dumps({"checked": rows}, sort_keys=True, indent=2))


def _eliminate() -> int:
    size = 48
    rng = random.Random(12345)
    rows = [[rng.randrange(_PRIME) for _ in range(size)] for _ in range(size)]
    rank = 0
    for col in range(size):
        pivot = next((r for r in range(rank, size) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], _PRIME - 2, _PRIME)
        rows[rank] = [v * inv % _PRIME for v in rows[rank]]
        for r in range(size):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(a - f * b) % _PRIME for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank + sum(rows[-1]) % _PRIME


def _work() -> int:
    return (_binomials() + _churn() + _encode() + _eliminate()) % _PRIME


def run_reference(seconds: float) -> Tuple[float, float]:
    """Run the kernel alone for about `seconds`, at least one unit; return (CPU, wall) per unit."""
    with ConcurrentReference() as ref:
        time.sleep(seconds)
    return ref.per_unit()


class ConcurrentReference:
    """Runs the kernel in a thread, unit after unit, while the with-block runs.

    Started around a pass whose child processes share this process's CPU,
    the kernel and the children split that CPU in slices of a few
    milliseconds, so both see the same machine speed, however quickly it
    swings.  Always completes at least one unit.
    """

    def __enter__(self) -> "ConcurrentReference":
        self.units = 0
        self.cpu = self.wall = 0.0
        self.error: Optional[str] = None
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="reference-kernel")
        self._thread.start()
        return self

    def _loop(self) -> None:
        c0, w0 = time.thread_time(), time.perf_counter()
        while True:
            checksum = _work()
            if checksum != EXPECTED_CHECKSUM:
                self.error = f"reference kernel checksum {checksum} != {EXPECTED_CHECKSUM}"
                return
            self.units += 1
            self.cpu = time.thread_time() - c0
            self.wall = time.perf_counter() - w0
            if self._stop.is_set():
                return

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()
        if self.error is not None:
            raise RuntimeError(self.error)

    def per_unit(self) -> Tuple[float, float]:
        """(CPU, wall) seconds per unit of work, over the units completed."""
        return self.cpu / self.units, self.wall / self.units
