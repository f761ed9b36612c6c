"""The benchmark's four workloads, as lists of monadforge CLI invocations.

A workload is a fixed sequence of commands run one after another, each
starting only after the previous one exited (a closed loop with one client).
The seed sets `--seed` of every command (it drives `verify`'s rank sampling
and is recorded in each manifest) and, in `small-ladder`, the multidegree
given to `cohomology`.  All other parameters are fixed, so a run's cost does
not depend on the seed.

Why each workload is here:

- scan-wide: two scans of 186,200 rows (`report` runs the scan twice),
  exterior powers and 24.7 MB of canonical JSON; the monad layer is never
  called.
- monad-large: `build` writes a 2.1 MB monad document that `verify` reads
  back; symbolic composition and sampled rank at (40,40,40), never a scan.
- invariants-large: the dense Chow-ring power inside `invariants_of_T` at
  (30,30,1) and nothing else.
- small-ladder: all seven subcommands at the README example (1,2,3) with
  the default box, where interpreter start-up and tiny scans dominate.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Job:
    """One CLI invocation, the document it writes and the parameters it ran with."""

    cmd: str
    args: Tuple[str, ...]  # argv after `python -m monadforge.cli`
    output: str  # path of the JSON document the command writes
    n: int
    m: int
    k: int
    seed: int
    max_q: Optional[int] = None
    max_psum: int = 4
    component_bound: int = 4
    min_psum: int = 0
    degree: Optional[Tuple[int, int, int, int]] = None


def job(cmd: str, out_dir: str, n: int, m: int, k: int, seed: int,
        scan: Optional[Tuple[int, int, int]] = None, input_path: Optional[str] = None,
        degree: Optional[Tuple[int, int, int, int]] = None, min_psum: int = 0) -> Job:
    """A Job for `cmd`; `scan` is (max_q, max_psum, component_bound), None for the CLI defaults."""
    output = os.path.join(out_dir, f"{cmd}.json")
    args = [cmd]
    args += ["--input", input_path] if input_path else ["--n", str(n), "--m", str(m), "--k", str(k)]
    args += ["--seed", str(seed), "--output", output]
    fields = {}
    if cmd in ("stability", "simplicity", "report"):
        max_q, max_psum, bound = scan or (min(8, 2 * n + 2 * m + 3 * k - 1), 4, 4)
        if scan:
            args += ["--max-q", str(max_q), "--max-psum", str(max_psum), "--component-bound", str(bound)]
        if min_psum:
            args += ["--min-psum", str(min_psum)]
        fields = dict(max_q=max_q, max_psum=max_psum, component_bound=bound, min_psum=min_psum)
    if degree is not None:
        args += ["--", *map(str, degree)]
        fields["degree"] = degree
    return Job(cmd, tuple(args), output, n, m, k, seed, **fields)


def scan_wide(seed: int, out_dir: str, smoke: bool) -> List[Job]:
    if smoke:
        return [job("report", out_dir, 1, 1, 1, seed, scan=(2, 1, 1))]
    return [job("report", out_dir, 3, 3, 3, seed, scan=(20, 6, 6))]


def monad_large(seed: int, out_dir: str, smoke: bool) -> List[Job]:
    size = 2 if smoke else 40
    build = job("build", out_dir, size, size, size, seed)
    return [build, job("verify", out_dir, size, size, size, seed, input_path=build.output)]


def invariants_large(seed: int, out_dir: str, smoke: bool) -> List[Job]:
    n = 3 if smoke else 30
    return [job("invariants", out_dir, n, n, 1, seed)]


def small_ladder(seed: int, out_dir: str, smoke: bool) -> List[Job]:
    n, m, k = (1, 1, 1) if smoke else (1, 2, 3)
    scan = (2, 2, 2) if smoke else None
    rng = random.Random(seed)
    degree = tuple(rng.randint(-6, 3) for _ in range(4))
    return [
        job("build", out_dir, n, m, k, seed),
        job("verify", out_dir, n, m, k, seed),
        job("cohomology", out_dir, n, m, k, seed, degree=degree),
        job("invariants", out_dir, n, m, k, seed),
        job("stability", out_dir, n, m, k, seed, scan=scan),
        job("simplicity", out_dir, n, m, k, seed, scan=scan),
        job("report", out_dir, n, m, k, seed, scan=scan),
    ]


WORKLOADS: Dict[str, Callable[[int, str, bool], List[Job]]] = {
    "scan-wide": scan_wide,
    "monad-large": monad_large,
    "invariants-large": invariants_large,
    "small-ladder": small_ladder,
}
