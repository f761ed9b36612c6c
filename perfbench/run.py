"""Benchmark of the monadforge CLI: end-to-end metrics, or per-layer with --trace 1.

    python3 perfbench/run.py --workload scan-wide --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout; it imports the program from `src/`.
The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}; the lines before it give the
same metrics, raw timings and error_rate for a reader.

--trace 0 runs each command as a child process `python -m monadforge.cli`
(closed loop, one client) and reports:

- cpu_ref, wall_ref: CPU and wall seconds of one pass of the workload's
  commands, divided by the CPU and wall seconds per unit of the reference
  kernel in refkernel.py, which runs in a thread on the same CPU for the
  whole pass; the median over the timed passes (see README.md for why).
- setup_s: launch-to-ready time of `python -m monadforge.cli --version` in
  reference seconds: the median, over interleaved launch pairs, of its wall
  time divided by that of a bare `python -c pass`, times BARE_LAUNCH_REF_S.
- peak_rss_mb: the largest peak RSS of any single child (from os.wait4).
- output_mb: bytes one pass of the commands wrote.

--trace 1 runs the same commands in this process through
`monadforge.cli.main(argv)`, alternating untraced and traced passes, and
reports the self time of each layer in tracing.LAYERS, the layer counts, the
raw reference-kernel and wall seconds, and the tracing overhead.

Every command's exit code and document are checked (checks.py); a command
that fails a check counts in `failed` and makes `correct` false.  Every
document is checked in full the first time; a later pass whose bytes are
identical to an already checked document needs no second check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, TypeVar

import checks
from refkernel import ConcurrentReference, run_reference
from workloads import WORKLOADS, Job

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".perfbench-tmp")

# Wall seconds of a bare `python3 -c pass` on the machine the benchmark was
# calibrated on (2 vCPU VM, CPython 3.11): converts setup_s from a ratio to
# seconds.  Fixed, like the reference kernel, so runs stay comparable.
BARE_LAUNCH_REF_S = 0.06
SETUP_PAIRS = 15
IMPORT_SAMPLES = 5
MIN_PASSES = 2
DEADLINE_S = 170

T = TypeVar("T")

PINS = {
    "PYTHONPATH": SRC,
    "PYTHONHASHSEED": "0",
    "SOURCE_DATE_EPOCH": str(checks.SOURCE_DATE_EPOCH),
    "MONADFORGE_THREADS": "1",
}


@dataclass
class Tally:
    """Commands attempted and failed, over the whole run."""

    attempted: int = 0
    failed: int = 0

    def record(self, label: str, problems: List[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems[:3]:
                print(f"FAIL {label}: {problem}", file=sys.stderr)


@dataclass
class Checker:
    """Checks each command's exit code and document, once per distinct document."""

    tally: Tally
    verified: Dict[str, str] = field(default_factory=dict)  # output path -> sha256 of checked bytes

    def __call__(self, job: Job, exit_code: Optional[int]) -> None:
        self.tally.record(job.cmd, self.problems(job, exit_code))

    def problems(self, job: Job, exit_code: Optional[int]) -> List[str]:
        if exit_code != 0:
            return [f"exit code {exit_code}, expected 0"]
        try:
            with open(job.output, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            return [f"no output document: {exc}"]
        digest = hashlib.sha256(raw).hexdigest()
        if self.verified.get(job.output) == digest:
            return []
        try:
            doc = json.loads(raw)
        except ValueError as exc:
            return [f"output is not JSON: {exc}"]
        found = checks.problems(job, doc)
        if not found:
            self.verified[job.output] = digest
        return found


@dataclass
class Launch:
    exit_code: int
    wall: float
    cpu: float
    rss_mb: float


def launch(argv: List[str], log_prefix: str) -> Launch:
    """Run `python argv` to completion with stdout/stderr in log files."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, log_prefix + ".out", flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, log_prefix + ".err", flags, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], os.environ, file_actions=actions)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    wall = time.perf_counter() - start
    return Launch(os.waitstatus_to_exitcode(status), wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


def _size(path: str) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


@dataclass
class ChildPass:
    cpu: float
    wall: float
    rss_mb: float
    written: int


def child_pass(jobs: List[Job], check: Checker, log_dir: str) -> ChildPass:
    """Run the workload's commands one after another as child processes."""
    result = ChildPass(0.0, 0.0, 0.0, 0)
    for job in jobs:
        log = os.path.join(log_dir, job.cmd)
        ran = launch(["-m", "monadforge.cli", *job.args], log)
        check(job, ran.exit_code)
        result.cpu += ran.cpu
        result.wall += ran.wall
        result.rss_mb = max(result.rss_mb, ran.rss_mb)
        result.written += _size(job.output) + _size(log + ".out") + _size(log + ".err")
    return result


def measure_setup(pairs: int, tally: Tally, log_dir: str) -> Tuple[float, float, float]:
    """(setup_s, median raw ready seconds, median raw bare seconds)."""
    log = os.path.join(log_dir, "setup")
    ratios, ready_s, bare_s = [], [], []
    for _ in range(pairs):
        bare = launch(["-c", "pass"], log)
        ready = launch(["-m", "monadforge.cli", "--version"], log)
        with open(log + ".out", encoding="utf-8", errors="replace") as fh:
            banner = fh.read()
        ok = ready.exit_code == 0 and bare.exit_code == 0 and banner.startswith("monadforge ")
        tally.record("--version", [] if ok else [f"exit {ready.exit_code}, printed {banner!r}"])
        ratios.append(ready.wall / bare.wall)
        ready_s.append(ready.wall)
        bare_s.append(bare.wall)
    return statistics.median(ratios) * BARE_LAUNCH_REF_S, statistics.median(ready_s), statistics.median(bare_s)


def timed_loop(seconds: float, min_passes: int, one_pass: Callable[[], T]) -> List[T]:
    """Run passes while the next is expected to end within `seconds`; at least `min_passes`."""
    passes = []
    start = time.perf_counter()
    while True:
        begun = time.perf_counter()
        passes.append(one_pass())
        took = time.perf_counter() - begun
        if len(passes) >= min_passes and time.perf_counter() - start + took > seconds:
            return passes


def end_to_end(jobs: List[Job], warm_up: List[Job], args: argparse.Namespace, tally: Tally, log_dir: str) -> Dict[str, Tuple[float, str]]:
    check = Checker(tally)
    child_pass(warm_up, check, log_dir)
    setup_s, ready_raw, bare_raw = measure_setup(3 if args.smoke else SETUP_PAIRS, tally, log_dir)

    def referenced_pass() -> Tuple[ChildPass, Tuple[float, float]]:
        with ConcurrentReference() as ref:
            result = child_pass(jobs, check, log_dir)
        return result, ref.per_unit()

    runs = timed_loop(args.seconds, MIN_PASSES, referenced_pass)
    passes = [p for p, _ in runs]
    print(f"raw: pass cpu {[round(p.cpu, 4) for p in passes]} s, pass wall {[round(p.wall, 4) for p in passes]} s")
    print(f"raw: reference kernel cpu per unit {[round(r[0], 5) for _, r in runs]} s")
    print(f"raw: launch-to-ready {ready_raw:.4f} s, bare launch {bare_raw:.4f} s (medians)")
    return {
        "cpu_ref": (statistics.median(p.cpu / ref[0] for p, ref in runs), "ref"),
        "wall_ref": (statistics.median(p.wall / ref[1] for p, ref in runs), "ref"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (max(p.rss_mb for p in passes), "MB"),
        "output_mb": (statistics.median(p.written for p in passes) / 1e6, "MB"),
    }


def in_process_pass(jobs: List[Job], check: Checker) -> float:
    """Run the commands through monadforge.cli.main; return seconds inside main."""
    import monadforge.cli

    total = 0.0
    for job in jobs:
        start = time.perf_counter()
        try:
            code: Optional[int] = monadforge.cli.main(list(job.args))
        except Exception:
            traceback.print_exc()
            code = None
        total += time.perf_counter() - start
        check(job, code)
    return total


def measure_import(samples: int, tally: Tally, log_dir: str) -> float:
    """Median seconds `import monadforge.cli` takes in a fresh interpreter."""
    log = os.path.join(log_dir, "import")
    probe = "import time; t = time.perf_counter(); import monadforge.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(samples):
        ran = launch(["-c", probe], log)
        try:
            with open(log + ".out", encoding="utf-8") as fh:
                times.append(float(fh.read()))
            tally.record("import", [] if ran.exit_code == 0 else [f"exit {ran.exit_code}"])
        except ValueError:
            tally.record("import", [f"import probe failed with exit {ran.exit_code}"])
    return statistics.median(times) if times else float("nan")


def traced(jobs: List[Job], warm_up: List[Job], args: argparse.Namespace, tally: Tally, log_dir: str) -> Dict[str, Tuple[float, str]]:
    from tracing import Tracer

    import_s = measure_import(IMPORT_SAMPLES, tally, log_dir)
    check = Checker(tally)
    in_process_pass(warm_up, check)

    def pair() -> Tuple[float, float, Tracer]:
        untraced_s = in_process_pass(jobs, check)
        tracer = Tracer()
        with tracer.installed():
            traced_s = in_process_pass(jobs, check)
        return untraced_s, traced_s, tracer

    refs = [run_reference(0.0)]
    pairs = timed_loop(args.seconds, 1, pair)
    refs.append(run_reference(0.0))
    counts = [tracer.count_metrics() for _, _, tracer in pairs]
    if any(c != counts[0] for c in counts):
        tally.record("trace", [f"layer counts differ between traced passes: {counts}"])
    # All layer numbers come from one pass, the traced pass of median length,
    # so that they add up: self times + outside_spans_s = traced_wall_s.
    _, traced_s, tracer = sorted(pairs, key=lambda p: p[1])[(len(pairs) - 1) // 2]
    self_s = tracer.self_times()
    metrics: Dict[str, Tuple[float, str]] = {name: (value, "s") for name, value in self_s.items()}
    for name, value in tracer.count_metrics().items():
        unit = "ratio" if name.endswith("_ratio") else "bytes" if name.endswith("_bytes") else "count"
        metrics[name] = (value, unit)
    metrics["cli.import_s"] = (import_s, "s")
    metrics["trace.traced_wall_s"] = (traced_s, "s")
    metrics["trace.untraced_wall_s"] = (statistics.median(u for u, _, _ in pairs), "s")
    metrics["trace.overhead_s"] = (statistics.median(t - u for u, t, _ in pairs), "s")
    metrics["trace.outside_spans_s"] = (traced_s - sum(self_s.values()), "s")
    metrics["trace.ref_kernel_s"] = (statistics.median(cpu for cpu, _ in refs), "s")
    print(f"raw: {len(pairs)} untraced/traced pass pairs, reference kernel cpu {[round(c, 4) for c, _ in refs]} s")
    return metrics


def pinned_environment() -> Dict[str, str]:
    env = {key: value for key, value in os.environ.items() if not key.startswith("PYTHON")}
    env.update(PINS)
    return env


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long the timed passes run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny parameters, few passes: for the benchmark's own tests")
    return parser.parse_args(argv)


class Interrupted(Exception):
    pass


def _interrupt(signum, frame):
    # Raised inside os.wait4, so `launch` kills and reaps the child.
    raise Interrupted("terminated" if signum == signal.SIGTERM else f"run exceeded {DEADLINE_S} s")


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "monadforge", "cli.py")):
        print(f"error: no monadforge sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    env = pinned_environment()
    if env != dict(os.environ):
        # Pin hashing, time stamps and threads for this process and its children.
        sys.stdout.flush()
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    # One CPU for this process and every child: the reference kernel and the
    # workload must run on the same vCPU, whose speed differs from the other's.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.setswitchinterval(0.0005)  # wake the waiting thread promptly when a child exits
    signal.signal(signal.SIGALRM, _interrupt)
    signal.signal(signal.SIGTERM, _interrupt)
    signal.alarm(DEADLINE_S)
    tally = Tally()
    os.makedirs(SCRATCH, exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=SCRATCH) as out_dir:
            jobs = WORKLOADS[args.workload](args.seed, out_dir, args.smoke)
            # Untimed warm-up pass: the same commands at smoke size import and
            # compile every module the timed passes use, for a fraction of the time.
            warm_up = WORKLOADS[args.workload](args.seed, out_dir, True)
            measure = traced if args.trace else end_to_end
            metrics = measure(jobs, warm_up, args, tally, out_dir)
    except Interrupted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
        try:
            os.rmdir(SCRATCH)
        except OSError:
            pass
    error_rate = tally.failed / tally.attempted
    print(f"{args.workload} seed {args.seed}: {tally.attempted} commands, {tally.failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(f"error_rate {error_rate} ratio")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
