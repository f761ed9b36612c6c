"""Measure the child CPU and peak RSS of one monadforge command, alone or
against a second checkout.

Run:  python3 tests/childcost.py [--runs N] [--against CHECKOUT] -- ARGV...

Each run is `python3 -m monadforge.cli ARGV...` as a child process, with a
checkout's `src` first on PYTHONPATH, SOURCE_DATE_EPOCH fixed and standard
output in a temporary file; its user and kernel CPU and its peak RSS are
read from `os.wait4`.  The checkout this file belongs to ("this") runs N times;
with --against, so does CHECKOUT ("other"), the two alternating in N pairs
whose order flips from pair to pair (this, other, other, this, ...).  Every
run must end with the exit code and write the bytes of the first run, or the
script names the run that differs and exits 1.

Both sides read and write their compiled modules under the script's
temporary directory: the children run with PYTHONPYCACHEPREFIX set there
and PYTHONDONTWRITEBYTECODE removed, so neither a checkout's own
`__pycache__` nor its absence (where the shell says not to write bytecode,
every module is compiled again on every run) favours one side.  Each side
first runs once untimed, which compiles its modules; those runs count only
towards the exit code and bytes that every run must match.

Prints the command's exit code and output size, then one row per side: the
runs, and the first quartile, median and third quartile of user CPU and of
kernel CPU in ms and of peak RSS in MB.  With --against it then prints, for
child CPU (user + kernel), in how many of the pairs each side was the lower,
so that a change of a few ms can be read pair by pair.  A child's peak RSS
is never below this script's own (about 10 MB), which it shares until the
child's `exec`.

Only the standard library is used, and pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import statistics
import sys
import tempfile
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE_DATE_EPOCH = "1700000000"


Cost = Tuple[float, float, float]  # (user CPU ms, kernel CPU ms, peak RSS MB)


def run_once(checkout: str, argv: List[str], scratch: str) -> Tuple[int, str, int, Cost]:
    """(exit code, SHA-256 of stdout, stdout bytes, cost) of one
    `monadforge argv` run from `checkout`."""
    out = os.path.join(scratch, "out")
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, out, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, os.path.join(scratch, "err"), flags, 0o644),
    ]
    env = dict(os.environ, SOURCE_DATE_EPOCH=SOURCE_DATE_EPOCH)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = os.path.join(scratch, "pycache")
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(checkout, "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    )
    command = [sys.executable, "-m", "monadforge.cli", *argv]
    pid = os.posix_spawn(sys.executable, command, env, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    digest = hashlib.sha256()
    with open(out, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return (
        os.waitstatus_to_exitcode(status),
        digest.hexdigest(),
        os.path.getsize(out),
        (usage.ru_utime * 1000, usage.ru_stime * 1000, usage.ru_maxrss / 1024),
    )


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile); a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=5, help="runs (pairs with --against); default 5")
    parser.add_argument("--against", help="a second checkout to alternate with")
    parser.add_argument("command", nargs="+", help="the monadforge arguments, after --")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    sides = {"this": ROOT}
    if args.against is not None:
        sides["other"] = os.path.abspath(args.against)
    costs: Dict[str, List[Cost]] = {side: [] for side in sides}
    first = None

    def differs(run: str, code: int, digest: str, size: int) -> bool:
        """Whether `run` ended unlike the first run; says so if it did."""
        nonlocal first
        if first is None:
            first = (code, digest, size)
        elif (code, digest) != first[:2]:
            print(f"{run} ended with exit {code} and {size:,d} bytes unlike the first run "
                  f"(exit {first[0]}, {first[2]:,d} bytes)")
            return True
        return False

    with tempfile.TemporaryDirectory(prefix="childcost-") as scratch:
        for side in sides:  # untimed: compiles the side's modules
            if differs(f"the untimed run of {side} ({sides[side]})",
                       *run_once(sides[side], args.command, scratch)[:3]):
                return 1
        for i in range(args.runs):
            order = list(sides) if i % 2 == 0 else list(sides)[::-1]
            for side in order:
                code, digest, size, cost = run_once(sides[side], args.command, scratch)
                if differs(f"run {i + 1} of {side} ({sides[side]})", code, digest, size):
                    return 1
                costs[side].append(cost)
    print(f"monadforge {' '.join(args.command)}: exit {first[0]}, {first[2]:,d} bytes, "
          f"the same on every run")
    print(f"{'side':<6} {'runs':>4}   {'user_ms q1':>10} {'median':>9} {'q3':>9}   "
          f"{'sys_ms q1':>9} {'median':>8} {'q3':>8}   "
          f"{'rss_mb q1':>9} {'median':>8} {'q3':>8}   checkout")
    for side, runs in costs.items():
        user, kernel, rss = (quartiles([run[i] for run in runs]) for i in range(3))
        print(f"{side:<6} {len(runs):>4}   {user[0]:10.1f} {user[1]:9.1f} {user[2]:9.1f}   "
              f"{kernel[0]:9.1f} {kernel[1]:8.1f} {kernel[2]:8.1f}   "
              f"{rss[0]:9.1f} {rss[1]:8.1f} {rss[2]:8.1f}   {sides[side]}")
    if args.against is not None:
        cpu = {side: [run[0] + run[1] for run in runs] for side, runs in costs.items()}
        lower = sum(a < b for a, b in zip(cpu["this"], cpu["other"]))
        higher = sum(a > b for a, b in zip(cpu["this"], cpu["other"]))
        print(f"child CPU (user + kernel) lower in: this {lower} of {args.runs} pairs, "
              f"other {higher} of {args.runs}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
