"""The mutant table: each shortcut of the program, broken on purpose, and the
tests that must catch it.

A row names a file of the checkout, an exact text that occurs once in it,
the text that replaces it, and the pytest node ids of the tests that must
fail once it is replaced.  Only the standard library and pytest are used,
and pytest does not collect this file; `tests/test_mutants.py` checks the
table itself (each old text occurs once, each named test exists).

Run:  python3 tests/mutants.py

The checkout is copied to a temporary directory.  There each mutant is
applied alone, one after another, and only its own tests run, against the
copy's `src`.  A mutant survives unless every test it names fails.  Each
result is printed, and the exit status is 1 if any mutant survived.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import List, NamedTuple, Tuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the root of the checkout
    old: str
    new: str
    tests: Tuple[str, ...]  # node ids, each of which must fail


CLI = "src/monadforge/cli.py"
COHOMOLOGY = "src/monadforge/cohomology.py"
MONAD = "src/monadforge/monad.py"
STABILITY = "src/monadforge/stability.py"
KILLED = "tests/test_cli.py::test_a_run_killed_mid_write_leaves_no_document_it_did_not_write"
WRITTEN_OVER = "tests/test_cli.py::test_a_document_is_written_over_the_file_already_there"
WRITE_CALLS = ("tests/test_cli.py::test_a_document_file_leaves_in_writes_of_the_buffer_size",)

MUTANTS: Tuple[Mutant, ...] = (
    Mutant("the commit byte", CLI, r'["\0" * len(first) + head[1:]]', "[head]",
           (f"{KILLED}[2]", f"{KILLED}[3]")),
    Mutant("no O_TRUNC at open", CLI, "flags & ~os.O_TRUNC", "flags",
           ("tests/test_cli.py::test_an_output_is_never_opened_with_o_trunc",)),
    Mutant("the cut to length", CLI, "fh.truncate()", "fh.flush()",
           (f"{WRITTEN_OVER}[longer file]", f"{WRITTEN_OVER}[symlink]", f"{WRITTEN_OVER}[hard link]")),
    Mutant("the file's buffer size", CLI, "buffering=_WRITE_BUFFER, opener", "buffering=-1, opener",
           WRITE_CALLS),
    Mutant("stdout's buffer size", CLI, "buffering=_WRITE_BUFFER, closefd", "buffering=-1, closefd",
           WRITE_CALLS),
    Mutant("stdout left open", CLI, "closefd=False), False", "closefd=True), False",
           ("tests/test_cli.py::test_stdout_stays_open_after_a_document",
            "tests/test_demos.py::test_demo_exits_0[build_and_verify.py]")),
    Mutant("removal on failure", CLI, "os.remove(os.path.realpath(output))", "pass",
           ("tests/test_cli.py::test_a_box_too_large_to_write_exits_2_without_a_traceback",)),
    Mutant("stdout's own file", CLI, "os.path.samestat(st, os.fstat(1))", "False",
           ("tests/test_cli.py::test_an_output_that_is_stdouts_own_file_is_written_through_stdout",)),
    Mutant("the component bound's flag bound", CLI, "_int_in(0, _GRID_BOUND_LIMIT)", "_int_in(0)",
           ("tests/test_cli.py::test_a_too_large_component_bound_is_refused_by_its_flag",)),
    Mutant("one degree per factor", COHOMOLOGY, "0 if d >= 0 else D", "0 if d > 0 else D",
           ("tests/test_cohomology.py::test_one_degree_per_summand_equals_the_kunneth_convolution",)),
    Mutant("the samples allocated first", MONAD, "rank_f = [0] * trials", "rank_f = [0] * min(trials, 64)",
           ("tests/test_cli.py::test_trials_that_no_memory_holds_fail_at_once_off_the_band",)),
    Mutant("the box's pruning", STABILITY, "left * top", "left * cb",
           ("tests/test_stability.py::test_box_visits_only_the_prefixes_of_its_twists",)),
    Mutant("the h0s of a nonzero q", STABILITY, "h0s.get(q, repeat(0))", "repeat(0)",
           ("tests/test_polyring.py::test_streamed_rows_equal_json_dumps_of_the_row_dicts",)),
)


def mutated(mutant: Mutant, text: str) -> str:
    """`text`, the file of `mutant`, with its old text replaced."""
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: {mutant.old!r} occurs {text.count(mutant.old)} times in {mutant.path}")
    return text.replace(mutant.old, mutant.new)


def survivors(checkout: Path, mutant: Mutant) -> List[str]:
    """The tests of `mutant` that do not fail with it applied in `checkout`."""
    path = checkout / mutant.path
    original = path.read_text(encoding="utf-8")
    path.write_text(mutated(mutant, original), encoding="utf-8")
    # no bytecode is written, so a mutant of the same length as its old text
    # is never shadowed by the bytecode of the file it replaced
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *mutant.tests],
            cwd=checkout, env=env, capture_output=True, text=True,
        )
    finally:
        path.write_text(original, encoding="utf-8")
    lines = proc.stdout.splitlines()
    return [test for test in mutant.tests
            if not any(line == f"FAILED {test}" or line.startswith(f"FAILED {test} ") for line in lines)]


def main() -> int:
    start = time.perf_counter()
    survived = 0
    with tempfile.TemporaryDirectory() as scratch:
        checkout = Path(scratch) / "checkout"
        shutil.copytree(ROOT, checkout, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.pyc"))
        for mutant in MUTANTS:
            alive = survivors(checkout, mutant)
            survived += bool(alive)
            print(f"{'SURVIVED' if alive else 'killed':8}  {mutant.name}  ({mutant.path})", flush=True)
            for test in alive:
                print(f"          not failed: {test}", flush=True)
    print(f"{len(MUTANTS)} mutants, {survived} survived, {time.perf_counter() - start:.1f} s")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
