"""The mutant table's cheap half: each row applies to the checkout as it is
and names tests that exist.  `python3 tests/mutants.py` runs the table."""

from __future__ import annotations

import os
import subprocess
import sys

from mutants import MUTANTS, ROOT, mutated


def test_each_mutant_replaces_one_text_and_still_compiles():
    assert len({mutant.name for mutant in MUTANTS}) == len(MUTANTS)
    for mutant in MUTANTS:
        assert mutant.new != mutant.old, mutant.name
        text = mutated(mutant, (ROOT / mutant.path).read_text(encoding="utf-8"))
        compile(text, mutant.path, "exec")


def test_each_named_test_exists():
    tests = sorted({test for mutant in MUTANTS for test in mutant.tests})
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *tests],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert set(tests) <= set(proc.stdout.splitlines())
