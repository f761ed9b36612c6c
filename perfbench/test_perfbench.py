"""Tests of the benchmark itself: python3 -m pytest perfbench

The smoke tests run every workload, in both modes, at tiny parameters
through the same code and checks as a real run.  The negative tests show
that an unexpected exit code or a wrong field is counted as a failure.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, job  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


def _bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.fixture
def pinned(monkeypatch):
    for key, value in run.PINS.items():
        monkeypatch.setenv(key, value)


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke(workload, trace):
    done = _bench("--workload", workload, "--seed", "5", "--seconds", "0.5", "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    if workload == "scan-wide" and trace == "1":
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        assert metrics["stability.scan_calls"] == 2
        assert metrics["stability.distinct_scan_ratio"] == 0.5


def test_unexpected_exit_code_is_a_failure(tmp_path, pinned):
    # The box reaches below p-sum 0, so the scan finds a counterexample and exits 1.
    bad = job("stability", str(tmp_path), 1, 1, 1, seed=0, scan=(1, 4, 2), min_psum=-2)
    tally = run.Tally()
    run.child_pass([bad], run.Checker(tally), str(tmp_path))
    assert (tally.attempted, tally.failed) == (1, 1)


def test_wrong_field_is_a_failure(tmp_path, pinned):
    good = job("invariants", str(tmp_path), 1, 2, 3, seed=0)
    tally = run.Tally()
    check = run.Checker(tally)
    run.child_pass([good], check, str(tmp_path))
    assert (tally.attempted, tally.failed) == (1, 0)
    with open(good.output, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["c1"][0] -= 1
    with open(good.output, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    check(good, 0)
    assert (tally.attempted, tally.failed) == (2, 1)


def test_every_scan_row_is_checked(tmp_path, pinned):
    scan = job("stability", str(tmp_path), 1, 1, 1, seed=0, scan=(2, 2, 2))
    run.child_pass([scan], run.Checker(run.Tally()), str(tmp_path))
    with open(scan.output, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert checks.problems(scan, doc) == []
    doc["checked"][-1]["h0"] = 1
    assert any("checked[" in p for p in checks.problems(scan, doc))


def test_closed_forms_match_the_reference_example():
    # README: (1,2,3) has rank 15, c1 (-7,-7,-8,-8) and degree -1380.
    assert checks.rank_T(1, 2, 3) == 15
    assert checks.c1_T(1, 2, 3) == [-7, -7, -8, -8]
    assert checks.degree_T(1, 2, 3) == -1380


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "small-ladder", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
