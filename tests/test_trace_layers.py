"""The layers that the traced benchmark run wraps by name still exist.

`perfbench/tracing.py` replaces each `(module, attribute)` of its `LAYERS`
with a timed wrapper, looking the attribute up with no default; a layer
deleted from the package would make every traced run raise.  This test
reads that list (tracing.py imports only the standard library) and resolves
each name here instead, and runs a traced `report` to check the scan counts
that tracing.py reads off the scan report.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import sys
from pathlib import Path

from monadforge import cli

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves(monkeypatch):
    layers = _load_tracing(monkeypatch).LAYERS
    assert layers
    missing = []
    for module_name, attr, _metric, _counter in layers:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attr}")
    assert missing == []


def test_traced_report_counts_its_scan_rows(monkeypatch, tmp_path):
    # `_count_scan` reads a report's rows by len and iteration; the row grid
    # must give it the counts the row tuple gave
    tracing = _load_tracing(monkeypatch)
    target = tmp_path / "report.json"
    tracer = tracing.Tracer()
    with tracer.installed():
        code = cli.main(["report", "--n", "1", "--m", "2", "--k", "3", "--output", str(target)])
    assert code == 0
    entries_checked = json.loads(target.read_text())["stability"]["entries_checked"]
    counts = tracer.count_metrics()
    assert counts["stability.scan_calls"] == 2
    assert counts["stability.rows"] == 2 * entries_checked > 0
    assert counts["stability.nonzero_rows"] == 0
    assert counts["stability.distinct_scan_ratio"] == 0.5


def test_traced_counterexample_scan_counts_its_nonzero_rows(monkeypatch, tmp_path):
    # a report holds only its nonzero rows; `_count_scan` reads every row of
    # its grid, and must count the rows and nonzero rows the document holds
    tracing = _load_tracing(monkeypatch)
    target = tmp_path / "stability.json"
    tracer = tracing.Tracer()
    argv = ["stability", "--n", "1", "--m", "1", "--k", "1", "--max-q", "3", "--min-psum", "-8",
            "--max-psum", "2", "--output", str(target)]
    with tracer.installed():
        code = cli.main(argv)
    assert code == 1
    doc = json.loads(target.read_text())
    counts = tracer.count_metrics()
    assert counts["stability.rows"] == doc["entries_checked"] == len(doc["checked"])
    assert counts["stability.nonzero_rows"] == sum(1 for row in doc["checked"] if row["h0"]) > 0


def test_traced_report_shows_its_intersection_numbers(monkeypatch, tmp_path):
    # `report` calls the public chow functions that LAYERS wraps by name, so
    # its invariants and its degree check are each timed; the one degree_L
    # call is the invariants', since the shift and the check read its degree
    tracing = _load_tracing(monkeypatch)
    tracer = tracing.Tracer()
    argv = ["report", "--n", "1", "--m", "2", "--k", "3", "--output", str(tmp_path / "report.json")]
    with tracer.installed():
        assert cli.main(argv) == 0
    assert tracer.count_metrics()["chow.degree_L_calls"] == 1
    times = tracer.self_times()
    assert times["chow.invariants_s"] > 0
    assert times["chow.degree_check_s"] > 0
