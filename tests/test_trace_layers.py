"""The layers that the traced benchmark run wraps by name still exist.

`perfbench/tracing.py` replaces each `(module, attribute)` of its `LAYERS`
with a timed wrapper, looking the attribute up with no default; a layer
deleted from the package would make every traced run raise.  This test
reads that list (tracing.py imports only the standard library) and resolves
each name here instead.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

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
