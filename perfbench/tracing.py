"""Spans and counters around monadforge's layers, for the traced run.

The wrappers live here, not in the program: `Tracer.installed()` replaces
each layer function below at every module attribute that holds it (so
`monadforge.cli.run_stability_scan`, `monadforge.les.run_stability_scan`
and `monadforge.stability.run_stability_scan` are all traced), and puts the
originals back on exit.  A later change that makes the CLI call a layer
from a new place is traced without editing this file.

Each span records (name, start, end, parent).  A layer's self time is its
spans' duration minus the time of the spans nested inside them, so the self
times of one pass add up to the time spent inside `cli.main`.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple


def _count_scan(tracer: "Tracer", report) -> None:
    tracer.counts["stability.scan_calls"] += 1
    tracer.counts["stability.rows"] += len(report.checked)
    tracer.counts["stability.nonzero_rows"] += sum(1 for _, _, h0 in report.checked if h0)
    tracer.scan_configs.add(report.config)


def _count_wedge(tracer: "Tracer", wedge) -> None:
    tracer.counts["cohomology.exterior_power_calls"] += 1
    tracer.counts["cohomology.wedge_summands"] += len(wedge.summands)


def _count_dumps(tracer: "Tracer", text: str) -> None:
    tracer.counts["polyring.dumps_bytes"] += len(text.encode("utf-8"))


def _count_rank(tracer: "Tracer", _rank: int) -> None:
    tracer.counts["polyring.rank_calls"] += 1


def _count_samples(tracer: "Tracer", report) -> None:
    tracer.counts["monad.rank_samples"] += len(report.rank_f_samples)


def _count_degree(tracer: "Tracer", _degree: int) -> None:
    tracer.counts["chow.degree_L_calls"] += 1


CountFn = Optional[Callable[["Tracer", object], None]]

# (module, attribute, self-time metric or None for count-only, counter)
LAYERS: Tuple[Tuple[str, str, Optional[str], CountFn], ...] = (
    ("monadforge.cli", "main", "cli.main_self_s", None),
    ("monadforge.stability", "run_stability_scan", "stability.scan_s", _count_scan),
    ("monadforge.cohomology", "exterior_power_sum", "cohomology.exterior_power_s", _count_wedge),
    ("monadforge.polyring", "dumps_canonical", "polyring.dumps_s", _count_dumps),
    ("monadforge.polyring", "matrix_mul", "polyring.matrix_mul_s", None),
    ("monadforge.polyring", "evaluate_matrix", "polyring.evaluate_matrix_s", None),
    ("monadforge.polyring", "rank_over_field", "polyring.rank_over_field_s", _count_rank),
    ("monadforge.polyring", "matrix_from_json", "polyring.matrix_from_json_s", None),
    ("monadforge.monad", "assemble_monad", "monad.assemble_s", None),
    ("monadforge.monad", "MonadSpec.from_json", "monad.from_json_s", None),
    ("monadforge.monad", "MonadSpec.structural_problems", "monad.structural_s", None),
    ("monadforge.monad", "verify_composition", "monad.compose_s", None),
    ("monadforge.monad", "verify_maximal_rank", "monad.rank_sample_s", _count_samples),
    ("monadforge.chow", "invariants_of_T", "chow.invariants_s", None),
    ("monadforge.chow", "degree_simplification_check", "chow.degree_check_s", None),
    ("monadforge.chow", "degree_L", None, _count_degree),
    ("monadforge.les", "simplicity_certificate", "les.certificate_self_s", None),
    ("monadforge.les", "les_propagate", "les.propagate_s", None),
)

COUNTS = (
    "stability.scan_calls",
    "stability.rows",
    "stability.nonzero_rows",
    "cohomology.exterior_power_calls",
    "cohomology.wedge_summands",
    "polyring.dumps_bytes",
    "polyring.rank_calls",
    "monad.rank_samples",
    "chow.degree_L_calls",
)


class Tracer:
    """Spans and counts of one traced pass."""

    def __init__(self) -> None:
        self.spans: List[list] = []  # [name, start, end, parent index or None]
        self.counts: Counter = Counter()
        self.scan_configs: set = set()
        self._open: List[int] = []

    def _wrap(self, fn: Callable, name: Optional[str], counter: CountFn) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
            else:
                index = len(self.spans)
                self.spans.append([name, time.perf_counter(), None, self._open[-1] if self._open else None])
                self._open.append(index)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.spans[index][2] = time.perf_counter()
                    self._open.pop()
            if counter is not None:
                counter(self, result)
            return result

        return traced

    @contextmanager
    def installed(self) -> Iterator[None]:
        """Trace every layer in LAYERS while the block runs."""
        patches = []
        modules = [mod for key, mod in sys.modules.items() if key == "monadforge" or key.startswith("monadforge.")]
        try:
            for module_name, attr, name, counter in LAYERS:
                owner = sys.modules[module_name]
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(owner, cls_name)
                    raw = cls.__dict__[method]
                    if isinstance(raw, staticmethod):
                        new = staticmethod(self._wrap(raw.__func__, name, counter))
                    else:
                        new = self._wrap(raw, name, counter)
                    patches.append((cls, method, raw))
                    setattr(cls, method, new)
                    continue
                fn = getattr(owner, attr)
                wrapped = self._wrap(fn, name, counter)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            patches.append((mod, key, fn))
                            setattr(mod, key, wrapped)
            yield
        finally:
            for target, key, value in reversed(patches):
                setattr(target, key, value)

    def self_times(self) -> Dict[str, float]:
        """Self seconds per layer; every layer in LAYERS appears, 0.0 if never called."""
        out = {name: 0.0 for _, _, name, _ in LAYERS if name}
        for name, start, end, parent in self.spans:
            out[name] += end - start
            if parent is not None:
                out[self.spans[parent][0]] -= end - start
        return out

    def count_metrics(self) -> Dict[str, float]:
        """Every count in COUNTS, plus the share of scans that were not repeats."""
        out: Dict[str, float] = {name: self.counts[name] for name in COUNTS}
        calls = self.counts["stability.scan_calls"]
        out["stability.distinct_scan_ratio"] = len(self.scan_configs) / calls if calls else 0.0
        return out
