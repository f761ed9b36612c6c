"""Independent oracles for every document the benchmark's commands write.

`problems(job, doc)` returns what is wrong with one CLI document; an empty
list means the document is correct.  Expected values come from closed forms
computed here, never from monadforge itself; only the published JSON
Schemas (`monadforge.schemas.SCHEMAS`, the tool's output contract) are taken
from the program.
"""

from __future__ import annotations

import itertools
import time
from fractions import Fraction
from math import ceil, comb, factorial, prod
from typing import Dict, Iterator, List, Tuple

import jsonschema

from workloads import Job

SOURCE_DATE_EPOCH = 1700000000
TIMESTAMP = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(SOURCE_DATE_EPOCH))

# Rows of a long `checked` list that go through the schema validator (which
# needs ~15 s for all 186,200 rows of the scan-wide report); every row is
# still compared exactly with the expected row by `_scan`.
_SCHEMA_ROWS = 300
VERIFY_TRIALS = 20  # `verify --trials` default; the workloads never set it


def rank_T(n: int, m: int, k: int) -> int:
    return 2 * n + 2 * m + 3 * k


def c1_T(n: int, m: int, k: int) -> List[int]:
    return [-n - 2 * k, -n - 2 * k, -m - 2 * k, -m - 2 * k]


def delta_L(n: int, m: int) -> Tuple[int, int]:
    """deg_L of O(1,0,0,0) and of O(0,0,1,0): the multinomials of L^(2n+2m-1)."""
    top = factorial(2 * n + 2 * m - 1)
    d_a = top // (factorial(n - 1) * factorial(n) * factorial(m) * factorial(m))
    d_c = top // (factorial(n) * factorial(n) * factorial(m - 1) * factorial(m))
    return d_a, d_c


def degree_T(n: int, m: int, k: int) -> int:
    c = c1_T(n, m, k)
    d_a, d_c = delta_L(n, m)
    return (c[0] + c[1]) * d_a + (c[2] + c[3]) * d_c


def twist_box(component_bound: int, min_psum: int, max_psum: int) -> List[Tuple[int, ...]]:
    """Every p in [-cb, cb]^4 with min_psum <= sum(p) <= max_psum, in lexicographic order."""
    side = range(-component_bound, component_bound + 1)
    return [p for p in itertools.product(side, repeat=4) if min_psum <= sum(p) <= max_psum]


def _bott(dim: int, d: int) -> List[Tuple[int, int]]:
    """Nonzero (i, h^i(P^dim, O(d)))."""
    if d >= 0:
        return [(0, comb(dim + d, dim))]
    if d <= -dim - 1:
        return [(dim, comb(-d - 1, dim))]
    return []


def cohomology_table(n: int, m: int, degree: Tuple[int, int, int, int]) -> Dict[str, int]:
    """h^t(O(a,b,c,d)) on P^n x P^n x P^m x P^m by Bott and Kuenneth."""
    dims = [0] * (2 * n + 2 * m + 1)
    factors = [_bott(dim, d) for dim, d in zip((n, n, m, m), degree)]
    for parts in itertools.product(*factors):
        dims[sum(i for i, _ in parts)] += prod(h for _, h in parts)
    return {str(t): h for t, h in enumerate(dims)}


def problems(job: Job, doc: object) -> List[str]:
    """Everything wrong with `doc`, the document `job` wrote."""
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    from monadforge.schemas import SCHEMAS

    found = [
        f"schema: {err.message}"
        for err in jsonschema.Draft202012Validator(SCHEMAS[job.cmd]).iter_errors(_schema_view(doc))
    ][:5]
    try:
        found += _manifest(job, doc["manifest"])
        found += _CONTENT[job.cmd](job, doc)
    except (KeyError, TypeError, IndexError, ValueError, AttributeError) as exc:
        found.append(f"malformed document: {type(exc).__name__}: {exc}")
    return found


def _schema_view(doc: dict) -> dict:
    """`doc` with any long `checked` list cut to evenly spread sample rows."""

    def cut(section: object) -> object:
        if isinstance(section, dict) and isinstance(section.get("checked"), list):
            rows = section["checked"]
            if len(rows) > _SCHEMA_ROWS:
                step = len(rows) / _SCHEMA_ROWS
                rows = [rows[int(i * step)] for i in range(_SCHEMA_ROWS)] + [rows[-1]]
            return {**section, "checked": rows}
        return section

    view = cut(doc)
    if isinstance(view, dict) and "stability" in view:
        view = {**view, "stability": cut(view["stability"])}
    return view


def _params(job: Job) -> dict:
    return {"n": job.n, "m": job.m, "k": job.k}


def _manifest(job: Job, manifest: dict) -> List[str]:
    expected = {"command": job.cmd, "params": _params(job), "seed": job.seed, "timestamp": TIMESTAMP}
    return [
        f"manifest.{key} is {manifest.get(key)!r}, expected {value!r}"
        for key, value in expected.items()
        if manifest.get(key) != value
    ]


def _expect(found: List[str], where: str, got: object, want: object) -> None:
    if got != want:
        found.append(f"{where} is {_short(got)}, expected {_short(want)}")


def _short(value: object) -> str:
    text = repr(value)
    return text if len(text) <= 120 else text[:117] + "..."


def _invariants(job: Job, doc: dict, where: str) -> List[str]:
    n, m, k = job.n, job.m, job.k
    found: List[str] = []
    _expect(found, f"{where}rank", doc["rank"], rank_T(n, m, k))
    _expect(found, f"{where}c1", doc["c1"], c1_T(n, m, k))
    _expect(found, f"{where}degree", doc["degree"], degree_T(n, m, k))
    _expect(found, f"{where}slope", doc["slope"], str(Fraction(degree_T(n, m, k), rank_T(n, m, k))))
    return found


def _expected_rows(job: Job) -> Iterator[dict]:
    box = twist_box(job.component_bound, job.min_psum, job.max_psum)
    for q in range(1, job.max_q + 1):
        for p in box:
            yield {"q": q, "twist": [-v for v in p], "h0": 0}


def _scan(job: Job, scan: dict, where: str, rows: str) -> List[str]:
    """A vanishing scan over the job's box: verdict, size and every row."""
    found: List[str] = []
    box_size = len(twist_box(job.component_bound, job.min_psum, job.max_psum))
    config = {
        "params": _params(job),
        "max_q": job.max_q,
        "max_psum": job.max_psum,
        "component_bound": job.component_bound,
        "min_psum": job.min_psum,
    }
    _expect(found, f"{where}config", scan["config"], config)
    _expect(found, f"{where}entries_checked", scan["entries_checked"], box_size * job.max_q)
    _expect(found, f"{where}verdict", scan["verdict"], "ALL_VANISH")
    _expect(found, f"{where}counterexample", scan["counterexample"], None)
    if rows == "nonzero":
        _expect(found, f"{where}nonzero", scan["nonzero"], [])
        return found
    checked = scan["checked"]
    _expect(found, f"{where}checked length", len(checked), box_size * job.max_q)
    for index, (got, want) in enumerate(zip(checked, _expected_rows(job))):
        if got != want:
            found.append(f"{where}checked[{index}] is {_short(got)}, expected {want}")
            break
    return found


def _certificate(job: Job, cert: dict, where: str) -> List[str]:
    n, m, k = job.n, job.m, job.k
    found: List[str] = []
    _expect(found, f"{where}conclusion", cert["conclusion"], "SIMPLE_CERTIFIED")
    _expect(found, f"{where}rank_E", cert["rank_E"], 2 * n + 2 * m + 2 * k)
    _expect(found, f"{where}params", cert["params"], _params(job))
    _expect(found, f"{where}t_stable", cert["t_stable"], True)
    _expect(found, f"{where}h0_T_dual_twisted", cert["h0_T_dual_twisted"], [0, 0])
    _expect(found, f"{where}h1_T_dual_twisted", cert["h1_T_dual_twisted"], [0, 0])
    return found + _scan(job, cert["stability"], f"{where}stability.", "nonzero")


def _build(job: Job, doc: dict) -> List[str]:
    monad = doc["monad"]
    width = 2 * job.n + 2 * job.m + 4 * job.k
    found: List[str] = []
    _expect(found, "monad.params", monad["params"], _params(job))
    _expect(found, "monad.f shape", (monad["f"]["rows"], monad["f"]["cols"]), (job.k, width))
    _expect(found, "monad.g shape", (monad["g"]["rows"], monad["g"]["cols"]), (width, job.k))
    return found


def _verify(job: Job, doc: dict) -> List[str]:
    rank = doc["rank"]
    found: List[str] = []
    _expect(found, "verdict", doc["verdict"], "CERTIFIED")
    _expect(found, "composition_zero", doc["composition_zero"], True)
    _expect(found, "structure_problems", doc["structure_problems"], [])
    _expect(found, "rank.params", rank["params"], _params(job))
    _expect(found, "rank.seed", rank["seed"], job.seed)
    _expect(found, "rank.maximal", rank["maximal"], True)
    _expect(found, "rank.rank_f_samples", rank["rank_f_samples"], [job.k] * VERIFY_TRIALS)
    _expect(found, "rank.rank_g_samples", rank["rank_g_samples"], [job.k] * VERIFY_TRIALS)
    _expect(found, "rank.origin ranks", (rank["origin_rank_f"], rank["origin_rank_g"]), (0, 0))
    return found


def _cohomology(job: Job, doc: dict) -> List[str]:
    found: List[str] = []
    _expect(found, "degree", doc["degree"], list(job.degree))
    _expect(found, "table", doc["table"], cohomology_table(job.n, job.m, job.degree))
    return found


def _report(job: Job, doc: dict) -> List[str]:
    n, m, k = job.n, job.m, job.k
    found = _invariants(job, doc["invariants"], "invariants.")
    shift = ceil(Fraction(degree_T(n, m, k), rank_T(n, m, k)) / delta_L(n, m)[0])
    _expect(found, "normalization_shift", doc["normalization_shift"], shift)
    check = doc["degree_check"]
    _expect(found, "degree_check.exact_degree", check["exact_degree"], degree_T(n, m, k))
    _expect(found, "degree_check.agree", check["agree"], check["exact_degree"] == check["uniform_weight_shortcut"])
    found += _scan(job, doc["stability"], "stability.", "checked")
    return found + _certificate(job, doc["simplicity"], "simplicity.")


_CONTENT = {
    "build": _build,
    "verify": _verify,
    "cohomology": _cohomology,
    "invariants": lambda job, doc: _invariants(job, doc, ""),
    "stability": lambda job, doc: _scan(job, doc, "", "checked"),
    "simplicity": lambda job, doc: _certificate(job, doc["certificate"], "certificate."),
    "report": _report,
}
