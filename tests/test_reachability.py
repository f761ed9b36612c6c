"""`src/monadforge` is what the seven subcommands run.

A child interpreter installs a `sys.setprofile` hook before it imports
`monadforge.cli`, then runs `cli.main` on a fixed list of command lines:
help, the version line and usage errors; every subcommand, the scans both
ALL_VANISH and COUNTEREXAMPLE; and `verify --input` of a build, of the
build re-serialised by `json.dumps` (build's monad, parsed whole), of the
build with two f-blocks scaled (on the band, not build's monad: the entry
walks, the product and the lemma), of a build tampered off the band, of a
build with a band scalar divisible by the prime (so that the sampled-rank
fallback runs) and of a document that is not a monad.  Every `def` of the package that the hook never sees called must be
on `ALLOWED`, and every entry of `ALLOWED` must be such a `def`: a function
no command calls moves to `tests/oracles.py` or is deleted.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Tuple

from monadforge.polyring import DEFAULT_PRIME

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "monadforge"

# module.qualname -> why it stays in the package although no command calls it
LAYER = "(a) perfbench/tracing.py's LAYERS wraps it by name"
LAYER_NEEDS = "(a) a function LAYERS names, or its callers, need it"
COUNT_SCAN = "(b) perfbench/tracing.py's _count_scan reads the rows through it"
RECORD = "(c) a record's immutability guard or a repr"
ENTRY = "(d) the process entry, which the console script calls"
CONTRACT = "(e) schemas builds the published contract"
HASHED = "(f) perfbench/tracing.py's _count_scan puts each report's config in a set"
READ_BACK = "(g) a certificate's value for library readers; its document writes it from one sequence"
ALLOWED: Dict[str, str] = {
    "les.les_propagate": LAYER,
    "les.les_propagate.bounds": LAYER,
    "cohomology.exterior_power_sum": LAYER,
    "cohomology.exterior_power_sum.descend": LAYER,
    "les.CohProfile.unknown": LAYER_NEEDS,
    "les.CohProfile.interval": LAYER_NEEDS,
    "polyring.MultiDegree.__add__": LAYER_NEEDS,
    "polyring.MultiDegree.scale": LAYER_NEEDS,
    "cohomology.LineBundleSum.rank": LAYER_NEEDS,
    "stability.RowGrid.__iter__": COUNT_SCAN,
    "stability.RowGrid.__len__": COUNT_SCAN,
    "polyring.Record.__setattr__": RECORD,
    "polyring.Record.__delattr__": RECORD,
    "polyring.Record.__repr__": RECORD,
    "polyring.MultiDegree.__repr__": RECORD,
    "cohomology.LineBundleSum.__repr__": RECORD,
    "cli.run": ENTRY,
    "schemas._object": CONTRACT,
    "schemas._keyed": CONTRACT,
    "schemas._document": CONTRACT,
    "polyring.Record.__hash__": HASHED,
    "les.SimplicityCertificate.h0_T_dual_twisted": READ_BACK,
    "les.SimplicityCertificate.h1_T_dual_twisted": READ_BACK,
}

# the child: profile every call into the package, run `cli.main` on each
# command line of the JSON list on stdin, print the (file, first line) of
# every code object called
PROBE = r"""
import contextlib, io, json, os, sys
root = os.path.join(sys.argv[1], "")
called = set()

def hook(frame, event, arg):
    if event == "call" and frame.f_code.co_filename.startswith(root):
        called.add((os.path.basename(frame.f_code.co_filename), frame.f_code.co_firstlineno))

argvs = json.load(sys.stdin)
out = sys.stdout
sys.setprofile(hook)
from monadforge import cli
codes = []
for argv in argvs:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(cli.main(argv))
sys.setprofile(None)
json.dump({"codes": codes, "called": sorted(called)}, out)
"""


def package_defs() -> Dict[Tuple[str, int], str]:
    """(file name, first line of its code object) -> module.qualname, for
    every def of the package; nested names drop the `<locals>` part."""
    defs: Dict[Tuple[str, int], str] = {}

    def visit(node: ast.AST, file: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                defs[file, first] = f"{prefix}.{child.name}"
                visit(child, file, f"{prefix}.{child.name}")
            elif isinstance(child, ast.ClassDef):
                visit(child, file, f"{prefix}.{child.name}")
            else:
                visit(child, file, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.name, path.stem)
    return defs


def _documents(tmp_path: Path) -> Dict[str, Path]:
    """The build of (1,1,1) as `build` writes it, five documents made from
    it, and one that is not a monad."""
    from monadforge import cli

    built = tmp_path / "built.json"
    assert cli.main(["build", "--output", str(built)]) == 0
    doc = json.loads(built.read_text())
    entries = doc["monad"]["f"]["entries"]
    assert entries[0][0] == [{"coeff": "1", "exps": {"y1": 1}}]

    def variant(name: str, cell: list) -> Path:
        entries[0][0] = cell
        path = tmp_path / name
        path.write_text(json.dumps(doc, indent=2, sort_keys=True))
        return path

    # build's monad spelled by json.dumps, and with f-blocks 1 and 2 (the
    # first four cells of the 1 x 8 f) scaled by 2: on the band, not build's
    # monad, and f g = 0 as 2 - 2 = 0
    reserialized = tmp_path / "reserialized.json"
    reserialized.write_text(json.dumps(doc))
    scaled_doc = json.loads(built.read_text())
    for cell in scaled_doc["monad"]["f"]["entries"][0][:4]:
        for term in cell:
            term["coeff"] = str(2 * int(term["coeff"]))
    scaled = tmp_path / "scaled.json"
    scaled.write_text(json.dumps(scaled_doc))

    paths = {
        "built": built,
        "reserialized": reserialized,
        "scaled": scaled,
        # a block-1 entry of f in the x group: off the band
        "tampered": variant("tampered.json", [{"coeff": "1", "exps": {"x1": 1}}]),
        # on the band, but a scalar is 0 mod p: the lemma does not apply
        "zero_mod_p": variant("zero_mod_p.json", [{"coeff": str(DEFAULT_PRIME), "exps": {"y1": 1}}]),
        "not_a_monad": tmp_path / "invariants.json",
    }
    assert cli.main(["invariants", "--output", str(paths["not_a_monad"])]) == 0
    return paths


def command_lines(tmp_path: Path) -> List[Tuple[List[str], int]]:
    """(argv, its exit code) for every command line the child runs."""
    docs = _documents(tmp_path)
    out = str(tmp_path / "out.json")
    counterexample = ["--max-q", "2", "--min-psum", "-2", "--component-bound", "2"]
    lines = [
        (["--help"], 0),
        (["report", "--help"], 0),
        (["--version"], 0),
        ([], 2),
        (["build", "--n", "0"], 2),
        (["build", "--bogus", "1"], 2),
        (["cohomology", "1", "2"], 2),
        (["stability", "--max-q", "99"], 2),
        (["verify", "--input", str(tmp_path / "missing.json")], 2),
        (["build"], 0),
        (["build", "--format", "text"], 0),
        (["build", "--n", "1", "--m", "2", "--k", "2", "--output", out], 0),
        (["verify"], 0),
        (["cohomology", "--n", "1", "--m", "2", "--", "1", "-1", "0", "-4"], 0),
        (["invariants", "--n", "1", "--m", "2", "--k", "3"], 0),
        (["stability"], 0),
        (["stability", *counterexample], 1),
        (["simplicity"], 0),
        (["simplicity", *counterexample], 1),
        (["report", "--n", "1", "--m", "2", "--k", "3"], 0),
        (["report", *counterexample], 1),
    ]
    verdicts = {
        "built": 0, "reserialized": 0, "scaled": 0, "tampered": 1, "zero_mod_p": 1, "not_a_monad": 1
    }
    lines += [(["verify", "--input", str(docs[name])], code) for name, code in verdicts.items()]
    return lines


def test_every_def_of_the_package_is_called_or_allowed(tmp_path):
    lines = command_lines(tmp_path)
    env = dict(
        os.environ,
        PYTHONPATH=str(PACKAGE.parent),
        PYTHONDONTWRITEBYTECODE="1",
        SOURCE_DATE_EPOCH="0",
    )
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(PACKAGE)],
        input=json.dumps([argv for argv, _ in lines]),
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [code for _, code in lines]

    defs = package_defs()
    called = {tuple(key) for key in result["called"]}
    never_called = {name for key, name in defs.items() if key not in called}
    assert never_called == set(ALLOWED)

