"""The command-line surface: subcommands, exit codes, manifests, schema
validity, and byte-level determinism."""

from __future__ import annotations

import ast
import calendar
import copy
import errno
import gc
import hashlib
import itertools
import json
import os
import re
import resource
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest

from monadforge import __version__
from monadforge import chow as chow_module
from monadforge import cli as cli_module
from monadforge import monad as monad_module
from monadforge import polyring
from monadforge import stability as stability_module
from monadforge.cli import main
from monadforge.chow import invariants_of_T
from monadforge.cohomology import line_bundle, sum_cohomology
from monadforge.monad import MonadSpec, assemble_monad, sampled_rank_report, verify_composition
from monadforge.polyring import MultiDegree, SpaceParams, dumps_canonical
from monadforge.schemas import SCHEMAS
from oracles import monad_to_json

SRC = Path(__file__).resolve().parent.parent / "src"

EPOCH = "1700000000"
EPOCH_ISO = "2023-11-14T22:13:20Z"


@pytest.fixture(autouse=True)
def pinned_timestamp(monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", EPOCH)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run_cli(capsys, *argv)
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------


def test_build_json_schema_and_round_trip(capsys):
    code, doc = run_json(capsys, "build", "--n", "1", "--m", "2", "--k", "3")
    assert code == 0
    jsonschema.validate(doc, SCHEMAS["build"])
    assert doc["manifest"]["command"] == "build"
    assert doc["manifest"]["timestamp"] == EPOCH_ISO
    spec = MonadSpec.from_json(doc["monad"])
    assert (spec.f.rows, spec.f.cols) == (3, 18)
    # lossless: re-serializing the parsed document reproduces it exactly
    assert monad_to_json(spec) == doc["monad"]


def test_build_text_layout(capsys):
    code, out, _ = run_cli(capsys, "build", "--n", "1", "--m", "2", "--k", "3",
                           "--format", "text")
    assert code == 0
    assert "f (3 x 18):" in out
    assert "g (18 x 3):" in out
    # column blocks of f are fenced with |, row blocks of g with dashes
    f_rows = [line for line in out.splitlines() if "|" in line]
    assert len(f_rows) == 3
    assert all(line.count("|") == 3 for line in f_rows)
    assert sum(1 for line in out.splitlines() if set(line.strip("[] ")) == {"-"}) == 3


def test_build_output_file(tmp_path, capsys):
    target = tmp_path / "monad.json"
    code, out, _ = run_cli(
        capsys, "build", "--n", "1", "--m", "1", "--k", "1", "--output", str(target)
    )
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    jsonschema.validate(doc, SCHEMAS["build"])


@pytest.mark.parametrize("argv", [
    ("report", "--n", "1", "--m", "2", "--k", "3"),
    ("build", "--n", "2", "--m", "1", "--k", "2", "--format", "text"),
])
def test_output_dash_writes_to_stdout(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    expected = run_cli(capsys, *argv)
    assert run_cli(capsys, *argv, "--output", "-") == expected
    assert expected[0] == 0 and expected[1]
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_fresh_build_passes(capsys):
    code, doc = run_json(
        capsys, "verify", "--n", "1", "--m", "2", "--k", "2", "--trials", "5"
    )
    assert code == 0
    jsonschema.validate(doc, SCHEMAS["verify"])
    assert doc["verdict"] == "CERTIFIED"
    assert doc["composition_zero"] is True
    assert doc["structure_problems"] == []
    assert doc["rank"]["maximal"] is True


def test_verify_input_round_trip(tmp_path, capsys):
    monad_file = tmp_path / "monad.json"
    run_cli(capsys, "build", "--n", "1", "--m", "1", "--k", "2",
            "--output", str(monad_file))
    code, doc = run_json(
        capsys, "verify", "--input", str(monad_file), "--trials", "4"
    )
    assert code == 0
    assert doc["verdict"] == "CERTIFIED"


def test_verify_tampered_document_fails(tmp_path, capsys):
    monad_file = tmp_path / "monad.json"
    run_cli(capsys, "build", "--n", "1", "--m", "1", "--k", "1",
            "--output", str(monad_file))
    doc = json.loads(monad_file.read_text())
    doc["monad"]["f"]["entries"][0][0][0]["coeff"] = "7"
    monad_file.write_text(json.dumps(doc))
    code, out = run_json(capsys, "verify", "--input", str(monad_file), "--trials", "4")
    assert code == 1
    jsonschema.validate(out, SCHEMAS["verify"])
    assert out["verdict"] == "FAILED"
    assert out["composition_zero"] is False


@pytest.mark.skipif(cli_module._READ_DIGITS is None, reason="no integer-digit limit")
@pytest.mark.parametrize("caller_limit", [None, 0])
@pytest.mark.parametrize("where", ["coeff", "rows"])
def test_verify_a_long_integer_is_refused_at_once_whatever_the_limit(
    tmp_path, capsys, caller_limit, where
):
    # CPython parses a decimal integer in time quadratic in its digits (about
    # 1 s for 400,000); an outside document is read under the default limit
    # even when the caller lifted it, so the verdict comes before any parse
    monad_file = tmp_path / "monad.json"
    run_cli(capsys, "build", "--n", "1", "--m", "1", "--k", "1", "--output", str(monad_file))
    doc = json.loads(monad_file.read_text())
    if where == "coeff":
        doc["monad"]["f"]["entries"][0][0][0]["coeff"] = "7" * 400_000
        text = json.dumps(doc)
    else:
        text = json.dumps(doc).replace('"rows": 1', '"rows": ' + "7" * 400_000, 1)
    monad_file.write_text(text)
    before = sys.get_int_max_str_digits()
    if caller_limit is not None:
        sys.set_int_max_str_digits(caller_limit)
    try:
        start = time.process_time()
        code, out = run_json(capsys, "verify", "--input", str(monad_file), "--trials", "4")
        spent = time.process_time() - start
        assert sys.get_int_max_str_digits() == (before if caller_limit is None else caller_limit)
    finally:
        sys.set_int_max_str_digits(before)
    assert code == 1
    jsonschema.validate(out, SCHEMAS["verify"])
    assert out["verdict"] == "FAILED"
    assert "limit (4300 digits)" in out["error"]
    assert spent < 0.5


@pytest.mark.parametrize("name", ["x9", "y9"])
def test_verify_out_of_range_variable_fails_cleanly(tmp_path, capsys, name):
    # x9 also lies outside block 1's y group; y9 is in the group but y only
    # runs over y0..y1 when n = 1, so no sample point can assign it
    monad_file = tmp_path / "monad.json"
    run_cli(capsys, "build", "--n", "1", "--m", "1", "--k", "1",
            "--output", str(monad_file))
    doc = json.loads(monad_file.read_text())
    doc["monad"]["f"]["entries"][0][0] = [{"coeff": "1", "exps": {name: 1}}]
    monad_file.write_text(json.dumps(doc))
    code, out = run_json(capsys, "verify", "--input", str(monad_file), "--trials", "4")
    assert code == 1
    jsonschema.validate(out, SCHEMAS["verify"])
    assert out["verdict"] == "FAILED"
    assert any(p.startswith(f"f entry (0,0) uses {name},") for p in out["structure_problems"])
    assert "rank" not in out


def build_document(tmp_path, capsys, n, m, k):
    monad_file = tmp_path / "monad.json"
    run_cli(capsys, "build", "--n", str(n), "--m", str(m), "--k", str(k),
            "--output", str(monad_file))
    return monad_file, json.loads(monad_file.read_text())


def verify_rejected(capsys, monad_file, doc, *flags):
    monad_file.write_text(json.dumps(doc))
    code, out = run_json(capsys, "verify", "--input", str(monad_file), "--trials", "4", *flags)
    assert code == 1
    jsonschema.validate(out, SCHEMAS["verify"])
    assert out["verdict"] == "FAILED"
    assert out["error"].startswith("input document rejected: ")
    return out


def test_verify_truncated_row_names_it_and_keeps_params(tmp_path, capsys):
    monad_file, doc = build_document(tmp_path, capsys, 2, 3, 2)
    doc["monad"]["f"]["entries"][1].pop()
    out = verify_rejected(capsys, monad_file, doc)
    assert out["manifest"]["params"] == {"n": 2, "m": 3, "k": 2}
    assert out["error"] == (
        "input document rejected: matrix JSON has inconsistent shape: "
        "f row 1 does not have 18 entries"
    )


def test_verify_nonlinear_term_is_rejected_by_name(tmp_path, capsys):
    monad_file, doc = build_document(tmp_path, capsys, 2, 3, 2)
    doc["monad"]["f"]["entries"][0][2] = [{"coeff": "1", "exps": {"x0": 1, "y0": 1}}]
    out = verify_rejected(capsys, monad_file, doc)
    assert out["manifest"]["params"] == {"n": 2, "m": 3, "k": 2}
    assert out["error"] == (
        'input document rejected: f entry (0,2) term {"coeff": "1", "exps": '
        '{"x0": 1, "y0": 1}}: not one variable to the power 1'
    )


def test_verify_non_integer_params_are_rejected(tmp_path, capsys):
    # int(2.7) used to read this document as (2,3,2) and certify it; params
    # that do not parse leave the manifest with the invocation's --n/--m/--k
    monad_file, doc = build_document(tmp_path, capsys, 2, 3, 2)
    doc["monad"]["params"]["n"] = 2.7
    out = verify_rejected(capsys, monad_file, doc, "--n", "4")
    assert out["manifest"]["params"] == {"n": 4, "m": 1, "k": 1}
    assert "n must be a positive integer, got 2.7" in out["error"]


@pytest.mark.parametrize(
    "path, message",
    [
        (("params",), "monad document is missing key 'params'"),
        (("f", "rows"), "f is missing key 'rows'"),
        (("source", "summands"), "source: line-bundle sum is missing key 'summands'"),
    ],
    ids=["params", "f.rows", "source.summands"],
)
def test_verify_missing_key_names_its_object(tmp_path, capsys, path, message):
    monad_file, doc = build_document(tmp_path, capsys, 1, 2, 1)
    node = doc["monad"]
    for key in path[:-1]:
        node = node[key]
    del node[path[-1]]
    out = verify_rejected(capsys, monad_file, doc)
    assert out["error"] == f"input document rejected: {message}"


@pytest.mark.parametrize("key", ["source", "middle", "target"])
@pytest.mark.parametrize("value", [None, 3, "ab"], ids=["null", "3", "ab"])
def test_verify_summands_that_are_not_a_list_name_their_key(tmp_path, capsys, key, value):
    monad_file, doc = build_document(tmp_path, capsys, 1, 2, 1)
    doc["monad"][key]["summands"] = value
    out = verify_rejected(capsys, monad_file, doc)
    assert out["error"] == (
        f"input document rejected: {key}: summands must be a JSON list, got {json.dumps(value)}"
    )


def test_verify_unparseable_input_fails(tmp_path, capsys):
    # readable bytes that are not a monad document, in UTF-8 or not, are a FAILED verdict
    bad = tmp_path / "bad.json"
    for content in [b"this is not a monad document", b"\xff\xfe{}"]:
        bad.write_bytes(content)
        code, doc = run_json(capsys, "verify", "--input", str(bad), "--trials", "4")
        assert code == 1
        assert doc["verdict"] == "FAILED"
        assert "error" in doc


def test_verify_missing_input_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "verify", "--input", "/nonexistent/file.json")
    assert code == 2
    assert out == ""


def test_verify_directory_input_is_usage_error(tmp_path, capsys):
    # a path that exists but cannot be read as a file is a usage error, like a missing one
    code, out, err = run_cli(capsys, "verify", "--input", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Is a directory" in err


def first_term_cell(entries):
    return next(cell for row in entries for cell in row if cell)


def swap(items, a, b):
    items[a], items[b] = items[b], items[a]


def term(coeff, name):
    return {"coeff": coeff, "exps": {name: 1}}


def set_cells(monad, *cells):
    for matrix, i, j, terms in cells:
        monad[matrix]["entries"][i][j] = terms


def drop_last_f_column(monad):
    for row in monad["f"]["entries"]:
        row.pop()
    monad["f"]["cols"] -= 1


# Tamperings of the (2,3,2) build for `verify --input` (n = 2, m = 3, k = 2;
# f-block 1 holds y's in its columns 0..3, f-block 2 x's in columns 4..7,
# g-block 1 x's in its rows 0..3).  The first eight keep every structure
# check and fail on composition alone; the ninth keeps both and fails on rank
# alone (f is 0 mod p); the next three fail on structure, with problems of
# two kinds whose order is part of the bytes; the last is a ragged matrix,
# rejected before any check runs.
TAMPERINGS = {
    "f coeff 7": lambda monad: first_term_cell(monad["f"]["entries"])[0].update(coeff="7"),
    "f columns swapped": lambda monad: [swap(row, 1, 2) for row in monad["f"]["entries"]],
    "g rows swapped": lambda monad: swap(monad["g"]["entries"], 1, 2),
    "f band coeff 0 mod p":
        lambda monad: first_term_cell(monad["f"]["entries"])[0].update(coeff="2147483647"),
    "g band coeff 0 mod p":
        lambda monad: first_term_cell(monad["g"]["entries"])[0].update(coeff="2147483647"),
    "g band scalar 5": lambda monad: first_term_cell(monad["g"]["entries"])[0].update(coeff="5"),
    "f extra term": lambda monad: first_term_cell(monad["f"]["entries"]).append(term("1", "y0")),
    "f off-band entry": lambda monad: set_cells(monad, ("f", 0, 0, [term("1", "y0")])),
    "f scaled by p": lambda monad: [
        item.update(coeff=str(int(item["coeff"]) * 2147483647))
        for row in monad["f"]["entries"] for cell in row for item in cell
    ],
    "wrong group in f and g":
        lambda monad: set_cells(
            monad, ("f", 0, 5, [term("1", "y0")]), ("g", 0, 0, [term("1", "t0")])
        ),
    "out of range and wrong group":
        lambda monad: set_cells(
            monad, ("f", 0, 1, [term("1", "y9")]), ("g", 0, 0, [term("1", "t0")])
        ),
    "shape and out of range":
        lambda monad: (drop_last_f_column(monad), set_cells(monad, ("g", 0, 0, [term("1", "x9")]))),
    "f row 0 truncated": lambda monad: monad["f"]["entries"][0].pop(),
}


def resolved_argv(argv, tmp_path, capsys):
    """`argv`, except that a `verify --input` key names a tampering: the
    tampered (2,3,2) build is written to a file and its path put there."""
    if argv[:2] != ("verify", "--input"):
        return list(argv)
    monad_file, doc = build_document(tmp_path, capsys, 2, 3, 2)
    TAMPERINGS[argv[2]](doc["monad"])
    monad_file.write_text(json.dumps(doc))
    return [*argv[:2], str(monad_file), *argv[3:]]


# (exit code, SHA-256 of stdout) with SOURCE_DATE_EPOCH=1700000000, frozen
# from earlier implementations these documents must stay identical to: the
# polynomial ring for build and verify, sampled elimination for every rank
# report that verify now fills from the staircase lemma, the multiplied-out
# f*g for every composition verdict it now takes from the identity, and
# json.dumps of the whole document for the scan commands and build (whose
# rows and matrix entries are now streamed), including a counterexample
# report and a box with no twists at all; and the two entry walks of
# `structural_problems` and the multiplied-out f*g for the FAILED documents
# of TAMPERINGS, whose problem lists a single walk could reorder.
GOLDEN_SHA256 = {
    ("build", "--n", "1", "--m", "2", "--k", "3"):
        (0, "8d2d430ce7ebf1bdaa5a5520799835067c21e96392c15956855afa4d0fb7c1de"),
    ("build", "--n", "1", "--m", "2", "--k", "3", "--format", "text"):
        (0, "25773811eeb5cba259f619ca4f930fdc313d0f359641e8f0b4c4c653d1ac4b9a"),
    ("build", "--n", "3", "--m", "3", "--k", "3"):
        (0, "3550cc9b68290878126a37556e377d1e21acb28cc2038f150f5da2d62c008990"),
    ("build", "--n", "3", "--m", "3", "--k", "3", "--format", "text"):
        (0, "a9303fc24bc6c6edb1cb6c540cebb274f82c405bb6c7c6f969cf0bea571d5b3a"),
    ("build", "--n", "8", "--m", "8", "--k", "8"):
        (0, "3d14ea7773f052b73a9a9b23050b099f9bc7f83fc16286eb1fd492dddf0b2c07"),
    ("build", "--n", "2", "--m", "5", "--k", "1"):
        (0, "0c1c7ab2e263f8e5b8ffc04818007d3306d7f9a599ae5528d438377a5fd02f95"),
    ("verify", "--n", "2", "--m", "3", "--k", "2"):
        (0, "a6117f91038333cd744f48c52de453ab8be1f64656e24eeb2f1a7638f7bcaaf2"),
    ("verify", "--n", "8", "--m", "8", "--k", "8"):
        (0, "e67e2f817f63fe480010938c43852b07e4f83ad0a471fdabdf802d3c73f4c863"),
    ("verify", "--n", "1", "--m", "2", "--k", "3", "--trials", "7", "--seed", "5"):
        (0, "b36513a49d2fcf3d12bdf2048423d4f858453ca7c89e5a53cf69303c5074bacd"),
    ("stability", "--n", "1", "--m", "2", "--k", "3"):
        (0, "98125bf4952736f23d660522cbc1f8e9e6aadfb4ec456c0c15636e04a0694434"),
    ("simplicity", "--n", "1", "--m", "2", "--k", "3"):
        (0, "ec1c5b15e10d9c44167c2bb61cc63dc7b524741cf5b7d57c3a6c723541de73ac"),
    ("report", "--n", "1", "--m", "2", "--k", "3"):
        (0, "c63aea7e437c2c6cb684a612ca5e00e4117834ef36a5cd6f52c63bf0f9ea3d76"),
    ("report", "--n", "2", "--m", "1", "--k", "2", "--max-q", "6", "--min-psum", "-4"):
        (1, "1fa014c941890a25802f44383f4b2ab857262853951dc17a69649abab2f28288"),
    ("report", "--n", "8", "--m", "8", "--k", "8"):
        (0, "0297081747ddc5dff812f397cd508148da325bc86aabb14192ab0d3499faf224"),
    # the benchmark's scan-wide box: 186,200 rows, 24.7 MB
    ("report", "--n", "3", "--m", "3", "--k", "3", "--max-q", "20", "--max-psum", "6",
     "--component-bound", "6"):
        (0, "10b1521a8bd156e6187f4c01c968aa382f8c73768b154e0fc299b513abe40687"),
    ("stability", "--n", "1", "--m", "1", "--k", "1", "--max-q", "1", "--component-bound", "0",
     "--min-psum", "1", "--max-psum", "1"):
        (0, "db0a2037b99e156c64d695eb34072b4ad8697bae5dcf1c7dbac767d9daa2623b"),
    # the fill edge cases, frozen from the writer that took markers and fills
    # apart: a box of the one twist 0 (one row), a counterexample scan, and
    # the largest build
    ("stability", "--n", "1", "--m", "1", "--k", "1", "--max-q", "1", "--component-bound", "0",
     "--min-psum", "0", "--max-psum", "0"):
        (0, "698fbad8ff61312673927541594e8a497d5b00585fa600ad7168f57f72f0cc66"),
    ("stability", "--n", "1", "--m", "1", "--k", "1", "--max-q", "3", "--min-psum", "-8",
     "--max-psum", "2"):
        (1, "3d6ad38b87e68af1de702084dc126a64d8039deb3156154de6f1f01cb9c56080"),
    ("build", "--n", "40", "--m", "40", "--k", "40"):
        (0, "8005fa8e1a162c026983ad2d2ab275e640c3d0930e3df077a7126b8709ada342"),
    # boxes wider than their non-negative orthant, frozen from the scan that
    # enumerated and kept the whole box: 5.06 MB of rows, a counterexample
    ("stability", "--n", "1", "--m", "1", "--k", "1", "--max-q", "2", "--component-bound", "9",
     "--min-psum", "-3", "--max-psum", "1"):
        (1, "58a647b8f51a5898c39d6cc0065d86ca1466cb30fb038933ee9a1f1b0f866ece"),
    ("simplicity", "--n", "1", "--m", "1", "--k", "1", "--max-q", "2", "--component-bound", "9",
     "--min-psum", "-3", "--max-psum", "1"):
        (1, "6319379d17fd10bb8b6bd02b610fa8a8caed58b3d906e73107610f88a79b8f9f"),
    # the only shape with nonzero LES tables: left [0,0,0,0,2], right [0,0,0,2,0]
    ("simplicity", "--n", "1", "--m", "1", "--k", "2"):
        (0, "48a4752dd1c2e61dbf51311000cbc3fbf0374072141e1649db482bc995d8532d"),
    ("simplicity", "--n", "2", "--m", "2", "--k", "1"):
        (0, "1fa0c44b58ebea703836f9974a6f5b2bfa137eda77584a9a59b0acef1530c998"),
    # a tampered (2,3,2) build each; the last item names it in TAMPERINGS
    ("verify", "--input", "f coeff 7"):
        (1, "b8d0e41064ea33d4bc865ef4f480090141d0a2eefea628d046ae1523c71bb774"),
    ("verify", "--input", "f columns swapped"):
        (1, "b8d0e41064ea33d4bc865ef4f480090141d0a2eefea628d046ae1523c71bb774"),
    ("verify", "--input", "g rows swapped"):
        (1, "b8d0e41064ea33d4bc865ef4f480090141d0a2eefea628d046ae1523c71bb774"),
    ("verify", "--input", "f band coeff 0 mod p"):
        (1, "b8d0e41064ea33d4bc865ef4f480090141d0a2eefea628d046ae1523c71bb774"),
    ("verify", "--input", "g band coeff 0 mod p"):
        (1, "b8d0e41064ea33d4bc865ef4f480090141d0a2eefea628d046ae1523c71bb774"),
    ("verify", "--input", "g band scalar 5"):
        (1, "b8d0e41064ea33d4bc865ef4f480090141d0a2eefea628d046ae1523c71bb774"),
    ("verify", "--input", "f extra term"):
        (1, "b8d0e41064ea33d4bc865ef4f480090141d0a2eefea628d046ae1523c71bb774"),
    ("verify", "--input", "f off-band entry"):
        (1, "b8d0e41064ea33d4bc865ef4f480090141d0a2eefea628d046ae1523c71bb774"),
    # composition_zero true, "maximal": false from f's sampled ranks (all 0)
    ("verify", "--input", "f scaled by p"):
        (1, "82095520990230d43c8f37600965118d70470d528f6de73e700badab26574de6"),
    ("verify", "--input", "wrong group in f and g"):
        (1, "0b354c319cdb045ee2234c018aec2e1bd24f175ccb7a7f5facafe745c2107cda"),
    ("verify", "--input", "out of range and wrong group"):
        (1, "439b7855e5a5cc296e9aec35e681151a0d27f2017abd88d54f60d44b8045aa4a"),
    ("verify", "--input", "shape and out of range"):
        (1, "74a05b587339f6b3f7bec3634eed258b43f7a76a82fbe4a49df6974caa21a34e"),
    # rejected at parse: the manifest takes its params (2,3,2) from the document
    ("verify", "--input", "f row 0 truncated"):
        (1, "fd6da778112db1a056195292a246e69f95866c48530e4349529e9e14c3ced5fd"),
    # the two document kinds no other entry covers; no `--` before the
    # degrees, since the golden test appends `--output FILE` after them
    ("cohomology", "--n", "1", "--m", "2", "--k", "3", "-2", "-2", "-3", "-3"):
        (0, "6bbb82626a18b22b938377be4c2d9aaeed53a1a6ca9746189847c554633aed2e"),
    ("invariants", "--n", "1", "--m", "2", "--k", "3"):
        (0, "7581a52bbd4bf3b007dc11cf2478a8e3b878637c296c0ac8b40e6442269529fb"),
    # degrees of thousands of digits, frozen from the factorial quotients
    # that the product of binomials replaced
    ("invariants", "--n", "7500", "--m", "1", "--k", "1"):
        (0, "556fff9d6d5a0d8e8ffd128fc020934ed336149f998268ba10d2ca3c78ac9c65"),
    ("report", "--n", "3000", "--m", "2", "--k", "1"):
        (0, "286ac77632641a7c1b4a04633482ffaad3ea52b14bf7e09e06cba66eb0c20ec8"),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("argv", list(GOLDEN_SHA256), ids=" ".join)
def test_wire_format_bytes_are_frozen(tmp_path, capsys, argv):
    expected = GOLDEN_SHA256[argv]
    argv = resolved_argv(argv, tmp_path, capsys)
    code, out, _ = run_cli(capsys, *argv)
    assert (code, sha256(out)) == expected
    target = tmp_path / "out"
    assert main([*argv, "--output", str(target)]) == code
    assert capsys.readouterr().out == ""
    assert target.read_bytes() == out.encode("utf-8")


# ---------------------------------------------------------------------------
# the published schemas
# ---------------------------------------------------------------------------

# json.dumps(SCHEMAS), unsorted so that key order counts too
SCHEMAS_SHA256 = "7835ed9fba67012b908fc6002df90fd0c85c8b5f957ac43c5f6c0013850e233a"

# one frozen (1,2,3) document of each subcommand: a GOLDEN_SHA256 entry
FROZEN_123 = {
    argv[0]: argv
    for argv in GOLDEN_SHA256
    if argv[1:7] == ("--n", "1", "--m", "2", "--k", "3") and "--format" not in argv
}

# the top-level members a document may leave out; every other one is required
OPTIONAL_MEMBERS = {
    "verify": {"structure_problems", "composition_zero", "rank", "error"},
    "stability": {"checked", "nonzero"},
}


def test_schemas_are_frozen():
    assert sha256(json.dumps(SCHEMAS)) == SCHEMAS_SHA256


@pytest.mark.parametrize("command", sorted(SCHEMAS))
def test_schema_accepts_its_frozen_document_and_rejects_bad_ones(capsys, command):
    jsonschema.Draft202012Validator.check_schema(SCHEMAS[command])
    validator = jsonschema.Draft202012Validator(SCHEMAS[command])
    code, out, _ = run_cli(capsys, *FROZEN_123[command])
    assert (code, sha256(out)) == GOLDEN_SHA256[FROZEN_123[command]]
    doc = json.loads(out)
    assert validator.is_valid(doc)

    def rejects(change) -> bool:
        bad = copy.deepcopy(doc)
        change(bad)
        return not validator.is_valid(bad)

    assert rejects(lambda d: d.update(unexpected=0))
    assert rejects(lambda d: d["manifest"]["params"].update(unexpected=1))
    assert rejects(lambda d: d["manifest"].update(seed="0"))
    for key in doc:
        optional = key in OPTIONAL_MEMBERS.get(command, ())
        assert rejects(lambda d: d.pop(key)) != optional, key


SCAN_WIDE = ("report", "--n", "3", "--m", "3", "--k", "3", "--max-q", "20", "--max-psum", "6",
             "--component-bound", "6")


def write_calls() -> int:
    """The `write` system calls this process has made, from /proc/self/io."""
    with open("/proc/self/io") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("syscw:"))


# a child that writes the document of argv to its stdout and its own count of
# `write` calls for it, read before it exits, to its stderr
STDOUT_WRITE_CALLS = """
import sys
def write_calls():
    with open("/proc/self/io") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("syscw:"))
from monadforge.cli import main
before = write_calls()
code = main(sys.argv[1:])
sys.stdout.flush()
sys.stderr.write(f"{code} {write_calls() - before}")
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/io"), reason="no /proc/self/io")
def test_a_document_file_leaves_in_writes_of_the_buffer_size(tmp_path, capsys):
    # the 24.7 MB scan-wide report comes in 3,472 pieces of at most 10.6 KB;
    # the 256 KiB write buffer, not the pieces, sets the number of calls.  The
    # buffer is written out only when the next piece does not fit, and a piece
    # is under 48 KiB (test_streamed_rows_come_in_bounded_pieces), so every
    # call but the last carries more than 256 - 48 KiB: 118 calls at most
    # here, against 98 measured and 742 through the interpreter's buffer.
    # stdout, in a child whose stdout is a file, is held to the same bound
    # (832 calls through the interpreter's 8 KiB buffer)
    target = tmp_path / "report.json"
    before = write_calls()
    file_code = main([*SCAN_WIDE, "--output", str(target)])
    file_calls = write_calls() - before
    env = dict(os.environ, PYTHONPATH=str(SRC), SOURCE_DATE_EPOCH=EPOCH)
    with open(tmp_path / "stdout.json", "wb") as out:
        child = subprocess.run([sys.executable, "-c", STDOUT_WRITE_CALLS, *SCAN_WIDE],
                               stdout=out, stderr=subprocess.PIPE, text=True, env=env, timeout=300)
    stdout_code, stdout_calls = map(int, child.stderr.split())
    for code, calls, path in [(file_code, file_calls, target),
                              (stdout_code, stdout_calls, tmp_path / "stdout.json")]:
        text = path.read_text()
        assert (code, sha256(text)) == GOLDEN_SHA256[SCAN_WIDE], path
        assert calls <= -(-len(text) // ((256 - 48) * 1024)) + 1, path


OVERWRITTEN = ("build", "--n", "1", "--m", "2", "--k", "3")


@pytest.mark.parametrize("existing", ["longer file", "shorter file", "symlink", "hard link"])
def test_a_document_is_written_over_the_file_already_there(tmp_path, capsys, existing):
    # the file is written in place and cut to the document's length: exactly
    # the new bytes, in the same inode, with its mode kept, through either
    # name of a hard link and at the target of a symlink
    target = tmp_path / "target.json"
    document_bytes = len(run_cli(capsys, *OVERWRITTEN)[1].encode("utf-8"))
    old = b"x" * (document_bytes + 10_000 if existing != "shorter file" else 10)
    target.write_bytes(old)
    target.chmod(0o640)
    output = target
    if existing == "symlink":
        output = tmp_path / "link.json"
        output.symlink_to(target.name)
    elif existing == "hard link":
        output = tmp_path / "second.json"
        os.link(target, output)
    before = target.stat()
    code, out, err = run_cli(capsys, *OVERWRITTEN, "--output", str(output))
    assert (code, out, err) == (0, "", "")
    after = target.stat()
    assert sha256(target.read_text()) == GOLDEN_SHA256[OVERWRITTEN][1]
    assert output.read_bytes() == target.read_bytes()
    assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)
    assert output.is_symlink() == (existing == "symlink")


def test_an_output_is_never_opened_with_o_trunc(tmp_path, capsys, monkeypatch):
    # truncating at open made a run wait on the last run's writeback; a
    # device such as /dev/null, which is never cut to length, still works
    opened = []
    real_open = os.open

    def recording_open(path, flags, *args, **kwargs):
        opened.append((str(path), flags))
        return real_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", recording_open)
    target = tmp_path / "out.json"
    target.write_bytes(b"x" * 100_000)
    for output in [str(target), str(tmp_path / "fresh.json"), os.devnull]:
        code, out, err = run_cli(capsys, *OVERWRITTEN, "--output", output)
        assert (code, out, err) == (0, "", "")
    assert [path for path, _ in opened] == [str(target), str(tmp_path / "fresh.json"), os.devnull]
    assert all(flags & os.O_CREAT and not flags & os.O_TRUNC for _, flags in opened)
    assert sha256(target.read_text()) == GOLDEN_SHA256[OVERWRITTEN][1]


# a child that runs `main` on argv[2:] and dies, as SIGKILL or the OOM killer
# would end it, right after its write of block argv[1] of the document: the
# document's file is opened through a raw file whose `write` ends the process
KILLED_AFTER_BLOCK = """
import io, os, sys
from monadforge import cli
stop, blocks = int(sys.argv[1]), 0

class Dying(io.FileIO):
    def write(self, block):
        global blocks
        written = super().write(block)
        blocks += 1
        if blocks == stop:
            os._exit(9)
        return written

def dying_open(path, mode, buffering, opener):
    return io.BufferedWriter(Dying(path, "w", opener=opener), buffering)

cli.open = dying_open
sys.exit(cli.main(sys.argv[2:]))
"""

# 947,567 bytes at k = 1 and at k = 2, written in four blocks
SPLICED = ("stability", "--n", "1", "--m", "1", "--max-q", "1", "--min-psum", "-1",
           "--component-bound", "6")


@pytest.mark.parametrize("block", [1, 2, 3, 4])
def test_a_run_killed_mid_write_leaves_no_document_it_did_not_write(tmp_path, block):
    # k = 2's first blocks over k = 1's document of the same length parse,
    # with k = 1's manifest: the first byte, NUL until the rest is written
    # and cut to length, keeps any such file from parsing
    old_path, new_path, target = tmp_path / "k1.json", tmp_path / "k2.json", tmp_path / "doc.json"
    assert main([*SPLICED, "--k", "1", "--output", str(old_path)]) == 1
    assert main([*SPLICED, "--k", "2", "--output", str(new_path)]) == 1
    old, new = old_path.read_bytes(), new_path.read_bytes()
    assert len(old) == len(new) and old != new
    target.write_bytes(old)
    env = dict(os.environ, PYTHONPATH=str(SRC), SOURCE_DATE_EPOCH=EPOCH)
    child = subprocess.run(
        [sys.executable, "-c", KILLED_AFTER_BLOCK, str(block), *SPLICED, "--k", "2",
         "--output", str(target)],
        capture_output=True, env=env, timeout=300,
    )
    assert (child.returncode, child.stderr) == (9, b"")
    left = target.read_bytes()
    if left not in (old, new):
        with pytest.raises(json.JSONDecodeError):
            json.loads(left.decode("utf-8"))


def test_report_reads_the_top_intersection_number_once(capsys, monkeypatch):
    # every intersection number of a document is read off one L^(2n+2m),
    # which takes tens of seconds at n = 10^6: `report` and `invariants`
    # compute it exactly once, with no cache, since the shift and the degree
    # check read it from the invariants and never call `top_multinomial`
    top_multinomial = chow_module.top_multinomial
    calls = []

    def counted(params):
        calls.append(params)
        return top_multinomial(params)

    monkeypatch.setattr(chow_module, "top_multinomial", counted)
    for argv in [
        ("report", "--n", "3000", "--m", "2", "--k", "1"),
        ("report", "--n", "2", "--m", "1", "--k", "2", "--max-q", "6", "--min-psum", "-4"),
        ("invariants", "--n", "7500", "--m", "1", "--k", "1"),
    ]:
        params = SpaceParams(int(argv[2]), int(argv[4]), int(argv[6]))
        calls.clear()
        code, out, _ = run_cli(capsys, *argv)
        assert (code, sha256(out)) == GOLDEN_SHA256[argv]
        assert calls == [params]
        inv = invariants_of_T(params)
        calls.clear()
        chow_module.normalization_shift(inv, params)
        chow_module.degree_simplification_check(inv, params)
        assert calls == []


def test_streamed_build_equals_json_dumps_of_the_monad_document(capsys):
    code, out, _ = run_cli(capsys, "build", "--n", "40", "--m", "40", "--k", "40", "--seed", "1")
    manifest = {
        "command": "build",
        "params": {"n": 40, "m": 40, "k": 40},
        "seed": 1,
        "tool_version": __version__,
        "timestamp": EPOCH_ISO,
    }
    monad = monad_to_json(assemble_monad(SpaceParams(40, 40, 40)))
    assert code == 0
    assert out == dumps_canonical({"manifest": manifest, "monad": monad})


def test_criterion_boxes_never_sum_the_generating_function(capsys, monkeypatch):
    # no twist of a box with min_psum >= 0 has every component >= 0 and a
    # positive sum, so the negative-component lemma settles it without the series
    def refuse(*_args):
        raise AssertionError("a box with min_psum >= 0 is ALL_VANISH by the lemma")

    monkeypatch.setattr(stability_module, "_wedge_h0_series", refuse)
    for argv in [
        ("report", "--n", "8", "--m", "8", "--k", "8"),
        ("report", "--n", "3", "--m", "3", "--k", "3", "--max-q", "20", "--max-psum", "6",
         "--component-bound", "6"),
    ]:
        code, out, _ = run_cli(capsys, *argv)
        assert (code, sha256(out)) == GOLDEN_SHA256[argv]


def test_verify_certifies_the_built_monad_without_multiplying(tmp_path, capsys, monkeypatch):
    # f g = 0 by the identity and rank k by the staircase lemma, from (n, m, k):
    # nothing is assembled, walked, multiplied, evaluated or parsed
    def refuse(*_args, **_kwargs):
        raise AssertionError("the built monad is certified from its (n, m, k)")

    monad_file, _ = build_document(tmp_path, capsys, 8, 8, 8)
    monkeypatch.setattr(cli_module, "is_built_monad", refuse)
    for name in ("assemble_monad", "band_scalars", "matrix_mul", "evaluate_matrix"):
        monkeypatch.setattr(monad_module, name, refuse)
    monkeypatch.setattr(MonadSpec, "from_json", staticmethod(refuse))
    argv = ("verify", "--n", "8", "--m", "8", "--k", "8")
    for run in (argv, ("verify", "--input", str(monad_file))):
        code, out, _ = run_cli(capsys, *run)
        assert (code, sha256(out)) == GOLDEN_SHA256[argv]


def test_build_renders_the_layout_and_never_assembles(capsys, monkeypatch):
    def refuse(*_args):
        raise AssertionError("build writes the staircase layout of its (n, m, k)")

    monkeypatch.setattr(monad_module, "assemble_monad", refuse)
    for argv in [
        ("build", "--n", "40", "--m", "40", "--k", "40"),
        ("build", "--n", "3", "--m", "3", "--k", "3", "--format", "text"),
    ]:
        code, out, _ = run_cli(capsys, *argv)
        assert (code, sha256(out)) == GOLDEN_SHA256[argv]


def test_verify_of_the_built_monad_is_the_general_paths_verdict(capsys):
    # the closed form against the entry walk, the multiplied-out f g and
    # sampled elimination of the assembled monad
    for n, m, k in itertools.product(range(1, 5), repeat=3):
        spec = assemble_monad(SpaceParams(n, m, k))
        structure, composition = spec.structural_problems(), verify_composition(spec)
        for trials, seed in itertools.product((1, 3, 20), (0, 7)):
            report = sampled_rank_report(spec, trials, seed)
            passed = not structure and composition and report.maximal and report.origin_rank_f == 0
            expected = {
                "structure_problems": structure,
                "composition_zero": composition,
                "rank": report.to_json(),
                "verdict": "CERTIFIED" if passed else "FAILED",
            }
            code, doc = run_json(capsys, "verify", "--n", str(n), "--m", str(m), "--k", str(k),
                                 "--trials", str(trials), "--seed", str(seed))
            del doc["manifest"]
            assert (code, doc) == (0 if passed else 1, expected), (n, m, k, trials, seed)


def reindented_build(tmp_path, capsys, n, m, k):
    """The (n, m, k) build re-serialised with indent 1: the same matrices
    and verdict, but not the writer's text, so `verify --input` parses it
    whole (`MonadSpec.from_json`)."""
    monad_file, doc = build_document(tmp_path, capsys, n, m, k)
    monad_file.write_text(json.dumps(doc, indent=1))
    return monad_file, doc


def test_verify_input_settles_the_built_monad_by_one_assembly(tmp_path, capsys, monkeypatch):
    # a re-serialised build is build's monad: one assembly to compare it
    # with, then its verdict from (n, m, k).  With f-blocks 1 and 2 scaled by
    # 2 it is not, and each general check runs once: the entry walks, the
    # product and one band walk, whose scalars give the lemma's report
    calls = []

    def counted(owner, name):
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args: calls.append(name) or original(*args))

    monad_file, doc = reindented_build(tmp_path, capsys, 8, 8, 8)
    for row in doc["monad"]["f"]["entries"]:
        for cell in row[: 2 * (8 + 8)]:
            for term in cell:
                term["coeff"] = str(2 * int(term["coeff"]))
    scaled = tmp_path / "scaled.json"
    scaled.write_text(json.dumps(doc))
    for name in ("assemble_monad", "band_scalars", "matrix_mul", "evaluate_matrix"):
        counted(monad_module, name)
    counted(MonadSpec, "structural_problems")
    for document, expected in [
        (monad_file, ["assemble_monad"]),
        (scaled, ["assemble_monad", "structural_problems", "matrix_mul", "band_scalars"]),
    ]:
        calls.clear()
        code, out, _ = run_cli(capsys, "verify", "--input", str(document))
        assert (code, sha256(out)) == GOLDEN_SHA256[("verify", "--n", "8", "--m", "8", "--k", "8")]
        assert calls == expected


def test_verify_input_validates_every_term(tmp_path, capsys, monkeypatch):
    # no memo: every term occurrence is validated where it stands, in
    # document order, once
    seen = []
    validate = polyring._term_from_json
    monad_file, doc = reindented_build(tmp_path, capsys, 8, 8, 8)
    monkeypatch.setattr(polyring, "_term_from_json", lambda item: seen.append(item) or validate(item))
    code, _, _ = run_cli(capsys, "verify", "--input", str(monad_file))
    assert code == 0
    terms = [
        item
        for matrix in ("f", "g")
        for row in doc["monad"][matrix]["entries"]
        for cell in row
        for item in cell
    ]
    assert seen == terms


def package_containers():
    """(module, name) -> value, for every module-level dict, list and set of
    the loaded `monadforge` modules (`__builtins__` is the interpreter's)."""
    return {
        (module_name, name): value
        for module_name, module in list(sys.modules.items())
        if module_name == "monadforge" or module_name.startswith("monadforge.")
        for name, value in vars(module).items()
        if type(value) in (dict, list, set) and name != "__builtins__"
    }


def test_no_package_state_outlives_a_document(tmp_path, capsys):
    # every command, on every document, leaves each module-level container
    # as it found it: one process answers a document as a fresh one would;
    # and main, unlike the process entry run, never freezes the collector
    before = package_containers()
    frozen = gc.get_freeze_count()
    snapshot = copy.deepcopy(before)
    (tmp_path / "reindented").mkdir()
    (tmp_path / "tampered").mkdir()
    reindented, _ = reindented_build(tmp_path / "reindented", capsys, 2, 3, 2)
    tampered, doc = build_document(tmp_path / "tampered", capsys, 2, 3, 2)
    # a coefficient no other document holds, so that a memo keyed on the
    # term would have to grow
    first_term_cell(doc["monad"]["f"]["entries"])[0].update(coeff="1000003")
    tampered.write_text(json.dumps(doc))
    runs = [
        (("build", "--n", "1", "--m", "2", "--k", "1"), 0),
        (("verify", "--n", "1", "--m", "2", "--k", "1"), 0),
        (("cohomology", "--n", "1", "--m", "2", "--", "-1", "0", "2", "-3"), 0),
        (("invariants", "--n", "1", "--m", "2", "--k", "1"), 0),
        (("stability", "--min-psum", "-1", "--component-bound", "1"), 1),
        (("simplicity", "--n", "2", "--m", "1", "--k", "2"), 0),
        (("report", "--n", "1", "--m", "2", "--k", "3"), 0),
        (("verify", "--input", str(reindented)), 0),
        (("verify", "--input", str(tampered)), 1),
    ]
    for argv, expected in runs:
        assert run_cli(capsys, *argv)[0] == expected, argv
    after = package_containers()
    assert gc.get_freeze_count() == frozen
    assert after.keys() == before.keys()
    for key, value in before.items():
        assert after[key] is value and value == snapshot[key], key


def test_verify_input_recognises_the_built_monad_by_its_text(tmp_path, capsys, monkeypatch):
    # the canonical build is read from its text: no entry tree is built and
    # json parses only the few KB around the two entry lists
    def refuse(*_args):
        raise AssertionError("the built monad's entries are never parsed")

    parsed = []
    loads = json.loads
    monad_file, _ = build_document(tmp_path, capsys, 8, 8, 8)
    monkeypatch.setattr(monad_module, "matrix_from_json", refuse)
    monkeypatch.setattr(polyring, "_term_from_json", refuse)
    monkeypatch.setattr(json, "loads", lambda text, **kw: parsed.append(len(text)) or loads(text, **kw))
    code, out, _ = run_cli(capsys, "verify", "--input", str(monad_file))
    assert (code, sha256(out)) == GOLDEN_SHA256[("verify", "--n", "8", "--m", "8", "--k", "8")]
    assert parsed and max(parsed) <= 10_000


def test_verify_term_with_an_extra_key_is_rejected_by_name(tmp_path, capsys):
    monad_file, doc = build_document(tmp_path, capsys, 1, 1, 1)
    doc["monad"]["f"]["entries"][0][0][0]["junk"] = 5
    out = verify_rejected(capsys, monad_file, doc)
    assert out["error"] == (
        'input document rejected: f entry (0,0) term {"coeff": "1", "exps": {"y1": 1}, '
        "\"junk\": 5}: keys other than coeff and exps: 'junk'"
    )


def test_verify_off_band_document_bytes_are_frozen(tmp_path, capsys):
    # a first band coefficient of 2^31 - 1 vanishes mod the default prime, so
    # the document is off the staircase band and verify samples and eliminates
    monad_file, doc = build_document(tmp_path, capsys, 2, 3, 2)
    first = next(cell for cell in doc["monad"]["f"]["entries"][0] if cell)
    first[0]["coeff"] = "2147483647"
    monad_file.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "verify", "--input", str(monad_file))
    assert (code, sha256(out)) == (
        1, "b8d0e41064ea33d4bc865ef4f480090141d0a2eefea628d046ae1523c71bb774"
    )


# ---------------------------------------------------------------------------
# usage errors
# ---------------------------------------------------------------------------


def test_nonpositive_parameters_exit_2(capsys):
    for argv in [
        ["build", "--n", "0"],
        ["build", "--k", "-3"],
        ["verify", "--trials", "0"],
        ["stability", "--max-q", "0"],
    ]:
        code = main(argv)
        capsys.readouterr()
        assert code == 2, argv


@pytest.mark.parametrize(
    "argv, message",
    [
        (["stability", "--n", "1", "--m", "1", "--k", "1", "--max-q", "99"],
         "max_q must lie in [1, rank(T)-1] = [1, 6], got 99"),
        (["report", "--min-psum", "5", "--max-psum", "4"], "min_psum exceeds max_psum"),
    ],
)
def test_rejected_scan_box_exits_2_with_one_error_line(tmp_path, capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")
    target = tmp_path / "out.json"
    assert main([*argv, "--output", str(target)]) == 2
    assert not target.exists()
    capsys.readouterr()


# the largest --n and --m: 2n + 2m + 1, a cohomology table's length, is then
# an index-sized integer
DIMENSION_LIMIT = (sys.maxsize - 1) // 4
TOO_LARGE = str(10**20)


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (["invariants", "--n", TOO_LARGE], "--n", TOO_LARGE),
        (["cohomology", "--n", TOO_LARGE, "1", "1", "1", "1"], "--n", TOO_LARGE),
        (["simplicity", "--m", TOO_LARGE], "--m", TOO_LARGE),
        (["report", "--n", TOO_LARGE], "--n", TOO_LARGE),
        (["stability", "--m", str(DIMENSION_LIMIT + 1)], "--m", str(DIMENSION_LIMIT + 1)),
    ],
    ids=lambda value: value[0] if isinstance(value, list) else None,
)
def test_a_too_large_n_or_m_is_refused_by_its_flag(tmp_path, capsys, argv, flag, value):
    # argparse refuses it, naming the flag and the bound, before any
    # closed form quotes CPython's own limits; --k has no such bound
    target = tmp_path / "out.json"
    for sink in ([], ["--output", str(target)]):
        code, out, err = run_cli(capsys, *argv, *sink)
        assert (code, out) == (2, "")
        assert err.endswith(f": error: argument {flag}: must be <= {DIMENSION_LIMIT}, got {value}\n")
        assert "Traceback" not in err
    assert not target.exists()
    code, doc = run_json(capsys, "verify", "--n", str(DIMENSION_LIMIT), "--m", str(DIMENSION_LIMIT))
    assert (code, doc["manifest"]["params"]["n"]) == (0, DIMENSION_LIMIT)
    assert run_cli(capsys, "invariants", "--k", TOO_LARGE)[0] == 0


# the largest --k of build: the width 2n + 2m + 4k of f at n = m = 1 is
# then an index-sized integer
BUILD_K_LIMIT = (sys.maxsize - 4) // 4


def test_a_too_large_build_k_is_refused_by_its_flag(tmp_path, capsys):
    # argparse refuses it for either format and sink, naming the flag and the
    # bound, before the layout quotes CPython's own limits; the commands that
    # read k only in closed forms take any k
    target = tmp_path / "out.json"
    for value in (TOO_LARGE, str(BUILD_K_LIMIT + 1)):
        for extra in ([], ["--format", "text"], ["--output", str(target)]):
            code, out, err = run_cli(capsys, "build", "--n", "1", "--m", "1", "--k", value, *extra)
            assert (code, out) == (2, "")
            assert err.endswith(
                f"monadforge build: error: argument --k: must be <= {BUILD_K_LIMIT}, got {value}\n"
            )
            assert "Traceback" not in err
    assert not target.exists()
    for command in ("invariants", "verify", "simplicity"):
        assert run_cli(capsys, command, "--n", "1", "--m", "1", "--k", TOO_LARGE)[0] == 0


# the largest --component-bound of stability and report: the length 2cb + 1
# of the row writer's tables is then an index-sized integer
GRID_BOUND_LIMIT = (sys.maxsize - 1) // 2


def test_a_too_large_component_bound_is_refused_by_its_flag(capsys):
    # argparse refuses it for the two commands that write the row grid,
    # naming the flag and the bound, before the writer's tables outgrow
    # memory; simplicity writes no grid and takes any bound.  Only the
    # parser runs: a bound that reached the writer would fill the memory
    for command in ("stability", "report"):
        for value in (TOO_LARGE, str(GRID_BOUND_LIMIT + 1)):
            argv = [command, "--component-bound", value]
            assert cli_module._plain_args(argv) is None
            with pytest.raises(SystemExit) as exc:
                cli_module.build_parser().parse_args(argv)
            assert exc.value.code == 2
            assert capsys.readouterr().err.endswith(
                f"monadforge {command}: error: argument --component-bound: "
                f"must be <= {GRID_BOUND_LIMIT}, got {value}\n"
            )
        at_limit = cli_module._plain_args([command, "--component-bound", str(GRID_BOUND_LIMIT)])
        assert at_limit.component_bound == GRID_BOUND_LIMIT
    assert run_cli(capsys, "simplicity", "--component-bound", TOO_LARGE)[0] == 0


def test_a_too_large_trials_is_refused_by_its_flag(capsys):
    # past sys.maxsize argparse refuses it, naming the flag and the bound,
    # before the samples' tuple quotes CPython's own limits; at sys.maxsize
    # that tuple does not fit in memory
    argv = ("verify", "--n", "1", "--m", "1", "--k", "1", "--trials")
    code, out, err = run_cli(capsys, *argv, TOO_LARGE)
    assert (code, out) == (2, "")
    assert err.endswith(
        f"monadforge verify: error: argument --trials: must be <= {sys.maxsize}, got {TOO_LARGE}\n"
    )
    assert run_cli(capsys, *argv, str(sys.maxsize)) == (2, "", "error: out of memory\n")


def test_trials_that_no_memory_holds_fail_at_once_off_the_band(tmp_path, capsys):
    # f's row scaled by the prime is off the band, so verify samples: both
    # lists of samples are allocated before the first trial, and sys.maxsize
    # trials exit 2 at once instead of sampling until killed.  Three trials
    # still give the FAILED verdict, byte for byte
    monad_file, doc = build_document(tmp_path, capsys, 1, 1, 1)
    for cell in doc["monad"]["f"]["entries"][0]:
        for item in cell:
            item["coeff"] = str(int(item["coeff"]) * 2147483647)
    monad_file.write_text(json.dumps(doc))
    argv = ("verify", "--input", str(monad_file), "--trials")
    proc = run_in_address_space([*argv, str(sys.maxsize)], 400, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: out of memory\n")
    code, out, _ = run_cli(capsys, *argv, "3")
    assert (code, sha256(out)) == (
        1, "427db7c6d161655dcef82f3781c0caddf4267c316152d018729706fc541b127e"
    )


def test_missing_subcommand_exits_2(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_unknown_flag_exits_2(capsys):
    assert main(["build", "--frobnicate"]) == 2
    capsys.readouterr()


def test_output_naming_a_directory_exits_2(tmp_path, capsys):
    code, out, err = run_cli(capsys, "invariants", "--output", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert tmp_path.is_dir()


def run_in_address_space(argv, limit_mb, file_limit_mb=None, timeout=300):
    """`python -m monadforge.cli *argv` in a child whose address space is
    capped at `limit_mb` MB and, unless `file_limit_mb` is None, each file it
    writes at `file_limit_mb` MB, killed after `timeout` seconds."""

    def cap():
        limit = limit_mb * 2**20
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
        if file_limit_mb is not None:
            limit = file_limit_mb * 2**20
            resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))

    env = dict(os.environ, PYTHONPATH=str(SRC), SOURCE_DATE_EPOCH=EPOCH)
    return subprocess.run(
        [sys.executable, "-m", "monadforge.cli", *argv],
        capture_output=True, text=True, env=env, preexec_fn=cap, timeout=timeout,
    )


# Two boxes at (1,1,1), whose max_q is 6: |p_i| <= 200 with p-sums 0..4,
# and |p_i| <= 10^8 with p-sums 0..10^8, whose row count passes 2^63.
WIDE_BOXES = [
    (["--component-bound", "200"], 6 * 214_926_020),
    (
        ["--component-bound", "100000000", "--max-psum", "100000000"],
        6 * 479_166_678_916_666_783_750_000_525_000_001,
    ),
]


# what each of WIDE_BOXES gives under a 256 MB address space and a 64 MiB
# file: the document outgrows the file (EFBIG, as CPython ignores SIGXFSZ),
# then the writer's tables outgrow the address space
WIDE_BOX_ERRORS = [
    f"error: [Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}\n",
    "error: out of memory\n",
]


def test_a_box_too_large_to_write_exits_2_without_a_traceback(tmp_path):
    # ~1.3e9 rows (about 170 GB), then ~2.9e33.  The writer holds tables of
    # texts per p-sum, not the box: at |p_i| <= 200 they fit the address
    # space and the write stops at the file cap; at 10^8 they do not fit.
    # The partial document is removed, whether the path was new, held a
    # file already (whose old bytes are gone with it) or is a symlink, whose
    # target, the file written, goes and leaves the link dangling
    target = tmp_path / "rows.json"
    cases = itertools.product(["none", "file", "symlink"], zip(WIDE_BOXES, WIDE_BOX_ERRORS))
    for existing, ((box, _), error) in cases:
        output = target
        if existing != "none":
            target.write_text("an older document")
        if existing == "symlink":
            output = tmp_path / "link.json"
            output.unlink(missing_ok=True)
            output.symlink_to(target.name)
        argv = ["stability", "--n", "1", "--m", "1", "--k", "1", *box, "--output", str(output)]
        proc = run_in_address_space(argv, 256, file_limit_mb=64)
        assert proc.returncode == 2
        assert proc.stderr == error
        assert not target.exists() and not output.exists(), existing
        assert output.is_symlink() == (existing == "symlink")


def test_a_document_too_large_to_parse_exits_2_without_a_verdict(tmp_path, capsys):
    # build's (100,100,100) monad re-serialised by json.dumps (3.4 MB) is
    # CERTIFIED; under a 40 MB address space its parse runs out of memory,
    # which is exit 2 with no FAILED document, at --output or on stdout
    built = tmp_path / "built.json"
    assert main(["build", "--n", "100", "--m", "100", "--k", "100", "--output", str(built)]) == 0
    document = tmp_path / "monad.json"
    document.write_text(json.dumps(json.loads(built.read_text())))
    output = tmp_path / "verdict.json"
    for sink in (["--output", str(output)], []):
        proc = run_in_address_space(["verify", "--input", str(document), *sink], 40)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: out of memory\n")
        assert not output.exists()
    code, doc = run_json(capsys, "verify", "--input", str(document))
    assert (code, doc["verdict"]) == (0, "CERTIFIED")


def test_a_wide_box_certificate_needs_no_box(tmp_path):
    # the certificate summarises the scan by its nonzero rows, the scan
    # neither enumerates nor stores the box outside its non-negative orthant,
    # and the row count is the box's closed form, not a len()
    for box, entries_checked in WIDE_BOXES:
        argv = ["simplicity", "--n", "1", "--m", "1", "--k", "1", *box]
        proc = run_in_address_space(argv, 800)
        assert (proc.returncode, proc.stderr) == (0, "")
        doc = json.loads(proc.stdout)
        jsonschema.validate(doc, SCHEMAS["simplicity"])
        assert doc["certificate"]["stability"]["entries_checked"] == entries_checked


def test_version_flag(capsys):
    code, out, _ = run_cli(capsys, "--version")
    assert code == 0
    assert "monadforge" in out


# ---------------------------------------------------------------------------
# the flag surface, read from --help without pinning argparse's wording
# ---------------------------------------------------------------------------

SHARED_FLAGS = {"-h", "--help", "--n", "--m", "--k", "--seed", "--output"}
SCAN_FLAGS = {"--max-q", "--max-psum", "--component-bound", "--min-psum"}
SUBCOMMAND_SURFACE = {  # name: (one-line help, own option strings)
    "build": ("emit the monad document", {"--format"}),
    "verify": ("certify composition and maximal rank", {"--trials", "--input"}),
    "cohomology": ("dimension table of a line bundle", set()),
    "invariants": ("rank / c1 / degree / slope of T", set()),
    "stability": ("Hoppe-criterion vanishing scan", SCAN_FLAGS),
    "simplicity": ("simplicity certificate for E", SCAN_FLAGS),
    "report": ("invariants + stability + simplicity in one document", SCAN_FLAGS),
}


def help_text(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--help")
    assert (code, err) == (0, "")
    return out


def test_each_subcommand_has_its_help_line_and_its_flags(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")  # one line per subcommand in the top-level help
    top = help_text(capsys)
    assert re.findall(r"^    (\w+) ", top, re.M) == list(SUBCOMMAND_SURFACE)
    for name, (line, own_flags) in SUBCOMMAND_SURFACE.items():
        assert re.search(rf"^    {name} +{re.escape(line)}$", top, re.M), name
        text = help_text(capsys, name)
        assert set(re.findall(r"(?<![\w-])--?[a-z][\w-]*", text)) == SHARED_FLAGS | own_flags, name
        assert ("DEG DEG DEG DEG" in text) == (name == "cohomology"), name
    assert re.search(r"^  DEG +multidegree \(a, b, c, d\) of the line bundle$",
                     help_text(capsys, "cohomology"), re.M)


def test_each_subcommand_parses_to_its_defaults():
    scan = {"max_q": None, "max_psum": 4, "component_bound": 4, "min_psum": 0}
    own = {
        "build": {"format": "json"},
        "verify": {"trials": 20, "input": None},
        "cohomology": {"degree": [1, -2, 3, 0]},
        "invariants": {},
        "stability": scan,
        "simplicity": scan,
        "report": scan,
    }
    for name, defaults in own.items():
        degrees = ["1", "-2", "3", "0"] if name == "cohomology" else []
        parsed = vars(cli_module.build_parser().parse_args([name, *degrees]))
        plain = vars(cli_module._plain_args([name, *degrees]))
        for args in (parsed, plain):
            assert args.pop("func").__name__ == f"_cmd_{name}"
            assert args == {"command": name, "n": 1, "m": 1, "k": 1, "seed": 0, "output": None,
                            **defaults}, name


# ---------------------------------------------------------------------------
# argparse's texts, frozen: every help, version and usage-error text is
# argparse's own, also for the spellings the plain reader declines
# ---------------------------------------------------------------------------

USAGE_TOP = (
    "usage: monadforge [-h] [--version]\n"
    "                  {build,verify,cohomology,invariants,stability,simplicity,report}\n"
    "                  ...\n"
)
USAGE_BUILD = (
    "usage: monadforge build [-h] [--n N] [--m M] [--k K] [--seed SEED]\n"
    "                        [--output OUTPUT] [--format {json,text}]\n"
)
USAGE_COHOMOLOGY = (
    "usage: monadforge cohomology [-h] [--n N] [--m M] [--k K] [--seed SEED]\n"
    "                             [--output OUTPUT]\n"
    "                             DEG DEG DEG DEG\n"
)
SCAN_USAGE_TAIL = (
    " [--n N] [--m M] [--k K] [--seed SEED]\n"
    "{0}[--output OUTPUT] [--max-q MAX_Q]\n"
    "{0}[--max-psum MAX_PSUM]\n"
    "{0}[--component-bound COMPONENT_BOUND]\n"
    "{0}[--min-psum MIN_PSUM]\n"
)
USAGE_REPORT = "usage: monadforge report [-h]" + SCAN_USAGE_TAIL.format(" " * 25)
USAGE_STABILITY = "usage: monadforge stability [-h]" + SCAN_USAGE_TAIL.format(" " * 28)

ARGPARSE_TEXTS = {  # argv: (exit code, stdout, stderr) at COLUMNS=80
    ("build", "--n", "0"):
        (2, "", USAGE_BUILD + "monadforge build: error: argument --n: must be >= 1, got 0\n"),
    ("build", "--n=0"):
        (2, "", USAGE_BUILD + "monadforge build: error: argument --n: must be >= 1, got 0\n"),
    ("build", "--n", "x"):
        (2, "", USAGE_BUILD + "monadforge build: error: argument --n: 'x' is not an integer\n"),
    ("build", "--format", "xml"):
        (2, "", USAGE_BUILD + "monadforge build: error: argument --format: invalid choice: "
                              "'xml' (choose from 'json', 'text')\n"),
    ("verify", "--trials", "0"): (2, "", (
        "usage: monadforge verify [-h] [--n N] [--m M] [--k K] [--seed SEED]\n"
        "                         [--output OUTPUT] [--trials TRIALS] [--input INPUT]\n"
        "monadforge verify: error: argument --trials: must be >= 1, got 0\n"
    )),
    ("report", "--max-q"):
        (2, "", USAGE_REPORT + "monadforge report: error: argument --max-q: expected one argument\n"),
    ("stability", "--min-psum", "1.5"):
        (2, "", USAGE_STABILITY + "monadforge stability: error: argument --min-psum: "
                                  "invalid int value: '1.5'\n"),
    ("build", "--frobnicate"):
        (2, "", USAGE_TOP + "monadforge: error: unrecognized arguments: --frobnicate\n"),
    ("bogus",): (2, "", USAGE_TOP + (
        "monadforge: error: argument command: invalid choice: 'bogus' (choose from 'build', "
        "'verify', 'cohomology', 'invariants', 'stability', 'simplicity', 'report')\n"
    )),
    (): (2, "", USAGE_TOP + "monadforge: error: the following arguments are required: command\n"),
    ("cohomology", "--", "1", "2", "3"): (2, "", USAGE_COHOMOLOGY + (
        "monadforge cohomology: error: the following arguments are required: DEG\n"
    )),
    ("--version",): (0, f"monadforge {__version__}\n", ""),
    ("-h",): (0, USAGE_TOP + (
        "\n"
        "exact linear monads on P^n x P^n x P^m x P^m: construction, verification,\n"
        "certificates\n"
        "\n"
        "positional arguments:\n"
        "  {build,verify,cohomology,invariants,stability,simplicity,report}\n"
        "    build               emit the monad document\n"
        "    verify              certify composition and maximal rank\n"
        "    cohomology          dimension table of a line bundle\n"
        "    invariants          rank / c1 / degree / slope of T\n"
        "    stability           Hoppe-criterion vanishing scan\n"
        "    simplicity          simplicity certificate for E\n"
        "    report              invariants + stability + simplicity in one document\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --version             show program's version number and exit\n"
    ), ""),
    ("build", "-h"): (0, USAGE_BUILD + (
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --n N                 dimension of the paired P^n factors\n"
        "  --m M                 dimension of the paired P^m factors\n"
        "  --k K                 monad rank parameter\n"
        "  --seed SEED           seed recorded in the manifest and used by sampling\n"
        "  --output OUTPUT       write to this file instead of stdout\n"
        "  --format {json,text}\n"
    ), ""),
    ("cohomology", "-h"): (0, USAGE_COHOMOLOGY + (
        "\n"
        "positional arguments:\n"
        "  DEG              multidegree (a, b, c, d) of the line bundle\n"
        "\n"
        "options:\n"
        "  -h, --help       show this help message and exit\n"
        "  --n N            dimension of the paired P^n factors\n"
        "  --m M            dimension of the paired P^m factors\n"
        "  --k K            monad rank parameter\n"
        "  --seed SEED      seed recorded in the manifest and used by sampling\n"
        "  --output OUTPUT  write to this file instead of stdout\n"
    ), ""),
}


@pytest.mark.parametrize("argv", list(ARGPARSE_TEXTS), ids=lambda argv: " ".join(argv) or "[]")
def test_argparse_texts_are_frozen(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    assert run_cli(capsys, *argv) == ARGPARSE_TEXTS[argv]


def test_an_abbreviated_flag_reads_as_its_full_name(capsys):
    # argparse, not the plain reader, accepts --comp for --component-bound
    code, out, err = run_cli(capsys, "stability", "--comp", "2", "--n", "1")
    assert (code, sha256(out), err) == (
        0, "719019baaddc6ff65d65e2241b6aa9ddbcb295f33a2c426391f2c39524d61363", "")
    assert run_cli(capsys, "stability", "--component-bound", "2", "--n", "1") == (code, out, err)


# ---------------------------------------------------------------------------
# cohomology
# ---------------------------------------------------------------------------


def test_cohomology_table_matches_library(capsys):
    code, doc = run_json(
        capsys, "cohomology", "--n", "1", "--m", "2", "--", "-2", "-2", "-3", "-3"
    )
    assert code == 0
    jsonschema.validate(doc, SCHEMAS["cohomology"])
    params = SpaceParams(1, 2, 1)
    deg = MultiDegree(-2, -2, -3, -3)
    assert doc["degree"] == [-2, -2, -3, -3]
    for t_str, dim in doc["table"].items():
        assert dim == sum_cohomology(line_bundle(params, deg)).dims[int(t_str)]
    assert doc["table"]["6"] == 1


def test_cohomology_negative_degrees_without_separator(capsys):
    code, doc = run_json(capsys, "cohomology", "--n", "1", "--m", "1", "-1", "0", "2", "-1")
    assert code == 0
    assert doc["degree"] == [-1, 0, 2, -1]


@pytest.mark.parametrize("degrees", [[], ["--", "1", "2", "3"]], ids=["none", "three"])
def test_cohomology_with_fewer_than_four_degrees_exits_2(capsys, degrees):
    code, out, err = run_cli(capsys, "cohomology", *degrees)
    assert code == 2
    assert out == ""
    assert "usage: monadforge cohomology" in err


def test_a_table_beyond_the_integer_digit_limit_is_written_and_the_limit_restored(capsys):
    # h^0 of O(20000, 1, 1, 1) on P^20000 x P^20000 x P^1 x P^1 has more digits
    # than CPython's default limit of 4,300 lets an int be written with
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out, err = run_cli(
        capsys, "cohomology", "--n", "20000", "--m", "1", "--k", "1", "20000", "1", "1", "1"
    )
    assert (code, err) == (0, "")
    assert max(map(len, re.findall(r"\d+", out))) > 4300
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def test_invariants_document(capsys):
    code, doc = run_json(capsys, "invariants", "--n", "1", "--m", "2", "--k", "3")
    assert code == 0
    jsonschema.validate(doc, SCHEMAS["invariants"])
    inv = invariants_of_T(SpaceParams(1, 2, 3))
    assert doc["rank"] == inv.rank == 15
    assert doc["c1"] == [-7, -7, -8, -8]
    assert doc["degree"] == -1380
    assert doc["slope"] == "-92"


def test_invariants_slope_is_reduced_fraction_string(capsys):
    code, doc = run_json(capsys, "invariants", "--n", "2", "--m", "1", "--k", "1")
    assert code == 0
    inv = invariants_of_T(SpaceParams(2, 1, 1))
    assert doc["slope"] == str(Fraction(inv.degree_L, inv.rank)) == "-220/3"


def test_the_environment_digit_limit_changes_no_document():
    # the degree of T at (7500, 1, 1) has more than 4,300 digits: each child
    # writes it whole, whatever PYTHONINTMAXSTRDIGITS says
    results = []
    for setting in (None, "0", "640"):
        env = dict(os.environ, PYTHONPATH=str(SRC), SOURCE_DATE_EPOCH=EPOCH)
        env.pop("PYTHONINTMAXSTRDIGITS", None)
        if setting is not None:
            env["PYTHONINTMAXSTRDIGITS"] = setting
        proc = subprocess.run(
            [sys.executable, "-m", "monadforge.cli", "invariants", "--n", "7500", "--m", "1", "--k", "1"],
            capture_output=True, env=env, timeout=120,
        )
        results.append((proc.returncode, proc.stderr, proc.stdout))
    assert results[0][:2] == (0, b"")
    assert max(map(len, re.findall(rb"\d+", results[0][2]))) > 4300
    assert results == [results[0]] * 3


# ---------------------------------------------------------------------------
# stability and simplicity
# ---------------------------------------------------------------------------


def test_stability_all_vanish(capsys):
    code, doc = run_json(capsys, "stability", "--n", "1", "--m", "1", "--k", "1")
    assert code == 0
    jsonschema.validate(doc, SCHEMAS["stability"])
    assert doc["verdict"] == "ALL_VANISH"
    assert doc["entries_checked"] == len(doc["checked"])
    assert all(row["h0"] == 0 for row in doc["checked"])


def test_stability_counterexample_exits_1(capsys):
    code, doc = run_json(
        capsys,
        "stability", "--n", "1", "--m", "1", "--k", "1",
        "--max-q", "1", "--min-psum", "-2", "--component-bound", "2",
    )
    assert code == 1
    jsonschema.validate(doc, SCHEMAS["stability"])
    assert doc["verdict"] == "COUNTEREXAMPLE"
    assert doc["counterexample"] == {"q": 1, "twist": [2, 0, 0, 0]}


def test_simplicity_certificate_document(capsys):
    code, doc = run_json(capsys, "simplicity", "--n", "1", "--m", "1", "--k", "1")
    assert code == 0
    jsonschema.validate(doc, SCHEMAS["simplicity"])
    cert = doc["certificate"]
    assert cert["conclusion"] == "SIMPLE_CERTIFIED"
    assert cert["h0_T_dual_twisted"] == [0, 0]
    assert cert["h1_T_dual_twisted"] == [0, 0]


def test_simplicity_inconclusive_exits_1(capsys):
    code, doc = run_json(
        capsys,
        "simplicity", "--n", "1", "--m", "1", "--k", "1",
        "--max-q", "1", "--min-psum", "-2", "--component-bound", "2",
    )
    assert code == 1
    assert doc["certificate"]["conclusion"] == "INCONCLUSIVE"
    assert doc["certificate"]["reason"] == "stability scan failed"


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def test_report_single_document(capsys):
    code, doc = run_json(capsys, "report", "--n", "1", "--m", "2", "--k", "3")
    assert code == 0
    jsonschema.validate(doc, SCHEMAS["report"])
    assert doc["invariants"]["degree"] == -1380
    assert doc["simplicity"]["rank_E"] == 12
    assert doc["simplicity"]["conclusion"] == "SIMPLE_CERTIFIED"
    assert doc["stability"]["verdict"] == "ALL_VANISH"
    assert doc["normalization_shift"] == -3
    assert doc["degree_check"]["exact_degree"] == -1380


def test_report_byte_identical_across_runs(capsys):
    code1, out1, _ = run_cli(capsys, "report", "--n", "1", "--m", "1", "--k", "2",
                             "--seed", "9")
    code2, out2, _ = run_cli(capsys, "report", "--n", "1", "--m", "1", "--k", "2",
                             "--seed", "9")
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1 == dumps_canonical(json.loads(out1))


# ---------------------------------------------------------------------------
# every document carries a complete manifest
# ---------------------------------------------------------------------------


def test_manifest_embedded_everywhere(capsys):
    commands = {
        "build": ["build", "--n", "1", "--m", "1", "--k", "1"],
        "verify": ["verify", "--n", "1", "--m", "1", "--k", "1", "--trials", "3"],
        "cohomology": ["cohomology", "--n", "1", "--m", "1", "0", "0", "0", "0"],
        "invariants": ["invariants", "--n", "1", "--m", "1", "--k", "1"],
        "stability": ["stability", "--n", "1", "--m", "1", "--k", "1"],
        "simplicity": ["simplicity", "--n", "1", "--m", "1", "--k", "1"],
        "report": ["report", "--n", "1", "--m", "1", "--k", "1"],
    }
    for name, argv in commands.items():
        code, doc = run_json(capsys, *argv, "--seed", "17")
        assert code == 0, name
        manifest = doc["manifest"]
        assert manifest["command"] == name
        assert manifest["seed"] == 17
        assert manifest["tool_version"]
        assert manifest["timestamp"] == EPOCH_ISO
        assert manifest["params"] == {"n": 1, "m": 1, "k": 1}


@pytest.mark.parametrize(
    "epoch, stamp",
    [
        ("-62135596800", "0001-01-01T00:00:00Z"),
        ("-59011459201", "0099-12-31T23:59:59Z"),
        ("253402300799", "9999-12-31T23:59:59Z"),
        ("253402300800", None),  # year 10000
        ("-62135596801", None),  # year 0
        (str(10**20), None),  # beyond the platform's time_t
        ("abc", None),
    ],
)
def test_manifest_timestamp_is_schema_valid_at_every_epoch(
    tmp_path, capsys, monkeypatch, epoch, stamp
):
    # a stamp is the epoch's own, zero-padded to four year digits, or else the wall clock's
    monad_file = tmp_path / "monad.json"
    run_cli(capsys, "build", "--n", "1", "--m", "1", "--k", "1", "--output", str(monad_file))
    doc = json.loads(monad_file.read_text())
    doc["monad"]["f"]["entries"][0][0][0]["coeff"] = "7"
    monad_file.write_text(json.dumps(doc))
    monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
    runs = [
        ("invariants", 0, ["invariants", "--n", "1", "--m", "1", "--k", "1"]),
        ("verify", 1, ["verify", "--input", str(monad_file)]),
    ]
    for command, exit_code, argv in runs:
        before = int(time.time())
        code, out = run_json(capsys, *argv)
        after = int(time.time())
        assert code == exit_code
        jsonschema.validate(out, SCHEMAS[command])
        written = out["manifest"]["timestamp"]
        if stamp is None:
            wall = calendar.timegm(time.strptime(written, "%Y-%m-%dT%H:%M:%SZ"))
            assert before <= wall <= after
        else:
            assert written == stamp


# ---------------------------------------------------------------------------
# start-up: what importing the CLI loads
# ---------------------------------------------------------------------------

LAYER_MODULES = {
    f"monadforge.{name}"
    for name in ("polyring", "cohomology", "monad", "chow", "stability", "les", "cli")
}

ARGPARSE_MODULES = {"argparse", "gettext", "locale"}

PACKAGE_ALL = [
    "DEFAULT_PRIME", "LinearForm", "MultiDegree", "PolyMatrix", "SpaceParams", "evaluate_matrix",
    "matrix_mul", "rank_over_field", "CohTable", "LineBundleSum", "bott_h", "exterior_power_sum",
    "line_bundle", "sum_cohomology", "MonadSpec", "RankReport", "assemble_monad", "middle_bundle",
    "source_bundle", "target_bundle", "verify_composition", "verify_maximal_rank",
    "BundleInvariants", "c1_of_T", "degree_L", "invariants_of_T", "rank_of_T",
    "StabilityReport", "StabilityScanConfig", "normalization_shift", "run_stability_scan",
    "CohProfile", "ShortExactSeq", "SimplicityCertificate", "les_propagate", "rank_of_E",
    "simplicity_certificate", "__version__",
]


def test_importing_the_cli_loads_every_layer_and_no_heavy_stdlib_module():
    # perfbench/tracing.py looks every layer module up in sys.modules after
    # importing the CLI, so all seven must load eagerly; dataclasses (with
    # inspect), datetime, fractions (with decimal) and argparse (with gettext
    # and locale) cost start-up that no plainly spelled command needs
    probe = (
        "import json, sys; before = set(sys.modules); import monadforge.cli, monadforge; "
        "print(json.dumps([sorted(set(sys.modules) - before), monadforge.__all__]))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    loaded, package_all = json.loads(proc.stdout)
    assert {"dataclasses", "inspect", "datetime", "fractions", "decimal"}.isdisjoint(loaded)
    assert ARGPARSE_MODULES.isdisjoint(loaded)
    assert LAYER_MODULES <= set(loaded)
    assert package_all == PACKAGE_ALL


def test_no_document_imports_fractions():
    # the slope and the normalization shift are written from integers, so
    # the commands that print them leave fractions (with decimal) unloaded
    probe = (
        "import json, os, sys; from monadforge.cli import main\n"
        "for cmd in ('invariants', 'simplicity', 'report'):\n"
        "    main([cmd, '--n', '1', '--m', '2', '--k', '1', '--output', os.devnull])\n"
        "print(json.dumps(sorted({'fractions', 'decimal'} & set(sys.modules))))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    assert json.loads(proc.stdout) == []


def test_only_a_command_the_plain_reader_declines_imports_argparse():
    # every subcommand, plainly spelled, is read from the flag table; an
    # unknown flag goes to argparse, which reports it
    probe = (
        "import json, os, sys; from monadforge.cli import main\n"
        "codes = [main([cmd, '--n', '1', '--m', '2', '--output', os.devnull])\n"
        "         for cmd in ('build', 'verify', 'invariants', 'stability', 'simplicity', 'report')]\n"
        "codes.append(main(['cohomology', '--output', os.devnull, '--', '-2', '-2', '-3', '-3']))\n"
        "plain = sorted(%r & set(sys.modules))\n"
        "code = main(['build', '--frobnicate'])\n"
        "print(json.dumps([codes, plain, code, 'argparse' in sys.modules]))" % ARGPARSE_MODULES
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    assert json.loads(proc.stdout) == [[0] * 7, [], 2, True]


# ---------------------------------------------------------------------------
# console entry point
# ---------------------------------------------------------------------------


def test_installed_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "monadforge.cli", "invariants",
         "--n", "1", "--m", "1", "--k", "1"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["rank"] == 7


def test_childcost_runs_a_command_against_a_checkout():
    # one pair: this checkout against itself, the same bytes on both sides
    root = SRC.parent
    argv = ["invariants", "--n", "1", "--m", "1", "--k", "1"]
    proc = subprocess.run(
        [sys.executable, str(root / "tests" / "childcost.py"), "--runs", "1",
         "--against", str(root), "--", *argv],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    head, _, *sides, pairs = proc.stdout.splitlines()
    assert re.fullmatch(r"monadforge invariants --n 1 --m 1 --k 1: exit 0, [0-9,]+ bytes, "
                        r"the same on every run", head)
    assert [line.split()[:2] for line in sides] == [["this", "1"], ["other", "1"]]
    # user and kernel CPU in ms with one decimal, then peak RSS
    assert all(re.fullmatch(r"[0-9]+\.[0-9]", cell) for line in sides for cell in line.split()[2:11])
    assert re.fullmatch(r"child CPU \(user \+ kernel\) lower in: this [01] of 1 pairs, other [01] of 1", pairs)


def test_the_console_script_and_the_main_block_call_one_entry():
    text = (SRC.parent / "pyproject.toml").read_text(encoding="utf-8")
    try:
        import tomllib
    except ImportError:  # Python < 3.11
        target = re.search(r'^monadforge\s*=\s*"([^"]*)"', text, re.MULTILINE).group(1)
    else:
        target = tomllib.loads(text)["project"]["scripts"]["monadforge"]
    tree = ast.parse(Path(cli_module.__file__).read_text(encoding="utf-8"))
    blocks = [
        node.body for node in tree.body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
    ]
    module, _, function = target.partition(":")
    assert module == cli_module.__name__
    assert [[ast.unparse(stmt) for stmt in body] for body in blocks] == [[f"{function}()"]]
    assert getattr(cli_module, function) is cli_module.run


# A child that runs the CLI as `python -m monadforge.cli` does, and reports
# from an atexit handler the freeze count before the run and at exit.
EXIT_PROBE = (
    "import atexit, gc, runpy, sys\n"
    "before = gc.get_freeze_count()\n"
    "atexit.register(lambda: print('frozen', before, gc.get_freeze_count(), file=sys.stderr))\n"
    "runpy.run_module('monadforge.cli', run_name='__main__', alter_sys=True)\n"
)


@pytest.mark.parametrize(
    "argv, code",
    [(["invariants"], 0), (["stability", "--min-psum", "-2"], 1), (["build", "--frobnicate"], 2)],
    ids=["0", "1", "2"],
)
def test_a_process_ends_through_run_with_the_collector_frozen(argv, code):
    # run freezes the collector, then exits: atexit handlers still run, the
    # document is flushed whole and the exit code passes through
    env = dict(os.environ, PYTHONPATH=str(SRC), SOURCE_DATE_EPOCH=EPOCH)
    proc = subprocess.run(
        [sys.executable, "-c", EXIT_PROBE, *argv], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == code
    label, before, at_exit = proc.stderr.splitlines()[-1].split()
    assert (label, int(before)) == ("frozen", 0)
    assert int(at_exit) > 0
    if code < 2:
        assert json.loads(proc.stdout)["manifest"]["command"] == argv[0]


def test_a_reader_that_closes_stdout_early_ends_the_run_quietly():
    # as `monadforge report ... | head -c 100`: the 24.7 MB document meets a
    # closed pipe, and the run exits 0 with nothing on stderr
    env = dict(os.environ, PYTHONPATH=str(SRC), SOURCE_DATE_EPOCH=EPOCH)
    with subprocess.Popen(
        [sys.executable, "-m", "monadforge.cli", *SCAN_WIDE],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    ) as proc:
        head = proc.stdout.read(100)
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=300)
    assert (len(head), code, err) == (100, 0, b"")


# a child that writes the documents of the argvs in argv[1] (JSON) to its
# stdout, then a line of their exit codes
DOCUMENTS_THEN_A_LINE = """
import json, sys
from monadforge.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
print("exit codes", *codes)
"""


def test_stdout_stays_open_after_a_document():
    # each document goes through a writer of its own on fd 1, which must not
    # close the descriptor: the next document and the caller's print use it
    argvs = [OVERWRITTEN, FROZEN_123["invariants"]]
    env = dict(os.environ, PYTHONPATH=str(SRC), SOURCE_DATE_EPOCH=EPOCH)
    child = subprocess.run([sys.executable, "-c", DOCUMENTS_THEN_A_LINE, json.dumps(argvs)],
                           capture_output=True, text=True, env=env, timeout=300)
    line = "exit codes 0 0\n"
    assert (child.returncode, child.stderr) == (0, "")
    assert child.stdout.endswith(line)
    split = child.stdout.index("\n}\n") + 3  # the end of the first document
    documents = [child.stdout[:split], child.stdout[split:-len(line)]]
    assert [sha256(text) for text in documents] == [GOLDEN_SHA256[argv][1] for argv in argvs]


def test_a_closed_stdout_or_stderr_gives_no_traceback(tmp_path):
    # a process started with fd 1 or fd 2 closed has sys.stdout or sys.stderr
    # None: a document for stdout is a usage error, told on stderr if that
    # is open, and an --output document is written as always
    target = tmp_path / "invariants.json"
    invariants = FROZEN_123["invariants"]
    closed_stdout = f"error: [Errno {errno.EBADF}] standard output is closed\n"
    cases = [
        (invariants, ">&-", 2, closed_stdout),
        (("stability", "--max-q", "99"), "2>&-", 2, ""),
        ((*invariants, "--output", str(target)), ">&-", 0, ""),
    ]
    env = dict(os.environ, PYTHONPATH=str(SRC), SOURCE_DATE_EPOCH=EPOCH)
    for argv, redirect, code, err in cases:
        proc = subprocess.run(["sh", "-c", f'exec "$0" -m monadforge.cli "$@" {redirect}', sys.executable, *argv],
                              capture_output=True, text=True, env=env, timeout=300)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, "", err), argv
    assert sha256(target.read_text()) == GOLDEN_SHA256[invariants][1]


def test_an_output_that_is_stdouts_own_file_is_written_through_stdout(tmp_path):
    # `--output /dev/stdout >> log`, or the log's own path: the file is the
    # one the shell opened to append as stdout, so the document follows what
    # the log holds, through fd 1, and is neither written from offset 0 nor
    # cut to its length
    log = tmp_path / "log.txt"
    invariants = FROZEN_123["invariants"]
    env = dict(os.environ, PYTHONPATH=str(SRC), SOURCE_DATE_EPOCH=EPOCH, LOG=str(log))
    for output in ("/dev/stdout", str(log)):
        log.write_text("first\n")
        proc = subprocess.run(
            ["sh", "-c", 'exec "$0" -m monadforge.cli "$@" >> "$LOG"', sys.executable, *invariants,
             "--output", output],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", ""), output
        head, document = log.read_text().split("\n", 1)
        assert (head, sha256(document)) == ("first", GOLDEN_SHA256[invariants][1]), output


def launchable(name):
    """The path of the first interpreter called `name` that runs `-c pass`,
    looked for on PATH and then in the directories beside this interpreter's
    base prefix (one per installed version, as pyenv keeps them); None if
    there is none."""
    on_path = shutil.which(name)
    beside = sorted(Path(sys.base_prefix).parent.glob(f"*/bin/{name}"))
    for path in ([on_path] if on_path else []) + [str(p) for p in beside]:
        try:
            if subprocess.run([path, "-c", "pass"], capture_output=True, timeout=60).returncode == 0:
                return path
        except (OSError, subprocess.TimeoutExpired):
            continue
    return None


# the first GOLDEN_SHA256 argv of each subcommand that reads no --input
GOLDEN_PER_SUBCOMMAND = {
    argv[0]: argv for argv in reversed(list(GOLDEN_SHA256)) if "--input" not in argv
}


@pytest.mark.parametrize("name", ["python3.10", "python3.11", "python3.12", "python3.13"])
def test_every_supported_interpreter_writes_the_frozen_bytes(name):
    interpreter = launchable(name)
    if interpreter is None:
        pytest.skip(f"no launchable {name}")
    env = dict(os.environ, PYTHONPATH=str(SRC), SOURCE_DATE_EPOCH=EPOCH)
    for argv in GOLDEN_PER_SUBCOMMAND.values():
        proc = subprocess.run(
            [interpreter, "-m", "monadforge.cli", *argv], capture_output=True, env=env, timeout=120
        )
        assert (proc.returncode, hashlib.sha256(proc.stdout).hexdigest()) == GOLDEN_SHA256[argv], argv
