"""The command-line surface: subcommands, exit codes, manifests, schema
validity, and byte-level determinism."""

from __future__ import annotations

import calendar
import copy
import hashlib
import json
import os
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest

from monadforge import __version__
from monadforge import cli as cli_module
from monadforge import monad as monad_module
from monadforge import polyring
from monadforge import stability as stability_module
from monadforge.cli import main
from monadforge.chow import invariants_of_T
from monadforge.cohomology import kunneth_h
from monadforge.monad import MonadSpec, assemble_monad
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
    def refuse(*_args):
        raise AssertionError("the assembled monad is zero by its identity")

    monkeypatch.setattr("monadforge.monad.matrix_mul", refuse)
    argv = ("verify", "--n", "8", "--m", "8", "--k", "8")
    monad_file, _ = build_document(tmp_path, capsys, 8, 8, 8)
    for run in (argv, ("verify", "--input", str(monad_file))):
        code, out, _ = run_cli(capsys, *run)
        assert (code, sha256(out)) == GOLDEN_SHA256[argv]


def reindented_build(tmp_path, capsys, n, m, k):
    """The (n, m, k) build re-serialised with indent 1: the same matrices
    and verdict, but not the writer's text, so `verify --input` parses it
    whole (`MonadSpec.from_json`)."""
    monad_file, doc = build_document(tmp_path, capsys, n, m, k)
    monad_file.write_text(json.dumps(doc, indent=1))
    return monad_file, doc


def test_verify_input_settles_the_built_monad_by_two_walks_and_one_assembly(
    tmp_path, capsys, monkeypatch
):
    def refuse(*_args):
        raise AssertionError("the band walk and the assembly settle the built monad")

    walks, assemblies = [], []
    walk, assemble = monad_module.band_scalars, monad_module.assemble_monad
    monad_file, _ = reindented_build(tmp_path, capsys, 8, 8, 8)
    for name in ("matrix_mul", "evaluate_matrix"):
        monkeypatch.setattr(monad_module, name, refuse)
    monkeypatch.setattr(cli_module, "assemble_monad", refuse)
    monkeypatch.setattr(monad_module, "band_scalars", lambda spec: walks.append(spec) or walk(spec))
    monkeypatch.setattr(
        monad_module, "assemble_monad", lambda p: assemblies.append(p) or assemble(p)
    )
    code, out, _ = run_cli(capsys, "verify", "--input", str(monad_file))
    assert (code, sha256(out)) == GOLDEN_SHA256[("verify", "--n", "8", "--m", "8", "--k", "8")]
    # one walk for each of structure and rank, both of one spec, and one
    # assembly for composition to compare the document with
    assert len(walks) == 2 and walks[0] is walks[1]
    assert assemblies == [SpaceParams(8, 8, 8)]


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
    # as it found it: one process answers a document as a fresh one would
    before = package_containers()
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


# n = 10^20: too large for the first closed form each command computes, so
# each fails at once, before anything is allocated
TOO_LARGE = ["--n", "100000000000000000000", "--m", "1", "--k", "1"]
INDEX_SIZED = "cannot fit 'int' into an index-sized integer"
FACTORIAL = "factorial() argument should not exceed 9223372036854775807"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["stability", "--n", "1", "--m", "1", "--k", "1", "--max-q", "99"],
         "max_q must lie in [1, rank(T)-1] = [1, 6], got 99"),
        (["report", "--min-psum", "5", "--max-psum", "4"], "min_psum exceeds max_psum"),
        (["invariants", *TOO_LARGE], FACTORIAL),
        (["cohomology", *TOO_LARGE, "1", "1", "1", "1"], INDEX_SIZED),
        (["simplicity", *TOO_LARGE], INDEX_SIZED),
        (["report", *TOO_LARGE], FACTORIAL),
    ],
)
def test_rejected_scan_box_exits_2_with_one_error_line(tmp_path, capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")
    target = tmp_path / "out.json"
    assert main([*argv, "--output", str(target)]) == 2
    assert not target.exists()
    capsys.readouterr()


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


def run_in_address_space(argv, limit_mb):
    """`python -m monadforge.cli *argv` in a child whose address space is
    capped at `limit_mb` MB."""

    def cap():
        limit = limit_mb * 2**20
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    env = dict(os.environ, PYTHONPATH=str(SRC), SOURCE_DATE_EPOCH=EPOCH)
    return subprocess.run(
        [sys.executable, "-m", "monadforge.cli", *argv],
        capture_output=True, text=True, env=env, preexec_fn=cap, timeout=300,
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


def test_a_box_too_large_to_write_exits_2_without_a_traceback(tmp_path):
    # ~1.3e9 rows, then ~2.9e33: the writer's twist texts alone outgrow the cap
    for box, _ in WIDE_BOXES:
        argv = ["stability", "--n", "1", "--m", "1", "--k", "1", *box,
                "--output", str(tmp_path / "rows.json")]
        proc = run_in_address_space(argv, 256)
        assert proc.returncode == 2
        assert proc.stderr == "error: out of memory\n"
        assert not (tmp_path / "rows.json").exists()


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
        assert dim == kunneth_h(params, deg, int(t_str))
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
    assert doc["slope"] == str(inv.slope_L)


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
    "matrix_mul", "rank_over_field", "CohTable", "LineBundleSum", "bott_h", "direct_sum",
    "exterior_power_sum", "kunneth_h", "line_bundle", "sum_cohomology", "MonadSpec", "RankReport",
    "assemble_monad", "build_f_block", "build_g_block", "floystad_check", "middle_bundle",
    "source_bundle", "target_bundle", "verify_composition", "verify_maximal_rank",
    "BundleInvariants", "c1_of_T", "degree_L", "delta_L", "invariants_of_T", "rank_of_T",
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
