"""Exit-code contract of `verify --input`: whatever a monad document holds,
the run ends in exit 0 or 1 without an exception, and writes a document
valid against the published `verify` schema, FAILED whenever it exits 1.
On the same mutated documents, the one band walk agrees with the two
entry walks it replaced, and on mutations of a build's text, reading a
built monad by its text (`read_built_monad`) changes no exit code and no
byte of the output."""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from functools import lru_cache
from unittest import mock

import jsonschema
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from monadforge import cli as cli_module
from monadforge import monad as monad_module
from monadforge.cli import main
from monadforge.monad import (
    MonadSpec,
    composition_by_product,
    read_built_monad,
    sampled_rank_report,
    verify_composition,
    verify_maximal_rank,
)
from monadforge.polyring import PolyMatrix, dumps_canonical
from monadforge.schemas import SCHEMAS
from oracles import structural_problems_by_two_walks

JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 50),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=4),
    st.sampled_from(["1", "-1", "x0", "y9", "t1"]),
)
JSON_VALUES = st.one_of(JSON_SCALARS, st.lists(JSON_SCALARS, max_size=3))
VERIFY_SCHEMA = jsonschema.Draft202012Validator(SCHEMAS["verify"])  # checked once, not per example
DECIMAL = re.compile(r"-?[0-9]+")
VARIABLE_NAMES = st.one_of(
    st.sampled_from(["x0", "y1", "z0", "t1", "x9", "w0", "x", "x01"]), st.text(max_size=3)
)


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@lru_cache(maxsize=None)
def built(n: int, m: int, k: int, fmt: str = "json") -> str:
    code, text = run(["build", "--n", str(n), "--m", str(m), "--k", str(k), "--format", fmt])
    assert code == 0
    return text


def slots(node):
    """Every (container, key) pair of a JSON tree, depth first."""
    if isinstance(node, dict):
        keys = list(node)
    elif isinstance(node, list):
        keys = range(len(node))
    else:
        return
    for key in keys:
        yield node, key
        yield from slots(node[key])


def mutate(data, doc) -> None:
    everything = list(slots(doc))
    exps = [
        node
        for node, key in everything
        if key == "exps" and isinstance(node[key], dict) and node[key]
    ]
    rows = [
        node["entries"][i]
        for node, key in everything
        if key == "entries" and isinstance(node[key], list)
        for i in range(len(node[key]))
        if isinstance(node[key][i], list) and node[key][i]
    ]
    cells = [cell for row in rows for cell in row if isinstance(cell, list) and cell]
    kind = data.draw(
        st.sampled_from(
            ["delete", "replace", "rename", "exponent", "truncate", "band", "key",
             "exponent type", "coeff", "cancel", "respell"]
        )
    )
    in_objects = [s for s in everything if isinstance(s[0], dict)]
    if kind == "delete" and in_objects:
        node, key = data.draw(st.sampled_from(in_objects))
        del node[key]
    elif kind == "replace" and everything:
        node, key = data.draw(st.sampled_from(everything))
        node[key] = data.draw(JSON_VALUES)
    elif kind == "rename" and exps:
        term = data.draw(st.sampled_from(exps))["exps"]
        name, exp = next(iter(term.items()))
        del term[name]
        term[data.draw(VARIABLE_NAMES)] = exp
    elif kind == "exponent" and exps:
        term = data.draw(st.sampled_from(exps))["exps"]
        term[next(iter(term))] = data.draw(st.one_of(st.integers(-2, 3), JSON_SCALARS))
    elif kind == "truncate" and rows:
        row = data.draw(st.sampled_from(rows))
        del row[data.draw(st.integers(0, len(row) - 1)) :]
    elif kind == "band" and exps:
        # still a monad document of the right shape, but off the staircase
        # band, so verify falls back to sampled elimination
        term = data.draw(st.sampled_from(exps))
        if data.draw(st.booleans(), label="coeff zero mod p"):
            term["coeff"] = "2147483647"
        else:
            name, exp = next(iter(term["exps"].items()))
            del term["exps"][name]
            term["exps"][name[:1] + ("1" if name[1:] == "0" else "0")] = exp
    elif kind == "key" and exps:
        term = data.draw(st.sampled_from(exps))
        term[data.draw(st.text(max_size=4), label="added key")] = data.draw(JSON_VALUES)
    elif kind == "exponent type" and exps:
        # equal to 1 in Python, but not a JSON integer
        term = data.draw(st.sampled_from(exps))["exps"]
        term[next(iter(term))] = data.draw(st.sampled_from([True, 1.0]))
    elif kind == "coeff" and exps:
        term = data.draw(st.sampled_from(exps))
        term["coeff"] = data.draw(st.sampled_from(["-0", "007", "2147483647"]))
    elif kind == "cancel" and cells:
        # a second term in the same variable that cancels the first
        cell = data.draw(st.sampled_from(cells))
        term = copy.deepcopy(cell[0])
        if isinstance(term, dict) and DECIMAL.fullmatch(str(term.get("coeff"))):
            term["coeff"] = str(-int(term["coeff"]))
            cell.append(term)
    elif kind == "respell" and exps:
        # the same coefficient written another way in this cell than in the others
        term = data.draw(st.sampled_from(exps))
        coeff = term.get("coeff")
        if isinstance(coeff, str) and DECIMAL.fullmatch(coeff):
            term["coeff"] = ("-0" if coeff.startswith("-") else "0") + coeff.lstrip("-")


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_verify_input_exit_code_contract(tmp_path_factory, data):
    params = data.draw(st.sampled_from([(1, 1, 1), (1, 2, 1)]))
    doc = json.loads(built(*params))
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        mutate(data, doc)
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(json.dumps(doc))
    code, out = run(["verify", "--input", str(path), "--trials", "3"])
    assert code in (0, 1)
    result = json.loads(out)
    VERIFY_SCHEMA.validate(result)
    assert result["verdict"] == ("CERTIFIED" if code == 0 else "FAILED")


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_one_pass_verify_equals_the_oracles(data):
    params = data.draw(st.sampled_from([(1, 1, 1), (1, 2, 1), (2, 1, 2)]))
    doc = json.loads(built(*params))
    for _ in range(data.draw(st.integers(0, 3), label="mutations")):
        mutate(data, doc)
    try:
        spec = MonadSpec.from_json(doc["monad"])
    except Exception:  # `verify` reports any defect of the document as FAILED
        return
    problems = spec.structural_problems()
    assert problems == structural_problems_by_two_walks(spec)
    if spec.f.cols == spec.g.rows:
        assert verify_composition(spec) == composition_by_product(spec)
    if not problems:
        report = verify_maximal_rank(spec, trials=2, seed=3)
        assert report.to_json() == sampled_rank_report(spec, trials=2, seed=3).to_json()


# ---------------------------------------------------------------------------
# the text reader: a built monad recognised by its bytes
# ---------------------------------------------------------------------------

PINNED = {"SOURCE_DATE_EPOCH": "1700000000"}
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def verify_text(text, stdin: bool = False):
    """(exit code, output) of `verify --input` on the document `text`, a str
    written as UTF-8 or raw bytes, read from a file or from stdin
    (`--input -`).  Stdin is a byte stream under a text wrapper as a POSIX
    interpreter sets it up, undecodable bytes escaped, so that the bytes
    reach the program as they would from a shell."""
    data = text.encode("utf-8") if isinstance(text, str) else text
    with mock.patch.dict(os.environ, PINNED), tempfile.TemporaryDirectory() as tmp:
        if stdin:
            wrapper = io.TextIOWrapper(io.BytesIO(data), errors="surrogateescape", newline="\n")
            with mock.patch.object(sys, "stdin", wrapper):
                return run(["verify", "--input", "-", "--trials", "3"])
        path = os.path.join(tmp, "monad.json")
        with open(path, "wb") as fh:
            fh.write(data)
        return run(["verify", "--input", path, "--trials", "3"])


def verify_parsed_whole(text: str, stdin: bool = False):
    """`verify_text` with the text reader refusing every document, so that
    `MonadSpec.from_json` parses it: the oracle of the reader."""
    with mock.patch.object(cli_module, "read_built_monad", lambda _text: None):
        return verify_text(text, stdin)


def width(n: int, m: int, k: int) -> int:
    return 2 * n + 2 * m + 4 * k


def assert_reader_agrees(text: str, stdin: bool = False):
    """The reader's run equals the whole parse's, byte for byte; a document
    the reader accepts is the one `from_json` reads."""
    assert verify_text(text, stdin) == verify_parsed_whole(text, stdin)
    spec = read_built_monad(text)
    if spec is not None:
        assert spec == MonadSpec.from_json(json.loads(text)["monad"])
    return spec


def test_reader_accepts_the_build_and_no_reindented_copy():
    text = built(2, 1, 2)
    assert assert_reader_agrees(text) is not None
    assert assert_reader_agrees(text, stdin=True) is not None
    # the same monad shifted, or bare without its manifest, is parsed whole
    shifted = "\n".join("   " + line for line in text.split("\n"))
    for doc in (shifted, dumps_canonical(json.loads(text)["monad"])):
        assert read_built_monad(doc) is None
        assert verify_text(doc)[0] == 0
        assert_reader_agrees(doc)
        assert_reader_agrees(doc, stdin=True)


def test_reader_refuses_a_forged_or_escaped_monad():
    # f's entries are a string, and the canonical f stands under f.x
    doc = json.loads(built(1, 1, 1))
    f = doc["monad"]["f"]
    f["x"] = {"entries": f["entries"]}
    f["entries"] = "\x00f"
    forged = dumps_canonical(doc)
    assert read_built_monad(forged) is None
    code, out = verify_text(forged)
    assert code == 1 and json.loads(out)["error"].startswith("input document rejected: ")
    assert_reader_agrees(forged)
    # an escape in the monad that changes nothing sends the text to the whole parse
    escaped = built(1, 1, 1).replace('"source"', '"sourc\\u0065"', 1)
    assert read_built_monad(escaped) is None
    assert verify_text(escaped)[0] == 0
    # the manifest is parsed, so an escape there leaves the build read by its text
    escaped = built(1, 1, 1).replace('"command"', '"comm\\u0061nd"', 1)
    assert assert_reader_agrees(escaped) is not None


def test_reader_leaves_a_duplicate_entries_key_to_the_whole_parse():
    text = built(1, 1, 1)
    close = '\n      ],\n      "rows"'
    after = text.replace(close, '\n      ],\n      "entries": 5,\n      "rows"', 1)
    before = text.replace('      "entries": [', '      "entries": 5,\n      "entries": [', 1)
    assert read_built_monad(after) is None
    assert verify_text(after)[0] == 1
    assert_reader_agrees(after)
    # json keeps the last of duplicate keys, here the built list
    assert read_built_monad(before) is None
    assert verify_text(before)[0] == 0
    assert_reader_agrees(before)


@pytest.mark.parametrize("rows", ["1.0", "true"])
def test_reader_needs_shapes_that_are_ints(rows):
    text = built(1, 1, 1).replace('"rows": 1\n', f'"rows": {rows}\n', 1)
    assert read_built_monad(text) is None
    assert verify_text(text)[0] == 1
    assert_reader_agrees(text)


def test_reader_never_assembles_a_monad_larger_than_its_text():
    assemble = monad_module.assemble_monad
    assemblies = []

    def small_only(params):
        assemblies.append(params)
        if params.n > 1:
            raise AssertionError("a monad is never assembled larger than its document")
        return assemble(params)

    # a 3 KB document that declares n = 10^6, its monad with the shapes that n gives
    for declared_by in (("manifest", "monad"), ("monad",)):
        doc = json.loads(built(1, 1, 1))
        for part in declared_by:
            doc[part]["params"]["n"] = 10**6
        monad = doc["monad"]
        monad["f"]["cols"] = monad["g"]["rows"] = width(10**6, 1, 1)
        text = dumps_canonical(doc)
        assemblies.clear()
        with mock.patch.object(monad_module, "assemble_monad", small_only):
            assert read_built_monad(text) is None
            assert verify_text(text)[0] == 1
        if "manifest" in declared_by:
            assert assemblies == []
        else:  # the reader renders the manifest's (1, 1, 1), once a call
            assert [(p.n, p.m, p.k) for p in assemblies] == [(1, 1, 1)] * 2


def test_reader_falls_back_on_any_exception():
    def fail(*_args):
        raise RuntimeError("no text for this matrix")

    text = built(2, 1, 2)
    expected = verify_text(text)
    with mock.patch.object(PolyMatrix, "json_chunks", fail):
        assert read_built_monad(text) is None
        assert verify_text(text) == expected
    assert expected[0] == 0


def test_stdin_and_a_file_read_the_same_bytes_alike():
    text = built(1, 1, 1)
    # a build whose manifest holds a byte that is not UTF-8
    undecodable = text.encode("utf-8").replace(b'"tool_version": "', b'"tool_version": "\xff', 1)
    crlf = text.replace("\n", "\r\n")
    for data in (undecodable, crlf.encode("utf-8"), crlf[:-40].encode("utf-8")):
        assert verify_text(data, stdin=True) == verify_text(data)
    code, out = verify_text(undecodable, stdin=True)
    assert code == 1 and "can't decode byte 0xff" in json.loads(out)["error"]
    # the same through a child process whose stdin escapes undecodable bytes
    env = dict(os.environ, **PINNED, PYTHONPATH=SRC, PYTHONIOENCODING="utf-8:surrogateescape")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "monad.json")
        with open(path, "wb") as fh:
            fh.write(undecodable)
        runs = [
            subprocess.run(
                [sys.executable, "-m", "monadforge.cli", "verify", "--input", source,
                 "--trials", "3"],
                input=undecodable, capture_output=True, env=env, timeout=60,
            )
            for source in ("-", path)
        ]
    assert [r.returncode for r in runs] == [1, 1]
    assert runs[0].stdout == runs[1].stdout


def _string_tokens(text: str):
    return [m.span() for m in re.finditer(r'"[^"\\]*"', text)]


TEXT_PARAMS = [(1, 1, 1), (1, 2, 1), (2, 1, 2)]
TEXT_KINDS = [
    # the monad's text
    "shift", "reindent", "swap", "duplicate", "escape", "exponent", "params", "rows",
    "trailing", "lone entries", "huge n", "tree",
    # the manifest and the top level, which the reader parses
    "manifest params", "manifest", "manifest escape", "extra key", "monad first",
    "head comma", "text format",
]


def text_mutation(data, text: str, params, kind: str) -> str:
    """`text` after one mutation of `kind` to its text, or to its tree
    written back in the writer's layout ("tree": one to three `mutate`
    steps, written in that layout or by plain `json.dumps`)."""
    n, m, k = params
    doc = json.loads(text)
    monad = doc["monad"]
    head = text.index('\n  "monad": ')
    if kind == "shift":
        spaces = " " * data.draw(st.integers(1, 3))
        return "\n".join(spaces + line for line in text.split("\n"))
    if kind == "reindent":
        indent = data.draw(st.sampled_from([None, 0, 1, 3, 4]))
        return json.dumps(doc, indent=indent, sort_keys=data.draw(st.booleans()))
    if kind == "swap":
        monad["f"]["entries"], monad["g"]["entries"] = monad["g"]["entries"], monad["f"]["entries"]
    elif kind == "duplicate":
        which = data.draw(st.sampled_from(["f", "g"]))
        value = data.draw(st.sampled_from(["[]", "5", '"x"', "null", "[[]]"]))
        lines = text.split("\n")
        opening = [i for i, line in enumerate(lines) if line.endswith('"entries": [')]
        at = opening[which == "g"]
        indent = lines[at][: len(lines[at]) - len(lines[at].lstrip(" "))]
        if data.draw(st.booleans(), label="duplicate before"):
            lines.insert(at, f'{indent}"entries": {value},')
        else:
            close = lines.index(f"{indent}],", at)
            lines.insert(close + 1, f'{indent}"entries": {value},')
        return "\n".join(lines)
    elif kind == "escape":
        start, stop = data.draw(st.sampled_from(_string_tokens(text)))
        if stop - start > 2:
            i = data.draw(st.integers(start + 1, stop - 2))
            return text[:i] + "\\u%04x" % ord(text[i]) + text[i + 1 :]
        return text
    elif kind == "exponent":
        exps = [mo.start(1) for mo in re.finditer(r'"[xyzt][0-9]+": (1)\n', text)]
        i = data.draw(st.sampled_from(exps))
        return text[:i] + data.draw(st.sampled_from(["true", "1.0"])) + text[i + 1 :]
    elif kind == "params":
        key = data.draw(st.sampled_from(["n", "m", "k"]))
        value = data.draw(st.sampled_from([0, 1, 2, 3, -1, "1", 1.0, True, None]))
        monad["params"][key] = value
        if data.draw(st.booleans(), label="shapes follow") and type(value) is int and value > 0:
            new = dict(zip("nmk", params), **{key: value})
            w = width(new["n"], new["m"], new["k"])
            monad["f"]["rows"], monad["f"]["cols"] = new["k"], w
            monad["g"]["rows"], monad["g"]["cols"] = w, new["k"]
    elif kind == "rows":
        matrix = monad[data.draw(st.sampled_from(["f", "g"]))]
        key = data.draw(st.sampled_from(["rows", "cols"]))
        matrix[key] = data.draw(st.sampled_from([float(matrix[key]), True, str(matrix[key])]))
    elif kind == "trailing":
        return text + data.draw(st.sampled_from(["x", " ", "\n", "{}", "]", "\u00e9", "0"]))
    elif kind == "lone entries":
        where = doc["manifest"] if data.draw(st.booleans()) else monad
        key = data.draw(st.sampled_from(['"entries": [', "entries"]))
        where[key] = data.draw(st.sampled_from([[1], [[1]], [], "["]))
    elif kind == "huge n":
        monad["params"]["n"] = 10**6
        if data.draw(st.booleans(), label="the manifest too"):
            doc["manifest"]["params"]["n"] = 10**6
        monad["f"]["cols"] = monad["g"]["rows"] = width(10**6, m, k)
    elif kind == "tree":
        for _ in range(data.draw(st.integers(1, 3), label="tree mutations")):
            mutate(data, doc)
        if not data.draw(st.booleans(), label="writer's layout"):
            return json.dumps(doc)
    elif kind == "manifest params":
        other = data.draw(st.sampled_from([p for p in TEXT_PARAMS if p != params]))
        follows = data.draw(st.sampled_from(["nothing", "params", "shapes", "both", "monad"]))
        if follows == "monad":  # the manifest keeps `params`, the monad is built for `other`
            doc["monad"] = json.loads(built(*other))["monad"]
        else:
            doc["manifest"]["params"] = dict(zip("nmk", other))
        if follows in ("params", "both"):
            monad["params"] = dict(zip("nmk", other))
        if follows in ("shapes", "both"):
            w = width(*other)
            monad["f"]["rows"], monad["f"]["cols"] = other[2], w
            monad["g"]["rows"], monad["g"]["cols"] = w, other[2]
    elif kind == "manifest":
        if data.draw(st.booleans(), label="manifest an object"):
            del doc["manifest"][data.draw(st.sampled_from(sorted(doc["manifest"])))]
        else:
            doc["manifest"] = data.draw(JSON_VALUES)
    elif kind == "manifest escape":
        tokens = [t for t in _string_tokens(text[:head]) if t[1] - t[0] > 2]
        start, stop = data.draw(st.sampled_from(tokens))
        i = data.draw(st.integers(start + 1, stop - 2))
        return text[:i] + "\\u%04x" % ord(text[i]) + text[i + 1 :]
    elif kind in ("extra key", "monad first"):
        # a member on a line of its own, or on the line before it, where the
        # reader's head holds it
        key = "monad" if kind == "monad first" else data.draw(
            st.sampled_from(["extra", "manifest", "monad", "entries", ""])
        )
        value = data.draw(st.one_of(JSON_VALUES, st.sampled_from(TEXT_PARAMS).map(
            lambda p: json.loads(built(*p))["monad"])), label="value")
        member = json.dumps(key) + ": " + json.dumps(value) + ","
        sep = data.draw(st.sampled_from(["\n  ", " "]), label="separator")
        at = 1 if kind == "monad first" else head
        return text[:at] + sep + member + text[at:]
    elif kind == "head comma":
        return text[: head - 1] + data.draw(st.sampled_from(["", " ", ";", ",,"])) + text[head:]
    elif kind == "text format":
        return built(*params, fmt="text")
    return dumps_canonical(doc)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_text_reader_changes_no_exit_code_and_no_byte(data):
    params = data.draw(st.sampled_from(TEXT_PARAMS))
    kind = data.draw(st.sampled_from(TEXT_KINDS))
    text = text_mutation(data, built(*params), params, kind)
    stdin = data.draw(st.booleans(), label="--input -")
    path = "read by its text" if read_built_monad(text) is not None else "parsed whole"
    event(path)
    event(f"{kind}: {path}")
    assert verify_text(text, stdin) == verify_parsed_whole(text, stdin)
