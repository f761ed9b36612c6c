"""Exit-code contract of `verify --input`: whatever a monad document holds,
the run ends in exit 0 or 1 without an exception, and writes a document
valid against the published `verify` schema, FAILED whenever it exits 1.
On the same mutated documents, the memoised parse and the one band walk
agree with the per-term parse and the two entry walks they replaced, and
on mutations of a build's text, reading a built monad by its text
(`read_built_monad`) changes no exit code and no byte of the output."""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import re
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
    document_monad,
    read_built_monad,
    sampled_rank_report,
    verify_composition,
    verify_maximal_rank,
)
from monadforge.polyring import PolyMatrix, dumps_canonical, matrix_from_json
from monadforge.schemas import SCHEMAS
from oracles import matrix_from_json_per_term, structural_problems_by_two_walks

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
def built(n: int, m: int, k: int) -> str:
    code, text = run(["build", "--n", str(n), "--m", str(m), "--k", str(k)])
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


def parsed_or_error(parse, data, name):
    try:
        return parse(data, name)
    except Exception as exc:  # the two parsers must fail alike, whatever they raise
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_one_pass_verify_equals_the_oracles(data):
    params = data.draw(st.sampled_from([(1, 1, 1), (1, 2, 1), (2, 1, 2)]))
    doc = json.loads(built(*params))
    for _ in range(data.draw(st.integers(0, 3), label="mutations")):
        mutate(data, doc)
    monad = doc.get("monad")
    if not isinstance(monad, dict):
        return
    for name in ("f", "g"):
        part = monad.get(name)
        assert parsed_or_error(matrix_from_json, part, name) == parsed_or_error(
            matrix_from_json_per_term, part, name
        )
    try:
        spec = MonadSpec.from_json(monad)
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


def verify_text(text: str, stdin: bool = False):
    """(exit code, output) of `verify --input` on the document `text`, read
    from a file or from stdin (`--input -`)."""
    with mock.patch.dict(os.environ, PINNED), tempfile.TemporaryDirectory() as tmp:
        if stdin:
            with mock.patch.object(sys, "stdin", io.StringIO(text)):
                return run(["verify", "--input", "-", "--trials", "3"])
        path = os.path.join(tmp, "monad.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
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
        assert spec == MonadSpec.from_json(document_monad(json.loads(text)))
    return spec


def test_reader_accepts_the_build_at_any_uniform_indent():
    text = built(2, 1, 2)
    shifted = "\n".join("   " + line for line in text.split("\n"))
    for doc in (text, shifted, dumps_canonical(json.loads(text)["monad"])):
        assert assert_reader_agrees(doc) is not None
    assert assert_reader_agrees(text, stdin=True) is not None


def test_reader_refuses_any_backslash():
    # an escaped NUL forges a placeholder: f's entries are the string the
    # first cut stands for, and the cut itself is a canonical f under f.x
    doc = json.loads(built(1, 1, 1))
    f = doc["monad"]["f"]
    f["x"] = {"entries": f["entries"]}
    f["entries"] = "\x00f"
    forged = dumps_canonical(doc)
    assert read_built_monad(forged) is None
    code, out = verify_text(forged)
    assert code == 1 and json.loads(out)["error"].startswith("input document rejected: ")
    assert_reader_agrees(forged)
    # an escape that changes nothing still sends the text to the whole parse
    escaped = built(1, 1, 1).replace('"source"', '"sourc\\u0065"', 1)
    assert read_built_monad(escaped) is None
    assert verify_text(escaped)[0] == 0


def test_reader_needs_its_placeholders_in_place():
    text = built(1, 1, 1)
    close = '\n      ],\n      "rows"'
    after = text.replace(close, '\n      ],\n      "entries": 5,\n      "rows"', 1)
    before = text.replace('      "entries": [', '      "entries": 5,\n      "entries": [', 1)
    assert read_built_monad(after) is None
    assert verify_text(after)[0] == 1
    assert_reader_agrees(after)
    # json keeps the last of duplicate keys, here the built list
    assert assert_reader_agrees(before) is not None


@pytest.mark.parametrize("rows", ["1.0", "true"])
def test_reader_needs_shapes_that_are_ints(rows):
    text = built(1, 1, 1).replace('"rows": 1\n', f'"rows": {rows}\n', 1)
    assert read_built_monad(text) is None
    assert verify_text(text)[0] == 1
    assert_reader_agrees(text)


def test_reader_never_assembles_a_monad_larger_than_its_text():
    # a 3 KB document that declares n = 10^6, with the shapes that n gives
    doc = json.loads(built(1, 1, 1))
    monad = doc["monad"]
    monad["params"]["n"] = 10**6
    monad["f"]["cols"] = monad["g"]["rows"] = width(10**6, 1, 1)
    text = dumps_canonical(doc)
    assemblies = []

    def refuse(params):
        assemblies.append(params)
        raise AssertionError("a monad is never assembled larger than its document")

    with mock.patch.object(monad_module, "assemble_monad", refuse):
        assert read_built_monad(text) is None
        assert verify_text(text)[0] == 1
    assert assemblies == []


def test_reader_falls_back_on_any_exception():
    def fail(*_args):
        raise RuntimeError("no text for this matrix")

    text = built(2, 1, 2)
    expected = verify_text(text)
    with mock.patch.object(PolyMatrix, "json_chunks", fail):
        assert read_built_monad(text) is None
        assert verify_text(text) == expected
    assert expected[0] == 0


def _string_tokens(text: str):
    return [m.span() for m in re.finditer(r'"[^"\\]*"', text)]


def text_mutation(data, text: str, params) -> str:
    """`text` after one mutation of its text, or of its tree written back
    in the writer's layout ("tree": one to three `mutate` steps, written in
    that layout or by plain `json.dumps`)."""
    n, m, k = params
    doc = json.loads(text)
    monad = doc["monad"]
    kind = data.draw(
        st.sampled_from(
            ["shift", "reindent", "swap", "duplicate", "escape", "exponent", "params",
             "rows", "trailing", "lone entries", "huge n", "tree"]
        )
    )
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
        monad["f"]["cols"] = monad["g"]["rows"] = width(10**6, m, k)
    elif kind == "tree":
        for _ in range(data.draw(st.integers(1, 3), label="tree mutations")):
            mutate(data, doc)
        if not data.draw(st.booleans(), label="writer's layout"):
            return json.dumps(doc)
    return dumps_canonical(doc)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_text_reader_changes_no_exit_code_and_no_byte(data):
    params = data.draw(st.sampled_from([(1, 1, 1), (1, 2, 1), (2, 1, 2)]))
    text = text_mutation(data, built(*params), params)
    stdin = data.draw(st.booleans(), label="--input -")
    event("read by its text" if read_built_monad(text) is not None else "parsed whole")
    assert verify_text(text, stdin) == verify_parsed_whole(text, stdin)
