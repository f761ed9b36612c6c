"""Exit-code contract of `verify --input`: whatever a monad document holds,
the run ends in exit 0 or 1 without an exception, and writes a document
valid against the published `verify` schema, FAILED whenever it exits 1.
On the same mutated documents, the memoised parse and the one band walk
agree with the per-term parse and the two entry walks they replaced."""

from __future__ import annotations

import contextlib
import copy
import io
import json
import re
from functools import lru_cache

import jsonschema
from hypothesis import given, settings
from hypothesis import strategies as st

from monadforge.cli import main
from monadforge.monad import (
    MonadSpec,
    composition_by_product,
    sampled_rank_report,
    verify_composition,
    verify_maximal_rank,
)
from monadforge.polyring import matrix_from_json
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
