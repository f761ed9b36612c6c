"""Exit-code contract of `verify --input`: whatever a monad document holds,
the run ends in exit 0 or 1 without an exception, and writes a document
valid against the published `verify` schema, FAILED whenever it exits 1."""

from __future__ import annotations

import contextlib
import io
import json
from functools import lru_cache

import jsonschema
from hypothesis import given, settings
from hypothesis import strategies as st

from monadforge.cli import main
from monadforge.schemas import SCHEMAS

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
    kind = data.draw(
        st.sampled_from(["delete", "replace", "rename", "exponent", "truncate", "band", "key"])
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
