"""Published JSON Schemas for every CLI document.

`SCHEMAS` maps each subcommand name to a JSON Schema (draft 2020-12) that its
output validates against.  The schemas are part of the tool's public
contract: downstream consumers may validate documents with any standard
validator, e.g.

    import json, jsonschema
    from monadforge.schemas import SCHEMAS
    jsonschema.validate(json.loads(doc), SCHEMAS["report"])

Every object is closed, and every member is required unless it is named
optional: only `verify`'s partial results and the scan report's row lists are.
"""

from __future__ import annotations


def _object(properties: dict, optional: tuple = ()) -> dict:
    """A closed object whose members, in order, are required unless `optional`."""
    return {
        "type": "object",
        "required": [name for name in properties if name not in optional],
        "properties": properties,
        "additionalProperties": False,
    }


def _keyed(pattern: str, value: dict) -> dict:
    """A closed object whose member names match `pattern`, each valued `value`."""
    return {
        "type": "object",
        "patternProperties": {pattern: value},
        "additionalProperties": False,
    }


def _document(body: dict) -> dict:
    """The closed object `body` as a document: `$schema` first, `manifest` its first member."""
    # `required` and `properties` are replaced in place, so body's key order is kept
    return {
        "$schema": "https://json-schema.org/draft/2020-12/schema",
        **body,
        "required": ["manifest", *body["required"]],
        "properties": {"manifest": _MANIFEST, **body["properties"]},
    }


_POS_INT = {"type": "integer", "minimum": 1}
_NONNEG_INT = {"type": "integer", "minimum": 0}
_INT = {"type": "integer"}
_BIGINT_STR = {"type": "string", "pattern": "^-?[0-9]+$"}
_RATIONAL_STR = {"type": "string", "pattern": "^-?[0-9]+(/[0-9]+)?$"}
_BOOL = {"type": "boolean"}
_DEGREE = {"type": "array", "items": _INT, "minItems": 4, "maxItems": 4}
_INTERVAL = {"type": "array", "items": _NONNEG_INT, "minItems": 2, "maxItems": 2}

_PARAMS = _object({
    "n": _POS_INT,
    "m": _POS_INT,
    "k": _POS_INT,
})

_MANIFEST = _object({
    "command": {"type": "string"},
    "params": _PARAMS,
    "seed": _INT,
    "tool_version": {"type": "string"},
    "timestamp": {
        "type": "string",
        "pattern": "^[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}Z$",
    },
})

# a term is one variable to the power 1, as polyring's reader takes it
_POLYNOMIAL = {"type": "array", "items": _object({
    "coeff": _BIGINT_STR,
    "exps": {**_keyed("^[xyzt][0-9]+$", {"const": 1}), "minProperties": 1, "maxProperties": 1},
})}

_MATRIX = _object({
    "rows": _NONNEG_INT,
    "cols": _NONNEG_INT,
    "entries": {"type": "array", "items": {"type": "array", "items": _POLYNOMIAL}},
})

_LINE_BUNDLE_SUM = _object({
    "params": _PARAMS,
    "summands": {"type": "array", "items": _object({
        "degree": _DEGREE,
        "multiplicity": _POS_INT,
    })},
})

_MONAD = _object({
    "params": _PARAMS,
    "source": _LINE_BUNDLE_SUM,
    "middle": _LINE_BUNDLE_SUM,
    "target": _LINE_BUNDLE_SUM,
    "f": _MATRIX,
    "g": _MATRIX,
})

_RANK_REPORT = _object({
    "params": _PARAMS,
    "prime": _POS_INT,
    "trials": _POS_INT,
    "seed": _INT,
    "rank_f_samples": {"type": "array", "items": _NONNEG_INT},
    "rank_g_samples": {"type": "array", "items": _NONNEG_INT},
    "origin_rank_f": _NONNEG_INT,
    "origin_rank_g": _NONNEG_INT,
    "group_zero_ranks": _keyed("^[xyzt]$", _object({
        "f": _NONNEG_INT,
        "g": _NONNEG_INT,
    })),
    "maximal": _BOOL,
})

_SCAN_CONFIG = _object({
    "params": _PARAMS,
    "max_q": _POS_INT,
    "max_psum": _NONNEG_INT,
    "component_bound": _NONNEG_INT,
    "min_psum": _INT,
})

_SCAN_ROW = _object({
    "q": _POS_INT,
    "twist": _DEGREE,
    "h0": _NONNEG_INT,
})

_STABILITY_REPORT = _object({
    "config": _SCAN_CONFIG,
    "entries_checked": _NONNEG_INT,
    "verdict": {"enum": ["ALL_VANISH", "COUNTEREXAMPLE"]},
    "counterexample": {"anyOf": [{"type": "null"}, _object({
        "q": _POS_INT,
        "twist": _DEGREE,
    })]},
    "checked": {"type": "array", "items": _SCAN_ROW},
    "nonzero": {"type": "array", "items": _SCAN_ROW},
}, optional=("checked", "nonzero"))

_COH_PROFILE = {"anyOf": [
    _object({
        "kind": {"const": "exact"},
        "dims": {"type": "array", "items": _NONNEG_INT},
    }),
    _object({
        "kind": {"const": "interval"},
        "intervals": {"type": "array", "items": _INTERVAL},
    }),
    _object({"kind": {"const": "unknown"}}),
]}

_SEQUENCE = _object({
    "left": _COH_PROFILE,
    "middle": _COH_PROFILE,
    "right": _COH_PROFILE,
    "dim_top": _POS_INT,
})

_CERTIFICATE = _object({
    "params": _PARAMS,
    "rank_E": _POS_INT,
    "h0_T_dual_twisted": _INTERVAL,
    "h1_T_dual_twisted": _INTERVAL,
    "t_stable": _BOOL,
    "stability": _STABILITY_REPORT,
    "sequence": _SEQUENCE,
    "conclusion": {"enum": ["SIMPLE_CERTIFIED", "INCONCLUSIVE"]},
    "reason": {"anyOf": [{"type": "null"}, {"type": "string"}]},
    "argument": {"type": "string"},
})

_INVARIANTS = _object({
    "rank": _POS_INT,
    "c1": _DEGREE,
    "degree": _INT,
    "slope": _RATIONAL_STR,
})

_DEGREE_CHECK = _object({
    "exact_degree": _INT,
    "uniform_weight_shortcut": _INT,
    "agree": _BOOL,
    "note": {"type": "string"},
})

SCHEMAS = {
    "build": _document(_object({"monad": _MONAD})),
    "verify": _document(_object({
        "structure_problems": {"type": "array", "items": {"type": "string"}},
        "composition_zero": _BOOL,
        "rank": _RANK_REPORT,
        "verdict": {"enum": ["CERTIFIED", "FAILED"]},
        "error": {"type": "string"},
    }, optional=("structure_problems", "composition_zero", "rank", "error"))),
    "cohomology": _document(_object({
        "degree": _DEGREE,
        "table": _keyed("^[0-9]+$", _NONNEG_INT),
    })),
    "invariants": _document(_INVARIANTS),
    "stability": _document(_STABILITY_REPORT),
    "simplicity": _document(_object({"certificate": _CERTIFICATE})),
    "report": _document(_object({
        "invariants": _INVARIANTS,
        "normalization_shift": _INT,
        "stability": _STABILITY_REPORT,
        "simplicity": _CERTIFICATE,
        "degree_check": _DEGREE_CHECK,
    })),
}

__all__ = ["SCHEMAS"]
