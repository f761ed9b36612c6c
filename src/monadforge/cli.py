"""Command-line front end.

Seven subcommands, one per claim cluster:

    build       emit the monad document (JSON, or text laid out like the displays)
    verify      f*g = 0 (identity or product) + maximal rank (lemma or sampling); exit 1 on failure
    cohomology  full dimension table of one line bundle
    invariants  rank / c1 / degree / slope of the kernel bundle T
    stability   the Hoppe-criterion vanishing scan
    simplicity  the full simplicity certificate for E
    report      everything above in a single document

Every JSON document embeds a run manifest {command, params, seed,
tool_version, timestamp}.  Output is byte-identical across runs with the same
arguments and seed; set SOURCE_DATE_EPOCH to pin the manifest timestamp (the
test suite does), otherwise it records the wall clock.

Exit codes: 0 = success, 1 = a mathematical check failed, 2 = usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Iterable, List, Optional

from . import __version__
from .chow import degree_simplification_check, invariants_of_T
from .cohomology import line_bundle, sum_cohomology
from .les import simplicity_certificate
from .monad import (
    MonadSpec,
    _block_offsets,
    assemble_monad,
    verify_composition,
    verify_maximal_rank,
)
from .polyring import DEFAULT_PRIME, MultiDegree, SpaceParams, canonical_chunks, json_key
from .stability import default_scan_config, run_stability_scan
from .stability import normalization_shift as _normalization_shift

EXIT_OK = 0
EXIT_MATH_FAIL = 1
EXIT_USAGE = 2


def _timestamp() -> str:
    """The UTC time SOURCE_DATE_EPOCH names, as YYYY-MM-DDTHH:MM:SSZ; the wall
    clock when the variable is unset, is not an integer, or names a time the
    platform rejects or outside the years 1..9999."""
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    t = None
    if epoch is not None:
        try:
            t = time.gmtime(int(epoch))
        except (ValueError, OverflowError, OSError):
            pass
    if t is None or not 1 <= t.tm_year <= 9999:
        t = time.gmtime()
    return "%04d-%02d-%02dT%02d:%02d:%02dZ" % t[:6]


def _manifest(command: str, params: SpaceParams, seed: int) -> dict:
    """The reproducibility header embedded in every JSON document."""
    return {
        "command": command,
        "params": params.to_json(),
        "seed": seed,
        "tool_version": __version__,
        "timestamp": _timestamp(),
    }


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonneg_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _emit(chunks: Iterable[str], output: Optional[str]) -> None:
    """Write the pieces of one document to `output` (stdout if None or "-").

    Callers compute the document before this opens the file, so only an I/O
    error can interrupt the write."""
    if output is None or output == "-":
        sys.stdout.writelines(chunks)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)


def _render_matrix_text(spec: MonadSpec, which: str) -> List[str]:
    """Rows of f or g with block boundaries marked, for visual diffing.

    f gets a `|` between its four column blocks; g gets a dashed rule between
    its four row blocks.
    """
    # the first index of blocks 2..4: f's columns, g's rows
    cuts = set(_block_offsets(spec.params)[1:4])
    matrix = spec.f if which == "f" else spec.g
    cells = [[str(matrix.entry(i, j)) for j in range(matrix.cols)] for i in range(matrix.rows)]
    widths = [max(len(cells[i][j]) for i in range(matrix.rows)) for j in range(matrix.cols)]
    lines: List[str] = []
    for i, row in enumerate(cells):
        parts: List[str] = []
        for j, (cell, width) in enumerate(zip(row, widths)):
            if which == "f" and j in cuts:
                parts.append("|")
            parts.append(cell.rjust(width))
        if which == "g" and i in cuts:
            lines.append("[ " + "-" * (sum(widths) + matrix.cols - 1) + " ]")
        lines.append("[ " + " ".join(parts) + " ]")
    return lines


def _cmd_build(args: argparse.Namespace) -> int:
    params = SpaceParams(args.n, args.m, args.k)
    spec = assemble_monad(params)
    if args.format == "json":
        doc = {"manifest": _manifest("build", params, args.seed), "monad": spec.json_template()}
        _emit(canonical_chunks(doc), args.output)
    else:
        lines = [
            f"monad for (n, m, k) = ({params.n}, {params.m}, {params.k})",
            f"f ({spec.f.rows} x {spec.f.cols}):",
            *_render_matrix_text(spec, "f"),
            f"g ({spec.g.rows} x {spec.g.cols}):",
            *_render_matrix_text(spec, "g"),
        ]
        _emit(["\n".join(lines) + "\n"], args.output)
    return EXIT_OK


def _read_monad_json(path: str) -> object:
    """The monad part of the JSON document at `path` ("-" reads stdin)."""
    if path == "-":
        raw = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    data = json.loads(raw)
    return data["monad"] if isinstance(data, dict) and "monad" in data else data


def _declared_params(data: object, fallback: SpaceParams) -> SpaceParams:
    """The params a rejected monad document declares, or `fallback` if they do not parse."""
    try:
        return SpaceParams.from_json(json_key(data, "params", "monad document"))
    except ValueError:
        return fallback


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.input is not None:
        data = None
        try:
            data = _read_monad_json(args.input)
            spec = MonadSpec.from_json(data)
        except OSError:
            raise  # an unreadable path (missing, a directory, no permission) is a usage error (exit 2)
        except Exception as exc:
            # any defect of an outside document is a FAILED verdict, never a traceback
            params = _declared_params(data, SpaceParams(args.n, args.m, args.k))
            doc = {
                "manifest": _manifest("verify", params, args.seed),
                "verdict": "FAILED",
                "error": f"input document rejected: {exc}",
            }
            _emit(canonical_chunks(doc), args.output)
            return EXIT_MATH_FAIL
    else:
        spec = assemble_monad(SpaceParams(args.n, args.m, args.k))

    structure = spec.structural_problems()
    doc = {
        "manifest": _manifest("verify", spec.params, args.seed),
        "structure_problems": structure,
    }
    passed = False
    # a malformed document is not a monad of the family: composing or
    # evaluating it (say, at a point lacking one of its variables) is moot
    if not structure:
        composition = verify_composition(spec)
        rank_report = verify_maximal_rank(
            spec, trials=args.trials, seed=args.seed, prime=DEFAULT_PRIME
        )
        passed = composition and rank_report.maximal and rank_report.origin_rank_f == 0
        doc["composition_zero"] = composition
        doc["rank"] = rank_report.to_json()
    doc["verdict"] = "CERTIFIED" if passed else "FAILED"
    _emit(canonical_chunks(doc), args.output)
    return EXIT_OK if passed else EXIT_MATH_FAIL


def _cmd_cohomology(args: argparse.Namespace) -> int:
    params = SpaceParams(args.n, args.m, args.k)
    deg = MultiDegree(*args.degree)
    table = sum_cohomology(line_bundle(params, deg))
    doc = {
        "manifest": _manifest("cohomology", params, args.seed),
        "degree": list(deg.as_tuple()),
        "table": {str(t): h for t, h in enumerate(table.dims)},
    }
    _emit(canonical_chunks(doc), args.output)
    return EXIT_OK


def _cmd_invariants(args: argparse.Namespace) -> int:
    params = SpaceParams(args.n, args.m, args.k)
    inv = invariants_of_T(params)
    doc = {"manifest": _manifest("invariants", params, args.seed)}
    doc.update(inv.to_json())
    _emit(canonical_chunks(doc), args.output)
    return EXIT_OK


def _scan_config(args: argparse.Namespace, params: SpaceParams):
    return default_scan_config(
        params,
        max_q=args.max_q,
        max_psum=args.max_psum,
        component_bound=args.component_bound,
        min_psum=args.min_psum,
    )


def _cmd_stability(args: argparse.Namespace) -> int:
    params = SpaceParams(args.n, args.m, args.k)
    cfg = _scan_config(args, params)
    report = run_stability_scan(cfg)
    doc = {"manifest": _manifest("stability", params, args.seed)}
    doc.update(report.to_json(include_checked=True))
    _emit(canonical_chunks(doc), args.output)
    return EXIT_OK if report.all_vanish else EXIT_MATH_FAIL


def _cmd_simplicity(args: argparse.Namespace) -> int:
    params = SpaceParams(args.n, args.m, args.k)
    cfg = _scan_config(args, params)
    cert = simplicity_certificate(params, cfg)
    doc = {
        "manifest": _manifest("simplicity", params, args.seed),
        "certificate": cert.to_json(),
    }
    _emit(canonical_chunks(doc), args.output)
    return EXIT_OK if cert.conclusion == "SIMPLE_CERTIFIED" else EXIT_MATH_FAIL


def _cmd_report(args: argparse.Namespace) -> int:
    params = SpaceParams(args.n, args.m, args.k)
    cfg = _scan_config(args, params)
    inv = invariants_of_T(params)
    scan = run_stability_scan(cfg)
    cert = simplicity_certificate(params, cfg)
    doc = {
        "manifest": _manifest("report", params, args.seed),
        "invariants": inv.to_json(),
        "normalization_shift": _normalization_shift(inv, params),
        "stability": scan.to_json(include_checked=True),
        "simplicity": cert.to_json(),
        "degree_check": degree_simplification_check(params),
    }
    _emit(canonical_chunks(doc), args.output)
    ok = scan.all_vanish and cert.conclusion == "SIMPLE_CERTIFIED"
    return EXIT_OK if ok else EXIT_MATH_FAIL


def _add_param_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--n", type=_positive_int, default=1, help="dimension of the paired P^n factors")
    sub.add_argument("--m", type=_positive_int, default=1, help="dimension of the paired P^m factors")
    sub.add_argument("--k", type=_positive_int, default=1, help="monad rank parameter")
    sub.add_argument("--seed", type=int, default=0, help="seed recorded in the manifest and used by sampling")
    sub.add_argument("--output", default=None, help="write to this file instead of stdout")


def _add_scan_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--max-q", type=_positive_int, default=None, dest="max_q",
                     help="cap on the exterior power index (default min(8, rank(T)-1))")
    sub.add_argument("--max-psum", type=_nonneg_int, default=4, dest="max_psum",
                     help="cap on p1+p2+p3+p4 (default 4)")
    sub.add_argument("--component-bound", type=_nonneg_int, default=4, dest="component_bound",
                     help="cap on each |p_i| (default 4)")
    sub.add_argument("--min-psum", type=int, default=0, dest="min_psum",
                     help="lower bound on p1+p2+p3+p4 (default 0; negative values probe outside the criterion's regime)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monadforge",
        description="exact linear monads on P^n x P^n x P^m x P^m: construction, verification, certificates",
    )
    parser.add_argument("--version", action="version", version=f"monadforge {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p_build = subs.add_parser("build", help="emit the monad document")
    _add_param_flags(p_build)
    p_build.add_argument("--format", choices=("json", "text"), default="json")
    p_build.set_defaults(func=_cmd_build)

    p_verify = subs.add_parser("verify", help="certify composition and maximal rank")
    _add_param_flags(p_verify)
    p_verify.add_argument("--trials", type=_positive_int, default=20)
    p_verify.add_argument("--input", default=None, help="verify a monad JSON document instead of building one")
    p_verify.set_defaults(func=_cmd_verify)

    p_coh = subs.add_parser("cohomology", help="dimension table of a line bundle")
    _add_param_flags(p_coh)
    # a tuple metavar breaks argparse's missing-argument message on Python < 3.12
    p_coh.add_argument("degree", type=int, nargs=4, metavar="DEG",
                       help="multidegree (a, b, c, d) of the line bundle")
    p_coh.set_defaults(func=_cmd_cohomology)

    p_inv = subs.add_parser("invariants", help="rank / c1 / degree / slope of T")
    _add_param_flags(p_inv)
    p_inv.set_defaults(func=_cmd_invariants)

    p_stab = subs.add_parser("stability", help="Hoppe-criterion vanishing scan")
    _add_param_flags(p_stab)
    _add_scan_flags(p_stab)
    p_stab.set_defaults(func=_cmd_stability)

    p_simp = subs.add_parser("simplicity", help="simplicity certificate for E")
    _add_param_flags(p_simp)
    _add_scan_flags(p_simp)
    p_simp.set_defaults(func=_cmd_simplicity)

    p_rep = subs.add_parser("report", help="invariants + stability + simplicity in one document")
    _add_param_flags(p_rep)
    _add_scan_flags(p_rep)
    p_rep.set_defaults(func=_cmd_report)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass codes through
        return int(exc.code or 0)
    try:
        return args.func(args)
    except BrokenPipeError:  # pragma: no cover - shell plumbing
        return EXIT_OK
    except (OSError, ValueError) as exc:
        # OSError: an unreadable --input path or an --output path that cannot be written;
        # ValueError: an argument the library rejects, such as a scan box out of range
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
