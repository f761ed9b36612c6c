"""Command-line front end.

Seven subcommands, one per claim cluster:

    build       emit the monad document (JSON, or text laid out like the displays)
    verify      f*g = 0 (identity or product) + maximal rank (lemma or sampling); exit 1 on failure
    cohomology  full dimension table of one line bundle
    invariants  rank / c1 / degree / slope of the kernel bundle T
    stability   the Hoppe-criterion vanishing scan
    simplicity  the full simplicity certificate for E
    report      everything above in a single document

One envelope serves all seven: each handler returns the params its document
is about, its body (for `build --format text`, finished text) and whether its
check passed; `main` alone adds the run manifest {command, params, seed,
tool_version, timestamp}, writes the document and maps the verdict to exit 0
or 1.  Output is byte-identical across runs with the same arguments and seed;
set SOURCE_DATE_EPOCH to pin the manifest timestamp (the test suite does),
otherwise it records the wall clock.

Exit codes: 0 = success, 1 = a mathematical check failed, 2 = usage error or out
of memory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Iterable, List, Optional, Tuple, Union

from . import __version__
from .chow import degree_simplification_check, invariants_of_T
from .cohomology import line_bundle, sum_cohomology
from .les import simplicity_certificate
from .monad import (
    MonadSpec,
    _block_offsets,
    assemble_monad,
    built_body,
    read_built_monad,
    verify_composition,
    verify_maximal_rank,
)
from .polyring import DEFAULT_PRIME, MultiDegree, SpaceParams, canonical_chunks, json_key
from .stability import StabilityScanConfig, run_stability_scan
from .stability import normalization_shift as _normalization_shift

EXIT_OK = 0
EXIT_MATH_FAIL = 1
EXIT_USAGE = 2

# a handler's (params the manifest records, document body or build's text, passed)
Outcome = Tuple[SpaceParams, Union[dict, str], bool]


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
        # time.time(), not gmtime()'s own clock, which may lag a second behind
        t = time.gmtime(time.time())
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


def _int_at_least(low: int):
    """The argparse type of an integer flag whose value must be >= `low`."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


def _emit(chunks: Iterable[str], output: Optional[str]) -> None:
    """Write the pieces of one document to `output` (stdout if None or "-").

    The pieces are produced as they are written, so producing one can fail
    part-way (out of memory), as can the write itself (a full disk).  A file
    this opened is then removed before the error propagates, so no partial
    document is left at `output`; stdout may already hold part of one."""
    if output is None or output == "-":
        sys.stdout.writelines(chunks)
        return
    fh = open(output, "w", encoding="utf-8")
    try:
        with fh:
            fh.writelines(chunks)
    except BaseException:
        if os.path.isfile(output):  # never a device such as /dev/null
            os.remove(output)
        raise


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


def _cmd_build(args: argparse.Namespace, params: SpaceParams) -> Outcome:
    spec = assemble_monad(params)
    if args.format == "json":
        return params, built_body(spec), True
    lines = [
        f"monad for (n, m, k) = ({params.n}, {params.m}, {params.k})",
        f"f ({spec.f.rows} x {spec.f.cols}):",
        *_render_matrix_text(spec, "f"),
        f"g ({spec.g.rows} x {spec.g.cols}):",
        *_render_matrix_text(spec, "g"),
    ]
    return params, "\n".join(lines) + "\n", True


def _read_input(path: str) -> str:
    """The document at `path` ("-" reads stdin), its bytes decoded as strict UTF-8."""
    if path == "-":
        return sys.stdin.buffer.read().decode("utf-8")
    with open(path, "rb") as fh:
        return fh.read().decode("utf-8")


def _declared_params(data: object, fallback: SpaceParams) -> SpaceParams:
    """The params a rejected monad document declares, or `fallback` if they do not parse."""
    try:
        return SpaceParams.from_json(json_key(data, "params", "monad document"))
    except ValueError:
        return fallback


def _cmd_verify(args: argparse.Namespace, params: SpaceParams) -> Outcome:
    if args.input is None:
        spec = assemble_monad(params)
    else:
        data = None
        try:
            text = _read_input(args.input)
            # a build is read by its text, every other document parsed whole
            spec = read_built_monad(text)
            if spec is None:
                data = json.loads(text)
                if isinstance(data, dict) and "monad" in data:  # a `build` document
                    data = data["monad"]
                spec = MonadSpec.from_json(data)
        except OSError:
            raise  # an unreadable path (missing, a directory, no permission) is a usage error (exit 2)
        except Exception as exc:
            # any defect of an outside document is a FAILED verdict, never a traceback
            body = {"verdict": "FAILED", "error": f"input document rejected: {exc}"}
            return _declared_params(data, params), body, False

    structure = spec.structural_problems()
    body = {"structure_problems": structure}
    passed = False
    # a malformed document is not a monad of the family: composing or
    # evaluating it (say, at a point lacking one of its variables) is moot
    if not structure:
        composition = verify_composition(spec)
        rank_report = verify_maximal_rank(
            spec, trials=args.trials, seed=args.seed, prime=DEFAULT_PRIME
        )
        passed = composition and rank_report.maximal and rank_report.origin_rank_f == 0
        body["composition_zero"] = composition
        body["rank"] = rank_report.to_json()
    body["verdict"] = "CERTIFIED" if passed else "FAILED"
    return spec.params, body, passed


def _cmd_cohomology(args: argparse.Namespace, params: SpaceParams) -> Outcome:
    deg = MultiDegree(*args.degree)
    table = sum_cohomology(line_bundle(params, deg))
    body = {"degree": list(deg.as_tuple()), "table": {str(t): h for t, h in enumerate(table.dims)}}
    return params, body, True


def _cmd_invariants(args: argparse.Namespace, params: SpaceParams) -> Outcome:
    return params, invariants_of_T(params).to_json(), True


def _scan_config(args: argparse.Namespace, params: SpaceParams):
    return StabilityScanConfig(
        params,
        max_q=args.max_q,
        max_psum=args.max_psum,
        component_bound=args.component_bound,
        min_psum=args.min_psum,
    )


def _cmd_stability(args: argparse.Namespace, params: SpaceParams) -> Outcome:
    report = run_stability_scan(_scan_config(args, params))
    return params, report.to_json(include_checked=True), report.all_vanish


def _cmd_simplicity(args: argparse.Namespace, params: SpaceParams) -> Outcome:
    cert = simplicity_certificate(params, _scan_config(args, params))
    return params, {"certificate": cert.to_json()}, cert.conclusion == "SIMPLE_CERTIFIED"


def _cmd_report(args: argparse.Namespace, params: SpaceParams) -> Outcome:
    cfg = _scan_config(args, params)
    inv = invariants_of_T(params)
    scan = run_stability_scan(cfg)
    cert = simplicity_certificate(params, cfg)
    body = {
        "invariants": inv.to_json(),
        "normalization_shift": _normalization_shift(inv, params),
        "stability": scan.to_json(include_checked=True),
        "simplicity": cert.to_json(),
        "degree_check": degree_simplification_check(params),
    }
    return params, body, scan.all_vanish and cert.conclusion == "SIMPLE_CERTIFIED"


def _add_format_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("json", "text"), default="json")


def _add_verify_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--trials", type=_int_at_least(1), default=20)
    sub.add_argument("--input", default=None, help="verify a monad JSON document instead of building one")


def _add_degree_positional(sub: argparse.ArgumentParser) -> None:
    # a tuple metavar breaks argparse's missing-argument message on Python < 3.12
    sub.add_argument("degree", type=int, nargs=4, metavar="DEG",
                     help="multidegree (a, b, c, d) of the line bundle")


def _add_scan_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--max-q", type=_int_at_least(1), default=None, dest="max_q",
                     help="cap on the exterior power index (default min(8, rank(T)-1))")
    sub.add_argument("--max-psum", type=_int_at_least(0), default=4, dest="max_psum",
                     help="cap on p1+p2+p3+p4 (default 4)")
    sub.add_argument("--component-bound", type=_int_at_least(0), default=4, dest="component_bound",
                     help="cap on each |p_i| (default 4)")
    sub.add_argument("--min-psum", type=int, default=0, dest="min_psum",
                     help="lower bound on p1+p2+p3+p4 (default 0; negative values probe outside the criterion's regime)")


# (name, one-line help, handler, adder of the subcommand's own arguments)
SUBCOMMANDS = (
    ("build", "emit the monad document", _cmd_build, _add_format_flag),
    ("verify", "certify composition and maximal rank", _cmd_verify, _add_verify_flags),
    ("cohomology", "dimension table of a line bundle", _cmd_cohomology, _add_degree_positional),
    ("invariants", "rank / c1 / degree / slope of T", _cmd_invariants, None),
    ("stability", "Hoppe-criterion vanishing scan", _cmd_stability, _add_scan_flags),
    ("simplicity", "simplicity certificate for E", _cmd_simplicity, _add_scan_flags),
    ("report", "invariants + stability + simplicity in one document", _cmd_report, _add_scan_flags),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monadforge",
        description="exact linear monads on P^n x P^n x P^m x P^m: construction, verification, certificates",
    )
    parser.add_argument("--version", action="version", version=f"monadforge {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, help_text, handler, add_own_flags in SUBCOMMANDS:
        sub = subs.add_parser(name, help=help_text)
        sub.add_argument("--n", type=_int_at_least(1), default=1, help="dimension of the paired P^n factors")
        sub.add_argument("--m", type=_int_at_least(1), default=1, help="dimension of the paired P^m factors")
        sub.add_argument("--k", type=_int_at_least(1), default=1, help="monad rank parameter")
        sub.add_argument("--seed", type=int, default=0, help="seed recorded in the manifest and used by sampling")
        sub.add_argument("--output", default=None, help="write to this file instead of stdout")
        if add_own_flags is not None:
            add_own_flags(sub)
        sub.set_defaults(func=handler)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass codes through
        return int(exc.code or 0)
    try:
        params, body, passed = args.func(args, SpaceParams(args.n, args.m, args.k))
        if isinstance(body, str):  # build --format text
            chunks: Iterable[str] = [body]
        else:
            chunks = canonical_chunks({"manifest": _manifest(args.command, params, args.seed), **body})
        _emit(chunks, args.output)
        return EXIT_OK if passed else EXIT_MATH_FAIL
    except BrokenPipeError:  # pragma: no cover - shell plumbing
        return EXIT_OK
    except (OSError, ValueError, OverflowError) as exc:
        # OSError: an unreadable --input path or an --output path that cannot be written;
        # ValueError: an argument the library rejects, such as a scan box out of range;
        # OverflowError: a parameter too large to compute with, such as --n 10^20
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except MemoryError:
        # a scan box whose rows are too many to write
        sys.stderr.write("error: out of memory\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
