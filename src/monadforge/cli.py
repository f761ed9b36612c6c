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

Every flag is stated once, in one table (`SUBCOMMANDS`).  A plainly spelled
command line (a subcommand, full flag names each with one value, and
cohomology's four integers last) is read straight from the table by
`_plain_args`, and never imports argparse.  Any other argument vector goes to
the argparse parser `build_parser` makes from the same table, so argparse
alone prints every help text, version line and usage error.

Exit codes: 0 = success, 1 = a mathematical check failed, 2 = usage error or out
of memory.
"""

from __future__ import annotations

import json
import os
import sys
import time
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, Iterable, List, Optional, Tuple, Union

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

if TYPE_CHECKING:
    import argparse

EXIT_OK = 0
EXIT_MATH_FAIL = 1
EXIT_USAGE = 2

# a handler's (params the manifest records, document body or build's text, passed)
Outcome = Tuple[SpaceParams, Union[dict, str], bool]
# the parsed command line: argparse's namespace, or the plain reader's
Args = Union["argparse.Namespace", SimpleNamespace]


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


def _int_at_least(low: int) -> Callable[[str], int]:
    """The type function of an integer flag whose value must be >= `low`,
    used by argparse and by the plain reader alike.  A rejected value raises
    argparse's ArgumentTypeError, so argparse is imported only then."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is not None and value >= low:
            return value
        import argparse

        if value is None:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
        raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")

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


def _cmd_build(args: Args, params: SpaceParams) -> Outcome:
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


def _cmd_verify(args: Args, params: SpaceParams) -> Outcome:
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


def _cmd_cohomology(args: Args, params: SpaceParams) -> Outcome:
    deg = MultiDegree(*args.degree)
    table = sum_cohomology(line_bundle(params, deg))
    body = {"degree": list(deg.as_tuple()), "table": {str(t): h for t, h in enumerate(table.dims)}}
    return params, body, True


def _cmd_invariants(args: Args, params: SpaceParams) -> Outcome:
    return params, invariants_of_T(params).to_json(), True


def _scan_config(args: Args, params: SpaceParams):
    return StabilityScanConfig(
        params,
        max_q=args.max_q,
        max_psum=args.max_psum,
        component_bound=args.component_bound,
        min_psum=args.min_psum,
    )


def _cmd_stability(args: Args, params: SpaceParams) -> Outcome:
    report = run_stability_scan(_scan_config(args, params))
    return params, report.to_json(include_checked=True), report.all_vanish


def _cmd_simplicity(args: Args, params: SpaceParams) -> Outcome:
    cert = simplicity_certificate(params, _scan_config(args, params))
    return params, {"certificate": cert.to_json()}, cert.conclusion == "SIMPLE_CERTIFIED"


def _cmd_report(args: Args, params: SpaceParams) -> Outcome:
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


# A flag of the table: (option string, dest, type function or None, default,
# choices or None, help or None).  build_parser hands each row to argparse and
# _plain_args reads a plainly spelled argv by the same rows.
Flag = Tuple[str, str, Optional[Callable[[str], object]], object, Optional[Tuple[str, ...]], Optional[str]]

COMMON_FLAGS: Tuple[Flag, ...] = (
    ("--n", "n", _int_at_least(1), 1, None, "dimension of the paired P^n factors"),
    ("--m", "m", _int_at_least(1), 1, None, "dimension of the paired P^m factors"),
    ("--k", "k", _int_at_least(1), 1, None, "monad rank parameter"),
    ("--seed", "seed", int, 0, None, "seed recorded in the manifest and used by sampling"),
    ("--output", "output", None, None, None, "write to this file instead of stdout"),
)

SCAN_FLAGS: Tuple[Flag, ...] = (
    ("--max-q", "max_q", _int_at_least(1), None, None,
     "cap on the exterior power index (default min(8, rank(T)-1))"),
    ("--max-psum", "max_psum", _int_at_least(0), 4, None, "cap on p1+p2+p3+p4 (default 4)"),
    ("--component-bound", "component_bound", _int_at_least(0), 4, None, "cap on each |p_i| (default 4)"),
    ("--min-psum", "min_psum", int, 0, None,
     "lower bound on p1+p2+p3+p4 (default 0; negative values probe outside the criterion's regime)"),
)

# (name, one-line help, handler, flags, whether four DEG integers come last)
SUBCOMMANDS = (
    ("build", "emit the monad document", _cmd_build,
     COMMON_FLAGS + (("--format", "format", None, "json", ("json", "text"), None),), False),
    ("verify", "certify composition and maximal rank", _cmd_verify,
     COMMON_FLAGS + (("--trials", "trials", _int_at_least(1), 20, None, None),
                     ("--input", "input", None, None, None, "verify a monad JSON document instead of building one")),
     False),
    ("cohomology", "dimension table of a line bundle", _cmd_cohomology, COMMON_FLAGS, True),
    ("invariants", "rank / c1 / degree / slope of T", _cmd_invariants, COMMON_FLAGS, False),
    ("stability", "Hoppe-criterion vanishing scan", _cmd_stability, COMMON_FLAGS + SCAN_FLAGS, False),
    ("simplicity", "simplicity certificate for E", _cmd_simplicity, COMMON_FLAGS + SCAN_FLAGS, False),
    ("report", "invariants + stability + simplicity in one document", _cmd_report,
     COMMON_FLAGS + SCAN_FLAGS, False),
)

_SUBCOMMAND = {row[0]: row for row in SUBCOMMANDS}


def build_parser() -> "argparse.ArgumentParser":
    """The argparse parser of the flag table.  It reads every argv that
    `_plain_args` declines, and prints every help, version and error text."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="monadforge",
        description="exact linear monads on P^n x P^n x P^m x P^m: construction, verification, certificates",
    )
    parser.add_argument("--version", action="version", version=f"monadforge {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, help_text, handler, flags, takes_degree in SUBCOMMANDS:
        sub = subs.add_parser(name, help=help_text)
        for option, dest, convert, default, choices, flag_help in flags:
            sub.add_argument(option, dest=dest, type=convert, default=default, choices=choices, help=flag_help)
        if takes_degree:
            # a tuple metavar breaks argparse's missing-argument message on Python < 3.12
            sub.add_argument("degree", type=int, nargs=4, metavar="DEG",
                             help="multidegree (a, b, c, d) of the line bundle")
        sub.set_defaults(func=handler)
    return parser


def _is_int(token: str) -> bool:
    """Whether `token` is an ASCII integer, such as 12 or -4."""
    digits = token[1:] if token[:1] == "-" else token
    return digits.isascii() and digits.isdigit()


def _plain_args(argv: List[str]) -> Optional[SimpleNamespace]:
    """The namespace `build_parser().parse_args(argv)` returns, read from the
    flag table, if `argv` is plainly spelled; None if it is not.

    Plainly spelled is: a subcommand; full names of its flags, each followed
    by one value token (one that does not begin with "-", a lone "-" or an
    ASCII integer); for cohomology, four ASCII integers last, maybe after
    "--".  A repeated flag keeps its last value.  Each value goes through the
    flag's own type function and choices, so a value argparse would reject is
    declined here, and argparse reports it."""
    row = _SUBCOMMAND.get(argv[0]) if argv else None
    if row is None:
        return None
    name, _, handler, flags, takes_degree = row
    args = SimpleNamespace(command=name, func=handler)
    for _, dest, _, default, _, _ in flags:
        setattr(args, dest, default)
    rest = argv[1:]
    if takes_degree:
        if len(rest) < 4 or not all(map(_is_int, rest[-4:])):
            return None
        args.degree = [int(token) for token in rest[-4:]]
        rest = rest[:-4]
        if rest[-1:] == ["--"]:
            rest = rest[:-1]
    if len(rest) % 2:
        return None
    by_option = {flag[0]: flag for flag in flags}
    for option, token in zip(rest[::2], rest[1::2]):
        flag = by_option.get(option)
        if flag is None or (token[:1] == "-" and token != "-" and not _is_int(token)):
            return None
        _, dest, convert, _, choices, _ = flag
        try:
            value = token if convert is None else convert(token)
        except Exception:  # whatever the type function raises, argparse reports or raises
            return None
        if choices is not None and value not in choices:
            return None
        setattr(args, dest, value)
    return args


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _plain_args(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
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
