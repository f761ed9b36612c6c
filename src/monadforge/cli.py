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

Every document leaves through `_emit`, as the UTF-8 encoding of its pieces
through one `io.BufferedWriter` of 256 KiB: on the `--output` file, written
over in place and committed by its first byte, or on stdout's descriptor,
left open for what the process writes next.

`main` is the in-process entry (tests, the library, the benchmark's traced
pass); `run` is the process entry, which `python -m monadforge.cli` and the
`monadforge` console script both call.

Exit codes: 0 = success, 1 = a mathematical check failed, 2 = usage error
(a closed stdout among them) or out of memory.
"""

from __future__ import annotations

import errno
import gc
import io
import json
import os
import stat
import sys
import time
from itertools import chain
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, Iterable, List, NoReturn, Optional, Tuple, Union

from . import __version__
from .chow import degree_simplification_check, invariants_of_T, normalization_shift
from .cohomology import line_bundle, sum_cohomology
from .les import simplicity_certificate
from .monad import (
    MonadSpec,
    built_body,
    built_text,
    is_built_monad,
    read_built_monad,
    staircase_rank_report,
    verify_composition,
    verify_maximal_rank,
)
from .polyring import DEFAULT_PRIME, MultiDegree, SpaceParams, canonical_chunks, json_key
from .stability import StabilityScanConfig, run_stability_scan

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


# the largest --n or --m: with both at most this, 2n + 2m + 1, the length of
# a cohomology table, is an index-sized integer
_DIMENSION_LIMIT = (sys.maxsize - 1) // 4
# the largest --k of `build`: with n = m = 1 and k at most this, the width
# 2n + 2m + 4k of f is an index-sized integer
_BUILD_K_LIMIT = (sys.maxsize - 4) // 4
# the largest --component-bound of the commands that write the row grid:
# with cb at most this, 2cb + 1, the length of its tables, is an index-sized
# integer
_GRID_BOUND_LIMIT = (sys.maxsize - 1) // 2


def _int_in(low: int, high: Optional[int] = None) -> Callable[[str], int]:
    """The type function of an integer flag whose value must be >= `low`
    and, unless `high` is None, <= `high`, used by argparse and by the plain
    reader alike.  A rejected value raises argparse's ArgumentTypeError, so
    argparse is imported only then."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is not None and value >= low and (high is None or value <= high):
            return value
        import argparse

        if value is None:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        raise argparse.ArgumentTypeError(f"must be <= {high}, got {value}")

    return parse


# the interpreter's buffers (8 KiB on stdout) pass each piece of tens of KB
# to a `write` call of its own
_WRITE_BUFFER = 256 * 1024


def _open_in_place(path: str, flags: int) -> int:
    """`open`'s opener for a document: mode "wb"'s flags without O_TRUNC, so
    a file already at `path` is written over, not emptied first; a new file
    gets mode 0o666 less the umask, as `open` gives it."""
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def _emit(chunks: Iterable[str], output: Optional[str]) -> None:
    """Write the pieces of one document to `output` (stdout if None or "-").

    Both sinks take the UTF-8 encoding of the pieces through an
    `io.BufferedWriter` of _WRITE_BUFFER (256 KiB): it hands its buffer on
    whenever the next piece does not fit, so a document leaves in a few
    large `write` calls whatever the size of its pieces.  Stdout's writer is
    a second one on its descriptor, which it leaves open (`closefd=False`);
    a stream with no descriptor (a StringIO, a test's capture) takes the
    pieces as text, and a closed stdout (None) is EBADF.

    A file already at `output` keeps its inode: it is opened without
    O_TRUNC, written from its start and, if it is a regular file (by `fstat`
    of the open descriptor; never a device, FIFO or terminal), cut to the
    document's length before it is closed.  Emptying it at open instead made
    a run over the last run's 24.7 MB document wait, by all signs on the
    kernel's writeback of that document (README "Writing").  A regular file
    gets its first byte last: it holds NUL, which no reader of a document
    accepts, until the rest is written and cut to length, and then the real
    byte (`{`, or `m` for build's text) is written at offset 0.  So a run
    killed part-way never leaves its bytes spliced over the last run's as a
    document that parses.  Stdout gets neither the commit byte nor the cut:
    a shell may have opened it to append.  So does an `output` that is
    stdout's own regular file (`/dev/stdout`, or its path, under `>>`): it is
    closed unwritten, and the document goes through stdout's descriptor,
    whose offset and O_APPEND are the shell's.

    The pieces are produced as they are written, so producing one can fail
    part-way (out of memory), as can the write itself (a full disk).  A
    regular file this opened is then removed, at the path its symlinks lead
    to, before the error propagates, so no partial document is left at
    `output`; stdout may already hold part of one."""
    fh = None
    if output is not None and output != "-":
        fh = open(output, "wb", buffering=_WRITE_BUFFER, opener=_open_in_place)
        st = os.fstat(fh.fileno())
        regular = stat.S_ISREG(st.st_mode)
        if regular and sys.stdout is not None and os.path.samestat(st, os.fstat(1)):
            fh.close()  # stdout's own file, which a shell may append to
            fh = None
    if fh is None:
        if sys.stdout is None:  # the process started with its stdout closed
            raise OSError(errno.EBADF, "standard output is closed")
        sys.stdout.flush()  # what the text layer holds goes out first
        try:
            fd = sys.stdout.fileno()
        except io.UnsupportedOperation:
            sys.stdout.writelines(chunks)
            return
        fh, regular = open(fd, "wb", buffering=_WRITE_BUFFER, closefd=False), False
    try:
        with fh:
            if regular:
                chunks = iter(chunks)
                head = next(chunks, "")
                first = head[:1].encode("utf-8")
                chunks = chain(["\0" * len(first) + head[1:]], chunks)
            fh.writelines(piece.encode("utf-8") for piece in chunks)
            if regular:
                fh.truncate()
                fh.flush()
                os.pwrite(fh.fileno(), first, 0)
    except BaseException:
        if regular:
            os.remove(os.path.realpath(output))
        raise


def _cmd_build(args: Args, params: SpaceParams) -> Outcome:
    if args.format == "json":
        return params, built_body(params), True
    return params, built_text(params), True


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
    spec = None  # None: the monad `build` writes for `params`
    if args.input is not None:
        data = None
        # CPython parses a decimal integer in time quadratic in its digits:
        # an outside document is read under CPython's default limit, whatever
        # the environment or `main` set, so a long one is refused at once
        limit = _swap_digit_limit(_READ_DIGITS)
        try:
            text = _read_input(args.input)
            # a build is read by its text, every other document parsed whole,
            # and one equal to build's monad, however spelled, joins it below
            built = read_built_monad(text)
            if built is not None:
                params = built
            else:
                data = json.loads(text)
                if isinstance(data, dict) and "monad" in data:  # a `build` document
                    data = data["monad"]
                spec = MonadSpec.from_json(data)
        except (OSError, MemoryError):
            # an unreadable path (missing, a directory, no permission) is a
            # usage error, and a document too large to parse is out of memory:
            # both exit 2
            raise
        except Exception as exc:
            # any defect of an outside document is a FAILED verdict, never a traceback
            body = {"verdict": "FAILED", "error": f"input document rejected: {exc}"}
            return _declared_params(data, params), body, False
        finally:
            _swap_digit_limit(limit)
        if spec is not None and is_built_monad(spec):
            params, spec = spec.params, None

    if spec is None:
        # build's monad is a monad of the family, zero by its identity, and
        # of maximal rank by the staircase lemma: nothing to walk
        structure, composition = [], True
        rank_report = staircase_rank_report(params, args.trials, args.seed, DEFAULT_PRIME)
    else:
        params, structure = spec.params, spec.structural_problems()
        # a malformed document is not a monad of the family: composing or
        # evaluating it (say, at a point lacking one of its variables) is moot
        if not structure:
            composition = verify_composition(spec)
            rank_report = verify_maximal_rank(spec, args.trials, args.seed, DEFAULT_PRIME)
    body = {"structure_problems": structure}
    passed = False
    if not structure:
        passed = composition and rank_report.maximal and rank_report.origin_rank_f == 0
        body["composition_zero"] = composition
        body["rank"] = rank_report.to_json()
    body["verdict"] = "CERTIFIED" if passed else "FAILED"
    return params, body, passed


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
        "normalization_shift": normalization_shift(inv, params),
        "stability": scan.to_json(include_checked=True),
        "simplicity": cert.to_json(),
        "degree_check": degree_simplification_check(inv, params),
    }
    return params, body, scan.all_vanish and cert.conclusion == "SIMPLE_CERTIFIED"


# A flag of the table: (option string, dest, type function or None, default,
# choices or None, help or None).  build_parser hands each row to argparse and
# _plain_args reads a plainly spelled argv by the same rows.
Flag = Tuple[str, str, Optional[Callable[[str], object]], object, Optional[Tuple[str, ...]], Optional[str]]

COMMON_FLAGS: Tuple[Flag, ...] = (
    ("--n", "n", _int_in(1, _DIMENSION_LIMIT), 1, None, "dimension of the paired P^n factors"),
    ("--m", "m", _int_in(1, _DIMENSION_LIMIT), 1, None, "dimension of the paired P^m factors"),
    ("--k", "k", _int_in(1), 1, None, "monad rank parameter"),
    ("--seed", "seed", int, 0, None, "seed recorded in the manifest and used by sampling"),
    ("--output", "output", None, None, None, "write to this file instead of stdout"),
)

SCAN_FLAGS: Tuple[Flag, ...] = (
    ("--max-q", "max_q", _int_in(1), None, None,
     "cap on the exterior power index (default min(8, rank(T)-1))"),
    ("--max-psum", "max_psum", _int_in(0), 4, None, "cap on p1+p2+p3+p4 (default 4)"),
    ("--component-bound", "component_bound", _int_in(0), 4, None, "cap on each |p_i| (default 4)"),
    ("--min-psum", "min_psum", int, 0, None,
     "lower bound on p1+p2+p3+p4 (default 0; negative values probe outside the criterion's regime)"),
)


def _bounded(flags: Tuple[Flag, ...], option: str, convert: Callable[[str], int]) -> Tuple[Flag, ...]:
    """`flags` with the type function of `option` replaced by `convert`."""
    return tuple(flag[:2] + (convert,) + flag[3:] if flag[0] == option else flag for flag in flags)


# build writes its matrices cell by cell, so its --k is bounded; the other
# commands read k only in closed forms and take any k
BUILD_FLAGS = _bounded(COMMON_FLAGS, "--k", _int_in(1, _BUILD_K_LIMIT)) + (
    ("--format", "format", None, "json", ("json", "text"), None),)
# stability and report write the row grid from tables of 2cb + 1 component
# texts, so their --component-bound is bounded; simplicity writes no grid and
# takes any
GRID_FLAGS = _bounded(SCAN_FLAGS, "--component-bound", _int_in(0, _GRID_BOUND_LIMIT))

# (name, one-line help, handler, flags, whether four DEG integers come last)
SUBCOMMANDS = (
    ("build", "emit the monad document", _cmd_build, BUILD_FLAGS, False),
    ("verify", "certify composition and maximal rank", _cmd_verify,
     COMMON_FLAGS + (("--trials", "trials", _int_in(1, sys.maxsize), 20, None, None),
                     ("--input", "input", None, None, None, "verify a monad JSON document instead of building one")),
     False),
    ("cohomology", "dimension table of a line bundle", _cmd_cohomology, COMMON_FLAGS, True),
    ("invariants", "rank / c1 / degree / slope of T", _cmd_invariants, COMMON_FLAGS, False),
    ("stability", "Hoppe-criterion vanishing scan", _cmd_stability, COMMON_FLAGS + GRID_FLAGS, False),
    ("simplicity", "simplicity certificate for E", _cmd_simplicity, COMMON_FLAGS + SCAN_FLAGS, False),
    ("report", "invariants + stability + simplicity in one document", _cmd_report,
     COMMON_FLAGS + GRID_FLAGS, False),
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


# CPython (3.11, and 3.10 from 3.10.7) refuses to convert an int of more
# than 4,300 digits to or from text unless told otherwise; None where it has
# no such limit
_READ_DIGITS: Optional[int] = getattr(sys.int_info, "default_max_str_digits", None)


def _swap_digit_limit(limit: Optional[int]) -> Optional[int]:
    """Set CPython's limit on int/text conversion to `limit` digits (0: none)
    and return the limit it replaces; with `limit` None, or on an interpreter
    without the limit, set nothing and return None."""
    if limit is None or _READ_DIGITS is None:
        return None
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    return old


def main(argv: Optional[List[str]] = None) -> int:
    # a document of exact integers writes them whole, whatever
    # PYTHONINTMAXSTRDIGITS says; `verify --input` reads under the default
    limit = _swap_digit_limit(0)
    try:
        return _answer(sys.argv[1:] if argv is None else list(argv))
    finally:
        _swap_digit_limit(limit)


def _answer(argv: List[str]) -> int:
    """Read `argv`, write its document and return its exit code."""
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
    except BrokenPipeError:
        # the reader closed stdout early, as `monadforge report ... | head` does
        return EXIT_OK
    except (OSError, ValueError, OverflowError) as exc:
        # OSError: an unreadable --input path or an --output path that cannot be written;
        # ValueError: an argument the library rejects, such as a scan box out of range;
        # OverflowError: a parameter too large to compute with that no flag's bound refused
        message = str(exc)
    except MemoryError:
        # a scan box whose rows are too many to write, or a `verify --input`
        # document too large to parse
        message = "out of memory"
    if sys.stderr is not None:  # a process started with stderr closed tells by its exit code alone
        sys.stderr.write(f"error: {message}\n")
    return EXIT_USAGE


def run() -> NoReturn:
    """The process entry: run `main` on `sys.argv`, then exit with its code.

    Before exiting, every object still alive (the modules, classes and
    functions that start-up and the imports built, and what the command left)
    moves to the collector's permanent generation.  The collections that
    interpreter finalization runs then skip them, and what only a collection
    would free (the cycles among modules, classes and functions) is left to
    the OS, which frees the process's pages at exit.  Atexit handlers, the
    flush of stdout and stderr, and the exit status are as `sys.exit(main())`
    gives.  Only a process that is about to end may do this, so `main`, which
    tests and the library call in-process, never does."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
