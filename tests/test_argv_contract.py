"""Exit-code contract of the whole command line: whatever the argument
vector, `main` returns 0, 1 or 2 without an exception escaping, and a run
that exits 1 leaves a document valid against its command's schema.  The
plain reader, where it reads an argument vector at all, reads it as argparse
does."""

from __future__ import annotations

import contextlib
import io
import json

import jsonschema
from hypothesis import event, given, settings
from hypothesis import strategies as st

from monadforge.cli import SUBCOMMANDS, _plain_args, build_parser, main
from monadforge.schemas import SCHEMAS

SCAN_COMMANDS = ("stability", "simplicity", "report")
COMMANDS = ("build", "verify", "cohomology", "invariants") + SCAN_COMMANDS
VALIDATORS = {cmd: jsonschema.Draft202012Validator(SCHEMAS[cmd]) for cmd in COMMANDS}
# no --output here: a stray one would write into the working directory
JUNK = st.sampled_from(["--", "-", "x", "--frobnicate", "--n", "--min-psum", "1.5", "", "-3"])
OUTPUT = "<output>"  # replaced by a tmp file or a tmp directory


def flag(draw, name: str, values) -> list:
    return [[name, str(draw(values))]] if draw(st.booleans()) else []


@st.composite
def argument_vectors(draw):
    """(command, argv) with n, m, k <= 3, max-q <= 4, box <= 3, p-sums in
    -4..4, maybe --output, 0-5 trailing integers and up to two junk tokens.

    The argv is built as groups so that junk never lands between a flag and
    its value: `--output <junk>` would write outside the tmp directory.
    """
    cmd = draw(st.sampled_from(COMMANDS))
    groups = [[cmd]]
    for name in ("--n", "--m", "--k"):
        groups += flag(draw, name, st.integers(-1, 3))
    if cmd in SCAN_COMMANDS:
        groups += [["--max-q", str(draw(st.integers(0, 4)))]]
        groups += [["--component-bound", str(draw(st.integers(0, 3)))]]
        groups += flag(draw, "--min-psum", st.integers(-4, 4))
        groups += flag(draw, "--max-psum", st.integers(-4, 4))
    if cmd == "build":
        groups += flag(draw, "--format", st.sampled_from(["json", "text"]))
    if draw(st.booleans()):
        groups += [["--output", OUTPUT]]
    groups += draw(st.sampled_from([[], [["--"]]]))
    groups += [[str(v)] for v in draw(st.lists(st.integers(-3, 3), max_size=5))]
    for token in draw(st.lists(JUNK, max_size=2)):
        groups.insert(draw(st.integers(0, len(groups))), [token])
    return cmd, [token for group in groups for token in group]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_argument_vector_exit_code_contract(tmp_path_factory, data):
    cmd, argv = data.draw(argument_vectors())
    base = tmp_path_factory.getbasetemp()
    target = base / "out.json"
    target.unlink(missing_ok=True)
    path = data.draw(st.sampled_from([target, base]), label="output")
    argv = [str(path) if token == OUTPUT else token for token in argv]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 1:
        text = target.read_text() if str(target) in argv else stdout.getvalue()
        VALIDATORS[cmd].validate(json.loads(text))


TABLE = {name: (flags, takes_degree) for name, _, _, flags, takes_degree in SUBCOMMANDS}
# spellings at the edge of the plain shape: an `=` form, an abbreviation,
# help and version, option-like values, and numbers that int() or argparse's
# token classes read differently from a plain ASCII integer
EDGE_TOKENS = st.sampled_from(["--n=2", "--comp", "-h", "--version", "--", "--help", "-"])
EDGE_NUMBERS = ["\u0663", "\u00b2", "1_0", "+3", " 3", "-1.5"]
EDGE_VALUES = st.sampled_from(EDGE_NUMBERS + ["-x y", "-", "", "--", "-h", "--n", "-4", "2", "json", "text"])
DEGREES = st.one_of(st.integers(-3, 3).map(str), st.sampled_from(EDGE_NUMBERS))


@st.composite
def plain_vectors(draw):
    """(command, argv) spelled from the flag table: up to four of the
    command's flags (maybe repeated), each with a plain value or, for a path
    flag, an option-like one; then for cohomology four integers (or edge
    spellings of them), maybe after `--`.  Nothing is run, so no path is
    written."""
    cmd = draw(st.sampled_from(COMMANDS))
    flags, takes_degree = TABLE[cmd]
    argv = [cmd]
    for option, _, convert, _, choices, _ in draw(st.lists(st.sampled_from(flags), max_size=4)):
        if choices is not None:
            value = draw(st.sampled_from(choices))
        elif convert is None:
            value = draw(st.sampled_from(["-", "out.json", "-4", "", "--", "-h", "--n", "-x y"]))
        else:
            value = str(draw(st.integers(1, 4)))
        argv += [option, value]
    if takes_degree:
        argv += draw(st.sampled_from([[], ["--"]]))
        argv += [draw(DEGREES) for _ in range(4)]
    return cmd, argv


@st.composite
def edged_vectors(draw):
    """An argv of `argument_vectors` or `plain_vectors` with up to two
    edits: an edge token anywhere, or one of the command's flags again with
    an edge value."""
    cmd, argv = draw(st.one_of(argument_vectors(), plain_vectors()))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        at = draw(st.integers(0, len(argv)))
        if draw(st.booleans()):
            edit = [draw(EDGE_TOKENS)]
        else:
            edit = [draw(st.sampled_from(TABLE[cmd][0]))[0], draw(EDGE_VALUES)]
        argv[at:at] = edit
    return argv


@settings(max_examples=400, deadline=None)
@given(edged_vectors())
def test_the_plain_reader_reads_as_argparse_does(argv):
    plain = _plain_args(argv)
    event("read plainly" if plain is not None else "declined")
    if plain is not None:
        assert vars(plain) == vars(build_parser().parse_args(argv))
