"""Construction and verification of the linear monads on X = P^n x P^n x P^m x P^m.

For shape parameters (n, m, k) the monad is the complex

    0 -> O_X(-1,-1,-1,-1)^k --f--> G_n (+) G_m --g--> O_X(1,1,1,1)^k -> 0,

    G_n = O_X(0,-1,0,0)^(n+k) (+) O_X(-1,0,0,0)^(n+k),
    G_m = O_X(0,0,-1,0)^(m+k) (+) O_X(0,0,0,-1)^(m+k),

whose maps are stored exactly as displayed: f is the k x (2n+2m+4k) block row

    f = [ f1 | -f2 | f3 | -f4 ],

with Hankel blocks (f1 in the y's, f2 in the x's: k x (n+k); f3 in the t's,
f4 in the z's: k x (m+k)), and g is the (2n+2m+4k) x k block column

    g = [ g1 ; g2 ; g3 ; g4 ],

with Toeplitz blocks (g1 in the x's, g2 in the y's: (n+k) x k; g3 in the z's,
g4 in the t's: (m+k) x k).  The closed entry formulas are

    f-block(i, j)  =  v_{D+k-1-i-j}   when 0 <= D+k-1-i-j <= D, else 0,
    g-block(i, j)  =  v_{i-j}         when 0 <= i-j <= D,       else 0,

where D is n or m as appropriate.  Writing the products out,

    (f1 g1)_{ij} = sum over a+b = n+k-1-i-j, 0<=a,b<=n of  y_a x_b,

which is symmetric under swapping the roles of the two variable groups, so
f1 g1 = f2 g2 and likewise f3 g3 = f4 g4; the interleaved signs in f then give
f g = f1 g1 - f2 g2 + f3 g3 - f4 g4 = 0 identically.

The other quantitative claim about the family is that both maps have maximal
rank k away from the irrelevant locus.  The band shape proves more, over
every field: rank f = rank g = k wherever *any one* coordinate group is
nonzero, and rank 0 only at the origin of the affine cone.  In row i of an
f-block the first nonzero entry sits in column D+k-1-i-r, r = max{s : v_s != 0},
and in column j of a g-block the top nonzero entry sits in row j+r,
r = min{s : v_s != 0}; these pivots are distinct, so each block alone has rank
k.  This holds for any band scalars c != 0 in place of the +-1 above.

`verify` certifies f g = 0 exactly, and rank k at every point by the lemma
or at the sampled points, in the same report bytes.  The labels above do
not grade f and g (f_b g_b has multidegree (1,1,0,0) or (0,0,1,1)); under
total degree they are a linear monad O(-1)^k -> O^W -> O(1)^k on P^{2n+2m+3}.

One function, `_rows`, states where every cell of f and g stands: the
staircase layout, filled with `LinearForm`s by `assemble_monad`, with JSON
cell texts by `BuiltEntries` (the entries `build` writes) and with the
texts `y0`, `-x1` and `0` by `built_text` (`build --format text`), so
`build` never assembles.  `verify` takes one of two paths.

Build's monad, recognised by its (n, m, k): `verify` without `--input`; a
text `read_built_monad` accepts, one whose text after the manifest is,
byte for byte, what `build` writes for the params the manifest gives; and
a document parsed whole by `MonadSpec.from_json`, the reader's oracle, that
`is_built_monad` finds equal to `assemble_monad(params)`, however it is
spelled (its shapes are compared first, so no document is assembled larger
than itself).  Its verdict is written from (n, m, k) alone: no structure
problem, f g = 0 by the identity, and the lemma's rank report
(`staircase_rank_report`); nothing is walked, multiplied or evaluated.

Every other document gets the general checks, one path each.
`MonadSpec.structural_problems` makes two entry walks, shapes and block
groups, then variable ranges (terms that are not linear never parse), and
compares the labels.  `verify_composition` multiplies f g out into a table
of quadratic forms (`polyring.matrix_mul`) and checks that its bilinear
coefficient table is empty, exactly, with no sampling involved.
`verify_maximal_rank` makes the one walk over the band, `band_scalars`, a
pure function that returns the set of scalars of f and g on the band, or
None when some cell is off it; with every scalar nonzero mod p the report
is the staircase lemma's, and otherwise it samples over a large prime field
(`sampled_rank_report`).  A set of scalars could not tell build's monad:
[f1 | f2 | -f3 | -f4] has the assembly's {1, -1}.

The general checks are the oracles of build's path: acceptance criteria 1
and 2 multiply the assembled monads out, criterion 3 samples them, and the
tests hold build's verdict to the general checks' on the assembly and
`build`'s text to the general matrix writer's.
"""

from __future__ import annotations

import json
import random
from itertools import chain
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from .cohomology import LineBundleSum, line_bundle
from .polyring import (
    DEFAULT_PRIME,
    GROUPS,
    LinearForm,
    MultiDegree,
    PolyMatrix,
    Record,
    SpaceParams,
    canonical_chunks,
    checked_int,
    evaluate_matrix,
    json_key,
    matrix_from_json,
    matrix_mul,
    rank_over_field,
)

# Blocks 1..4: (group of the f-block, group of the g-block, sign of the
# f-block in f), so f = [f1 | -f2 | f3 | -f4] and g = [g1 ; g2 ; g3 ; g4].
BLOCKS: Tuple[Tuple[str, str, int], ...] = (
    ("y", "x", 1), ("x", "y", -1), ("t", "z", 1), ("z", "t", -1)
)


def _block_offsets(params: SpaceParams) -> Tuple[int, int, int, int, int]:
    """Where blocks 1..4 of f's columns and of g's rows start, then their
    width W = 2n+2m+4k: (0, n+k, 2n+2k, 2n+m+3k, W)."""
    n, m, k = params.n, params.m, params.k
    return (0, n + k, 2 * n + 2 * k, 2 * n + m + 3 * k, 2 * n + 2 * m + 4 * k)


def _rows(params: SpaceParams, matrix: str, cell: Callable[..., object], zero: object) -> List[tuple]:
    """The staircase layout of f or g (`matrix`): its rows, each a tuple of
    cells, `cell(group, s, sign)` at band position s of a block and `zero`
    elsewhere, with `cell` called once per band position of a block.

    Line i of a block in `group` holds its band, positions 0..D (D the dim of
    the group), in cells i..i+D of D+k cells.  Row i of f is line i of each
    signed f-block of `BLOCKS` read right to left; g stacks the g-blocks,
    whose columns are the lines: the closed entry formulas of the module
    docstring."""
    k = params.k

    def lines(group: str, sign: int) -> List[tuple]:
        band = tuple(cell(group, s, sign) for s in range(params.group_dim(group) + 1))
        return [(zero,) * i + band + (zero,) * (k - 1 - i) for i in range(k)]

    if matrix == "f":
        blocks = [lines(group, sign) for group, _, sign in BLOCKS]
        return [tuple(chain.from_iterable(block[i][::-1] for block in blocks)) for i in range(k)]
    return [row for _, group, _ in BLOCKS for row in zip(*lines(group, 1))]


def source_bundle(params: SpaceParams) -> LineBundleSum:
    return line_bundle(params, MultiDegree(-1, -1, -1, -1), params.k)


def middle_bundle(params: SpaceParams) -> LineBundleSum:
    """G_n (+) G_m: four line-bundle classes, multiplicities n+k, n+k, m+k, m+k."""
    n, m, k = params.n, params.m, params.k
    return LineBundleSum(
        params,
        [
            (MultiDegree(0, -1, 0, 0), n + k),
            (MultiDegree(-1, 0, 0, 0), n + k),
            (MultiDegree(0, 0, -1, 0), m + k),
            (MultiDegree(0, 0, 0, -1), m + k),
        ],
    )


def target_bundle(params: SpaceParams) -> LineBundleSum:
    return line_bundle(params, MultiDegree(1, 1, 1, 1), params.k)


class MonadSpec(Record):
    """A fully assembled monad: bundle data plus the two displayed matrices."""

    __slots__ = ("params", "source", "middle", "target", "f", "g")

    def structural_problems(self) -> List[str]:
        """Shape and homogeneity defects, as human-readable strings.

        Checks, per block: f entries are 0 or linear forms in the block's
        own variable group (y, x, t, z in block order), g entries likewise
        (x, y, z, t), every variable index lies in [0, dim] of its group
        (so every entry can be evaluated at a point of X), and the bundle
        labels carry the expected classes, in that order: one walk over the
        blocks, one over every entry, then the labels.  Composition and rank
        are *not* checked here; those are the jobs of `verify_composition`
        and `verify_maximal_rank`.
        """
        problems: List[str] = []
        params = self.params
        k = params.k
        offsets = _block_offsets(params)
        width = offsets[-1]
        if (self.f.rows, self.f.cols) != (k, width):
            problems.append(f"f has shape {self.f.rows}x{self.f.cols}, expected {k}x{width}")
        if (self.g.rows, self.g.cols) != (width, k):
            problems.append(f"g has shape {self.g.rows}x{self.g.cols}, expected {width}x{k}")
        if not problems:
            for b, (f_name, g_name, _) in enumerate(BLOCKS):
                f_group, g_group = GROUPS.index(f_name), GROUPS.index(g_name)
                for pos in range(offsets[b], offsets[b + 1]):
                    for i in range(k):
                        if any(g != f_group for g, _, _ in self.f.entry(i, pos)):
                            problems.append(
                                f"f entry ({i},{pos}) is not a linear form in the "
                                f"block-{b + 1} group {f_name!r}"
                            )
                    for j in range(k):
                        if any(g != g_group for g, _, _ in self.g.entry(pos, j)):
                            problems.append(
                                f"g entry ({pos},{j}) is not a linear form in the "
                                f"block-{b + 1} group {g_name!r}"
                            )
        dims = [params.group_dim(group) for group in GROUPS]
        for name, matrix in (("f", self.f), ("g", self.g)):
            for i in range(matrix.rows):
                for j in range(matrix.cols):
                    foreign = [
                        f"{GROUPS[g]}{idx}" for g, idx, _ in matrix.entry(i, j) if idx > dims[g]
                    ]
                    if foreign:
                        problems.append(
                            f"{name} entry ({i},{j}) uses "
                            f"{', '.join(foreign)}, outside the "
                            f"coordinates x0..x{params.n}, y0..y{params.n}, "
                            f"z0..z{params.m}, t0..t{params.m}"
                        )
        if self.source != source_bundle(params):
            problems.append("source bundle label differs from O(-1,-1,-1,-1)^k")
        if self.middle != middle_bundle(params):
            problems.append("middle bundle label differs from the standard four-class sum")
        if self.target != target_bundle(params):
            problems.append("target bundle label differs from O(1,1,1,1)^k")
        return problems

    @staticmethod
    def from_json(data: Mapping) -> "MonadSpec":
        """Parse a monad document; a ValueError names the part that failed."""
        what = "monad document"
        params = SpaceParams.from_json(json_key(data, "params", what))
        bundles = {}
        for key in ("source", "middle", "target"):
            part = json_key(data, key, what)
            try:
                bundles[key] = LineBundleSum.from_json(part)
            except ValueError as exc:
                raise ValueError(f"{key}: {exc}") from None
        return MonadSpec(
            params=params,
            f=matrix_from_json(json_key(data, "f", what), "f"),
            g=matrix_from_json(json_key(data, "g", what), "g"),
            **bundles,
        )


def assemble_monad(params: SpaceParams) -> MonadSpec:
    """The canonical monad for (n, m, k): `_rows` filled with `LinearForm`s,
    every band cell the form sign * v_s in its block's group."""

    def form(group: str, s: int, sign: int) -> LinearForm:
        return LinearForm(((GROUPS.index(group), s, sign),))

    k, width = params.k, _block_offsets(params)[-1]
    f, g = (tuple(chain.from_iterable(_rows(params, name, form, LinearForm()))) for name in "fg")
    return MonadSpec(
        params, source_bundle(params), middle_bundle(params), target_bundle(params),
        PolyMatrix(k, width, f), PolyMatrix(width, k, g),
    )


class BuiltEntries(Record):
    """The entry list of f or g (`matrix`) of the monad for `params`, as
    `build` writes it: a fill, whose `json_chunks(indent)` writes `_rows`
    filled with cell texts, each band cell rendered once a write, one row a
    piece.  Each cell is the JSON form of its linear form (see polyring's
    "JSON forms"), `[]` for 0."""

    __slots__ = ("params", "matrix")

    def __init__(self, params: SpaceParams, matrix: str) -> None:
        if matrix not in ("f", "g"):
            raise ValueError(f"matrix must be 'f' or 'g', got {matrix!r}")
        super().__init__(params, matrix)

    def json_chunks(self, indent: int) -> Iterator[str]:
        """The rows, closing bracket at column `indent`."""
        r, c, t, f, e = (" " * (indent + step) for step in (2, 4, 6, 8, 10))

        def cell(group: str, s: int, sign: int) -> str:
            return (
                f'{c}[\n{t}{{\n{f}"coeff": "{sign}",\n{f}"exps": {{\n'
                f'{e}"{group}{s}": 1\n{f}}}\n{t}}}\n{c}]'
            )

        sep = "["
        for row in _rows(self.params, self.matrix, cell, f"{c}[]"):
            yield f"{sep}\n{r}[\n" + ",\n".join(row) + f"\n{r}]"
            sep = ","
        yield "\n" + " " * indent + "]"


def built_body(params: SpaceParams) -> dict:
    """The body of `build`'s JSON document for `params`: {"monad": the monad
    document, {params, source, middle, target, f, g}, each matrix {rows,
    cols, entries} with a `BuiltEntries` fill as its entries}."""
    k, width = params.k, _block_offsets(params)[-1]
    return {
        "monad": {
            "params": params.to_json(),
            "source": source_bundle(params).to_json(),
            "middle": middle_bundle(params).to_json(),
            "target": target_bundle(params).to_json(),
            "f": {"rows": k, "cols": width, "entries": BuiltEntries(params, "f")},
            "g": {"rows": width, "cols": k, "entries": BuiltEntries(params, "g")},
        }
    }


def built_text(params: SpaceParams) -> str:
    """`build --format text` for `params`: its params, then the staircase
    layout of f and g row by row, each cell right-aligned to its column,
    with block boundaries marked for visual diffing: f gets a `|` between
    its four column blocks, g a dashed rule between its four row blocks."""

    def cell(group: str, s: int, sign: int) -> str:
        return f"{group}{s}" if sign > 0 else f"-{group}{s}"

    cuts = set(_block_offsets(params)[1:4])  # the first index of blocks 2..4: f's columns, g's rows
    lines = [f"monad for (n, m, k) = ({params.n}, {params.m}, {params.k})"]
    for name in "fg":
        rows = _rows(params, name, cell, "0")
        widths = [max(map(len, column)) for column in zip(*rows)]
        lines.append(f"{name} ({len(rows)} x {len(widths)}):")
        for i, row in enumerate(rows):
            parts: List[str] = []
            for j, (text, width) in enumerate(zip(row, widths)):
                if name == "f" and j in cuts:
                    parts.append("|")
                parts.append(text.rjust(width))
            if name == "g" and i in cuts:
                lines.append("[ " + "-" * (sum(widths) + len(widths) - 1) + " ]")
            lines.append("[ " + " ".join(parts) + " ]")
    return "\n".join(lines) + "\n"


def read_built_monad(text: str) -> Optional[SpaceParams]:
    """P, the manifest's params, when the text after the manifest is byte for
    byte what `build` writes for P; else None, also whenever anything but
    MemoryError raises, and the caller parses the text whole with
    `MonadSpec.from_json`, the oracle.

    The text is cut at the first newline followed by `  "monad": `; the head
    before it must end in a comma and, that comma dropped and the object
    closed, parse with a manifest giving P.  A JSON string holds no raw
    newline, so the whole text is then the head's object plus a last "monad"
    member, which json keeps over any earlier one.  A text shorter than 2kW
    cells of `[]` at build's indent is refused before anything is rendered.
    Nothing is assembled: the text is compared with `built_body(P)`'s."""
    try:
        at = text.find('\n  "monad": ')
        if at < 1:
            return None
        params = SpaceParams.from_json(json.loads(text[: at - 1] + "\n}")["manifest"]["params"])
        if len(text) < 24 * params.k * _block_offsets(params)[-1]:
            return None
        pieces = canonical_chunks(built_body(params))
        pos = at - 1  # the head's comma, where build writes its opening "{"
        for piece in chain(["," + next(pieces)[1:]], pieces):
            if not text.startswith(piece, pos):
                return None
            pos += len(piece)
        return params if pos == len(text) else None
    except MemoryError:
        raise  # out of memory is the run's failure (exit 2), not the text's
    except Exception:  # whatever else went wrong, the full parse decides
        return None


def _has_monad_shape(spec: MonadSpec) -> bool:
    """f is k x W and g is W x k, W = 2n+2m+4k, as `params` says."""
    k = spec.params.k
    width = _block_offsets(spec.params)[-1]
    return (spec.f.rows, spec.f.cols, spec.g.rows, spec.g.cols) == (k, width, width, k)


def is_built_monad(spec: MonadSpec) -> bool:
    """True iff `spec` is the monad `build` writes for its params,
    `assemble_monad(spec.params)`, labels included.  The shapes are compared
    first, so a document is never assembled larger than itself."""
    return _has_monad_shape(spec) and spec == assemble_monad(spec.params)


def verify_composition(spec: MonadSpec) -> bool:
    """True iff f * g is the k x k zero matrix, exactly: f * g multiplied out
    symbolically (`matrix_mul`), every entry of its bilinear coefficient
    table empty.  Raises ValueError if f's columns are not g's rows."""
    return not any(any(row) for row in matrix_mul(spec.f, spec.g))


class RankReport(Record):
    """Outcome of the maximal-rank certification: the ranks observed.

    `trials` is the number of samples, and `maximal` is True iff every
    sample (a point with all four coordinate groups nonzero) gave rank k for
    both f and g; both are read from the samples.  `group_zero_ranks`
    records, for each group zeroed individually (others random), the
    observed (rank f, rank g) pair -- diagnostic only, no pass/fail meaning.
    A report filled from the staircase lemma and one from
    `sampled_rank_report` are equal field for field, so the JSON bytes do not
    say which path certified.
    """

    __slots__ = (
        "params",
        "prime",
        "seed",
        "rank_f_samples",
        "rank_g_samples",
        "origin_rank_f",
        "origin_rank_g",
        "group_zero_ranks",
    )

    @property
    def trials(self) -> int:
        return len(self.rank_f_samples)

    @property
    def maximal(self) -> bool:
        k = self.params.k
        return all(r == k for r in (*self.rank_f_samples, *self.rank_g_samples))

    def to_json(self) -> dict:
        return {
            "params": self.params.to_json(),
            "prime": self.prime,
            "trials": self.trials,
            "seed": self.seed,
            "rank_f_samples": list(self.rank_f_samples),
            "rank_g_samples": list(self.rank_g_samples),
            "origin_rank_f": self.origin_rank_f,
            "origin_rank_g": self.origin_rank_g,
            "group_zero_ranks": {
                g: {"f": fr, "g": gr} for g, (fr, gr) in sorted(self.group_zero_ranks.items())
            },
            "maximal": self.maximal,
        }


def _trial_rng(seed: int, counter: int) -> random.Random:
    # Counter-based derivation: each trial owns an independent generator, so
    # the report is identical no matter how trials are ordered or batched.
    return random.Random((seed & 0xFFFFFFFFFFFF) * (2**20) + counter)


def _sample_point(
    params: SpaceParams, rng: random.Random, prime: int, zero_groups: Sequence[str] = ()
) -> List[List[int]]:
    """One list of coordinate values per group x, y, z, t (see `evaluate_matrix`)."""
    point: List[List[int]] = []
    for group in GROUPS:
        dim = params.group_dim(group)
        if group in zero_groups:
            point.append([0] * (dim + 1))
            continue
        coords = [rng.randrange(prime) for _ in range(dim + 1)]
        while all(c == 0 for c in coords):  # keep the group on the cone minus origin
            coords = [rng.randrange(prime) for _ in range(dim + 1)]
        point.append(coords)
    return point


def band_scalars(spec: MonadSpec) -> Optional[frozenset[int]]:
    """The set of all scalars of f and g on the staircase band of
    `assemble_monad`, or None if some cell is off it.

    On the band, f and g have the shapes `params` gives, every f-block entry
    (i, j) is c * v_{D+k-1-i-j} and every g-block entry (i, j) c * v_{i-j}
    for some integer c != 0, in the block's own group, where that index lies
    in [0, D], and every other entry is 0.  `verify_maximal_rank`, its one
    caller, takes maximal rank from the staircase lemma when every scalar is
    nonzero mod p.  Row i of an f-block, read right to left, and column i of
    a g-block are line i of the block in `_rows`, so one pass over each
    block's lines checks both matrices.
    """
    if not _has_monad_shape(spec):
        return None
    k = spec.params.k
    offsets = _block_offsets(spec.params)
    width = offsets[-1]
    f, g = spec.f.entries, spec.g.entries
    scalars: set = set()
    for b, (f_group, g_group, _) in enumerate(BLOCKS):
        start, stop = offsets[b], offsets[b + 1]
        D = stop - start - k
        f_rows = (f[i * width + start : i * width + stop][::-1] for i in range(k))
        g_columns = (g[start * k + i : stop * k : k] for i in range(k))
        if not (
            _line_scalars(f_rows, GROUPS.index(f_group), D, scalars)
            and _line_scalars(g_columns, GROUPS.index(g_group), D, scalars)
        ):
            return None
    return frozenset(scalars)


def _line_scalars(lines: Iterable[Sequence[LinearForm]], group: int, D: int, scalars: set) -> bool:
    """Add to `scalars` the scalars c of lines whose cell i + s is c * v_s
    for s = 0..D, in `group`, with every other cell 0 (line i of `_rows`);
    False if a line is not so.  A band equal to the one before has its
    scalars added already."""
    last: Optional[Sequence[LinearForm]] = None
    for i, line in enumerate(lines):
        if any(line[:i]) or any(line[i + D + 1 :]):
            return False
        band = line[i : i + D + 1]
        if band != last:
            for s, cell in enumerate(band):
                if len(cell) != 1 or cell[0][0] != group or cell[0][1] != s:
                    return False
                scalars.add(cell[0][2])
            last = band
    return True


def verify_maximal_rank(
    spec: MonadSpec, trials: int = 20, seed: int = 0, prime: int = DEFAULT_PRIME
) -> RankReport:
    """Certificate that f and g have rank k away from the origin.

    When f and g lie on the staircase band (`band_scalars`) with every band
    scalar nonzero mod `prime`, the staircase lemma's hypothesis, the report
    is `staircase_rank_report`'s (see the module docstring), and no point is
    drawn.  Otherwise `sampled_rank_report` evaluates and eliminates.  Both
    paths give the same report for the same arguments.  Raises ValueError if
    trials < 1.
    """
    scalars = band_scalars(spec)
    if scalars is None or not all(c % prime for c in scalars):
        return sampled_rank_report(spec, trials, seed, prime)
    return staircase_rank_report(spec.params, trials, seed, prime)


def staircase_rank_report(
    params: SpaceParams, trials: int = 20, seed: int = 0, prime: int = DEFAULT_PRIME
) -> RankReport:
    """The report the staircase lemma gives for a monad on the band with
    every band scalar nonzero mod `prime`, as every `assemble_monad(params)`
    is: every sample and every single-group-zeroed point has ranks (k, k),
    and the origin (0, 0).  Raises ValueError if trials < 1."""
    checked_int(trials, 1, "trials")
    k = params.k
    samples, ranks = (k,) * trials, {group: (k, k) for group in GROUPS}
    return RankReport(params, prime, seed, samples, samples, 0, 0, ranks)


def sampled_rank_report(
    spec: MonadSpec,
    trials: int = 20,
    seed: int = 0,
    prime: int = DEFAULT_PRIME,
) -> RankReport:
    """Sampled certificate that f and g have rank k away from the origin.

    Every trial draws a point of F_prime^N with each coordinate group nonzero
    and records the ranks of f and g there; the all-zeros point and the four
    single-group-zeroed points are evaluated as well (the former must give
    rank 0, the latter are reported as diagnostics).  The only path for a
    document without the staircase shape, and the oracle for the lemma.
    Raises ValueError if trials < 1.
    """
    checked_int(trials, 1, "trials")
    # both lists first, so that a count of trials no memory holds fails at once
    rank_f = [0] * trials
    rank_g = rank_f.copy()
    for i in range(trials):
        rng = _trial_rng(seed, i)
        point = _sample_point(spec.params, rng, prime)
        rank_f[i] = rank_over_field(evaluate_matrix(spec.f, point, prime), prime)
        rank_g[i] = rank_over_field(evaluate_matrix(spec.g, point, prime), prime)

    origin = [[0] * (spec.params.group_dim(group) + 1) for group in GROUPS]
    origin_f = rank_over_field(evaluate_matrix(spec.f, origin, prime), prime)
    origin_g = rank_over_field(evaluate_matrix(spec.g, origin, prime), prime)

    group_zero: Dict[str, Tuple[int, int]] = {}
    for gi, group in enumerate(("x", "y", "z", "t")):
        rng = _trial_rng(seed, 10**6 + gi)
        point = _sample_point(spec.params, rng, prime, zero_groups=(group,))
        group_zero[group] = (
            rank_over_field(evaluate_matrix(spec.f, point, prime), prime),
            rank_over_field(evaluate_matrix(spec.g, point, prime), prime),
        )

    return RankReport(
        params=spec.params,
        prime=prime,
        seed=seed,
        rank_f_samples=tuple(rank_f),
        rank_g_samples=tuple(rank_g),
        origin_rank_f=origin_f,
        origin_rank_g=origin_g,
        group_zero_ranks=group_zero,
    )
