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

`verify` settles structure, composition and rank from one walk over the
entries, `band_scalars`, which returns the scalars of f and g on that band,
or None when some cell is off it.  On the band, every band cell is one term
of its block's group at an index in [0, D] and every other cell is 0, so
`MonadSpec.structural_problems` checks only the bundle labels;
`verify_composition` takes f g = 0 from the identity when the scalars are
`assemble_monad`'s (+1, -1, +1, -1 on the blocks of f, +1 on g), since f and
g are then that monad's; and `verify_maximal_rank` fills its report from the
staircase lemma when every scalar is nonzero mod p.  Every other document
gets the general path: the two entry walks of `structural_problems`, which
reject linear forms in the wrong group or in coordinates X does not have
(terms that are not linear never parse); `composition_by_product`, which
multiplies f g out into a table of quadratic forms (`polyring.matrix_mul`)
and checks that its bilinear coefficient table is empty, exactly, with no
sampling involved; and seeded sampling over a large prime field
(`sampled_rank_report`).  The general paths stay the oracles of the
shortcuts: acceptance criteria 1 and 2 multiply the assembled monads out,
and criterion 3 samples them.
"""

from __future__ import annotations

import random
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from .cohomology import LineBundleSum, line_bundle
from .polyring import (
    DEFAULT_PRIME,
    GROUPS,
    LinearForm,
    MultiDegree,
    PolyMatrix,
    QuadraticForm,
    Record,
    SpaceParams,
    checked_int,
    evaluate_matrix,
    json_key,
    matrix_from_json,
    matrix_mul,
    rank_over_field,
    variable_form,
)

# Variable group carried by each block, in block order 1..4.
F_BLOCK_GROUPS: Tuple[str, ...] = ("y", "x", "t", "z")
G_BLOCK_GROUPS: Tuple[str, ...] = ("x", "y", "z", "t")


def _block_offsets(params: SpaceParams) -> Tuple[int, int, int, int, int]:
    """Where blocks 1..4 of f's columns and of g's rows start, then their
    width W = 2n+2m+4k: (0, n+k, 2n+2k, 2n+m+3k, W)."""
    n, m, k = params.n, params.m, params.k
    return (0, n + k, 2 * n + 2 * k, 2 * n + m + 3 * k, 2 * n + 2 * m + 4 * k)


def build_f_block(which: int, params: SpaceParams) -> PolyMatrix:
    """Block `which` (1..4) of f: a k x (D+k) Hankel matrix of coordinates.

    Entry (i, j) is v_{D+k-1-i-j} when that index lies in [0, D], else 0,
    where (v, D) is (y, n), (x, n), (t, m), (z, m) for which = 1..4.
    The sign interleaving belongs to `assemble_monad`, not to the block.
    """
    if which not in (1, 2, 3, 4):
        raise ValueError(f"f-block index must be 1..4, got {which!r}")
    group = F_BLOCK_GROUPS[which - 1]
    D = params.group_dim(group)
    k = params.k
    entries: List[LinearForm] = []
    for i in range(k):
        for j in range(D + k):
            idx = D + k - 1 - i - j
            entries.append(variable_form(group, idx) if 0 <= idx <= D else LinearForm())
    return PolyMatrix(k, D + k, entries)


def build_g_block(which: int, params: SpaceParams) -> PolyMatrix:
    """Block `which` (1..4) of g: a (D+k) x k Toeplitz matrix of coordinates.

    Entry (i, j) is v_{i-j} when 0 <= i-j <= D, else 0, where (v, D) is
    (x, n), (y, n), (z, m), (t, m) for which = 1..4.  Each block has exactly
    D+k rows; every coordinate slides down one column per step.
    """
    if which not in (1, 2, 3, 4):
        raise ValueError(f"g-block index must be 1..4, got {which!r}")
    group = G_BLOCK_GROUPS[which - 1]
    D = params.group_dim(group)
    k = params.k
    entries: List[LinearForm] = []
    for i in range(D + k):
        for j in range(k):
            idx = i - j
            entries.append(variable_form(group, idx) if 0 <= idx <= D else LinearForm())
    return PolyMatrix(D + k, k, entries)


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

    __slots__ = ("params", "source", "middle", "target", "f", "g", "_band")

    def __init__(
        self,
        params: SpaceParams,
        source: LineBundleSum,
        middle: LineBundleSum,
        target: LineBundleSum,
        f: PolyMatrix,
        g: PolyMatrix,
    ) -> None:
        self.params = params
        self.source = source
        self.middle = middle
        self.target = target
        self.f = f
        self.g = g
        # (params, f, g) and what `band_scalars` found for them; neither
        # compared nor shown
        self._band: Optional[tuple] = None

    def structural_problems(self) -> List[str]:
        """Shape and homogeneity defects, as human-readable strings.

        Checks, per block: f entries are 0 or linear forms in the block's
        own variable group (y, x, t, z in block order), g entries likewise
        (x, y, z, t), every variable index lies in [0, dim] of its group
        (so every entry can be evaluated at a point of X), and the bundle
        labels carry the expected classes.  Composition and rank are *not*
        checked here; those are the jobs of `verify_composition` and
        `verify_maximal_rank`.

        When `band_scalars` finds f and g on the staircase band, every band
        cell is one term of its block's group at an index in [0, D] and every
        other cell is 0, so the shapes, groups and indices are all proved and
        only the labels are compared.  Any other document gets the two entry
        walks of `_entry_problems`, groups first, then indices.
        """
        problems = [] if band_scalars(self) is not None else self._entry_problems()
        params = self.params
        if self.source != source_bundle(params):
            problems.append("source bundle label differs from O(-1,-1,-1,-1)^k")
        if self.middle != middle_bundle(params):
            problems.append("middle bundle label differs from the standard four-class sum")
        if self.target != target_bundle(params):
            problems.append("target bundle label differs from O(1,1,1,1)^k")
        return problems

    def _entry_problems(self) -> List[str]:
        """The shape, block-group and variable-range defects of f and g, in
        that order: one walk over the blocks, then one over every entry."""
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
            for b in range(4):
                f_group = GROUPS.index(F_BLOCK_GROUPS[b])
                g_group = GROUPS.index(G_BLOCK_GROUPS[b])
                for pos in range(offsets[b], offsets[b + 1]):
                    for i in range(k):
                        if any(g != f_group for g, _, _ in self.f.entry(i, pos)):
                            problems.append(
                                f"f entry ({i},{pos}) is not a linear form in the "
                                f"block-{b + 1} group {F_BLOCK_GROUPS[b]!r}"
                            )
                    for j in range(k):
                        if any(g != g_group for g, _, _ in self.g.entry(pos, j)):
                            problems.append(
                                f"g entry ({pos},{j}) is not a linear form in the "
                                f"block-{b + 1} group {G_BLOCK_GROUPS[b]!r}"
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
        return problems

    def json_template(self) -> dict:
        """The monad document, {params, source, middle, target, f, g}, each
        matrix {rows, cols, entries} with the `PolyMatrix` itself as its
        entries: `canonical_chunks` writes them without ever building the
        entries' dict tree."""
        return {
            "params": self.params.to_json(),
            "source": self.source.to_json(),
            "middle": self.middle.to_json(),
            "target": self.target.to_json(),
            "f": {"rows": self.f.rows, "cols": self.f.cols, "entries": self.f},
            "g": {"rows": self.g.rows, "cols": self.g.cols, "entries": self.g},
        }

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
    """Build the canonical monad for (n, m, k): f = [f1 | -f2 | f3 | -f4], g stacked."""
    f_blocks = [
        build_f_block(1, params),
        -build_f_block(2, params),
        build_f_block(3, params),
        -build_f_block(4, params),
    ]
    g_blocks = [build_g_block(which, params) for which in (1, 2, 3, 4)]
    width = _block_offsets(params)[-1]
    f = PolyMatrix(
        params.k, width, [p for i in range(params.k) for block in f_blocks for p in block.row(i)]
    )
    g = PolyMatrix(width, params.k, [p for block in g_blocks for p in block.entries])
    return MonadSpec(
        params=params,
        source=source_bundle(params),
        middle=middle_bundle(params),
        target=target_bundle(params),
        f=f,
        g=g,
    )


def _has_monad_shape(spec: MonadSpec) -> bool:
    """f is k x W and g is W x k, W = 2n+2m+4k, as `params` says."""
    k = spec.params.k
    width = _block_offsets(spec.params)[-1]
    return (spec.f.rows, spec.f.cols, spec.g.rows, spec.g.cols) == (k, width, width, k)


def verify_composition(spec: MonadSpec) -> bool:
    """True iff f * g is the k x k zero matrix, exactly.

    When `band_scalars` finds `assemble_monad`'s scalars, +1, -1, +1, -1 on
    the blocks of f and +1 on those of g, f and g are that monad's, and f * g
    is zero by the identity f g = f1 g1 - f2 g2 + f3 g3 - f4 g4 = 0 (see the
    module docstring): nothing is multiplied or assembled.  Every other
    document goes through `composition_by_product`.
    """
    if band_scalars(spec) == _ASSEMBLED_SCALARS:
        return True
    return composition_by_product(spec)


def composition_by_product(spec: MonadSpec) -> bool:
    """Multiply f * g out symbolically and check that every entry of the
    bilinear coefficient table is empty.  The only path for a document other
    than `assemble_monad`'s, and the oracle for the identity."""
    return not any(any(row) for row in matrix_mul(spec.f, spec.g))


Product = List[List[QuadraticForm]]


def block_products(spec: MonadSpec) -> Tuple[Product, Product, Product, Product]:
    """The four k x k products (f1 g1, f2 g2, f3 g3, f4 g4), signs stripped,
    as tables of quadratic forms (see `matrix_mul`).

    Cancellation happens pairwise: blocks 1 and 2 agree, blocks 3 and 4 agree.
    """
    k = spec.params.k
    offsets = _block_offsets(spec.params)
    out = []
    for b in range(4):
        start, stop = offsets[b], offsets[b + 1]
        fblock = PolyMatrix(
            k, stop - start, [spec.f.entry(i, j) for i in range(k) for j in range(start, stop)]
        )
        if b in (1, 3):  # assembled with a sign; strip it for the identity
            fblock = -fblock
        gblock = PolyMatrix(stop - start, k, spec.g.entries[start * k : stop * k])
        out.append(matrix_mul(fblock, gblock))
    return tuple(out)  # type: ignore[return-value]


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

    def __init__(
        self,
        params: SpaceParams,
        prime: int,
        seed: int,
        rank_f_samples: Tuple[int, ...],
        rank_g_samples: Tuple[int, ...],
        origin_rank_f: int,
        origin_rank_g: int,
        group_zero_ranks: Dict[str, Tuple[int, int]],
    ) -> None:
        self.params = params
        self.prime = prime
        self.seed = seed
        self.rank_f_samples = rank_f_samples
        self.rank_g_samples = rank_g_samples
        self.origin_rank_f = origin_rank_f
        self.origin_rank_g = origin_rank_g
        self.group_zero_ranks = group_zero_ranks

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


# The set of band scalars of each block: f1..f4, then g1..g4.
BandScalars = Tuple[FrozenSet[int], ...]
# Those of `assemble_monad`'s f = [f1 | -f2 | f3 | -f4] and g.
_ASSEMBLED_SCALARS: BandScalars = tuple(frozenset((s,)) for s in (1, -1, 1, -1, 1, 1, 1, 1))


def band_scalars(spec: MonadSpec) -> Optional[BandScalars]:
    """The scalars of f and g on the staircase band of `assemble_monad`, as
    one set per block (f1..f4, then g1..g4), or None if some cell is off it.

    On the band, f and g have the shapes `params` gives, every f-block entry
    (i, j) is c * v_{D+k-1-i-j} and every g-block entry (i, j) c * v_{i-j}
    for some integer c != 0, in the block's own group, where that index lies
    in [0, D], and every other entry is 0.  This one walk is what
    `structural_problems`, `verify_composition` and `verify_maximal_rank`
    read: on the band, structure needs only its labels checked, the scalars
    of `assemble_monad` give f g = 0 by the identity, and scalars nonzero
    mod p give maximal rank by the staircase lemma.  The result is memoised
    on `spec` for its current params, f and g, so one `verify` walks once.
    """
    key = (spec.params, spec.f, spec.g)
    memo = spec._band
    if memo is None or any(a is not b for a, b in zip(memo[0], key)):
        memo = spec._band = (key, _band_walk(spec))
    return memo[1]


def _band_walk(spec: MonadSpec) -> Optional[BandScalars]:
    """Read right to left, row i of an f-block is the line v_0..v_D shifted
    by i, as is column i of a g-block, so one pass over the lines of each
    block checks both matrices."""
    if not _has_monad_shape(spec):
        return None
    k = spec.params.k
    offsets = _block_offsets(spec.params)
    width = offsets[-1]
    f, g = spec.f.entries, spec.g.entries
    f_scalars: List[FrozenSet[int]] = []
    g_scalars: List[FrozenSet[int]] = []
    for b in range(4):
        start, stop = offsets[b], offsets[b + 1]
        D = stop - start - k
        f_rows = (f[i * width + start : i * width + stop][::-1] for i in range(k))
        g_columns = (g[start * k + i : stop * k : k] for i in range(k))
        for lines, groups, out in (
            (f_rows, F_BLOCK_GROUPS, f_scalars),
            (g_columns, G_BLOCK_GROUPS, g_scalars),
        ):
            scalars = _line_scalars(lines, GROUPS.index(groups[b]), D)
            if scalars is None:
                return None
            out.append(scalars)
    return (*f_scalars, *g_scalars)


def _line_scalars(
    lines: Iterable[Sequence[LinearForm]], group: int, D: int
) -> Optional[FrozenSet[int]]:
    """The scalars c of lines whose cell i + s is c * v_s for s = 0..D, in
    `group`, with every other cell 0 (line i shifted by i); None if a line
    is not so.  A band equal to the one before has its scalars already."""
    scalars: set = set()
    last: Optional[Sequence[LinearForm]] = None
    for i, line in enumerate(lines):
        if any(line[:i]) or any(line[i + D + 1 :]):
            return None
        band = line[i : i + D + 1]
        if band != last:
            for s, cell in enumerate(band):
                if len(cell) != 1 or cell[0][0] != group or cell[0][1] != s:
                    return None
                scalars.add(cell[0][2])
            last = band
    return frozenset(scalars)


def has_staircase_shape(spec: MonadSpec, prime: int) -> bool:
    """True iff f and g lie on the staircase band (`band_scalars`) with every
    band scalar nonzero mod `prime`: the staircase lemma's hypothesis."""
    scalars = band_scalars(spec)
    return scalars is not None and all(c % prime for block in scalars for c in block)


def verify_maximal_rank(
    spec: MonadSpec,
    trials: int = 20,
    seed: int = 0,
    prime: int = DEFAULT_PRIME,
) -> RankReport:
    """Certificate that f and g have rank k away from the origin.

    When `has_staircase_shape` holds (f and g lie on the band, with every
    band scalar nonzero mod `prime`), the report is filled from the staircase
    lemma (see the module docstring) and no point is drawn: every sample and
    every single-group-zeroed point has ranks (k, k), and the origin (0, 0).
    Otherwise `sampled_rank_report` evaluates and eliminates.  Both paths give
    the same report for the same arguments.  Raises ValueError if trials < 1.
    """
    checked_int(trials, 1, "trials")
    if not has_staircase_shape(spec, prime):
        return sampled_rank_report(spec, trials, seed, prime)
    k = spec.params.k
    return RankReport(
        params=spec.params,
        prime=prime,
        seed=seed,
        rank_f_samples=(k,) * trials,
        rank_g_samples=(k,) * trials,
        origin_rank_f=0,
        origin_rank_g=0,
        group_zero_ranks={group: (k, k) for group in GROUPS},
    )


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
    rank_f: List[int] = []
    rank_g: List[int] = []
    for i in range(trials):
        rng = _trial_rng(seed, i)
        point = _sample_point(spec.params, rng, prime)
        rank_f.append(rank_over_field(evaluate_matrix(spec.f, point, prime), prime))
        rank_g.append(rank_over_field(evaluate_matrix(spec.g, point, prime), prime))

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


def floystad_check(a: int, b: int, c: int, k: int) -> bool:
    """Existence test for linear monads O(-1)^a -> O^b -> O(1)^c on P^k.

    Here a, b, c are bundle multiplicities (non-negative) and k >= 1 is the
    dimension of the ambient projective space.  The monad exists, with maps
    of maximal rank everywhere, iff

        (b >= 2c + k - 1  and  b >= a + c)   or   b >= a + c + k.

    Both branches are monotone in b: once satisfiable, raising b keeps it so.
    Raises ValueError for a negative multiplicity or k < 1.
    """
    for name, value in (("a", a), ("b", b), ("c", c)):
        checked_int(value, 0, name)
    checked_int(k, 1, "k")
    return (b >= 2 * c + k - 1 and b >= a + c) or b >= a + c + k
