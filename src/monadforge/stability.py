"""Hoppe-criterion vanishing scan for the kernel bundle T = ker(g).

T itself is not a direct sum of line bundles, so h^0(Lambda^q T(twist)) is
not directly computable here.  What the scan uses instead is the injection

    0 -> Lambda^q T(twist) -> Lambda^q (G_n (+) G_m)(twist)

coming from T being a subbundle of the middle term: the right-hand side IS a
sum of line bundles, its h^0 is exact and cheap, and it dominates the left.
Whenever the upper bound is 0 the desired vanishing is certified.

Each of the four classes O(-e_i)^(D_i+k) of G_n (+) G_m lowers a single
degree coordinate i (D_i = n, n, m, m), so the bound factors over them into a
generating function:

    h^0(Lambda^q (G_n (+) G_m)(tw))
        = [u^q] prod_i sum_j C(D_i+k, j) C(D_i + tw_i - j, D_i) u^j,

one truncated product per twist giving every q at once.  The exterior power
itself (`cohomology.exterior_power_sum`) is never built here: the tests keep
it as the oracle that the generating function and the negative-component
lemma below must match.

The scan bounds h^0(Lambda^q T(-p1,-p2,-p3,-p4)) for 1 <= q <= max_q on the
box |p_i| <= component_bound, min_psum <= sum(p_i) <= max_psum and reports
every nonzero bound.  It tests T as built, on sum(p_i) >= 0 by default: not
the normalized bundle (`chow.normalization_shift` is never applied) on
delta_L(B) <= 0, as the generalized Hoppe criterion asks, so ALL_VANISH says
that every bound on the box is zero, not that T is stable.

The scan is gated by the negative-component lemma: a summand of
Lambda^q (G_n (+) G_m)(tw) has degree tw - j with sum(j) = q, and it has a
section only if tw - j has no negative component, so a row (q, tw) can be
nonzero only if every tw_i >= 0 and sum(tw) >= q.  The generating function is
therefore summed only over the box's non-negative orthant, the twists with no
negative component and p-sum <= -1, which `_box` enumerates directly; a box
with min_psum >= 0 has none and is ALL_VANISH without it.  The same fact,
which the tests check summand by summand, covers the unbounded directions:
every twisted exterior-power summand keeps a strictly negative degree
component whenever sum(p_i) >= 0.

A report is its config and its nonzero rows; everything else is read from
those two.  Its `checked` rows are a `RowGrid`, a record of the same two
fields that counts the box in closed form (`_box_size`), enumerates it only
to iterate the rows and writes them from tables of texts per p-sum, so no
scan builds or keeps its twist box.
"""

from __future__ import annotations

from itertools import chain, repeat
from math import comb
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .chow import rank_of_T
from .polyring import MultiDegree, Record, SpaceParams


def _wedge_h0_series(params: SpaceParams, max_q: int, tw: MultiDegree) -> List[int]:
    """h^0(Lambda^q(G_n (+) G_m)(tw)) for q = 0..max_q: the generating function
    of the module docstring, truncated after u^max_q."""
    k = params.k
    series = [1] + [0] * max_q
    for D, t in zip((params.n, params.n, params.m, params.m), tw.as_tuple()):
        if t < 0:  # even the j = 0 term has a negative degree
            return [0] * (max_q + 1)
        factor = [comb(D + k, j) * comb(D + t - j, D) for j in range(min(D + k, t, max_q) + 1)]
        product = [0] * (max_q + 1)
        for i, a in enumerate(series):
            if a:
                for j, b in enumerate(factor[: max_q + 1 - i]):
                    product[i + j] += a * b
        series = product
    return series


class StabilityScanConfig(Record):
    """Finite scan box: q in [1, max_q], |p_i| <= component_bound,
    min_psum <= p1+p2+p3+p4 <= max_psum.

    max_q defaults to min(8, rank(T) - 1).  min_psum defaults to 0 (the
    scan's half-space, sum(p_i) >= 0); setting it negative deliberately walks
    outside it, where nonzero h^0 values exist and the scan must
    report a counterexample rather than a pass.  Every bound must be an int
    (not a bool or a float).
    """

    __slots__ = ("params", "max_q", "max_psum", "component_bound", "min_psum")

    def __init__(
        self,
        params: SpaceParams,
        max_q: Optional[int] = None,
        max_psum: int = 4,
        component_bound: int = 4,
        min_psum: int = 0,
    ) -> None:
        rank_t = rank_of_T(params)
        if max_q is None:
            max_q = min(8, rank_t - 1)
        bounds = dict(
            max_q=max_q, max_psum=max_psum, component_bound=component_bound, min_psum=min_psum
        )
        for field, value in bounds.items():
            if type(value) is not int:
                raise ValueError(f"{field} must be an integer, got {value!r}")
        if not (1 <= max_q <= rank_t - 1):
            raise ValueError(
                f"max_q must lie in [1, rank(T)-1] = [1, {rank_t - 1}], got {max_q}"
            )
        if max_psum < 0 or component_bound < 0:
            raise ValueError("max_psum and component_bound must be non-negative")
        if min_psum > max_psum:
            raise ValueError("min_psum exceeds max_psum")
        super().__init__(params, max_q, max_psum, component_bound, min_psum)

    def to_json(self) -> dict:
        return {
            "params": self.params.to_json(),
            "max_q": self.max_q,
            "max_psum": self.max_psum,
            "component_bound": self.component_bound,
            "min_psum": self.min_psum,
        }


Twist = Tuple[int, int, int, int]  # (a, b, c, d), as in MultiDegree
ScanRow = Tuple[int, MultiDegree, int]  # (q, twist, h0)


def _box(cb: int, lo: int, hi: int, top: int) -> Iterator[Twist]:
    """The twists (-p1,-p2,-p3,-p4) with every p_i in [-cb, top] and
    lo <= p1+p2+p3+p4 <= hi, as int 4-tuples in lexicographic p-order.

    Each p_i takes only the values from which the p_j after it can still
    bring the sum into [lo, hi], so an empty range yields nothing at once."""

    def span(done: int, left: int) -> range:
        # p_i given the sum `done` before it and `left` components after it
        return range(max(-cb, lo - done - left * top), min(top, hi - done + left * cb) + 1)

    for p1 in span(0, 3):
        for p2 in span(p1, 2):
            for p3 in span(p1 + p2, 1):
                yield from ((-p1, -p2, -p3, -p4) for p4 in span(p1 + p2 + p3, 0))


def _box_size(cfg: StabilityScanConfig) -> int:
    """The number of twists in cfg's box, in closed form.

    With x_i = p_i + cb in [0, w], w = 2*cb, the box is the x with
    lo + 4cb <= sum(x) <= hi + 4cb.  By inclusion-exclusion over the
    components forced above w, the x with sum(x) <= s number
    sum_j (-1)^j C(4, j) C(s - j(w+1) + 4, 4), a term counting only while
    s - j(w+1) >= 0."""
    cb = cfg.component_bound

    def at_most(s: int) -> int:
        return sum(
            (-1) ** j * comb(4, j) * comb(s - j * (2 * cb + 1) + 4, 4)
            for j in range(5)
            if s - j * (2 * cb + 1) >= 0
        )

    return at_most(cfg.max_psum + 4 * cb) - at_most(cfg.min_psum + 4 * cb - 1)


# A piece of zero rows is one join of at most _ROW_BATCH row texts of one
# (q, p1, p2) group, and the writer copies it twice more: into its UTF-8
# encoding, then into the 256 KiB write buffer that `cli._emit` allocates
# once per document.  At ~134 characters a row, 256 rows are at most 34.2 KB,
# so the piece and its encoding, the two copies that are freed again, stay
# under glibc's 128 KiB mmap and trim thresholds and the heap reuses their
# memory.  Larger pieces are mmaps, unmapped and faulted in again: when a
# piece was a stretch of one q's zero rows, cut only at multiples of this
# batch, the scan-wide `report` took 2.7k minor faults and 29 ms of kernel
# CPU at 256 rows, 10.9k and 45 ms at 2048, 12.9k and 50 ms at 8192 (medians
# of 16 interleaved runs, CPython 3.11, 2 vCPUs).  The scan-wide groups hold
# at most 79 rows (10.6 KB), so there the batch never cuts inside a group.
# The buffer, not larger pieces, sets how few `write` calls a document takes.
_ROW_BATCH = 256


class RowGrid(Record):
    """The rows (q, twist, h0) of a scan, q-major: for each q in 1..max_q,
    one row per twist of the config's box, in box order, with h0 zero except
    at the `nonzero` rows (q, MultiDegree, h0), which are in row order.

    A record of those two fields, like the report it views; the rows are
    never stored: `len` counts the box in closed form, iteration enumerates
    it (one MultiDegree per twist per pass), and `json_chunks` writes it
    from tables of texts per p-sum, enumerating no twist.  `list(grid)` is
    the list of its rows.
    """

    __slots__ = ("config", "nonzero")

    def __init__(self, config: StabilityScanConfig, nonzero: Iterable[ScanRow]) -> None:
        super().__init__(config, tuple(nonzero))

    def __len__(self) -> int:
        return self.config.max_q * _box_size(self.config)

    def __iter__(self) -> Iterator[ScanRow]:
        cfg = self.config
        cb = cfg.component_bound
        box = list(_box(cb, cfg.min_psum, cfg.max_psum, cb))
        # q -> the h0 of each twist of the box, for a q with a nonzero row
        h0s: Dict[int, List[int]] = {}
        if self.nonzero:
            wanted = {tw.as_tuple() for _, tw, _ in self.nonzero}
            index = {tw: j for j, tw in enumerate(box) if tw in wanted}
            for q, tw, h0 in self.nonzero:
                if q not in h0s:
                    h0s[q] = [0] * len(box)
                h0s[q][index[tw.as_tuple()]] = h0
        degrees = [MultiDegree(*tw) for tw in box]
        for q in range(1, cfg.max_q + 1):
            yield from zip(repeat(q), degrees, h0s.get(q, repeat(0)))

    def json_chunks(self, indent: int) -> Iterator[str]:
        """The list [{"h0": h0, "q": q, "twist": [a, b, c, d]}, ...] of the
        rows, closing bracket at column `indent`, written from texts
        rendered once a write, none of them per twist.

        A row's text is q's head, the texts of p1 and p2, and one text for
        the pair (p3, p4); the pairs that can follow a (p1, p2) depend only
        on s = p1 + p2.  Each pair text is rendered once, and each s gets a
        table of the texts of the pairs with s + p3 + p4 in [min_psum,
        max_psum], in p-order, after an empty text.  The rows of one q and
        one (p1, p2) are a stretch of its table, each text put after the same
        P = ",\n" + q's head + the texts of p1 and p2: a piece is one join
        of at most _ROW_BATCH of them with P, its first text replaced by the
        empty one so that P comes first too, and no long text is copied
        again before the writer takes it.  A nonzero row is one piece, found
        by its offset in its table."""
        i, f, e = (" " * (indent + step) for step in (2, 4, 6))
        cfg = self.config
        cb = cfg.component_bound
        w = 2 * cb + 1
        values = range(cb, -cb - 1, -1)  # -p for p = -cb..cb: index x = p + cb
        first = [f'{f}"twist": [\n{e}{v},\n' for v in values]
        middle = [f"{e}{v},\n" for v in values]
        pairs = [[m + f"{e}{v}\n{f}]\n{i}}}" for v in values] for m in middle]
        # with x_i = p_i + cb, a row's x-sum lies in [lo, hi]; ends[x1 + x2] is
        # the table of (p1, p2), and (x3, x4) is row origin[x1 + x2][x3] + x4
        # of it, at index 1 + that offset
        lo, hi = cfg.min_psum + 4 * cb, cfg.max_psum + 4 * cb
        ends: List[List[str]] = []
        origin: List[List[int]] = []
        for u in range(2 * w - 1):
            texts, starts = [""], []
            for x3, row in enumerate(pairs):
                start = max(0, lo - u - x3)
                starts.append(len(texts) - 1 - start)
                texts += row[start : max(0, hi + 1 - u - x3)]
            ends.append(texts)
            origin.append(starts)
        # q -> {x1 * w + x2: [(offset, h0), ...] of the nonzero rows, then the
        # number of rows, with no h0}
        marks: Dict[int, Dict[int, List[Tuple[int, Optional[int]]]]] = {}
        for q, tw, h0 in self.nonzero:
            x1, x2, x3, x4 = (cb - v for v in tw.as_tuple())
            end = (len(ends[x1 + x2]) - 1, None)
            stops = marks.setdefault(q, {}).setdefault(x1 * w + x2, [end])
            stops.insert(-1, (origin[x1 + x2][x3] + x4, h0))
        groups = [
            (x1 * w + x2, first[x1] + middle[x2], ends[x1 + x2], [(len(ends[x1 + x2]) - 1, None)])
            for x1 in range(w)
            for x2 in range(w)
            if len(ends[x1 + x2]) > 1
        ]

        def pieces() -> Iterator[str]:
            """The rows in pieces, each starting with the separator ",\n"."""
            for q in range(1, cfg.max_q + 1):
                q_head = f',\n{i}{{\n{f}"h0": 0,\n{f}"q": {q},\n'
                by_group = marks.get(q, {})
                for key, lead, texts, end in groups:
                    between = q_head + lead
                    j = 0
                    for mark, h0 in by_group.get(key, end):
                        while j < mark:
                            cut = j - j % _ROW_BATCH + _ROW_BATCH
                            if cut > mark:
                                cut = mark
                            if j or cut < len(texts) - 1:
                                run = texts[j : cut + 1]
                                run[0] = ""  # the row before the stretch
                            else:
                                run = texts
                            yield between.join(run)
                            j = cut
                        if h0 is not None:
                            yield f',\n{i}{{\n{f}"h0": {h0},\n{f}"q": {q},\n{lead}{texts[mark + 1]}'
                            j = mark + 1

        rows = pieces()
        opening = next(rows, None)
        if opening is None:
            yield "[]"
            return
        yield "[" + opening[1:]
        yield from rows
        yield "\n" + " " * indent + "]"


class StabilityReport(Record):
    """A scan's config and its nonzero rows (q, twist, h0), in row order.

    Every other part of the report is read from these two: `checked` is the
    q-major row grid of the box, `verdict` is "ALL_VANISH" iff no row is
    nonzero, else "COUNTEREXAMPLE", with the first nonzero row's (q, twist)
    as `counterexample`.
    """

    __slots__ = ("config", "nonzero")

    def __init__(self, config: StabilityScanConfig, nonzero: Iterable[ScanRow]) -> None:
        super().__init__(config, tuple(nonzero))

    @property
    def checked(self) -> RowGrid:
        return RowGrid(self.config, self.nonzero)

    @property
    def all_vanish(self) -> bool:
        return not self.nonzero

    @property
    def verdict(self) -> str:
        return "ALL_VANISH" if self.all_vanish else "COUNTEREXAMPLE"

    @property
    def counterexample(self) -> Optional[Tuple[int, MultiDegree]]:
        return self.nonzero[0][:2] if self.nonzero else None

    def to_json(self, include_checked: bool = True) -> dict:
        """The report as a JSON object.  With include_checked, `checked` holds
        the row grid itself, a fill standing as a member's value, which
        `canonical_chunks` writes as the list of rows while it writes this
        dict member by member; without it, `nonzero` lists the rows with
        h0 != 0.
        `entries_checked` is the grid's closed-form count, not `len`, which
        cannot return more than sys.maxsize."""
        counterexample = self.counterexample
        doc = {
            "config": self.config.to_json(),
            "entries_checked": self.config.max_q * _box_size(self.config),
            "verdict": self.verdict,
            "counterexample": (
                None
                if counterexample is None
                else {"q": counterexample[0], "twist": list(counterexample[1].as_tuple())}
            ),
        }
        if include_checked:
            doc["checked"] = self.checked
        else:
            doc["nonzero"] = [
                {"q": q, "twist": list(tw.as_tuple()), "h0": h} for q, tw, h in self.nonzero
            ]
        return doc


def run_stability_scan(cfg: StabilityScanConfig) -> StabilityReport:
    """The nonzero rows of the (q, twist) box, in (q, twist) order.

    By the negative-component lemma a row (q, tw) can be nonzero only if
    every tw_i >= 0 and sum(tw) >= q, so the generating function is summed
    only over the box's non-negative orthant with a positive sum (every
    p_i <= 0, p-sum <= -1); a box with min_psum >= 0 has no such twist and is
    ALL_VANISH unsummed.  The orthant comes in box order, so the rows of
    each q do too.
    """
    rows: List[List[ScanRow]] = [[] for _ in range(cfg.max_q)]
    for tw in _box(cfg.component_bound, cfg.min_psum, min(cfg.max_psum, -1), 0):
        degree = MultiDegree(*tw)
        series = _wedge_h0_series(cfg.params, cfg.max_q, degree)
        for q in range(1, cfg.max_q + 1):
            if series[q]:
                rows[q - 1].append((q, degree, series[q]))
    return StabilityReport(cfg, chain.from_iterable(rows))
