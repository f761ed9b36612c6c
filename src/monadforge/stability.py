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
it as the oracle that the generating function and
`negative_component_violations` must match.

The scan bounds h^0(Lambda^q T(-p1,-p2,-p3,-p4)) for 1 <= q <= max_q on the
box |p_i| <= component_bound, min_psum <= sum(p_i) <= max_psum and reports
every nonzero bound.  It tests T as built, on sum(p_i) >= 0 by default: not
the normalized bundle (`normalization_shift` is never applied) on
delta_L(B) <= 0, as the generalized Hoppe criterion asks, so ALL_VANISH says
that every bound on the box is zero, not that T is stable.

The scan is gated by the negative-component lemma: a summand of
Lambda^q (G_n (+) G_m)(tw) has degree tw - j with sum(j) = q, and it has a
section only if tw - j has no negative component, so a row (q, tw) can be
nonzero only if every tw_i >= 0 and sum(tw) >= q.  The generating function is
therefore summed only over the box's non-negative orthant, the twists with no
negative component and p-sum <= -1, which `_box` enumerates directly; a box
with min_psum >= 0 has none and is ALL_VANISH without it.  The same fact,
testable summand by summand (`negative_component_violations`), covers the
unbounded directions: every twisted exterior-power summand keeps a strictly
negative degree component whenever sum(p_i) >= 0.

A report is its config and its nonzero rows; everything else is read from
those two.  Its `checked` rows are a `RowGrid`, a record of the same two
fields that counts the box in closed form (`_box_size`) and enumerates it
only to iterate or write the rows, so no scan builds or keeps its twist box.
"""

from __future__ import annotations

from itertools import chain, product, repeat
from math import ceil, comb
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .chow import BundleInvariants, delta_L, rank_of_T
from .monad import middle_bundle
from .polyring import MultiDegree, Record, SpaceParams


def normalization_shift(inv: BundleInvariants, params: SpaceParams) -> int:
    """The unique integer k_E = ceil(mu_L / d), d = delta_L(1,0,0,0).

    Twisting by -k_E in the first slot renormalizes the slope into (-d, 0];
    exact Fraction arithmetic, no floats.
    """
    d = delta_L(MultiDegree(1, 0, 0, 0), params)
    return ceil(inv.slope_L / d)


def _check_wedge_index(params: SpaceParams, q: object) -> None:
    rank = middle_bundle(params).rank
    if type(q) is not int or q < 1 or q > rank:
        raise ValueError(f"exterior power q={q!r} out of range [1, {rank}]")


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


def _config_box(cfg: StabilityScanConfig) -> Iterator[Twist]:
    cb = cfg.component_bound
    return _box(cb, cfg.min_psum, cfg.max_psum, cb)


def enumerate_twists(cfg: StabilityScanConfig) -> Iterator[MultiDegree]:
    """All twists (-p1,-p2,-p3,-p4) in the box, in lexicographic p-order."""
    return (MultiDegree(*tw) for tw in _config_box(cfg))


# Each piece of rows is briefly held three times over: the join of its
# parts, the piece itself and its UTF-8 encoding in the writer.  At ~130
# characters a row, 256 rows (~34 KB a copy, ~100 KB for all three) keep
# those copies under glibc's 128 KiB mmap and trim thresholds, so the heap
# reuses the freed memory; 2048 rows (~270 KB) made every piece an mmap that
# was unmapped and faulted in again.
_ROW_BATCH = 256


class RowGrid(Record):
    """The rows (q, twist, h0) of a scan, q-major: for each q in 1..max_q,
    one row per twist of the config's box, in box order, with h0 zero except
    at the `nonzero` rows (q, MultiDegree, h0), which are in row order.

    A record of those two fields, like the report it views; the rows are
    never stored: `len` counts the box in closed form, and iteration and
    `json_chunks` enumerate it (as int 4-tuples; iteration builds one
    MultiDegree per twist per pass, the writer none).  `list(grid)` is the
    list of its rows.
    """

    __slots__ = ("config", "nonzero")

    def __init__(self, config: StabilityScanConfig, nonzero: Iterable[ScanRow]) -> None:
        super().__init__(config, tuple(nonzero))

    def __len__(self) -> int:
        return self.config.max_q * _box_size(self.config)

    def _marks(self) -> Dict[int, List[Tuple[int, int]]]:
        """q -> [(twist index in the box, h0), ...] of the nonzero rows, in
        box order; the box is enumerated, and never held, only if one exists."""
        marks: Dict[int, List[Tuple[int, int]]] = {}
        if self.nonzero:
            wanted = {tw.as_tuple() for _, tw, _ in self.nonzero}
            index = {tw: j for j, tw in enumerate(_config_box(self.config)) if tw in wanted}
            for q, tw, h0 in self.nonzero:
                marks.setdefault(q, []).append((index[tw.as_tuple()], h0))
        return marks

    def __iter__(self) -> Iterator[ScanRow]:
        degrees = [MultiDegree(*tw) for tw in _config_box(self.config)]
        marks = self._marks()
        for q in range(1, self.config.max_q + 1):
            h0s = [0] * len(degrees)
            for index, h0 in marks.get(q, ()):
                h0s[index] = h0
            yield from zip(repeat(q), degrees, h0s)

    def json_chunks(self, indent: int) -> Iterator[str]:
        """The list [{"h0": h0, "q": q, "twist": [a, b, c, d]}, ...] of the
        rows, closing bracket at column `indent`, at most _ROW_BATCH rows per
        piece.  Each twist's `"twist": [...]` text is rendered once and reused
        for every q; a run of zero rows of one q is one join of those texts
        behind the q's shared head."""
        i, f, e = (" " * (indent + step) for step in (2, 4, 6))
        tails = [
            f'{f}"twist": [\n{e}{a},\n{e}{b},\n{e}{c},\n{e}{d}\n{f}]\n{i}}}'
            for a, b, c, d in _config_box(self.config)
        ]
        if not tails:
            yield "[]"
            return
        marks = self._marks()
        opening = "[\n"
        for q in range(1, self.config.max_q + 1):
            head = f'{i}{{\n{f}"h0": 0,\n{f}"q": {q},\n'
            between = ",\n" + head
            nonzero = iter(marks.get(q, ()))
            mark, h0 = next(nonzero, (len(tails), 0))
            for start in range(0, len(tails), _ROW_BATCH):
                j, stop = start, min(start + _ROW_BATCH, len(tails))
                parts = []
                while j < stop:
                    if j == mark:
                        parts.append(f'{i}{{\n{f}"h0": {h0},\n{f}"q": {q},\n' + tails[j])
                        j += 1
                        mark, h0 = next(nonzero, (len(tails), 0))
                    else:
                        end = min(mark, stop)
                        parts.append(head + between.join(tails[j:end]))
                        j = end
                yield opening + ",\n".join(parts)
                opening = ",\n"
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
        the row grid itself, which `canonical_chunks` writes as the list of
        rows; without it, `nonzero` lists the rows with h0 != 0.
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


def negative_component_violations(
    params: SpaceParams, q: int, tw: MultiDegree
) -> List[MultiDegree]:
    """Twisted Lambda^q(G_n (+) G_m) summands with NO strictly negative
    component, in ascending degree order.

    A summand of Lambda^q(G_n (+) G_m) has degree -j with sum(j) = q and
    0 <= j_i <= D_i + k, so tw - j has no negative component exactly when
    also j_i <= tw_i; these j are enumerated directly.  For every twist with
    p-sum >= 0 the list is empty (sum(tw - j) = -sum(p) - q < 0), which is the
    structural reason the vanishing scan passes; returning witnesses (rather
    than a bare bool) makes failures inspectable.  Raises ValueError unless
    1 <= q <= rank(G_n (+) G_m).
    """
    _check_wedge_index(params, q)
    dims = (params.n, params.n, params.m, params.m)
    caps = [min(D + params.k, t) for D, t in zip(dims, tw.as_tuple())]
    # descending j_i is ascending tw_i - j_i: the tuples come out sorted
    return [
        tw - MultiDegree(*j)
        for j in product(*(range(c, -1, -1) for c in caps))
        if sum(j) == q
    ]
