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

The stability criterion needs h^0(Lambda^q T(-p1,-p2,-p3,-p4)) = 0 for
1 <= q <= rank(T) - 1 and all twists with non-negative weight sum.  The scan
walks the finite box |p_i| <= component_bound, 0 <= sum(p_i) <= max_psum
(configurable, including sums below zero for adversarial probing) and records
every upper bound.

The scan is gated by the negative-component lemma: a summand of
Lambda^q (G_n (+) G_m)(tw) has degree tw - j with sum(j) = q, and it has a
section only if tw - j has no negative component, so a row (q, tw) can be
nonzero only if every tw_i >= 0 and sum(tw) >= q.  The generating function is
therefore summed only at twists with no negative component and p-sum <= -1;
a box with min_psum >= 0 is ALL_VANISH without it.  The same fact, testable
summand by summand (`negative_component_violations`), covers the unbounded
directions: every twisted exterior-power summand keeps a strictly negative
degree component whenever sum(p_i) >= 0.  The report's rows are a grid
(`polyring.RowGrid`) of the twist box, max_q and the nonzero values, never a
list of rows; the box is a tuple of int 4-tuples, and a twist becomes a
`MultiDegree` only where one is read: a summed twist, the counterexample,
and the grid's rows.
"""

from __future__ import annotations

from itertools import product
from math import ceil, comb
from typing import Iterator, List, Optional, Tuple

from .chow import BundleInvariants, delta_L, rank_of_T
from .monad import middle_bundle
from .polyring import Frozen, MultiDegree, RowGrid, SpaceParams, Twist

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


class StabilityScanConfig(Frozen):
    """Finite scan box: q in [1, max_q], |p_i| <= component_bound,
    min_psum <= p1+p2+p3+p4 <= max_psum.

    min_psum defaults to 0 (the regime the criterion needs); setting it
    negative deliberately walks outside that regime, where nonzero h^0 values
    exist and the scan must report a counterexample rather than a pass.
    """

    __slots__ = ("params", "max_q", "max_psum", "component_bound", "min_psum")

    def __init__(
        self,
        params: SpaceParams,
        max_q: int,
        max_psum: int = 4,
        component_bound: int = 4,
        min_psum: int = 0,
    ) -> None:
        rank_t = rank_of_T(params)
        if not (1 <= max_q <= rank_t - 1):
            raise ValueError(
                f"max_q must lie in [1, rank(T)-1] = [1, {rank_t - 1}], got {max_q}"
            )
        if max_psum < 0 or component_bound < 0:
            raise ValueError("max_psum and component_bound must be non-negative")
        if min_psum > max_psum:
            raise ValueError("min_psum exceeds max_psum")
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "max_q", max_q)
        object.__setattr__(self, "max_psum", max_psum)
        object.__setattr__(self, "component_bound", component_bound)
        object.__setattr__(self, "min_psum", min_psum)

    def to_json(self) -> dict:
        return {
            "params": self.params.to_json(),
            "max_q": self.max_q,
            "max_psum": self.max_psum,
            "component_bound": self.component_bound,
            "min_psum": self.min_psum,
        }


def default_scan_config(
    params: SpaceParams,
    max_q: Optional[int] = None,
    max_psum: int = 4,
    component_bound: int = 4,
    min_psum: int = 0,
) -> StabilityScanConfig:
    if max_q is None:
        max_q = min(8, rank_of_T(params) - 1)
    return StabilityScanConfig(
        params=params,
        max_q=max_q,
        max_psum=max_psum,
        component_bound=component_bound,
        min_psum=min_psum,
    )


def _twist_box(cfg: StabilityScanConfig) -> List[Twist]:
    """All twists (-p1,-p2,-p3,-p4) in the box as int 4-tuples, in
    lexicographic p-order."""
    cb = cfg.component_bound
    lo, hi = cfg.min_psum, cfg.max_psum
    span = range(-cb, cb + 1)
    # p4 in [-cb, cb] and lo <= p1 + p2 + p3 + p4 <= hi
    return [
        (-p1, -p2, -p3, -p4)
        for p1 in span
        for p2 in span
        for p3 in span
        for p4 in range(max(-cb, lo - p1 - p2 - p3), min(cb, hi - p1 - p2 - p3) + 1)
    ]


def enumerate_twists(cfg: StabilityScanConfig) -> Iterator[MultiDegree]:
    """All twists (-p1,-p2,-p3,-p4) in the box, in lexicographic p-order."""
    return (MultiDegree(*tw) for tw in _twist_box(cfg))


class StabilityReport(Frozen):
    """Every (q, twist, h0) probed, plus the verdict.

    `checked` is the q-major row grid of the box, its twists int 4-tuples;
    it computes its rows rather than storing them.  verdict is "ALL_VANISH"
    iff every recorded upper bound is zero, else "COUNTEREXAMPLE" with the
    first offending (q, twist) in scan order.
    """

    __slots__ = ("config", "checked", "verdict", "counterexample")

    def __init__(
        self,
        config: StabilityScanConfig,
        checked: RowGrid,
        verdict: str,
        counterexample: Optional[Tuple[int, MultiDegree]] = None,
    ) -> None:
        object.__setattr__(self, "config", config)
        object.__setattr__(self, "checked", checked)
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "counterexample", counterexample)

    @property
    def all_vanish(self) -> bool:
        return self.verdict == "ALL_VANISH"

    def to_json(self, include_checked: bool = True) -> dict:
        """The report as a JSON object.  With include_checked, `checked` holds
        the row grid itself, which `canonical_chunks` writes as the list of
        rows; without it, `nonzero` lists the rows with h0 != 0."""
        doc = {
            "config": self.config.to_json(),
            "entries_checked": len(self.checked),
            "verdict": self.verdict,
            "counterexample": (
                None
                if self.counterexample is None
                else {
                    "q": self.counterexample[0],
                    "twist": list(self.counterexample[1].as_tuple()),
                }
            ),
        }
        if include_checked:
            doc["checked"] = self.checked
        else:
            doc["nonzero"] = [
                {"q": q, "twist": list(tw.as_tuple()), "h0": h}
                for q, tw, h in self.checked.nonzero_rows()
            ]
        return doc


def run_stability_scan(cfg: StabilityScanConfig) -> StabilityReport:
    """Probe the whole (q, twist) box, in (q, twist) order.

    By the negative-component lemma a row (q, tw) can be nonzero only if
    every tw_i >= 0 and sum(tw) >= q, so the generating function is summed
    only at twists with no negative component and a positive sum (p-sum
    <= -1); a box with min_psum >= 0 has none and is ALL_VANISH unsummed.
    """
    twists = _twist_box(cfg)
    nonzero = {}
    if cfg.min_psum < 0:
        for i, tw in enumerate(twists):
            if min(tw) >= 0 and sum(tw) >= 1:
                series = _wedge_h0_series(cfg.params, cfg.max_q, MultiDegree(*tw))
                for q in range(1, cfg.max_q + 1):
                    if series[q]:
                        nonzero[q, i] = series[q]

    counterexample = None
    if nonzero:
        q, i = min(nonzero)
        counterexample = (q, MultiDegree(*twists[i]))
    return StabilityReport(
        config=cfg,
        checked=RowGrid(twists, cfg.max_q, nonzero),
        verdict="ALL_VANISH" if counterexample is None else "COUNTEREXAMPLE",
        counterexample=counterexample,
    )


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
