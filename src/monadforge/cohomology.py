"""Line-bundle cohomology on X = P^n x P^n x P^m x P^m.

Everything here reduces to two classical facts:

* On a single projective space P^n,

      h^0(O(d)) = C(n+d, n)            for d >= 0,
      h^n(O(d)) = C(-d-1, n)           for d <= -n-1,
      h^i(O(d)) = 0                    otherwise,

  so O(d) has cohomology in at most one degree.

* On a product, the dimensions multiply and the degrees add (Kuenneth):

      h^t(O_X(a,b,c,d)) = sum over p+q+r+s=t of
          h^p(P^n,O(a)) h^q(P^n,O(b)) h^r(P^m,O(c)) h^s(P^m,O(d)).

Direct sums of line bundles are the only sheaves the package ever needs
cohomology of, so a `LineBundleSum` (degrees with multiplicities) plus a
dimension table `CohTable` is the entire data model.  Exterior powers of such
sums are again such sums, with multiplicities given by products of binomial
coefficients; that closure property is what makes the later vanishing scans
finite and exact.
"""

from __future__ import annotations

import json
from math import comb
from typing import Dict, Iterable, List, Tuple

from .polyring import Frozen, MultiDegree, SpaceParams, checked_int, json_int, json_key


def bott_h(n: int, d: int, i: int) -> int:
    """h^i(P^n, O(d)), exactly.  Raises ValueError unless 0 <= i <= n."""
    checked_int(n, 1, "n")
    if type(i) is not int or i < 0 or i > n:
        raise ValueError(f"cohomological degree i={i!r} out of range [0, {n}]")
    if i == 0:
        return comb(n + d, n) if d >= 0 else 0
    if i == n:
        return comb(-d - 1, n) if -d - n - 1 >= 0 else 0
    return 0


def kunneth_h(params: SpaceParams, deg: MultiDegree, t: int) -> int:
    """h^t(X, O_X(deg)) via the product formula.  t must lie in [0, 2n+2m]."""
    top = params.dim_x
    if type(t) is not int or t < 0 or t > top:
        raise ValueError(f"cohomological degree t={t!r} out of range [0, {top}]")
    return sum_cohomology(line_bundle(params, deg)).dims[t]


def _factor_options(
    params: SpaceParams, deg: MultiDegree
) -> List[List[Tuple[int, int]]]:
    """Per-factor list of (degree, dimension) pairs with nonzero dimension."""
    factors = (
        (params.n, deg.a),
        (params.n, deg.b),
        (params.m, deg.c),
        (params.m, deg.d),
    )
    out: List[List[Tuple[int, int]]] = []
    for dim, d in factors:
        pairs = ((i, bott_h(dim, d, i)) for i in (0, dim))
        out.append([(i, h) for i, h in pairs if h])
    return out


class CohTable(Frozen):
    """Dimension table h^0..h^top of some sheaf; length is 2n+2m+1."""

    __slots__ = ("dims",)

    def __init__(self, dims: Tuple[int, ...]) -> None:
        object.__setattr__(self, "dims", dims)


class LineBundleSum(Frozen):
    """A finite direct sum of line bundles O_X(deg)^mult in canonical order.

    Summands are merged and sorted by degree tuple, multiplicities are
    positive; the empty sum (rank 0) is legal.  Immutable and hashable.
    """

    __slots__ = ("params", "summands")

    def __init__(self, params: SpaceParams, summands: Iterable[Tuple[MultiDegree, int]] = ()):
        merged: Dict[Tuple[int, int, int, int], int] = {}
        for deg, mult in summands:
            if checked_int(mult, 0, "multiplicity"):
                key = deg.as_tuple()
                merged[key] = merged.get(key, 0) + mult
        canon = tuple(
            (MultiDegree(*key), merged[key]) for key in sorted(merged.keys())
        )
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "summands", canon)

    @property
    def rank(self) -> int:
        return sum(mult for _, mult in self.summands)

    def __repr__(self) -> str:
        inner = " + ".join(f"O{deg}^{mult}" for deg, mult in self.summands)
        return f"LineBundleSum({inner or '0'})"

    def to_json(self) -> dict:
        return {
            "params": self.params.to_json(),
            "summands": [
                {"degree": list(deg.as_tuple()), "multiplicity": mult}
                for deg, mult in self.summands
            ],
        }

    @staticmethod
    def from_json(data: dict) -> "LineBundleSum":
        params = SpaceParams.from_json(json_key(data, "params", "line-bundle sum"))
        items = json_key(data, "summands", "line-bundle sum")
        if not isinstance(items, list):
            raise ValueError(f"summands must be a JSON list, got {json.dumps(items)}")
        summands = []
        for item in items:
            degree = json_key(item, "degree", "summand")
            if not isinstance(degree, list) or len(degree) != 4:
                raise ValueError(f"degree must be a list of 4 integers, got {degree!r}")
            summands.append(
                (
                    MultiDegree(*[json_int(v, "degree entry") for v in degree]),
                    json_int(json_key(item, "multiplicity", "summand"), "multiplicity"),
                )
            )
        return LineBundleSum(params, summands)


def line_bundle(params: SpaceParams, deg: MultiDegree, mult: int = 1) -> LineBundleSum:
    return LineBundleSum(params, [(deg, mult)])


def direct_sum(*sums: LineBundleSum) -> LineBundleSum:
    if not sums:
        raise ValueError("direct_sum of no summands")
    params = sums[0].params
    if any(s.params != params for s in sums):
        raise ValueError("direct_sum: mismatched space parameters")
    items: List[Tuple[MultiDegree, int]] = []
    for s in sums:
        items.extend(s.summands)
    return LineBundleSum(params, items)


def sum_cohomology(S: LineBundleSum) -> CohTable:
    """Full dimension table of a direct sum, additively over summands."""
    top = S.params.dim_x
    dims = [0] * (top + 1)
    for deg, mult in S.summands:
        options = _factor_options(S.params, deg)
        for i1, v1 in options[0]:
            for i2, v2 in options[1]:
                for i3, v3 in options[2]:
                    for i4, v4 in options[3]:
                        dims[i1 + i2 + i3 + i4] += mult * v1 * v2 * v3 * v4
    return CohTable(tuple(dims))


def exterior_power_sum(S: LineBundleSum, q: int) -> LineBundleSum:
    """Lambda^q of a direct sum of line bundles, again as a LineBundleSum.

    Choosing q_i factors from the i-th summand class contributes a line bundle
    of degree sum(q_i * deg_i) with multiplicity prod(C(mult_i, q_i)); the
    result runs over all compositions q = sum(q_i) with 0 <= q_i <= mult_i.
    Raises ValueError unless 1 <= q <= rank(S).
    """
    if type(q) is not int or q < 1 or q > S.rank:
        raise ValueError(f"exterior power q={q!r} out of range [1, {S.rank}]")
    classes = list(S.summands)
    acc: Dict[Tuple[int, int, int, int], int] = {}

    def descend(idx: int, remaining: int, deg: MultiDegree, mult: int) -> None:
        if remaining == 0:
            key = deg.as_tuple()
            acc[key] = acc.get(key, 0) + mult
            return
        if idx == len(classes):
            return
        cls_deg, cls_mult = classes[idx]
        for take in range(0, min(remaining, cls_mult) + 1):
            descend(
                idx + 1,
                remaining - take,
                deg + cls_deg.scale(take),
                mult * comb(cls_mult, take),
            )

    descend(0, q, MultiDegree(0, 0, 0, 0), 1)
    return LineBundleSum(S.params, [(MultiDegree(*key), m) for key, m in acc.items()])
