"""Line-bundle cohomology on X = P^n x P^n x P^m x P^m.

Everything here reduces to two classical facts:

* On a single projective space P^n,

      h^0(O(d)) = C(n+d, n)            for d >= 0,
      h^n(O(d)) = C(-d-1, n)           for d <= -n-1,
      h^i(O(d)) = 0                    otherwise,

  so O(d) has cohomology in at most one degree: 0 if d >= 0, n if d < 0.

* On a product, the dimensions multiply and the degrees add (Kuenneth).
  With one degree per factor the sum over p+q+r+s=t has at most one term:

      h^t(O_X(a,b,c,d)) = h^p(P^n,O(a)) h^q(P^n,O(b)) h^r(P^m,O(c)) h^s(P^m,O(d))

  at t = p+q+r+s, each of p, q, r, s the one degree of its factor, and
  h^t = 0 at every other t.

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
from typing import Dict, Iterable, Tuple

from .polyring import MultiDegree, Record, SpaceParams, checked_int, json_int, json_key


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


class CohTable(Record):
    """Dimension table h^0..h^top of some sheaf; length is 2n+2m+1."""

    __slots__ = ("dims",)


class LineBundleSum(Record):
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
        super().__init__(params, canon)

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
        """The sum a JSON object states.  Every multiplicity must be a
        positive integer, as the published schemas say; the constructor,
        which drops a zero multiplicity, is not this strict."""
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
                    checked_int(json_key(item, "multiplicity", "summand"), 1, "multiplicity"),
                )
            )
        return LineBundleSum(params, summands)


def line_bundle(params: SpaceParams, deg: MultiDegree, mult: int = 1) -> LineBundleSum:
    return LineBundleSum(params, [(deg, mult)])


def sum_cohomology(S: LineBundleSum) -> CohTable:
    """Full dimension table of a direct sum, additively over summands.

    O(d) on P^D has cohomology in degree 0 alone if d >= 0 and in degree D
    alone if d < 0, so each summand O(a,b,c,d)^mult adds mult times the
    product of its four factors' dimensions in the one degree that is the
    sum of theirs."""
    params = S.params
    dims = [0] * (params.dim_x + 1)
    for deg, mult in S.summands:
        t, h = 0, mult
        for D, d in zip((params.n, params.n, params.m, params.m), deg.as_tuple()):
            i = 0 if d >= 0 else D
            t += i
            h *= bott_h(D, d, i)
        dims[t] += h
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
