"""Line-bundle cohomology: the closed dimension formula on P^n, its Kunneth
convolution on the fourfold product, sums of line bundles, and exterior
powers."""

from __future__ import annotations

import itertools
import json
import math
import random
from collections import Counter

import pytest

from monadforge.cohomology import (
    LineBundleSum,
    bott_h,
    exterior_power_sum,
    line_bundle,
    sum_cohomology,
)
from monadforge.polyring import MultiDegree, SpaceParams
from oracles import (
    direct_sum,
    dual,
    euler,
    euler_char_pn,
    exterior_by_subsets,
    h0_by_monomial_count,
    h0_of_sum,
    sum_cohomology_by_kunneth,
    twist,
)


# ---------------------------------------------------------------------------
# single-factor dimensions
# ---------------------------------------------------------------------------


def test_h0_matches_monomial_enumeration():
    for n in range(1, 6):
        for d in range(-8, 9):
            assert bott_h(n, d, 0) == h0_by_monomial_count(n, d)


def test_top_cohomology_by_duality_with_monomial_oracle():
    for n in range(1, 6):
        for d in range(-8, 9):
            assert bott_h(n, d, n) == h0_by_monomial_count(n, -d - n - 1)


def test_vanishing_strip_and_middle_degrees():
    for n in range(1, 6):
        for d in range(-n, 0):
            for i in range(n + 1):
                assert bott_h(n, d, i) == 0
        # between 0 and n the only potentially nonzero slots are i = 0 and i = n
        for d in range(-8, 9):
            for i in range(1, n):
                assert bott_h(n, d, i) == 0


def test_serre_duality_random_tuples():
    rng = random.Random(1234)
    seen = 0
    while seen < 500:
        n = rng.randrange(1, 6)
        d = rng.randrange(-8, 9)
        i = rng.randrange(0, n + 1)
        assert bott_h(n, d, i) == bott_h(n, -d - n - 1, n - i)
        seen += 1


def test_euler_characteristic_closed_form():
    for n in range(1, 6):
        for d in range(-8, 9):
            chi = sum((-1) ** i * bott_h(n, d, i) for i in range(n + 1))
            assert chi == euler_char_pn(n, d)


def test_bott_h_argument_validation():
    with pytest.raises(ValueError):
        bott_h(0, 1, 0)
    with pytest.raises(ValueError):
        bott_h(2, 1, -1)
    with pytest.raises(ValueError):
        bott_h(2, 1, 3)


# ---------------------------------------------------------------------------
# Kunneth convolution on X = P^n x P^n x P^m x P^m
# ---------------------------------------------------------------------------


def test_kunneth_frozen_values():
    params = SpaceParams(1, 2, 3)
    # global sections of O(1,1,1,1): 2*2*3*3
    assert sum_cohomology(line_bundle(params, MultiDegree(1, 1, 1, 1))).dims[0] == 36
    # canonical bundle has a single top-degree class
    canonical = sum_cohomology(line_bundle(params, MultiDegree(-2, -2, -3, -3))).dims
    assert canonical == (0, 0, 0, 0, 0, 0, 1)


def test_one_degree_per_summand_equals_the_kunneth_convolution():
    # every line bundle (multiplicity 2) of degrees in [-6, 3]^4 on each
    # space with n, m <= 3: the vanishing strip, the boundary d = 0 and
    # d = -D-1, and both signs in every factor
    degrees = [MultiDegree(*deg) for deg in itertools.product(range(-6, 4), repeat=4)]
    for n, m in itertools.product(range(1, 4), repeat=2):
        params = SpaceParams(n, m, 1)
        for deg in degrees:
            S = line_bundle(params, deg, 2)
            assert sum_cohomology(S) == sum_cohomology_by_kunneth(S), (n, m, deg)


def test_kunneth_euler_is_product_of_factor_eulers():
    rng = random.Random(88)
    for _ in range(150):
        n, m = rng.randrange(1, 4), rng.randrange(1, 4)
        params = SpaceParams(n, m, 1)
        deg = MultiDegree(*(rng.randrange(-6, 7) for _ in range(4)))
        table = sum_cohomology(line_bundle(params, deg))
        expected = (
            euler_char_pn(n, deg.a)
            * euler_char_pn(n, deg.b)
            * euler_char_pn(m, deg.c)
            * euler_char_pn(m, deg.d)
        )
        assert euler(table) == expected


def test_kunneth_serre_duality_on_the_product():
    rng = random.Random(440)
    for _ in range(200):
        n, m = rng.randrange(1, 4), rng.randrange(1, 4)
        params = SpaceParams(n, m, 1)
        deg = MultiDegree(*(rng.randrange(-5, 6) for _ in range(4)))
        dual = MultiDegree(
            -deg.a - n - 1, -deg.b - n - 1, -deg.c - m - 1, -deg.d - m - 1
        )
        h_top = sum_cohomology(line_bundle(params, deg)).dims[params.dim_x]
        assert h_top == sum_cohomology(line_bundle(params, dual)).dims[0]


# ---------------------------------------------------------------------------
# sums of line bundles
# ---------------------------------------------------------------------------


def test_line_bundle_sum_canonicalization():
    params = SpaceParams(1, 1, 1)
    d1, d2 = MultiDegree(0, -1, 0, 0), MultiDegree(-1, 0, 0, 0)
    s1 = LineBundleSum(params, [(d1, 2), (d2, 1), (d1, 1)])
    s2 = LineBundleSum(params, [(d2, 1), (d1, 3)])
    assert s1 == s2
    assert s1.rank == 4
    assert s1.summands == ((d2, 1), (d1, 3))


def test_line_bundle_sum_validation():
    params = SpaceParams(1, 1, 1)
    # zero multiplicities are dropped; the empty sum is legal
    s = LineBundleSum(params, [(MultiDegree(0, 0, 0, 0), 0)])
    assert s.rank == 0 and s.summands == ()
    with pytest.raises(ValueError):
        LineBundleSum(params, [(MultiDegree(0, 0, 0, 0), -2)])


def test_dual_is_an_involution():
    params = SpaceParams(2, 1, 1)
    s = direct_sum(
        line_bundle(params, MultiDegree(1, -2, 0, 3), 2),
        line_bundle(params, MultiDegree(0, 0, -1, 0), 5),
    )
    assert dual(dual(s)) == s
    assert dual(s).rank == s.rank
    degs = dict(dual(s).summands)
    assert degs[MultiDegree(-1, 2, 0, -3)] == 2


def test_twist_shifts_every_summand():
    params = SpaceParams(1, 2, 1)
    s = direct_sum(
        line_bundle(params, MultiDegree(0, -1, 0, 0), 2),
        line_bundle(params, MultiDegree(-1, 0, 0, 0), 3),
    )
    shifted = twist(s, MultiDegree(1, 1, 1, 1))
    assert dict(shifted.summands) == {
        MultiDegree(1, 0, 1, 1): 2,
        MultiDegree(0, 1, 1, 1): 3,
    }
    # twisting by zero is the identity
    assert twist(s, MultiDegree(0, 0, 0, 0)) == s


def test_sum_cohomology_is_additive():
    params = SpaceParams(1, 2, 1)
    a = line_bundle(params, MultiDegree(1, 0, 0, 0), 2)
    b = line_bundle(params, MultiDegree(0, 0, -3, 0), 1)
    combined = sum_cohomology(direct_sum(a, b))
    separate = [sum_cohomology(a), sum_cohomology(b)]
    for t in range(params.dim_x + 1):
        assert combined.dims[t] == sum(tab.dims[t] for tab in separate)
    assert h0_of_sum(direct_sum(a, b)) == h0_of_sum(a) + h0_of_sum(b)


def test_sum_json_round_trip():
    params = SpaceParams(1, 2, 3)
    s = direct_sum(
        line_bundle(params, MultiDegree(0, -1, 0, 0), 4),
        line_bundle(params, MultiDegree(0, 0, 0, -1), 5),
    )
    blob = json.dumps(s.to_json())
    assert LineBundleSum.from_json(json.loads(blob)) == s


# ---------------------------------------------------------------------------
# exterior powers
# ---------------------------------------------------------------------------


def test_exterior_power_rank_law():
    params = SpaceParams(1, 1, 1)
    s = direct_sum(
        line_bundle(params, MultiDegree(0, -1, 0, 0), 3),
        line_bundle(params, MultiDegree(-1, 0, 0, 0), 2),
        line_bundle(params, MultiDegree(0, 0, -1, 0), 3),
    )
    assert s.rank == 8
    for q in range(1, s.rank + 1):
        assert exterior_power_sum(s, q).rank == math.comb(s.rank, q)


def test_exterior_power_matches_subset_oracle():
    rng = random.Random(909)
    params = SpaceParams(1, 1, 1)
    for _ in range(40):
        degree_pool = []
        summands = []
        for _ in range(rng.randrange(1, 4)):
            deg = MultiDegree(*(rng.randrange(-2, 3) for _ in range(4)))
            mult = rng.randrange(1, 4)
            summands.append((deg, mult))
            degree_pool.extend([deg.as_tuple()] * mult)
        s = LineBundleSum(params, summands)
        for q in range(1, min(s.rank, 6) + 1):
            expected = exterior_by_subsets(degree_pool, q)
            actual = Counter(
                {deg.as_tuple(): mult for deg, mult in exterior_power_sum(s, q).summands}
            )
            assert actual == expected


def test_exterior_power_top_is_determinant_line():
    params = SpaceParams(1, 2, 2)
    s = direct_sum(
        line_bundle(params, MultiDegree(0, -1, 0, 0), 3),
        line_bundle(params, MultiDegree(-1, 0, 0, 0), 3),
        line_bundle(params, MultiDegree(0, 0, -1, 0), 4),
        line_bundle(params, MultiDegree(0, 0, 0, -1), 4),
    )
    top = exterior_power_sum(s, s.rank)
    assert top.rank == 1
    ((deg, mult),) = top.summands
    assert mult == 1
    assert deg == MultiDegree(-3, -3, -4, -4)


def test_exterior_power_index_validation():
    params = SpaceParams(1, 1, 1)
    s = line_bundle(params, MultiDegree(0, 0, 0, 0), 3)
    with pytest.raises(ValueError):
        exterior_power_sum(s, 0)
    with pytest.raises(ValueError):
        exterior_power_sum(s, 4)
