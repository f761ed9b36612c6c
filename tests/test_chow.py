"""Closed-form intersection numbers c1 . L^(2n+2m-1), slopes, and the
invariants of the kernel bundle T."""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from monadforge.chow import (
    BundleInvariants,
    c1_of_T,
    degree_L,
    degree_simplification_check,
    invariants_of_T,
    normalization_shift,
    rank_of_T,
    top_multinomial,
)
from monadforge.cohomology import line_bundle
from monadforge.monad import middle_bundle
from monadforge.polyring import MultiDegree, SpaceParams
from oracles import (
    c1_of_sum,
    degree_by_expansion,
    degree_by_factorials,
    difference,
    direct_sum,
    top_multinomial_by_factorials,
)

PARAMS_EX = SpaceParams(1, 2, 3)

# invariants_of_T(SpaceParams(30, 30, 1)).degree_L, computed once by raising
# the dense truncated intersection ring to the power 2n+2m-1 = 119; this is
# the size the invariants benchmark runs at
DEGREE_T_30_30_1 = -43241776309614802153554562160139450708260703740680921208985404114337792


# ---------------------------------------------------------------------------
# intersection numbers
# ---------------------------------------------------------------------------


def test_top_self_intersection_of_polarization():
    # L^(2n+2m) = multinomial(2n+2m; n,n,m,m) on P^n x P^n x P^m x P^m
    for n, m in [(1, 1), (1, 2), (2, 2), (3, 1)]:
        expected = math.factorial(2 * n + 2 * m) // (
            math.factorial(n) ** 2 * math.factorial(m) ** 2
        )
        assert top_multinomial(SpaceParams(n, m, 1)) == expected


def test_top_coefficient_of_example_space():
    assert top_multinomial(PARAMS_EX) == 180


def test_degree_matches_dense_expansion_oracle():
    rng = random.Random(2024)
    for _ in range(40):
        n, m = rng.randrange(1, 3), rng.randrange(1, 3)
        params = SpaceParams(n, m, 1)
        c1 = MultiDegree(*(rng.randrange(-9, 10) for _ in range(4)))
        assert degree_L(c1, params) == degree_by_expansion(c1.as_tuple(), n, m)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 4),
    m=st.integers(1, 4),
    c1=st.tuples(*(st.integers(-20, 20) for _ in range(4))),
)
def test_closed_form_degree_matches_dense_expansion(n, m, c1):
    assert degree_L(MultiDegree(*c1), SpaceParams(n, m, 1)) == degree_by_expansion(c1, n, m)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 80),
    m=st.integers(1, 80),
    c1=st.tuples(*(st.integers(-10**6, 10**6) for _ in range(4))),
)
def test_binomial_forms_match_the_factorial_quotients(n, m, c1):
    params = SpaceParams(n, m, 1)
    assert top_multinomial(params) == top_multinomial_by_factorials(params)
    assert degree_L(MultiDegree(*c1), params) == degree_by_factorials(MultiDegree(*c1), params)


def test_binomial_forms_match_the_factorial_quotients_on_a_grid():
    # by linearity the four generators settle every c1; c1(T) at k = 1
    # divides the whole sum by 2n+2m at once
    generators = [MultiDegree(*(int(i == j) for j in range(4))) for i in range(4)]
    for n, m in itertools.product(range(1, 41), repeat=2):
        params = SpaceParams(n, m, 1)
        assert top_multinomial(params) == top_multinomial_by_factorials(params), (n, m)
        for c1 in [*generators, c1_of_T(params)]:
            assert degree_L(c1, params) == degree_by_factorials(c1, params), (n, m, c1)


def test_delta_is_additive_and_matches_degree():
    # delta_L of a line bundle O_X(B) is degree_L(B), linear in B
    rng = random.Random(31415)
    params = SpaceParams(1, 2, 1)
    for _ in range(100):
        b1 = MultiDegree(*(rng.randrange(-4, 5) for _ in range(4)))
        b2 = MultiDegree(*(rng.randrange(-4, 5) for _ in range(4)))
        assert degree_L(b1 + b2, params) == degree_L(b1, params) + degree_L(b2, params)
        assert degree_L(b1, params) == degree_by_expansion(b1.as_tuple(), 1, 2)


def test_delta_frozen_value_uniform_negative_twist():
    # delta_L(-1,-1,-1,-1) on P^1 x P^1 x P^2 x P^2: each of the four weights
    # is a multinomial coefficient of L^5; their (negated) sum is -180, which
    # the dense-expansion oracle confirms
    value = degree_L(MultiDegree(-1, -1, -1, -1), PARAMS_EX)
    assert value == degree_by_expansion((-1, -1, -1, -1), 1, 2)
    assert value == -180


def test_c1_of_sum_adds_degrees():
    params = SpaceParams(1, 1, 1)
    s = direct_sum(
        line_bundle(params, MultiDegree(1, 0, -1, 2), 3),
        line_bundle(params, MultiDegree(0, 1, 0, 0), 2),
    )
    assert c1_of_sum(s) == MultiDegree(3, 2, -3, 6)


# ---------------------------------------------------------------------------
# invariants of T
# ---------------------------------------------------------------------------


def test_c1_and_rank_formulas_on_grid():
    for n in range(1, 5):
        for m in range(1, 5):
            for k in range(1, 5):
                params = SpaceParams(n, m, k)
                assert c1_of_T(params) == MultiDegree(
                    -n - 2 * k, -n - 2 * k, -m - 2 * k, -m - 2 * k
                )
                assert rank_of_T(params) == 2 * n + 2 * m + 3 * k
                # consistency with the bundle assignments: c1(T) =
                # c1(middle) - c1(target) since T is the kernel of g
                expected = difference(c1_of_sum(middle_bundle(params)), MultiDegree(k, k, k, k))
                assert c1_of_T(params) == expected


def test_invariants_frozen_example():
    inv = invariants_of_T(PARAMS_EX)
    assert inv.rank == 15
    assert inv.c1 == MultiDegree(-7, -7, -8, -8)
    assert inv.degree_L == -1380
    assert inv.to_json()["slope"] == "-92"
    assert inv.degree_L == degree_by_expansion((-7, -7, -8, -8), 1, 2)


def test_invariants_frozen_at_benchmark_size():
    inv = invariants_of_T(SpaceParams(30, 30, 1))
    assert inv.c1 == MultiDegree(-32, -32, -32, -32)
    assert inv.degree_L == DEGREE_T_30_30_1


def test_degree_is_negative_on_grid():
    for n in range(1, 4):
        for m in range(1, 4):
            for k in range(1, 4):
                inv = invariants_of_T(SpaceParams(n, m, k))
                assert inv.degree_L < 0
                assert inv.to_json()["slope"] == str(Fraction(inv.degree_L, inv.rank))


def test_invariants_json_shape():
    inv = invariants_of_T(PARAMS_EX)
    doc = json.loads(json.dumps(inv.to_json()))
    assert doc == {
        "rank": 15,
        "c1": [-7, -7, -8, -8],
        "degree": -1380,
        "slope": "-92",
    }


def test_slope_is_exact_rational():
    inv = invariants_of_T(SpaceParams(2, 2, 1))
    slope = Fraction(inv.to_json()["slope"])
    assert slope.denominator > 1
    assert slope * inv.rank == inv.degree_L


def test_slope_text_is_the_fraction_text():
    # the document's slope is written from integers; str(Fraction) is the oracle
    for num in range(-300, 301):
        for den in range(1, 61):
            inv = BundleInvariants(rank=den, c1=MultiDegree(0, 0, 0, 0), degree_L=num)
            assert inv.to_json()["slope"] == str(Fraction(num, den)), (num, den)


def test_normalization_shift_is_the_ceiling_of_the_fraction():
    for n, m, k in itertools.product(range(1, 9), repeat=3):
        params = SpaceParams(n, m, k)
        inv = invariants_of_T(params)
        d = degree_L(MultiDegree(1, 0, 0, 0), params)
        slope = Fraction(inv.degree_L, inv.rank)
        assert normalization_shift(inv, params) == math.ceil(slope / d), (n, m, k)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 2000), m=st.integers(1, 2000), k=st.integers(1, 50))
def test_the_shift_and_the_shortcut_equal_their_factorial_forms_at_large_n(n, m, k):
    # the shift reads w(c1) / (rank * n) and the shortcut reads top back from
    # the degree; neither computes L^(2n+2m), and both equal the factorial forms
    params = SpaceParams(n, m, k)
    inv = invariants_of_T(params)
    deg = degree_by_factorials(c1_of_T(params), params)
    d = degree_by_factorials(MultiDegree(1, 0, 0, 0), params)
    assert normalization_shift(inv, params) == math.ceil(Fraction(deg, inv.rank) / d)
    check = degree_simplification_check(inv, params)
    assert check["exact_degree"] == deg
    assert check["uniform_weight_shortcut"] == -(n + m + 4 * k) * top_multinomial_by_factorials(params)


# ---------------------------------------------------------------------------
# closed-form shortcut comparison
# ---------------------------------------------------------------------------


def test_degree_check_reports_exact_value_and_sign():
    # the -(n+m+4k) * multinomial shortcut uses half the component sum of
    # c1(T) as a uniform weight, which the pairing against L^(2n+2m-1) never
    # realizes; the exact value wins, and both share the negative sign
    for n, m, k in [(1, 1, 1), (2, 2, 3), (1, 2, 3), (2, 1, 1), (1, 3, 2)]:
        params = SpaceParams(n, m, k)
        check = degree_simplification_check(invariants_of_T(params), params)
        assert check["agree"] is False
        assert check["exact_degree"] == invariants_of_T(params).degree_L
        assert check["exact_degree"] < 0 and check["uniform_weight_shortcut"] < 0


def test_the_shortcut_never_agrees_and_doubles_the_degree_when_n_equals_m():
    # shortcut - exact = -2 * top * (nm + k(n+m)) / (n+m), never 0
    for n, m, k in itertools.product(range(1, 13), repeat=3):
        params = SpaceParams(n, m, k)
        check = degree_simplification_check(invariants_of_T(params), params)
        exact, shortcut = check["exact_degree"], check["uniform_weight_shortcut"]
        assert check["agree"] is False, (n, m, k)
        if n == m:
            assert shortcut == 2 * exact, (n, k)


def test_uniform_weight_closed_form_when_n_equals_m():
    # with n = m all four generators do pair equally, and the true closed
    # form is -(n+2k) times the top self-intersection of L
    for n, k in [(1, 1), (2, 3), (3, 2)]:
        params = SpaceParams(n, n, k)
        inv = invariants_of_T(params)
        assert inv.degree_L == -(n + 2 * k) * top_multinomial(params)


def test_degree_additivity_kernel_to_cohomology_bundle():
    # first row of the display: 0 -> O(-1,-1,-1,-1)^k -> T -> E -> 0, so
    # c1(E) = c1(T) + (k,k,k,k) and degrees add exactly
    for n, m, k in [(1, 1, 1), (1, 2, 3), (3, 2, 2)]:
        params = SpaceParams(n, m, k)
        c1_T = c1_of_T(params)
        c1_E = c1_T + MultiDegree(k, k, k, k)
        assert degree_L(c1_E, params) == degree_L(c1_T, params) + k * degree_L(
            MultiDegree(1, 1, 1, 1), params
        )


def test_degree_check_fields():
    check = degree_simplification_check(invariants_of_T(PARAMS_EX), PARAMS_EX)
    assert set(check) == {"exact_degree", "uniform_weight_shortcut", "agree", "note"}
    assert check["exact_degree"] == -1380
    assert check["uniform_weight_shortcut"] == -(1 + 2 + 12) * 180
    assert isinstance(check["note"], str) and check["note"]
