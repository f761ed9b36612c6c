"""What the certificates are about: the grading of the monad's maps, the
normalization the scan leaves out, and the half-space it walks.  These pin
the facts README's "What is certified" cites; none of them changes a
verdict, and each holds of the code as it stands."""

from __future__ import annotations

import itertools

import pytest

from monadforge.chow import degree_L, invariants_of_T, normalization_shift
from monadforge.monad import assemble_monad, middle_bundle, source_bundle, target_bundle
from monadforge.polyring import MultiDegree, SpaceParams
from monadforge.stability import (
    StabilityScanConfig,
    _wedge_h0_series,
    run_stability_scan,
)
from oracles import block_products, difference, floystad_check

GRID = [SpaceParams(*p) for p in itertools.product(range(1, 4), repeat=3)]


def multidegrees(product):
    """The multidegrees of the monomials of a table of quadratic forms."""
    found = set()
    for row in product:
        for form in row:
            for u, v in form:
                degree = [0] * 4
                degree[u[0]] += 1
                degree[v[0]] += 1
                found.add(tuple(degree))
    return found


@pytest.mark.parametrize("params", GRID, ids=lambda p: f"{p.n}{p.m}{p.k}")
def test_block_products_are_not_graded_by_the_labels(params):
    # f_b g_b is bihomogeneous of multidegree (1,1,0,0) for blocks 1-2 and
    # (0,0,1,1) for blocks 3-4; a Z^4-graded O(S)^k -> (+) M_b -> O(T)^k
    # would make every block's product T - S = (2,2,2,2)
    products = block_products(assemble_monad(params))
    assert [multidegrees(p) for p in products] == [{(1, 1, 0, 0)}] * 2 + [{(0, 0, 1, 1)}] * 2
    # every entry is linear in one group, of degree a unit vector, and no
    # label difference M - S (for f) or T - M (for g) is one
    units = {tuple(int(i == g) for i in range(4)) for g in range(4)}
    (S, _), (T, _) = source_bundle(params).summands[0], target_bundle(params).summands[0]
    differences = {
        d.as_tuple() for M, _ in middle_bundle(params).summands for d in (difference(M, S), difference(T, M))
    }
    assert differences and units.isdisjoint(differences)


def test_under_total_degree_the_monad_is_a_floystad_monad():
    # O(-1)^k -> O^W -> O(1)^k on P^{2n+2m+3}, W = 2n+2m+4k: the existence
    # condition holds for every n, m, k <= 29
    for n, m, k in itertools.product(range(1, 30), repeat=3):
        assert floystad_check(k, 2 * n + 2 * m + 4 * k, k, 2 * n + 2 * m + 3), (n, m, k)


@pytest.mark.parametrize(
    "shape, shift, bound", [((1, 1, 1), -1, 2), ((1, 2, 1), -2, 4), ((3, 3, 3), -1, 6)]
)
def test_the_scan_bound_at_the_normalized_twist_is_nonzero(shape, shift, bound):
    # the scan tests T itself, never T twisted by -k_T: its own q = 1 bound
    # at the normalized twist (-k_T, 0, 0, 0) is nonzero, while its default
    # box vanishes
    params = SpaceParams(*shape)
    k_T = normalization_shift(invariants_of_T(params), params)
    assert k_T == shift
    assert _wedge_h0_series(params, 1, MultiDegree(-k_T, 0, 0, 0))[1] == bound
    assert run_stability_scan(StabilityScanConfig(params, max_q=1)).verdict == "ALL_VANISH"


def test_the_p_sum_half_space_is_not_the_degree_half_space():
    # at (1,2,1), p = (-1,-1,1,0) lies outside the scan's half-space
    # (sum p = -1) but on the boundary of delta_L(-p) <= 0: delta_L, the
    # degree_L of a line bundle, weighs a, b by delta_x and c, d by delta_z,
    # which differ unless n = m
    params = SpaceParams(1, 2, 1)
    p = MultiDegree(-1, -1, 1, 0)
    assert sum(p.as_tuple()) == -1 < StabilityScanConfig(params).min_psum
    assert degree_L(p.scale(-1), params) == 0
    assert degree_L(MultiDegree(1, 0, 0, 0), params) != degree_L(MultiDegree(0, 0, 1, 0), params)
