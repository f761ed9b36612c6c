"""Acceptance gate: ten numbered end-to-end criteria.

Each test records one PASS/FAIL line (printed in the terminal summary by the
hook in conftest.py) and then asserts.  Every expected number here is either
checked against an independent oracle from tests/oracles.py, frozen from a
hand derivation, or a direct consequence of the block construction laws; time
limits are part of the criteria and are asserted with the math.
"""

from __future__ import annotations

import itertools
import random
import time

from monadforge import (
    CohProfile,
    LineBundleSum,
    ShortExactSeq,
    SpaceParams,
    assemble_monad,
    bott_h,
    default_scan_config,
    direct_sum,
    exterior_power_sum,
    floystad_check,
    invariants_of_T,
    kunneth_h,
    les_propagate,
    line_bundle,
    middle_bundle,
    rank_of_E,
    run_stability_scan,
    simplicity_certificate,
    sum_cohomology,
    verify_composition,
    verify_maximal_rank,
)
from monadforge.monad import block_products, composition_by_product, sampled_rank_report
from monadforge.polyring import MultiDegree
from monadforge.stability import enumerate_twists, negative_component_violations
from oracles import degree_by_expansion, h0_by_monomial_count

GRID_64 = [SpaceParams(n, m, k) for n, m, k in itertools.product(range(1, 5), repeat=3)]
GRID_27 = [SpaceParams(n, m, k) for n, m, k in itertools.product(range(1, 4), repeat=3)]
PRIMES = (2**31 - 1, 10**9 + 7)


def entry_strings(matrix):
    return [[str(matrix.entry(i, j)) for j in range(matrix.cols)] for i in range(matrix.rows)]


# ---------------------------------------------------------------------------
# criterion 1: symbolic composition
# ---------------------------------------------------------------------------


def test_criterion_01_composition_vanishes(criterion):
    # verify_composition takes f*g = 0 for these monads from the displayed
    # identity without multiplying, so the criterion multiplies them out by
    # name and checks that the public verdict is the same
    t0 = time.monotonic()
    failures = []
    for p in GRID_64:
        spec = assemble_monad(p)
        if not (composition_by_product(spec) and verify_composition(spec)):
            failures.append(p)
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 10.0
    assert criterion(
        1,
        "symbolic f*g = 0 for all (n,m,k) in {1..4}^3",
        ok,
        extra=f"64 cases, {elapsed:.2f} s",
    ), failures


# ---------------------------------------------------------------------------
# criterion 2: block identities
# ---------------------------------------------------------------------------


def test_criterion_02_block_identities(criterion):
    t0 = time.monotonic()
    failures = []
    for p in GRID_64:
        f1g1, f2g2, f3g3, f4g4 = block_products(assemble_monad(p))
        if f1g1 != f2g2 or f3g3 != f4g4:
            failures.append(p)
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 10.0
    assert criterion(
        2,
        "block identities f1*g1 = f2*g2 and f3*g3 = f4*g4 on the same grid",
        ok,
        extra=f"64 cases, {elapsed:.2f} s",
    ), failures


# ---------------------------------------------------------------------------
# criterion 3: maximal rank sampling over two prime fields
# ---------------------------------------------------------------------------


def test_criterion_03_maximal_rank_two_primes(criterion):
    # verify_maximal_rank certifies these monads from the staircase lemma
    # without drawing a point, so the criterion samples and eliminates by
    # name and checks that the public report is the same one
    t0 = time.monotonic()
    failures = []
    cases = [SpaceParams(1, 2, 3)] + GRID_64
    for prime in PRIMES:
        for p in cases:
            spec = assemble_monad(p)
            report = sampled_rank_report(spec, trials=20, seed=0, prime=prime)
            sampled_ok = (
                all(r == p.k for r in report.rank_f_samples)
                and all(r == p.k for r in report.rank_g_samples)
                and report.maximal
            )
            origin_ok = report.origin_rank_f == 0 and report.origin_rank_g == 0
            public = verify_maximal_rank(spec, trials=20, seed=0, prime=prime)
            if not (sampled_ok and origin_ok and public.to_json() == report.to_json()):
                failures.append((p, prime))
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 30.0
    assert criterion(
        3,
        "rank k at 20 random nonzero points over both primes; rank 0 at the origin",
        ok,
        extra=f"{len(cases)} cases x 2 primes, {elapsed:.2f} s",
    ), failures


# ---------------------------------------------------------------------------
# criterion 4: regression against the (1,2,3) reference example
# ---------------------------------------------------------------------------

# Canonical matrices, spelled out entry-for-entry from the Hankel/Toeplitz
# block laws at (n,m,k) = (1,2,3).
CANONICAL_F_123 = [
    "0 0 y1 y0 0 0 -x1 -x0 0 0 t2 t1 t0 0 0 -z2 -z1 -z0".split(),
    "0 y1 y0 0 0 -x1 -x0 0 0 t2 t1 t0 0 0 -z2 -z1 -z0 0".split(),
    "y1 y0 0 0 -x1 -x0 0 0 t2 t1 t0 0 0 -z2 -z1 -z0 0 0".split(),
]
CANONICAL_G_123 = [
    row.split()
    for row in [
        "x0 0 0", "x1 x0 0", "0 x1 x0", "0 0 x1",
        "y0 0 0", "y1 y0 0", "0 y1 y0", "0 0 y1",
        "z0 0 0", "z1 z0 0", "z2 z1 z0", "0 z2 z1", "0 0 z2",
        "t0 0 0", "t1 t0 0", "t2 t1 t0", "0 t2 t1", "0 0 t2",
    ]
]
# A hand-transcribed copy of the same example circulates with two copying
# slips: row 1 of f has its t-block shifted one slot left (duplicating row
# 2's t-block), and g is printed with 20 rows because one row of the z-block
# and one row of the t-block are each duplicated.  The regression pins the
# canonical forms AND the exact divergence positions of that transcription.
TRANSCRIBED_F_123 = [
    "0 0 y1 y0 0 0 -x1 -x0 0 0 t2 t1 t0 0 0 -z2 -z1 -z0".split(),
    "0 y1 y0 0 0 -x1 -x0 0 t2 t1 t0 0 0 0 -z2 -z1 -z0 0".split(),
    "y1 y0 0 0 -x1 -x0 0 0 t2 t1 t0 0 0 -z2 -z1 -z0 0 0".split(),
]
TRANSCRIBED_G_123 = [
    row.split()
    for row in [
        "x0 0 0", "x1 x0 0", "0 x1 x0", "0 0 x1",
        "y0 0 0", "y1 y0 0", "0 y1 y0", "0 0 y1",
        "z0 0 0", "z1 z0 0", "z2 z1 z0", "0 z2 z1", "0 z2 z1", "0 0 z2",
        "t0 0 0", "t1 t0 0", "t2 t1 t0", "0 t2 t1", "0 t2 t1", "0 0 t2",
    ]
]


def test_criterion_04_reference_example_regression(criterion):
    t0 = time.monotonic()
    spec = assemble_monad(SpaceParams(1, 2, 3))
    f_rows = entry_strings(spec.f)
    g_rows = entry_strings(spec.g)

    shapes_ok = (spec.f.rows, spec.f.cols) == (3, 18) and (spec.g.rows, spec.g.cols) == (18, 3)
    f_ok = f_rows == CANONICAL_F_123
    g_ok = g_rows == CANONICAL_G_123

    # Flag the transcription slips: the divergence must sit exactly where
    # documented, nowhere else.
    f_diff = [
        (i, j)
        for i in range(3)
        for j in range(18)
        if CANONICAL_F_123[i][j] != TRANSCRIBED_F_123[i][j]
    ]
    f_typo_ok = f_diff == [(1, 8), (1, 9), (1, 10), (1, 11)]
    g_typo_ok = (
        len(TRANSCRIBED_G_123) == 20
        and TRANSCRIBED_G_123[11] == TRANSCRIBED_G_123[12]
        and TRANSCRIBED_G_123[17] == TRANSCRIBED_G_123[18]
        and [row for i, row in enumerate(TRANSCRIBED_G_123) if i not in (12, 18)]
        == CANONICAL_G_123
    )

    elapsed = time.monotonic() - t0
    ok = shapes_ok and f_ok and g_ok and f_typo_ok and g_typo_ok and elapsed < 1.0
    assert criterion(
        4,
        "(1,2,3) example reproduced entry-for-entry incl. signs; canonical g is 18x3",
        ok,
        extra=f"transcription slips pinned at f(1,8..11) and g rows 12/18, {elapsed:.2f} s",
    ), (f_rows, g_rows)


# ---------------------------------------------------------------------------
# criterion 5: cohomology engine against the monomial oracle + duality
# ---------------------------------------------------------------------------


def test_criterion_05_cohomology_engine(criterion):
    t0 = time.monotonic()
    bott_failures = []
    for n in range(1, 6):
        for d in range(-8, 9):
            if bott_h(n, d, 0) != h0_by_monomial_count(n, d):
                bott_failures.append((n, d))

    duality_failures = []
    checked = 0
    params = SpaceParams(1, 2, 1)
    dims = (params.n, params.n, params.m, params.m)
    top = params.dim_x
    for d in itertools.product(range(-3, 2), repeat=4):
        deg = MultiDegree(*d)
        dual = MultiDegree(*(-di - ni - 1 for di, ni in zip(d, dims)))
        checked += 1
        if kunneth_h(params, deg, top) != kunneth_h(params, dual, 0):
            duality_failures.append(d)

    elapsed = time.monotonic() - t0
    ok = (
        not bott_failures
        and not duality_failures
        and checked >= 500
        and elapsed < 10.0
    )
    assert criterion(
        5,
        "h^0 matches the monomial-count oracle (n <= 5, |d| <= 8); duality on >= 500 tuples",
        ok,
        extra=f"{checked} duality tuples, {elapsed:.2f} s",
    ), (bott_failures, duality_failures)


# ---------------------------------------------------------------------------
# criterion 6: first Chern class and polarized degree
# ---------------------------------------------------------------------------


def test_criterion_06_c1_and_degree(criterion):
    t0 = time.monotonic()
    failures = []
    for p in GRID_64:
        inv = invariants_of_T(p)
        expected_c1 = (-p.n - 2 * p.k, -p.n - 2 * p.k, -p.m - 2 * p.k, -p.m - 2 * p.k)
        if inv.c1.as_tuple() != expected_c1 or inv.degree_L >= 0:
            failures.append(p)

    flagship = invariants_of_T(SpaceParams(1, 2, 3))
    oracle = degree_by_expansion(flagship.c1.as_tuple(), 1, 2)
    flagship_ok = flagship.degree_L == oracle == -1380

    elapsed = time.monotonic() - t0
    ok = not failures and flagship_ok and elapsed < 5.0
    assert criterion(
        6,
        "c1(T) = (-n-2k,-n-2k,-m-2k,-m-2k) and deg_L(T) < 0 on the grid; (1,2,3) = -1380",
        ok,
        extra=f"oracle degree {oracle}, {elapsed:.2f} s",
    ), (failures, flagship.degree_L, oracle)


# ---------------------------------------------------------------------------
# criterion 7: vanishing scan + the negative-component invariant
# ---------------------------------------------------------------------------


def _box_allows_nonnegative_shift(deg: MultiDegree, cfg) -> bool:
    """Whether some twist in cfg's box lifts every component of deg to >= 0.

    The scan applies twists -(p1..p4) with |p_i| <= component_bound and
    min_psum <= sum(p) <= max_psum, so a witness needs p_i <= deg_i
    componentwise; feasibility reduces to the componentwise caps.
    """
    caps = [min(c, cfg.component_bound) for c in deg.as_tuple()]
    if any(c < -cfg.component_bound for c in caps):
        return False
    return sum(caps) >= cfg.min_psum


def test_criterion_07_stability_scan(criterion):
    t0 = time.monotonic()
    scan_failures = []
    invariant_failures = []
    for p in GRID_27:
        cfg = default_scan_config(p)
        report = run_stability_scan(cfg)
        if report.verdict != "ALL_VANISH" or any(h != 0 for _, _, h in report.checked):
            scan_failures.append(p)
        # structural invariant, every enumerated summand against the whole box
        for q in range(1, cfg.max_q + 1):
            for deg, _mult in exterior_power_sum(middle_bundle(p), q).summands:
                if _box_allows_nonnegative_shift(deg, cfg):
                    invariant_failures.append((p, q, deg))

    # belt and braces: exhaustive per-twist witness check at the smallest tuple
    small = SpaceParams(1, 1, 1)
    cfg = default_scan_config(small)
    for q in range(1, cfg.max_q + 1):
        for tw in enumerate_twists(cfg):
            if negative_component_violations(small, q, tw):
                invariant_failures.append((small, q, tw))

    elapsed = time.monotonic() - t0
    ok = not scan_failures and not invariant_failures and elapsed < 60.0
    assert criterion(
        7,
        "stability scan ALL_VANISH on {1..3}^3; negative-component invariant holds",
        ok,
        extra=f"27 scans + exhaustive twist audit at (1,1,1), {elapsed:.2f} s",
    ), (scan_failures, invariant_failures[:5])


# ---------------------------------------------------------------------------
# criterion 8: simplicity certificates
# ---------------------------------------------------------------------------


def test_criterion_08_simplicity_certificates(criterion):
    t0 = time.monotonic()
    failures = []
    for p in GRID_27:
        cert = simplicity_certificate(p)
        expected_rank = 2 * p.n + 2 * p.m + 2 * p.k
        if not (
            cert.conclusion == "SIMPLE_CERTIFIED"
            and cert.h0_T_dual_twisted == (0, 0)
            and cert.h1_T_dual_twisted == (0, 0)
            and cert.rank_E == rank_of_E(p) == expected_rank
        ):
            failures.append(p)
    rank_123_ok = rank_of_E(SpaceParams(1, 2, 3)) == 12
    elapsed = time.monotonic() - t0
    ok = not failures and rank_123_ok and elapsed < 30.0
    assert criterion(
        8,
        "certificates on {1..3}^3: intervals [0,0], SIMPLE_CERTIFIED, rank E = 2n+2m+2k",
        ok,
        extra=f"rank E at (1,2,3) = 12, {elapsed:.2f} s",
    ), failures


# ---------------------------------------------------------------------------
# criterion 9: interval propagation is sound on split sequences
# ---------------------------------------------------------------------------


def _random_sum(params: SpaceParams, rng: random.Random) -> LineBundleSum:
    summands = []
    for _ in range(rng.randrange(1, 4)):
        deg = MultiDegree(*(rng.randrange(-3, 4) for _ in range(4)))
        summands.append(line_bundle(params, deg, rng.randrange(1, 3)))
    return direct_sum(*summands)


def test_criterion_09_les_soundness(criterion):
    t0 = time.monotonic()
    rng = random.Random(20230915)
    params = SpaceParams(1, 2, 1)
    top = params.dim_x
    violations = []
    runs = 240
    for trial in range(runs):
        a = _random_sum(params, rng)
        c = _random_sum(params, rng)
        b = direct_sum(a, c)
        slot = ("left", "middle", "right")[trial % 3]
        sums = {"left": a, "middle": b, "right": c}
        profiles = {
            name: CohProfile.unknown() if name == slot else CohProfile.of_sum(S)
            for name, S in sums.items()
        }
        seq = les_propagate(
            ShortExactSeq(profiles["left"], profiles["middle"], profiles["right"], dim_top=top)
        )
        propagated = getattr(seq, slot)
        exact = sum_cohomology(sums[slot])
        for i in range(top + 1):
            lo, hi = propagated.bounds(i, top)
            if not lo <= exact.dims[i] <= hi:
                violations.append((trial, slot, i))
    elapsed = time.monotonic() - t0
    ok = not violations and runs >= 200 and elapsed < 20.0
    assert criterion(
        9,
        "propagated intervals contain the exact table on >= 200 random split sequences",
        ok,
        extra=f"{runs} sequences, {elapsed:.2f} s",
    ), violations


# ---------------------------------------------------------------------------
# criterion 10: existence-condition table
# ---------------------------------------------------------------------------


def test_criterion_10_existence_condition_table(criterion):
    t0 = time.monotonic()
    mismatches = []
    for a in range(13):
        for b in range(13):
            for c in range(13):
                for k in range(1, 7):
                    direct = (b >= 2 * c + k - 1 and b >= a + c) or (b >= a + c + k)
                    if floystad_check(a, b, c, k) != direct:
                        mismatches.append((a, b, c, k))
    elapsed = time.monotonic() - t0
    ok = not mismatches and elapsed < 1.0
    assert criterion(
        10,
        "existence test agrees with direct inequality evaluation, a,b,c <= 12, k <= 6",
        ok,
        extra=f"{13**3 * 6} cases, {elapsed:.2f} s",
    ), mismatches
