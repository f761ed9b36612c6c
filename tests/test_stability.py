"""The vanishing scan behind the stability certificate: exterior-power upper
bounds, box enumeration, verdict logic, and report JSON."""

from __future__ import annotations

import itertools
import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from monadforge.chow import BundleInvariants, invariants_of_T, rank_of_T
from monadforge.cohomology import kunneth_h
from monadforge.monad import middle_bundle
from monadforge.polyring import MultiDegree, SpaceParams, canonical_chunks
from monadforge.stability import (
    RowGrid,
    StabilityScanConfig,
    _box,
    _box_size,
    enumerate_twists,
    negative_component_violations,
    normalization_shift,
    run_stability_scan,
)
from oracles import (
    c1_of_sum,
    h0_wedge_T_upper,
    negative_component_violations_by_exterior_power,
    stability_scan_by_series,
    wedge_h0_by_exterior_power,
)
from records import replaced

SPACE_PARAMS = st.builds(SpaceParams, st.integers(1, 3), st.integers(1, 3), st.integers(1, 3))


# ---------------------------------------------------------------------------
# normalization shift
# ---------------------------------------------------------------------------


def test_normalization_shift_zero_slope():
    params = SpaceParams(1, 2, 3)
    inv = BundleInvariants(rank=2, c1=MultiDegree(0, 0, 0, 0), degree_L=0)
    assert normalization_shift(inv, params) == 0


def test_normalization_shift_example_bundle():
    params = SpaceParams(1, 2, 3)
    assert normalization_shift(invariants_of_T(params), params) == -3


def test_normalization_shift_small_negative_slope():
    params = SpaceParams(1, 2, 3)
    inv = BundleInvariants(rank=1, c1=MultiDegree(0, 0, 0, 0), degree_L=-1)
    # d = delta_L(1,0,0,0) = 30 here, so ceil(-1/30) = 0
    assert normalization_shift(inv, params) == 0


# ---------------------------------------------------------------------------
# the exterior-power upper bound
# ---------------------------------------------------------------------------


def test_untwisted_first_power_vanishes_for_any_params():
    for nmk in [(1, 1, 1), (1, 2, 3), (2, 2, 2), (3, 1, 2)]:
        assert h0_wedge_T_upper(SpaceParams(*nmk), 1, MultiDegree(0, 0, 0, 0)) == 0


def test_second_power_mixed_twist_vanishes():
    assert h0_wedge_T_upper(SpaceParams(1, 2, 3), 2, MultiDegree(-1, 0, 0, -1)) == 0


def test_first_power_positive_twist_frozen_value():
    # q = 1, twist (1,1,1,1) on (1,1,1): each of the four summand families
    # contributes multiplicity (n+k) = 2 times h0 = 8, totalling 64; the
    # value is recomputed here against the Kunneth engine directly
    params = SpaceParams(1, 1, 1)
    tw = MultiDegree(1, 1, 1, 1)
    expected = 0
    for deg, mult in middle_bundle(params).summands:
        expected += mult * kunneth_h(params, deg + tw, 0)
    assert expected == 64
    assert h0_wedge_T_upper(params, 1, tw) == 64


def test_wedge_q_range_validation():
    params = SpaceParams(1, 1, 1)
    with pytest.raises(ValueError):
        h0_wedge_T_upper(params, 0, MultiDegree(0, 0, 0, 0))
    with pytest.raises(ValueError):
        h0_wedge_T_upper(params, middle_bundle(params).rank + 1, MultiDegree(0, 0, 0, 0))


def test_determinant_twist_cross_check():
    # at q = rank(middle) the exterior power is the single determinant line,
    # and the bound must equal a direct Kunneth evaluation
    for nmk in [(1, 1, 1), (1, 2, 1)]:
        params = SpaceParams(*nmk)
        middle = middle_bundle(params)
        q = middle.rank
        for tw_tuple in [(3, 3, 3, 3), (6, 6, 7, 7), (0, 0, 0, 0)]:
            tw = MultiDegree(*tw_tuple)
            det_degree = c1_of_sum(middle)
            assert h0_wedge_T_upper(params, q, tw) == kunneth_h(
                params, det_degree + tw, 0
            )


def test_monotone_in_each_p_component():
    rng = random.Random(4242)
    params = SpaceParams(1, 1, 1)
    for _ in range(60):
        q = rng.randrange(1, 5)
        p = [rng.randrange(-2, 3) for _ in range(4)]
        tw = MultiDegree(*(-c for c in p))
        base = h0_wedge_T_upper(params, q, tw)
        for axis in range(4):
            bumped = p[:]
            bumped[axis] += 1
            tw_bumped = MultiDegree(*(-c for c in bumped))
            assert h0_wedge_T_upper(params, q, tw_bumped) <= base


# ---------------------------------------------------------------------------
# scan configuration and enumeration
# ---------------------------------------------------------------------------


def test_config_validation():
    params = SpaceParams(1, 1, 1)  # rank(T) = 7
    StabilityScanConfig(params, max_q=6, max_psum=4, component_bound=4)
    with pytest.raises(ValueError):
        StabilityScanConfig(params, max_q=7, max_psum=4, component_bound=4)
    with pytest.raises(ValueError):
        StabilityScanConfig(params, max_q=0, max_psum=4, component_bound=4)
    with pytest.raises(ValueError):
        StabilityScanConfig(params, max_q=3, max_psum=-1, component_bound=4)
    with pytest.raises(ValueError):
        StabilityScanConfig(params, max_q=3, max_psum=2, component_bound=-2)


@pytest.mark.parametrize("field", ["max_q", "max_psum", "component_bound", "min_psum"])
@pytest.mark.parametrize("bad", [True, 2.0], ids=["bool", "float"])
def test_config_rejects_a_bool_or_float_bound(field, bad):
    # each would pass the range checks; a float then breaks the scan's
    # ranges, and a bool is written as `true`, which the schema rejects
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got {bad!r}$"):
        StabilityScanConfig(SpaceParams(1, 1, 1), **{"max_q": 1, field: bad})


def test_default_config_caps_q():
    cfg = StabilityScanConfig(SpaceParams(1, 1, 1))
    assert cfg.max_q == 6  # min(8, rank(T) - 1) with rank(T) = 7
    cfg_big = StabilityScanConfig(SpaceParams(3, 3, 3))
    assert cfg_big.max_q == 8
    assert cfg_big.max_psum == 4 and cfg_big.component_bound == 4


def test_enumerate_twists_matches_brute_force():
    cfg = StabilityScanConfig(
        SpaceParams(1, 1, 1), max_q=2, max_psum=3, component_bound=2
    )
    got = [tw.as_tuple() for tw in enumerate_twists(cfg)]
    expected = []
    rng_box = range(-2, 3)
    for p in itertools.product(rng_box, rng_box, rng_box, rng_box):
        if 0 <= sum(p) <= 3:
            expected.append((-p[0], -p[1], -p[2], -p[3]))
    assert got == expected
    assert len(got) == len(set(got))


def test_box_equals_the_filtered_cube():
    # every bound and sum range up to cb 5, empty ranges (hi = lo - 1) and
    # ranges the cube cannot reach included, for the box and the orthant
    for cb in range(6):
        for top in {0, cb}:
            span = range(-cb, top + 1)
            cube = [(sum(p), tuple(-c for c in p)) for p in itertools.product(span, repeat=4)]
            for lo in range(-12, 7):
                for hi in range(lo - 1, 7):
                    expected = [tw for total, tw in cube if lo <= total <= hi]
                    assert list(_box(cb, lo, hi, top)) == expected, (cb, lo, hi, top)


def test_box_size_counts_the_box():
    for cb in range(7):
        sums = Counter(map(sum, itertools.product(range(-cb, cb + 1), repeat=4)))
        for lo in range(-10, 7):
            for hi in range(max(lo, 0), 7):
                cfg = StabilityScanConfig(
                    SpaceParams(1, 1, 1), 1, max_psum=hi, component_bound=cb, min_psum=lo
                )
                assert _box_size(cfg) == sum(sums[s] for s in range(lo, hi + 1)), (cb, lo, hi)


# ---------------------------------------------------------------------------
# the scan itself
# ---------------------------------------------------------------------------


def test_scan_all_vanish_on_default_boxes():
    report1 = run_stability_scan(
        StabilityScanConfig(SpaceParams(1, 2, 3), max_q=6, max_psum=4, component_bound=4)
    )
    assert report1.verdict == "ALL_VANISH"
    assert report1.all_vanish
    assert report1.counterexample is None
    report2 = run_stability_scan(
        StabilityScanConfig(SpaceParams(1, 1, 1), max_q=5, max_psum=3, component_bound=4)
    )
    assert report2.verdict == "ALL_VANISH"


def test_scan_records_every_cell():
    cfg = StabilityScanConfig(SpaceParams(1, 1, 1), max_q=3, max_psum=2, component_bound=2)
    report = run_stability_scan(cfg)
    twists = list(enumerate_twists(cfg))
    assert len(report.checked) == 3 * len(twists)
    # rows are sorted by (q, enumeration order) and every h0 is zero
    qs = [q for q, _, _ in report.checked]
    assert qs == sorted(qs)
    assert all(h == 0 for _, _, h in report.checked)


def test_scan_counterexample_outside_criterion_regime():
    # allowing sum(p) < 0 admits genuinely positive twists, and the scan
    # must find and report the first one in enumeration order
    cfg = StabilityScanConfig(
        SpaceParams(1, 1, 1),
        max_q=2,
        max_psum=4,
        component_bound=2,
        min_psum=-2,
    )
    report = run_stability_scan(cfg)
    assert report.verdict == "COUNTEREXAMPLE"
    assert not report.all_vanish
    q_bad, tw_bad = report.counterexample
    assert q_bad == 1
    assert tw_bad.as_tuple() == (2, 0, 0, 0)
    recorded = {(q, tw.as_tuple()): h for q, tw, h in report.checked}
    assert recorded[(1, (2, 0, 0, 0))] > 0


def test_scan_verdict_is_closed_form():
    # a row (q, tw) is nonzero iff tw >= 0 and q <= min(max_q, sum min(D_i+k, tw_i)),
    # so the verdict needs only min_psum and the component bound, and the first
    # nonzero row is q = 1 at the first twist of the orthant in box order: each
    # p_i as low as the bound and the p-sum left over allow
    mismatches = []
    for n, m, k, cb, min_psum, max_psum, max_q in itertools.product(
        (1, 2), (1, 2), (1, 2), range(4), range(-9, 1), (0, 2), (1, None)
    ):
        cfg = StabilityScanConfig(SpaceParams(n, m, k), max_q, max_psum, cb, min_psum)
        expected = None
        if min_psum <= -1 and cb >= 1:
            p = []
            for _ in range(4):
                p.append(max(-cb, min_psum - sum(p)))
            expected = (1, tuple(-x for x in p))
        report = run_stability_scan(cfg)
        found = report.counterexample
        found = None if found is None else (found[0], found[1].as_tuple())
        verdict = "ALL_VANISH" if expected is None else "COUNTEREXAMPLE"
        if (report.verdict, found) != (verdict, expected):
            mismatches.append((cfg, report.verdict, found, expected))
    assert mismatches == []


def test_negative_component_invariant_inside_regime():
    params = SpaceParams(1, 2, 1)
    cfg = StabilityScanConfig(params, max_q=4, max_psum=3, component_bound=3)
    for tw in enumerate_twists(cfg):
        for q in (1, 2, 4):
            assert negative_component_violations(params, q, tw) == []


def test_negative_component_violations_flag_positive_twists():
    params = SpaceParams(1, 1, 1)
    witnesses = negative_component_violations(params, 1, MultiDegree(1, 1, 1, 1))
    assert witnesses != []
    # the top power has the single summand O(-2,-2,-2,-2) at (1,1,1)
    top = middle_bundle(params).rank
    assert negative_component_violations(params, top, MultiDegree(2, 3, 2, 2)) == [
        MultiDegree(0, 1, 0, 0)
    ]


@settings(max_examples=200, deadline=None)
@given(params=SPACE_PARAMS, data=st.data())
def test_negative_component_witnesses_equal_exterior_power(params, data):
    # the direct enumeration of j with sum(j) = q, 0 <= j_i <= min(D_i+k, tw_i)
    # against the summands of the enumerated exterior power: same list, same order
    q = data.draw(st.integers(1, middle_bundle(params).rank), label="q")
    tw = MultiDegree(*data.draw(st.tuples(*[st.integers(-3, 6)] * 4), label="twist"))
    assert negative_component_violations(params, q, tw) == (
        negative_component_violations_by_exterior_power(params, q, tw)
    )


def test_negative_component_violations_rejects_q_out_of_range():
    params = SpaceParams(1, 1, 1)
    rank = middle_bundle(params).rank
    for q in (0, rank + 1, -1):
        with pytest.raises(ValueError, match="out of range"):
            negative_component_violations(params, q, MultiDegree(0, 0, 0, 0))


def test_scan_verdict_consistent_with_rows():
    for cfg in [
        StabilityScanConfig(SpaceParams(1, 1, 2), max_q=4, max_psum=2, component_bound=2),
        StabilityScanConfig(
            SpaceParams(1, 1, 1), max_q=1, max_psum=2, component_bound=2, min_psum=-2
        ),
    ]:
        report = run_stability_scan(cfg)
        assert report.all_vanish == all(h == 0 for _, _, h in report.checked)
        assert (report.verdict == "ALL_VANISH") == report.all_vanish


def counted_degrees():
    """A patch of MultiDegree.__init__, and the list in which it records the
    fields of every MultiDegree built while it is active."""
    built = []
    init = MultiDegree.__init__

    def counting(self, *fields):
        built.append(fields)
        init(self, *fields)

    return mock.patch.object(MultiDegree, "__init__", counting), built


def test_scan_and_row_writer_build_no_twist_objects():
    # the wide report's box: 9,310 twists, 186,200 rows, all of them zero
    cfg = StabilityScanConfig(SpaceParams(3, 3, 3), 20, max_psum=6, component_bound=6)
    twists = sum(1 for _ in enumerate_twists(cfg))
    patch, built = counted_degrees()
    with patch:
        report = run_stability_scan(cfg)
        text = "".join(canonical_chunks(report.to_json()))
    assert built == [] and report.all_vanish
    assert text.count('"h0": 0') == len(report.checked) == 20 * twists
    assert len(report.checked) == 186_200
    with patch:
        assert sum(1 for _ in report.checked) == len(report.checked)
    assert len(built) <= twists


def test_a_counterexample_scan_builds_one_twist_per_summed_twist_and_row_pass():
    cfg = StabilityScanConfig(SpaceParams(1, 1, 1), 3, max_psum=2, component_bound=3, min_psum=-8)
    twists = list(enumerate_twists(cfg))
    summed = sum(1 for tw in twists if min(tw.as_tuple()) >= 0 and sum(tw.as_tuple()) >= 1)
    patch, built = counted_degrees()
    with patch:
        report = run_stability_scan(cfg)
    assert report.counterexample is not None
    assert len(built) == summed  # the counterexample is its row's twist
    del built[:]
    with patch:
        rows = list(report.checked)
    assert len(rows) == 3 * len(twists)
    assert len(built) <= len(twists)


# ---------------------------------------------------------------------------
# report JSON
# ---------------------------------------------------------------------------


def test_report_json_shapes():
    cfg = StabilityScanConfig(SpaceParams(1, 1, 1), max_q=2, max_psum=1, component_bound=1)
    report = run_stability_scan(cfg)
    with_rows = report.to_json(include_checked=True)
    assert with_rows["entries_checked"] == len(report.checked)
    # the grid itself, whose rows canonical_chunks streams
    assert isinstance(with_rows["checked"], RowGrid) and "nonzero" not in with_rows
    assert with_rows["checked"] == report.checked
    summary = report.to_json(include_checked=False)
    assert "checked" not in summary and summary["nonzero"] == []
    assert summary["config"]["params"] == {"n": 1, "m": 1, "k": 1}


# ---------------------------------------------------------------------------
# the scan bound really is an upper bound for a sub-bundle section count
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(SPACE_PARAMS, st.tuples(*[st.integers(-3, 5)] * 4))
def test_bound_equals_h0_of_twisted_exterior_middle(params, tw):
    tw = MultiDegree(*tw)
    for q in range(1, middle_bundle(params).rank + 1):
        assert h0_wedge_T_upper(params, q, tw) == wedge_h0_by_exterior_power(params, q, [tw])[0]


# ---------------------------------------------------------------------------
# the generating function against the enumerated exterior powers
# ---------------------------------------------------------------------------

MAX_ORACLE_ROWS = 3000  # the enumeration oracle is slow; larger boxes get fewer powers
# boxes reaching below p-sum 0, where some bounds are positive
COUNTEREXAMPLE_BOXES = (
    StabilityScanConfig(SpaceParams(1, 1, 1), 3, max_psum=2, component_bound=3, min_psum=-8),
    StabilityScanConfig(SpaceParams(1, 2, 2), 4, max_psum=0, component_bound=3, min_psum=-8),
)


@st.composite
def scan_configs(draw, bound=4, top_psum=4, max_rows=MAX_ORACLE_ROWS):
    """A scan box with n, m, k <= 3, |p_i| <= bound and p-sums in
    [-10, top_psum]; max_q ranges up to rank(T) - 1 as far as max_rows allows."""
    max_psum = draw(st.integers(0, top_psum))
    box = StabilityScanConfig(
        draw(SPACE_PARAMS),
        max_q=1,
        max_psum=max_psum,
        component_bound=draw(st.integers(0, bound)),
        min_psum=draw(st.integers(-10, max_psum)),
    )
    twists = max(1, len(list(enumerate_twists(box))))
    top = max(1, min(rank_of_T(box.params) - 1, max_rows // twists))
    return replaced(box, max_q=draw(st.integers(1, top)))


@settings(max_examples=40, deadline=None)
@given(scan_configs())
@example(COUNTEREXAMPLE_BOXES[0])
@example(COUNTEREXAMPLE_BOXES[1])
def test_scan_rows_match_exterior_power_oracle(cfg):
    twists = list(enumerate_twists(cfg))
    expected = [
        (q, tw, h0)
        for q in range(1, cfg.max_q + 1)
        for tw, h0 in zip(twists, wedge_h0_by_exterior_power(cfg.params, q, twists))
    ]
    report = run_stability_scan(cfg)
    assert list(report.checked) == expected
    assert report.all_vanish == all(h0 == 0 for _, _, h0 in expected)


def test_oracle_examples_have_nonzero_rows():
    # the comparison above must also see positive bounds, not only zeros
    for cfg in COUNTEREXAMPLE_BOXES:
        assert not run_stability_scan(cfg).all_vanish


# ---------------------------------------------------------------------------
# the negative-component lemma against the series at every twist
# ---------------------------------------------------------------------------

EMPTY_BOX = StabilityScanConfig(SpaceParams(1, 1, 1), 1, max_psum=1, component_bound=0, min_psum=1)


@settings(max_examples=60, deadline=None)
@given(scan_configs(bound=5, top_psum=6, max_rows=50_000))
@example(EMPTY_BOX)
@example(StabilityScanConfig(SpaceParams(1, 2, 1), 2, max_psum=6, component_bound=1, min_psum=5))
@example(StabilityScanConfig(SpaceParams(3, 3, 3), 2, max_psum=6, component_bound=5, min_psum=-10))
@example(StabilityScanConfig(SpaceParams(2, 1, 3), 9, max_psum=6, component_bound=3))
@example(COUNTEREXAMPLE_BOXES[1])
def test_lemma_gated_scan_equals_the_series_at_every_twist(cfg):
    report, oracle = run_stability_scan(cfg), stability_scan_by_series(cfg)
    assert len(report.checked) == len(oracle.checked)
    assert list(report.checked) == list(oracle.checked)
    assert (report.verdict, report.counterexample) == (oracle.verdict, oracle.counterexample)
    for include_checked in (True, False):
        doc = report.to_json(include_checked)
        if include_checked:  # the row grid, spelled out as the oracle's row tuple
            doc["checked"] = tuple(doc["checked"])
        assert doc == oracle.to_json(include_checked)


def test_row_grid_reads_like_the_row_tuple():
    report = run_stability_scan(COUNTEREXAMPLE_BOXES[0])
    rows = stability_scan_by_series(COUNTEREXAMPLE_BOXES[0]).checked
    assert list(report.checked) == list(rows) and tuple(report.checked) == rows
    assert len(report.checked) == len(rows) and report.checked != rows
    assert list(run_stability_scan(EMPTY_BOX).checked) == []
