"""Dimension propagation through long exact sequences, and the simplicity
certificate assembled from it."""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import sys

import pytest
from hypothesis import example, given, settings

import monadforge.cohomology
import monadforge.les
from monadforge.cohomology import CohTable, line_bundle, sum_cohomology
from monadforge.les import (
    CohProfile,
    ShortExactSeq,
    SimplicityCertificate,
    les_propagate,
    rank_of_E,
    simplicity_certificate,
)
from monadforge.monad import middle_bundle
from monadforge.polyring import MultiDegree, SpaceParams
from monadforge.stability import StabilityScanConfig, run_stability_scan
from oracles import (
    certificate_by_fields,
    direct_sum,
    dual,
    h0_by_monomial_count,
    negative_component_violations,
    profile_of_sum,
    stability_scan_by_series,
    twist,
    twisted_dual_sequence,
)
from test_stability import COUNTEREXAMPLE_BOXES, scan_configs

PARAMS_EX = SpaceParams(1, 2, 3)


def random_sum(params: SpaceParams, rng: random.Random):
    summands = []
    for _ in range(rng.randrange(1, 4)):
        deg = MultiDegree(*(rng.randrange(-3, 4) for _ in range(4)))
        summands.append(line_bundle(params, deg, rng.randrange(1, 3)))
    return direct_sum(*summands)


# ---------------------------------------------------------------------------
# profiles and sequences
# ---------------------------------------------------------------------------


def test_profile_kinds_and_bounds():
    table = CohTable((1, 2, 0))
    exact = CohProfile.exact(table)
    assert exact.bounds(1, 2) == (2, 2)
    assert exact.bounds(5, 2) == (0, 0)
    assert exact.bounds(-1, 2) == (0, 0)
    boxed = CohProfile.interval([(0, 3), (1, 1), (0, 0)])
    assert boxed.bounds(0, 2) == (0, 3)
    with pytest.raises(ValueError):
        CohProfile.interval([(2, 1)])
    with pytest.raises(ValueError):
        CohProfile.interval([(-1, 0)])
    with pytest.raises(ValueError):
        CohProfile("bogus")


def test_sequence_validation():
    params = SpaceParams(1, 1, 1)
    known = profile_of_sum(line_bundle(params, MultiDegree(1, 1, 1, 1)))
    with pytest.raises(ValueError):
        ShortExactSeq(known, known, known, dim_top=0)
    with pytest.raises(ValueError, match="at most one"):
        ShortExactSeq(CohProfile.unknown(), CohProfile.unknown(), known, dim_top=4)
    # exact tables must span dim_top + 1 degrees
    with pytest.raises(ValueError, match="length"):
        ShortExactSeq(
            CohProfile.exact(CohTable((1, 0))), known, CohProfile.unknown(), dim_top=4
        )
    # so must interval lists: a short one would make les_propagate read past its end
    with pytest.raises(ValueError, match="left intervals length does not match dim_top"):
        ShortExactSeq(CohProfile.interval([(0, 1)]), known, CohProfile.unknown(), dim_top=4)
    boxed = CohProfile.interval([(0, 1)] * 5)
    seq = les_propagate(ShortExactSeq(boxed, known, CohProfile.unknown(), dim_top=4))
    assert seq.right.kind == "interval" and len(seq.right.intervals) == 5
    # dim_top is a positive int, not a bool or a float
    for dim_top in (True, 4.0, "4"):
        with pytest.raises(ValueError, match="dim_top must be a positive integer"):
            ShortExactSeq(known, known, CohProfile.unknown(), dim_top=dim_top)


def test_propagate_requires_exactly_one_unknown():
    params = SpaceParams(1, 1, 1)
    known = profile_of_sum(line_bundle(params, MultiDegree(0, 0, 0, 0)))
    seq = ShortExactSeq(known, known, known, dim_top=params.dim_x)
    with pytest.raises(ValueError):
        les_propagate(seq)


# ---------------------------------------------------------------------------
# the three reference sequences
# ---------------------------------------------------------------------------


def test_twisted_middle_sequence_collapses_to_zero():
    # 0 -> O(-2,-2,-2,-2)^3 -> (G_n (+) G_m)(-1,-1,-1,-1) -> C -> 0 at
    # (1,2,3): the unknown right member has h^0 = h^1 = 0 exactly
    params = PARAMS_EX
    left = line_bundle(params, MultiDegree(-2, -2, -2, -2), params.k)
    middle = twist(middle_bundle(params), MultiDegree(-1, -1, -1, -1))
    seq = ShortExactSeq(
        profile_of_sum(left),
        profile_of_sum(middle),
        CohProfile.unknown(),
        dim_top=params.dim_x,
    )
    out = les_propagate(seq)
    assert out.right.bounds(0, params.dim_x) == (0, 0)
    assert out.right.bounds(1, params.dim_x) == (0, 0)


def test_zero_cokernel_sequence():
    # 0 -> A -> A -> 0 -> 0 with A cohomology-free: the interval calculus
    # pins the right member at zero in every degree
    params = PARAMS_EX
    a = line_bundle(params, MultiDegree(-1, -1, -1, -1), 3)
    assert not any(sum_cohomology(a).dims)
    profile = profile_of_sum(a)
    seq = ShortExactSeq(profile, profile, CohProfile.unknown(), dim_top=params.dim_x)
    out = les_propagate(seq)
    for i in range(params.dim_x + 1):
        assert out.right.bounds(i, params.dim_x) == (0, 0)


def test_untwisted_dual_sequence_pins_h0():
    # 0 -> O(-1,-1,-1,-1)^3 -> dual(G_n (+) G_m) -> C -> 0 at (1,2,3):
    # h^0(C) = h^0 of the dual middle = 2(n+k)(n+1) + 2(m+k)(m+1) = 46,
    # recomputed from the single-factor monomial-count oracle
    params = PARAMS_EX
    n, m, k = params.n, params.m, params.k
    left = line_bundle(params, MultiDegree(-1, -1, -1, -1), k)
    middle = dual(middle_bundle(params))
    expected_h0 = 2 * (n + k) * h0_by_monomial_count(n, 1) + 2 * (m + k) * (
        h0_by_monomial_count(m, 1)
    )
    assert expected_h0 == 46
    seq = ShortExactSeq(
        profile_of_sum(left),
        profile_of_sum(middle),
        CohProfile.unknown(),
        dim_top=params.dim_x,
    )
    out = les_propagate(seq)
    assert out.right.bounds(0, params.dim_x) == (46, 46)


# ---------------------------------------------------------------------------
# soundness on split sequences
# ---------------------------------------------------------------------------


def test_split_sequence_soundness_every_slot():
    rng = random.Random(11011)
    params = SpaceParams(1, 1, 1)
    top = params.dim_x
    for trial in range(120):
        a = random_sum(params, rng)
        c = random_sum(params, rng)
        b = direct_sum(a, c)
        tables = {
            "left": sum_cohomology(a),
            "middle": sum_cohomology(b),
            "right": sum_cohomology(c),
        }
        slot = ("left", "middle", "right")[trial % 3]
        profiles = {
            name: (CohProfile.unknown() if name == slot else CohProfile.exact(tab))
            for name, tab in tables.items()
        }
        seq = ShortExactSeq(profiles["left"], profiles["middle"], profiles["right"], top)
        out = les_propagate(seq)
        solved = getattr(out, slot)
        for i in range(top + 1):
            lo, hi = solved.bounds(i, top)
            true_value = tables[slot].dims[i]
            assert lo <= true_value <= hi


def test_collapsed_propagation_satisfies_euler_identity():
    rng = random.Random(2222)
    params = SpaceParams(1, 1, 1)
    top = params.dim_x
    collapsed_seen = 0
    for _ in range(200):
        a = random_sum(params, rng)
        c = random_sum(params, rng)
        b = direct_sum(a, c)
        seq = ShortExactSeq(
            profile_of_sum(a),
            profile_of_sum(b),
            CohProfile.unknown(),
            top,
        )
        out = les_propagate(seq)
        if out.right.kind != "exact":
            continue
        collapsed_seen += 1
        alt = 0
        for i in range(top + 1):
            h_a = out.left.bounds(i, top)[0]
            h_b = out.middle.bounds(i, top)[0]
            h_c = out.right.bounds(i, top)[0]
            alt += (-1) ** i * (h_a - h_b + h_c)
        assert alt == 0
    assert collapsed_seen > 0


def random_profile(rng: random.Random, top: int) -> CohProfile:
    """An exact table or an interval list over degrees 0..top, zeros frequent."""
    value = lambda: rng.choice((0, 0, 0, 1, 2, 3, 5, 8))  # noqa: E731
    if rng.random() < 0.5:
        return CohProfile.exact(CohTable(tuple(value() for _ in range(top + 1))))
    pairs = []
    for _ in range(top + 1):
        lo = value()
        pairs.append((lo, lo + rng.choice((0, 0, 1, 2, 5))))
    return CohProfile.interval(pairs)


# sha256 of the propagated sequences below, recorded from the per-slot
# implementation that the single exactness rule replaced
PROPAGATION_DIGEST = "12406c0ec8a9c068bd3a871ef8fdb900189e00155da2b6bd264f757b01890385"


def test_propagation_matches_frozen_digest():
    # 600 sequences of exact and interval members: every unknown slot at
    # every dim_top 1..6, their outputs hashed together
    rng = random.Random(29029)
    lines = []
    kinds = set()
    for trial in range(600):
        top = 1 + trial % 6
        slot = (trial // 6) % 3
        members = [
            CohProfile.unknown() if s == slot else random_profile(rng, top) for s in range(3)
        ]
        out = les_propagate(ShortExactSeq(*members, dim_top=top))
        kinds.add((out.left, out.middle, out.right)[slot].kind)
        lines.append(
            json.dumps([prof.to_json() for prof in (out.left, out.middle, out.right)] + [top])
        )
    assert kinds == {"exact", "interval"}
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == PROPAGATION_DIGEST


def test_all_collapse_is_reported_exact():
    params = PARAMS_EX
    a = line_bundle(params, MultiDegree(-1, -1, -1, -1), 2)
    c = line_bundle(params, MultiDegree(1, 1, 1, 1), 1)
    b = direct_sum(a, c)
    seq = ShortExactSeq(
        profile_of_sum(a), profile_of_sum(b), CohProfile.unknown(), params.dim_x
    )
    out = les_propagate(seq)
    assert out.right.kind == "exact"
    assert out.right.table.dims == sum_cohomology(c).dims


# ---------------------------------------------------------------------------
# rank bookkeeping
# ---------------------------------------------------------------------------


def test_rank_of_E_examples_and_grid():
    assert rank_of_E(SpaceParams(1, 2, 3)) == 12
    assert rank_of_E(SpaceParams(1, 1, 1)) == 6
    assert rank_of_E(SpaceParams(4, 3, 2)) == 18
    for n in range(1, 4):
        for m in range(1, 4):
            for k in range(1, 4):
                params = SpaceParams(n, m, k)
                rank_T = 2 * n + 2 * m + 3 * k
                assert rank_of_E(params) == rank_T - k
                assert rank_of_E(params) == middle_bundle(params).rank - 2 * k


# ---------------------------------------------------------------------------
# the certificate
# ---------------------------------------------------------------------------


def test_certificate_example_parameters():
    cert = simplicity_certificate(PARAMS_EX)
    assert cert.conclusion == "SIMPLE_CERTIFIED"
    assert cert.reason is None
    assert cert.t_stable
    assert cert.rank_E == 12
    assert cert.h0_T_dual_twisted == (0, 0)
    assert cert.h1_T_dual_twisted == (0, 0)


def test_certificate_small_parameters():
    cert = simplicity_certificate(SpaceParams(1, 1, 1))
    assert cert.conclusion == "SIMPLE_CERTIFIED"
    assert cert.rank_E == 6


def test_certificate_inconclusive_when_scan_fails():
    params = SpaceParams(1, 1, 1)
    bad_cfg = StabilityScanConfig(
        params, max_q=2, max_psum=4, component_bound=2, min_psum=-2
    )
    cert = simplicity_certificate(params, bad_cfg)
    assert cert.conclusion == "INCONCLUSIVE"
    assert cert.reason == "stability scan failed"
    assert not cert.t_stable
    # the vanishing intervals themselves are unaffected by the scan outcome
    assert cert.h0_T_dual_twisted == (0, 0)


def test_certificate_params_mismatch():
    with pytest.raises(ValueError):
        simplicity_certificate(SpaceParams(1, 1, 1), StabilityScanConfig(SpaceParams(1, 2, 1)))


def test_twisted_dual_sequence_structure():
    params = PARAMS_EX
    seq = twisted_dual_sequence(params)
    assert seq.dim_top == params.dim_x
    assert seq.right.kind == "unknown"
    # left member: O(-2,-2,-2,-2)^k, whose cohomology vanishes below top degree
    assert seq.left.kind == "exact"
    assert seq.left.bounds(0, seq.dim_top) == (0, 0)
    # middle member: rank matches dual(G_n (+) G_m)
    assert sum(seq.middle.table.dims) == sum(
        sum_cohomology(
            twist(dual(middle_bundle(params)), MultiDegree(-1, -1, -1, -1))
        ).dims
    )


def test_certificate_json_document():
    cert = simplicity_certificate(SpaceParams(1, 1, 1))
    doc = cert.to_json()
    assert doc["conclusion"] == "SIMPLE_CERTIFIED"
    assert doc["rank_E"] == 6
    assert doc["h0_T_dual_twisted"] == [0, 0]
    assert doc["sequence"]["left"]["kind"] == "exact"
    # the solved member is either a genuine interval or, when every bound
    # collapsed, promoted to an exact table
    right = doc["sequence"]["right"]
    assert right["kind"] in ("interval", "exact")
    if right["kind"] == "exact":
        assert right["dims"][0] == 0 and right["dims"][1] == 0
    assert doc["stability"]["verdict"] == "ALL_VANISH"
    assert "argument" in doc and "reason" in doc
    # scan rows are summarized by default: only nonzero rows are embedded
    assert "checked" not in doc["stability"]
    assert doc["stability"]["nonzero"] == []


def test_certificate_sequence_equals_interval_propagation():
    # the closed-form collapse against les_propagate on the line-bundle tables,
    # exhaustively on {1..5}^3; the sequence does not depend on the scan, so a
    # one-row box keeps the sweep fast
    for n, m, k in itertools.product(range(1, 6), repeat=3):
        params = SpaceParams(n, m, k)
        cfg = StabilityScanConfig(params, max_q=1, max_psum=0, component_bound=0)
        cert = simplicity_certificate(params, cfg)
        solved = les_propagate(twisted_dual_sequence(params))
        top = solved.dim_top
        assert cert.to_json()["sequence"] == {
            "left": solved.left.to_json(),
            "middle": solved.middle.to_json(),
            "right": solved.right.to_json(),
            "dim_top": top,
        }, (n, m, k)
        assert cert.h0_T_dual_twisted == solved.right.bounds(0, top) == (0, 0)
        assert cert.h1_T_dual_twisted == solved.right.bounds(1, top) == (0, 0)


def test_the_collapsed_right_table_vanishes_in_degrees_0_and_1():
    # why the certificate's verdict rests on the scan alone: the right
    # table's only nonzero entry sits in degree 2n+2m-1 >= 3
    for n, m, k in itertools.product(range(1, 9), range(1, 9), range(1, 5)):
        right = monadforge.les._twisted_dual_collapse(SpaceParams(n, m, k)).right
        assert right.table.dims[:2] == (0, 0), (n, m, k)


@settings(max_examples=40, deadline=None)
@given(scan_configs())
@example(COUNTEREXAMPLE_BOXES[0])
@example(COUNTEREXAMPLE_BOXES[1])
def test_a_certificate_cannot_contradict_its_evidence(cfg):
    # the record holds the scan alone and reads every other attribute from
    # it; its document must equal one built field by field from the
    # enumerated scan of the same box
    report = run_stability_scan(cfg)
    cert = SimplicityCertificate(report)
    assert cert.to_json() == certificate_by_fields(stability_scan_by_series(cfg))
    assert (cert.conclusion == "SIMPLE_CERTIFIED") == report.all_vanish
    assert cert.sequence == les_propagate(twisted_dual_sequence(cfg.params))
    assert cert == simplicity_certificate(cfg.params, cfg)


def test_certificate_chain_runs_without_the_general_machinery(monkeypatch):
    # every module attribute holding les_propagate or exterior_power_sum is
    # replaced by a function that raises: the certificate and the witness
    # enumeration must not reach either
    def forbidden(*args, **kwargs):
        raise AssertionError("general machinery called on the certificate path")

    targets = (monadforge.les.les_propagate, monadforge.cohomology.exterior_power_sum)
    for name, module in list(sys.modules.items()):
        if name == "monadforge" or name.startswith("monadforge."):
            for attr, value in list(vars(module).items()):
                if any(value is fn for fn in targets):
                    monkeypatch.setattr(module, attr, forbidden)

    cert = simplicity_certificate(SpaceParams(1, 1, 2))
    assert cert.conclusion == "SIMPLE_CERTIFIED"
    assert cert.sequence.right.table.dims == (0, 0, 0, 2, 0)
    witnesses = negative_component_violations(SpaceParams(1, 1, 1), 1, MultiDegree(1, 1, 1, 1))
    assert witnesses == [
        MultiDegree(0, 1, 1, 1),
        MultiDegree(1, 0, 1, 1),
        MultiDegree(1, 1, 0, 1),
        MultiDegree(1, 1, 1, 0),
    ]
