"""The package's record types are plain `__slots__` classes on one base,
`Record`, and every one is an immutable value: value `==`, `hash`, the
`Name(field=value, ...)` repr, and AttributeError on assignment."""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import monadforge
from monadforge.chow import BundleInvariants, invariants_of_T, rank_of_T
from monadforge.cohomology import CohTable, LineBundleSum
from monadforge.les import CohProfile, ShortExactSeq, SimplicityCertificate, simplicity_certificate
from monadforge.monad import BuiltEntries, assemble_monad, middle_bundle, verify_maximal_rank
from monadforge.polyring import (
    LinearForm,
    MultiDegree,
    PolyMatrix,
    Record,
    SpaceParams,
)
from monadforge.stability import RowGrid, StabilityReport, StabilityScanConfig, run_stability_scan

from oracles import variable_form
from records import replaced

README = Path(__file__).resolve().parent.parent / "README.md"

SMALL = SpaceParams(1, 1, 1)
TINY_BOX = StabilityScanConfig(SMALL, 1, max_psum=0, component_bound=0)
ONE_UNKNOWN = ShortExactSeq(
    CohProfile.unknown(), CohProfile.exact(CohTable((1, 0))), CohProfile.exact(CohTable((1, 0))), 1
)

SPACE_FIELDS = st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4))
DEGREE_FIELDS = st.tuples(*[st.integers(-3, 3)] * 4)
SCAN_FIELDS = st.tuples(
    st.builds(SpaceParams, *[st.integers(1, 2)] * 3),
    st.integers(1, 8),
    st.integers(0, 4),
    st.integers(0, 4),
    st.integers(-4, 4),
)


def subclasses(cls):
    return [sub for direct in cls.__subclasses__() for sub in (direct, *subclasses(direct))]


RECORDS = subclasses(Record)


def build(cls, fields):
    """cls(*fields), or a rejected example where the constructor refuses them."""
    try:
        return cls(*fields)
    except ValueError:
        assume(False)


@pytest.mark.parametrize(
    "cls, fields",
    [(SpaceParams, SPACE_FIELDS), (MultiDegree, DEGREE_FIELDS), (StabilityScanConfig, SCAN_FIELDS)],
    ids=["SpaceParams", "MultiDegree", "StabilityScanConfig"],
)
@given(data=st.data())
def test_equal_fields_give_equal_records_and_any_other_field_unequal(cls, fields, data):
    values = data.draw(fields)
    record, twin = build(cls, values), cls(*values)
    assert record == twin and not record != twin
    assert hash(record) == hash(twin)
    assert record != values  # a record never equals its field tuple

    i = data.draw(st.integers(0, len(values) - 1))
    other = values[:i] + (data.draw(fields)[i],) + values[i + 1 :]
    assume(other[i] != values[i])
    changed = build(cls, other)
    assert record != changed and not record == changed


# the records whose constructor checks, defaults or normalizes an argument
OWN_CONSTRUCTOR = {
    SpaceParams,
    PolyMatrix,
    LineBundleSum,
    CohProfile,
    ShortExactSeq,
    StabilityScanConfig,
    BuiltEntries,
    StabilityReport,
    RowGrid,
}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_fields_are_its_constructor_parameters_in_order(cls):
    # ==, hash and repr read _FIELDS alone: a constructor argument missing
    # from __slots__, or a public slot no argument fills, would go unseen
    assert ("__init__" in vars(cls)) == (cls in OWN_CONSTRUCTOR)
    if cls in OWN_CONSTRUCTOR:
        assert cls._FIELDS == tuple(inspect.signature(cls).parameters)
    else:
        assert cls.__init__ is Record.__init__
        sentinels = [object() for _ in cls._FIELDS]
        by_position = cls(*sentinels)
        named = dict(zip(cls._FIELDS, sentinels))
        by_name = cls(**{name: named[name] for name in reversed(cls._FIELDS)})
        mixed = cls(sentinels[0], **{name: named[name] for name in cls._FIELDS[1:]})
        assert by_position == by_name == mixed
        for record in (by_position, by_name, mixed):
            assert all(a is b for a, b in zip(record._fields(), sentinels, strict=True))
        first = cls._FIELDS[0]
        refused = [
            ((*sentinels, None), {}),  # one field too many
            (sentinels[:-1], {}),  # the last field missing
            ((), {name: value for name, value in named.items() if name != first}),  # first missing
            ((), {**named, "extra": None}),  # an unknown name
            (sentinels, {first: None}),  # a field given twice
        ]
        for values, names in refused:
            with pytest.raises(TypeError, match=rf"{cls.__name__}\(\) takes each of the fields"):
                cls(*values, **names)
    assert "_fields" not in vars(cls)
    assert ("__repr__" in vars(cls)) == (cls in (MultiDegree, LineBundleSum))


def test_repr_is_the_dataclass_text():
    params = SpaceParams(1, 2, 3)
    scan = run_stability_scan(TINY_BOX)
    config_text = (
        "StabilityScanConfig(params=SpaceParams(n=1, m=1, k=1), max_q=1, max_psum=0, "
        "component_bound=0, min_psum=0)"
    )
    scan_text = f"StabilityReport(config={config_text}, nonzero=())"
    spec = assemble_monad(SMALL)
    cert = simplicity_certificate(SMALL, TINY_BOX)
    table = [
        (params, "SpaceParams(n=1, m=2, k=3)"),
        (MultiDegree(1, -2, 0, 4), "(1,-2,0,4)"),
        (
            PolyMatrix(1, 2, [variable_form("x", 0), LinearForm()]),
            "PolyMatrix(rows=1, cols=2, entries=(((0, 0, 1),), ()))",
        ),
        (
            BuiltEntries(params, "g"),
            "BuiltEntries(params=SpaceParams(n=1, m=2, k=3), matrix='g')",
        ),
        (CohTable((0, 1, 2)), "CohTable(dims=(0, 1, 2))"),
        (
            invariants_of_T(params),
            "BundleInvariants(rank=15, c1=(-7,-7,-8,-8), degree_L=-1380)",
        ),
        (
            spec,
            f"MonadSpec(params=SpaceParams(n=1, m=1, k=1), source={spec.source!r}, "
            f"middle={spec.middle!r}, target={spec.target!r}, f={spec.f!r}, g={spec.g!r})",
        ),
        (
            verify_maximal_rank(spec, trials=2, seed=0),
            "RankReport(params=SpaceParams(n=1, m=1, k=1), prime=2147483647, seed=0, "
            "rank_f_samples=(1, 1), rank_g_samples=(1, 1), origin_rank_f=0, origin_rank_g=0, "
            "group_zero_ranks={'x': (1, 1), 'y': (1, 1), 'z': (1, 1), 't': (1, 1)})",
        ),
        (
            LineBundleSum(SMALL, [(MultiDegree(0, -1, 0, 0), 2), (MultiDegree(-1, 0, 0, 0), 2)]),
            "LineBundleSum(O(-1,0,0,0)^2 + O(0,-1,0,0)^2)",
        ),
        (LineBundleSum(SMALL), "LineBundleSum(0)"),
        (
            StabilityScanConfig(params, 2),
            "StabilityScanConfig(params=SpaceParams(n=1, m=2, k=3), max_q=2, max_psum=4, "
            "component_bound=4, min_psum=0)",
        ),
        (TINY_BOX, config_text),
        (scan, scan_text),
        (scan.checked, f"RowGrid(config={config_text}, nonzero=())"),
        (
            CohProfile.interval([(0, 1)]),
            "CohProfile(kind='interval', table=None, intervals=((0, 1),))",
        ),
        (
            ONE_UNKNOWN,
            "ShortExactSeq(left=CohProfile(kind='unknown', table=None, intervals=None), "
            "middle=CohProfile(kind='exact', table=CohTable(dims=(1, 0)), intervals=None), "
            "right=CohProfile(kind='exact', table=CohTable(dims=(1, 0)), intervals=None), "
            "dim_top=1)",
        ),
        (
            cert,
            f"SimplicityCertificate(stability={scan_text})",
        ),
    ]
    assert {type(record) for record, _ in table} == set(RECORDS)
    for record, text in table:
        assert repr(record) == text


FROZEN = [
    (SpaceParams(1, 2, 3), "n"),
    (MultiDegree(1, 2, 3, 4), "d"),
    (PolyMatrix(0, 0, []), "entries"),
    (CohTable((1,)), "dims"),
    (BundleInvariants(1, MultiDegree(0, 0, 0, 0), 2), "degree_L"),
    (middle_bundle(SMALL), "params"),
    (TINY_BOX, "max_q"),
    (run_stability_scan(TINY_BOX), "verdict"),
    (run_stability_scan(TINY_BOX).checked, "nonzero"),
    (assemble_monad(SMALL), "g"),
    (BuiltEntries(SMALL, "f"), "matrix"),
    (verify_maximal_rank(assemble_monad(SMALL), trials=2), "seed"),
    (CohProfile.unknown(), "kind"),
    (ONE_UNKNOWN, "left"),
    (simplicity_certificate(SMALL, TINY_BOX), "conclusion"),
]


@pytest.mark.parametrize("record, name", FROZEN, ids=[type(r).__name__ for r, _ in FROZEN])
def test_immutable_records_refuse_assignment_and_deletion(record, name):
    value = getattr(record, name)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(record, name, value)
    with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
        record.extra = 1
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(record, name)
    assert getattr(record, name) is value


@pytest.mark.parametrize("box", [TINY_BOX, StabilityScanConfig(SMALL, 2, 1, 2, min_psum=-3)])
def test_scan_report_and_certificate_hash_like_equal_records(box):
    report, cert = run_stability_scan(box), simplicity_certificate(SMALL, box)
    assert hash(middle_bundle(SMALL)) == hash(assemble_monad(SMALL).middle)
    assert hash(report) == hash(run_stability_scan(box))
    assert hash(cert) == hash(simplicity_certificate(SMALL, box))
    assert {report, cert, cert.stability} == {report, cert}


def test_monad_spec_and_rank_report_are_values():
    spec, twin = assemble_monad(SMALL), assemble_monad(SMALL)
    assert spec == twin and hash(spec) == hash(twin)
    assert replaced(spec, params=SpaceParams(2, 1, 1)) != spec
    report = verify_maximal_rank(spec, trials=2, seed=0)
    assert report == verify_maximal_rank(twin, trials=2, seed=0) != replaced(report, seed=7)
    with pytest.raises(TypeError, match="unhashable type: 'dict'"):
        hash(report)  # group_zero_ranks is a dict


def test_every_slotted_class_but_linear_form_is_a_record():
    # LinearForm is a tuple of terms, not a record of named fields
    modules = [
        importlib.import_module(f"monadforge.{info.name}")
        for info in pkgutil.iter_modules(monadforge.__path__)
    ]
    slotted = {
        cls
        for module in modules
        for _, cls in inspect.getmembers(module, inspect.isclass)
        if cls.__module__ == module.__name__ and "__slots__" in vars(cls)
    }
    assert slotted == {Record, LinearForm, *RECORDS}


def test_readme_library_snippet_runs():
    text = README.read_text(encoding="utf-8")
    library = text[text.index("## Library") :]
    snippet = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    assert "SpaceParams(n=1, m=2, k=3)" in snippet
    namespace: dict = {}
    exec(compile(snippet, "README.md", "exec"), namespace)
    assert namespace["params"] == SpaceParams(1, 2, 3)
    assert namespace["inv"].rank == rank_of_T(namespace["params"]) == 15
    assert namespace["report"].all_vanish
    assert namespace["cert"].conclusion == "SIMPLE_CERTIFIED"
