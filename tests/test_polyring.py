"""Matrices of linear forms: canonical form, evaluation, products, rank,
and strict JSON round-trips."""

from __future__ import annotations

import json
import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from monadforge import stability
from monadforge.les import simplicity_certificate
from monadforge.monad import BuiltEntries, assemble_monad, built_body
from monadforge.polyring import (
    DEFAULT_PRIME,
    GROUPS,
    LinearForm,
    MultiDegree,
    PolyMatrix,
    SpaceParams,
    canonical_chunks,
    dumps_canonical,
    evaluate_matrix,
    matrix_from_json,
    matrix_mul,
    rank_over_field,
)
from monadforge.stability import RowGrid, StabilityReport, StabilityScanConfig
from oracles import (
    MatrixEntries,
    difference,
    enumerate_twists,
    form_text,
    matrix_to_json,
    monad_template,
    monad_to_json,
    negated,
    negated_matrix,
    rank_by_gauss_jordan,
    rank_by_minors,
    scan_rows_as_dicts,
    variable_form,
)
from records import replaced

PARAMS = SpaceParams(2, 3, 2)
DIMS = [PARAMS.group_dim(g) for g in GROUPS]


def random_form(rng: random.Random, max_terms: int = 4) -> LinearForm:
    terms = []
    for _ in range(rng.randrange(max_terms + 1)):
        group = rng.randrange(4)
        terms.append((group, rng.randrange(DIMS[group] + 1), rng.randrange(-9, 10) or 1))
    return LinearForm.of(terms)


def random_matrix(rng: random.Random, rows: int, cols: int) -> PolyMatrix:
    return PolyMatrix(rows, cols, [random_form(rng) for _ in range(rows * cols)])


def random_point(rng: random.Random, prime: int) -> list:
    return [[rng.randrange(prime) for _ in range(dim + 1)] for dim in DIMS]


def evaluate_table(table, point, prime: int) -> list:
    """Value over F_prime of each quadratic form in a `matrix_mul` table."""
    return [
        [
            sum(c * point[u[0]][u[1]] * point[v[0]][v[1]] for (u, v), c in quad.items()) % prime
            for quad in row
        ]
        for row in table
    ]


def one_entry_matrix(terms) -> dict:
    return {"rows": 1, "cols": 1, "entries": [[terms]]}


# ---------------------------------------------------------------------------
# parameters, variables, degrees
# ---------------------------------------------------------------------------


def test_space_params_validation_and_dims():
    p = SpaceParams(1, 2, 3)
    assert p.dim_x == 6
    assert p.group_dim("x") == 1 and p.group_dim("y") == 1
    assert p.group_dim("z") == 2 and p.group_dim("t") == 2
    bad_params = [
        (0, 1, 1), (1, 0, 1), (1, 1, 0), (-2, 1, 1), (True, 1, 1), (1, 2.0, 1), (1, 1, "1")
    ]
    for bad in bad_params:
        with pytest.raises(ValueError):
            SpaceParams(*bad)


def test_variable_names_round_trip():
    for group in GROUPS:
        for idx in range(6):
            name = f"{group}{idx}"
            parsed = matrix_from_json(one_entry_matrix([{"coeff": "1", "exps": {name: 1}}]))
            assert form_text(parsed.entry(0, 0)) == name
            assert matrix_to_json(parsed)["entries"][0][0][0]["exps"] == {name: 1}
    for bad in ["w3", "x", "x-1", "1x", "x1.0"]:
        with pytest.raises(ValueError, match="not one variable to the power 1"):
            matrix_from_json(one_entry_matrix([{"coeff": "1", "exps": {bad: 1}}]))


def test_multidegree_arithmetic():
    d1 = MultiDegree(1, 0, -2, 3)
    d2 = MultiDegree(0, 1, 1, 1)
    assert (d1 + d2).as_tuple() == (1, 1, -1, 4)
    assert difference(d1, d2).as_tuple() == (1, -1, -3, 2)
    assert d1.scale(2).as_tuple() == (2, 0, -4, 6)


# ---------------------------------------------------------------------------
# linear forms
# ---------------------------------------------------------------------------


def test_evaluation_is_a_ring_homomorphism():
    # evaluating the product table equals the product of the evaluations,
    # and evaluating a merged sum of terms equals the sum of the evaluations
    rng = random.Random(97)
    prime = 101
    for _ in range(300):
        a, b = random_matrix(rng, 2, 3), random_matrix(rng, 3, 2)
        point = random_point(rng, prime)
        va, vb = evaluate_matrix(a, point, prime), evaluate_matrix(b, point, prime)
        product = [
            [sum(va[i][l] * vb[l][j] for l in range(3)) % prime for j in range(2)]
            for i in range(2)
        ]
        assert evaluate_table(matrix_mul(a, b), point, prime) == product
        p, q = random_form(rng), random_form(rng)
        both = PolyMatrix(1, 3, [p, q, LinearForm.of(p + q)])  # p + q: both term lists
        vp, vq, vsum = evaluate_matrix(both, point, prime)[0]
        assert vsum == (vp + vq) % prime


def test_matrix_mul_table_shape_and_keys():
    a = PolyMatrix(1, 2, [variable_form("x", 0), variable_form("y", 1)])
    b = PolyMatrix(2, 1, [LinearForm.of([(1, 1, 2)]), LinearForm.of([(0, 0, -3)])])
    # x0 * 2y1 + y1 * (-3x0): one sorted pair, coefficient -1
    assert matrix_mul(a, b) == [[{((0, 0), (1, 1)): -1}]]
    # a cancelling pair is absent, not stored with coefficient 0
    c = PolyMatrix(2, 1, [variable_form("y", 1), LinearForm.of([(0, 0, -1)])])
    assert matrix_mul(a, c) == [[{}]]
    assert matrix_mul(PolyMatrix(0, 2, []), b) == []
    with pytest.raises(ValueError, match="dimension mismatch"):
        matrix_mul(a, a)


def test_evaluate_missing_variable_raises_keyerror():
    a = PolyMatrix(1, 1, [LinearForm.of([(0, 0, 1), (1, 1, 1)])])
    point = [[3], [5], [0], [0]]  # y has only y0
    with pytest.raises(KeyError, match="no value assigned to variable y1"):
        evaluate_matrix(a, point, DEFAULT_PRIME)


def test_string_form_is_canonical():
    assert form_text(LinearForm.of([(1, 1, 1), (0, 0, -1)])) == "-x0 + y1"
    assert form_text(variable_form("y", 1)) == "y1"
    assert form_text(negated(variable_form("x", 0))) == "-x0"
    assert form_text(LinearForm.of([(3, 2, 3)])) == "3*t2"
    assert form_text(LinearForm.of([(2, 0, 2), (0, 1, -4)])) == "-4*x1 + 2*z0"
    assert form_text(LinearForm()) == "0"
    # repeated variables merge and cancelled terms vanish
    assert LinearForm.of([(1, 0, 2), (0, 1, 5), (1, 0, -2)]) == LinearForm(((0, 1, 5),))


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------


def test_matrix_construction_and_access():
    m = PolyMatrix(2, 2, [variable_form(g, 0) for g in "xyzt"])
    assert (m.rows, m.cols) == (2, 2)
    assert m.entry(0, 1) == variable_form("y", 0)
    assert m.row(1) == (variable_form("z", 0), variable_form("t", 0))
    empty = PolyMatrix(0, 0, [])
    assert empty.entries == ()
    with pytest.raises(ValueError):
        PolyMatrix(2, 2, [variable_form("x", 0)])
    with pytest.raises(ValueError):
        PolyMatrix(-1, 0, [])


def test_negation_distributes_over_entries():
    x0, y0, z1, t1 = (variable_form(*v) for v in [("x", 0), ("y", 0), ("z", 1), ("t", 1)])
    a = PolyMatrix(2, 2, [x0, negated(y0), z1, t1])
    n = negated_matrix(a)
    assert n.entry(0, 0) == negated(x0)
    assert n.entry(0, 1) == y0
    assert negated_matrix(n) == a


# ---------------------------------------------------------------------------
# rank over a finite field
# ---------------------------------------------------------------------------


def test_rank_matches_minor_expansion_oracle():
    rng = random.Random(777)
    prime = 101
    for _ in range(200):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        m = [[rng.randrange(prime) for _ in range(cols)] for _ in range(rows)]
        assert rank_over_field(m, prime) == rank_by_minors(m, prime)


@st.composite
def matrices_mod_p(draw):
    """A prime and a 0..8 x 0..8 integer matrix A B, whose inner size 0..8
    makes rank deficiency common; entries range over several multiples of p."""
    p = draw(st.sampled_from([2, 3, 101, 2**31 - 1]))
    rows, inner, cols = (draw(st.integers(0, 8)) for _ in range(3))
    entry = st.integers(-2 * p, 2 * p)
    a = [[draw(entry) for _ in range(inner)] for _ in range(rows)]
    b = [[draw(entry) for _ in range(cols)] for _ in range(inner)]
    return p, [[sum(a[i][s] * b[s][j] for s in range(inner)) for j in range(cols)] for i in range(rows)]


@settings(max_examples=300, deadline=None)
@given(matrices_mod_p())
def test_rank_matches_gauss_jordan_oracle(case):
    p, m = case
    assert rank_over_field(m, p) == rank_by_gauss_jordan(m, p)


def test_rank_does_not_mutate_input():
    m = [[1, 2], [2, 4]]
    snapshot = [row[:] for row in m]
    assert rank_over_field(m, 5) == 1
    assert m == snapshot


def test_rank_respects_field_characteristic():
    # the second row is 2x the first modulo 5, independent over the rationals
    m = [[1, 2], [2, 4 + 5]]
    assert rank_over_field(m, 5) == 1
    assert rank_over_field(m, 7) == 2


def test_evaluate_matrix_then_rank():
    rng = random.Random(321)
    x0, y0 = variable_form("x", 0), variable_form("y", 0)
    a = PolyMatrix(2, 2, [x0, y0, x0, y0])
    point = random_point(rng, DEFAULT_PRIME)
    values = evaluate_matrix(a, point, DEFAULT_PRIME)
    assert values[0] == [point[0][0], point[1][0]]
    assert rank_over_field(values, DEFAULT_PRIME) <= 1


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_poly_json_round_trip_bit_exact():
    rng = random.Random(2718)
    for _ in range(200):
        m = random_matrix(rng, 1, 2)
        blob = json.dumps(matrix_to_json(m))
        assert matrix_from_json(json.loads(blob)) == m
        # canonical term order makes the encoding itself stable
        assert json.dumps(matrix_to_json(matrix_from_json(json.loads(blob)))) == blob


def test_poly_json_uses_decimal_strings():
    m = PolyMatrix(1, 1, [LinearForm(((0, 0, 10**40),))])
    encoded = matrix_to_json(m)
    assert encoded["entries"][0][0] == [{"coeff": str(10**40), "exps": {"x0": 1}}]
    assert matrix_from_json(encoded) == m
    for bad in [7, 7.0, True, "7.5", "+7", " 7"]:
        with pytest.raises(ValueError, match="coeff must be a decimal string"):
            matrix_from_json(one_entry_matrix([{"coeff": bad, "exps": {"x0": 1}}]))


def test_matrix_json_round_trip():
    rng = random.Random(1414)
    m = random_matrix(rng, 2, 3)
    data = matrix_to_json(m)
    assert data["rows"] == 2 and data["cols"] == 3
    assert matrix_from_json(json.loads(json.dumps(data))) == m


def test_matrix_json_sums_repeated_variables_and_drops_zeros():
    terms = [
        {"coeff": "1", "exps": {"y1": 1}},
        {"coeff": "2", "exps": {"x0": 1}},
        {"coeff": "1", "exps": {"y1": 1}},
        {"coeff": "0", "exps": {"t0": 1}},
        {"coeff": "3", "exps": {"z0": 1}},
        {"coeff": "-3", "exps": {"z0": 1}},
    ]
    parsed = matrix_from_json(one_entry_matrix(terms))
    assert form_text(parsed.entry(0, 0)) == "2*x0 + 2*y1"


@pytest.mark.parametrize(
    "exps",
    [{"x0": 1, "y0": 1}, {"x0": 2}, {}, {"x0": 0}, {"x0": 1, "t0": 0}, {"x0": True}, {"x0": 1.0}],
)
def test_matrix_json_rejects_terms_that_are_not_one_variable(exps):
    doc = {"rows": 1, "cols": 2, "entries": [[[], [{"coeff": "1", "exps": exps}]]]}
    term = json.dumps({"coeff": "1", "exps": exps}, sort_keys=True)
    with pytest.raises(ValueError) as info:
        matrix_from_json(doc, "g")
    assert str(info.value) == f"g entry (0,1) term {term}: not one variable to the power 1"


def test_matrix_json_shape_and_integer_fields_are_strict():
    good = {"rows": 2, "cols": 1, "entries": [[[]], [[]]]}
    assert matrix_from_json(good) == PolyMatrix(2, 1, [LinearForm(), LinearForm()])
    with pytest.raises(ValueError, match="inconsistent shape: f row 1 does not have 1 entries"):
        matrix_from_json({"rows": 2, "cols": 1, "entries": [[[]], []]}, "f")
    with pytest.raises(ValueError, match="inconsistent shape: f does not have 3 rows"):
        matrix_from_json({"rows": 3, "cols": 1, "entries": [[[]], [[]]]}, "f")
    for bad in [2.0, "2", True, None]:
        with pytest.raises(ValueError, match="f rows must be an integer"):
            matrix_from_json({**good, "rows": bad}, "f")
        with pytest.raises(ValueError, match="f cols must be an integer"):
            matrix_from_json({**good, "cols": bad}, "f")


def test_dumps_canonical_is_deterministic():
    doc = {"b": [1, 2], "a": {"y": 1, "x": 2}}
    s1 = dumps_canonical(doc)
    s2 = dumps_canonical(json.loads(s1))
    assert s1 == s2
    assert s1.endswith("\n")
    assert s1.index('"a"') < s1.index('"b"')


# ---------------------------------------------------------------------------
# streamed scan rows against json.dumps of the list of dicts
# ---------------------------------------------------------------------------

BIG = st.one_of(st.integers(-12, 12), st.integers(-(10**15), 10**15))


SCAN_SPACE = SpaceParams(1, 2, 3)  # rank(T) = 15


def scan_box(max_q, component_bound, min_psum, max_psum):
    return StabilityScanConfig(SCAN_SPACE, max_q, max_psum, component_bound, min_psum)


# a box with no twist, and one of five: |p_i| <= 1 with p-sum 3 or 4
EMPTY_GRID = RowGrid(scan_box(1, 0, 1, 1), ())
FIVE_TWISTS = scan_box(2, 1, 3, 4)


def grid_of(cfg, cells):
    """The grid of `cfg` with h0 = cells[q, i] at the i-th twist of the box."""
    twists = list(enumerate_twists(cfg))
    return RowGrid(cfg, [(q, twists[i], h0) for (q, i), h0 in sorted(cells.items())])


@st.composite
def row_grids(draw):
    """A row grid: a scan box with |p_i| <= 3, p-sums in [-10, 4] and
    max_q <= 4 as far as 600 rows allow, and a few rows, at any position
    in the box, holding a nonzero h0 of any size."""
    max_psum = draw(st.integers(0, 4))
    box = scan_box(1, draw(st.integers(0, 3)), draw(st.integers(-10, max_psum)), max_psum)
    size = stability._box_size(box)
    cfg = replaced(box, max_q=draw(st.integers(1, max(1, min(4, 600 // max(size, 1))))))
    cells = [(q, i) for q in range(1, cfg.max_q + 1) for i in range(size)]
    h0 = st.one_of(BIG, st.integers(-(10**40), 10**40)).filter(bool)
    nonzero = draw(st.dictionaries(st.sampled_from(cells), h0, max_size=6)) if cells else {}
    return grid_of(cfg, nonzero)


SCAN_ROWS = row_grids()


def grid_rows(grid):
    """The grid's rows, spelled out from its fields rather than its iterator."""
    h0 = {(q, tw): h for q, tw, h in grid.nonzero}
    return [
        (q, tw, h0.get((q, tw), 0))
        for q in range(1, grid.config.max_q + 1)
        for tw in enumerate_twists(grid.config)
    ]


def _scan_documents(grid, rows, checked):
    """A `stability` document (`checked` at the top level) and a `report` one
    (`checked` under "stability", a rowless summary under "simplicity"), the
    summary's `nonzero` list read off `rows`."""
    report = StabilityReport(grid.config, grid.nonzero)
    manifest = {"command": "stability", "seed": -3, "timestamp": "2023-11-14T22:13:20Z"}
    scan = {**report.to_json(include_checked=True), "checked": checked}
    summary = {**report.to_json(include_checked=False), "nonzero": scan_rows_as_dicts(r for r in rows if r[2])}
    simplicity = {"stability": summary, "rank_E": 12}
    return [
        {"manifest": manifest, **scan},
        {"manifest": manifest, "stability": scan, "simplicity": simplicity, "normalization_shift": -3},
    ]


def _streamed_pieces(grid):
    """The pieces of both documents with the grid's rows streamed, each
    checked equal to dumps_canonical of the document with the row dicts;
    compared line by line, so a failure reports its first differing line."""
    out = []
    rows = grid_rows(grid)
    for doc, oracle in zip(
        _scan_documents(grid, rows, grid), _scan_documents(grid, rows, scan_rows_as_dicts(rows))
    ):
        pieces = list(canonical_chunks(doc))
        assert "".join(pieces).split("\n") == dumps_canonical(oracle).split("\n")
        out.append(pieces)
    return out


@settings(max_examples=150, deadline=None)
@given(SCAN_ROWS, st.integers(1, 4))
@example(EMPTY_GRID, 1)
@example(grid_of(FIVE_TWISTS, {(1, 4): 10**40, (2, 0): -1}), 2)
@example(grid_of(scan_box(3, 0, 0, 0), {(2, 0): 5}), 1)  # cb 0: every run one twist
@example(grid_of(FIVE_TWISTS, {(1, 3): 7, (2, 3): -2}), 2)  # twist 3 starts the run p4 in [0, 1]
@example(grid_of(FIVE_TWISTS, {(1, 0): 4}), 2)  # the first row, right behind the opening "[\n"
@example(grid_of(FIVE_TWISTS, {(2, 4): 4}), 2)  # the last row, right before the closing "]"
@example(grid_of(FIVE_TWISTS, {(1, 1): 3, (1, 2): 8}), 2)  # rows 1 and 2 either side of a cut at 2
@example(grid_of(FIVE_TWISTS, {(2, 2): 3, (2, 3): 8}), 1)  # rows 2 and 3 either side of a cut at 3
def test_streamed_rows_equal_json_dumps_of_the_row_dicts(grid, batch):
    # a small batch puts piece boundaries next to and between nonzero rows
    with mock.patch.object(stability, "_ROW_BATCH", batch):
        _streamed_pieces(grid)
        assert all(piece.count('"twist"') <= batch for piece in grid.json_chunks(2))
    # the grid's own iterator agrees with the rows spelled out; the grid is
    # a record of the config and nonzero rows, never equal to its row list
    rows = grid_rows(grid)
    assert list(grid) == rows and len(grid) == len(rows)
    twin = RowGrid(grid.config, list(grid.nonzero))
    assert grid == twin and hash(grid) == hash(twin) and grid != rows


def test_streamed_rows_come_in_bounded_pieces():
    # a scan's rows are nearly all zero; they cross several row batches here
    grid = grid_of(scan_box(2, 3, -12, 12), {(2, 1499): 1})  # the 2,401 twists of |p_i| <= 3
    for pieces in _streamed_pieces(grid):
        assert max(map(len, pieces)) < 48 * 1024 < sum(map(len, pieces))
    # a document without a fill joins to dumps_canonical, and a dict that
    # holds no dict is one piece however many members it has, never a
    # piece per member (cohomology's 600,003-key table at n = 300,000)
    table = {str(d): d * d for d in range(-1000, 1001)}
    doc = {"b": [1, 2], "a": {"y": 1, "x": 2}, "table": table}
    pieces = list(canonical_chunks(doc))
    assert "".join(pieces) == dumps_canonical(doc)
    assert dumps_canonical(table)[:-1].replace("\n", "\n  ") in pieces


# ---------------------------------------------------------------------------
# streamed matrix entries against json.dumps of matrix_to_json
# ---------------------------------------------------------------------------

TERMS = st.tuples(st.integers(0, 3), st.integers(0, 12), BIG.filter(bool))
FORMS = st.lists(TERMS, max_size=3).map(LinearForm.of)
MATRICES = st.tuples(st.integers(0, 3), st.integers(0, 3)).flatmap(
    lambda shape: st.lists(FORMS, min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]).map(
        lambda entries: PolyMatrix(shape[0], shape[1], entries)
    )
)


# keys with quotes, backslashes, control and non-ASCII characters, which
# json escapes; values of every JSON type, containers empty or nested
KEYS = st.text(st.one_of(st.sampled_from('"\\\n\x00\x1f\x7fé€😀ab'), st.characters()), max_size=4)
PLAIN = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-(10**40), 10**40),
        st.floats(allow_nan=False, allow_infinity=False),
        st.text(st.sampled_from('"\\\nx€'), max_size=3),
    ),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(KEYS, inner, max_size=3),
    max_leaves=8,
).map(lambda value: (value, value))
# (fill, the list it writes): any matrix's entries by the oracle writer, a
# built matrix's by the staircase writer, and scan rows
BUILT = st.builds(
    lambda params, matrix: (
        BuiltEntries(params, matrix),
        matrix_to_json(getattr(assemble_monad(params), matrix))["entries"],
    ),
    st.builds(SpaceParams, *[st.integers(1, 2)] * 3),
    st.sampled_from("fg"),
)
FILLS = st.one_of(
    MATRICES.map(lambda matrix: (MatrixEntries(matrix), matrix_to_json(matrix)["entries"])),
    BUILT,
    SCAN_ROWS.map(lambda grid: (grid, scan_rows_as_dicts(grid_rows(grid)))),
)


def _pair(members):
    """(document, oracle) of a dict whose members are (document, oracle) pairs."""
    docs = {key: doc for key, (doc, _) in members.items()}
    return docs, {key: oracle for key, (_, oracle) in members.items()}


# (document, oracle): a dict tree with fills as member values at any depth,
# beside dicts and lists of plain values
TREES = st.recursive(
    st.dictionaries(KEYS, PLAIN | FILLS, max_size=2).map(_pair),
    lambda inner: st.dictionaries(KEYS, inner | PLAIN | FILLS, max_size=3).map(_pair),
    max_leaves=6,
)


def _matrices_and_grid(f, g, grid):
    """(document, oracle) of two matrix fills and a row grid."""
    doc, oracle = {"checked": grid}, {"checked": scan_rows_as_dicts(grid_rows(grid))}
    for name, matrix in (("f", f), ("g", g)):
        doc[name] = {"rows": matrix.rows, "cols": matrix.cols, "entries": MatrixEntries(matrix)}
        oracle[name] = matrix_to_json(matrix)
    return doc, oracle


@settings(max_examples=120, deadline=None)
@given(TREES, st.integers(0, 4))
@example(_matrices_and_grid(PolyMatrix(0, 2, []), PolyMatrix(2, 0, []), EMPTY_GRID), 0)
@example(
    _matrices_and_grid(
        PolyMatrix(1, 2, [LinearForm(), LinearForm(((0, 10, -17), (3, 2, 10**12)))]),
        PolyMatrix(1, 1, [LinearForm()]),
        EMPTY_GRID,
    ),
    2,
)
@example(
    (
        {"é": {}, '"': [[], {}], "\x00": {"e": MatrixEntries(PolyMatrix(0, 0, []))}},
        {"é": {}, '"': [[], {}], "\x00": {"e": []}},
    ),
    1,
)
def test_streamed_matrix_entries_equal_json_dumps_of_matrix_to_json(tree, depth):
    # the writer is json.dumps of the tree with each fill spelled out as its
    # list; the tree nested `depth` deep between keys that sort before and
    # after it
    doc, oracle = tree
    for _ in range(depth):
        doc, oracle = ({"a": -1, "m": part, "z": [[]]} for part in (doc, oracle))
    text = "".join(canonical_chunks(doc))
    assert text.split("\n") == dumps_canonical(oracle).split("\n")


@settings(max_examples=64, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4))
def test_streamed_monad_equals_json_dumps_of_monad_to_json(n, m, k):
    # the assembly shares one form among many cells, each rendered once by
    # the oracle writer; build renders each band cell once from the layout
    params = SpaceParams(n, m, k)
    spec = assemble_monad(params)
    expected = dumps_canonical({"monad": monad_to_json(spec)})
    assert "".join(canonical_chunks({"monad": monad_template(spec)})) == expected
    assert "".join(canonical_chunks(built_body(params))) == expected


def test_canonical_chunks_refuses_other_objects_and_writes_each_fill_it_meets():
    # a value json cannot write, and a fill inside a list, fail with json's
    # own error when the pieces are consumed
    for doc, name in (
        ({"a": EMPTY_GRID, "twist": MultiDegree(1, 2, 3, 4)}, "MultiDegree"),
        ({"a": {"b": [EMPTY_GRID]}}, "RowGrid"),
        ({"m": {"entries": [[BuiltEntries(SpaceParams(1, 1, 1), "f")]]}}, "BuiltEntries"),
    ):
        pieces = canonical_chunks(doc)
        with pytest.raises(TypeError, match=f"^Object of type {name} is not JSON serializable$"):
            list(pieces)
    # one grid under two keys is two fills, each written in full
    grid = grid_of(FIVE_TWISTS, {(2, 1): 7})
    rows = scan_rows_as_dicts(grid_rows(grid))
    doc = {"first": grid, "second": {"again": grid}}
    text = "".join(canonical_chunks(doc))
    assert text == dumps_canonical({"first": rows, "second": {"again": rows}})
    assert text.count('"h0": 7') == 2


def test_writing_a_document_holds_less_than_three_times_its_text():
    # the certificate's 2n+2m+1-entry tables are rendered once each, whole,
    # and never the whole document around them (6.4 times the text when
    # json.dumps rendered the document and a regex split it again)
    doc = {"certificate": simplicity_certificate(SpaceParams(10**4, 1, 1)).to_json()}
    tracemalloc.start()
    try:
        size = sum(map(len, canonical_chunks(doc)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * size
