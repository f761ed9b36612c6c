"""Monad construction and certification: Hankel/Toeplitz blocks, assembly,
symbolic composition, sampled maximal rank, and the existence inequality."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monadforge.cohomology import LineBundleSum, bott_h, exterior_power_sum, kunneth_h
from monadforge.monad import (
    MonadSpec,
    assemble_monad,
    build_f_block,
    build_g_block,
    composition_by_product,
    floystad_check,
    has_staircase_shape,
    middle_bundle,
    sampled_rank_report,
    source_bundle,
    target_bundle,
    verify_composition,
    verify_maximal_rank,
)
from monadforge import monad as monad_module
from monadforge.monad import block_products
from monadforge.stability import negative_component_violations
from monadforge.polyring import (
    DEFAULT_PRIME,
    LinearForm,
    MultiDegree,
    PolyMatrix,
    SpaceParams,
    evaluate_matrix,
    matrix_mul,
    rank_over_field,
)
from oracles import (
    compose_by_coefficient_matrices,
    monad_to_json,
    structural_problems_by_two_walks,
)
from records import replaced


def entry_strings(matrix):
    return [[str(matrix.entry(i, j)) for j in range(matrix.cols)] for i in range(matrix.rows)]


# ---------------------------------------------------------------------------
# block shapes and entry formulas
# ---------------------------------------------------------------------------


def test_f_block_one_for_n1_k3():
    block = build_f_block(1, SpaceParams(1, 2, 3))
    assert entry_strings(block) == [
        ["0", "0", "y1", "y0"],
        ["0", "y1", "y0", "0"],
        ["y1", "y0", "0", "0"],
    ]


def test_f_block_three_for_m2_k3():
    block = build_f_block(3, SpaceParams(1, 2, 3))
    assert entry_strings(block) == [
        ["0", "0", "t2", "t1", "t0"],
        ["0", "t2", "t1", "t0", "0"],
        ["t2", "t1", "t0", "0", "0"],
    ]


def test_f_block_degenerate_k1():
    block = build_f_block(1, SpaceParams(1, 1, 1))
    assert entry_strings(block) == [["y1", "y0"]]


def test_g_block_one_for_n1_k3():
    block = build_g_block(1, SpaceParams(1, 2, 3))
    assert entry_strings(block) == [
        ["x0", "0", "0"],
        ["x1", "x0", "0"],
        ["0", "x1", "x0"],
        ["0", "0", "x1"],
    ]


def test_g_block_three_is_5x3_toeplitz():
    block = build_g_block(3, SpaceParams(1, 2, 3))
    assert (block.rows, block.cols) == (5, 3)
    assert entry_strings(block) == [
        ["z0", "0", "0"],
        ["z1", "z0", "0"],
        ["z2", "z1", "z0"],
        ["0", "z2", "z1"],
        ["0", "0", "z2"],
    ]


def test_g_block_degenerate_k1():
    block = build_g_block(4, SpaceParams(1, 1, 1))
    assert entry_strings(block) == [["t0"], ["t1"]]


def test_hankel_entries_depend_only_on_antidiagonal():
    rng = random.Random(7)
    for _ in range(20):
        params = SpaceParams(rng.randrange(1, 5), rng.randrange(1, 5), rng.randrange(1, 5))
        which = rng.randrange(1, 5)
        block = build_f_block(which, params)
        by_antidiagonal = {}
        for i in range(block.rows):
            for j in range(block.cols):
                key = i + j
                text = str(block.entry(i, j))
                assert by_antidiagonal.setdefault(key, text) == text


def test_toeplitz_entries_depend_only_on_diagonal():
    rng = random.Random(8)
    for _ in range(20):
        params = SpaceParams(rng.randrange(1, 5), rng.randrange(1, 5), rng.randrange(1, 5))
        which = rng.randrange(1, 5)
        block = build_g_block(which, params)
        by_diagonal = {}
        for i in range(block.rows):
            for j in range(block.cols):
                key = i - j
                text = str(block.entry(i, j))
                assert by_diagonal.setdefault(key, text) == text


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def test_assembled_shapes_for_example_parameters():
    spec = assemble_monad(SpaceParams(1, 2, 3))
    assert (spec.f.rows, spec.f.cols) == (3, 18)
    assert (spec.g.rows, spec.g.cols) == (18, 3)


def test_assembled_shapes_small():
    spec = assemble_monad(SpaceParams(1, 1, 1))
    assert (spec.f.rows, spec.f.cols) == (1, 8)
    assert (spec.g.rows, spec.g.cols) == (8, 1)
    assert matrix_mul(spec.f, spec.g) == [[{}]]


def test_sign_convention_negatives_in_f_blocks_two_and_four():
    params = SpaceParams(1, 1, 2)
    spec = assemble_monad(params)
    width = params.n + params.k
    # x-block columns carry the negated second Hankel block
    assert str(spec.f.entry(0, width)) == "0"
    assert str(spec.f.entry(0, width + 1)) == "-x1"
    # g is sign-free
    for entry in spec.g.entries:
        for _, _, coeff in entry:
            assert coeff > 0


def test_bundle_labels():
    params = SpaceParams(2, 3, 1)
    spec = assemble_monad(params)
    assert spec.source == source_bundle(params)
    assert spec.middle == middle_bundle(params)
    assert spec.target == target_bundle(params)
    mults = {deg.as_tuple(): mult for deg, mult in spec.middle.summands}
    assert mults == {
        (0, -1, 0, 0): params.n + params.k,
        (-1, 0, 0, 0): params.n + params.k,
        (0, 0, -1, 0): params.m + params.k,
        (0, 0, 0, -1): params.m + params.k,
    }
    assert dict(spec.source.summands) == {MultiDegree(-1, -1, -1, -1): params.k}
    assert dict(spec.target.summands) == {MultiDegree(1, 1, 1, 1): params.k}


def test_structural_problems_empty_for_canonical_build():
    for nmk in [(1, 1, 1), (1, 2, 3), (3, 2, 2)]:
        assert assemble_monad(SpaceParams(*nmk)).structural_problems() == []


def test_structural_problems_detect_wrong_group():
    spec = assemble_monad(SpaceParams(1, 1, 1))
    # replace g's leading x-block with a t-variable block: wrong group
    blocks = [build_g_block(which, spec.params) for which in (4, 2, 3, 4)]
    bad_g = PolyMatrix(spec.g.rows, spec.g.cols, [p for b in blocks for p in b.entries])
    tampered = replaced(spec, g=bad_g)
    assert tampered.structural_problems() != []


def test_structural_problems_detect_wrong_shape():
    spec = assemble_monad(SpaceParams(1, 1, 2))
    tampered = replaced(spec, f=build_f_block(1, spec.params))
    assert any("column" in p or "shape" in p for p in tampered.structural_problems())


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------


# verify_composition takes f*g = 0 for an assembled monad from the identity;
# these tests multiply it out by name, as criterion 1 does

def test_composition_zero_on_small_grid():
    for n in (1, 2):
        for m in (1, 2):
            for k in (1, 2):
                spec = assemble_monad(SpaceParams(n, m, k))
                assert composition_by_product(spec) and verify_composition(spec)


def test_composition_zero_named_cases():
    for params in (SpaceParams(1, 2, 3), SpaceParams(3, 2, 2)):
        spec = assemble_monad(params)
        assert composition_by_product(spec) and verify_composition(spec)


def test_block_identities():
    for nmk in [(1, 1, 1), (1, 2, 3), (2, 2, 1)]:
        products = block_products(assemble_monad(SpaceParams(*nmk)))
        assert products[0] == products[1]
        assert products[2] == products[3]


def swapped_g_blocks(params: SpaceParams) -> MonadSpec:
    """The assembled monad with g blocks 1 and 2 exchanged."""
    spec = assemble_monad(params)
    blocks = [build_g_block(which, params) for which in (2, 1, 3, 4)]
    swapped = PolyMatrix(spec.g.rows, spec.g.cols, [p for b in blocks for p in b.entries])
    return replaced(spec, g=swapped)


def scaled_band_scalar(params: SpaceParams) -> MonadSpec:
    """The assembled monad with its first f entry times 5: still on the
    staircase band, but not `assemble_monad`'s document."""
    spec = assemble_monad(params)
    entries = list(spec.f.entries)
    j = next(j for j, form in enumerate(entries) if form)
    entries[j] = LinearForm.of((g, i, 5 * c) for g, i, c in entries[j])
    return replaced(spec, f=PolyMatrix(spec.f.rows, spec.f.cols, entries))


def test_composition_fails_with_swapped_g_blocks():
    assert not verify_composition(swapped_g_blocks(SpaceParams(1, 2, 3)))


class Called(Exception):
    pass


def refuse(*_args):
    raise Called


@pytest.mark.parametrize("tamper", [swapped_g_blocks, scaled_band_scalar])
def test_composition_of_any_other_document_is_multiplied_out(monkeypatch, tamper):
    spec = tamper(SpaceParams(1, 2, 3))
    assert has_staircase_shape(spec, DEFAULT_PRIME) == (tamper is scaled_band_scalar)
    assert not composition_by_product(spec)
    monkeypatch.setattr(monad_module, "matrix_mul", refuse)
    with pytest.raises(Called):
        verify_composition(spec)


def test_band_walk_is_memoised_for_the_current_matrices(monkeypatch):
    walks = []
    walk = monad_module._band_walk
    monkeypatch.setattr(monad_module, "_band_walk", lambda spec: walks.append(1) or walk(spec))
    spec = assemble_monad(SpaceParams(1, 2, 3))
    assert spec.structural_problems() == [] and verify_composition(spec)
    assert verify_maximal_rank(spec).maximal and len(walks) == 1
    # a spec whose g is replaced is walked again, not read from the memo
    spec.g = swapped_g_blocks(spec.params).g
    assert not verify_composition(spec) and len(walks) == 2
    assert spec.structural_problems() == structural_problems_by_two_walks(spec) != []


def test_composition_compares_shapes_before_assembling(monkeypatch):
    # params that do not fit the matrices must not make verify_composition
    # assemble a monad larger than its input; it multiplies what it was given
    spec = replaced(assemble_monad(SpaceParams(1, 1, 1)), params=SpaceParams(400, 1, 1))
    monkeypatch.setattr(monad_module, "assemble_monad", refuse)
    assert verify_composition(spec)


def as_coefficient_matrices(table, rows: int, cols: int) -> dict:
    """A `matrix_mul` table in the oracle's form: one integer matrix per
    variable pair, named like "x0", holding that pair's coefficients."""
    out = {}
    for i, row in enumerate(table):
        for j, quad in enumerate(row):
            for (u, v), coeff in quad.items():
                key = ("xyzt"[u[0]] + str(u[1]), "xyzt"[v[0]] + str(v[1]))
                out.setdefault(key, [[0] * cols for _ in range(rows)])[i][j] = coeff
    return out


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_composition_and_block_products_match_coefficient_oracle(data):
    # mutated documents: coefficients changed, entries swapped, blocks of
    # equal size swapped; most keep their structure, and the product is
    # compared with the oracle whether or not they do
    n, m, k = data.draw(st.tuples(*[st.integers(1, 2)] * 3), label="n, m, k")
    doc = monad_to_json(assemble_monad(SpaceParams(n, m, k)))
    f, g = doc["f"]["entries"], doc["g"]["entries"]
    sizes = [n + k, n + k, m + k, m + k]
    offsets = [sum(sizes[:b]) for b in range(5)]
    cells = [(f, i, j) for i in range(k) for j in range(offsets[4])]
    cells += [(g, i, j) for i in range(offsets[4]) for j in range(k)]
    for _ in range(data.draw(st.integers(0, 3), label="mutations")):
        kind = data.draw(st.sampled_from(["coeff", "entries", "blocks"]))
        if kind == "coeff":
            entries, i, j = data.draw(st.sampled_from([c for c in cells if c[0][c[1]][c[2]]]))
            entries[i][j][0]["coeff"] = str(data.draw(st.integers(-3, 3)))
        elif kind == "entries":
            pair = st.lists(st.sampled_from(cells), min_size=2, max_size=2)
            (e1, i1, j1), (e2, i2, j2) = data.draw(pair)
            e1[i1][j1], e2[i2][j2] = e2[i2][j2], e1[i1][j1]
        else:
            same_size = [(a, b) for a in range(4) for b in range(a + 1, 4) if sizes[a] == sizes[b]]
            b1, b2 = data.draw(st.sampled_from(same_size))
            s1, s2 = slice(offsets[b1], offsets[b1 + 1]), slice(offsets[b2], offsets[b2 + 1])
            if data.draw(st.booleans(), label="swap in f"):
                for row in f:
                    row[s1], row[s2] = row[s2], row[s1]
            else:
                g[s1], g[s2] = g[s2], g[s1]
    spec = MonadSpec.from_json(json.loads(json.dumps(doc)))
    oracle = compose_by_coefficient_matrices(doc["f"], doc["g"])
    assert as_coefficient_matrices(matrix_mul(spec.f, spec.g), k, k) == oracle
    assert verify_composition(spec) == (not oracle)
    for b, product in enumerate(block_products(spec)):
        cut = slice(offsets[b], offsets[b + 1])
        f_block = {"rows": k, "cols": sizes[b], "entries": [row[cut] for row in f]}
        g_block = {"rows": sizes[b], "cols": k, "entries": g[cut]}
        expected = compose_by_coefficient_matrices(f_block, g_block)
        if b in (1, 3):  # block_products strips the sign f carries on these blocks
            expected = {key: [[-c for c in row] for row in mat] for key, mat in expected.items()}
        assert as_coefficient_matrices(product, k, k) == expected


# ---------------------------------------------------------------------------
# sampled maximal rank
# ---------------------------------------------------------------------------


def test_maximal_rank_example_parameters():
    spec = assemble_monad(SpaceParams(1, 2, 3))
    report = verify_maximal_rank(spec, trials=20, seed=0)
    assert report.maximal
    assert set(report.rank_f_samples) == {3}
    assert set(report.rank_g_samples) == {3}
    assert report.origin_rank_f == 0
    assert report.origin_rank_g == 0
    assert set(report.group_zero_ranks) == {"x", "y", "z", "t"}


def test_rank_at_partial_zero_point():
    # x = (1, 0), all other groups zero: the only surviving entries of the
    # 1x8 row are in the x-block, so the rank is exactly 1
    spec = assemble_monad(SpaceParams(1, 1, 1))
    point = [[1, 0], [0, 0], [0, 0], [0, 0]]  # x, y, z, t
    values = evaluate_matrix(spec.f, point, DEFAULT_PRIME)
    assert rank_over_field(values, DEFAULT_PRIME) == 1


def test_rank_report_deterministic_in_seed():
    spec = assemble_monad(SpaceParams(1, 1, 2))
    r1 = verify_maximal_rank(spec, trials=8, seed=42)
    r2 = verify_maximal_rank(spec, trials=8, seed=42)
    assert r1.to_json() == r2.to_json()
    r3 = verify_maximal_rank(spec, trials=8, seed=43)
    assert r3.maximal


def test_rank_two_primes():
    spec = assemble_monad(SpaceParams(2, 1, 1))
    for prime in (2**31 - 1, 10**9 + 7):
        report = verify_maximal_rank(spec, trials=10, seed=5, prime=prime)
        assert report.maximal
        assert report.prime == prime


def test_rank_trials_validation():
    spec = assemble_monad(SpaceParams(1, 1, 1))
    for certify in (verify_maximal_rank, sampled_rank_report):
        with pytest.raises(ValueError):
            certify(spec, trials=0)


# ---------------------------------------------------------------------------
# the staircase lemma against sampled elimination
# ---------------------------------------------------------------------------

PRIMES = (2**31 - 1, 10**9 + 7)


def band_cells(params):
    """(matrix, flat position, group, band index or None, D) for every entry
    of f and g, from the block laws: f-block (i, j) carries v_{D+k-1-i-j},
    g-block (i, j) carries v_{i-j}, where the index lies in [0, D]."""
    k = params.k
    sizes = [params.n + k, params.n + k, params.m + k, params.m + k]
    width = sum(sizes)
    cells = []
    offset = 0
    for b, size in enumerate(sizes):
        D = size - k
        # f-blocks in y, x, t, z; g-blocks in x, y, z, t
        f_group, g_group = "xyzt".index("yxtz"[b]), b
        for i in range(k):
            for j in range(size):
                index = D + k - 1 - i - j
                band = index if 0 <= index <= D else None
                cells.append(("f", i * width + offset + j, f_group, band, D))
        for i in range(size):
            for j in range(k):
                index = i - j
                band = index if 0 <= index <= D else None
                cells.append(("g", (offset + i) * k + j, g_group, band, D))
        offset += size
    return cells


def scalars(prime):
    """Band scalars that are nonzero mod `prime`; multiples of the other prime included."""
    other = PRIMES[1 - PRIMES.index(prime)]
    return st.one_of(
        st.sampled_from([c for c in range(-7, 8) if c]),
        st.integers(-(2**40), 2**40).filter(lambda c: c % prime),
        st.sampled_from([other, -other, 3 * other]),
    )


def staircase_spec(data, params, prime):
    """`assemble_monad` with every band scalar redrawn nonzero mod `prime`,
    and the cells of f and g listed."""
    spec = assemble_monad(params)
    entries = {"f": list(spec.f.entries), "g": list(spec.g.entries)}
    cells = band_cells(params)
    band = [c for c in cells if c[3] is not None]
    drawn = data.draw(
        st.lists(scalars(prime), min_size=len(band), max_size=len(band)), label="scalars"
    )
    for (name, pos, group, index, _), scalar in zip(band, drawn):
        entries[name][pos] = LinearForm(((group, index, scalar),))
    return entries, cells


def with_entries(params, entries):
    spec = assemble_monad(params)
    f = PolyMatrix(spec.f.rows, spec.f.cols, entries["f"])
    g = PolyMatrix(spec.g.rows, spec.g.cols, entries["g"])
    return replaced(spec, f=f, g=g)


def assert_same_report_as_elimination(data, spec, prime):
    trials = data.draw(st.integers(1, 3), label="trials")
    seed = data.draw(st.integers(0, 2**48), label="seed")
    report = verify_maximal_rank(spec, trials=trials, seed=seed, prime=prime)
    oracle = sampled_rank_report(spec, trials=trials, seed=seed, prime=prime)
    assert report.to_json() == oracle.to_json()
    return report


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_staircase_report_equals_elimination(data):
    params = SpaceParams(*data.draw(st.tuples(*[st.integers(1, 3)] * 3), label="n, m, k"))
    prime = data.draw(st.sampled_from(PRIMES), label="prime")
    entries, cells = staircase_spec(data, params, prime)
    band = [c for c in cells if c[3] is not None]
    zeroed = data.draw(st.lists(st.sampled_from(band), max_size=2, unique=True), label="zero mod p")
    for name, pos, group, index, _ in zeroed:
        multiple = data.draw(st.sampled_from([prime, -prime, 2 * prime, PRIMES[0] * PRIMES[1]]))
        entries[name][pos] = LinearForm(((group, index, multiple),))
    spec = with_entries(params, entries)
    assert has_staircase_shape(spec, prime) == (not zeroed)
    report = assert_same_report_as_elimination(data, spec, prime)
    assert spec.structural_problems() == structural_problems_by_two_walks(spec) == []
    assert verify_composition(spec) == composition_by_product(spec)
    if not zeroed:
        assert report.maximal


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_near_miss_leaves_the_band_and_keeps_the_report(data):
    params = SpaceParams(*data.draw(st.tuples(*[st.integers(1, 3)] * 3), label="n, m, k"))
    prime = data.draw(st.sampled_from(PRIMES), label="prime")
    entries, cells = staircase_spec(data, params, prime)
    assert has_staircase_shape(with_entries(params, entries), prime)
    band = [c for c in cells if c[3] is not None]
    off_band = [c for c in cells if c[3] is None]
    kinds = ["moved index", "extra term", "zeroed", "wrong group"]
    kinds += ["off band"] if off_band else []  # k = 1 blocks are all band
    kind = data.draw(st.sampled_from(kinds), label="kind")
    cell = data.draw(st.sampled_from(off_band if kind == "off band" else band), label="cell")
    name, pos, group, index, D = cell
    coeff = data.draw(st.sampled_from([-3, -2, -1, 1, 2, 3]), label="coeff")
    other = data.draw(st.sampled_from([s for s in range(D + 1) if s != index]), label="other index")
    if kind == "moved index":
        entries[name][pos] = LinearForm(((group, other, coeff),))
    elif kind == "extra term":
        entries[name][pos] = LinearForm.of(entries[name][pos] + ((group, other, coeff),))
    elif kind == "zeroed":
        entries[name][pos] = LinearForm()
    elif kind == "wrong group":
        wrong = data.draw(st.sampled_from([h for h in range(4) if h != group]), label="group")
        dim = (params.n, params.n, params.m, params.m)[wrong]
        entries[name][pos] = LinearForm(((wrong, min(index, dim), coeff),))
    else:
        entries[name][pos] = LinearForm(((group, data.draw(st.integers(0, D)), coeff),))
    spec = with_entries(params, entries)
    assert not has_staircase_shape(spec, prime)
    assert_same_report_as_elimination(data, spec, prime)
    # off the band, structure and composition take the general path
    assert spec.structural_problems() == structural_problems_by_two_walks(spec)
    assert verify_composition(spec) == composition_by_product(spec)


def test_staircase_monad_is_certified_without_elimination(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a staircase monad needs no evaluation or elimination")

    monkeypatch.setattr(monad_module, "rank_over_field", refuse)
    monkeypatch.setattr(monad_module, "evaluate_matrix", refuse)
    report = verify_maximal_rank(assemble_monad(SpaceParams(8, 8, 8)))
    assert report.maximal
    assert report.rank_f_samples == report.rank_g_samples == (8,) * 20
    assert (report.origin_rank_f, report.origin_rank_g) == (0, 0)
    assert report.group_zero_ranks == {group: (8, 8) for group in "xyzt"}


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_monad_json_round_trip():
    spec = assemble_monad(SpaceParams(1, 2, 2))
    blob = json.dumps(monad_to_json(spec))
    restored = MonadSpec.from_json(json.loads(blob))
    assert restored == spec
    assert restored.structural_problems() == []


@pytest.mark.parametrize(
    "path, value",
    [
        (("params", "n"), 2.7),
        (("params", "m"), 3.0),
        (("params", "k"), True),
        (("params", "n"), "2"),
        (("source", "params", "k"), 2.0),
        (("middle", "summands", 0, "multiplicity"), 4.0),
        (("middle", "summands", 0, "multiplicity"), "4"),
        (("target", "summands", 0, "degree", 2), 1.0),
        (("target", "summands", 0, "degree"), [1, 1, 1]),
        (("f", "rows"), 2.0),
        (("g", "cols"), False),
        (("g", "entries", 0, 0, 0, "exps", "x0"), 1.0),
    ],
)
def test_from_json_accepts_only_json_integers(path, value):
    doc = monad_to_json(assemble_monad(SpaceParams(2, 3, 2)))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises(ValueError):
        MonadSpec.from_json(doc)


# ---------------------------------------------------------------------------
# existence inequality on P^k
# ---------------------------------------------------------------------------


def test_floystad_worked_examples():
    assert floystad_check(1, 4, 1, 2) is True
    assert floystad_check(1, 2, 1, 5) is False
    assert floystad_check(2, 5, 2, 2) is True


def test_floystad_check_validates_its_arguments():
    with pytest.raises(ValueError, match="a must be a non-negative integer, got -1"):
        floystad_check(-1, 4, 1, 2)
    with pytest.raises(ValueError, match="c must be a non-negative integer, got 1.5"):
        floystad_check(1, 4, 1.5, 2)
    with pytest.raises(ValueError, match="k must be a positive integer, got 0"):
        floystad_check(1, 4, 1, 0)


BOOL_AS_INT = {
    "floystad_check": (
        lambda: floystad_check(True, 2, 1, 1), "a must be a non-negative integer, got True"
    ),
    "floystad_check k": (
        lambda: floystad_check(0, 2, 0, True), "k must be a positive integer, got True"
    ),
    "bott_h": (lambda: bott_h(True, 0, 0), "n must be a positive integer, got True"),
    "verify_maximal_rank": (
        lambda: verify_maximal_rank(assemble_monad(SpaceParams(1, 1, 1)), trials=True),
        "trials must be a positive integer, got True",
    ),
    "negative_component_violations": (
        lambda: negative_component_violations(
            SpaceParams(1, 1, 1), True, MultiDegree(1, 1, 1, 1)
        ),
        r"exterior power q=True out of range \[1, 8\]",
    ),
    "kunneth_h": (
        lambda: kunneth_h(SpaceParams(1, 1, 1), MultiDegree(0, 0, 0, 0), True),
        r"cohomological degree t=True out of range \[0, 4\]",
    ),
    "LineBundleSum": (
        lambda: LineBundleSum(SpaceParams(1, 1, 1), [(MultiDegree(0, 0, 0, 0), True)]),
        "multiplicity must be a non-negative integer, got True",
    ),
    "exterior_power_sum": (
        lambda: exterior_power_sum(middle_bundle(SpaceParams(1, 1, 1)), True),
        r"exterior power q=True out of range \[1, 8\]",
    ),
}


@pytest.mark.parametrize("name", list(BOOL_AS_INT))
def test_library_validators_refuse_a_bool_as_an_integer(name):
    # bool is an int subclass; each check reads `type(value) is not int`
    call, message = BOOL_AS_INT[name]
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_floystad_monotone_in_b():
    rng = random.Random(606)
    for _ in range(500):
        a, c = rng.randrange(0, 12), rng.randrange(0, 12)
        k = rng.randrange(1, 7)
        b = rng.randrange(0, 24)
        if floystad_check(a, b, c, k):
            assert floystad_check(a, b + 1, c, k)
