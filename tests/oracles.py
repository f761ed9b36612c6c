"""Independent oracles used to freeze expected values in the tests.

Each function here recomputes a quantity by a method deliberately different
from the library implementation -- direct enumeration, permutation-expansion
determinants, dense polynomial convolution, products of coefficient matrices
read straight from the JSON, scan rows rendered by json.dumps as a list of
dicts -- so agreement is evidence, not tautology.  None of them import from
the modules they check: the h^0 bound of the stability scan, a generating
function there, and the scan's negative-component witnesses, a direct
enumeration there, are rebuilt here from the exterior powers that
`cohomology.exterior_power_sum` enumerates summand by summand; the
certificate's closed-form LES collapse is checked against `les_propagate`
run on `twisted_dual_sequence`, whose left and middle tables are computed
from the line-bundle sums themselves.  Four oracles are the library's
earlier code.  The simplicity certificate is built field by field, each
field computed on its own as when the record stored it, from a scan and the
solved sequence.  The vanishing scan sums the generating function at every
twist of its box and stores every row; it shares the generating function
and the twist enumeration with the scan it checks, which sums only where the
negative-component lemma allows a nonzero row.  The two entry walks of
`MonadSpec.structural_problems`, which `verify --input` now makes in one
pass, run on every document.  The assembly builds the monad block by block
from the closed entry formulas, two blocks of f negated and the blocks
flattened into f and g, where the library builds f and g straight from one
staircase line per block.  The last section holds helpers that no command
runs and that the tests still use: a coordinate as a linear form, the
line-bundle operations, the Chern class of a sum, the Euler characteristic,
the scan's h^0 bound at one (q, twist), and the dict form of a matrix and
of a monad document that the streamed `build` output is compared against.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from monadforge.cohomology import CohTable, LineBundleSum, exterior_power_sum, line_bundle
from monadforge.les import CohProfile, ShortExactSeq, les_propagate
from monadforge.monad import (
    BLOCKS,
    MonadSpec,
    middle_bundle,
    source_bundle,
    target_bundle,
)
from monadforge.polyring import (
    GROUPS,
    LinearForm,
    MultiDegree,
    PolyMatrix,
    SpaceParams,
)
from monadforge.stability import (
    StabilityScanConfig,
    _check_wedge_index,
    _wedge_h0_series,
    enumerate_twists,
)


def h0_by_monomial_count(n: int, d: int) -> int:
    """dim H^0(P^n, O(d)) by listing the degree-d monomials in n+1 variables."""
    if d < 0:
        return 0
    count = 0
    for _ in itertools.combinations_with_replacement(range(n + 1), d):
        count += 1
    return count


def euler_char_pn(n: int, d: int) -> int:
    """chi(P^n, O(d)) via the rising-product form of the binomial C(d+n, n).

    The product formula is valid for every integer d (positive, in the
    vanishing strip, or below -n), with no case analysis.
    """
    value = Fraction(1)
    for j in range(1, n + 1):
        value *= Fraction(d + j, j)
    assert value.denominator == 1
    return int(value)


def _det_by_permutations(rows: Sequence[Sequence[int]], p: int) -> int:
    size = len(rows)
    total = 0
    for perm in itertools.permutations(range(size)):
        sign = 1
        # count inversions for the permutation sign
        for i in range(size):
            for j in range(i + 1, size):
                if perm[i] > perm[j]:
                    sign = -sign
        term = sign
        for i in range(size):
            term = term * rows[i][perm[i]]
        total += term
    return total % p


def rank_by_minors(rows: Sequence[Sequence[int]], p: int) -> int:
    """Rank over F_p as the largest r with a nonzero r x r minor.

    Exponential in the matrix size; intended for matrices up to ~5x5.
    """
    n_rows = len(rows)
    n_cols = len(rows[0]) if n_rows else 0
    for r in range(min(n_rows, n_cols), 0, -1):
        for row_idx in itertools.combinations(range(n_rows), r):
            for col_idx in itertools.combinations(range(n_cols), r):
                minor = [[rows[i][j] % p for j in col_idx] for i in row_idx]
                if _det_by_permutations(minor, p) != 0:
                    return r
    return 0


def rank_by_gauss_jordan(rows: Sequence[Sequence[int]], p: int) -> int:
    """Rank over F_p by Gauss-Jordan elimination: each pivot row is scaled to
    1 and its column cleared above and below, reaching reduced echelon form."""
    work = [list(r) for r in rows]
    nrows = len(work)
    ncols = len(work[0]) if nrows else 0
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, nrows) if work[r][col] % p != 0), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = pow(work[rank][col] % p, p - 2, p)
        work[rank] = [(v * inv) % p for v in work[rank]]
        for r in range(nrows):
            if r != rank and work[r][col] % p != 0:
                factor = work[r][col] % p
                work[r] = [(a - factor * b) % p for a, b in zip(work[r], work[rank])]
        rank += 1
    return rank


DenseQuad = Dict[Tuple[int, int, int, int], int]


def _dense_mul(f: DenseQuad, g: DenseQuad) -> DenseQuad:
    out: DenseQuad = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            key = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2], e1[3] + e2[3])
            out[key] = out.get(key, 0) + c1 * c2
    return {k: v for k, v in out.items() if v}


def degree_by_expansion(c1: Sequence[int], n: int, m: int) -> int:
    """deg_L of a bundle with first Chern class c1 on P^n x P^n x P^m x P^m.

    Expands (a+b+c+d)^(2n+2m-1) by dense convolution in Z[a,b,c,d], multiplies
    by the linear class, and reads off the coefficient of a^n b^n c^m d^m.  No
    quotient-ring truncation is involved.
    """
    ell: DenseQuad = {
        (1, 0, 0, 0): 1,
        (0, 1, 0, 0): 1,
        (0, 0, 1, 0): 1,
        (0, 0, 0, 1): 1,
    }
    power: DenseQuad = {(0, 0, 0, 0): 1}
    for _ in range(2 * n + 2 * m - 1):
        power = _dense_mul(power, ell)
    linear: DenseQuad = {
        (1, 0, 0, 0): c1[0],
        (0, 1, 0, 0): c1[1],
        (0, 0, 1, 0): c1[2],
        (0, 0, 0, 1): c1[3],
    }
    product = _dense_mul(linear, power)
    return product.get((n, n, m, m), 0)


def exterior_by_subsets(
    degrees: Iterable[Tuple[int, int, int, int]], q: int
) -> Counter:
    """Multiset of summand degrees of the q-th exterior power of a sum of
    line bundles, by enumerating q-element subsets of an explicit factor list.
    """
    factors: List[Tuple[int, int, int, int]] = list(degrees)
    out: Counter = Counter()
    for subset in itertools.combinations(range(len(factors)), q):
        total = (0, 0, 0, 0)
        for idx in subset:
            d = factors[idx]
            total = (total[0] + d[0], total[1] + d[1], total[2] + d[2], total[3] + d[3])
        out[total] += 1
    return out


def wedge_h0_by_exterior_power(
    params: SpaceParams, q: int, twists: Iterable[MultiDegree]
) -> List[int]:
    """h^0(Lambda^q(G_n (+) G_m)(tw)) for each twist, summed over the summands
    of the enumerated exterior power of the middle bundle."""
    wedge = exterior_power_sum(middle_bundle(params), q)
    return [h0_of_sum(twist(wedge, tw)) for tw in twists]


def negative_component_violations_by_exterior_power(
    params: SpaceParams, q: int, tw: MultiDegree
) -> List[MultiDegree]:
    """The summands of Lambda^q(G_n (+) G_m)(tw) with no negative component,
    read off the enumerated exterior power in its canonical (ascending) order."""
    wedge = exterior_power_sum(middle_bundle(params), q)
    shifted = [deg + tw for deg, _mult in wedge.summands]
    return [deg for deg in shifted if min(deg.as_tuple()) >= 0]


def twisted_dual_sequence(params: SpaceParams) -> ShortExactSeq:
    """The (-1,-1,-1,-1)-twist of the dual of 0 -> T -> G -> O(1,1,1,1)^k -> 0,

        0 -> O(-2,-2,-2,-2)^k -> G*(-1,-1,-1,-1) -> T*(-1,-1,-1,-1) -> 0,

    with exact tables for the two line-bundle sums and the right member
    unknown: the input from which `les_propagate` solves for T*(-1,-1,-1,-1).
    """
    shift = MultiDegree(-1, -1, -1, -1)
    left = line_bundle(params, MultiDegree(-2, -2, -2, -2), params.k)
    middle = twist(dual(middle_bundle(params)), shift)
    return ShortExactSeq(
        left=CohProfile.of_sum(left),
        middle=CohProfile.of_sum(middle),
        right=CohProfile.unknown(),
        dim_top=params.dim_x,
    )


def certificate_by_fields(scan) -> dict:
    """The simplicity certificate's JSON document for the vanishing scan
    `scan` (a report of the certificate's own box), built field by field as
    the record that stored each field did: t_stable from the scan verdict,
    the twisted dual sequence solved by `les_propagate`, h^0 and h^1 read from
    its right member, and the conclusion gated on all three (the library
    gates on the scan alone, since the closed form makes h^0 = h^1 = 0)."""
    params = scan.config.params
    seq = les_propagate(twisted_dual_sequence(params))
    h0 = seq.right.bounds(0, seq.dim_top)
    h1 = seq.right.bounds(1, seq.dim_top)
    t_stable = scan.verdict == "ALL_VANISH"
    if not t_stable:
        conclusion, reason = "INCONCLUSIVE", "stability scan failed"
    elif h0 != (0, 0) or h1 != (0, 0):
        conclusion, reason = (
            "INCONCLUSIVE",
            "cohomology intervals of T*(-1,-1,-1,-1) did not collapse to zero",
        )
    else:
        conclusion, reason = "SIMPLE_CERTIFIED", None
    return {
        "params": params.to_json(),
        "rank_E": 2 * params.n + 2 * params.m + 2 * params.k,
        "h0_T_dual_twisted": list(h0),
        "h1_T_dual_twisted": list(h1),
        "t_stable": t_stable,
        "stability": scan.to_json(include_checked=False),
        "sequence": {
            "left": seq.left.to_json(),
            "middle": seq.middle.to_json(),
            "right": seq.right.to_json(),
            "dim_top": seq.dim_top,
        },
        "conclusion": conclusion,
        "reason": reason,
        "argument": (
            "T stable => T simple => h0(T x T*) = 1; vanishing of h0 and h1 of "
            "T*(-1,-1,-1,-1) lifts sections along the twisted dual sequence, "
            "giving 1 <= h0(E x E*) <= h0(E x T*) = h0(T x T*) = 1"
        ),
    }


def _coefficient_matrices(matrix: dict) -> Dict[str, List[List[int]]]:
    """Per variable name, the rows x cols integer matrix of its coefficients
    in a JSON matrix of linear forms."""
    rows, cols = matrix["rows"], matrix["cols"]
    out: Dict[str, List[List[int]]] = {}
    for i, row in enumerate(matrix["entries"]):
        for j, cell in enumerate(row):
            for term in cell:
                ((name, _),) = term["exps"].items()
                coeffs = out.setdefault(name, [[0] * cols for _ in range(rows)])
                coeffs[i][j] += int(term["coeff"])
    return out


def _dense_matmul(a: List[List[int]], b: List[List[int]]) -> List[List[int]]:
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def compose_by_coefficient_matrices(
    f_json: dict, g_json: dict
) -> Dict[Tuple[str, str], List[List[int]]]:
    """f * g of two JSON matrices of linear forms, read as coefficient matrices.

    Writing f = sum_u F_u u and g = sum_v G_v v over the variables, the
    coefficient of u*v in f * g is F_u G_v + F_v G_u for u < v and F_u G_u
    for u = v (variables ordered x < y < z < t, then by index).  Returns
    those matrices keyed by (u, v), leaving out the pairs whose matrix is 0,
    so f * g = 0 exactly when the result is empty.
    """
    F, G = _coefficient_matrices(f_json), _coefficient_matrices(g_json)
    zero_f = [[0] * f_json["cols"] for _ in range(f_json["rows"])]
    zero_g = [[0] * g_json["cols"] for _ in range(g_json["rows"])]
    names = sorted(set(F) | set(G), key=lambda s: ("xyzt".index(s[0]), int(s[1:])))
    out: Dict[Tuple[str, str], List[List[int]]] = {}
    for a, u in enumerate(names):
        for v in names[a:]:
            total = _dense_matmul(F.get(u, zero_f), G.get(v, zero_g))
            if u != v:
                other = _dense_matmul(F.get(v, zero_f), G.get(u, zero_g))
                total = [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(total, other)]
            if any(any(row) for row in total):
                out[(u, v)] = total
    return out


def scan_rows_as_dicts(rows: Iterable[Tuple[int, MultiDegree, int]]) -> List[dict]:
    """The scan rows (q, twist, h0) as the list of JSON objects json.dumps
    renders for `checked`: the document the streamed rows must reproduce."""
    return [{"q": q, "twist": list(tw.as_tuple()), "h0": h0} for q, tw, h0 in rows]


@dataclass(frozen=True)
class ScanBySeries:
    """A vanishing scan with every row stored, and its JSON forms built by
    walking those rows."""

    config: StabilityScanConfig
    checked: Tuple[Tuple[int, MultiDegree, int], ...]
    verdict: str
    counterexample: Optional[Tuple[int, MultiDegree]]

    def to_json(self, include_checked: bool = True) -> dict:
        doc = {
            "config": self.config.to_json(),
            "entries_checked": len(self.checked),
            "verdict": self.verdict,
            "counterexample": (
                None
                if self.counterexample is None
                else {"q": self.counterexample[0], "twist": list(self.counterexample[1].as_tuple())}
            ),
        }
        if include_checked:
            doc["checked"] = self.checked
        else:
            doc["nonzero"] = [
                {"q": q, "twist": list(tw.as_tuple()), "h0": h} for q, tw, h in self.checked if h
            ]
        return doc


def stability_scan_by_series(cfg: StabilityScanConfig) -> ScanBySeries:
    """`stability.run_stability_scan` without the negative-component lemma:
    the generating function summed at every twist of the box, and a row
    tuple for every (q, twist)."""
    twists = list(enumerate_twists(cfg))
    series = [_wedge_h0_series(cfg.params, cfg.max_q, tw) for tw in twists]
    checked = [
        (q, tw, h0[q]) for q in range(1, cfg.max_q + 1) for tw, h0 in zip(twists, series)
    ]
    counterexample = next(((q, tw) for q, tw, h in checked if h != 0), None)
    return ScanBySeries(
        config=cfg,
        checked=tuple(checked),
        verdict="ALL_VANISH" if counterexample is None else "COUNTEREXAMPLE",
        counterexample=counterexample,
    )


def _block_by_formula(group: str, params: SpaceParams, hankel: bool) -> PolyMatrix:
    """A k x (D+k) Hankel block, entry (i, j) = v_{D+k-1-i-j}, or a
    (D+k) x k Toeplitz block, entry (i, j) = v_{i-j}, each where the index
    lies in [0, D] and 0 elsewhere: the closed entry formulas, cell by cell."""
    D, k = params.group_dim(group), params.k
    rows, cols = (k, D + k) if hankel else (D + k, k)
    entries = []
    for i in range(rows):
        for j in range(cols):
            idx = D + k - 1 - i - j if hankel else i - j
            entries.append(variable_form(group, idx) if 0 <= idx <= D else LinearForm())
    return PolyMatrix(rows, cols, entries)


def assemble_by_blocks(params: SpaceParams) -> MonadSpec:
    """The monad assembled block by block: f-blocks in y, x, t, z and
    g-blocks in x, y, z, t built entry by entry, blocks 2 and 4 of f negated
    as whole matrices, then f flattened row by row across its blocks and g
    block after block."""
    f_blocks = [_block_by_formula(v, params, hankel=True) for v in "yxtz"]
    f_blocks = [f_blocks[0], -f_blocks[1], f_blocks[2], -f_blocks[3]]
    g_blocks = [_block_by_formula(v, params, hankel=False) for v in "xyzt"]
    k = params.k
    width = sum(block.cols for block in f_blocks)
    f = PolyMatrix(k, width, [p for i in range(k) for block in f_blocks for p in block.row(i)])
    g = PolyMatrix(width, k, [p for block in g_blocks for p in block.entries])
    return MonadSpec(
        params=params,
        source=source_bundle(params),
        middle=middle_bundle(params),
        target=target_bundle(params),
        f=f,
        g=g,
    )


def structural_problems_by_two_walks(spec: MonadSpec) -> List[str]:
    """`MonadSpec.structural_problems` with both entry walks run on every
    document: shapes, then block groups, then variable ranges, then labels."""
    problems: List[str] = []
    params = spec.params
    k = params.k
    sizes = [params.n + k, params.n + k, params.m + k, params.m + k]
    width = sum(sizes)
    if (spec.f.rows, spec.f.cols) != (k, width):
        problems.append(f"f has shape {spec.f.rows}x{spec.f.cols}, expected {k}x{width}")
    if (spec.g.rows, spec.g.cols) != (width, k):
        problems.append(f"g has shape {spec.g.rows}x{spec.g.cols}, expected {width}x{k}")
    if not problems:
        offsets = [sum(sizes[:b]) for b in range(5)]
        for b, (f_name, g_name, _) in enumerate(BLOCKS):
            f_group, g_group = GROUPS.index(f_name), GROUPS.index(g_name)
            for pos in range(offsets[b], offsets[b + 1]):
                for i in range(k):
                    if any(g != f_group for g, _, _ in spec.f.entry(i, pos)):
                        problems.append(
                            f"f entry ({i},{pos}) is not a linear form in the "
                            f"block-{b + 1} group {f_name!r}"
                        )
                for j in range(k):
                    if any(g != g_group for g, _, _ in spec.g.entry(pos, j)):
                        problems.append(
                            f"g entry ({pos},{j}) is not a linear form in the "
                            f"block-{b + 1} group {g_name!r}"
                        )
    dims = [params.n, params.n, params.m, params.m]
    for name, matrix in (("f", spec.f), ("g", spec.g)):
        for i in range(matrix.rows):
            for j in range(matrix.cols):
                foreign = [
                    f"{GROUPS[g]}{idx}" for g, idx, _ in matrix.entry(i, j) if idx > dims[g]
                ]
                if foreign:
                    problems.append(
                        f"{name} entry ({i},{j}) uses "
                        f"{', '.join(foreign)}, outside the "
                        f"coordinates x0..x{params.n}, y0..y{params.n}, "
                        f"z0..z{params.m}, t0..t{params.m}"
                    )
    if spec.source != source_bundle(params):
        problems.append("source bundle label differs from O(-1,-1,-1,-1)^k")
    if spec.middle != middle_bundle(params):
        problems.append("middle bundle label differs from the standard four-class sum")
    if spec.target != target_bundle(params):
        problems.append("target bundle label differs from O(1,1,1,1)^k")
    return problems


# ---------------------------------------------------------------------------
# library-only helpers: reached by no command, used by the tests
# ---------------------------------------------------------------------------


def variable_form(group: str, index: int) -> LinearForm:
    """The coordinate `group`_`index` as a linear form."""
    return LinearForm(((GROUPS.index(group), index, 1),))


def twist(S: LineBundleSum, d: MultiDegree) -> LineBundleSum:
    """Tensor every summand by O_X(d)."""
    return LineBundleSum(S.params, [(deg + d, mult) for deg, mult in S.summands])


def dual(S: LineBundleSum) -> LineBundleSum:
    """The dual sum: every summand degree negated."""
    return LineBundleSum(S.params, [(deg.scale(-1), mult) for deg, mult in S.summands])


def h0_of_sum(S: LineBundleSum) -> int:
    """Global sections of a direct sum, from the h^0 closed form alone."""
    n, m = S.params.n, S.params.m
    total = 0
    for deg, mult in S.summands:
        a, b, c, d = deg.as_tuple()
        if min(a, b, c, d) >= 0:
            total += mult * comb(n + a, n) * comb(n + b, n) * comb(m + c, m) * comb(m + d, m)
    return total


def c1_of_sum(S: LineBundleSum) -> MultiDegree:
    """First Chern class of a direct sum: multiplicity-weighted degree sum."""
    total = MultiDegree(0, 0, 0, 0)
    for deg, mult in S.summands:
        total = total + deg.scale(mult)
    return total


def euler(table: CohTable) -> int:
    """The alternating sum of a dimension table."""
    return sum((-1) ** i * v for i, v in enumerate(table.dims))


def h0_wedge_T_upper(params: SpaceParams, q: int, tw: MultiDegree) -> int:
    """Exact h^0(Lambda^q(G_n (+) G_m)(tw)), the scan's upper bound for
    h^0(Lambda^q T(tw)), for 1 <= q <= rank(G_n (+) G_m) (ValueError
    otherwise): one coefficient of the scan's generating function."""
    _check_wedge_index(params, q)
    return _wedge_h0_series(params, q, tw)[q]


def matrix_to_json(A: PolyMatrix) -> dict:
    """The dict tree of a matrix's JSON form, every term built as a dict."""

    def cell(form: LinearForm) -> List[dict]:
        return [{"coeff": str(c), "exps": {f"{GROUPS[g]}{i}": 1}} for g, i, c in form]

    entries = [[cell(form) for form in A.row(r)] for r in range(A.rows)]
    return {"rows": A.rows, "cols": A.cols, "entries": entries}


def monad_to_json(spec: MonadSpec) -> dict:
    """The monad document as a dict tree: what `canonical_chunks` renders
    for `MonadSpec.json_template`."""
    return {**spec.json_template(), "f": matrix_to_json(spec.f), "g": matrix_to_json(spec.g)}
