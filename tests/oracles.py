"""Independent oracles used to freeze expected values in the tests.

Each function here recomputes a quantity by a method deliberately different
from the library implementation -- direct enumeration, permutation-expansion
determinants, dense polynomial convolution, products of coefficient matrices
read straight from the JSON, scan rows rendered by json.dumps as a list of
dicts -- so agreement is evidence, not tautology.  None of them import from
the modules they check: the h^0 bound of the stability scan, a generating
function there, and the scan's negative-component witnesses, enumerated
directly by `negative_component_violations` here, are rebuilt from the
exterior powers that `cohomology.exterior_power_sum` enumerates summand by
summand; the
certificate's closed-form LES collapse is checked against `les_propagate`
run on `twisted_dual_sequence`, whose left and middle tables are computed
from the line-bundle sums themselves.  Nine oracles are the library's
earlier code; two of them are the factorial quotients that `chow` now
computes as one product of binomials, and one the Kunneth convolution that
`sum_cohomology` now reads off one degree per factor.  The simplicity certificate is built
field by field, each field computed on its own as when the record stored it,
from a scan and the solved sequence.  The vanishing scan sums the generating
function at every twist of its box and stores every row; it shares the
generating function with the scan it checks, which sums only where the
negative-component lemma allows a nonzero row.  The two
entry walks of `MonadSpec.structural_problems` are restated over block
offsets summed from the block sizes.  The assembly builds the monad
block by block from the closed entry formulas, two blocks of f negated and
the blocks flattened into f and g, where the library builds f and g straight
from one staircase line per block.  The scan's twist box is enumerated twist
by twist in four nested loops, the same pruned loops as the library's `_box`,
which the tests hold equal to it and to the filtered cube; `enumerate_twists`
gives its twists as MultiDegrees.  The box's rows are written from one text
per twist of that enumeration, where the library writes them from tables of
texts per p-sum.  Two checks of the paper's statements that no command
makes live here too: the four block products f_b g_b (acceptance criterion
2) and Floystad's existence criterion for linear monads (criterion 10).  The
last section holds helpers that no command runs and that the tests still
use: the text of a linear form, a coordinate as a linear form, the negation
of a form and of a matrix, the difference of two multidegrees, the
line-bundle operations (direct sum, twist, dual) and the exact profile of a
sum, the Chern class of a sum, the Euler characteristic, the scan's h^0
bound at one (q, twist), and the dict form of a matrix and of a monad
document that the streamed `build` output is compared against.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from monadforge.chow import rank_of_T
from monadforge.cohomology import (
    CohTable,
    LineBundleSum,
    bott_h,
    exterior_power_sum,
    line_bundle,
    sum_cohomology,
)
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
    QuadraticForm,
    SpaceParams,
    checked_int,
    matrix_mul,
)
from monadforge.stability import StabilityScanConfig, _wedge_h0_series


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


def sum_cohomology_by_kunneth(S: LineBundleSum) -> CohTable:
    """The dimension table of a direct sum by the Kunneth convolution: for
    each summand, every choice of one degree per factor (0 or its dimension)
    with a nonzero h there, the product of the four h in the sum of the four
    degrees.  The library's earlier `sum_cohomology`."""
    params = S.params
    dims = [0] * (params.dim_x + 1)
    for deg, mult in S.summands:
        options = []
        for D, d in zip((params.n, params.n, params.m, params.m), deg.as_tuple()):
            pairs = ((i, bott_h(D, d, i)) for i in (0, D))
            options.append([(i, h) for i, h in pairs if h])
        for i1, v1 in options[0]:
            for i2, v2 in options[1]:
                for i3, v3 in options[2]:
                    for i4, v4 in options[3]:
                        dims[i1 + i2 + i3 + i4] += mult * v1 * v2 * v3 * v4
    return CohTable(tuple(dims))


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


def degree_by_factorials(c1: MultiDegree, params: SpaceParams) -> int:
    """deg_L as the library computed it before: delta_x and delta_z each
    divided out of (2n+2m-1)! by a product of four factorials."""
    n, m = params.n, params.m
    top = factorial(params.dim_x - 1)
    delta_x = top // (factorial(n - 1) * factorial(n) * factorial(m) * factorial(m))
    delta_z = top // (factorial(n) * factorial(n) * factorial(m - 1) * factorial(m))
    return (c1.a + c1.b) * delta_x + (c1.c + c1.d) * delta_z


def top_multinomial_by_factorials(params: SpaceParams) -> int:
    """L^(2n+2m) = (2n+2m)! / (n! n! m! m!), as the library computed it before."""
    n, m = params.n, params.m
    return factorial(2 * n + 2 * m) // (
        factorial(n) * factorial(n) * factorial(m) * factorial(m)
    )


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


def negative_component_violations(
    params: SpaceParams, q: int, tw: MultiDegree
) -> List[MultiDegree]:
    """Twisted Lambda^q(G_n (+) G_m) summands with NO strictly negative
    component, in ascending degree order.

    A summand of Lambda^q(G_n (+) G_m) has degree -j with sum(j) = q and
    0 <= j_i <= D_i + k, so tw - j has no negative component exactly when
    also j_i <= tw_i; these j are enumerated directly.  For every twist with
    p-sum >= 0 the list is empty (sum(tw - j) = -sum(p) - q < 0), which is the
    structural reason the vanishing scan passes; returning witnesses (rather
    than a bare bool) makes failures inspectable.  Raises ValueError unless
    1 <= q <= rank(G_n (+) G_m) = rank(T) + k.
    """
    rank = rank_of_T(params) + params.k
    if type(q) is not int or q < 1 or q > rank:
        raise ValueError(f"exterior power q={q!r} out of range [1, {rank}]")
    dims = (params.n, params.n, params.m, params.m)
    caps = [min(D + params.k, t) for D, t in zip(dims, tw.as_tuple())]
    # descending j_i is ascending tw_i - j_i: the tuples come out sorted
    return [
        difference(tw, MultiDegree(*j))
        for j in itertools.product(*(range(c, -1, -1) for c in caps))
        if sum(j) == q
    ]


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
        left=profile_of_sum(left),
        middle=profile_of_sum(middle),
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


def box_by_nested_loops(cb: int, lo: int, hi: int, top: int) -> Iterator[Tuple[int, int, int, int]]:
    """`stability._box` as four nested loops: the twists (-p1,-p2,-p3,-p4)
    with every p_i in [-cb, top] and lo <= p1+p2+p3+p4 <= hi, in
    lexicographic p-order, each p_i pruned to the values from which the p_j
    after it can still bring the sum into [lo, hi]."""

    def span(done: int, left: int) -> range:
        return range(max(-cb, lo - done - left * top), min(top, hi - done + left * cb) + 1)

    for p1 in span(0, 3):
        for p2 in span(p1, 2):
            for p3 in span(p1 + p2, 1):
                yield from ((-p1, -p2, -p3, -p4) for p4 in span(p1 + p2 + p3, 0))


def enumerate_twists(cfg: StabilityScanConfig) -> Iterator[MultiDegree]:
    """All twists (-p1,-p2,-p3,-p4) of cfg's box as MultiDegrees, in
    lexicographic p-order, as `box_by_nested_loops` gives them."""
    cb = cfg.component_bound
    return (MultiDegree(*tw) for tw in box_by_nested_loops(cb, cfg.min_psum, cfg.max_psum, cb))


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


def row_chunks_by_twist_texts(grid, indent: int, batch: int = 256) -> Iterator[str]:
    """`RowGrid.json_chunks` as the package wrote it before its tables per
    p-sum: one `"twist": [...]` text per twist of the box, in the order of
    `box_by_nested_loops`, built from three tables of component texts (the
    first component with the key, a middle one, the last closing the row)
    and reused for every q.  A stretch of zero rows of one q, cut at every
    multiple of `batch` rows, is one piece, a single join of its twist texts
    with the separator and the q's shared head put before the first; a
    nonzero row is one piece.  Its memory is one text per twist."""
    i, f, e = (" " * (indent + step) for step in (2, 4, 6))
    cfg = grid.config
    cb = cfg.component_bound
    first = {v: f'{f}"twist": [\n{e}{v},\n' for v in range(-cb, cb + 1)}
    middle = {v: f"{e}{v},\n" for v in range(-cb, cb + 1)}
    last = {v: f"{e}{v}\n{f}]\n{i}}}" for v in range(-cb, cb + 1)}
    twists = list(box_by_nested_loops(cb, cfg.min_psum, cfg.max_psum, cb))
    tails = [first[a] + middle[b] + middle[c] + last[d] for a, b, c, d in twists]
    if not tails:
        yield "[]"
        return
    index = {tw: j for j, tw in enumerate(twists)}
    marks: Dict[int, List[Tuple[int, int]]] = {}
    for q, tw, h0 in grid.nonzero:
        marks.setdefault(q, []).append((index[tw.as_tuple()], h0))
    sep = "[\n"
    for q in range(1, cfg.max_q + 1):
        head = f'{i}{{\n{f}"h0": 0,\n{f}"q": {q},\n'
        between = ",\n" + head
        nonzero = iter(marks.get(q, ()))
        mark, h0 = next(nonzero, (len(tails), 0))
        j = 0
        while j < len(tails):
            if j == mark:
                yield f'{sep}{i}{{\n{f}"h0": {h0},\n{f}"q": {q},\n' + tails[j]
                j += 1
                mark, h0 = next(nonzero, (len(tails), 0))
            else:
                end = min(mark, j - j % batch + batch)
                run = tails[j:end]
                run[0] = sep + head + run[0]
                yield between.join(run)
                j = end
            sep = ",\n"
    yield "\n" + " " * indent + "]"


def block_by_formula(group: str, params: SpaceParams, hankel: bool) -> PolyMatrix:
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
    f_blocks = [block_by_formula(v, params, hankel=True) for v in "yxtz"]
    f_blocks = [f_blocks[0], negated_matrix(f_blocks[1]), f_blocks[2], negated_matrix(f_blocks[3])]
    g_blocks = [block_by_formula(v, params, hankel=False) for v in "xyzt"]
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
    """`MonadSpec.structural_problems` restated, its block offsets summed
    from the block sizes: shapes, then block groups, then variable ranges,
    then labels."""
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


Product = List[List[QuadraticForm]]


def block_products(spec: MonadSpec) -> Tuple[Product, Product, Product, Product]:
    """The four k x k products (f1 g1, f2 g2, f3 g3, f4 g4), each f-block
    with the sign `BLOCKS` gives it stripped, as tables of quadratic forms
    (see `matrix_mul`).

    Cancellation happens pairwise: blocks 1 and 2 agree, blocks 3 and 4 agree.
    """
    params = spec.params
    k = params.k
    sizes = [params.n + k, params.n + k, params.m + k, params.m + k]
    offsets = [sum(sizes[:b]) for b in range(5)]
    out = []
    for b, (_, _, sign) in enumerate(BLOCKS):
        start, stop = offsets[b], offsets[b + 1]
        fblock = PolyMatrix(
            k, stop - start, [spec.f.entry(i, j) for i in range(k) for j in range(start, stop)]
        )
        if sign < 0:
            fblock = negated_matrix(fblock)
        gblock = PolyMatrix(stop - start, k, spec.g.entries[start * k : stop * k])
        out.append(matrix_mul(fblock, gblock))
    return tuple(out)  # type: ignore[return-value]


def floystad_check(a: int, b: int, c: int, k: int) -> bool:
    """Existence test for linear monads O(-1)^a -> O^b -> O(1)^c on P^k
    (Floystad, Monads on projective spaces, Comm. Algebra 28, 2000).

    Here a, b, c are bundle multiplicities (non-negative) and k >= 1 is the
    dimension of the ambient projective space.  The monad exists, with maps
    of maximal rank everywhere, iff

        (b >= 2c + k - 1  and  b >= a + c)   or   b >= a + c + k.

    Both branches are monotone in b: once satisfiable, raising b keeps it so.
    Raises ValueError for a negative multiplicity or k < 1.
    """
    for name, value in (("a", a), ("b", b), ("c", c)):
        checked_int(value, 0, name)
    checked_int(k, 1, "k")
    return (b >= 2 * c + k - 1 and b >= a + c) or b >= a + c + k


# ---------------------------------------------------------------------------
# library-only helpers: reached by no command, used by the tests
# ---------------------------------------------------------------------------


def negated(form: LinearForm) -> LinearForm:
    """The linear form -form, term by term."""
    return LinearForm((g, i, -c) for g, i, c in form)


def negated_matrix(A: PolyMatrix) -> PolyMatrix:
    """The matrix -A, entry by entry."""
    return PolyMatrix(A.rows, A.cols, [negated(p) for p in A.entries])


def difference(a: MultiDegree, b: MultiDegree) -> MultiDegree:
    """The multidegree a - b, component by component."""
    return MultiDegree(*(x - y for x, y in zip(a.as_tuple(), b.as_tuple())))


def direct_sum(*sums: LineBundleSum) -> LineBundleSum:
    """The direct sum of line-bundle sums on one space."""
    if not sums:
        raise ValueError("direct_sum of no summands")
    params = sums[0].params
    if any(s.params != params for s in sums):
        raise ValueError("direct_sum: mismatched space parameters")
    items: List[Tuple[MultiDegree, int]] = []
    for s in sums:
        items.extend(s.summands)
    return LineBundleSum(params, items)


def profile_of_sum(S: LineBundleSum) -> CohProfile:
    """The exact profile of a line-bundle sum: its full dimension table."""
    return CohProfile.exact(sum_cohomology(S))


def form_text(form: LinearForm) -> str:
    """A linear form as text, such as "-x0 + y1", "3*t2" or "0": its terms
    in canonical order, a coefficient of absolute value 1 left unwritten.
    The package's text of a form before `build --format text` rendered the
    staircase layout's own cell texts."""
    if not form:
        return "0"
    chunks: List[str] = []
    for group, index, coeff in form:
        name = f"{GROUPS[group]}{index}"
        body = name if abs(coeff) == 1 else f"{abs(coeff)}*{name}"
        if not chunks:
            chunks.append(body if coeff > 0 else f"-{body}")
        else:
            chunks.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(chunks)


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
    rank = middle_bundle(params).rank
    if type(q) is not int or q < 1 or q > rank:
        raise ValueError(f"exterior power q={q!r} out of range [1, {rank}]")
    return _wedge_h0_series(params, q, tw)[q]


def matrix_to_json(A: PolyMatrix) -> dict:
    """The dict tree of a matrix's JSON form, every term built as a dict."""

    def cell(form: LinearForm) -> List[dict]:
        return [{"coeff": str(c), "exps": {f"{GROUPS[g]}{i}": 1}} for g, i, c in form]

    entries = [[cell(form) for form in A.row(r)] for r in range(A.rows)]
    return {"rows": A.rows, "cols": A.cols, "entries": entries}


def entry_chunks(A: PolyMatrix, indent: int) -> Iterator[str]:
    """A's entry list as `canonical_chunks` writes a fill, closing bracket
    at column `indent`, a row of cells per piece; every distinct term is
    rendered once from one f-string, and every distinct cell once from its
    terms.  The package's general matrix writer before `build` wrote its
    entries from the staircase layout (`monad.BuiltEntries`)."""
    if not A.rows:
        yield "[]"
        return
    r, c, t, f, e = (" " * (indent + step) for step in (2, 4, 6, 8, 10))
    forms = set(A.entries)
    terms = {
        term: f'{t}{{\n{f}"coeff": "{term[2]}",\n{f}"exps": {{\n'
        f'{e}"{GROUPS[term[0]]}{term[1]}": 1\n{f}}}\n{t}}}'
        for term in set(itertools.chain.from_iterable(forms))
    }
    cells = {
        form: f"{c}[\n" + ",\n".join([terms[term] for term in form]) + f"\n{c}]"
        if form else f"{c}[]"
        for form in forms
    }
    for i in range(A.rows):
        row = ",\n".join([cells[form] for form in A.row(i)])
        yield ("[\n" if i == 0 else ",\n") + (f"{r}[\n{row}\n{r}]" if A.cols else f"{r}[]")
    yield "\n" + " " * indent + "]"


class MatrixEntries:
    """Any matrix's entries as a fill: `canonical_chunks` writes them by
    `entry_chunks`."""

    def __init__(self, matrix: PolyMatrix) -> None:
        self.matrix = matrix

    def json_chunks(self, indent: int) -> Iterator[str]:
        return entry_chunks(self.matrix, indent)


def monad_template(spec: MonadSpec) -> dict:
    """The monad document of any `spec`, {params, source, middle, target, f,
    g}, each matrix {rows, cols, entries} with its entries a
    `MatrixEntries` fill."""
    doc = {
        "params": spec.params.to_json(),
        "source": spec.source.to_json(),
        "middle": spec.middle.to_json(),
        "target": spec.target.to_json(),
    }
    for name, A in (("f", spec.f), ("g", spec.g)):
        doc[name] = {"rows": A.rows, "cols": A.cols, "entries": MatrixEntries(A)}
    return doc


def monad_to_json(spec: MonadSpec) -> dict:
    """The monad document as a dict tree: what `canonical_chunks` renders
    for `monad_template`."""
    return {**monad_template(spec), "f": matrix_to_json(spec.f), "g": matrix_to_json(spec.g)}
