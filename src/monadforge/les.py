"""Long-exact-sequence interval propagation, and the simplicity certificate.

A short exact sequence of sheaves 0 -> A -> B -> C -> 0 induces the long
exact cohomology sequence

    ... -> H^i(A) -> H^i(B) -> H^i(C) -> H^{i+1}(A) -> ...

Knowing two of the three dimension tables pins the third one down to an
interval, using nothing but rank-nullity at each node (connecting maps are
never computable from dimensions alone, and are never needed here).  Flatten
the sequence to V = H^0(A), H^0(B), H^0(C), H^1(A), ..., so that V_j = H^i of
member j mod 3, i = j // 3, and write [l(V_j), h(V_j)] for what is known of
its dimension ([0, 0] outside degrees 0..dim_top).  Exactness at the unknown
node j, between the maps V_{j-2} -> V_{j-1} -> V_j -> V_{j+1} -> V_{j+2},
gives one rule for every slot:

    dim V_j <= h(V_{j-1}) + h(V_{j+1})
    dim V_j >= max(l(V_{j-1}) - h(V_{j-2}), l(V_{j+1}) - h(V_{j+2}), 0)

When every interval collapses the answer is reported as an exact table.
`les_propagate` applies this rule to any `ShortExactSeq` of `CohProfile`s.
No command calls it: it stays in the package because the benchmark's traced
run wraps it by name, and the tests' oracle solves the sequence below with
it.

The simplicity certificate chains two computable facts about the monad
bundles: the vanishing scan for T (stability of T implies T is simple, so
h^0(T (x) T*) = 1), and the vanishing of h^0 and h^1 of T*(-1,-1,-1,-1)
along the twisted dual of the defining sequence 0 -> T -> G_n (+) G_m ->
O(1,1,1,1)^k -> 0, that is

    0 -> O(-2,-2,-2,-2)^k -> G*(-1,-1,-1,-1) -> T*(-1,-1,-1,-1) -> 0.

That sequence needs no interval calculus: every summand O(e_i - (1,1,1,1)) of
the middle member has a -1 component, and O(-1) has no cohomology on any P^D, so
the middle member is acyclic, and the rule above with h = 0 at every middle
node is the closed form h^i(T*(-1,-1,-1,-1)) = h^{i+1}(O(-2,-2,-2,-2)^k).  By
Bott that is k in degree 2n+2m-1 >= 3 when n = m = 1 and 0 in every other
case, so h^0 = h^1 = 0 always and the certificate's verdict rests on the scan
alone, with the scan's scope (see `stability`).  The certificate states
these three tables directly and records h^0 and h^1 as read from them:
its document builds the sequence once and writes the tables, h^0 and h^1
from it, and the `h0_T_dual_twisted` and `h1_T_dual_twisted` properties
read the same right table for library callers.  The tests' oracle solves
the sequence with `les_propagate` and still gates on h^0 and h^1.  A
`SimplicityCertificate` stores the scan report alone and reads the tables,
h^0, h^1 and its conclusion from it, so no certificate can conclude what
its evidence does not support.  Together the two facts bound
1 <= h^0(E (x) E*) <= h^0(T (x) T*) = 1 for the cohomology bundle E, which is
the simplicity statement; the tensor-product cohomology itself is
deliberately never computed.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .cohomology import CohTable
from .polyring import Record, SpaceParams, checked_int
from .stability import StabilityScanConfig, run_stability_scan

EXACT = "exact"
UNKNOWN = "unknown"
INTERVAL = "interval"


class CohProfile(Record):
    """What is known about one member's cohomology table.

    kind is "exact" (table set), "unknown" (nothing known yet) or "interval"
    (per-degree [lo, hi] bounds with 0 <= lo <= hi).
    """

    __slots__ = ("kind", "table", "intervals")

    def __init__(
        self,
        kind: str,
        table: Optional[CohTable] = None,
        intervals: Optional[Tuple[Tuple[int, int], ...]] = None,
    ) -> None:
        if kind not in (EXACT, UNKNOWN, INTERVAL):
            raise ValueError(f"unknown profile kind {kind!r}")
        if kind == EXACT and table is None:
            raise ValueError("exact profile requires a table")
        if kind == INTERVAL:
            if intervals is None:
                raise ValueError("interval profile requires intervals")
            for lo, hi in intervals:
                if not (0 <= lo <= hi):
                    raise ValueError(f"malformed interval [{lo}, {hi}]")
        super().__init__(kind, table, intervals)

    @staticmethod
    def exact(table: CohTable) -> "CohProfile":
        return CohProfile(EXACT, table=table)

    @staticmethod
    def unknown() -> "CohProfile":
        return CohProfile(UNKNOWN)

    @staticmethod
    def interval(pairs: List[Tuple[int, int]]) -> "CohProfile":
        return CohProfile(INTERVAL, intervals=tuple((lo, hi) for lo, hi in pairs))

    def bounds(self, i: int, top: int) -> Tuple[int, int]:
        """[lo, hi] for h^i, with 0 outside [0, top]."""
        if i < 0 or i > top:
            return (0, 0)
        if self.kind == EXACT:
            v = self.table.dims[i]
            return (v, v)
        if self.kind == INTERVAL:
            return self.intervals[i]
        raise ValueError("bounds of an unknown profile are undefined")

    def to_json(self) -> dict:
        if self.kind == EXACT:
            return {"kind": EXACT, "dims": list(self.table.dims)}
        if self.kind == INTERVAL:
            return {"kind": INTERVAL, "intervals": [list(p) for p in self.intervals]}
        return {"kind": UNKNOWN}


class ShortExactSeq(Record):
    """Profiles for 0 -> left -> middle -> right -> 0 on a space with dim 2n+2m.

    dim_top must be a positive integer, every table and interval list must
    have dim_top + 1 entries, and at most one profile may be unknown.
    """

    __slots__ = ("left", "middle", "right", "dim_top")

    def __init__(
        self, left: CohProfile, middle: CohProfile, right: CohProfile, dim_top: int
    ) -> None:
        checked_int(dim_top, 1, "dim_top")
        for name, prof in (("left", left), ("middle", middle), ("right", right)):
            if prof.kind == EXACT and len(prof.table.dims) != dim_top + 1:
                raise ValueError(f"{name} table length does not match dim_top+1")
            if prof.kind == INTERVAL and len(prof.intervals) != dim_top + 1:
                raise ValueError(f"{name} intervals length does not match dim_top+1")
        unknowns = sum(1 for prof in (left, middle, right) if prof.kind == UNKNOWN)
        if unknowns > 1:
            raise ValueError("at most one profile may be unknown")
        super().__init__(left, middle, right, dim_top)


def les_propagate(seq: ShortExactSeq) -> ShortExactSeq:
    """Replace the single unknown profile with per-degree intervals.

    Bounds come from exactness alone, one rule on the flattened sequence
    (see module docstring).  If every interval collapses to a point the
    result is reported as an exact table.  Raises ValueError unless exactly
    one member is unknown.
    """
    members = [seq.left, seq.middle, seq.right]
    unknown = [slot for slot, prof in enumerate(members) if prof.kind == UNKNOWN]
    if len(unknown) != 1:
        raise ValueError(
            f"exactly one member must be unknown to propagate; found {len(unknown)}"
        )
    top = seq.dim_top

    def bounds(node: int) -> Tuple[int, int]:
        i, slot = divmod(node, 3)
        return members[slot].bounds(i, top)

    pairs: List[Tuple[int, int]] = []
    for j in range(unknown[0], 3 * top + 3, 3):
        (lo_before, hi_before), (lo_after, hi_after) = bounds(j - 1), bounds(j + 1)
        lo = max(lo_before - bounds(j - 2)[1], lo_after - bounds(j + 2)[1], 0)
        pairs.append((lo, hi_before + hi_after))

    if all(lo == hi for lo, hi in pairs):
        members[unknown[0]] = CohProfile.exact(CohTable(tuple(lo for lo, _ in pairs)))
    else:
        members[unknown[0]] = CohProfile.interval(pairs)
    return ShortExactSeq(*members, top)


def rank_of_E(params: SpaceParams) -> int:
    """Rank of the cohomology bundle E = H(monad): rank(G_n (+) G_m) - 2k = 2n+2m+2k."""
    return 2 * params.n + 2 * params.m + 2 * params.k


class SimplicityCertificate(Record):
    """Audit record of the simplicity argument for E: the vanishing scan
    report, from which every other attribute is read.

    `params` is the scan's; `sequence` is the collapsed twisted dual sequence
    (three exact tables), and h^0 and h^1 of T*(-1,-1,-1,-1) are read from
    its right table, which is (0, 0) in both degrees for every (n, m, k).
    conclusion is "SIMPLE_CERTIFIED" when the scan passed (t_stable), and
    otherwise "INCONCLUSIVE" with the reason "stability scan failed".  The
    final inequality chain 1 <= h^0(E (x) E*) <= h^0(T (x) T*) = 1 is
    recorded, not recomputed.
    """

    __slots__ = ("stability",)

    @property
    def params(self) -> SpaceParams:
        return self.stability.config.params

    @property
    def rank_E(self) -> int:
        return rank_of_E(self.params)

    @property
    def sequence(self) -> ShortExactSeq:
        return _twisted_dual_collapse(self.params)

    @property
    def h0_T_dual_twisted(self) -> Tuple[int, int]:
        seq = self.sequence
        return seq.right.bounds(0, seq.dim_top)

    @property
    def h1_T_dual_twisted(self) -> Tuple[int, int]:
        seq = self.sequence
        return seq.right.bounds(1, seq.dim_top)

    @property
    def t_stable(self) -> bool:
        return self.stability.all_vanish

    @property
    def reason(self) -> Optional[str]:
        return None if self.t_stable else "stability scan failed"

    @property
    def conclusion(self) -> str:
        return "SIMPLE_CERTIFIED" if self.reason is None else "INCONCLUSIVE"

    def to_json(self) -> dict:
        seq = self.sequence
        return {
            "params": self.params.to_json(),
            "rank_E": self.rank_E,
            "h0_T_dual_twisted": list(seq.right.bounds(0, seq.dim_top)),
            "h1_T_dual_twisted": list(seq.right.bounds(1, seq.dim_top)),
            "t_stable": self.t_stable,
            "stability": self.stability.to_json(include_checked=False),
            "sequence": {
                "left": seq.left.to_json(),
                "middle": seq.middle.to_json(),
                "right": seq.right.to_json(),
                "dim_top": seq.dim_top,
            },
            "conclusion": self.conclusion,
            "reason": self.reason,
            "argument": (
                "T stable => T simple => h0(T x T*) = 1; vanishing of h0 and h1 of "
                "T*(-1,-1,-1,-1) lifts sections along the twisted dual sequence, "
                "giving 1 <= h0(E x E*) <= h0(E x T*) = h0(T x T*) = 1"
            ),
        }


def _twisted_dual_collapse(params: SpaceParams) -> ShortExactSeq:
    """Exact tables of 0 -> O(-2,-2,-2,-2)^k -> G*(-1,-1,-1,-1) -> T*(-1,-1,-1,-1) -> 0.

    The middle member is acyclic (module docstring), so the right table is
    the left one shifted down by one degree.  O(-2) has cohomology only on
    P^1 (h^1 = 1), so the left table is k in the top degree when n = m = 1
    and zero otherwise.
    """
    top = params.dim_x
    left = [0] * (top + 1)
    if params.n == params.m == 1:
        left[top] = params.k
    return ShortExactSeq(
        left=CohProfile.exact(CohTable(tuple(left))),
        middle=CohProfile.exact(CohTable((0,) * (top + 1))),
        right=CohProfile.exact(CohTable(tuple(left[1:]) + (0,))),
        dim_top=top,
    )


def simplicity_certificate(
    params: SpaceParams, scan_cfg: Optional[StabilityScanConfig] = None
) -> SimplicityCertificate:
    """Run the vanishing scan; the certificate reads its conclusion from it.

    scan_cfg defaults to `StabilityScanConfig(params)`.  A scan verdict other
    than ALL_VANISH yields INCONCLUSIVE with reason "stability scan failed";
    nothing else can, since h^0 and h^1 of T*(-1,-1,-1,-1), read from the
    collapsed sequence's right table, are zero for every (n, m, k).
    """
    if scan_cfg is None:
        scan_cfg = StabilityScanConfig(params)
    elif scan_cfg.params != params:
        raise ValueError("scan_cfg is configured for different space parameters")
    return SimplicityCertificate(run_stability_scan(scan_cfg))
