"""Numerical invariants of the kernel bundle T and the vanishing scan.

deg and slope are measured against L = O(1,1,1,1).  The scan probes
h^0((Lambda^q T)(-p)) over a finite box of twists; an empty nonzero list is
the stability certificate, and a deliberately out-of-regime box shows the
scan reporting a counterexample instead of passing vacuously.

Run:  python3 demos/invariants_and_stability.py
"""

import itertools

from monadforge import (
    SpaceParams,
    StabilityScanConfig,
    invariants_of_T,
    normalization_shift,
    run_stability_scan,
)
from monadforge.chow import degree_simplification_check


def main() -> None:
    print("invariants of T = ker(g), polarized by L = O(1,1,1,1):")
    for n, m, k in itertools.product((1, 2), (1, 2), (1, 3)):
        inv = invariants_of_T(SpaceParams(n, m, k))
        print(
            f"  (n,m,k)=({n},{m},{k}): rank {inv.rank:2d}, c1 {inv.c1.as_tuple()}, "
            f"deg_L {inv.degree_L:6d}, slope {inv.to_json()['slope']}"
        )
    print()

    params = SpaceParams(1, 2, 3)
    inv = invariants_of_T(params)
    print(f"normalization shift at (1,2,3): {normalization_shift(inv, params)}")
    check = degree_simplification_check(inv, params)
    print(
        "degree cross-check: exact {exact_degree}, uniform-weight shortcut "
        "{uniform_weight_shortcut}, agree={agree}".format(**check)
    )
    print()

    cfg = StabilityScanConfig(params)
    report = run_stability_scan(cfg)
    print(
        f"scan at (1,2,3): q <= {cfg.max_q}, |p_i| <= {cfg.component_bound}, "
        f"0 <= sum(p) <= {cfg.max_psum}"
    )
    print(f"  rows checked: {len(report.checked)}, verdict: {report.verdict}")
    print()

    # allow negative twist sums and the vanishing genuinely fails
    adversarial = StabilityScanConfig(params, max_q=2, min_psum=-2, component_bound=2)
    report = run_stability_scan(adversarial)
    q, tw, h = report.nonzero[0]
    print(f"out-of-regime box (sum(p) >= -2): verdict {report.verdict}")
    print(f"  first witness: q={q}, twist {tw.as_tuple()}, h^0 = {h}")


if __name__ == "__main__":
    main()
