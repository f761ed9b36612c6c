"""Assemble the simplicity certificate for the cohomology bundle E.

The chain is: the vanishing scan certifies that T is stable, hence simple;
interval propagation through the twisted dual sequence pins
h^0 = h^1 = 0 for T*(-1,-1,-1,-1); and the two facts squeeze
1 <= h^0(E (x) E*) <= h^0(T (x) T*) = 1.  The certificate records every
intermediate table so the argument can be audited offline.

Run:  python3 demos/simplicity_certificate.py
"""

import json

from monadforge import SpaceParams, StabilityScanConfig, rank_of_E, simplicity_certificate


def show(params: SpaceParams, scan_cfg=None) -> None:
    cert = simplicity_certificate(params, scan_cfg=scan_cfg)
    nmk = (params.n, params.m, params.k)
    print(f"(n,m,k) = {nmk}: rank E = {cert.rank_E}")
    print(f"  scan verdict        : {cert.stability.verdict} (t_stable={cert.t_stable})")
    print(f"  h^0(T*(-1,-1,-1,-1)): interval {list(cert.h0_T_dual_twisted)}")
    print(f"  h^1(T*(-1,-1,-1,-1)): interval {list(cert.h1_T_dual_twisted)}")
    print(f"  conclusion          : {cert.conclusion}"
          + (f" ({cert.reason})" if cert.reason else ""))
    print()


def main() -> None:
    for nmk in [(1, 1, 1), (1, 2, 3), (3, 3, 3)]:
        show(SpaceParams(*nmk))

    assert rank_of_E(SpaceParams(1, 2, 3)) == 12

    # an under-powered scan box leaves the certificate inconclusive --
    # the LES intervals still collapse, but the stability leg is missing
    params = SpaceParams(1, 1, 1)
    weak = StabilityScanConfig(params, max_q=1, min_psum=-2, component_bound=2)
    show(params, scan_cfg=weak)

    cert = simplicity_certificate(SpaceParams(1, 2, 3))
    print("full JSON record (scan summarized to nonzero rows):")
    print(json.dumps(cert.to_json(), indent=2)[:400] + " ...")


if __name__ == "__main__":
    main()
