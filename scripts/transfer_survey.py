#!/usr/bin/env python3
"""Survey state-transfer behavior on a grid of small coronas.

For each base/copy pairing: the periodicity verdict of the lifted base
vertex (0, 0), decided exactly from its support in the corona's labelled
classes, read from its factors as every command reads a spec
(`cli._decomposition`), and the maximum base-base fidelity seen on a dense
time grid (always strictly below 1), as `no-pst-scan` finds it.
"""

from coronawalk import corona_no_pst_check, periodicity_test
from coronawalk.cli import _decomposition, parse_graph_spec

BASES = [("P2", "path:2"), ("P3", "path:3"), ("C4", "cycle:4")]
COPIES = [("empty2", "empty:2"), ("empty3", "empty:3"), ("C3", "cycle:3"), ("K4", "complete:4")]


def main() -> None:
    print(f"{'corona':10} {'(v,0) periodic?':66} {'max base-base fidelity':>24}")
    for gname, base in BASES:
        for hname, copy in COPIES:
            spec = parse_graph_spec(f"corona({base},{copy})")
            support = _decomposition(spec, labelled=True).support(0)
            verdict = periodicity_test(support.exact, support.beyond_quadratic)
            note = verdict.periodic
            if verdict.reason:
                note += f" ({verdict.reason})"
            elif verdict.witness_period:
                note += f" (period {verdict.witness_period:.6f})"
            corona = _decomposition(spec)
            scan = corona_no_pst_check(corona, 0, corona.base.n - 1, 50.0, 5000)
            print(f"{gname}*{hname:7} {note:66} {scan.max_fidelity:>24.9f}")


if __name__ == "__main__":
    main()
