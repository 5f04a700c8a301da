#!/usr/bin/env python3
"""Survey state-transfer behavior on a grid of small coronas.

For each base/copy pairing: the periodicity verdict of the lifted base
vertex (0, 0), decided exactly from its support in the closed form built
from the labelled factors, and the maximum base-base fidelity seen on a
dense time grid (always strictly below 1).
"""

from coronawalk import (
    CoronaSpec,
    complete_graph,
    corona_no_pst_check,
    corona_spectral_closed_form,
    cycle_graph,
    empty_graph,
    exact_decomposition,
    path_graph,
    periodicity_test,
)

BASES = [("P2", path_graph(2)), ("P3", path_graph(3)), ("C4", cycle_graph(4))]
COPIES = [
    ("empty2", empty_graph(2)),
    ("empty3", empty_graph(3)),
    ("C3", cycle_graph(3)),
    ("K4", complete_graph(4)),
]


def main() -> None:
    print(f"{'corona':10} {'(v,0) periodic?':66} {'max base-base fidelity':>24}")
    for gname, g in BASES:
        gd = exact_decomposition(g)
        for hname, h in COPIES:
            spec = CoronaSpec.from_graphs(g, h)
            support = corona_spectral_closed_form(spec, gd, exact_decomposition(h)).support(0)
            verdict = periodicity_test(support.exact, support.beyond_quadratic)
            note = verdict.periodic
            if verdict.reason:
                note += f" ({verdict.reason})"
            elif verdict.witness_period:
                note += f" (period {verdict.witness_period:.6f})"
            scan = corona_no_pst_check(spec, gd, 0, g.n - 1, 50.0, 5000)
            print(f"{gname}*{hname:7} {note:66} {scan.max_fidelity:>24.9f}")


if __name__ == "__main__":
    main()
