#!/usr/bin/env python3
"""Survey state-transfer behavior on a grid of small coronas.

For each base/copy pairing: the lifted base-vertex periodicity verdict and
the maximum base-base fidelity seen on a dense time grid (always strictly
below 1).
"""

from coronawalk import (
    CoronaSpec,
    corona_base_periodicity,
    corona_no_pst_check,
    cycle_graph,
    empty_graph,
    complete_graph,
    exact_decomposition,
    path_graph,
)

BASES = [("P2", path_graph(2)), ("P3", path_graph(3)), ("C4", cycle_graph(4))]
COPIES = [
    ("empty2", empty_graph(2)),
    ("empty3", empty_graph(3)),
    ("C3", cycle_graph(3)),
    ("K4", complete_graph(4)),
]


def main() -> None:
    print(f"{'corona':12} {'(v,0) periodic?':34} {'max base-base fidelity':>24}")
    for gname, g in BASES:
        gd = exact_decomposition(g)
        for hname, h in COPIES:
            spec = CoronaSpec.from_graphs(g, h)
            verdict = corona_base_periodicity(spec, gd, 0)
            note = verdict.periodic
            if verdict.reason:
                note += f" ({verdict.reason})"
            elif verdict.witness_period:
                note += f" (period {verdict.witness_period:.6f})"
            scan = corona_no_pst_check(spec, gd, ("base-base", 0, g.n - 1), 50.0, 5000)
            print(f"{gname}*{hname:7} {note:40} {scan.max_fidelity:>18.9f}")


if __name__ == "__main__":
    main()
