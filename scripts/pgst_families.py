#!/usr/bin/env python3
"""Sweep the three structured time families for pretty good state transfer.

Runs each family on its standard instance plus an alternate with the same
base graph, and prints the best fidelity found.  Two of the standard
instances degenerate: their level gaps are rational, so the pinned time
family can never tune the needed phases (the printout shows the caps).
"""

import time

from coronawalk import pgst_search
from coronawalk.cli import _search_corona, parse_graph_spec
from coronawalk.graphs import build_graph

INSTANCES = [
    ("t51", "corona(path:2,cycle:3)", 0, 1, "2-path * 3-cycle"),
    ("t52", "corona(cycle:4,cycle:3)", 0, 2, "4-cycle * 3-cycle (degenerate)"),
    ("t52", "corona(cycle:4,cycle:5)", 0, 2, "4-cycle * 5-cycle"),
    ("cocktail", "corona(cocktail:3,cycle:3)", 0, 1, "cocktail(3) * 3-cycle (degenerate)"),
    ("cocktail", "corona(cocktail:3,complete:4)", 0, 1, "cocktail(3) * K4"),
]


def main() -> None:
    print(f"{'instance':38} {'family':9} {'best ell':>9} {'fidelity':>12} {'time/s':>7}")
    for family, text, u, v, name in INSTANCES:
        spec, built = parse_graph_spec(text), {}
        start = time.perf_counter()
        # the corona engine `pgst` reads, its base labelled for the t51 and t52 gate
        corona = _search_corona(spec, built, labelled_base=family != "cocktail")
        result = pgst_search(corona, build_graph(spec.factors[0], built), u, v, family,
                             ell_max=100_000, target=0.99)
        elapsed = time.perf_counter() - start
        marker = "" if result.target_reached else "  <- target unreachable"
        print(
            f"{name:38} {family:9} {result.best_ell:>9} "
            f"{result.best_fidelity:>12.9f} {elapsed:>7.2f}{marker}"
        )
        trace = list(result.trace)
        shown = trace if len(trace) <= 8 else trace[:4] + [None] + trace[-3:]
        for item in shown:
            if item is None:
                print(f"    ... {len(trace) - 7} more improvements ...")
            else:
                print(f"    improved at ell={item[0]}: {item[1]:.9f}")


if __name__ == "__main__":
    main()
