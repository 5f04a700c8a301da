"""Search gates: the preconditions of the corona searches that the factor
graphs alone decide.

Only `pgst` and `no-pst-scan` load this module.  They meet the gates below
before any decomposition: the dense budgets, the vertex ranges, distinct
vertices where a pgst family certifies base transfer or a scan pairs two
base vertices, the regular copy factor of nonzero degree a pgst family
needs, and the cocktail family's base; a scan's pair is (v, v', w), w None
for base-base, as the CLI's flags give it.  On a family base, the t51 and
t52 families' base transfer is decided here as well, by theorem in pure
Python (`leafspectra`, `transfer.base_transfer`), so a base without the
transfer those families need loads no numpy either.  The checks every
analysis shares (budget, ranges, distinct vertices, a regular H) live in
`graphs`; the gates here combine them and need no numpy.  The CLI runs
`pgst_gates` or `scan_gates` before it loads the analysis modules, and
`transfer.pgst_search` and `transfer.corona_no_pst_check` run the same
checks for library callers.  Only the graphs the CLI's gates build go on to
the analysis, through the caller's `built` cache, so a call that passes
builds each factor graph once.  The gates read no decomposition of a copy
factor: the corona engine comes after them (`cli._search_corona`), so a
gate that fails loads neither `corona` nor `coronaspectra`.
"""

from __future__ import annotations

from .defaults import PGST_FAMILIES
from .graphs import (
    FAMILIES,
    Graph,
    GraphSpec,
    build_graph,
    check_base_vertex,
    check_budget,
    check_copy_vertex,
    check_distinct,
    cocktail_antipode_map,
    require_regular,
    spec_order,
)

_COCKTAIL_BASE = ("cocktail family needs a cocktail party base graph on 2n "
                  "vertices with odd n >= 3")


def check_pgst(n: int, k: int | None, u: int, v: int, family: str, ell_max: int) -> None:
    """The gates of a pgst search on a base of order n, H's regular degree k
    (None when H is irregular), in the order the search meets them; the
    cocktail family's base must also pass `check_antipodal`."""
    check_base_vertex(n, u)
    check_base_vertex(n, v)
    if require_regular(k) == 0:
        raise ValueError("pgst families need a copy factor of nonzero degree")
    if ell_max < 0:
        raise ValueError("ell_max must be nonnegative")
    if family == "cocktail":
        # a cocktail party graph on 2n vertices, n odd: n >= 6 and n = 2 mod 4
        if n < 6 or n % 4 != 2:
            raise ValueError(_COCKTAIL_BASE)
    elif family not in PGST_FAMILIES:
        raise ValueError(f"unknown pgst family {family!r}; use one of {PGST_FAMILIES}")
    else:  # t51 and t52 certify base transfer from u to v first
        check_distinct(u, v)


def check_antipodal(g: Graph, u: int, v: int) -> None:
    """The cocktail family's base is a cocktail party graph with v the antipode of u."""
    antipode = cocktail_antipode_map(g)
    if antipode is None:
        raise ValueError(_COCKTAIL_BASE)
    if antipode[u] != v:
        raise ValueError(f"vertices {u} and {v} are not antipodal")


def check_scan_pair(n: int, m: int, v: int, vp: int, w: int | None = None) -> None:
    """A scan's pair, base-base (v, 0), (v', 0) with v != v' when w is None,
    else base-copy (v', 0), (v, w), on factors of orders n and m."""
    if w is None and v == vp:
        raise ValueError("base-base scans need distinct vertices")
    check_base_vertex(n, v)
    check_base_vertex(n, vp)
    if w is not None:
        check_copy_vertex(m, w)


def _corona_budgets(spec: GraphSpec,
                    built: dict[GraphSpec, Graph]) -> tuple[int, Graph, int | None]:
    """The base order, the built copy factor H and H's regular degree (None
    when irregular) of a corona spec, after the budgets the search's corona
    engine meets: the base's, read off the spec before any graph is built,
    then H's unless it is regular, whose main data come by theorem and
    whose classes a search does not read (`cli._search_corona`)."""
    base, copy = spec.factors
    n = spec_order(base, built)
    check_budget(n)
    h = build_graph(copy, built)
    k = h.is_regular()
    if k is None:
        check_budget(h.n)
    return n, h, k


def pgst_gates(spec: GraphSpec, built: dict[GraphSpec, Graph], u: int, v: int,
               family: str, ell_max: int, group_tol: float, support_tol: float,
               cospectral_tol: float) -> int | None:
    """Every gate of `pgst` on a corona spec that its factor graphs decide,
    in the order the analysis meets them.  The base graph is built only for
    the cocktail family, once its order has passed.  On a family base the
    t51 and t52 families' base gate (`transfer.base_transfer`) runs here too,
    on the family's classes and eigenspaces by theorem at group_tol
    (`leafspectra.FamilyDecomposition`), and its g is returned, for the
    search to take (`transfer.pgst_search`'s base_g); else None."""
    n, _, k = _corona_budgets(spec, built)
    check_pgst(n, k, u, v, family, ell_max)
    base = spec.factors[0]
    if family == "cocktail":
        check_antipodal(build_graph(base, built), u, v)
    elif base.kind in FAMILIES:
        from .leafspectra import FamilyDecomposition
        from .transfer import base_transfer

        return base_transfer(FamilyDecomposition(base.kind, base.size, group_tol), u, v,
                             family, support_tol, cospectral_tol)
    return None


def scan_gates(spec: GraphSpec, built: dict[GraphSpec, Graph], v: int, vp: int,
               w: int | None = None) -> None:
    """Every gate of `no-pst-scan` on a corona spec that its factor graphs
    decide, in the order the analysis meets them."""
    n, h, _ = _corona_budgets(spec, built)
    check_scan_pair(n, h.n, v, vp, w)
