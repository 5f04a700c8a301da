"""Continuous-time quantum walks on neighborhood corona graphs."""

from .exact import (
    QuadInt,
    SquareFreeSplit,
    exact_rank,
    gcd_list,
    square_free_part,
    two_adic_valuation,
)
from .graphs import (
    Graph,
    GraphSpec,
    UNREACHABLE,
    build_family,
    cocktail_antipode_map,
    cocktail_party_graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    make_graph,
    path_graph,
    read_edge_list,
    star_graph,
    write_edge_list,
)
from .spectral import (
    EigenClass,
    SpectralDecomposition,
    SupportSet,
    attach_exact_labels,
    decompose,
    eigenvalue_support,
    entry_amplitudes,
    exact_decomposition,
    exp_sum,
    strong_cospectral,
    symmetric_eigen,
)
from .corona import (
    CoronaSpec,
    corona_graph,
    corona_spectral_closed_form,
    corona_support_base_vertex,
    corona_terms,
    copy_index,
    lift_class,
)
from .transfer import (
    FidelityTrace,
    NoTransferScan,
    PGSTSearchResult,
    PSTCertificate,
    PeriodicityVerdict,
    corona_base_periodicity,
    corona_no_pst_check,
    fidelity_sweep,
    periodicity_test,
    pgst_search,
    pst_certify,
)

__version__ = "0.1.0"
