"""Continuous-time quantum walks on neighborhood corona graphs.

The public names below are imported from their modules on first access
(PEP 562), so importing the package, or `coronawalk.cli` through it, loads
neither numpy nor any analysis module.
"""

from importlib import import_module

_EXPORTS = {
    "exact": (
        "QuadInt",
        "SquareFreeSplit",
        "exact_rank",
        "gcd_list",
        "square_free_part",
        "two_adic_valuation",
    ),
    "graphs": (
        "Graph",
        "GraphSpec",
        "UNREACHABLE",
        "build_family",
        "cocktail_antipode_map",
        "cocktail_party_graph",
        "complete_graph",
        "copy_index",
        "corona_graph",
        "cycle_graph",
        "empty_graph",
        "make_graph",
        "path_graph",
        "read_edge_list",
        "star_graph",
        "write_edge_list",
    ),
    "leafspectra": (
        "FamilyDecomposition",
        "SupportSet",
    ),
    "spectral": (
        "EigenClass",
        "SpectralDecomposition",
        "attach_exact_labels",
        "decompose",
        "exact_decomposition",
        "symmetric_eigen",
    ),
    "corona": (
        "lift_class",
        "main_atoms",
    ),
    "coronaspectra": (
        "CoronaDecomposition",
    ),
    "transfer": (
        "FidelityTrace",
        "NoTransferScan",
        "PGSTSearchResult",
        "PSTCertificate",
        "PeriodicityVerdict",
        "corona_no_pst_check",
        "fidelity_sweep",
        "periodicity_test",
        "pgst_search",
        "pst_certify",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule, loaded on first access
        return import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
