"""Default tolerances, search settings, the grid batch and the dense and
build budgets shared by the analysis and the CLI.

Kept apart from the modules that use them, and importing nothing, so the
argument parser can read them without loading numpy.
"""

DEFAULT_GROUP_TOL = 1e-8
DEFAULT_SUPPORT_TOL = 1e-8
DEFAULT_COSPECTRAL_TOL = 1e-7
DEFAULT_ELL_MAX = 100_000
DEFAULT_TARGET = 0.99

PGST_FAMILIES = ("t51", "t52", "cocktail")

# time points per batch of a uniform-grid evaluation
GRID_BLOCK = 8192

# largest order of a matrix that is decomposed densely
MAX_DIMENSION = 4096
# largest graph corona-build assembles, in vertices and in edges
MAX_BUILD_VERTICES = 100_000
MAX_BUILD_EDGES = 250_000
