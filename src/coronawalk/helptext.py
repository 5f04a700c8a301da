"""Help text of the `coronawalk` command line.

Text alone: `cli` imports this module only for a call that asks for -h or
--help, so no other call compiles it.  An option's text names its default
and choices through argparse's %(default)s and %(choices)s, so each value
stays declared once, in `defaults` and `cli`.
"""

DESCRIPTION = """\
Continuous-time quantum walks on graphs and neighborhood coronas: spectra,
supports, fidelities, strong cospectrality, periodicity, perfect state
transfer certificates, no-transfer scans and pretty good transfer searches.

SPEC: path:N, cycle:N, complete:N, cocktail:N, empty:N, star:N, file:PATH
(an edge list) or corona(SPEC,SPEC); coronas nest.  Reports are JSON
(--format json, the default) or text, and csv for sweep; --output FILE.
Exit codes: 0 success, 1 usage error, 2 analysis error.
Run `coronawalk COMMAND --help` for the options of one subcommand.
"""

# one line a subcommand: its entry in the list above and the head of its help
COMMANDS = {
    "spectrum": "eigenvalue classes: values, multiplicities and verified exact labels",
    "corona-build": "assemble a corona(...) spec: its edges and vertex labels",
    "fidelity": "walk amplitude U(t)[u,v] and its modulus |U(t)[u,v]| at one time",
    "sweep": "fidelity |U(t)[u,v]| on an evenly spaced time grid from 0 to --t-max",
    "support": "eigenvalue support of vertex u: the classes that do not vanish on u",
    "cospectral": "whether u and v are strongly cospectral, and the sign of each class",
    "periodic": "whether vertex u is periodic, decided on its exact eigenvalue support",
    "pst": "certify or refute perfect state transfer from u to v in exact arithmetic",
    "no-pst-scan": "largest closed-form fidelity of a corona vertex pair on a time grid, "
                   "to within 1e-12",
    "pgst": "search a time family for pretty good state transfer between base vertices",
}

# one line an option, keyed by its flag, or by "COMMAND FLAG" where the
# option means something else on that subcommand
OPTIONS = {
    "SPEC": "the graph: path:N, cycle:N, complete:N, cocktail:N, empty:N, star:N, "
            "file:PATH or corona(SPEC,SPEC)",
    "--u": "vertex u (required)",
    "--v": "vertex v (required)",
    "--format": "report format, one of %(choices)s (default: %(default)s)",
    "corona-build --format": "json report, or text: the edge list that file:PATH reads "
                             "(default: %(default)s)",
    "sweep --format": "report format, one of %(choices)s; csv writes t,fidelity rows "
                      "(default: %(default)s)",
    "--output": "write the report to this file instead of stdout",
    "--group-tol": "relative gap that starts a new eigenvalue class, in (0, 1e-2] "
                   "(default: %(default)s)",
    "--support-tol": "smallest projection ||E e_u|| that puts a class in a support, "
                     "in (0, 1e-2]; read only on float factors (file:PATH, alone or in "
                     "a corona) and at a copy vertex over a path, star or other "
                     "irregular copy factor, the other supports being exact "
                     "(default: %(default)s)",
    "--cospectral-tol": "largest gap between E e_u and +-E e_v, in (0, 1e-2]; read only "
                        "on float factors (file:PATH, alone or in a corona) and for a "
                        "pair with a copy vertex over a path, star or other irregular "
                        "copy factor, the other signs being exact (default: %(default)s)",
    "--t": "time t, finite (required)",
    "--t-max": "last time of the grid, positive (required)",
    "--steps": "number of grid times, at least 2 (required)",
    "--pair": "base-base: (v,0) and (vp,0); base-copy: (vp,0) and (v,w) (required)",
    "no-pst-scan --v": "base vertex v (required)",
    "--vp": "base vertex vp (required)",
    "--w": "copy vertex w of a base-copy pair (default: 0); refused for base-base",
    "no-pst-scan --t-max": "last time of the grid, positive (default: %(default)s)",
    "--points": "number of grid times, at least 2 (default: %(default)s)",
    "pgst --u": "base vertex u (required)",
    "pgst --v": "base vertex v (required)",
    "--family": "time family, one of %(choices)s (required)",
    "--lmax": "largest family index ell searched, at least 1 (default: %(default)s)",
    "--target": "stop once the fidelity reaches this, in (0, 1] (default: %(default)s)",
}
