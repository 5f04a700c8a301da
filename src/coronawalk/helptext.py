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
    "periodic": "whether vertex u is periodic, decided on its exact eigenvalue support; "
                "on file:PATH from u's walk module where its values are all integers",
    "pst": "certify or refute perfect state transfer from u to v in exact arithmetic; "
           "on file:PATH from walk modules where u's support values are all integers",
    "no-pst-scan": "largest closed-form fidelity of a corona vertex pair on a time grid, "
                   "to within 1e-12",
    "pgst": "search a time family for pretty good state transfer between base vertices",
}

# on a `file:` leaf, pst and periodic decide a vertex whose support values
# are all integers from walk modules, exactly
_MODULE = ("; on file:PATH alone not read where every support value of u is an integer, "
           "which walk modules decide exactly (default: %(default)s)")
_GROUP = "relative gap that starts a new eigenvalue class, in (0, 1e-2]"
_SUPPORT = ("smallest projection ||E e_u|| that puts a class in a support, in (0, 1e-2]; read "
            "only on float factors (file:PATH, alone or in a corona) and at a copy vertex over "
            "a path, star or other irregular copy factor, the other supports being exact")
_COSPECTRAL = ("largest gap between E e_u and +-E e_v, in (0, 1e-2]; read only on float "
               "factors (file:PATH, alone or in a corona) and for a pair with a copy vertex "
               "over a path, star or other irregular copy factor, the other signs being exact")

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
    "--group-tol": _GROUP + " (default: %(default)s)",
    "--support-tol": _SUPPORT + " (default: %(default)s)",
    "--cospectral-tol": _COSPECTRAL + " (default: %(default)s)",
    "periodic --group-tol": _GROUP + _MODULE,
    "periodic --support-tol": _SUPPORT + _MODULE,
    "pst --group-tol": _GROUP + _MODULE,
    "pst --support-tol": _SUPPORT + _MODULE,
    "pst --cospectral-tol": _COSPECTRAL + _MODULE,
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
