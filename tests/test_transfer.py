import cmath
import itertools
import math
import tracemalloc
from collections import Counter
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coronawalk import corona as corona_module
from coronawalk import grid
from coronawalk import transfer
from coronawalk.cli import _decomposition, _search_corona, parse_graph_spec
from coronawalk.exact import QuadInt, two_adic_valuation
from coronawalk.gates import check_pgst
from coronawalk.grid import GRID_BLOCK, PURE_GRID_CAP
from coronawalk.graphs import (
    cocktail_party_graph,
    complete_graph,
    copy_index,
    corona_graph,
    cycle_graph,
    build_graph,
    empty_graph,
    make_graph,
    path_graph,
)
from coronawalk.spectral import decompose, exact_decomposition
from coronawalk.transfer import (
    PeriodicityVerdict,
    _match_two_adic_pattern,
    corona_no_pst_check,
    fidelity_sweep,
    locked_bound,
    periodicity_test,
    pgst_search,
    pst_certify,
)

from oracles import amplitudes, engine, fidelity, search_engine


def qi(n):
    return QuadInt.from_int(n)


def vertex_periodicity(d, u):
    """The one periodicity verdict, as `periodic` reports it, at vertex u of d."""
    sup = d.support(u)
    return periodicity_test(sup.exact, sup.beyond_quadratic)


def closed_form(g, h):
    """The corona engine on g * h from the labelled factors."""
    return engine(exact_decomposition(g), h)


def base_periodicity(g, h, v):
    return vertex_periodicity(closed_form(g, h), v)


class TestPeriodicityTest:
    def test_all_integer_support(self):
        verdict = periodicity_test([qi(2), qi(-1), qi(-2), qi(1)])
        assert verdict.periodic == "yes"
        assert verdict.case == "all-integer"
        assert verdict.witness_period == pytest.approx(2 * math.pi)

    def test_quadratic_support(self):
        verdict = periodicity_test([QuadInt(0, 2, 2), qi(0), QuadInt(0, -2, 2)])
        assert verdict.periodic == "yes"
        assert verdict.case == "quadratic"
        assert (verdict.a, verdict.delta) == (0, 2)
        assert verdict.witness_period == pytest.approx(math.pi * math.sqrt(2))

    def test_differing_half_traces_fail(self):
        support = [
            QuadInt(3, 1, 13),
            QuadInt(1, 1, 21),
            QuadInt(3, -1, 13),
            QuadInt(1, -1, 21),
        ]
        assert periodicity_test(support).periodic == "no"

    def test_shared_delta_differing_a_fails(self):
        support = [
            QuadInt(3, 1, 13),
            QuadInt(1, 1, 13),
            QuadInt(3, -1, 13),
            QuadInt(1, -1, 13),
        ]
        assert periodicity_test(support).periodic == "no"

    def test_inexact_entry_is_inconclusive(self):
        assert periodicity_test([qi(1), 0.5]).periodic == "inconclusive"

    def test_empty_support_rejected(self):
        with pytest.raises(ValueError):
            periodicity_test([])

    def test_witness_revives_the_walk(self):
        d = decompose(path_graph(3).adjacency())
        verdict = periodicity_test([QuadInt(0, 2, 2), qi(0), QuadInt(0, -2, 2)])
        assert fidelity(d, 0, 0, verdict.witness_period) > 1 - 1e-8


class TestCoronaBasePeriodicity:
    def test_two_isolated_copies_periodic(self):
        verdict = base_periodicity(path_graph(2), empty_graph(2), 0)
        assert verdict.periodic == "yes"
        assert verdict.case == "all-integer"
        assert verdict.witness_period == pytest.approx(2 * math.pi)

    def test_positive_degree_blocks(self):
        # P2's support {1, -1} over 3-cycle copies lifts to (3 +- sqrt(13))/2
        # and (1 +- sqrt(21))/2: two square roots
        verdict = base_periodicity(path_graph(2), cycle_graph(3), 0)
        assert verdict.periodic == "no"
        assert verdict.reason == "no shared (a, delta) quadratic form covers the support"

    def test_non_square_copy_count_blocks(self):
        # over three isolated copies 1 and -1 lift to (1 +- sqrt(13))/2 and
        # (-1 +- sqrt(13))/2: one square root, two values of a
        verdict = base_periodicity(path_graph(2), empty_graph(3), 0)
        assert verdict.periodic == "no"
        assert verdict.reason == "no shared (a, delta) quadratic form covers the support"

    def test_degree_four_lift_refutes_before_lifting(self):
        # over 3-cycle copies (1 + sqrt(5))/2 lifts to (7 + sqrt(5))/2 and -1,
        # but (-1 + sqrt(5))/2 has 4D = 102 - 34 sqrt(5): its norm 68^2 is a
        # square, yet neither 2(102 + 68) nor 2(102 - 68) is, so its lifts
        # are flagged; each of the four base values, labelled by theorem, is
        # lifted by its lift polynomial, and no rank runs
        with mock.patch("coronawalk.corona.lift_polynomial",
                        wraps=corona_module.lift_polynomial) as poly, \
                mock.patch("coronawalk.spectral.exact_rank", side_effect=AssertionError):
            d = _decomposition(parse_graph_spec("corona(path:4,cycle:3)"), labelled=True)
        verdict = vertex_periodicity(d, 0)
        assert verdict == PeriodicityVerdict("no", reason="support value of degree > 2")
        assert sorted(call.args[0] for call in poly.call_args_list) == [
            QuadInt(-1, -1, 5), QuadInt(-1, 1, 5), QuadInt(1, -1, 5), QuadInt(1, 1, 5)]

    def test_quadratic_branch(self):
        # the middle vertex of the 3-path supports only +-sqrt(2)
        verdict = base_periodicity(path_graph(3), empty_graph(2), 1)
        assert verdict.periodic == "yes"
        assert verdict.case == "quadratic"
        assert verdict.witness_period == pytest.approx(math.pi * math.sqrt(2))

    def test_mixed_direction_support_blocks(self):
        # over two isolated copies (1 + 4m = 9) each 4-path support value
        # lam = (±1 ± sqrt(5))/2 lifts to 2 lam and -lam: the lifts of
        # (1 + sqrt(5))/2 alone, 1 + sqrt(5) and (-1 - sqrt(5))/2, differ in a
        verdict = base_periodicity(path_graph(4), empty_graph(2), 0)
        assert verdict.periodic == "no"
        assert verdict.reason == "no shared (a, delta) quadratic form covers the support"

    def test_irregular_copy_factor_is_decided_by_its_labels(self):
        # the rule needs no regular H: in P2 * P3 the base value 1 lifts over
        # the main values +-sqrt(2) of P3 to the roots of x^3 - x^2 - 5x - 2,
        # which has no rational root, so they are flagged; the assembled
        # corona's labels leave them open
        g, h = path_graph(2), path_graph(3)
        verdict = base_periodicity(g, h, 0)
        assembled = vertex_periodicity(exact_decomposition(corona_graph(g, h)), 0)
        assert verdict == PeriodicityVerdict("no", reason="support value of degree > 2")
        assert assembled == PeriodicityVerdict(
            "inconclusive", reason="inexact eigenvalue in support")

    def test_numeric_confirmation_on_assembled_graph(self):
        verdict = base_periodicity(path_graph(2), empty_graph(2), 0)
        assembled = decompose(corona_graph(path_graph(2), empty_graph(2)).adjacency())
        assert fidelity(assembled, 0, 0, verdict.witness_period) > 1 - 1e-8


# a sub-sweep of small coronas: connected bases and regular copies
_SWEEP_BASES = ("path:2", "path:3", "path:4", "path:5", "path:6", "cycle:3", "cycle:4",
                "cycle:5", "cycle:6", "star:3", "star:4", "star:5", "complete:2",
                "complete:3", "complete:4", "cocktail:2", "cocktail:3")
_SWEEP_COPIES = ("cycle:3", "cycle:4", "complete:2", "complete:3", "empty:1", "empty:2",
                 "empty:3", "cocktail:2", "cocktail:3")


def test_lifted_base_test_agrees_with_the_vertex_test_on_a_sweep():
    """On 621 base vertices the one verdict keeps every record that the labels
    alone decide, and decides by a lift of degree 4 another 183 that they
    leave open, and by the lifts of path:6's unlabelled values, of degree 3,
    the last 54.  30 of its 80 "yes" have copy degree k >= 1."""
    counts: Counter = Counter()
    for g, h in itertools.product(_SWEEP_BASES, _SWEEP_COPIES):
        spec = parse_graph_spec(f"corona({g},{h})")
        d = _decomposition(spec, labelled=True)
        for u in range(d.base.n):
            verdict = vertex_periodicity(d, u)
            labels_only = periodicity_test(d.support(u).exact)
            counts[verdict.periodic, verdict.reason] += 1
            counts["yes with k >= 1"] += verdict.periodic == "yes" and d.degree >= 1
            if labels_only.periodic != "inconclusive":
                assert verdict == labels_only, (g, h, u)
    assert counts == {
        ("yes", None): 80,
        ("no", "no shared (a, delta) quadratic form covers the support"): 304,
        ("no", "support value of degree > 2"): 237,
        "yes with k >= 1": 30,
    }


@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.just(n), st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                        .filter(lambda e: e[0] != e[1])))),
       st.sampled_from([empty_graph(1), empty_graph(2), complete_graph(2), cycle_graph(3),
                        cycle_graph(4)]))
@settings(max_examples=40, deadline=None)
def test_lifted_base_test_never_contradicts_the_assembled_support(base, h):
    # any base, one-vertex and disconnected ones too; the assembled corona's
    # labels decide without the degree flag, copy vertices included
    g = make_graph(*base)
    assembled = exact_decomposition(corona_graph(g, h))
    closed = closed_form(g, h)
    for u in range(assembled.n):
        vertex = vertex_periodicity(assembled, u)
        lifted = vertex_periodicity(closed, u)
        if "inconclusive" not in (vertex.periodic, lifted.periodic):
            assert lifted == vertex, u


def _p2_c3_scan(points):
    corona = search_engine(exact_decomposition(path_graph(2)), cycle_graph(3))
    return corona_no_pst_check(corona, 0, 1, 1.0, points)


class TestLibraryOnlyErrors:
    """Errors that the CLI's own checks keep it from meeting: its flags take no
    empty grid or negative ell_max."""

    @pytest.mark.parametrize("call, match", [
        (lambda: _p2_c3_scan(0), "a scan needs at least one time point"),
        (lambda: check_pgst(2, 2, 0, 1, "t51", -1), "ell_max must be nonnegative"),
    ], ids=["scan-no-points", "pgst-negative-ell-max"])
    def test_rejected(self, call, match):
        with pytest.raises(ValueError, match=match):
            call()


def _p2(copy):
    return search_engine(exact_decomposition(path_graph(2)), copy)


class TestLibraryGates:
    """`pgst_search` and `corona_no_pst_check` run the gates the CLI runs
    before them, for library callers, on the corona engine they are handed,
    with the CLI's messages (the other gates: `TestPgstSearch`,
    `TestNoTransferScan`)."""

    @pytest.mark.parametrize("call, match", [
        (lambda: pgst_search(_p2(cycle_graph(3)), path_graph(2), 0, 2, "t51"),
         "base vertex 2 out of range"),
        (lambda: pgst_search(_p2(path_graph(3)), path_graph(2), 0, 1, "t51"),
         "the pgst families need a regular copy factor H"),
        (lambda: corona_no_pst_check(_p2(cycle_graph(3)), 0, 2, 1.0, 10),
         "base vertex 2 out of range"),
        (lambda: corona_no_pst_check(_p2(cycle_graph(3)), 0, 1, 1.0, 10, w=3),
         "copy vertex 3 out of range"),
    ], ids=["pgst-vertex", "pgst-irregular-copy", "scan-vertex", "scan-copy-vertex"])
    def test_rejected(self, call, match):
        with pytest.raises(ValueError, match=match):
            call()


class TestPstCertify:
    def test_two_path(self):
        cert = pst_certify(exact_decomposition(path_graph(2)), 0, 1)
        assert cert.verdict == "PST"
        assert (cert.delta, cert.g, cert.alpha) == (1, 2, 1)
        assert cert.tau == pytest.approx(math.pi / 2)
        assert cert.tau_symbolic == "pi/2"
        assert cert.d_values == (0, 2)
        assert cmath.isclose(cert.phase, -1j, abs_tol=1e-9)
        assert cert.fidelity_at_tau > 1 - 1e-10

    def test_three_path_endpoints(self):
        cert = pst_certify(exact_decomposition(path_graph(3)), 0, 2)
        assert cert.verdict == "PST"
        assert (cert.delta, cert.g, cert.alpha) == (2, 1, 0)
        assert cert.b_values == (2, 0, -2)
        assert cert.d_values == (0, 1, 2)
        assert cert.tau == pytest.approx(math.pi / math.sqrt(2))
        assert cert.tau_symbolic == "pi/sqrt(2)"
        assert cert.fidelity_at_tau > 1 - 1e-10

    def test_four_cycle_antipodal(self):
        cert = pst_certify(exact_decomposition(cycle_graph(4)), 0, 2)
        assert cert.verdict == "PST"
        assert cert.tau == pytest.approx(math.pi / 2)
        assert (cert.delta, cert.g, cert.alpha) == (1, 2, 1)
        assert cert.fidelity_at_tau > 1 - 1e-10

    def test_four_path_adjacent_not_strongly_cospectral(self):
        cert = pst_certify(exact_decomposition(path_graph(4)), 0, 1)
        assert cert.verdict == "NoPST"
        assert cert.failure_reason == "not strongly cospectral"

    def test_four_path_antipodal_fails_quadratic_fit(self):
        cert = pst_certify(exact_decomposition(path_graph(4)), 0, 3)
        assert cert.verdict == "NoPST"
        assert cert.failure_reason == "support not quadratic"

    def test_cocktail_antipodal_fails_two_adic_pattern(self):
        cert = pst_certify(exact_decomposition(cocktail_party_graph(3)), 0, 1)
        assert cert.verdict == "NoPST"
        assert cert.failure_reason == "2-adic sign pattern fails"

    def test_unlabeled_support_inconclusive(self):
        cert = pst_certify(exact_decomposition(path_graph(6)), 0, 5)
        assert cert.verdict == "Inconclusive"
        assert cert.failure_reason == "inexact spectrum"

    def test_degree_four_lift_refutes_a_base_base_pair(self):
        # the assembled corona's labels leave (0, 0) and (4, 0) of C8 * C4
        # open; the engine flags the degree-4 lifts of +-sqrt(2)
        g, h = cycle_graph(8), cycle_graph(4)
        closed = pst_certify(_decomposition(parse_graph_spec("corona(cycle:8,cycle:4)"),
                                            labelled=True), 0, 4)
        assembled = pst_certify(exact_decomposition(corona_graph(g, h)), 0, 4)
        assert (closed.verdict, closed.failure_reason) == ("NoPST", "support value of degree > 2")
        assert (assembled.verdict, assembled.failure_reason) == ("Inconclusive", "inexact spectrum")

    def test_degree_four_lift_refutes_a_copy_vertex(self):
        # copy vertex (0, 0) of P4 * C3 meets the lifts of (-1 +- sqrt(5))/2
        d = _decomposition(parse_graph_spec("corona(path:4,cycle:3)"), labelled=True)
        u = copy_index(4, 0, 0)
        sup = d.support(u)
        assert sup.beyond_quadratic and not sup.all_exact
        cert = pst_certify(d, u, copy_index(4, 3, 0))
        assert (cert.verdict, cert.failure_reason) == ("NoPST", "support value of degree > 2")
        assert vertex_periodicity(d, u) == PeriodicityVerdict(
            "no", reason="support value of degree > 2")

    def test_same_vertex_rejected(self):
        with pytest.raises(ValueError):
            pst_certify(exact_decomposition(path_graph(2)), 0, 0)

    @pytest.mark.parametrize(
        "g,u,v",
        [(path_graph(2), 0, 1), (path_graph(3), 0, 2), (cycle_graph(4), 0, 2)],
        ids=["p2", "p3", "c4"],
    )
    def test_transfer_doubles_to_self_revival(self, g, u, v):
        d = exact_decomposition(g)
        cert = pst_certify(d, u, v)
        assert fidelity(d, u, u, 2 * cert.tau) > 1 - 1e-8


def two_adic_match_by_search(d_values, signs, alpha_max=64):
    """The smallest alpha in [0, alpha_max] whose 2-adic pattern the signs
    match, found by trying each in turn, else None."""
    if signs[0] <= 0 or 0 in d_values[1:]:
        return None
    checks = [(two_adic_valuation(d), s) for d, s in zip(d_values[1:], signs[1:])]
    for alpha in range(alpha_max + 1):
        if all(val == alpha if s < 0 else val > alpha for val, s in checks):
            return alpha
    return None


class TestTwoAdicPattern:
    # D_r = m 2^k spreads the valuations, so matching patterns are common
    @given(st.lists(st.tuples(st.builds(lambda m, k: m << k, st.integers(-511, 511),
                                        st.integers(0, 6)),
                              st.sampled_from([-1, 1])), min_size=1, max_size=8))
    @example([(0, 1), (6, -1), (2, -1), (4, 1)])
    @example([(0, 1), (8, 1), (12, 1)])
    @example([(0, 1), (3, 1)])
    @example([(0, -1), (2, -1)])
    @example([(0, 1), (0, -1)])
    @settings(max_examples=500, deadline=None)
    def test_closed_form_matches_search(self, entries):
        d_values, signs = [0] + [d for d, _ in entries[1:]], [s for _, s in entries]
        assert _match_two_adic_pattern(d_values, signs) == two_adic_match_by_search(
            d_values, signs)


class TestSupportContainment:
    @pytest.mark.parametrize(
        "g,h",
        [
            (path_graph(2), cycle_graph(3)),
            (path_graph(3), cycle_graph(4)),
            (path_graph(2), empty_graph(2)),
            (cycle_graph(4), cycle_graph(4)),
        ],
        ids=["p2c3", "p3c4", "p2e2", "c4c4"],
    )
    def test_base_support_inside_copy_support(self, g, h):
        # holds whenever no base vertex supports eigenvalue 0, or the copy
        # factor has 0 in its own spectrum so the value-0 classes merge
        assembled = decompose(corona_graph(g, h).adjacency())
        for v in range(g.n):
            base = set(assembled.support(v).class_indices)
            for w in range(h.n):
                copy = set(
                    assembled.support(copy_index(g.n, v, w)).class_indices
                )
                assert base <= copy

    def test_zero_mode_escapes_copy_support(self):
        # When 0 sits in the base support but not in the copy factor's
        # spectrum, the corona's value-0 class lives only on base vertices,
        # so the containment fails exactly by that one class.
        g, h = path_graph(3), cycle_graph(3)
        assembled = decompose(corona_graph(g, h).adjacency())
        zero_class = {
            i for i, c in enumerate(assembled.classes) if abs(c.value) < 1e-9
        }
        for v in (0, 2):  # endpoints support eigenvalue 0 of the 3-path
            base = set(assembled.support(v).class_indices)
            for w in range(h.n):
                copy = set(
                    assembled.support(copy_index(g.n, v, w)).class_indices
                )
                assert base - copy == zero_class
        # the middle vertex misses eigenvalue 0, so containment holds there
        base = set(assembled.support(1).class_indices)
        copy = set(assembled.support(copy_index(g.n, 1, 0)).class_indices)
        assert base <= copy


class TestNoPeriodicityLift:
    @pytest.mark.parametrize("h", [empty_graph(2), cycle_graph(3)], ids=["e2", "c3"])
    def test_aperiodic_base_gives_aperiodic_corona(self, h):
        g = path_graph(4)
        d = exact_decomposition(g)
        for v in range(g.n):
            sup = d.support(v)
            assert periodicity_test(list(sup.exact)).periodic == "no"
        for v in range(g.n):
            assert base_periodicity(g, h, v).periodic == "no"


class TestNoTransferScan:
    def test_base_base_scan_stays_below_one(self):
        g, h = path_graph(2), cycle_graph(3)
        corona = search_engine(exact_decomposition(g), h)
        scan = corona_no_pst_check(corona, 0, 1, 50.0, 1000)
        assert scan.all_below_one
        assert scan.max_fidelity < 1 - 1e-6
        assert scan.static_bound <= 1 + 1e-9

    def test_base_copy_zero_at_time_zero(self):
        g, h = path_graph(2), cycle_graph(3)
        corona = search_engine(exact_decomposition(g), h)
        scan = corona_no_pst_check(corona, 1, 0, 0.0, 1, w=0)
        assert scan.max_fidelity == pytest.approx(0.0, abs=1e-12)

    def test_p3_base_base_scan(self):
        g, h = path_graph(3), cycle_graph(3)
        corona = search_engine(exact_decomposition(g), h)
        scan = corona_no_pst_check(corona, 0, 2, 50.0, 1000)
        assert scan.all_below_one

    def test_identical_base_vertices_rejected(self):
        g, h = path_graph(2), cycle_graph(3)
        corona = search_engine(exact_decomposition(g), h)
        with pytest.raises(ValueError):
            corona_no_pst_check(corona, 1, 1, 1.0, 1)


    def test_scan_reports_the_linspace_argmax(self):
        g, h = path_graph(3), cycle_graph(3)
        corona = search_engine(exact_decomposition(g), h)
        t_max, points = 37.3, 50_001
        scan = corona_no_pst_check(corona, 2, 0, t_max, points, w=1)
        ts = np.linspace(0.0, t_max, points)
        fids = np.abs(amplitudes(corona, 0, copy_index(g.n, 2, 1), ts))
        i = int(np.argmax(fids))
        assert scan.samples == points
        assert scan.argmax_time == float(ts[i])
        assert scan.max_fidelity == pytest.approx(float(fids[i]), abs=1e-12)

    def test_scan_argmax_at_the_last_point_is_t_max(self):
        # the base-copy amplitude starts at 0 and grows on a short grid
        g, h = path_graph(2), cycle_graph(3)
        corona = search_engine(exact_decomposition(g), h)
        t_max = 0.1 + 0.2  # not a multiple of its own step in floats
        scan = corona_no_pst_check(corona, 1, 0, t_max, 7, w=0)
        assert scan.argmax_time == t_max == float(np.linspace(0.0, t_max, 7)[-1])


# the scan's certified margin, with room for the rounding between its pure
# Python sums and numpy's, a few ulps of terms whose |c| sum to at most 1
SCAN_TIE = grid._SCAN_EPS + 1e-14


def _scan_of_terms(freqs, coefs, t_max, points):
    """corona_no_pst_check with the walk terms (freqs, coefs) in place of a
    corona's: the pair's gates and static bound are those of P2 * C3."""
    corona = search_engine(exact_decomposition(path_graph(2)), cycle_graph(3))
    with mock.patch.object(transfer, "_walk_terms", return_value=(freqs, coefs)):
        return corona_no_pst_check(corona, 0, 1, t_max, points)


def _grid_values(freqs, coefs, t_max, points):
    """|A(j * step)| at every point of the grid, each summed directly."""
    step = t_max / (points - 1) if points > 1 else 0.0
    phases = np.multiply.outer(np.arange(points) * step, np.asarray(freqs, dtype=float))
    c = np.asarray(coefs, dtype=float)
    return np.hypot(np.cos(phases) @ c, np.sin(phases) @ c)


def _check_scan_of_terms(freqs, coefs, t_max, points):
    """The scan's maximum against the exhaustive grid: its time is the
    np.linspace element, its value |A| there, no grid value exceeds it by
    more than the margin, and a maximum unique by more than that is found."""
    scan = _scan_of_terms(freqs, coefs, t_max, points)
    ts = np.linspace(0.0, t_max, points)
    hits = np.flatnonzero(ts == scan.argmax_time)
    assert hits.size, scan
    vals = _grid_values(freqs, coefs, t_max, points)
    assert abs(scan.max_fidelity - vals[hits[0]]) <= 1e-14
    assert vals.max() <= scan.max_fidelity + SCAN_TIE
    top = int(np.argmax(vals))
    if (np.delete(vals, top) < vals[top] - SCAN_TIE).all():
        assert scan.argmax_time == float(ts[top])
    assert scan.samples == points
    return scan


# frequencies from a small pool repeat; coefficients hold exact zeros and a
# lone 1e-14, and are scaled so that their moduli sum to at most 1, as a
# walk amplitude's do
_scan_freqs = st.one_of(st.sampled_from([0.0, 1.0, -2.5, math.sqrt(2)]),
                        st.floats(-10.0, 10.0))
_scan_coefs = st.one_of(st.sampled_from([0.0, 1e-14]), st.floats(-1.0, 1.0))
_scan_terms = st.lists(st.tuples(_scan_freqs, _scan_coefs), max_size=12).map(
    lambda terms: ([f for f, _ in terms],
                   [c / max(1.0, sum(abs(x) for _, x in terms)) for _, c in terms]))


class TestScanSearch:
    """The scan's best-first search (`grid._search`) against the
    exhaustive grid, and its handover to numpy past the cap."""

    @given(_scan_terms, st.floats(0.0, 300.0), st.integers(1, 50_000))
    @settings(max_examples=150, deadline=None)
    def test_search_matches_the_exhaustive_grid(self, terms, t_max, points):
        _check_scan_of_terms(*terms, t_max, points)

    @pytest.mark.parametrize("freqs, coefs, t_max, points", [
        ([], [], 50.0, 1000),
        ([0.0, 2.0], [0.0, 0.0], 50.0, 1000),
        ([1.7], [0.6], 80.0, 20_000),
        ([1.5, 1.5, 1.5], [0.2, -0.5, 0.1], 40.0, 5000),
        ([0.0, 1e-14], [1e-14, 0.0], 40.0, 5000),
        ([2.0, -1.0], [0.5, 0.4], 30.0, 1),
        ([2.0, -1.0], [0.5, 0.4], 30.0, 2),
        ([1.0, -1.0, 3.0], [0.3, 0.3, 0.4], 0.0, 9),
    ], ids=["no-terms", "zero-coefficients", "one-term", "one-frequency", "lone-1e-14",
            "one-point", "two-points", "zero-t-max"])
    def test_degenerate_grids(self, freqs, coefs, t_max, points):
        _check_scan_of_terms(freqs, coefs, t_max, points)

    def test_no_nonzero_term_reports_zero_at_time_zero(self):
        scan = _scan_of_terms([0.0, 2.0], [0.0, 0.0], 50.0, 1000)
        assert (scan.max_fidelity, scan.argmax_time) == (0.0, 0.0)

    def test_maximum_at_the_last_point_is_t_max(self):
        # |0.5 - 0.5 e^{-it}| = |sin(t/2)| rises on [0, pi]
        t_max = 0.1 + 3.0
        scan = _check_scan_of_terms([0.0, 1.0], [0.5, -0.5], t_max, 1001)
        assert scan.argmax_time == t_max

    @staticmethod
    def _exhaustive(freqs, coefs, step, points):
        """The grid maximum and its first j over every point of numpy's
        batches, joined: the reference a handover must equal bit for bit."""
        fids = np.concatenate(list(grid.moduli(freqs, coefs, 0.0, step, points, 0)))
        i = int(np.argmax(fids))
        return float(fids[i]), i

    def test_a_forced_handover_reports_numpy_s_grid_maximum(self, monkeypatch):
        g, h = path_graph(3), cycle_graph(3)
        corona = search_engine(exact_decomposition(g), h)
        t_max, points = 37.3, 50_001
        step = t_max / (points - 1)
        monkeypatch.setattr(grid, "PURE_GRID_CAP", 0)
        scan = corona_no_pst_check(corona, 2, 0, t_max, points, w=1)
        best, arg = self._exhaustive(*transfer._walk_terms(corona, 0, copy_index(g.n, 2, 1)),
                                     step, points)
        assert (scan.max_fidelity, scan.argmax_time) == (best, arg * step)

    def test_a_long_grid_passes_the_cap_and_hands_over(self):
        corona, _ = family_search_input("cocktail:7", "cycle:5")
        t_max, points = 2000.0, 2_000_000
        freqs, coefs = transfer._walk_terms(corona, 0, 2)
        step = t_max / (points - 1)
        assert grid._search(freqs, coefs, step, points) is None
        scan = corona_no_pst_check(corona, 0, 2, t_max, points)
        best, arg = self._exhaustive(freqs, coefs, step, points)
        assert (scan.max_fidelity, scan.argmax_time) == (best, arg * step)


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


class TestBoundedMemory:
    # numpy reports its buffers to tracemalloc; a whole grid of 10^6 times
    # is 8 MB of floats and 16 MB of complex amplitudes
    BOUND = 16 * 2**20

    def test_two_million_point_scan(self):
        g = cocktail_party_graph(7)
        corona = search_engine(exact_decomposition(g), complete_graph(4))
        t_max, points = 150.0, 2_000_000
        scan, peak = _peak_bytes(lambda: corona_no_pst_check(corona, 0, 1, t_max, points, w=2))
        assert peak < self.BOUND
        assert scan.samples == points
        ts = np.linspace(0.0, t_max, points)
        i = int(np.searchsorted(ts, scan.argmax_time))
        assert scan.argmax_time == float(ts[i])
        assert scan.all_below_one

    def test_capped_pgst_sweep_to_a_million(self):
        g = cycle_graph(4)
        corona = search_engine(exact_decomposition(g), cycle_graph(3))
        result, peak = _peak_bytes(lambda: pgst_search(
            corona, g, 0, 2, "t52", ell_max=10**6, target=0.99))
        assert peak < self.BOUND
        assert not result.target_reached and result.ell_max == 10**6
        assert result.best_fidelity <= 0.5 + 1e-8


class TestPgstSearch:
    def test_t51_on_p2_c3_reaches_target(self):
        g, h = path_graph(2), cycle_graph(3)
        corona = search_engine(exact_decomposition(g), h)
        result = pgst_search(corona, g, 0, 1, "t51", ell_max=5000, target=0.99)
        assert result.target_reached
        assert result.g == 2
        # frozen regression values for this instance
        assert result.best_ell == 53
        assert result.best_fidelity == pytest.approx(0.99584135997795, abs=1e-6)
        assert [e for e, _ in result.trace] == [0, 4, 5, 10, 53]
        assert result.best_time == pytest.approx((4 * 53 + 1) * math.pi)

    def test_trace_strictly_increasing_and_bounded(self):
        g, h = path_graph(2), cycle_graph(3)
        corona = search_engine(exact_decomposition(g), h)
        result = pgst_search(corona, g, 0, 1, "t51", ell_max=300, target=0.9999)
        fids = [f for _, f in result.trace]
        assert all(b > a for a, b in zip(fids, fids[1:]))
        assert result.best_fidelity == max(fids)
        assert result.best_fidelity <= 1 + 1e-9

    def test_t51_times_match_assembled_oracle(self):
        g, h = path_graph(2), cycle_graph(3)
        corona = search_engine(exact_decomposition(g), h)
        oracle = decompose(corona_graph(g, h).adjacency())
        rng = np.random.default_rng(3)
        for ell in rng.integers(0, 2000, size=5):
            t = (4 * int(ell) + 1) * math.pi  # family time at this ell, g = 2
            closed = abs(complex(amplitudes(corona, 0, 1, t)))
            direct = abs(complex(amplitudes(oracle, 0, 1, t)))
            assert abs(closed - direct) < 1e-7

    def test_t52_on_c4_c5_reaches_target(self):
        g, h = cycle_graph(4), cycle_graph(5)
        corona = search_engine(exact_decomposition(g), h)
        result = pgst_search(corona, g, 0, 2, "t52", target=0.99)
        assert result.target_reached
        assert result.best_ell == 282  # frozen regression value
        assert result.best_time == pytest.approx((4 * 282 + 1) * math.pi)

    def test_cocktail_on_cocktail3_k4_reaches_target(self):
        g, h = cocktail_party_graph(3), complete_graph(4)
        corona = search_engine(exact_decomposition(g), h)
        result = pgst_search(corona, g, 0, 1, "cocktail", target=0.99)
        assert result.target_reached
        assert result.best_ell == 72  # frozen regression value
        assert result.best_time == pytest.approx(8 * 72 * math.pi)

    @pytest.mark.parametrize(
        "g, h, u, v, family, ell_max, target",
        [
            (path_graph(2), cycle_graph(3), 0, 1, "t51", 300, 0.9999),
            (cycle_graph(4), cycle_graph(5), 0, 2, "t52", 1000, 0.99),
            (cocktail_party_graph(3), complete_graph(4), 0, 1, "cocktail", 1000, 0.99),
            # capped at 1/2, so the sweep runs through three chunks of ell
            (cycle_graph(4), cycle_graph(3), 0, 2, "t52", 20000, 0.99),
        ],
        ids=["t51-p2-c3", "t52-c4-c5", "cocktail3-k4", "t52-c4-c3-capped"],
    )
    def test_trace_is_strict_prefix_maxima(self, g, h, u, v, family, ell_max, target):
        corona = search_engine(exact_decomposition(g), h)
        result = pgst_search(corona, g, u, v, family, ell_max=ell_max, target=target)
        ells = np.arange(result.best_ell + 1)
        times = {
            "t51": lambda: (4.0 * ells + 2.0 / result.g) * math.pi,
            "t52": lambda: (4.0 * ells + 1.0) * math.pi,
            "cocktail": lambda: 8.0 * ells * math.pi,
        }[family]()
        fids = np.abs(amplitudes(corona, u, v, times))
        expected, best = [], -1.0
        for ell, fid in zip(ells, fids):
            if fid > best:
                best = float(fid)
                expected.append((int(ell), best))
        assert [e for e, _ in result.trace] == [e for e, _ in expected]
        assert [f for _, f in result.trace] == pytest.approx(
            [f for _, f in expected], abs=1e-12
        )
        assert result.target_reached == (best >= target)

    def test_t51_gate_reads_support_at_the_given_tolerance(self, monkeypatch):
        import coronawalk.spectral as spectral_module

        seen = []
        cls = spectral_module.SpectralDecomposition
        support = cls.support
        # the gate reads the float decomposition's support method
        monkeypatch.setattr(cls, "support",
                            lambda d, u, tol: seen.append(tol) or support(d, u, tol))
        g, h = path_graph(2), cycle_graph(3)
        corona = search_engine(exact_decomposition(g), h)
        result = pgst_search(corona, g, 0, 1, "t51", ell_max=100, target=0.99,
                             support_tol=1e-6, cospectral_tol=1e-5)
        assert result.best_ell == 53
        # once inside pst_certify, once for the "0 outside the support" check
        assert seen == [1e-6, 1e-6]

    def test_zero_degree_copy_factor_rejected(self):
        g, h = path_graph(2), empty_graph(2)
        corona = search_engine(exact_decomposition(g), h)
        with pytest.raises(ValueError, match="nonzero degree"):
            pgst_search(corona, g, 0, 1, "t51")

    def test_t51_needs_integer_transfer_time(self):
        # 3-path transfer runs at pi/sqrt(2), not pi/g
        g, h = path_graph(3), cycle_graph(3)
        corona = search_engine(exact_decomposition(g), h)
        with pytest.raises(ValueError, match="pi/g"):
            pgst_search(corona, g, 0, 2, "t51")

    def test_t51_needs_base_transfer(self):
        g, h = path_graph(4), cycle_graph(3)
        corona = search_engine(exact_decomposition(g), h)
        with pytest.raises(ValueError, match="base transfer"):
            pgst_search(corona, g, 0, 3, "t51")

    def test_t52_needs_zero_eigenvalue(self):
        g, h = path_graph(2), cycle_graph(3)
        corona = search_engine(exact_decomposition(g), h)
        with pytest.raises(ValueError, match="0 in the base spectrum"):
            pgst_search(corona, g, 0, 1, "t52")

    def test_cocktail_needs_odd_half_order(self):
        # the 2-person cocktail party (the 4-cycle) has even n = 2
        g, h = cycle_graph(4), cycle_graph(3)
        corona = search_engine(exact_decomposition(g), h)
        with pytest.raises(ValueError, match="odd n"):
            pgst_search(corona, g, 0, 2, "cocktail")

    def test_cocktail_needs_antipodal_pair(self):
        g, h = cocktail_party_graph(3), complete_graph(4)
        corona = search_engine(exact_decomposition(g), h)
        with pytest.raises(ValueError, match="antipodal"):
            pgst_search(corona, g, 0, 2, "cocktail")

    @pytest.mark.parametrize("change", ["cycle", "removed", "added"])
    def test_cocktail_base_read_off_the_graph(self, change):
        """Order-6 bases that pass the size gate but are not cocktail party
        graphs: the 6-cycle (whose opposite vertices are at distance 3), and
        cocktail:3 relabelled with one edge removed or added."""
        perm = [4, 0, 5, 2, 1, 3]
        edges = set(cocktail_party_graph(3).edges)
        if change == "removed":
            edges.remove((0, 2))
        elif change == "added":
            edges.add((0, 1))
        g = (cycle_graph(6) if change == "cycle"
             else make_graph(6, [(perm[a], perm[b]) for a, b in edges]))
        corona = search_engine(exact_decomposition(g), cycle_graph(3))
        with pytest.raises(ValueError, match="cocktail family needs a cocktail party base"):
            pgst_search(corona, g, 0, 3, "cocktail")

    def test_unknown_family_rejected(self):
        g, h = path_graph(2), cycle_graph(3)
        corona = search_engine(exact_decomposition(g), h)
        with pytest.raises(ValueError, match="unknown pgst family"):
            pgst_search(corona, g, 0, 1, "bogus")


def family_search_input(base: str, copy: str):
    """The corona engine and the base graph, as `pgst` reads them on a family
    base."""
    spec = parse_graph_spec(f"corona({base},{copy})")
    return _search_corona(spec, {}), build_graph(spec.factors[0], {})


# the family-base pairs of the benchmark's early-stop menu as (base, copy,
# target), the capped instances of its sweeps, and (family, u, v) per base
_EARLY = [
    *(("path:2", c, t) for c, t in [
        ("cycle:3", 0.99), ("cycle:3", 0.999), ("cycle:3", 0.9999), ("cycle:5", 0.99),
        ("cycle:5", 0.9999), ("complete:2", 0.999), ("complete:4", 0.99),
        ("complete:4", 0.9999), ("complete:5", 0.999)]),
    *(("cycle:4", c, t) for c, t in [
        ("cycle:5", 0.99), ("cycle:5", 0.999), ("cycle:6", 0.99), ("cycle:6", 0.9999),
        ("complete:5", 0.999), ("complete:5", 0.9999)]),
    *(("cocktail:3", c, t) for c, t in [
        ("cycle:4", 0.99), ("cycle:6", 0.999), ("complete:2", 0.99), ("complete:4", 0.999),
        ("complete:5", 0.9999), ("cocktail:3", 0.999)]),
    *(("cocktail:5", c, t) for c, t in [
        ("cycle:4", 0.999), ("cycle:5", 0.9999), ("cycle:6", 0.9999), ("complete:2", 0.999),
        ("complete:4", 0.999), ("cocktail:3", 0.9999)]),
    *(("cocktail:7", c, t) for c, t in [
        ("cycle:4", 0.9999), ("cycle:5", 0.9999), ("cycle:6", 0.999), ("complete:2", 0.9999),
        ("complete:5", 0.9999), ("cocktail:3", 0.999)]),
]
_CAPPED = [("cycle:4", "cycle:3"), ("cycle:4", "complete:3"), ("cocktail:7", "cycle:3"),
           ("cocktail:7", "complete:3"), ("cocktail:3", "cycle:3")]
_SEARCH = {"path:2": ("t51", 0, 1), "cycle:4": ("t52", 0, 2)}


def search_args(base: str) -> tuple[str, int, int]:
    return _SEARCH.get(base, ("cocktail", 0, 1))


def numpy_route(monkeypatch):
    """Force every batch onto numpy: no grid is within a cap of 0."""
    monkeypatch.setattr(grid, "PURE_GRID_CAP", 0)


def spy_pure_batches(monkeypatch) -> list:
    """The arguments of every pure Python batch the grid kernel makes from
    now on, as it makes them."""
    entered: list = []
    pure_batch = grid._pure_batch
    monkeypatch.setattr(grid, "_pure_batch",
                        lambda *args: entered.append(args) or pure_batch(*args))
    return entered


class TestPgstRoutes:
    """On a family base whose family is not capped below the target,
    `pgst_search` evaluates its first batch of ell in pure Python and goes on
    with numpy only past it; a capped family evaluates every ell in pure
    Python where that is within the cap, else every one with numpy.  The
    route changes no ell and no verdict."""

    @staticmethod
    def targets(corona, g, family, u, v, monkeypatch) -> list[float]:
        """Targets from the numpy route's trace that put the hit on the last
        improving ell below GRID_BLOCK and on the first at or above it:
        midway between that fidelity and the one before it."""
        with monkeypatch.context() as patch:
            numpy_route(patch)
            trace = pgst_search(corona, g, u, v, family, ell_max=10**5, target=1.0).trace
        i = max(i for i, (ell, _) in enumerate(trace) if ell < GRID_BLOCK)
        picks = [i, i + 1] if i + 1 < len(trace) else [i]
        return [(trace[j][1] + trace[j - 1][1]) / 2 if j else trace[j][1] / 2 for j in picks]

    @pytest.mark.parametrize("base, copy, target", [*_EARLY, *((b, c, 0.99) for b, c in _CAPPED)],
                             ids=[f"{b}*{c}-{t}" for b, c, t in _EARLY] +
                                 [f"{b}*{c}-capped" for b, c in _CAPPED])
    def test_routes_agree(self, monkeypatch, base, copy, target):
        corona, g = family_search_input(base, copy)
        family, u, v = search_args(base)
        targets = [target]
        if (base, copy) not in _CAPPED:
            targets += self.targets(corona, g, family, u, v, monkeypatch)
        for target, ell_max in itertools.product(targets, (8190, 8191, 8192, 10**5)):
            default = pgst_search(corona, g, u, v, family, ell_max=ell_max, target=target)
            with monkeypatch.context() as patch:
                numpy_route(patch)
                forced = pgst_search(corona, g, u, v, family, ell_max=ell_max, target=target)
            assert [e for e, _ in default.trace] == [e for e, _ in forced.trace]
            assert (default.best_ell, default.target_reached) == (
                forced.best_ell, forced.target_reached)
            assert [f for _, f in default.trace] == pytest.approx(
                [f for _, f in forced.trace], abs=1e-13)

    @pytest.mark.parametrize("base, copy, u, v, cap", [
        ("cycle:4", "cycle:3", 0, 2, 0.5),
        ("cycle:4", "complete:3", 1, 3, 0.5),
        ("cocktail:7", "complete:3", 0, 1, 1 / 7),
        ("cocktail:7", "cycle:3", 5, 4, 1 / 7),
        ("cocktail:3", "cycle:3", 2, 3, 0.0),
    ])
    def test_bound_is_the_cap_of_the_acceptance_checks(self, base, copy, u, v, cap):
        """The caps 5b and 5c derive: 1/2 on the t52 family of C4 * C3 (and
        K3, the same graph), 1/7 and 0 on the cocktail family of cocktail(7)
        and cocktail(3) with 3-cycle copies."""
        corona, g = family_search_input(base, copy)
        slope, offset = (4.0, 1.0) if base == "cycle:4" else (8.0, 0.0)
        assert locked_bound(*transfer._walk_terms(corona, u, v), slope, offset) == pytest.approx(
            cap, abs=1e-12)

    @pytest.mark.parametrize("base, copy, u, v, slope, offset", [
        ("cycle:4", "cycle:5", 0, 2, 4.0, 1.0),
        ("cocktail:3", "complete:4", 0, 1, 8.0, 0.0),
    ])
    def test_bound_of_uncapped_counterparts_reaches_one(self, base, copy, u, v, slope, offset):
        corona, g = family_search_input(base, copy)
        assert locked_bound(*transfer._walk_terms(corona, u, v), slope, offset) >= 0.9999

    def test_capped_searches_never_enter_the_pure_python_block(self, monkeypatch):
        """Past the cap, that is: 10^5 + 1 ells of a capped family's terms
        pass it, and every batch takes numpy; 3 * GRID_BLOCK + 1 ells of
        C4 * C3's 5 terms are within it, and every batch is pure Python."""
        entered = spy_pure_batches(monkeypatch)
        for (base, copy), target in itertools.product(_CAPPED, (0.99, 0.999, 0.9999)):
            corona, g = family_search_input(base, copy)
            family, u, v = search_args(base)
            result = pgst_search(corona, g, u, v, family, ell_max=10**5, target=target)
            assert not result.target_reached
        assert entered == []
        corona, g = family_search_input("path:2", "cycle:3")
        assert pgst_search(corona, g, 0, 1, "t51", ell_max=10**5, target=0.999).target_reached
        assert len(entered) == 1
        corona, g = family_search_input("cycle:4", "cycle:3")
        assert len(transfer._walk_terms(corona, 0, 2)[0]) * (3 * GRID_BLOCK + 1) <= PURE_GRID_CAP
        pgst_search(corona, g, 0, 2, "t52", ell_max=3 * GRID_BLOCK, target=0.99)
        assert len(entered) == 1 + 4

    @pytest.mark.parametrize("ell_max", [100, 8191, 10**5])
    def test_a_family_capped_at_0_reports_ell_0(self, monkeypatch, ell_max):
        """cocktail(3) * C3's locked groups cancel at every antipodal pair:
        its fidelity is 0 at every family time, and no grid is made."""
        monkeypatch.setattr(grid, "moduli", mock.Mock(side_effect=AssertionError))
        corona, g = family_search_input("cocktail:3", "cycle:3")
        for w in range(3):
            for u, v in ((2 * w, 2 * w + 1), (2 * w + 1, 2 * w)):
                result = pgst_search(corona, g, u, v, "cocktail", ell_max=ell_max, target=0.5)
                assert result.trace == ((0, 0.0),)
                assert (result.best_ell, result.best_time, result.best_fidelity) == (0, 0.0, 0.0)
                assert not result.target_reached and result.ell_max == ell_max

    def test_float_base_takes_numpy(self, monkeypatch):
        """A base read off an eigensolve has loaded numpy already."""
        monkeypatch.setattr(grid, "_pure_batch", mock.Mock(side_effect=AssertionError))
        g, h = path_graph(2), cycle_graph(3)
        result = pgst_search(search_engine(exact_decomposition(g), h), g, 0, 1, "t51",
                             ell_max=10**5, target=0.999)
        assert result.target_reached


@pytest.mark.parametrize("tolerant, evaluations, budget", [
    (False, PURE_GRID_CAP - 1, PURE_GRID_CAP - 1),
    (False, PURE_GRID_CAP, PURE_GRID_CAP),
    (False, PURE_GRID_CAP + 1, 0),
    (True, PURE_GRID_CAP - 1, 0),
    (True, PURE_GRID_CAP, 0),
    (True, PURE_GRID_CAP + 1, 0),
])
def test_the_grid_route_rule(tolerant, evaluations, budget):
    """Pure Python within the cap on classes that read no tolerance; numpy
    on float classes, which an eigensolve made, and past the cap."""
    assert grid.pure_budget(SimpleNamespace(tolerant=tolerant), evaluations) == budget


class TestFidelitySweep:
    def test_two_path_grid(self):
        d = decompose(path_graph(2).adjacency())
        trace = fidelity_sweep(d, 0, 1, math.pi, 5)
        expected = [abs(math.sin(t)) for t in np.linspace(0, math.pi, 5)]
        assert np.allclose(trace.values, expected, atol=1e-12)
        assert trace.best_index == 2  # sin peaks at pi/2

    def test_self_sweep_starts_at_one(self):
        d = decompose(cycle_graph(5).adjacency())
        trace = fidelity_sweep(d, 3, 3, 7.0, 11)
        assert trace.values[0] == pytest.approx(1.0)

    def test_single_vertex_graph_constant(self):
        d = decompose(complete_graph(1).adjacency())
        trace = fidelity_sweep(d, 0, 0, 10.0, 11)
        assert np.allclose(trace.values, 1.0)

    def test_a_pair_with_no_walk_term_sweeps_float_zeros(self):
        """A(t) is an empty sum: 0.0 on either route, never the int 0."""
        d = _decomposition(parse_graph_spec("empty:2"))
        assert not d.tolerant and transfer._walk_terms(d, 0, 1) == ([], [])
        trace = fidelity_sweep(d, 0, 1, 1.0, 3)
        assert [(type(f), f) for f in trace.values] == [(float, 0.0)] * 3

    def test_bad_grid_rejected(self):
        d = decompose(path_graph(2).adjacency())
        with pytest.raises(ValueError):
            fidelity_sweep(d, 0, 1, 1.0, 1)
        with pytest.raises(ValueError):
            fidelity_sweep(d, 0, 1, 0.0, 5)
