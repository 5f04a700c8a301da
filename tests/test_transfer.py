import cmath
import math

import numpy as np
import pytest

from coronawalk.corona import CoronaSpec, copy_index, corona_graph
from coronawalk.exact import QuadInt
from coronawalk.graphs import (
    cocktail_party_graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    path_graph,
)
from coronawalk.spectral import (
    decompose,
    eigenvalue_support,
    entry_amplitudes,
    exact_decomposition,
    fidelity,
)
from coronawalk.transfer import (
    corona_base_periodicity,
    corona_no_pst_check,
    fidelity_sweep,
    periodicity_test,
    pgst_search,
    pst_certify,
)


def qi(n):
    return QuadInt.from_int(n)


def base_periodicity(g, h, v):
    return corona_base_periodicity(CoronaSpec.from_graphs(g, h), exact_decomposition(g), v)


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
        verdict = base_periodicity(path_graph(2), cycle_graph(3), 0)
        assert verdict.periodic == "no"
        assert "k >= 1" in verdict.reason

    def test_non_square_copy_count_blocks(self):
        verdict = base_periodicity(path_graph(2), empty_graph(3), 0)
        assert verdict.periodic == "no"
        assert "perfect square" in verdict.reason

    def test_quadratic_branch(self):
        # the middle vertex of the 3-path supports only +-sqrt(2)
        verdict = base_periodicity(path_graph(3), empty_graph(2), 1)
        assert verdict.periodic == "yes"
        assert verdict.case == "quadratic"
        assert verdict.witness_period == pytest.approx(math.pi * math.sqrt(2))

    def test_mixed_direction_support_blocks(self):
        # 4-path support values (±1 ± sqrt(5))/2 are neither integers nor
        # multiples of one square root
        verdict = base_periodicity(path_graph(4), empty_graph(2), 0)
        assert verdict.periodic == "no"

    def test_irregular_copy_factor_rejected(self):
        with pytest.raises(ValueError):
            base_periodicity(path_graph(2), path_graph(3), 0)

    def test_numeric_confirmation_on_assembled_graph(self):
        verdict = base_periodicity(path_graph(2), empty_graph(2), 0)
        assembled = decompose(corona_graph(path_graph(2), empty_graph(2)).adjacency())
        assert fidelity(assembled, 0, 0, verdict.witness_period) > 1 - 1e-8


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
            base = set(eigenvalue_support(assembled, v).class_indices)
            for w in range(h.n):
                copy = set(
                    eigenvalue_support(assembled, copy_index(g.n, v, w)).class_indices
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
            base = set(eigenvalue_support(assembled, v).class_indices)
            for w in range(h.n):
                copy = set(
                    eigenvalue_support(assembled, copy_index(g.n, v, w)).class_indices
                )
                assert base - copy == zero_class
        # the middle vertex misses eigenvalue 0, so containment holds there
        base = set(eigenvalue_support(assembled, 1).class_indices)
        copy = set(eigenvalue_support(assembled, copy_index(g.n, 1, 0)).class_indices)
        assert base <= copy


class TestNoPeriodicityLift:
    @pytest.mark.parametrize("h", [empty_graph(2), cycle_graph(3)], ids=["e2", "c3"])
    def test_aperiodic_base_gives_aperiodic_corona(self, h):
        g = path_graph(4)
        d = exact_decomposition(g)
        for v in range(g.n):
            sup = eigenvalue_support(d, v)
            assert periodicity_test(list(sup.exact)).periodic == "no"
        for v in range(g.n):
            assert base_periodicity(g, h, v).periodic == "no"


class TestNoTransferScan:
    def test_base_base_scan_stays_below_one(self):
        g, h = path_graph(2), cycle_graph(3)
        spec = CoronaSpec.from_graphs(g, h)
        gd = exact_decomposition(g)
        ts = np.linspace(0.0, 50.0, 1000)
        scan = corona_no_pst_check(spec, gd, ("base-base", 0, 1), ts)
        assert scan.all_below_one
        assert scan.max_fidelity < 1 - 1e-6
        assert scan.static_bound <= 1 + 1e-9

    def test_base_copy_zero_at_time_zero(self):
        g, h = path_graph(2), cycle_graph(3)
        spec = CoronaSpec.from_graphs(g, h)
        gd = exact_decomposition(g)
        scan = corona_no_pst_check(spec, gd, ("base-copy", 0, 1, 0), np.array([0.0]))
        assert scan.max_fidelity == pytest.approx(0.0, abs=1e-12)

    def test_p3_base_base_scan(self):
        g, h = path_graph(3), cycle_graph(3)
        spec = CoronaSpec.from_graphs(g, h)
        gd = exact_decomposition(g)
        ts = np.linspace(0.0, 50.0, 1000)
        scan = corona_no_pst_check(spec, gd, ("base-base", 0, 2), ts)
        assert scan.all_below_one

    def test_identical_base_vertices_rejected(self):
        g, h = path_graph(2), cycle_graph(3)
        spec = CoronaSpec.from_graphs(g, h)
        gd = exact_decomposition(g)
        with pytest.raises(ValueError):
            corona_no_pst_check(spec, gd, ("base-base", 1, 1), np.array([1.0]))


class TestPgstSearch:
    def test_t51_on_p2_c3_reaches_target(self):
        g, h = path_graph(2), cycle_graph(3)
        spec = CoronaSpec.from_graphs(g, h)
        gd = exact_decomposition(g)
        result = pgst_search(spec, gd, 0, 1, "t51", ell_max=5000, target=0.99)
        assert result.target_reached
        assert result.g == 2
        # frozen regression values for this instance
        assert result.best_ell == 53
        assert result.best_fidelity == pytest.approx(0.99584135997795, abs=1e-6)
        assert [e for e, _ in result.trace] == [0, 4, 5, 10, 53]
        assert result.best_time == pytest.approx((4 * 53 + 1) * math.pi)

    def test_trace_strictly_increasing_and_bounded(self):
        g, h = path_graph(2), cycle_graph(3)
        spec = CoronaSpec.from_graphs(g, h)
        gd = exact_decomposition(g)
        result = pgst_search(spec, gd, 0, 1, "t51", ell_max=300, target=0.9999)
        fids = [f for _, f in result.trace]
        assert all(b > a for a, b in zip(fids, fids[1:]))
        assert result.best_fidelity == max(fids)
        assert result.best_fidelity <= 1 + 1e-9

    def test_t51_times_match_assembled_oracle(self):
        from coronawalk.corona import corona_entry_base_base

        g, h = path_graph(2), cycle_graph(3)
        spec = CoronaSpec.from_graphs(g, h)
        gd = exact_decomposition(g)
        oracle = decompose(corona_graph(g, h).adjacency())
        rng = np.random.default_rng(3)
        for ell in rng.integers(0, 2000, size=5):
            t = (4 * int(ell) + 1) * math.pi  # family time at this ell, g = 2
            closed = abs(complex(corona_entry_base_base(spec, gd, 0, 1, t)))
            direct = abs(complex(entry_amplitudes(oracle, 0, 1, t)))
            assert abs(closed - direct) < 1e-7

    def test_t52_on_c4_c5_reaches_target(self):
        g, h = cycle_graph(4), cycle_graph(5)
        spec = CoronaSpec.from_graphs(g, h)
        gd = exact_decomposition(g)
        result = pgst_search(spec, gd, 0, 2, "t52", target=0.99)
        assert result.target_reached
        assert result.best_ell == 282  # frozen regression value
        assert result.best_time == pytest.approx((4 * 282 + 1) * math.pi)

    def test_cocktail_on_cocktail3_k4_reaches_target(self):
        g, h = cocktail_party_graph(3), complete_graph(4)
        spec = CoronaSpec.from_graphs(g, h)
        gd = exact_decomposition(g)
        result = pgst_search(spec, gd, 0, 1, "cocktail", target=0.99)
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
        from coronawalk.corona import corona_entry_base_base

        spec = CoronaSpec.from_graphs(g, h)
        gd = exact_decomposition(g)
        result = pgst_search(spec, gd, u, v, family, ell_max=ell_max, target=target)
        ells = np.arange(result.best_ell + 1)
        times = {
            "t51": lambda: (4.0 * ells + 2.0 / result.g) * math.pi,
            "t52": lambda: (4.0 * ells + 1.0) * math.pi,
            "cocktail": lambda: 8.0 * ells * math.pi,
        }[family]()
        fids = np.abs(corona_entry_base_base(spec, gd, u, v, times))
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

    def test_zero_degree_copy_factor_rejected(self):
        g, h = path_graph(2), empty_graph(2)
        spec = CoronaSpec.from_graphs(g, h)
        gd = exact_decomposition(g)
        with pytest.raises(ValueError, match="nonzero degree"):
            pgst_search(spec, gd, 0, 1, "t51")

    def test_t51_needs_integer_transfer_time(self):
        # 3-path transfer runs at pi/sqrt(2), not pi/g
        g, h = path_graph(3), cycle_graph(3)
        spec = CoronaSpec.from_graphs(g, h)
        gd = exact_decomposition(g)
        with pytest.raises(ValueError, match="pi/g"):
            pgst_search(spec, gd, 0, 2, "t51")

    def test_t51_needs_base_transfer(self):
        g, h = path_graph(4), cycle_graph(3)
        spec = CoronaSpec.from_graphs(g, h)
        gd = exact_decomposition(g)
        with pytest.raises(ValueError, match="base transfer"):
            pgst_search(spec, gd, 0, 3, "t51")

    def test_t52_needs_zero_eigenvalue(self):
        g, h = path_graph(2), cycle_graph(3)
        spec = CoronaSpec.from_graphs(g, h)
        gd = exact_decomposition(g)
        with pytest.raises(ValueError, match="0 in the base spectrum"):
            pgst_search(spec, gd, 0, 1, "t52")

    def test_cocktail_needs_odd_half_order(self):
        # the 2-person cocktail party (the 4-cycle) has even n = 2
        g, h = cycle_graph(4), cycle_graph(3)
        spec = CoronaSpec.from_graphs(g, h)
        gd = exact_decomposition(g)
        with pytest.raises(ValueError, match="odd n"):
            pgst_search(spec, gd, 0, 2, "cocktail")

    def test_cocktail_needs_antipodal_pair(self):
        g, h = cocktail_party_graph(3), complete_graph(4)
        spec = CoronaSpec.from_graphs(g, h)
        gd = exact_decomposition(g)
        with pytest.raises(ValueError, match="antipodal"):
            pgst_search(spec, gd, 0, 2, "cocktail")

    def test_unknown_family_rejected(self):
        g, h = path_graph(2), cycle_graph(3)
        spec = CoronaSpec.from_graphs(g, h)
        gd = exact_decomposition(g)
        with pytest.raises(ValueError, match="unknown pgst family"):
            pgst_search(spec, gd, 0, 1, "bogus")


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

    def test_bad_grid_rejected(self):
        d = decompose(path_graph(2).adjacency())
        with pytest.raises(ValueError):
            fidelity_sweep(d, 0, 1, 1.0, 1)
        with pytest.raises(ValueError):
            fidelity_sweep(d, 0, 1, 0.0, 5)
