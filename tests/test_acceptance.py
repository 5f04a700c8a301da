"""End-to-end acceptance suite: one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -s` to see the PASS lines.

Three criteria check the limits of the method, each derived from exact
factor data rather than from the program's output:

* criterion 5b: on the 4-cycle with 3-cycle copies, the time family
  (4*ell + 1)*pi is capped at fidelity 1/2.  The level gap for base
  eigenvalue -2 is sqrt((-2-2)^2 + 4*3*4) = 8, a rational number the time
  sweep can never tune, and the amplitude reduces to
  cos(2*sqrt(3)*t)/4 - 1/4.  With 5-cycle copies the gap is sqrt(96),
  irrational, and the same family reaches 0.99.
* criterion 5c: on the 6-vertex cocktail party with 3-cycle copies, every
  level gap (14, 2, 8) is an integer, so at the times 8*ell*pi the
  amplitude telescopes to the off-diagonal identity entry: identically 0
  up to float phase error.  With 4-clique copies the gaps sqrt(257) and
  sqrt(89) are irrational and the family reaches 0.99.
* criterion 7a: a base vertex's support escapes a copy vertex's support
  exactly where the base vertex supports eigenvalue 0 and the copy
  factor's spectrum misses 0: the corona's value-0 class then lies on base
  coordinates only.
"""

import math
import time

import numpy as np
import pytest

from coronawalk.corona import (
    CoronaSpec,
    copy_index,
    corona_graph,
    corona_spectral_closed_form,
    lift_class,
)
from coronawalk.exact import QuadInt, SquareFreeSplit, square_free_part
from coronawalk.graphs import (
    cocktail_party_graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    make_graph,
    path_graph,
)
from coronawalk.spectral import (
    decompose,
    eigenvalue_support,
    entry_amplitudes,
    exact_decomposition,
)
from coronawalk.transfer import (
    corona_base_periodicity,
    corona_no_pst_check,
    periodicity_test,
    pgst_search,
    pst_certify,
)

from oracles import (
    corona_entry_base_base,
    corona_entry_base_copy,
    fidelity,
    projector,
    reassemble,
    transition_matrix,
)

BASE_FAMILY = {
    "P2": path_graph(2),
    "P3": path_graph(3),
    "C4": cycle_graph(4),
    "cocktail3": cocktail_party_graph(3),
}
COPY_FAMILY = {
    "C3": cycle_graph(3),
    "C4": cycle_graph(4),
    "K4": complete_graph(4),
}


def _line(tag: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {tag} {'PASS' if ok else 'FAIL'}: {detail}")


def _base_periodicity(g, h, v):
    return corona_base_periodicity(CoronaSpec.from_graphs(g, h), exact_decomposition(g), v)


def test_criterion_1_closed_form_matches_numeric_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_recon = 0.0
    worst_entry = 0.0
    for gname, g in BASE_FAMILY.items():
        for hname, h in COPY_FAMILY.items():
            spec = CoronaSpec.from_graphs(g, h)
            gd = exact_decomposition(g)
            hd = exact_decomposition(h)
            closed = corona_spectral_closed_form(spec, gd, hd)
            assembled = corona_graph(g, h)
            a = assembled.adjacency().astype(float)
            recon = float(np.max(np.abs(reassemble(closed) - a)))
            worst_recon = max(worst_recon, recon)
            assert recon < 1e-8, f"{gname}*{hname}: reconstruction error {recon}"

            oracle = decompose(a)
            ts = rng.uniform(0.0, 20.0, size=25)
            for v in range(g.n):
                for vp in range(g.n):
                    diff = np.max(
                        np.abs(
                            corona_entry_base_base(spec, gd, v, vp, ts)
                            - entry_amplitudes(oracle, v, vp, ts)
                        )
                    )
                    worst_entry = max(worst_entry, float(diff))
                    assert diff < 1e-7, f"{gname}*{hname} base-base ({v},{vp})"
                    for w in range(h.n):
                        diff = np.max(
                            np.abs(
                                corona_entry_base_copy(spec, gd, vp, v, w, ts)
                                - entry_amplitudes(
                                    oracle, vp, copy_index(g.n, v, w), ts
                                )
                            )
                        )
                        worst_entry = max(worst_entry, float(diff))
                        assert diff < 1e-7, f"{gname}*{hname} base-copy ({vp},{v},{w})"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"criterion 1 took {elapsed:.1f}s"
    _line(
        "1",
        True,
        f"12 coronas: reconstruction <= {worst_recon:.2e}, "
        f"entry deviation <= {worst_entry:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_pst_certificates():
    cases = [
        ("P2", path_graph(2), 0, 1, 1, 2, math.pi / 2),
        ("P3", path_graph(3), 0, 2, 2, 1, math.pi / math.sqrt(2)),
        ("C4", cycle_graph(4), 0, 2, 1, 2, math.pi / 2),
    ]
    details = []
    for name, g, u, v, delta, gval, tau in cases:
        d = exact_decomposition(g)
        cert = pst_certify(d, u, v)
        assert cert.verdict == "PST", name
        assert cert.delta == delta and cert.g == gval, name
        assert cert.tau == pytest.approx(tau, abs=1e-12), name
        assert cert.fidelity_at_tau > 1 - 1e-10, name
        details.append(f"{name}: tau={cert.tau_symbolic}, fid={cert.fidelity_at_tau:.12f}")
    _line("2", True, "; ".join(details))


def test_criterion_3_base_periodicity_conditions():
    yes = _base_periodicity(path_graph(2), empty_graph(2), 0)
    assert yes.periodic == "yes"
    assembled = decompose(corona_graph(path_graph(2), empty_graph(2)).adjacency())
    revival = fidelity(assembled, 0, 0, 2 * math.pi)
    assert revival > 1 - 1e-8

    no_square = _base_periodicity(path_graph(2), empty_graph(3), 0)
    assert no_square.periodic == "no"
    no_degree = _base_periodicity(path_graph(2), cycle_graph(3), 0)
    assert no_degree.periodic == "no"
    _line(
        "3",
        True,
        f"two isolated copies: periodic, |U(2pi)| = {revival:.12f}; "
        "three copies and 2-regular copies: not periodic",
    )


def test_criterion_4_no_transfer_scan():
    worst = 0.0
    for g in (path_graph(2), path_graph(3)):
        h = cycle_graph(3)
        spec = CoronaSpec.from_graphs(g, h)
        gd = exact_decomposition(g)
        for v in range(g.n):
            for vp in range(v + 1, g.n):
                scan = corona_no_pst_check(spec, gd, ("base-base", v, vp), 50.0, 10000)
                worst = max(worst, scan.max_fidelity)
                assert scan.max_fidelity < 1 - 1e-6
        for vp in range(g.n):
            for v in range(g.n):
                for w in range(h.n):
                    scan = corona_no_pst_check(
                        spec, gd, ("base-copy", vp, v, w), 50.0, 10000
                    )
                    worst = max(worst, scan.max_fidelity)
                    assert scan.max_fidelity < 1 - 1e-6
    _line("4", True, f"10^4-point scans stay below 1 - 1e-6 (max {worst:.9f})")


def test_criterion_5a_pgst_integer_family():
    start = time.perf_counter()
    spec = CoronaSpec.from_graphs(path_graph(2), cycle_graph(3))
    gd = exact_decomposition(path_graph(2))
    result = pgst_search(spec, gd, 0, 1, "t51", ell_max=100_000, target=0.99)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    assert result.target_reached and result.best_fidelity >= 0.99
    assert result.g == 2  # times (4*ell + 1) * pi
    assert result.best_ell == 53  # frozen winning index for this instance
    _line(
        "5a",
        True,
        f"2-path base with 3-cycle copies: fidelity {result.best_fidelity:.6f} "
        f"at ell={result.best_ell}, {elapsed:.1f}s",
    )


def _level_gap_splits(spec: CoronaSpec, g_decomp) -> dict[int, SquareFreeSplit]:
    """Split s^2 * c of the squared level gap (lam-k)^2 + 4*m*lam^2 per base eigenvalue.

    Keyed by the exact integer base eigenvalue lam.  The gap Lambda = s*sqrt(c)
    is rational, and so locked at every family time, exactly when c == 1.
    """
    k, m = spec.require_regular(), spec.m
    splits = {}
    for c in g_decomp.classes:
        lam = c.exact.as_integer()
        splits[lam] = square_free_part((lam - k) ** 2 + 4 * m * lam * lam)
    return splits


def test_criterion_5b_pgst_zero_mode_family():
    start = time.perf_counter()
    ell_max = 100_000
    spec = CoronaSpec.from_graphs(cycle_graph(4), cycle_graph(3))
    gd = exact_decomposition(cycle_graph(4))
    splits = _level_gap_splits(spec, gd)
    # k = 2, m = 3.  At t = (4*ell + 1)*pi the factors of the integer gaps
    # sqrt(4) = 2 (lam = 0) and sqrt(64) = 8 (lam = -2) both equal 1, and the
    # lam = 2 term keeps only cos(t*Lambda/2) because lam - k = 0.
    assert splits[0] == SquareFreeSplit(2, 1)
    assert splits[-2] == SquareFreeSplit(8, 1)
    assert splits[2] == SquareFreeSplit(4, 3)
    half_gap = splits[2].s * math.sqrt(splits[2].c) / 2  # 2*sqrt(3)
    entry = {c.exact.as_integer(): projector(c)[0, 2] for c in gd.classes}
    assert entry[2] == pytest.approx(0.25, abs=1e-12)
    assert entry[0] + entry[-2] == pytest.approx(-0.25, abs=1e-12)
    cap = 0.5  # |cos(x)/4 - 1/4| <= 1/2, with equality only at cos(x) = -1

    ells = np.arange(ell_max + 1)
    ts = (4.0 * ells + 1.0) * math.pi
    amps = corona_entry_base_base(spec, gd, 0, 2, ts)
    reduced = np.cos(half_gap * ts) / 4 - 1 / 4
    # float phase error grows with t; 1e-8 covers t <= 4*10^5*pi
    phase_err = float(np.max(np.abs(amps - reduced)))
    assert phase_err < 1e-8

    result = pgst_search(spec, gd, 0, 2, "t52", ell_max=ell_max, target=0.99)
    assert not result.target_reached and result.ell_max == ell_max
    # the search's best is the family maximum over every ell <= ell_max
    fids = np.abs(amps)
    assert result.best_fidelity == pytest.approx(fids.max(), abs=1e-12)
    assert fids[result.best_ell] == pytest.approx(fids.max(), abs=1e-12)
    assert 0.4999 <= result.best_fidelity <= cap + 1e-8
    trace_ells, trace_fids = zip(*result.trace)
    assert all(a < b for a, b in zip(trace_ells, trace_ells[1:]))
    assert all(a < b for a, b in zip(trace_fids, trace_fids[1:]))
    assert result.trace[-1] == (result.best_ell, result.best_fidelity)

    # 5-cycle copies: the lam = -2 gap sqrt(96) is irrational and t52 works
    spec5 = CoronaSpec.from_graphs(cycle_graph(4), cycle_graph(5))
    assert _level_gap_splits(spec5, gd)[-2] == SquareFreeSplit(4, 6)
    working = pgst_search(spec5, gd, 0, 2, "t52", ell_max=ell_max, target=0.99)
    assert working.target_reached and working.best_fidelity >= 0.99
    assert working.best_ell == 282
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _line(
        "5b",
        True,
        f"4-cycle base with 3-cycle copies: best fidelity "
        f"{result.best_fidelity:.11f} at ell={result.best_ell} against the cap "
        f"1/2 (lam = -2 gap sqrt(64) = 8 is rational; amplitude = "
        f"cos(2*sqrt(3)*t)/4 - 1/4 within {phase_err:.1e}); 5-cycle copies "
        f"(gap sqrt(96)) reach {working.best_fidelity:.6f} at "
        f"ell={working.best_ell}, {elapsed:.1f}s",
    )


def test_criterion_5c_pgst_cocktail_family():
    start = time.perf_counter()
    ell_max = 100_000
    g = cocktail_party_graph(3)
    spec = CoronaSpec.from_graphs(g, cycle_graph(3))
    gd = exact_decomposition(g)
    splits = _level_gap_splits(spec, gd)
    # Base spectrum {4, 0, -2}, k = 2, m = 3: every gap is an integer and
    # every lam + k is even, so at t = 8*ell*pi each phase factor is 1 and
    # the amplitude is sum_lam E_lam[0, 1] = I[0, 1] = 0.
    assert sorted(splits) == [-2, 0, 4]
    assert all(split.c == 1 for split in splits.values())
    assert {lam: split.s for lam, split in splits.items()} == {4: 14, 0: 2, -2: 8}
    assert all((lam + spec.k) % 2 == 0 for lam in splits)
    noise_bound = 1e-8  # float phase error at t <= 8*10^5*pi

    result = pgst_search(spec, gd, 0, 1, "cocktail", ell_max=ell_max, target=0.99)
    assert not result.target_reached and result.ell_max == ell_max
    assert result.best_fidelity < noise_bound

    # 4-clique copies: the gaps sqrt(257) and sqrt(89) are irrational
    spec_k4 = CoronaSpec.from_graphs(g, complete_graph(4))
    splits_k4 = _level_gap_splits(spec_k4, gd)
    assert splits_k4[4].c == 257 and splits_k4[-2].c == 89
    working = pgst_search(spec_k4, gd, 0, 1, "cocktail", ell_max=ell_max, target=0.99)
    assert working.target_reached and working.best_fidelity >= 0.99
    assert working.best_ell == 72
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _line(
        "5c",
        True,
        f"6-vertex cocktail party with 3-cycle copies: max fidelity "
        f"{result.best_fidelity:.2e} < {noise_bound:.0e} over ell <= {ell_max} "
        f"(level gaps 14, 2, 8 are integers, so the amplitude is identically 0); "
        f"4-clique copies (gaps sqrt(257), sqrt(89)) reach "
        f"{working.best_fidelity:.6f} at ell={working.best_ell}, {elapsed:.1f}s",
    )


def _random_graph(rng, n):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
    return make_graph(n, edges)


def test_criterion_6_invariant_suite_on_random_graphs():
    rng = np.random.default_rng(31415)
    proj_err = unit_err = sym_err = group_err = pair_err = 0.0
    for _ in range(50):
        g = _random_graph(rng, int(rng.integers(2, 9)))
        d = decompose(g.adjacency())
        eye = np.eye(d.n)

        total = sum(projector(c) for c in d.classes)
        proj_err = max(proj_err, float(np.max(np.abs(total - eye))))
        for i, c in enumerate(d.classes):
            p = projector(c)
            proj_err = max(proj_err, float(np.max(np.abs(p @ p - p))))
            for c2 in d.classes[i + 1 :]:
                proj_err = max(proj_err, float(np.max(np.abs(p @ projector(c2)))))
        assert proj_err < 1e-9

        t, s = rng.uniform(0.0, 10.0, size=2)
        u_t = transition_matrix(d, t)
        u_s = transition_matrix(d, s)
        unit_err = max(
            unit_err, float(np.max(np.abs(u_t @ u_t.conj().T - eye)))
        )
        sym_err = max(sym_err, float(np.max(np.abs(u_t - u_t.T))))
        group_err = max(
            group_err,
            float(np.max(np.abs(transition_matrix(d, t + s) - u_t @ u_s))),
        )
        assert unit_err < 1e-8 and sym_err < 1e-8 and group_err < 1e-7

        spec = CoronaSpec.from_graphs(g, cycle_graph(3))
        k, m = spec.require_regular(), spec.m
        for c in d.classes:
            lam = c.value
            plus, minus = (lift.value for lift in lift_class(lam, c.exact, spec.main))
            lhs1 = ((plus - k) ** 2 + m * lam * lam) * (
                (minus - k) ** 2 + m * lam * lam
            )
            rhs1 = m * lam * lam * (plus - minus) ** 2
            lhs2 = (plus - k) * (minus - k)
            rhs2 = -m * lam * lam
            scale1 = max(abs(rhs1), 1e-3)
            scale2 = max(abs(rhs2), 1e-3)
            pair_err = max(
                pair_err, abs(lhs1 - rhs1) / scale1, abs(lhs2 - rhs2) / scale2
            )
        assert pair_err < 1e-6
    _line(
        "6",
        True,
        f"50 random graphs: projector algebra {proj_err:.1e}, unitarity "
        f"{unit_err:.1e}, symmetry {sym_err:.1e}, group law {group_err:.1e}, "
        f"pair identities {pair_err:.1e}",
    )


def test_criterion_7a_support_containment():
    # A base vertex v of G * H escapes the support of copy vertex (v, w)
    # exactly by the corona's value-0 class when 0 is in supp_G(v) and not
    # in spec(H); everywhere else the base support lies inside the copy
    # support.  The copy factors are vertex-transitive, so every vertex of H
    # supports every eigenvalue of H.
    zero = QuadInt.from_int(0)
    predicted = observed = 0
    for gname, g in BASE_FAMILY.items():
        gd = exact_decomposition(g)
        for hname, h in COPY_FAMILY.items():
            h_has_zero = any(c.exact == zero for c in exact_decomposition(h).classes)
            assembled = exact_decomposition(corona_graph(g, h))
            zero_class = {i for i, c in enumerate(assembled.classes) if c.exact == zero}
            for v in range(g.n):
                escapes = zero in eigenvalue_support(gd, v).exact and not h_has_zero
                base = set(eigenvalue_support(assembled, v).class_indices)
                for w in range(h.n):
                    copy = set(
                        eigenvalue_support(
                            assembled, copy_index(g.n, v, w)
                        ).class_indices
                    )
                    expected = zero_class if escapes else set()
                    if escapes:
                        assert len(zero_class) == 1, f"{gname}*{hname}"
                        predicted += 1
                    assert base - copy == expected, f"{gname}*{hname} v={v} w={w}"
                    observed += bool(base - copy)
    # P3 (2 zero-mode vertices), C4 (4) and cocktail(3) (6) against C3 (3
    # vertices) and K4 (4): 6 + 8 + 12 + 16 + 18 + 24
    assert observed == predicted == 84
    _line(
        "7a",
        True,
        f"{observed} violations of base-in-copy support containment, "
        f"{predicted} predicted: each is exactly the value-0 class, where the "
        "base vertex supports 0 and the copy factor's spectrum misses 0",
    )


def test_criterion_7b_no_periodicity_lift():
    g = path_graph(4)
    d = exact_decomposition(g)
    for v in range(g.n):
        sup = eigenvalue_support(d, v)
        assert periodicity_test(list(sup.exact)).periodic == "no"
    for h in (empty_graph(2), cycle_graph(3)):
        for v in range(g.n):
            assert _base_periodicity(g, h, v).periodic == "no"
    _line(
        "7b",
        True,
        "aperiodic 4-path base keeps every lifted base vertex aperiodic "
        "for both copy factors",
    )
