"""The corona engine (`coronaspectra.CoronaDecomposition`, through
`cli._decomposition`) on coronas of two families against the Kronecker
closed form of the same spec (`oracles.closed_form`), and a few small
coronas against the assembled graph."""

import numpy as np
import pytest

from coronawalk.cli import _decomposition, parse_graph_spec
from coronawalk.defaults import DEFAULT_COSPECTRAL_TOL, DEFAULT_SUPPORT_TOL
from coronawalk.exact import QuadInt
from coronawalk.graphs import FAMILIES, GraphSpec, build_graph, spec_order
from coronawalk.leafspectra import SupportSet
from coronawalk.spectral import exact_decomposition
from coronawalk.transfer import periodicity_test, pst_certify

from oracles import closed_form, transition_matrix

BASES = ([f"{kind}:{n}" for kind in ("path", "cycle", "complete", "empty", "star")
          for n in range(FAMILIES[kind].minimum, 11)] + [f"cocktail:{n}" for n in range(1, 6)])
COPIES = ([f"cycle:{n}" for n in range(3, 7)] + [f"complete:{n}" for n in range(1, 6)]
          + [f"cocktail:{n}" for n in range(1, 4)] + [f"empty:{n}" for n in range(1, 4)]
          + ["path:1", "path:2", "star:1", "star:2"]
          + [f"{kind}:{n}" for kind in ("path", "star") for n in range(3, 7)])
TIMES = (0.7, 3.1, 11.3)


def corona(base: str, copy: str) -> GraphSpec:
    return parse_graph_spec(f"corona({base},{copy})")


class ClosedForm:
    """The closed form's vertex queries, read off its classes' projectors E on
    every vertex and pair at once: support where ||E e_u|| > 1e-8, as
    `eigenvalue_support` reads it, and per class the sign s with
    ||E e_u - s E e_v||^2 = E_uu + E_vv - 2 s E_uv below 1e-12, a class being
    skipped where ||E e_u|| and ||E e_v|| are both at most 1e-7, as in
    `strong_cospectral`.  Every nonzero norm these factors give is far above
    both bounds, so this is the float rule, made for all pairs in one array
    operation (`test_the_projector_signs_are_the_float_rule`)."""

    def __init__(self, d):
        self.d, self.classes, self.n = d, d.classes, d.n
        projectors = np.stack([c.vectors @ c.vectors.T for c in d.classes])
        norms = np.sqrt(np.einsum("cii->ci", projectors))
        self.held = norms > DEFAULT_SUPPORT_TOL
        square = norms * norms
        gap = square[:, :, None] + square[:, None, :]
        code = np.where(gap - 2 * projectors < 1e-12, 1,
                        np.where(gap + 2 * projectors < 1e-12, -1, 2))
        live = norms > DEFAULT_COSPECTRAL_TOL
        code[~(live[:, :, None] | live[:, None, :])] = 0
        self.code, self.bad = code, (code == 2).any(axis=0).tolist()
        self.projectors = projectors

    def support(self, u, tol=None):
        idx = tuple(int(i) for i in np.flatnonzero(self.held[:, u]))
        return SupportSet(u, idx, tuple(self.classes[i].exact for i in idx),
                          any(self.classes[i].beyond_quadratic for i in idx))

    def signs(self, u, v, tol=None):
        if self.bad[u][v]:
            return None
        return {int(i): int(self.code[i, u, v]) for i in np.flatnonzero(self.code[:, u, v])}

    def amplitude(self, u, v, t):
        return self.d.amplitude(u, v, t)

    def transition(self, t):
        phases = np.exp(-1j * t * np.array([c.value for c in self.classes]))
        return np.tensordot(phases, self.projectors, axes=1)


class Memo:
    """A decomposition's supports and signs, each made once, for
    `pst_certify` to read on every ordered pair."""

    def __init__(self, d, supports, signs):
        self.d, self.classes, self.n = d, d.classes, d.n
        self._supports, self._signs = supports, signs

    def support(self, u, tol=None):
        return self._supports[u]

    def signs(self, u, v, tol=None):
        return self._signs[u, v]

    def amplitude(self, u, v, t):
        return self.d.amplitude(u, v, t)


def same_record(got, want):
    """Equal records: every int, str and None field equal, floats within 1e-12."""
    assert got._fields == want._fields
    for field, x, y in zip(got._fields, got, want):
        if isinstance(y, (float, complex)):
            assert abs(x - y) <= 1e-12, field
        else:
            assert x == y, field


def compare(spec: GraphSpec, mine, closed: ClosedForm, truth: ClosedForm) -> None:
    """Every support, sign and verdict, and a sample of amplitudes, equal; the
    amplitudes, which certificates read too, are those of `truth`, the closed
    form at 1e-8, where no class merges distinct eigenvalues: the engine
    turns each atom at its own value at any group tol."""
    supports = [mine.support(u) for u in range(mine.n)]
    for u, sup in enumerate(supports):
        want = closed.support(u)
        assert sup == want, (str(spec), u)
        same_record(periodicity_test(sup.exact, sup.beyond_quadratic),
                    periodicity_test(want.exact, want.beyond_quadratic))
    signs = {}
    for u in range(mine.n):
        for v in range(mine.n):
            if u != v:
                got = mine.signs(u, v)
                assert got == closed.signs(u, v), (str(spec), u, v)
                if got is not None:
                    signs[u, v] = got
    # a pair that is not strongly cospectral gets its certificate from the
    # support and signs alone, compared above; the others read the amplitude
    ours, theirs = Memo(mine, supports, signs), Memo(truth.d, supports, signs)
    for u, v in signs:
        same_record(pst_certify(ours, u, v), pst_certify(theirs, u, v))
    n, last = spec_order(spec.factors[0], {}), mine.n - 1
    # base-base, base-copy, copy-copy over two base vertices and over one,
    # and a return amplitude
    pairs = [(0, n - 1), (0, last), (n, last), (n, last + 1 - n), (last, last)]
    for t in TIMES:
        u_t = truth.transition(t)
        for u, v in pairs:
            assert abs(mine.amplitude(u, v, t) - u_t[u, v]) <= 1e-12, (str(spec), u, v, t)


def same_classes(spec, mine, closed) -> None:
    """Values within 1e-12, multiplicities, labels and flags equal."""
    assert [(c.multiplicity, c.exact, c.beyond_quadratic) for c in mine.classes] == \
        [(c.multiplicity, c.exact, c.beyond_quadratic) for c in closed.classes], str(spec)
    assert max(abs(c.value - r.value) for c, r in zip(mine.classes, closed.classes)) <= 1e-12


@pytest.mark.parametrize("base", BASES)
def test_the_engine_equals_the_closed_form(base):
    """Classes, the support and periodicity verdict of every vertex, the
    signs and PST certificate of every ordered pair (base-base, base-copy and
    copy-copy) and amplitudes at three times within 1e-12, over every copy
    factor in COPIES, regular and `path:3`-`path:6` and `star:3`-`star:6`,
    at --group-tol 1e-8, 1e-3 and 1e-2, the amplitudes against the closed
    form at 1e-8 (`compare`).  A looser tolerance that groups every class as
    1e-8 does gives the same members, so its queries are those compared at
    1e-8."""
    for copy in COPIES:
        spec = corona(base, copy)
        seen = truth = None
        for tol in (1e-8, 1e-3, 1e-2):
            mine, closed = _decomposition(spec, tol, labelled=True), closed_form(spec, tol)
            same_classes(spec, mine, closed)
            grouping = [c.multiplicity for c in mine.classes]
            if grouping != seen:
                seen = seen or grouping
                form = ClosedForm(closed)
                truth = truth or form
                compare(spec, mine, form, truth)


SMALL = ["corona(path:3,cycle:3)", "corona(cycle:4,empty:2)", "corona(star:4,complete:3)",
         "corona(cocktail:2,cycle:4)", "corona(path:4,path:2)", "corona(complete:3,cocktail:1)",
         "corona(cycle:5,star:1)", "corona(empty:2,cycle:4)"]


@pytest.mark.parametrize("spec", SMALL)
def test_the_projector_signs_are_the_float_rule(spec):
    """`ClosedForm` reads supports and signs as `eigenvalue_support` and
    `strong_cospectral` do, on every vertex and ordered pair."""
    d = closed_form(parse_graph_spec(spec))
    closed = ClosedForm(d)
    for u in range(d.n):
        assert closed.support(u) == d.support(u)
        for v in range(d.n):
            if u != v:
                assert closed.signs(u, v) == d.signs(u, v), (u, v)


@pytest.mark.parametrize("spec", SMALL)
def test_small_coronas_equal_the_assembled_graph(spec):
    """Against the assembled corona's eigensolve with rank-verified labels:
    values within 1e-9, multiplicities and labels equal, every support and
    sign equal to the float route's on it, and U(t) within 1e-9."""
    spec = parse_graph_spec(spec)
    mine = _decomposition(spec, 1e-8, labelled=True)
    ref = exact_decomposition(build_graph(spec, {}))
    assert [(c.multiplicity, c.exact) for c in mine.classes] == \
        [(r.multiplicity, r.exact) for r in ref.classes]
    assert max(abs(c.value - r.value) for c, r in zip(mine.classes, ref.classes)) <= 1e-9
    for u in range(mine.n):
        assert mine.support(u)[:3] == ref.support(u)[:3], u
        for v in range(mine.n):
            if u != v:
                assert mine.signs(u, v) == ref.signs(u, v), (u, v)
    for t in TIMES:
        u_t = transition_matrix(ref, t)
        assert max(abs(mine.amplitude(u, v, t) - u_t[u, v])
                   for u in range(mine.n) for v in range(mine.n)) <= 1e-9


def test_a_lift_vanishes_on_the_leaves_of_a_star_copy():
    """Over star:3 a lift theta's copy layer is lam (theta - A_R)^-1 1 / ||x||,
    whose leaf entries (theta + 1)/(theta^2 - 2) vanish at theta = -1: the
    lift -1 of (1 +- sqrt(5))/2, base values of path:4, holds every base
    vertex and the star's centres (copy vertices 4-7) but no leaf (copy
    vertices 8-15), as on the assembled graph."""
    spec = parse_graph_spec("corona(path:4,star:3)")
    mine = _decomposition(spec, 1e-8, labelled=True)
    ref = exact_decomposition(build_graph(spec, {}))
    assert [(c.multiplicity, c.exact) for c in mine.classes] == \
        [(r.multiplicity, r.exact) for r in ref.classes]
    minus_one = [c.exact for c in mine.classes].index(QuadInt.from_int(-1))
    assert mine.classes[minus_one].multiplicity == 2
    for u in range(mine.n):
        sup = mine.support(u)
        assert sup[:3] == ref.support(u)[:3], u
        assert (minus_one in sup.class_indices) == (u < 8), u


def test_each_arrowhead_is_solved_once(monkeypatch, capsys):
    """path:3's values +-sqrt(2) are conjugates, and labelling the lifts of
    each reads the other's arrowhead: the base's three values take three
    solves of the secular equation over path:200's main data, not five, and
    the report is that of solving each value's arrowhead anew."""
    from coronawalk import arrowhead, coronaspectra
    from coronawalk.cli import run_command

    calls = []
    solve = arrowhead.secular_lifts
    monkeypatch.setattr(arrowhead, "secular_lifts",
                        lambda *args: calls.append(args[0]) or solve(*args))
    argv = ["spectrum", "corona(path:3,path:200)"]
    assert run_command(argv) == 0
    shared = capsys.readouterr().out
    assert len(calls) == 3
    lift = coronaspectra.lift_class
    monkeypatch.setattr(coronaspectra, "lift_class",
                        lambda lam, label, main, solved: lift(lam, label, main))
    assert run_command(argv) == 0
    assert len(calls) == 3 + 5
    assert capsys.readouterr().out == shared


def test_a_merged_family_class_lifts_each_of_its_values():
    """At --group-tol 1e-2 path:40 merges its values near 2 and near -2 into
    classes of several values.  The engine lifts each value of such a class
    with the rank of its atoms, so its classes are the assembled graph's at
    1e-2 and its amplitudes the assembled graph's at 1e-8, within 1e-12: no
    lift turns at a class mean."""
    spec = parse_graph_spec("corona(path:40,cycle:3)")
    base = _decomposition(spec.factors[0], 1e-2)
    assert sum(len({a.value for a in atoms}) > 1 for atoms in base.atoms) == 2
    d = _decomposition(spec, 1e-2, labelled=True)
    graph = build_graph(spec, {})
    assert [(c.multiplicity, c.exact) for c in d.classes] == \
        [(c.multiplicity, c.exact) for c in exact_decomposition(graph, 1e-2).classes]
    exact = exact_decomposition(graph, 1e-8)
    for u, v in [(0, 1), (0, 39), (5, 45), (45, 85), (3, 159), (20, 21)]:
        for t in TIMES:
            assert abs(d.amplitude(u, v, t) - exact.amplitude(u, v, t)) <= 1e-12, (u, v, t)
