import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from simplicial_gap import subtour_lp
from simplicial_gap.instances import (
    SimplicialInstance,
    held_karp_cycle,
    make_equal,
    make_one_extra,
)
from simplicial_gap.subtour_lp import (
    min_cut,
    simplex_solve,
    solve_subtour,
)

from oracles import degree_residuals, min_cut_delete, weight_matrix

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_simplex_small_lp():
    # min -x1 over x1 + x2 = 1, x >= 0
    a = np.array([[1.0, 1.0]])
    b = np.array([1.0])
    c = np.array([-1.0, 0.0])
    x, obj, status, _ = simplex_solve(a, b, c)
    assert status == "optimal"
    assert obj == pytest.approx(-1.0, abs=1e-12)
    assert np.allclose(x, [1.0, 0.0], atol=1e-12)


def test_simplex_two_constraints():
    # min x3 subject to x1 + x3 = 2, x2 - x3 = 1
    a = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, -1.0]])
    b = np.array([2.0, 1.0])
    c = np.array([0.0, 0.0, 1.0])
    x, obj, status, _ = simplex_solve(a, b, c)
    assert status == "optimal"
    assert obj == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(a @ x, b, atol=1e-12)


def test_simplex_rejects_bad_systems():
    with pytest.raises(ArithmeticError):
        simplex_solve(np.array([[1.0], [1.0]]), np.array([1.0, 2.0]), np.array([0.0]))
    with pytest.raises(ArithmeticError):
        simplex_solve(np.array([[1.0, -1.0]]), np.array([0.0]), np.array([-1.0, 0.0]))
    with pytest.raises(ValueError):
        simplex_solve(np.array([[1.0]]), np.array([-1.0]), np.array([1.0]))


def test_simplex_budget_exhaustion_is_iteration_limit(monkeypatch):
    # feasible, but phase 1 needs two pivots to clear both artificials
    a = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    b = np.array([1.0, 1.0])
    c = np.array([1.0, 1.0, 1.0])
    with monkeypatch.context() as m:
        m.setattr(subtour_lp, "MAX_PIVOTS", 1)
        _, _, status, tableau = simplex_solve(a, b, c)
    assert status == "iteration-limit"
    assert tableau is None
    _, obj, status, _ = simplex_solve(a, b, c)
    assert status == "optimal"
    assert obj == pytest.approx(1.0, abs=1e-12)


def test_simplex_warm_start_after_a_cut():
    # degree LP of two triangles: both sit at x = 1, cost 0, support disconnected
    inst = make_equal(2, 3)
    n = inst.n_total
    eu, ev = np.triu_indices(n, 1)
    a = np.zeros((n, eu.size))
    a[eu, np.arange(eu.size)] = a[ev, np.arange(eu.size)] = 1.0
    cost = inst.cost_matrix()[eu, ev]
    b = np.full(n, 2.0)
    x, obj, status, tableau = simplex_solve(a, b, cost)
    assert status == "optimal" and obj == pytest.approx(0.0, abs=1e-12)
    # append the violated cut around the first triangle, surplus column basic
    crossing = ((eu < 3) != (ev < 3)).astype(float)
    assert crossing @ x < 2.0
    tableau.add_rows(crossing[None, :])
    assert tableau.optimize()
    warm_x = tableau.point(eu.size + 1)
    a2 = np.zeros((n + 1, eu.size + 1))
    a2[:n, : eu.size] = a
    a2[n, : eu.size] = crossing
    a2[n, -1] = -1.0
    b2 = np.r_[b, 2.0]
    c2 = np.r_[cost, 0.0]
    warm_obj = c2 @ warm_x
    assert warm_obj == pytest.approx(simplex_solve(a2, b2, c2)[1], abs=1e-9)
    assert warm_obj == pytest.approx(2.0, abs=1e-9)
    assert np.abs(a2 @ warm_x - b2).max() <= 1e-9
    assert warm_x.min() >= -1e-9


def _cycling_tableau():
    """A 2 x 4 LP of the kind Hall & McKinnon (Math. Program. 100, 2004) build
    to make Dantzig's rule cycle, capped by x1 + ... + x4 <= 1, at its slack
    basis.  From there Dantzig's rule, with this module's ratio test, runs a
    cycle of six degenerate pivots."""
    a = np.array(
        [
            [0.4, 0.2, -1.4, -0.2, 1.0, 0.0, 0.0],
            [-7.8, -1.4, 7.8, 0.4, 0.0, 1.0, 0.0],
            [1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 1.0],
        ]
    )
    t = subtour_lp._Tableau(np.c_[a, [0.0, 0.0, 1.0]], np.array([4, 5, 6]))
    t.price(np.array([-2.3, -2.15, 13.55, 0.4, 0.0, 0.0, 0.0]))
    return t


def test_simplex_leaves_a_dantzig_cycle(monkeypatch):
    # the Bland fallback ends the cycle at the optimum -7/8
    t = _cycling_tableau()
    assert t.primal()
    assert -t.z[-1] == pytest.approx(-0.875, abs=1e-12)
    assert t.point(4) == pytest.approx([0.0, 0.5, 0.0, 0.5], abs=1e-12)
    # with the fallback out of reach, Dantzig's rule cycles until out of pivots
    monkeypatch.setattr(subtour_lp, "DEGENERATE_RUN", subtour_lp.MAX_PIVOTS)
    t = _cycling_tableau()
    assert not t.primal()
    assert -t.z[-1] == 0.0


def test_primal_ratio_test_reads_a_negative_rhs_as_zero():
    # roundoff left x0 at -1e-13; stepping x2 in through its 1e-8 entry would
    # take x2 to -1e-5, so the tie with x1's row goes to the larger pivot
    t = subtour_lp._Tableau(
        np.array([[1.0, 0.0, 1e-8, -1e-13], [0.0, 1.0, 1.0, 0.0]]), np.array([0, 1])
    )
    t.price(np.array([0.0, 0.0, -1.0]))
    assert t.primal()
    assert t.basis.tolist() == [0, 2]
    assert t.point(3).min() >= -1e-12


def test_dual_ratio_test_reads_a_negative_reduced_cost_as_zero():
    # roundoff left x1's reduced cost at -1e-13; entering x1 through its -1e-8
    # entry would set it to 1e8, so the tie with x2 goes to the larger pivot
    t = subtour_lp._Tableau(np.array([[1.0, -1e-8, -1.0, -1.0]]), np.array([0]))
    t.price(np.array([0.0, -1e-13, 0.0]))
    assert t.dual()
    assert t.basis.tolist() == [2]
    assert t.point(3).tolist() == [0.0, 0.0, 1.0]


def test_min_cut_bridge():
    w = np.zeros((6, 6))
    for u, v in [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)]:
        w[u, v] = w[v, u] = 1.0
    value, side = min_cut(w)
    assert value == pytest.approx(1.0, abs=1e-12)
    assert side in (frozenset({0, 1, 2}), frozenset({3, 4, 5}))


def test_min_cut_complete_graph():
    w = np.ones((4, 4)) - np.eye(4)
    value, side = min_cut(w)
    assert value == pytest.approx(3.0, abs=1e-12)
    assert len(side) in (1, 3)


def test_min_cut_disconnected():
    w = np.zeros((4, 4))
    w[0, 1] = w[1, 0] = 1.0
    w[2, 3] = w[3, 2] = 1.0
    value, side = min_cut(w)
    assert value == 0.0
    assert side == frozenset({0, 1})


def test_min_cut_labels_components_across_either_direction():
    # 0 -> 1 only within WEIGHT_TOL: vertex 0 must share 1's component, or a
    # later start relabels it and the zero cut comes back with an empty side
    w = np.zeros((3, 3))
    w[1, 2] = w[2, 1] = 1.0
    w[1, 0] = 1e-13
    value, side = min_cut(w)
    assert 1 <= len(side) <= 2
    assert value <= 1e-12


@st.composite
def connected_weights(draw):
    """Symmetric nonnegative weights on n <= 12 vertices, connected through a
    random spanning tree, with some zero and some tied entries."""
    n = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.sampled_from([None, 2, 4]))
    w = rng.random((n, n)) if levels is None else rng.integers(0, levels, (n, n)) / levels
    w = np.triu(w * (rng.random((n, n)) < draw(st.sampled_from([0.2, 0.5, 1.0]))), 1)
    order = rng.permutation(n)
    for i in range(1, n):
        u, v = sorted((order[i], order[rng.integers(i)]))
        w[u, v] += 0.5 + rng.random()
    return w + w.T


@settings(max_examples=80, deadline=None)
@given(w=connected_weights())
def test_min_cut_matches_networkx_stoer_wagner(w):
    nx = pytest.importorskip("networkx")
    n = w.shape[0]
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_weighted_edges_from(
        (u, v, w[u, v]) for u in range(n) for v in range(u + 1, n) if w[u, v] > 0
    )
    want, _ = nx.stoer_wagner(graph)
    value, side = min_cut(w)
    assert abs(value - want) <= 1e-9
    inside = np.zeros(n, dtype=bool)
    inside[list(side)] = True
    assert 1 <= inside.sum() <= n - 1
    assert abs(w[inside][:, ~inside].sum() - value) <= 1e-9


def test_min_cut_validation():
    with pytest.raises(ValueError):
        min_cut(np.zeros((1, 1)))
    bad = np.zeros((3, 3))
    bad[0, 1] = 1.0
    with pytest.raises(ValueError):
        min_cut(bad)
    with pytest.raises(ValueError):
        min_cut(np.full((3, 3), -1.0))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_min_cut_rejects_non_finite_weights(bad):
    # a NaN passes both the symmetry and the sign test; an inf edge turns a
    # visited key into -inf + inf = nan, which argmax then picks
    w = np.ones((4, 4)) - np.eye(4)
    w[0, 3] = w[3, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        min_cut(w)


@st.composite
def disconnected_weights(draw):
    """Symmetric nonnegative weights on n <= 12 vertices, split into two or
    more blocks with no edge between them."""
    n = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    block = rng.integers(0, draw(st.integers(2, n)), n)
    block[rng.permutation(n)[:2]] = [0, 1]  # at least two blocks
    w = rng.integers(0, 3, (n, n)) / 2.0 * (block[:, None] == block[None, :])
    w = np.triu(w, 1)
    return w + w.T


@settings(max_examples=120, deadline=None)
@given(w=st.one_of(connected_weights(), disconnected_weights()))
def test_min_cut_equals_deleting_contraction(w):
    assert min_cut(w) == min_cut_delete(w)


@pytest.mark.parametrize(
    "inst,want",
    [
        (make_equal(2, 3), 2.0),
        (make_equal(4, 2), 4.0),
        (make_one_extra(2, 4), 2.0),
    ],
)
def test_subtour_examples(inst, want):
    sol = solve_subtour(inst)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(want, abs=1e-6)
    assert np.abs(degree_residuals(sol)).max() <= 1e-7
    assert sol.x.min() >= -1e-9
    assert sol.x.max() <= 1.0 + 1e-9


def test_subtour_needs_cuts_on_larger_groups():
    sol = solve_subtour(make_equal(2, 3))
    assert sol.cuts_added >= 1  # the degree-only LP is fractional here


def test_final_point_has_no_small_cut():
    sol = solve_subtour(SimplicialInstance((3, 3, 3)))
    value, _ = min_cut(weight_matrix(sol))
    assert value >= 2.0 - 1e-6


def test_odd_group_counts_work():
    for g, p in [(3, 2), (3, 4), (6, 3)]:
        inst = SimplicialInstance(tuple([p] * g))
        sol = solve_subtour(inst)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(float(g), abs=1e-6)


# every equal layout g x p with g, p >= 2 and g * p <= 60 (142 layouts); the
# tagged ones failed under the cold-started Bland simplex this replaced
EQUAL_LAYOUTS = [(g, p) for p in range(2, 31) for g in range(2, 31) if g * p <= 60]
_FORMERLY = {
    (10, 6): "-formerly-ArithmeticError",
    (15, 4): "-formerly-ArithmeticError",
    (30, 2): "-formerly-iteration-limit-at-28",
}


@pytest.mark.parametrize(
    "g,p",
    EQUAL_LAYOUTS,
    ids=[f"{g}x{p}{_FORMERLY.get((g, p), '')}" for g, p in EQUAL_LAYOUTS],
)
def test_every_equal_layout_reaches_tour_value(g, p):
    sol = solve_subtour(SimplicialInstance((p,) * g))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(float(g), abs=1e-6)
    assert sol.x.min() >= -1e-9
    assert sol.x.max() <= 1.0 + 1e-9
    value, _ = min_cut(weight_matrix(sol))
    assert value >= 2.0 - 1e-6


@st.composite
def group_sizes(draw):
    """At least two groups of at least one vertex each, 3 to 60 vertices."""
    g = draw(st.integers(2, 60))
    sizes = draw(st.lists(st.integers(1, 60 // g), min_size=g, max_size=g))
    assume(sum(sizes) >= 3)
    return tuple(sizes)


@settings(max_examples=40, deadline=None)
@given(sizes=group_sizes())
def test_any_group_sizes_reach_tour_value_within_unit_bounds(sizes):
    # LP = g for any sizes (the group cuts at y_S = 1/2 prove LP >= g), and
    # no x_e <= 1 row is ever added: the bound comes from the cuts alone
    sol = solve_subtour(SimplicialInstance(sizes))
    assert sol.status == "optimal"
    assert abs(sol.objective - len(sizes)) <= subtour_lp.AGREE_TOL
    assert sol.x.max() <= 1.0 + 1e-9


@pytest.mark.parametrize("g,p", [(3, 3), (4, 2), (2, 5), (6, 3)])
def test_bland_rule_alone_also_solves(monkeypatch, g, p):
    # a zero-length degenerate run hands every pivot choice to Bland's rule
    monkeypatch.setattr(subtour_lp, "DEGENERATE_RUN", 0)
    sol = solve_subtour(SimplicialInstance((p,) * g))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(float(g), abs=1e-6)


def test_subtour_passes_iteration_limit_through(monkeypatch):
    monkeypatch.setattr(subtour_lp, "MAX_PIVOTS", 1)
    sol = solve_subtour(make_equal(2, 3))
    assert sol.status == "iteration-limit"


def test_disconnected_support_gets_one_cut_per_component(monkeypatch):
    # the degree LP of three groups of 3 is three disjoint triangles at cost 0
    real_solve = subtour_lp.simplex_solve
    real_add = subtour_lp._Tableau.add_rows
    rows = []

    def solving(a, b, c):
        rows.append(a.shape[0])
        return real_solve(a, b, c)

    def adding(self, *args):
        real_add(self, *args)
        rows.append(self.tab.shape[0])

    monkeypatch.setattr(subtour_lp, "simplex_solve", solving)
    monkeypatch.setattr(subtour_lp._Tableau, "add_rows", adding)
    sol = solve_subtour(SimplicialInstance((3, 3, 3)))
    assert sol.status == "optimal"
    assert rows[:2] == [9, 12]


def test_cut_rounds_do_not_repivot_the_basis(monkeypatch):
    # rebuilding each round's tableau from its basis list took 2,781 pivots
    # here; the live tableau takes 842
    real = subtour_lp._Tableau.pivot
    pivots = [0]

    def counting(self, r, j):
        pivots[0] += 1
        real(self, r, j)

    monkeypatch.setattr(subtour_lp._Tableau, "pivot", counting)
    for g, p in [(3, 4), (4, 5), (10, 6), (4, 15), (30, 2)]:
        assert solve_subtour(SimplicialInstance((p,) * g)).status == "optimal"
    assert pivots[0] < 1500


def test_lp_lower_bounds_exact_optimum():
    for inst in (make_equal(2, 3), make_one_extra(2, 3), SimplicialInstance((2, 2, 2))):
        lp = solve_subtour(inst).objective
        exact = held_karp_cycle(inst.cost_matrix())
        assert lp <= exact + 1e-6


def test_size_caps():
    with pytest.raises(ValueError):
        solve_subtour(SimplicialInstance((31, 31)))
    with pytest.raises(ValueError):
        solve_subtour(SimplicialInstance((1, 1)))


def _baseline_layouts():
    """The benchmark's baseline layouts: every pool member, then 10 x 6."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave perfbench/ as is
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    pools = [layout for pool in module._BASELINE_POOLS for layout in pool]
    return pools + [module.KNOWN_DEFECT_LAYOUT]


@pytest.mark.parametrize("g,p", _baseline_layouts())
def test_cut_loop_unchanged_by_the_deleting_contraction(monkeypatch, g, p):
    # the in-place contraction must hand the cut loop the very cuts the
    # deleting one does: a one-ulp change in a cut value can change them
    inst = SimplicialInstance((p,) * g)
    sol = solve_subtour(inst)
    monkeypatch.setattr(subtour_lp, "min_cut", min_cut_delete)
    ref = solve_subtour(inst)
    assert np.array_equal(sol.x, ref.x)
    assert sol.cuts_added == ref.cuts_added
    assert sol.status == ref.status == "optimal"
