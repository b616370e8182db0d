import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplicial_gap.instances import (
    DP_MAX_VERTICES,
    SimplicialInstance,
    held_karp_cycle,
    make_equal,
    make_one_extra,
)

from oracles import is_metric


def brute_force_cycle(dist):
    n = dist.shape[0]
    best = np.inf
    for perm in itertools.permutations(range(1, n)):
        tour = (0, *perm)
        cost = sum(dist[tour[i], tour[(i + 1) % n]] for i in range(n))
        best = min(best, cost)
    return best


def held_karp_mask_loop(dist):
    """Reference: the subset DP one mask at a time, in numeric mask order.

    Within a mask every end vertex j is filled at once from the rows of
    mask without j, which precede mask numerically.
    """
    dist = np.asarray(dist, dtype=float)
    n = dist.shape[0]
    m = n - 1
    size = 1 << m
    ends = np.arange(m)
    bits = 1 << ends
    members = (np.arange(size)[:, None] & bits) != 0  # [mask, end j]
    step = dist[1:, 1:].T  # [end j, previous end k]
    dp = np.full((size, m), np.inf)
    dp[bits, ends] = dist[0, 1:]
    for mask in range(3, size):
        if mask & (mask - 1) == 0:
            continue  # singleton rows are the seeds
        inside = members[mask]
        dp[mask, inside] = np.min(dp[mask ^ bits[inside]] + step[inside], axis=1)
    return float(np.min(dp[size - 1] + dist[1:, 0]))


def _partitions(total, max_part):
    if total == 0:
        yield ()
        return
    for part in range(min(total, max_part), 0, -1):
        for rest in _partitions(total - part, part):
            yield (part, *rest)


def test_make_equal_matches_kron_pattern():
    inst = make_equal(2, 3)
    d = inst.cost_matrix()
    want = np.kron(np.ones((2, 2)) - np.eye(2), np.ones((3, 3)))
    assert np.array_equal(d, want)


def test_make_equal_distance_counts():
    d = make_equal(4, 2).cost_matrix()
    off = ~np.eye(8, dtype=bool)
    assert int((d[off] == 0).sum()) == 8  # ordered within-group pairs
    assert int((d[off] == 1).sum()) == 48


def test_make_equal_rejects_bad_args():
    with pytest.raises(ValueError):
        make_equal(3, 3)
    with pytest.raises(ValueError):
        make_equal(2, 1)


def test_make_one_extra_layout():
    inst = make_one_extra(2, 4)
    assert inst.group_sizes == (5, 4)
    assert inst.n_total == 9
    beta = np.arange(1, 9)
    want = np.kron(np.ones((2, 2)) - np.eye(2), np.ones((4, 4)))
    assert np.array_equal(inst.cost_matrix()[np.ix_(beta, beta)], want)


def test_make_one_extra_tiny_case_allowed():
    inst = make_one_extra(2, 1)
    assert inst.group_sizes == (2, 1)
    assert held_karp_cycle(inst.cost_matrix()) == 2.0


def test_constructor_accepts_odd_group_counts():
    inst = SimplicialInstance((3, 3, 3))
    assert inst.g == 3


def test_cost_matrix_shape_and_symmetry():
    inst = SimplicialInstance((2, 3, 1, 2))
    d = inst.cost_matrix()
    assert d.shape == (8, 8)
    assert np.array_equal(d, d.T)
    assert np.array_equal(np.diag(d), np.zeros(8))
    assert set(np.unique(d)) <= {0.0, 1.0}


def test_is_metric_on_instances():
    assert is_metric(make_equal(2, 3))
    assert is_metric(make_one_extra(2, 4))
    assert is_metric(make_equal(6, 2))


def test_is_metric_rejects_triangle_violation():
    d = np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]])
    assert not is_metric(d)


def test_held_karp_two_vertices():
    d = np.array([[0.0, 3.5], [3.5, 0.0]])
    assert held_karp_cycle(d) == 7.0


def test_held_karp_two_vertices_asymmetric():
    # the cycle 0 -> 1 -> 0 takes both directed edges
    assert held_karp_cycle(np.array([[0.0, 1.0], [3.0, 0.0]])) == 4.0
    assert held_karp_mask_loop(np.array([[0.0, 1.0], [3.0, 0.0]])) == 4.0


def test_held_karp_against_brute_force():
    rng = np.random.default_rng(6)
    pts = rng.normal(size=(7, 2))
    d = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1))
    assert held_karp_cycle(d) == pytest.approx(brute_force_cycle(d), abs=1e-12)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(2, 9),
    seed=st.integers(0, 2**32 - 1),
    levels=st.sampled_from([None, 1, 3]),
)
def test_held_karp_equals_mask_loop_on_random_matrices(n, seed, levels):
    rng = np.random.default_rng(seed)
    d = rng.random((n, n)) if levels is None else rng.integers(0, levels + 1, (n, n)) / 7.0
    d = d + d.T
    np.fill_diagonal(d, 0.0)
    assert held_karp_cycle(d) == held_karp_mask_loop(d)


def test_held_karp_equals_mask_loop_on_simplicial_layouts():
    checked = 0
    for n_total in range(2, 13):
        for sizes in _partitions(n_total, n_total - 1):
            d = SimplicialInstance(sizes).cost_matrix()
            assert held_karp_cycle(d) == held_karp_mask_loop(d), sizes
            checked += 1
    assert checked == 259


@pytest.mark.parametrize(
    "dist",
    [np.zeros((3, 4)), np.zeros(4), np.zeros((2, 2, 2))],
    ids=["3x4", "1-D", "3-D"],
)
def test_held_karp_rejects_non_square_input(dist):
    with pytest.raises(ValueError, match="square"):
        held_karp_cycle(dist)


@pytest.mark.parametrize("bad", [np.nan, -np.inf])
def test_held_karp_rejects_nan_and_minus_inf(bad):
    d = np.ones((4, 4)) - np.eye(4)
    d[1, 2] = bad
    with pytest.raises(ValueError, match="NaN"):
        held_karp_cycle(d)


def test_held_karp_reads_inf_as_a_forbidden_edge():
    rng = np.random.default_rng(3)
    d = rng.random((6, 6))
    d[0, 1] = d[2, 3] = d[4, 0] = np.inf
    assert held_karp_cycle(d) == pytest.approx(brute_force_cycle(d), abs=1e-12)
    assert held_karp_cycle(d) == held_karp_mask_loop(d)
    d[0, 1:] = np.inf  # no way out of vertex 0
    assert held_karp_cycle(d) == np.inf


def test_held_karp_memory_at_sixteen_vertices():
    # two vertex-major layers of at most C(15, 7) rows and one gather block
    d = make_equal(2, 8).cost_matrix()
    tracemalloc.start()
    try:
        assert held_karp_cycle(d) == 2.0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_dp_cap():
    inst = make_equal(2, 10)  # 20 vertices
    with pytest.raises(ValueError):
        held_karp_cycle(inst.cost_matrix())
    assert inst.n_total > DP_MAX_VERTICES


def test_analytic_equals_group_count():
    # the tour optimum that baseline reports as tsp_analytic
    for sizes in [(2, 2), (3, 1), (4, 4, 4), (2, 1, 1, 2)]:
        assert SimplicialInstance(sizes).g == len(sizes)


def test_dp_matches_analytic_on_small_simplicial():
    # every even-g layout with all groups nonempty and at most 14 vertices
    checked = 0
    for g in (2, 4, 6):
        for per_group in range(1, 8):
            for extra in (0, 1):
                sizes = (per_group + extra,) + (per_group,) * (g - 1)
                if sum(sizes) > 14:
                    continue
                inst = SimplicialInstance(sizes)
                assert held_karp_cycle(inst.cost_matrix()) == float(g), sizes
                checked += 1
    assert checked >= 10

