import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplicial_gap.circulant import (
    cosine_profile,
    first_row,
    identity_suite,
    lagrange_cosine_sum,
    ring_adjacency,
)

from oracles import basis, circulant_dense, circulant_spectrum, first_row_loop


def test_first_row_layout():
    coeffs = np.array([1.0, 2.0, 3.0])
    # offsets 1 and 5 get coeff 1, 2 and 4 get coeff 2, the antipode gets 2*3
    assert np.array_equal(first_row(coeffs, 6), [0.0, 1.0, 2.0, 6.0, 2.0, 1.0])
    assert circulant_dense(coeffs).sum(axis=1)[0] == 2.0 * coeffs.sum() == 12.0
    # n = 2: the antipode is the only offset
    assert np.array_equal(first_row(np.array([1.5]), 2), [0.0, 3.0])


def test_first_row_equals_the_loop_bit_for_bit():
    rng = np.random.default_rng(7)
    for n in range(2, 129, 2):
        for scale in (1e-3, 1.0, 1e3):
            coeffs = scale * rng.normal(size=n // 2)
            got, want = first_row(coeffs, n), first_row_loop(coeffs, n)
            assert got.tobytes() == want.tobytes(), n


def test_first_row_shares_the_profile_input_check():
    for coeffs, n in [(np.ones(2), 5), (np.ones(0), 0), (np.ones(3), 4), (np.ones((2, 2)), 4)]:
        with pytest.raises(ValueError):
            first_row(coeffs, n)
        with pytest.raises(ValueError):
            cosine_profile(coeffs, n)


def test_densify_symmetric_circulant():
    rng = np.random.default_rng(3)
    coeffs = rng.normal(size=4)
    m = circulant_dense(coeffs)
    assert np.array_equal(m, m.T)
    # every row is a rotation of the first
    for r in range(8):
        assert np.array_equal(m[r], np.roll(m[0], r))
    assert np.allclose(m.sum(axis=1), 2.0 * coeffs.sum(), atol=1e-12)


def test_basis_matrices_cover_offdiagonal():
    # offsets 1..d-1 contribute once each, the antipode twice; row sums are
    # all 2 so the stack of basis matrices sums to J - I + antipode
    total = sum(circulant_dense(basis(6, i)) for i in range(1, 4))
    antipode = np.roll(np.eye(6), 3, axis=1)
    assert np.array_equal(total, np.ones((6, 6)) - np.eye(6) + antipode)
    for i in range(1, 4):
        assert np.array_equal(circulant_dense(basis(6, i)).sum(axis=1), np.full(6, 2.0))


def test_spectrum_matches_dense_eigenvalues():
    rng = np.random.default_rng(4)
    coeffs = rng.normal(size=5)
    dense = np.linalg.eigvalsh(circulant_dense(coeffs))
    assert np.abs(circulant_spectrum(coeffs) - dense).max() < 1e-12


def test_cosine_profile_reflection_is_exact():
    rng = np.random.default_rng(5)
    prof = cosine_profile(rng.normal(size=9), 18)
    for k in range(1, 18):
        assert prof[k] == prof[18 - k]


def cosine_matrix_profile(coeffs: np.ndarray, n: int) -> np.ndarray:
    """Reference: the explicit (n/2+1) x (n/2) cosine matrix, then mirrored."""
    k = np.arange(n // 2 + 1)
    i = np.arange(1, n // 2 + 1)
    t = np.outer(k, i) % n
    t = np.minimum(t, n - t)
    half = np.cos(2.0 * np.pi * t / n) @ coeffs
    folded = np.minimum(np.arange(n), n - np.arange(n))
    return half[folded]


@settings(max_examples=60, deadline=None)
@given(
    half=st.integers(min_value=1, max_value=256),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
)
def test_cosine_profile_matches_cosine_matrix(half, seed, scale):
    n = 2 * half
    coeffs = scale * np.random.default_rng(seed).normal(size=half)
    prof = cosine_profile(coeffs, n)
    ref = cosine_matrix_profile(coeffs, n)
    assert np.abs(prof - ref).max() <= 1e-12 * (1.0 + np.abs(coeffs).sum())
    assert np.array_equal(prof[1:], prof[1:][::-1])


def test_cosine_profile_zero_frequency_is_plain_sum():
    coeffs = np.array([0.5, 0.25, 0.125])
    assert cosine_profile(coeffs, 6)[0] == pytest.approx(coeffs.sum(), abs=1e-15)


@pytest.mark.parametrize("n", [6, 8, 14])
def test_lagrange_cosine_sum_against_brute_force(n):
    d = n // 2
    j = np.arange(1, d + 1)
    k = np.arange(n + 1)
    brute = np.cos(np.pi * k[:, None] * j / d).sum(axis=1)
    whole = lagrange_cosine_sum(n, k)
    assert whole.shape == (n + 1,)
    assert np.abs(whole - brute).max() <= 1e-12
    assert lagrange_cosine_sum(n, k.reshape(-1, 1)).shape == (n + 1, 1)
    with pytest.raises(ValueError):
        lagrange_cosine_sum(n, np.arange(n + 2))


def test_ring_adjacency_structure():
    m = ring_adjacency(6)
    assert np.array_equal(m, m.T)
    assert np.array_equal(m.sum(axis=1), np.full(6, 2.0))
    assert m[0, 1] == m[0, 5] == 1.0 and m[0, 2] == 0.0
    # odd sizes work too
    m5 = ring_adjacency(5)
    assert np.array_equal(m5.sum(axis=1), np.full(5, 2.0))


def test_ring_adjacency_minimum_size():
    with pytest.raises(ValueError):
        ring_adjacency(2)


@pytest.mark.parametrize("g", [2, 4, 6, 8, 10])
def test_identity_suite_residuals_tiny(g):
    for n in range(2 * g, 201, 2 * g):
        suite = identity_suite(g, n)
        worst = max(abs(v) for v in suite.values())
        assert worst <= 1e-9, (g, n, suite)


def test_identity_suite_has_stable_keys():
    keys = sorted(identity_suite(2, 8))
    assert keys == sorted(identity_suite(4, 16))
    assert len(keys) == 6


def test_identity_suite_memory_stays_small():
    # the product sum goes one j row at a time; the whole (g-1) x (n-1) x n/2
    # product, 25 MiB at g = 40, n = 400, would grow as g n^2 with the CLI's
    # inputs
    tracemalloc.start()
    try:
        identity_suite(40, 400)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak


def test_identity_suite_rejects_bad_config():
    with pytest.raises(ValueError):
        identity_suite(3, 12)
    with pytest.raises(ValueError):
        identity_suite(4, 6)
    with pytest.raises(ValueError):
        identity_suite(2, 7)


def identity_suite_loops(g, n):
    """The identity suite as explicit loops over k, i and (j, k): the reference."""
    d = n // 2
    j = np.arange(1, g)
    w = (g - j).astype(float)
    i = np.arange(1, d + 1)

    def block_closed(t):
        return float(d) if t % n == 0 else (-1.0 + (-1.0) ** t) / 2.0

    out = {}
    out["cosine_block_sum"] = max(
        abs(float(np.cos(np.pi * i * (k % (2 * d)) / d).sum()) - block_closed(k))
        for k in range(n + 1)
    )
    out["alternating_weight_sum_odd"] = abs(float(w[j % 2 == 1].sum()) - g * g / 4.0)
    out["alternating_weight_sum_signed"] = abs(float((w * (-1.0) ** j).sum()) + g / 2.0)
    res = 0.0
    for ii in range(n + 1):
        t = np.pi * ii / d
        lhs = (2.0 * np.cos(t) - 2.0) * float((w * np.cos(j * t)).sum())
        res = max(res, abs(lhs - (np.cos(g * t) - g * np.cos(t) + (g - 1.0))))
    out["cosine_weight_telescope"] = res

    res = 0.0
    for jj in range(1, g):
        for k in range(1, n):
            direct = float((np.cos(np.pi * i * jj / d) * np.cos(np.pi * i * k / d)).sum())
            closed = 0.5 * (block_closed(jj - k) + block_closed(jj + k))
            res = max(res, abs(direct - closed))
    out["cosine_product_case_sum"] = res
    out["parity_weight_count"] = max(
        abs(float(w[(j - k) % 2 == 1].sum()) - (g * (g - 1.0) + g * (-1.0) ** k) / 4.0)
        for k in range(n)
    )
    return out


@pytest.mark.parametrize("g,n", [(2, 4), (2, 30), (4, 8), (6, 36), (8, 50), (10, 120)])
def test_identity_suite_matches_loops(g, n):
    # same operations in the same order, so equal up to the cosine kernel's
    # own last bit: a residual is a difference of sums of at most n/2 cosines
    tol = n * np.finfo(float).eps
    got, want = identity_suite(g, n), identity_suite_loops(g, n)
    assert got.keys() == want.keys()
    for key in want:
        assert abs(got[key] - want[key]) <= tol, (key, got[key], want[key])
