import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplicial_gap import reduced_sdp
from simplicial_gap.certificates import assemble, objective_povh_rendl
from simplicial_gap.instances import SimplicialInstance, make_equal, make_one_extra
from simplicial_gap.reduced_sdp import (
    asymptote_value,
    bound_constants,
    build_reduction,
    gap_table,
    objective_reduced,
)
from simplicial_gap.serialize import csv_table, record_json

from oracles import objective_reduced_dense

PI2 = np.pi * np.pi

# frozen oracle rows: (z, n) -> (kron_term, gap_lower)
GAP_ORACLE = {
    (1, 8): (1.0251262658470837, 0.987592741118997),
    (1, 24): (None, 1.4369333567121263),
    (1, 64): (0.15168110982579808, 1.736591824713108),
    (1, 96): (None, 1.8153743480793679),
    (2, 48): (None, 1.601047978194953),
    (2, 128): (None, 2.1253146845976475),
    (2, 192): (None, 2.2784882385563769),
    (3, 72): (None, 1.8576147163795578),
    (3, 192): (None, 2.651905066318085),
    (3, 288): (None, 2.9057508350756481),
}


def test_reduction_shapes_and_patterns():
    red = build_reduction(make_one_extra(2, 4))
    n = red.n
    assert n == 8
    want_d = np.kron(np.ones((2, 2)) - np.eye(2), np.ones((4, 4)))
    assert np.array_equal(red.d_beta, want_d)
    assert red.c1_alpha.sum() == 2 * (n - 1)
    # dropped position keeps exactly two ring neighbours
    assert red.cbar.shape == (n * n,)
    assert red.ones_in_cbar() == 8
    assert set(np.unique(red.cbar)) <= {0.0, 1.0}


def test_cbar_is_the_column_major_vec():
    # entry j n + k is C1[alpha_k, r] D[s, beta_j]: position-major, as in
    # kron(D[beta], C1[alpha]), which the numeric encoding adds it to
    red = build_reduction(make_one_extra(2, 4))
    want = np.zeros((8, 8))
    # positions of group 2 (rows j) by vertices 2 and 9, the ring
    # neighbours of vertex 1 (columns k)
    want[4:, [0, 7]] = 1.0
    assert np.array_equal(red.cbar.reshape(8, 8), want)


def test_reduction_validation():
    with pytest.raises(ValueError):
        build_reduction(make_equal(2, 4))  # 8 vertices, no spare
    inst = make_one_extra(2, 4)
    with pytest.raises(ValueError):
        build_reduction(inst, r=0)
    with pytest.raises(ValueError):
        build_reduction(inst, r=10)
    with pytest.raises(ValueError):
        build_reduction(inst, s=10)


@pytest.mark.parametrize("r,s", [(1, 1), (2, 1), (9, 1), (5, 1), (1, 7)])
def test_structured_objective_matches_dense(r, s):
    inst = make_one_extra(2, 4)
    red = build_reduction(inst, r=r, s=s)
    y = assemble(8, 2)
    fast = objective_reduced(y, red)
    slow = objective_reduced_dense(y, red)
    assert fast.kron_term == pytest.approx(slow.kron_term, abs=1e-12)
    assert fast.diag_term == pytest.approx(slow.diag_term, abs=1e-12)
    assert fast.upper_bound == pytest.approx(slow.upper_bound, abs=1e-12)


@st.composite
def reduction_cases(draw):
    """(instance, r, s, certificate g): a random layout of n+1 <= 21 vertices
    and a certificate of any even group count that fits n."""
    n = draw(st.sampled_from([4, 6, 8, 10, 12, 14, 16, 18, 20]))
    cuts = draw(st.lists(st.integers(1, n), min_size=1, max_size=6, unique=True))
    bounds = [0] + sorted(cuts) + [n + 1]
    sizes = tuple(b - a for a, b in zip(bounds, bounds[1:]))
    r = draw(st.integers(1, n + 1))
    s = draw(st.integers(1, n + 1))
    g = draw(st.sampled_from([g for g in range(2, n, 2) if n % g == 0 and n // g >= 2]))
    return SimplicialInstance(sizes), r, s, g


@settings(max_examples=60, deadline=None)
@given(case=reduction_cases())
def test_structured_counts_match_dense_on_random_layouts(case):
    inst, r, s, g = case
    red = build_reduction(inst, r=r, s=s)
    assert red.ones_in_cbar() == int(red.cbar.sum())
    y = assemble(red.n, g)
    fast = objective_reduced(y, red)
    slow = objective_reduced_dense(y, red)
    assert fast.kron_term == pytest.approx(slow.kron_term, abs=1e-12)
    assert fast.diag_term == pytest.approx(slow.diag_term, abs=1e-12)


def test_objective_invariant_in_dropped_position():
    inst = make_one_extra(2, 4)
    y = assemble(8, 2)
    base = objective_reduced(y, build_reduction(inst, r=1))
    for r in (2, 5, 9):
        obj = objective_reduced(y, build_reduction(inst, r=r))
        assert obj.kron_term == pytest.approx(base.kron_term, abs=1e-12)
        assert obj.diag_term == pytest.approx(base.diag_term, abs=1e-12)


def test_diag_term_is_one_on_matching_two_group_layout():
    for p in (3, 4, 8):
        red = build_reduction(make_one_extra(2, p))
        y = assemble(2 * p, 2)
        assert objective_reduced(y, red).diag_term == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("g,n", [(2, 8), (4, 16), (6, 36)])
def test_kron_term_tracks_full_objective(g, n):
    # deleting one vertex scales the coupling part by (n-1)/n
    red = build_reduction(make_one_extra(g, n // g))
    y = assemble(n, g)
    obj = objective_reduced(y, red)
    full = objective_povh_rendl(y)
    assert obj.kron_term == pytest.approx((n - 1.0) / n * full, abs=1e-12)
    assert obj.diag_term == pytest.approx(2.0 * (g - 1.0) / g, abs=1e-12)


def test_gap_table_frozen_records():
    tables = {
        1: gap_table(1, [8, 24, 64, 96]),
        2: gap_table(2, [48, 128, 192]),
        3: gap_table(3, [72, 192, 288]),
    }
    seen = 0
    for z, records in tables.items():
        for rec in records:
            kron, gap = GAP_ORACLE[(z, rec.n)]
            assert rec.gap_lower == pytest.approx(gap, rel=1e-12)
            if kron is not None:
                assert rec.kron_term == pytest.approx(kron, rel=1e-12)
            assert rec.tsp == 2.0 * z
            assert rec.g == 2 * z
            assert rec.sdp_upper == pytest.approx(
                rec.kron_term + rec.diag_term, abs=1e-15
            )
            assert rec.gap_lower == pytest.approx(
                rec.tsp / rec.sdp_upper, rel=1e-15
            )
            seen += 1
    assert seen == len(GAP_ORACLE)
    t1 = tables[1][0]
    assert t1.diag_term == pytest.approx(1.0, abs=1e-12)
    assert t1.sdp_upper == pytest.approx(2.0251262658470837, rel=1e-12)


def test_gap_table_refuses_a_certificate_that_fails_verification(monkeypatch):
    real = reduced_sdp.verify_povh_rendl

    def failing(y, view):
        return dataclasses.replace(real(y, view), passed=False)

    monkeypatch.setattr(reduced_sdp, "verify_povh_rendl", failing)
    with pytest.raises(ArithmeticError, match="g=2, n=8"):
        gap_table(1, [8])


def test_gap_table_sorted_and_validated():
    recs = gap_table(1, [64, 8, 24])
    assert [r.n for r in recs] == [8, 24, 64]
    with pytest.raises(ValueError):
        gap_table(0, [8])
    with pytest.raises(ValueError):
        gap_table(1, [7])  # odd
    with pytest.raises(ValueError):
        gap_table(1, [2])  # single vertex per group
    with pytest.raises(ValueError):
        gap_table(2, [6])  # group count does not divide


def test_bound_constants_frozen():
    c2, chat2, ctilde2 = bound_constants(2)
    assert c2 == pytest.approx(PI2, rel=1e-15)
    assert chat2 == pytest.approx(4 * PI2, rel=1e-15)
    assert ctilde2 == pytest.approx(PI2, rel=1e-15)
    assert bound_constants(4)[2] == pytest.approx(49.348022005446793, rel=1e-13)
    assert bound_constants(6)[2] == pytest.approx(115.14538467937585, rel=1e-13)
    with pytest.raises(ValueError):
        bound_constants(3)


def test_asymptote_frozen_values():
    want = {
        8: 0.61848645815883629,
        16: 0.76427758173820781,
        32: 0.86639153571879945,
        64: 0.92841348574282712,
    }
    for n, v in want.items():
        assert asymptote_value(1, n) == pytest.approx(v, rel=1e-13)


@pytest.mark.parametrize("z", [1, 2, 3])
def test_gap_dominates_asymptote_and_grows(z):
    g = 2 * z
    n_values = [g * m for m in (2, 4, 8, 16, 24)]
    recs = gap_table(z, n_values)
    gaps = [r.gap_lower for r in recs]
    for rec, gap in zip(recs, gaps):
        assert gap >= asymptote_value(z, rec.n) - 1e-12
    assert all(b >= a for a, b in zip(gaps, gaps[1:]))


def test_csv_round_trip():
    recs = gap_table(1, [8, 16])
    text = csv_table([record_json(rec) for rec in recs])
    lines = text.strip().split("\n")
    assert lines[0] == "z,g,n,tsp,kron_term,diag_term,sdp_upper,gap_lower,asymptote"
    assert len(lines) == 3
    row = lines[1].split(",")
    assert row[0] == "1" and row[1] == "2" and row[2] == "8"
    assert float(row[7]) == recs[0].gap_lower  # 17 digits survive
    assert float(row[8]) == pytest.approx(asymptote_value(1, 8), rel=1e-15)


def test_record_json_fields():
    rec = gap_table(1, [8])[0]
    d = record_json(rec)
    assert set(d) == {
        "z", "g", "n", "tsp", "kron_term", "diag_term", "sdp_upper", "gap_lower",
        "asymptote",
    }
    assert d["n"] == 8
    assert float(d["gap_lower"]) == rec.gap_lower
