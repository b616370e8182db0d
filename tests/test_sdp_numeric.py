import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from simplicial_gap import sdp_numeric
from simplicial_gap.certificates import assemble
from simplicial_gap.instances import make_one_extra
from simplicial_gap.reduced_sdp import build_reduction, objective_reduced
from simplicial_gap.sdp_numeric import (
    SdpProblem,
    encode_reduced,
    lift_upper_bound,
    nonmonotonicity_check,
    project_psd,
    solve,
)
from simplicial_gap.serialize import record_json

from oracles import generated_group, independent_rows_by_rank, lift_upper_bound_loop, stacked

TINY_BOUND_16 = 1.5709035061653493


def sanity_problem(m: int) -> SdpProblem:
    # min trace(Y) subject to <J, Y> = m; optimum is J/m with value 1
    return SdpProblem(
        dim=m,
        objective=np.eye(m),
        constraints=[(np.ones((m, m)), float(m))],
    )


def test_problem_validation():
    with pytest.raises(ValueError):
        SdpProblem(dim=0, objective=np.zeros((0, 0)), constraints=[])
    with pytest.raises(ValueError):
        SdpProblem(dim=3, objective=np.zeros((2, 2)), constraints=[])
    asym = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        SdpProblem(dim=2, objective=asym, constraints=[])
    with pytest.raises(ValueError):
        SdpProblem(dim=2, objective=np.eye(2), constraints=[(asym, 1.0)])
    with pytest.raises(ValueError):
        SdpProblem(dim=2, objective=np.eye(2), constraints=[(np.eye(3), 1.0)])
    with pytest.raises(ValueError, match="at least one"):
        SdpProblem(dim=2, objective=np.eye(2), constraints=[])


def test_solve_input_caps():
    big = sanity_problem(65)
    with pytest.raises(ValueError, match="capped at dim 64"):
        solve(big)
    with pytest.raises(ValueError):
        solve(sanity_problem(3), max_iters=0)


def test_project_psd_idempotent_and_feasible():
    rng = np.random.default_rng(7)
    m = rng.normal(size=(12, 12))
    m = m + m.T
    proj = project_psd(m)
    assert np.linalg.eigvalsh(proj).min() >= -1e-12
    again = project_psd(proj)
    assert np.abs(again - proj).max() <= 1e-12
    psd = np.eye(4)
    assert np.abs(project_psd(psd) - psd).max() <= 1e-14


def test_sanity_problem_reaches_known_optimum():
    sol = solve(sanity_problem(4))
    assert sol.converged
    assert sol.objective_value == pytest.approx(1.0, abs=1e-4)
    assert sol.max_equality_residual <= 1e-6
    assert sol.min_eigenvalue >= -1e-7
    assert sol.min_entry >= -1e-9


def test_zero_objective_converges_to_zero():
    p = SdpProblem(
        dim=3,
        objective=np.zeros((3, 3)),
        constraints=[(np.ones((3, 3)), 3.0)],
    )
    sol = solve(p)
    assert sol.converged
    assert sol.objective_value == pytest.approx(0.0, abs=1e-8)


def test_unconverged_solution_is_still_returned():
    sol = solve(sanity_problem(4), max_iters=1)
    assert not sol.converged
    assert sol.status == "iteration-limit"
    assert sol.iterations == 1
    assert np.isfinite(sol.objective_value)


def test_sanity_bracket_holds_the_optimum():
    sol = solve(sanity_problem(4))
    assert sol.status == "optimal"
    assert sol.lower_bound <= 1.0 <= sol.objective_value + 1e-6
    assert sol.objective_value - sol.lower_bound <= sdp_numeric.GAP_TOL


def test_vanishing_steps_report_stalled(monkeypatch):
    monkeypatch.setattr(sdp_numeric, "_max_step", lambda *args: 1e-6)
    sol = solve(sanity_problem(4))
    assert sol.status == "stalled"
    assert sol.iterations == sdp_numeric.STALL_ITERS
    assert not sol.converged


def test_cone_rows_replace_the_gangster_sum_and_drop_a_dependent_row():
    # n = 4: 2n + 2 constraints, one assignment row dependent.  With no
    # symmetry the gangster sum splits into its 48 entries and 120 - 48
    # off-diagonal entries get a slack each; with the declared group of
    # order 8 they fall into 14 fixed and 14 slack orbits
    p = encode_reduced(make_one_extra(2, 2))
    for q, n_fixed, n_free in ((dataclasses.replace(p, symmetries=()), 48, 72), (p, 14, 14)):
        rows, b, n_slack = sdp_numeric._cone_rows(q)
        assert rows.shape == (8 + n_fixed + n_free, 256)
        assert n_slack == n_free
        # independent once each slack row carries its -s_e column
        slack_columns = np.vstack([np.zeros((8 + n_fixed, n_free)), -np.eye(n_free)])
        assert np.linalg.matrix_rank(np.hstack([rows, slack_columns])) == len(rows)
        assert b[:8].tolist() == [1.0] * 7 + [16.0]
        assert not b[8:].any()


def moves(perm: np.ndarray, mat: np.ndarray) -> np.ndarray:
    return mat[np.ix_(perm, perm)]


@pytest.mark.parametrize("per_group, order", [(1, 2), (2, 8), (3, 72)])
def test_declared_symmetries_fix_the_problem(per_group, order):
    p = encode_reduced(make_one_extra(2, per_group))
    keys = sorted((b, a.tolist()) for a, b in p.constraints)
    for perm in p.symmetries:
        assert sorted(perm.tolist()) == list(range(p.dim))
        assert np.array_equal(moves(perm, p.objective), p.objective)
        assert sorted((b, moves(perm, a).tolist()) for a, b in p.constraints) == keys
    assert len(generated_group(p.symmetries)) == order


def test_problem_rejects_a_false_symmetry():
    p = encode_reduced(make_one_extra(2, 2))
    n = 4
    # swap the outer indices 0 and 2, which lie in different groups
    outer = np.array([2, 1, 0, 3])
    across = (outer[:, None] * n + np.arange(n)[None, :]).reshape(-1)
    with pytest.raises(ValueError, match="moves the objective"):
        dataclasses.replace(p, symmetries=(across,))
    # the swap fixes I but maps the constraint diag(1, 0) to diag(0, 1)
    with pytest.raises(ValueError, match="moves the constraint set"):
        SdpProblem(
            dim=2,
            objective=np.eye(2),
            constraints=[(np.diag([1.0, 0.0]), 1.0)],
            symmetries=(np.array([1, 0]),),
        )
    for bad in ([0, 0], [0.0, 1.0], [0, 1, 2], [[0, 1]], [1, 2]):
        with pytest.raises(ValueError, match="not a permutation"):
            SdpProblem(
                dim=2,
                objective=np.eye(2),
                constraints=[(np.ones((2, 2)), 2.0)],
                symmetries=(np.array(bad),),
            )


def orbit_membership(p: SdpProblem):
    """The cone rows of p with and without its symmetries, the count of
    general rows, and the 0/1 matrix that puts each entry row in the orbit
    row that covers it."""
    reduced = sdp_numeric._cone_rows(p)
    unreduced = sdp_numeric._cone_rows(dataclasses.replace(p, symmetries=()))
    general = len(unreduced[1]) - math.comb(p.dim, 2)  # one row per off-diagonal pair
    overlap = np.abs(reduced[0][general:]) @ np.abs(unreduced[0][general:]).T
    return reduced, unreduced, general, (overlap > 0).astype(float)


@pytest.mark.parametrize("per_group", [1, 2, 3])
def test_orbit_rows_sum_the_entry_rows_of_their_orbit(per_group):
    p = encode_reduced(make_one_extra(2, per_group))
    (rows, _, n_slack), (full, _, n_free), general, member = orbit_membership(p)
    assert np.array_equal(rows[:general], full[:general])
    # every entry lies in exactly one orbit, and an orbit row is the sum of
    # its entries' rows
    assert (member.sum(axis=0) == 1).all()
    assert np.array_equal(member @ full[general:], rows[general:])
    # fixed orbits hold fixed entries only, slack orbits free entries only
    n_orbits, n_entries = member.shape
    assert not member[: n_orbits - n_slack, n_entries - n_free :].any()
    assert not member[n_orbits - n_slack :, : n_entries - n_free].any()
    # each orbit is the set of images of one of its pairs under the group
    group = np.array(generated_group(p.symmetries))
    for row in rows[general:]:
        pairs = {tuple(sorted(divmod(int(e), p.dim))) for e in np.flatnonzero(row)}
        i, j = min(pairs)
        assert pairs == {tuple(sorted(pair)) for pair in zip(group[:, i], group[:, j])}


@pytest.mark.parametrize("per_group", [1, 2, 3])
def test_orbit_multipliers_bound_the_unreduced_problem(per_group):
    # the same weak-duality bound from the orbit rows and from the entry
    # rows with each orbit's multiplier repeated over its entries
    p = encode_reduced(make_one_extra(2, per_group))
    (rows, b, n_slack), (full, b_full, n_free), general, member = orbit_membership(p)
    tau = sdp_numeric._trace_bound(p)
    rng = np.random.default_rng(per_group)
    for _ in range(5):
        y = rng.normal(size=len(rows))
        y_full = np.concatenate([y[:general], member.T @ y[general:]])
        reduced = sdp_numeric._lower_bound(p.objective, rows, b, y, len(b) - n_slack, tau)
        unreduced = sdp_numeric._lower_bound(
            p.objective, full, b_full, y_full, len(b_full) - n_free, tau
        )
        assert reduced == pytest.approx(unreduced, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.floats(-3.0, 3.0), st.floats(-5.0, 5.0))
@example(1.0, -2.0)  # S = C - A^T y is 0, but the entry multiplier is negative
@example(1.0, 0.0)  # S = I - J is indefinite
def test_lower_bound_holds_at_any_dual_point(y_sum, y_entry):
    # min tr Y over Y PSD, Y >= 0, 1^T Y 1 = 2 is 1, at Y = J/2; the rows
    # are the sum and Y_01 - s = 0
    p = sanity_problem(2)
    rows, b, n_slack = sdp_numeric._cone_rows(p)
    bound = sdp_numeric._lower_bound(
        p.objective,
        rows,
        b,
        np.array([y_sum, y_entry]),
        len(b) - n_slack,
        sdp_numeric._trace_bound(p),
    )
    assert bound <= 1.0 + 1e-12


def test_lower_bound_charges_the_whole_trace_bound():
    # min trace(Y) subject to trace(Y) = 1 has value 1 and tau = 1.  At
    # y = (2, 0), S = -I and ||S_-||_F = sqrt(2), so the bound is
    # 2 - tau sqrt(2), which stays below 1 only for tau >= 1/sqrt(2)
    p = SdpProblem(dim=2, objective=np.eye(2), constraints=[(np.eye(2), 1.0)])
    rows, b, n_slack = sdp_numeric._cone_rows(p)
    tau = sdp_numeric._trace_bound(p)
    assert tau == pytest.approx(1.0)
    bound = sdp_numeric._lower_bound(
        p.objective, rows, b, np.array([2.0, 0.0]), len(b) - n_slack, tau
    )
    assert bound == pytest.approx(2.0 - math.sqrt(2.0))


def test_trace_bound_reads_the_constraints():
    assert sdp_numeric._trace_bound(encode_reduced(make_one_extra(2, 2))) == pytest.approx(4.0)
    assert sdp_numeric._trace_bound(sanity_problem(4)) == 4.0
    unbounded = SdpProblem(dim=2, objective=np.eye(2), constraints=[(np.diag([1.0, 0.0]), 1.0)])
    assert sdp_numeric._trace_bound(unbounded) == math.inf


def test_encode_shapes():
    tiny = encode_reduced(make_one_extra(2, 1))  # 3 vertices -> n = 2
    assert tiny.dim == 4
    assert len(tiny.constraints) == 6
    small = encode_reduced(make_one_extra(2, 2))  # 5 vertices -> n = 4
    assert small.dim == 16
    assert len(small.constraints) == 10
    with pytest.raises(ValueError):
        encode_reduced(make_one_extra(2, 4))  # n = 8 over the cap


def test_encode_objective_agrees_with_certificate_route():
    # same number evaluated through the dense encoding and the closed form
    inst = make_one_extra(2, 2)
    red = build_reduction(inst)
    p = encode_reduced(inst)
    y = assemble(4, 2)
    obj = objective_reduced(y, red)
    assert float(np.sum(p.objective * stacked(y))) == pytest.approx(
        obj.upper_bound, abs=1e-12
    )


def test_certificate_is_feasible_for_encoding():
    inst = make_one_extra(2, 2)
    p = encode_reduced(inst)
    yd = stacked(assemble(4, 2))
    for a, b in p.constraints:
        assert float(np.sum(a * yd)) == pytest.approx(b, abs=1e-12)


def test_three_vertex_value_is_pinned_by_constraints():
    sol = solve(encode_reduced(make_one_extra(2, 1)))
    assert sol.converged
    assert sol.objective_value == pytest.approx(2.0, abs=1e-3)


def test_five_vertex_value_stays_under_certificate_bound():
    # degenerate optimum: no strictly feasible point, so the iterates stall
    # at the cone boundary; the proven bound is asserted, not the flag
    sol = solve(encode_reduced(make_one_extra(2, 2)), max_iters=20_000)
    assert sol.lower_bound <= 2.5
    assert sol.objective_value <= 2.5 + 1e-3
    assert np.isfinite(sol.max_equality_residual)
    assert sol.iterations <= 20_000
    assert sol.status in ("optimal", "stalled")


def lifts(p: SdpProblem) -> list[np.ndarray]:
    """Every permutation lift vec(P) (vec(P))^T meeting all constraints exactly."""
    n = math.isqrt(p.dim)
    out = []
    for perm in itertools.permutations(range(n)):
        pmat = np.eye(n)[list(perm)]
        yy = np.outer(pmat.reshape(-1), pmat.reshape(-1))
        if all(float(np.sum(a * yy)) == b for a, b in p.constraints):
            out.append(yy)
    return out


@pytest.fixture(scope="module")
def brackets():
    """(problem, solution, feasible lifts) per group size 1, 2, 3."""
    out = {}
    for per_group in (1, 2, 3):
        p = encode_reduced(make_one_extra(2, per_group))
        out[per_group] = (p, solve(p), lifts(p))
    return out


@pytest.mark.parametrize("per_group", [1, 2, 3])
def test_lower_bound_is_below_every_feasible_lift(brackets, per_group):
    p, sol, feasible = brackets[per_group]
    assert len(feasible) == math.factorial(2 * per_group)
    values = [float(np.sum(p.objective * yy)) for yy in feasible]
    assert sol.lower_bound <= min(values)
    assert lift_upper_bound(p) == min(values) == pytest.approx(2.0, abs=1e-12)
    assert sol.lower_bound <= lift_upper_bound(p)


def test_brackets_match_the_documented_values(brackets):
    assert brackets[1][1].converged
    assert brackets[1][1].lower_bound == pytest.approx(2.0, abs=1e-6)
    assert brackets[2][1].lower_bound >= 1.999
    # per group 3 sits below 2: the relaxation is not tight there
    assert 1.74 <= brackets[3][1].lower_bound <= 1.76


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=24, max_size=24).filter(lambda w: sum(w) > 0))
def test_lower_bound_is_below_convex_combinations_of_lifts(brackets, weights):
    p, sol, feasible = brackets[2]
    w = np.array(weights) / sum(weights)
    yy = sum(wk * lift for wk, lift in zip(w, feasible))
    assert sol.lower_bound <= float(np.sum(p.objective * yy)) + 1e-12


@pytest.mark.parametrize("per_group", [1, 2, 3])
def test_lift_upper_bound_matches_the_loop_over_lifts(per_group):
    # all n! lifts at once against one lift at a time, bit for bit: on the
    # encoded problem, where every lift costs 2; under an integer tilt of
    # the objective that tells the lifts apart, with and without one more
    # constraint that keeps the lifts with vertex 0 at position 0; and
    # with a total sum no lift meets
    p = encode_reduced(make_one_extra(2, per_group))
    n = math.isqrt(p.dim)
    tilt = np.random.default_rng(per_group).integers(0, 4, (p.dim, p.dim))
    tilted = dataclasses.replace(p, objective=p.objective + tilt + tilt.T, symmetries=())
    e00 = np.zeros((p.dim, p.dim))
    e00[0, 0] = 1.0
    pinned = dataclasses.replace(tilted, constraints=[*p.constraints, (e00, 1.0)])
    *rest, (ones, _) = p.constraints
    unmet = dataclasses.replace(tilted, constraints=[*rest, (ones, n * n + 1.0)])
    assert lift_upper_bound(p) == lift_upper_bound_loop(p) == 2.0
    assert lift_upper_bound(tilted) == lift_upper_bound_loop(tilted) > 2.0
    assert lift_upper_bound(pinned) == lift_upper_bound_loop(pinned)
    assert lift_upper_bound(pinned) >= lift_upper_bound(tilted)
    assert lift_upper_bound(unmet) == lift_upper_bound_loop(unmet) == math.inf


def test_lift_upper_bound_needs_a_square_dim():
    with pytest.raises(ValueError, match="n\\^2"):
        lift_upper_bound(sanity_problem(3))


def test_nonmonotonicity_check_frozen():
    rep = nonmonotonicity_check(large_n=16)
    assert rep.tiny_converged
    assert rep.tiny_value == pytest.approx(2.0, abs=1e-3)
    assert rep.certificate_bound < rep.lower_bound <= 2.0 == rep.upper_bound
    assert rep.large_n == 16
    assert rep.certificate_bound == pytest.approx(TINY_BOUND_16, rel=1e-12)
    assert rep.difference == pytest.approx(2.0 - TINY_BOUND_16, abs=1e-3)
    assert rep.difference >= 0.3
    assert rep.non_monotonic and rep.conclusive
    d = record_json(rep)
    assert d["non_monotonic"] is True
    assert isinstance(d["certificate_bound"], str)



def exact_kron(a, b):
    """Kronecker product of two object arrays of Fractions."""
    return np.array(
        [[a[i, j] * b[k, l] for j in range(a.shape[1]) for l in range(b.shape[1])]
         for i in range(a.shape[0]) for k in range(b.shape[0])],
        dtype=object,
    )


def exact_eye(n):
    return np.array([[Fraction(int(i == j)) for j in range(n)] for i in range(n)], dtype=object)


def exact_encoding(n):
    """encode_reduced's constraint list at side n, and W = K1^T K1 + K2^T K2,
    in Fractions."""
    eye, ones = exact_eye(n), np.full((n, n), Fraction(1), dtype=object)
    unit = [exact_eye(n) * 0 for _ in range(n)]
    for s, e in enumerate(unit):
        e[s, s] = Fraction(1)
    constraints = [(exact_kron(eye, e), Fraction(1)) for e in unit]
    constraints += [(exact_kron(e, eye), Fraction(1)) for e in unit]
    constraints.append((exact_kron(eye, ones - eye) + exact_kron(ones - eye, eye), Fraction(0)))
    constraints.append((np.full((n * n, n * n), Fraction(1), dtype=object), Fraction(n * n)))
    row = np.full((1, n), Fraction(1), dtype=object)
    mean = np.full((n, n * n), Fraction(1, n), dtype=object)
    k1 = exact_kron(eye, row) - mean
    k2 = exact_kron(row, eye) - mean
    return constraints, k1.T.dot(k1) + k2.T.dot(k2)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_exposing_matrix_is_an_exact_combination_of_the_constraints(n):
    # W = sum of the 2n assignment rows - (2/n) J + F, with F on the entries
    # the gangster row fixes, and sum c_i b_i = 2n - (2/n) n^2 = 0
    constraints, w = exact_encoding(n)
    coef = [Fraction(1)] * (2 * n) + [Fraction(0), Fraction(-2, n)]
    combination = sum(c * a for c, (a, _) in zip(coef, constraints))
    fixed = constraints[2 * n][0] != 0
    assert ((w - combination)[~fixed] == 0).all()
    assert sum(c * b for c, (_, b) in zip(coef, constraints)) == 0
    if n % 2 == 0:
        p = encode_reduced(make_one_extra(2, n // 2))
        assert len(p.constraints) == len(constraints)
        for (a, b), (a_exact, b_exact) in zip(p.constraints, constraints):
            assert (np.vectorize(Fraction)(a) == a_exact).all() and Fraction(b) == b_exact
        assert np.abs(p.exposing - w.astype(float)).max() <= 4 * np.finfo(float).eps


def permutation_lifts(n):
    return [np.eye(n)[list(perm)].reshape(-1) for perm in itertools.permutations(range(n))]


@pytest.mark.parametrize("per_group", [1, 2, 3])
def test_face_holds_every_permutation_lift(per_group):
    p = encode_reduced(make_one_extra(2, per_group))
    n = 2 * per_group
    v = p.face
    assert v.shape == (n * n, (n - 1) ** 2 + 1)
    assert np.abs(v.T @ v - np.eye(v.shape[1])).max() <= 1e-14
    # the smallest nonzero eigenvalue of W is n
    vals = np.linalg.eigvalsh(p.exposing)
    assert vals[v.shape[1]] == pytest.approx(n, abs=1e-12)
    for lift in permutation_lifts(n):
        assert np.abs(p.exposing @ lift).max() <= 1e-12
        assert np.abs(v @ (v.T @ lift) - lift).max() <= 1e-12


def test_problem_refuses_an_exposing_matrix_that_is_not_one():
    p = encode_reduced(make_one_extra(2, 2))
    n, w = 4, p.exposing
    noise = np.random.default_rng(0).normal(size=w.shape)
    with pytest.raises(ValueError, match="not a combination"):
        dataclasses.replace(p, exposing=w + 1e-9 * (noise + noise.T))
    with pytest.raises(ValueError, match="not positive semidefinite"):
        dataclasses.replace(p, exposing=-w)
    # K2 without its rank-one term: <W, Y> = n on every feasible Y
    mean = np.full((n, n * n), 1.0 / n)
    k1 = np.kron(np.eye(n), np.ones((1, n))) - mean
    k2_raw = np.kron(np.ones((1, n)), np.eye(n))
    with pytest.raises(ValueError, match="> 0 on the feasible set"):
        dataclasses.replace(p, exposing=k1.T @ k1 + k2_raw.T @ k2_raw)
    for bad in (w[:-1, :-1], w + np.triu(np.ones_like(w), 1)):
        with pytest.raises(ValueError, match="symmetric of shape"):
            dataclasses.replace(p, exposing=bad)
    # K1 alone exposes a valid face, n^2 - n + 1 wide, that holds the minimal
    # one: the check proves soundness, and the encoder declares both terms
    half = dataclasses.replace(p, exposing=k1.T @ k1)
    assert half.face.shape == (n * n, n * n - n + 1)
    assert np.abs(half.face @ (half.face.T @ p.face) - p.face).max() <= 1e-12


def test_problem_without_exposing_matrix_solves_on_the_whole_cone():
    p = sanity_problem(4)
    assert np.array_equal(p.exposing, np.zeros((4, 4)))
    assert np.array_equal(p.face, np.eye(4))
    # the encoded problem on the whole cone: same constraints, a valid but
    # looser bound, and the same cone rows
    tiny = encode_reduced(make_one_extra(2, 2))
    whole = dataclasses.replace(tiny, exposing=None)
    rows, b, n_slack = sdp_numeric._cone_rows(whole)
    first = len(b) - n_slack
    face_rows, face_b, face_first = sdp_numeric._face_rows(rows, b, first, whole.face)
    assert np.array_equal(face_rows, rows) and np.array_equal(face_b, b)
    assert face_first == first
    sol = solve(whole)
    assert sol.lower_bound <= solve(tiny).lower_bound <= 2.0


@pytest.mark.parametrize("per_group", [1, 2, 3])
def test_face_rows_read_the_constraints_on_the_face(per_group):
    p = encode_reduced(make_one_extra(2, per_group))
    m, k = p.face.shape
    rows, b, n_slack = sdp_numeric._cone_rows(p)
    first = len(b) - n_slack
    mapped, b_face, first_face = sdp_numeric._face_rows(rows, b, first, p.face)
    # the kept rows are independent on the face and every dropped one
    # depends on them; every slack row stays, in order
    on_face = (p.face.T @ rows[:first].reshape(-1, m, m) @ p.face).reshape(first, -1)
    keep = independent_rows_by_rank(on_face)
    assert first_face == len(keep) == np.linalg.matrix_rank(on_face) < first
    keep += range(first, len(rows))
    assert np.array_equal(b_face, b[keep])
    # each row reads <A, V R V^T> off R
    r = np.random.default_rng(per_group).normal(size=(k, k))
    r = r + r.T
    y = p.face @ r @ p.face.T
    assert np.abs(mapped @ r.reshape(-1) - rows[keep] @ y.reshape(-1)).max() <= 1e-12


@pytest.mark.parametrize("per_group", [1, 2, 3])
def test_independent_rows_match_the_rank_loop(per_group):
    # the greedy Gram-Schmidt pick against one matrix_rank call per row, on
    # the general rows with the fixed entries projected out and on the rows
    # mapped to the face
    p = encode_reduced(make_one_extra(2, per_group))
    m, k = p.face.shape
    fixed, general = sdp_numeric._split_constraints(p.constraints)
    flat = np.array([a.reshape(-1) for a, _ in general])
    flat[:, fixed.reshape(-1)] = 0.0
    rows, b, n_slack = sdp_numeric._cone_rows(p)
    first = len(b) - n_slack
    on_face = (p.face.T @ rows[:first].reshape(-1, m, m) @ p.face).reshape(first, -1)
    for mat in (flat, on_face):
        assert sdp_numeric._independent_rows(mat) == independent_rows_by_rank(mat)
    assert sdp_numeric._independent_rows(np.zeros((0, 4))) == []


def test_face_solves_in_few_steps(brackets):
    # on the face the barycentre of the lifts is strictly feasible, so the
    # interior-point steps no longer stall at the cone boundary
    pg1, pg2, pg3 = (brackets[k][1] for k in (1, 2, 3))
    assert pg1.converged
    assert pg2.iterations <= 12
    assert pg2.lower_bound >= 2.0 - 1e-6
    assert pg2.min_entry >= -1e-8
    assert pg3.iterations <= 15
    assert pg3.objective_value - pg3.lower_bound <= 1e-6
    assert 1.75 - 1e-6 <= pg3.lower_bound <= 1.75
