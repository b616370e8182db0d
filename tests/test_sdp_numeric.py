import numpy as np
import pytest

from simplicial_gap.certificates import assemble, coeffs_general
from simplicial_gap.instances import make_one_extra
from simplicial_gap.matrix_core import trace_inner
from simplicial_gap.reduced_sdp import build_reduction, objective_reduced
from simplicial_gap.sdp_numeric import (
    SdpProblem,
    encode_reduced,
    nonmonotonicity_check,
    project_psd,
    solve,
)
from simplicial_gap.serialize import record_json

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
    assert sol.iterations == 1
    assert np.isfinite(sol.objective_value)


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
    y = assemble(coeffs_general(4, 2))
    obj = objective_reduced(y, red)
    assert trace_inner(p.objective, y.densify()) == pytest.approx(
        obj.upper_bound, abs=1e-12
    )


def test_certificate_is_feasible_for_encoding():
    inst = make_one_extra(2, 2)
    p = encode_reduced(inst)
    yd = assemble(coeffs_general(4, 2)).densify()
    for a, b in p.constraints:
        assert trace_inner(a, yd) == pytest.approx(b, abs=1e-12)


def test_three_vertex_value_is_pinned_by_constraints():
    sol = solve(encode_reduced(make_one_extra(2, 1)))
    assert sol.converged
    assert sol.objective_value == pytest.approx(2.0, abs=1e-3)


def test_five_vertex_value_stays_under_certificate_bound():
    # degenerate optimum: the solver tail is sublinear, so only the value
    # is asserted here, not the convergence flag
    sol = solve(encode_reduced(make_one_extra(2, 2)), max_iters=20_000)
    assert sol.objective_value <= 2.5 + 1e-3
    assert np.isfinite(sol.max_equality_residual)
    assert sol.iterations <= 20_000


def test_nonmonotonicity_check_frozen():
    rep = nonmonotonicity_check(large_n=16)
    assert rep.tiny_converged
    assert rep.tiny_value == pytest.approx(2.0, abs=1e-3)
    assert rep.large_n == 16
    assert rep.certificate_bound == pytest.approx(TINY_BOUND_16, rel=1e-12)
    assert rep.difference == pytest.approx(2.0 - TINY_BOUND_16, abs=1e-3)
    assert rep.difference >= 0.3
    assert rep.non_monotonic and rep.conclusive
    d = record_json(rep)
    assert d["non_monotonic"] is True
    assert isinstance(d["certificate_bound"], str)

