"""End-to-end acceptance checks, one numbered criterion per test.

Each test prints exactly one PASS/FAIL line with its key numbers so the
whole battery reads as a checklist under pytest -v -s.  Tolerances and
thresholds are stated inline; frozen constants were computed independently
at high precision before the implementation existed.
"""

import json
import time

import numpy as np

from simplicial_gap.anstreicher_sdp import verify_anstreicher
from simplicial_gap.certificates import (
    assemble,
    closed_form_spectrum,
    dense_view,
    objective_povh_rendl,
)
from simplicial_gap.circulant import identity_suite
from simplicial_gap.cli import main
from simplicial_gap.instances import SimplicialInstance, held_karp_cycle, make_one_extra
from simplicial_gap.reduced_sdp import build_reduction, gap_table, objective_reduced
from simplicial_gap.sdp_numeric import nonmonotonicity_check
from simplicial_gap.subtour_lp import solve_subtour

from oracles import multiset, profile_identity_residuals

CERT_CASES = [(2, 8), (2, 16), (2, 32), (4, 16), (4, 32), (6, 36)]


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\n{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_certificate_feasibility(tmp_path):
    t0 = time.perf_counter()
    worst_eq = 0.0
    worst_eig = 0.0
    all_ok = True
    by_g: dict[int, list[int]] = {}
    for g, n in CERT_CASES:
        by_g.setdefault(g, []).append(n)
    for g, ns in by_g.items():
        out = tmp_path / f"certify_{g}.json"
        code = main(
            [
                "certify",
                "--g",
                str(g),
                "--n",
                ",".join(str(n) for n in ns),
                "--dense",
                "--out",
                str(out),
            ]
        )
        all_ok &= code == 0
        for entry in json.loads(out.read_text()):
            rep = entry["povh_rendl"]
            all_ok &= rep["passed"] is True and rep["dense_checked"] is True
            eq = max(
                float(rep["residual_row_assign"]),
                float(rep["residual_col_assign"]),
                float(rep["residual_gangster"]),
                float(rep["residual_total_sum"]),
            )
            eig = min(float(rep["min_eig_closed_form"]), float(rep["min_eig_numeric"]))
            worst_eq = max(worst_eq, eq)
            worst_eig = min(worst_eig, eig)
    elapsed = time.perf_counter() - t0
    ok = all_ok and worst_eq <= 1e-9 and worst_eig >= -1e-8 and elapsed <= 120
    report(
        1,
        ok,
        f"6 certificates feasible, worst equality residual {worst_eq:.2e} "
        f"(tol 1e-9), worst eigenvalue {worst_eig:.2e} (tol -1e-8), "
        f"{elapsed:.1f}s of 120s",
    )


def test_criterion_02_spectrum_oracle_equivalence(dense_cert):
    worst = 0.0
    for g, n in CERT_CASES:
        _, eigs = dense_cert(g, n)
        closed = multiset(closed_form_spectrum(assemble(n, g)))
        worst = max(worst, float(np.abs(closed / (2.0 * n) - eigs).max()))
    ok = worst <= 1e-8
    report(2, ok, f"closed-form vs dense spectra on 6 cases, worst gap {worst:.2e} (tol 1e-8)")


def test_criterion_03_identity_suites():
    t0 = time.perf_counter()
    worst = 0.0
    suites = 0
    for g in (2, 4, 6, 8, 10):
        for n in range(2 * g, 201, 2):
            res = identity_suite(g, n)
            worst = max(worst, max(abs(v) for v in res.values()))
            suites += 1
            if n % g == 0 and n // g >= 2:
                prof = profile_identity_residuals(assemble(n, g))
                worst = max(worst, max(abs(v) for v in prof.values()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed <= 30
    report(
        3,
        ok,
        f"{suites} identity suites (g <= 10, n <= 200), worst residual "
        f"{worst:.2e} (tol 1e-9), {elapsed:.1f}s of 30s",
    )


def test_criterion_04_unbounded_gap_two_groups():
    ratio_at_512 = 0.0
    all_ok = True
    for n in (8, 16, 32, 64, 128, 256, 512):
        y = assemble(n, 2)
        obj = objective_povh_rendl(y)
        d = n // 2
        bound = 4.0 * np.pi**2 * d * d / n**3
        all_ok &= obj <= bound
        if n == 512:
            ratio_at_512 = 2.0 / obj
    ok = all_ok and ratio_at_512 > 10.0
    report(
        4,
        ok,
        f"objective under 4*pi^2*d^2/n^3 for n in 8..512, "
        f"gap ratio {ratio_at_512:.1f} > 10 at n = 512",
    )


def test_criterion_05_reduced_gap_thresholds():
    t0 = time.perf_counter()
    grids = {
        1: ([8, 16, 24, 32, 48, 64], 1.7),
        2: ([16, 32, 48, 64, 96, 128], 1.8),
        3: ([24, 48, 72, 96, 144, 192], 2.6),
    }
    all_ok = True
    finals = {}
    for z, (ns, threshold) in grids.items():
        gaps = [rec.gap_lower for rec in gap_table(z, ns)]
        all_ok &= all(b >= a for a, b in zip(gaps, gaps[1:]))
        all_ok &= gaps[-1] > threshold
        finals[z] = gaps[-1]
    elapsed = time.perf_counter() - t0
    ok = all_ok and elapsed <= 60
    report(
        5,
        ok,
        f"monotone gap columns, finals z=1: {finals[1]:.3f} > 1.7, "
        f"z=2: {finals[2]:.3f} > 1.8, z=3: {finals[3]:.3f} > 2.6, "
        f"{elapsed:.1f}s of 60s",
    )


def test_criterion_06_diag_term_exactness():
    worst_two = 0.0
    max_general = 0.0
    for n in (8, 16, 32, 64):
        red = build_reduction(make_one_extra(2, n // 2))
        obj = objective_reduced(assemble(n, 2), red)
        worst_two = max(worst_two, abs(obj.diag_term - 1.0))
    for g, n in ((4, 16), (4, 32), (6, 36)):
        red = build_reduction(make_one_extra(g, n // g))
        obj = objective_reduced(assemble(n, g), red)
        max_general = max(max_general, obj.diag_term)
    ok = worst_two <= 1e-12 and max_general <= 2.0 + 1e-12
    report(
        6,
        ok,
        f"two-group diag term off 1.0 by {worst_two:.2e} (tol 1e-12), "
        f"general diag term max {max_general:.6f} <= 2.0",
    )


def test_criterion_07_anstreicher_agreement():
    all_ok = True
    worst = 0.0
    for n in (8, 16, 24):
        y = assemble(n, 2)
        rep = verify_anstreicher(y, dense_view(y, force=True))
        all_ok &= rep.passed
        ref = objective_povh_rendl(y)
        worst = max(worst, abs(rep.objective_closed_form - ref))
        worst = max(worst, abs(rep.objective_dense - ref))
    ok = all_ok and worst <= 1e-12
    report(
        7,
        ok,
        f"lifted-tour checks pass for n in (8, 16, 24), objectives agree "
        f"within {worst:.2e} (tol 1e-12)",
    )


def test_criterion_08_non_monotonicity():
    t0 = time.perf_counter()
    rep = nonmonotonicity_check(large_n=16)
    elapsed = time.perf_counter() - t0
    ok = (
        rep.tiny_converged
        and abs(rep.tiny_value - 2.0) <= 1e-3
        and rep.difference >= 0.3
        and rep.non_monotonic
        and elapsed <= 120
    )
    report(
        8,
        ok,
        f"3-vertex value {rep.tiny_value:.6f} = 2 within 1e-3, exceeds the "
        f"(g=2, n=16) bound {rep.certificate_bound:.6f} by "
        f"{rep.difference:.3f} >= 0.3, {elapsed:.1f}s of 120s",
    )


def test_criterion_09_subtour_lp_contrast():
    t0 = time.perf_counter()
    worst = 0.0
    all_ok = True
    for g in (2, 3, 4, 6):
        for per_group in (2, 3, 4):
            sol = solve_subtour(SimplicialInstance((per_group,) * g))
            all_ok &= sol.status == "optimal"
            worst = max(worst, abs(sol.objective - float(g)))
    elapsed = time.perf_counter() - t0
    ok = all_ok and worst <= 1e-6 and elapsed <= 120
    report(
        9,
        ok,
        f"12 subtour LPs equal the analytic value within {worst:.2e} "
        f"(tol 1e-6), {elapsed:.1f}s of 120s",
    )


def _partitions(total: int, max_part: int):
    if total == 0:
        yield ()
        return
    for part in range(min(total, max_part), 0, -1):
        for rest in _partitions(total - part, part):
            yield (part, *rest)


def test_criterion_10_exact_solver_agreement():
    count = 0
    all_ok = True
    for n_total in range(2, 15):
        for sizes in _partitions(n_total, n_total - 1):
            if len(sizes) < 2:
                continue
            inst = SimplicialInstance(sizes)
            all_ok &= held_karp_cycle(inst.cost_matrix()) == float(inst.g)
            count += 1
    report(
        10,
        all_ok,
        f"dynamic program equals the analytic value on all {count} "
        f"group layouts with at most 14 vertices",
    )
