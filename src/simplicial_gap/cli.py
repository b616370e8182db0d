"""Batch command-line front end emitting verification and gap reports.

Five subcommands: certify (feasibility of the certificates under both
relaxations plus their closed-form spectrum), gap (lower-bound tables with
the analytic asymptote column), baseline (exact TSP by dynamic programming
and analytic value against the subtour LP), solve-tiny (a proven bracket
of the smallest reduced problems and the non-monotonicity comparison), and
identities (trigonometric residual suites backing the closed forms).

Everything is batch and deterministic: work items are sorted, floats are
printed with 17 significant digits so artifacts are byte-stable, and output
goes to --out or stdout in JSON (default) or CSV.  Exit codes: 0 all checks
passed, 1 a verification failed, 2 bad usage or configuration.
"""

from __future__ import annotations

import argparse
import math
import sys

from .anstreicher_sdp import verify_anstreicher
from .certificates import (
    EQ_TOL,
    PSD_TOL,
    assemble,
    dense_view,
    verify_povh_rendl,
)
from .circulant import identity_suite
from .instances import (
    DP_MAX_VERTICES,
    SimplicialInstance,
    held_karp_cycle,
    make_one_extra,
)
from .reduced_sdp import gap_table, one_extra_bound
from .sdp_numeric import (
    DEFAULT_MAX_ITERS,
    encode_reduced,
    lift_upper_bound,
    nonmonotonicity_check,
    solve,
)
from .serialize import csv_table, fmt_float, json_canonical, record_json
from .subtour_lp import AGREE_TOL, solve_subtour

__all__ = ["build_parser", "main"]


def _n_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("empty n list")
    return values


def _tolerance(text: str) -> float:
    """A tolerance flag's value: a finite float >= 0, else a parse error."""
    try:
        value = float(text)
        ok = math.isfinite(value) and value >= 0.0
    except ValueError:
        ok = False
    if not ok:
        raise argparse.ArgumentTypeError(
            f"tolerance must be a finite number >= 0, got {text!r}"
        )
    return value


def _positive_int(text: str) -> int:
    """A count flag's value: an integer >= 1, else a parse error."""
    try:
        value = int(text)
        ok = value >= 1
    except ValueError:
        ok = False
    if not ok:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _emit(args: argparse.Namespace, payload, rows: list[dict]) -> None:
    """Write payload as canonical JSON, or rows as CSV, to --out or stdout."""
    text = csv_table(rows) if args.format == "csv" else json_canonical(payload)
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)


# certify CSV columns taken as they are from the povh_rendl report
_CERTIFY_CSV_FIELDS = (
    "g",
    "n",
    "dense_checked",
    "passed",
    "residual_row_assign",
    "residual_col_assign",
    "residual_gangster",
    "residual_total_sum",
    "min_entry",
    "min_eig_closed_form",
)


def cmd_certify(args: argparse.Namespace) -> int:
    # every configuration is checked before the first densify
    certs = [assemble(n, args.g) for n in sorted(args.n)]
    rows = []
    reports = []
    all_passed = True
    for y in certs:
        view = dense_view(y, args.dense)
        feas = verify_povh_rendl(y, view, eq_tol=args.tol_eq, psd_tol=args.tol_psd)
        anst = verify_anstreicher(y, view, eq_tol=args.tol_eq, psd_tol=args.tol_psd)
        all_passed = all_passed and feas.passed and anst.passed
        povh, trace = record_json(feas), record_json(anst)
        spectrum_min = fmt_float(feas.min_eig_closed_form)
        reports.append(
            {"povh_rendl": povh, "anstreicher": trace, "spectrum_min": spectrum_min}
        )
        rows.append(
            {
                **{key: povh[key] for key in _CERTIFY_CSV_FIELDS},
                "anstreicher_passed": trace["passed"],
                "min_shifted_eigenvalue": trace["min_shifted_eigenvalue"],
                "spectrum_min": spectrum_min,
            }
        )
    _emit(args, reports, rows)
    return 0 if all_passed else 1


def cmd_gap(args: argparse.Namespace) -> int:
    rows = [record_json(rec) for rec in gap_table(args.z, sorted(args.n))]
    _emit(args, rows, rows)
    return 0


def cmd_baseline(args: argparse.Namespace) -> int:
    # a policy of this command, not a limit of the library: one-vertex
    # groups are left out of the baseline comparison
    if args.per_group < 2:
        return _usage_error(f"per-group must be >= 2, got {args.per_group}")
    inst = SimplicialInstance((args.per_group,) * args.g)
    analytic = float(inst.g)
    dp_value = (
        held_karp_cycle(inst.cost_matrix())
        if inst.n_total <= DP_MAX_VERTICES
        else None
    )
    lp = solve_subtour(inst)
    agree = (
        lp.status == "optimal"
        and abs(lp.objective - analytic) <= AGREE_TOL
        and (dp_value is None or dp_value == analytic)
    )
    report = {
        "g": args.g,
        "per_group": args.per_group,
        "n_total": inst.n_total,
        "tsp_analytic": fmt_float(analytic),
        "tsp_dp": None if dp_value is None else fmt_float(dp_value),
        "subtour_objective": fmt_float(lp.objective),
        "subtour_status": lp.status,
        "cuts_added": lp.cuts_added,
        "agree": agree,
    }
    _emit(args, report, [report])
    return 0 if agree else 1


def cmd_solve_tiny(args: argparse.Namespace) -> int:
    if args.large_n < 6 or args.large_n % 2 != 0:
        return _usage_error(f"large-n must be even and >= 6, got {args.large_n}")
    if args.per_group == 1:
        report = nonmonotonicity_check(args.large_n, max_iters=args.max_iters)
        record = record_json(report)
        _emit(args, record, [record])
        return 0 if report.conclusive and report.non_monotonic else 1
    inst = make_one_extra(2, args.per_group)
    problem = encode_reduced(inst)
    sol = solve(problem, max_iters=args.max_iters)
    y = assemble(2 * args.per_group, 2)
    bound = one_extra_bound(y).upper_bound
    # the quoted certificate must pass its own verification, and the proven
    # lower bound, not the iterate's value, is compared with its bound
    ok = verify_povh_rendl(y, None).passed and sol.lower_bound <= bound
    payload = {
        "n_plus_one": inst.n_total,
        "objective_value": fmt_float(sol.objective_value),
        "lower_bound": fmt_float(sol.lower_bound),
        "upper_bound": fmt_float(lift_upper_bound(problem)),
        "status": sol.status,
        "converged": sol.converged,
        "iterations": sol.iterations,
        "max_equality_residual": fmt_float(sol.max_equality_residual),
        "min_eigenvalue": fmt_float(sol.min_eigenvalue),
        "min_entry": fmt_float(sol.min_entry),
        "certificate_bound": fmt_float(bound),
        "within_bound": ok,
    }
    _emit(args, payload, [payload])
    return 0 if ok else 1


def cmd_identities(args: argparse.Namespace) -> int:
    suites = [(n, identity_suite(args.g, n)) for n in sorted(args.n)]
    keys = sorted(suites[0][1])
    worst = max(abs(value) for _, suite in suites for value in suite.values())
    payload = [
        {
            "g": args.g,
            "n": n,
            "residuals": {k: fmt_float(suite[k]) for k in keys},
        }
        for n, suite in suites
    ]
    rows = [{"g": p["g"], "n": p["n"], **p["residuals"]} for p in payload]
    _emit(args, payload, rows)
    return 0 if worst <= args.tol_eq else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simplicial-gap",
        description=(
            "construct and verify feasible points of tour relaxations on "
            "grouped 0/1 instances, tabulate bound ratios, and run baselines"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p_cert = sub.add_parser("certify", help="verify certificates for (g, n) pairs")
    p_cert.add_argument("--g", type=int, required=True)
    p_cert.add_argument("--n", type=_n_list, required=True, help="comma list of n")
    p_cert.add_argument("--dense", action="store_true", help="force the dense oracle")
    p_cert.add_argument("--tol-eq", type=_tolerance, default=EQ_TOL)
    p_cert.add_argument("--tol-psd", type=_tolerance, default=PSD_TOL)
    add_common(p_cert)
    p_cert.set_defaults(func=cmd_certify)

    p_gap = sub.add_parser("gap", help="lower-bound table for g = 2z")
    p_gap.add_argument("--z", type=int, required=True)
    p_gap.add_argument("--n", type=_n_list, required=True, help="comma list of n")
    add_common(p_gap)
    p_gap.set_defaults(func=cmd_gap)

    p_base = sub.add_parser("baseline", help="exact TSP and subtour LP agreement")
    p_base.add_argument("--g", type=int, required=True)
    p_base.add_argument("--per-group", type=int, required=True, dest="per_group")
    add_common(p_base)
    p_base.set_defaults(func=cmd_baseline)

    p_tiny = sub.add_parser(
        "solve-tiny", help="numeric solver on the smallest reduced problems"
    )
    p_tiny.add_argument("--per-group", type=int, default=1, dest="per_group")
    p_tiny.add_argument("--large-n", type=int, default=16, dest="large_n")
    p_tiny.add_argument(
        "--max-iters",
        type=_positive_int,
        default=DEFAULT_MAX_ITERS,
        help="Newton steps",
    )
    add_common(p_tiny)
    p_tiny.set_defaults(func=cmd_solve_tiny)

    p_id = sub.add_parser("identities", help="trigonometric residual suites")
    p_id.add_argument("--g", type=int, required=True)
    p_id.add_argument("--n", type=_n_list, required=True, help="comma list of n")
    p_id.add_argument("--tol-eq", type=_tolerance, default=EQ_TOL)
    add_common(p_id)
    p_id.set_defaults(func=cmd_identities)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # bad sizes, a malformed cap variable or an --out path that cannot
        # be written land here, not as tracebacks
        return _usage_error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
