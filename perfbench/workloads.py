"""The benchmark's four workloads: seeded item draws and output checks.

Every item is one argv for ``simplicial_gap.cli.main``.  A seed only picks
among inputs of comparable cost, so wall time stays comparable across seeds
while the outputs differ:

* structured-large -- the paper's headline gap-table path: ``gap`` for
  z = 1, 3 and structured ``certify`` (n^2 above the dense cap) at
  n ~ 1k-4k.  The seed picks each n from g * {m, m + 2, m + 4}, m the odd
  number just below T / g for a power-of-two T; cost grows about as n^2,
  so the pick moves cost by a few per cent.  Odd m keeps n off multiples of
  4, whose power-of-two row strides ran up to 40 % slower than their
  neighbours (cache-set conflicts).  ``gap --z 3 --n 3054`` is a fixed
  member: its certificate fails the total-sum check (an absolute 1e-9
  tolerance on a sum of size n^2, off by 1.9e-9 from roundoff), so the
  table raises ArithmeticError at the seed and that defect stays visible.
  Never calls ``eigh`` or the LP.
* dense-oracle -- ``certify --dense`` on the acceptance grid plus n = 44,
  and the identity suites.  The same structured functions at small n, so
  added per-call overhead shows here.  Fixed inputs.
* baselines -- Held-Karp DP and the subtour LP.  The seed picks one layout
  per slot from pools of measured comparable cost; the 10 x 6 layout is a
  fixed member because it raises ArithmeticError at the seed (a known
  defect that must stay visible).
* admm-tiny -- the numeric ADMM solver at its default iteration budget.
  Fixed inputs; kept apart because it would swamp the LP and the DP.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

WORKLOADS = ("structured-large", "dense-oracle", "baselines", "admm-tiny")
DEFAULT_SEED = 0
REFERENCES = Path(__file__).with_name("references.json")

# (subcommand, group flag, its value, group count g, target n)
_STRUCTURED_SLOTS = [
    ("gap", "--z", 1, 2, 1024),
    ("gap", "--z", 1, 2, 2048),
    ("gap", "--z", 1, 2, 4096),
    ("gap", "--z", 3, 6, 1536),
    ("gap", "--z", 3, 6, 3072),
    ("certify", "--g", 2, 2, 2048),
    ("certify", "--g", 2, 2, 4096),
    ("certify", "--g", 6, 6, 3072),
]

# (groups, per group) layouts; each inner list is one slot, its members
# took within ~15 % of each other on a 2-core box.  The first two slots sit
# within the DP cap (n <= 18), the last two are LP-only.
_BASELINE_POOLS = [
    [(3, 5), (5, 3)],
    [(4, 4), (8, 2)],
    [(8, 3), (2, 20), (5, 6), (6, 5), (4, 8)],
    [(4, 10), (6, 6)],
]
KNOWN_DEFECT_LAYOUT = (10, 6)
KNOWN_DEFECT_GAP = ["gap", "--z", "3", "--n", "3054"]

_DENSE_ORACLE = [
    ["certify", "--g", "2", "--n", "8,16,32", "--dense"],
    ["certify", "--g", "4", "--n", "16,32", "--dense"],
    ["certify", "--g", "6", "--n", "36", "--dense"],
    ["certify", "--g", "2", "--n", "44", "--dense"],
    ["certify", "--g", "4", "--n", "44", "--dense"],
    ["identities", "--g", "6", "--n", "12,24,48"],
    ["identities", "--g", "10", "--n", "120,160,200"],
]

_ADMM_TINY = [
    ["solve-tiny"],
    ["solve-tiny", "--per-group", "2"],
]

# spans that must appear in a traced run; a missing one means a layer was
# renamed or bypassed and its per-layer numbers would silently read zero
EXPECTED_SPANS = {
    "structured-large": [
        "cli.main",
        "reduced_sdp.gap_table",
        "reduced_sdp.build_reduction",
        "reduced_sdp.objective_reduced",
        "circulant.cosine_profile",
        "certificates.closed_form_spectrum",
        "certificates.verify_povh_rendl",
        "anstreicher_sdp.verify_anstreicher",
        "anstreicher_sdp.shifted_spectrum",
        "serialize.json_canonical",
    ],
    "dense-oracle": [
        "cli.main",
        "matrix_core.sym_eigs",
        "matrix_core.kron",
        "certificates.CertificateY.densify",
        "certificates.verify_povh_rendl",
        "certificates.objective_dense_trace",
        "anstreicher_sdp.verify_anstreicher",
        "circulant.identity_suite",
        "circulant.cosine_profile",
        "serialize.json_canonical",
    ],
    "baselines": [
        "cli.main",
        "instances.held_karp_cycle",
        "subtour_lp.solve_subtour",
        "subtour_lp.simplex_solve",
        "subtour_lp.min_cut",
        "serialize.json_canonical",
    ],
    "admm-tiny": [
        "cli.main",
        "sdp_numeric.solve",
        "sdp_numeric.project_psd",
        "sdp_numeric.encode_reduced",
        "reduced_sdp.build_reduction",
        "serialize.json_canonical",
    ],
}


def _structured_pool(g: int, target: int) -> list[int]:
    m = target // g - 1 if (target // g) % 2 == 0 else target // g
    return [g * m, g * (m + 2), g * (m + 4)]


def _baseline_argv(groups: int, per_group: int) -> list[str]:
    return ["baseline", "--g", str(groups), "--per-group", str(per_group)]


def draw(workload: str, seed: int) -> list[list[str]]:
    """The workload's items for this seed; the same seed gives the same argv."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "structured-large":
        items = [
            [cmd, flag, str(value), "--n", str(rng.choice(_structured_pool(g, target)))]
            for cmd, flag, value, g, target in _STRUCTURED_SLOTS
        ]
        return items + [list(KNOWN_DEFECT_GAP)]
    if workload == "dense-oracle":
        return [list(argv) for argv in _DENSE_ORACLE]
    if workload == "baselines":
        layouts = [rng.choice(pool) for pool in _BASELINE_POOLS]
        layouts.append(KNOWN_DEFECT_LAYOUT)
        return [_baseline_argv(*layout) for layout in layouts]
    if workload == "admm-tiny":
        return [list(argv) for argv in _ADMM_TINY]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def all_items() -> list[list[str]]:
    """Every argv any seed can draw, for recording references."""
    items = [
        [cmd, flag, str(value), "--n", str(n)]
        for cmd, flag, value, g, target in _STRUCTURED_SLOTS
        for n in _structured_pool(g, target)
    ]
    items.append(list(KNOWN_DEFECT_GAP))
    items += [list(argv) for argv in _DENSE_ORACLE]
    items += [_baseline_argv(*lay) for pool in _BASELINE_POOLS for lay in pool]
    items.append(_baseline_argv(*KNOWN_DEFECT_LAYOUT))
    items += [list(argv) for argv in _ADMM_TINY]
    return items


def item_key(argv: list[str]) -> str:
    return " ".join(argv)


def load_references() -> dict:
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


# --------------------------------------------------------------------------
# output checks


def _num(text) -> float | None:
    return None if text is None else float(text)


def _close(problems, label, got, want, rel=0.0, abs_=0.0) -> None:
    g, w = _num(got), _num(want)
    if g is None or w is None:
        if g is not w:
            problems.append(f"{label}: got {got!r}, want {want!r}")
        return
    if not math.isfinite(g) or abs(g - w) > max(abs_, rel * abs(w)):
        problems.append(f"{label}: got {got}, want {want}")


def _same(problems, label, got, want) -> None:
    if got != want:
        problems.append(f"{label}: got {got!r}, want {want!r}")


_GAP_COLUMNS = ("tsp", "kron_term", "diag_term", "sdp_upper", "gap_lower", "asymptote")
_CERT_MINIMA = (
    ("povh_rendl", "min_eig_closed_form"),
    ("povh_rendl", "min_eig_numeric"),
    ("anstreicher", "min_shifted_eigenvalue"),
    ("anstreicher", "min_shifted_numeric"),
)


def _check_certify(out, want, problems) -> None:
    _same(problems, "records", len(out), len(want))
    for got, ref in zip(out, want):
        n = ref["povh_rendl"]["n"]
        for rel in ("povh_rendl", "anstreicher"):
            _same(problems, f"n={n} {rel}.passed", got[rel]["passed"], True)
            _same(problems, f"n={n} {rel}.n", got[rel]["n"], n)
            _same(
                problems,
                f"n={n} {rel}.dense_checked",
                got[rel]["dense_checked"],
                ref[rel]["dense_checked"],
            )
        _close(problems, f"n={n} spectrum_min", got["spectrum_min"], ref["spectrum_min"], abs_=1e-9)
        for rel, key in _CERT_MINIMA:
            _close(problems, f"n={n} {rel}.{key}", got[rel][key], ref[rel][key], abs_=1e-9)
        for key in ("objective_closed_form", "objective_dense"):
            _close(
                problems,
                f"n={n} anstreicher.{key}",
                got["anstreicher"][key],
                ref["anstreicher"][key],
                rel=1e-12,
            )


def _check_gap(out, want, problems) -> None:
    _same(problems, "records", len(out), len(want))
    for got, ref in zip(out, want):
        n = ref["n"]
        for key in ("z", "g", "n"):
            _same(problems, f"n={n} {key}", got[key], ref[key])
        for key in _GAP_COLUMNS:
            _close(problems, f"n={n} {key}", got[key], ref[key], rel=1e-12)


def _check_identities(out, want, problems) -> None:
    _same(problems, "records", len(out), len(want))
    for got, ref in zip(out, want):
        n = ref["n"]
        _same(problems, f"n={n} n", got["n"], n)
        _same(problems, f"n={n} residual keys", sorted(got["residuals"]), sorted(ref["residuals"]))
        for key, value in got["residuals"].items():
            if not abs(float(value)) <= 1e-9:
                problems.append(f"n={n} {key}: residual {value} above 1e-9")


def _check_baseline(argv, out, problems) -> None:
    # checked against the analytic truth, not the seed: the optimal tour of
    # g groups costs g, so the subtour LP must reach g as well
    groups, per_group = int(argv[2]), int(argv[4])
    _same(problems, "agree", out["agree"], True)
    _same(problems, "subtour_status", out["subtour_status"], "optimal")
    _close(problems, "tsp_analytic", out["tsp_analytic"], str(groups), abs_=0.0)
    _close(problems, "subtour_objective", out["subtour_objective"], str(groups), abs_=1e-6)
    want_dp = str(groups) if groups * per_group <= 18 else None
    _close(problems, "tsp_dp", out["tsp_dp"], want_dp, abs_=0.0)


def _check_solve_tiny(out, want, problems) -> None:
    _close(problems, "certificate_bound", out["certificate_bound"], want["certificate_bound"], rel=1e-12)
    if "within_bound" in want:
        _same(problems, "n_plus_one", out["n_plus_one"], want["n_plus_one"])
        _same(problems, "within_bound", out["within_bound"], True)
    else:
        _same(problems, "conclusive", out["conclusive"], True)
        _same(problems, "non_monotonic", out["non_monotonic"], True)
        _close(problems, "tiny_value", out["tiny_value"], "2", abs_=1e-3)


def check(argv: list[str], exit_code, text: str, ref: dict | None) -> list[str]:
    """Problems with one item's output; an empty list means it is correct."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        out = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    problems: list[str] = []
    try:
        if argv[0] == "baseline":
            _check_baseline(argv, out, problems)
        elif ref is None or ref.get("output") is None:
            problems.append("no reference output recorded for this item")
        elif argv[0] == "certify":
            _check_certify(out, ref["output"], problems)
        elif argv[0] == "gap":
            _check_gap(out, ref["output"], problems)
        elif argv[0] == "identities":
            _check_identities(out, ref["output"], problems)
        elif argv[0] == "solve-tiny":
            _check_solve_tiny(out, ref["output"], problems)
        else:
            problems.append(f"no check for subcommand {argv[0]!r}")
    except (KeyError, TypeError, ValueError) as exc:
        problems.append(f"malformed output: {type(exc).__name__}: {exc}")
    return problems
