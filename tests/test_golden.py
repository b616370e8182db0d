"""Golden artifacts: CLI outputs on fixed grids, compared byte for byte.

The files under ``tests/golden/`` were recorded before the verifier and
record-path refactor.  Each test regenerates one artifact through
``cli.main`` and compares it with its golden file byte for byte, with two
exceptions compared as numbers to 1e-12 absolute: the LAPACK-derived
eigenvalues (``min_eig_numeric``, ``min_shifted_numeric``) and the
``identities`` residuals, whose last bits depend on the eigensolver and on
the order of floating-point sums.

Rewrite the files only for an output that changes on purpose, naming its
stems: ``PYTHONPATH=src python tests/test_golden.py solve_tiny`` rewrites
``solve_tiny.json`` alone.  With no stem every artifact is rewritten,
including the LAPACK-derived cells whose last bits vary by machine.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from simplicial_gap.cli import main
from simplicial_gap.serialize import json_canonical

GOLDEN = Path(__file__).with_name("golden")
TOL = 1e-12

# artifact stem -> argv; every case is recorded as JSON and as CSV
CASES = {
    "certify_g2_dense": ["certify", "--g", "2", "--n", "8,16", "--dense"],
    "certify_g2_structured": ["certify", "--g", "2", "--n", "46,64"],
    "gap_z1": ["gap", "--z", "1", "--n", "8,16,32"],
    "gap_z3": ["gap", "--z", "3", "--n", "36,48"],
    "baseline_g3": ["baseline", "--g", "3", "--per-group", "4"],
    # 20 vertices: past the DP cap, so tsp_dp is null / an empty cell
    "baseline_g4_lp_only": ["baseline", "--g", "4", "--per-group", "5"],
    "identities_g6": ["identities", "--g", "6", "--n", "12,24"],
}
# solve-tiny writes JSON only
JSON_ONLY = {"solve_tiny": ["solve-tiny", "--max-iters", "50"]}

ARGV = {**CASES, **JSON_ONLY}
ARTIFACTS = [(stem, "json") for stem in ARGV] + [(stem, "csv") for stem in CASES]

LAPACK_KEYS = {"min_eig_numeric", "min_shifted_numeric"}
# identities CSV: every column after g and n is a residual
NUMERIC_CSV_FROM = {"identities_g6": 2}


def render(stem: str, fmt: str, out: Path) -> str:
    main([*ARGV[stem], "--format", fmt, "--out", str(out)])
    return out.read_text(encoding="utf-8")


def _close(got: str, want: str) -> bool:
    return abs(float(got) - float(want)) <= TOL


def settle_json(new, old, numeric: bool = False):
    """``new`` with each number-compared leaf checked and swapped for ``old``'s."""
    if isinstance(new, dict) and isinstance(old, dict):
        return {
            key: settle_json(
                value,
                old.get(key),
                numeric or key in LAPACK_KEYS or key == "residuals",
            )
            for key, value in new.items()
        }
    if isinstance(new, list) and isinstance(old, list):
        return [settle_json(a, b, numeric) for a, b in zip(new, old)] + new[len(old):]
    if numeric and isinstance(new, str) and isinstance(old, str):
        assert _close(new, old), f"{new} vs golden {old}"
        return old
    return new


def settle_csv(new: str, old: str, first_numeric: int) -> str:
    """``new`` with each residual cell checked and swapped for ``old``'s."""
    header, *lines = new.split("\n")
    rows = [header]
    for new_line, old_line in zip(lines, old.split("\n")[1:]):
        cells, want = new_line.split(","), old_line.split(",")
        if cells[:first_numeric] != want[:first_numeric] or len(cells) != len(want):
            rows.append(new_line)
            continue
        for i in range(first_numeric, len(cells)):
            assert _close(cells[i], want[i]), f"{cells[i]} vs golden {want[i]}"
            cells[i] = want[i]
        rows.append(",".join(cells))
    return "\n".join(rows)


@pytest.mark.parametrize(("stem", "fmt"), ARTIFACTS, ids=[f"{s}.{f}" for s, f in ARTIFACTS])
def test_artifact_matches_golden(stem, fmt, tmp_path):
    golden = (GOLDEN / f"{stem}.{fmt}").read_text(encoding="utf-8")
    text = render(stem, fmt, tmp_path / f"{stem}.{fmt}")
    if fmt == "json":
        assert json_canonical(json.loads(text)) == text
        text = json_canonical(settle_json(json.loads(text), json.loads(golden)))
    elif stem in NUMERIC_CSV_FROM:
        text = settle_csv(text, golden, NUMERIC_CSV_FROM[stem])
    assert text == golden


if __name__ == "__main__":
    stems = sys.argv[1:] or list(ARGV)
    unknown = sorted(set(stems) - set(ARGV))
    if unknown:
        sys.exit(f"unknown stems {unknown}; choose from {sorted(ARGV)}")
    GOLDEN.mkdir(exist_ok=True)
    for stem, fmt in ARTIFACTS:
        if stem not in stems:
            continue
        path = GOLDEN / f"{stem}.{fmt}"
        render(stem, fmt, path)
        print(path, file=sys.stderr)
