"""Mutation check of the verifiers, the dense oracle, the reduced bound, the
exact baselines and the tiny-SDP solver.

Each mutant below is one textual edit of the package: a dropped clause of a
verifier's ``passed`` expression, a wrong residual formula, a wrong kind
lookup in ``CertificateY.densify``, a wrong offset table in the row pass's
scatter of the diagonal-block sum, a wrong contraction, projection or mass
sum in the row pass behind ``certificates.dense_view`` (among them a
min/max scan moved below the in-place residual), a wrong shift, block slice
or count of paired frequencies in ``dense_view`` itself, a Weyl check that
lets a NaN mass through, a wrong count, factor or fixing in
``reduced_sdp``'s bound, a skipped verification in ``gap_table``, a wrong
offset in ``circulant.first_row``, a wrong seed, step or return leg in
``instances.held_karp_cycle``, a dropped merge, key reset or side in
``subtour_lp.min_cut``, a lost Bland fallback or an unclipped ratio test in
the subtour LP's simplex, a wrong weak-duality bound, trace bound, lift
bound or step length in ``sdp_numeric``, a skipped symmetry check, a lost generator, a wrong orbit or orbit row in its
symmetry reduction, or a non-monotonicity verdict that skips the
certificate check.  For every mutant the script copies
``src``, ``tests``, ``perfbench`` (the subtour-LP tests read its layouts)
and ``pyproject.toml`` into a fresh temporary directory, applies the edit
there (the working tree is never written) and runs the certificate,
trace-pattern, CLI, reduced-SDP, instance, subtour-LP and SDP-solver
tests on the copy.
A mutant that every test still passes is a survivor: a fault those tests
would not see.  Run from the repository root:

    python3 tools/mutants.py [--workdir DIR]

The mutants run side by side, one pytest child per CPU this process may
use.  It prints one line per mutant, in the order of ``MUTANTS``, and then
the survivors; the exit code is 0 when the unmutated copy passes and every
mutant applies, else 2.  Standard library only.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "pyproject.toml")
TESTS = (
    "tests/test_certificates.py",
    "tests/test_anstreicher.py",
    "tests/test_cli.py",
    "tests/test_reduced_sdp.py",
    "tests/test_instances.py",
    "tests/test_subtour_lp.py",
    "tests/test_sdp_numeric.py",
)
CERT = "src/simplicial_gap/certificates.py"
ANST = "src/simplicial_gap/anstreicher_sdp.py"
RED = "src/simplicial_gap/reduced_sdp.py"
CIRC = "src/simplicial_gap/circulant.py"
INST = "src/simplicial_gap/instances.py"
LP = "src/simplicial_gap/subtour_lp.py"
SDP = "src/simplicial_gap/sdp_numeric.py"

# (name, file, text, replacement): the text must occur exactly once
MUTANTS = [
    # verify_povh_rendl's verdict, one clause at a time
    ("povh-passed-row", CERT, "        row <= eq_tol\n", "        True\n"),
    ("povh-passed-col", CERT, "        and col <= eq_tol\n", ""),
    ("povh-passed-gangster", CERT, "        and gang <= eq_tol\n", ""),
    ("povh-passed-total", CERT, "        and total <= eq_tol\n", ""),
    ("povh-passed-min-entry", CERT, "        and min_entry >= -NN_TOL\n", ""),
    ("povh-passed-closed-psd", CERT, "        and min_eig_closed >= -psd_tol\n", ""),
    (
        "povh-passed-numeric-psd",
        CERT,
        "        and (min_eig_numeric is None or min_eig_numeric >= -psd_tol)\n",
        "",
    ),
    # verify_anstreicher's verdict
    ("anst-passed-block-sum", ANST, "        block_sum <= eq_tol\n", "        True\n"),
    ("anst-passed-trace-pattern", ANST, "        and trace_pattern <= eq_tol\n", ""),
    ("anst-passed-f", ANST, "        and residual_f <= eq_tol\n", ""),
    ("anst-passed-closed-psd", ANST, "        and min_shifted >= -psd_tol\n", ""),
    (
        "anst-passed-numeric-psd",
        ANST,
        "        and (min_numeric is None or min_numeric >= -psd_tol)\n",
        "",
    ),
    # residual formulas
    (
        "povh-dense-row-reads-traces",
        CERT,
        "np.diagonal(view.diagonal_block_sum) - 1.0",
        "np.diagonal(view.block_traces) - 1.0",
    ),
    (
        "povh-dense-total",
        CERT,
        "abs(view.entry_sum - float(n * n))",
        "abs(view.entry_sum - float(n))",
    ),
    (
        "povh-dense-gangster-drops-traces",
        CERT,
        "view.diagonal_block_sum[off].sum() + view.block_traces[off].sum()",
        "view.diagonal_block_sum[off].sum()",
    ),
    (
        "povh-dense-gangster-allowed-entries",
        CERT,
        "off = ~np.eye(n, dtype=bool)",
        "off = np.eye(n, dtype=bool)",
    ),
    (
        "povh-structured-total-swap",
        CERT,
        "count_within * sum_a + count_across * sum_b",
        "count_within * sum_b + count_across * sum_a",
    ),
    (
        "povh-structured-min-entry",
        CERT,
        "float(b.min()) / (2.0 * n)",
        "float(a.min()) / (2.0 * n)",
    ),
    (
        "anst-dense-f-doubles-block-sum",
        ANST,
        "block_sum.sum() + trace_pattern.sum()",
        "block_sum.sum() + block_sum.sum()",
    ),
    (
        "anst-dense-block-sum-all-blocks",
        CERT,
        "own_blocks += w[:, u, :]",
        "own_blocks += w.sum(axis=1)",
    ),
    (
        "anst-dense-trace-pattern-block-sum",
        ANST,
        "trace_pattern = view.block_traces",
        "trace_pattern = view.diagonal_block_sum",
    ),
    # densify's vertex rows: every row u reads the kinds of vertex 0
    ("densify-every-row-vertex-0", CERT, "row[kind[u]]", "row[kind[0]]"),
    # the one pass over Y's vertex rows and its projection
    (
        "pass-drops-discarded-mass",
        CERT,
        "        off += float(np.vdot(w, w))\n",
        "",
    ),
    # the row becomes its own residual: a scan moved below the subtract
    # reads w - h in place of Y's entries
    (
        "pass-scan-after-residual",
        CERT,
        "        low, high = np.minimum(low, w.min()), np.maximum(high, w.max())\n"
        "        h = (d + d[:, mirror]) / (2.0 * n)\n"
        "        blocks[:, u, :] = (h @ cosines).T\n"
        "        np.subtract(w, h, out=w)  # the row is its own residual from here on\n",
        "        h = (d + d[:, mirror]) / (2.0 * n)\n"
        "        blocks[:, u, :] = (h @ cosines).T\n"
        "        np.subtract(w, h, out=w)  # the row is its own residual from here on\n"
        "        low, high = np.minimum(low, w.min()), np.maximum(high, w.max())\n",
    ),
    (
        "pass-block-sum-wrong-scatter",
        CERT,
        "diagonal_block_sum[pos[:, None], (pos[:, None] + pos[None, :]) % n]",
        "diagonal_block_sum[pos[:, None], (pos[None, :] - pos[:, None]) % n]",
    ),
    (
        "pass-entry-sum-offset-0",
        CERT,
        "total += float(d.sum())",
        "total += float(d[:, 0].sum())",
    ),
    ("pass-h-without-mirror", CERT, "(d + d[:, mirror]) / (2.0 * n)", "d / n"),
    (
        "pass-anti-without-pair-weight",
        CERT,
        "off + pair @ (anti * anti).sum(axis=(1, 2))",
        "off + (anti * anti).sum()",
    ),
    (
        "pass-c1-one-offset",
        CERT,
        "c1_inner[u] = d[:, 1] + d[:, n - 1]",
        "c1_inner[u] = 2.0 * d[:, 1]",
    ),
    (
        "pass-traces-offset-1",
        CERT,
        "block_traces[u] = d[:, 0]",
        "block_traces[u] = d[:, 1]",
    ),
    (
        "pass-min-max-one-row",
        CERT,
        "low, high = np.minimum(low, w.min()), np.maximum(high, w.max())",
        "low, high = w.min(), w.max()",
    ),
    (
        "pass-diagonal-block-wrong-column",
        CERT,
        "own_blocks += w[:, u, :]",
        "own_blocks += w[:, (u + 1) % n, :]",
    ),
    # the Weyl check in dense_view lets a NaN discarded mass through
    (
        "dense-weyl-nan-passes",
        CERT,
        "if not discarded <= EIG_TOL * scale:",
        "if discarded > EIG_TOL * scale:",
    ),
    # the -J_n/n shift and the block slicing in dense_view
    ("shift-dropped", CERT, "blocks[:1] - 1.0 / n", "blocks[:1]"),
    ("shift-scale", CERT, "blocks[:1] - 1.0 / n", "blocks[:1] - 1.0 / (n * n)"),
    ("shift-wrong-block", CERT, "blocks[:1] - 1.0 / n", "blocks[1:2] - 1.0 / n"),
    (
        "slice-eigenvalues",
        CERT,
        "np.concatenate([values[:-1], paired])",
        "np.concatenate([values[1:], paired])",
    ),
    (
        "slice-shifted",
        CERT,
        "np.concatenate([values[1:], paired])",
        "np.concatenate([values[:-1], paired])",
    ),
    ("spectra-drop-pairs", CERT, "paired = values[1 : n // 2]", "paired = values[1:1]"),
    (
        "anst-reads-unshifted",
        ANST,
        "float(view.shifted_eigenvalues[0])",
        "float(view.eigenvalues[0])",
    ),
    # the reduced objective's counts and factor, and the gap table's gate
    (
        "red-ones-within-keeps-shared",
        RED,
        "int((table.sum(axis=1) ** 2).sum() - (table**2).sum())",
        "int((table.sum(axis=1) ** 2).sum())",
    ),
    (
        "red-ones-across-keeps-within",
        RED,
        "int((table.sum(axis=0) ** 2).sum()) - ones_within",
        "int((table.sum(axis=0) ** 2).sum())",
    ),
    ("red-unreduced-factor", RED, "(n - 1.0) / (2.0 * n)", "n / (2.0 * n)"),
    (
        "red-ones-in-cbar-drops-extra",
        RED,
        "2 * (self.n + 1 - group_of_s)",
        "2 * (self.n - group_of_s)",
    ),
    (
        "red-one-extra-fixes-last-position",
        RED,
        "build_reduction(inst, 1, 1)",
        "build_reduction(inst, 1, inst.n_total)",
    ),
    (
        "red-gap-table-skips-verification",
        RED,
        "if not verify_povh_rendl(y, None).passed:",
        "if False:",
    ),
    ("red-cbar-row-major", RED, 'reshape(-1, order="F")', 'reshape(-1, order="C")'),
    # first_row's half-offset layout
    ("row-drops-antipode-doubling", CIRC, "row[d] = 2.0 * c[-1]", "row[d] = c[-1]"),
    ("row-mirror-shifted", CIRC, "row[d + 1 :] = c[-2::-1]", "row[d + 1 :] = c[-1:0:-1]"),
    # the Held-Karp layers: seed, step and return leg
    (
        "hk-drops-return-leg",
        INST,
        "np.min(below[:, 0] + dist[1:, 0])",
        "np.min(below[:, 0])",
    ),
    ("hk-step-wrong-column", INST, "dist[1:, j + 1, None]", "dist[1:, j, None]"),
    ("hk-step-transposed", INST, "dist[1:, j + 1, None]", "dist[j + 1, 1:, None]"),
    (
        "hk-seed-reads-return-leg",
        INST,
        "np.arange(m)] = dist[0, 1:]",
        "np.arange(m)] = dist[1:, 0]",
    ),
    # the in-place Stoer-Wagner contraction
    ("sw-skips-dead-key-reset", LP, "        key[dead] = -np.inf\n", ""),
    ("sw-drops-row-merge", LP, "        wm[s] += wm[t]\n", ""),
    ("sw-drops-column-merge", LP, "        wm[:, s] += wm[:, t]\n", ""),
    (
        "sw-best-set-from-s",
        LP,
        "best_set = frozenset(groups[t])",
        "best_set = frozenset(groups[s])",
    ),
    # the simplex: its anti-cycling fallback and its two ratio tests
    ("simplex-no-bland-fallback", LP, "DEGENERATE_RUN = 50", "DEGENERATE_RUN = 10**9"),
    (
        "simplex-primal-ratio-unclipped",
        LP,
        "np.maximum(self.tab[rows, -1], 0.0) / col[rows]",
        "self.tab[rows, -1] / col[rows]",
    ),
    (
        "simplex-dual-ratio-unclipped",
        LP,
        "np.maximum(self.z[cols], 0.0) / -row[cols]",
        "self.z[cols] / -row[cols]",
    ),
    # the tiny SDPs' weak-duality bound, its trace bound and the
    # non-monotonicity verdict
    (
        "sdp-lower-bound-unclipped",
        SDP,
        "    y[first:] = np.maximum(y[first:], 0.0)\n",
        "",
    ),
    (
        "sdp-lower-bound-no-tau",
        SDP,
        "float(b @ y) - (tau * neg if neg > 0.0 else 0.0)",
        "float(b @ y)",
    ),
    ("sdp-lower-bound-half-tau", SDP, "(tau * neg if", "(0.5 * tau * neg if"),
    (
        "sdp-trace-bound-no-all-ones",
        SDP,
        "[math.inf] + [rhs for a, rhs in p.constraints if (a == 1.0).all()]",
        "[math.inf]",
    ),
    (
        "sdp-lift-ignores-constraints",
        SDP,
        "feasible &= values(a) == b",
        "feasible &= values(a) == values(a)",
    ),
    (
        "sdp-step-length-wrong-factor",
        SDP,
        "STEP_FRACTION * _max_step(lx_inv, dx, sl, dsl)",
        "STEP_FRACTION * _max_step(ls_inv, dx, sl, dsl)",
    ),
    (
        "sdp-conclusive-unverified",
        SDP,
        "conclusive = verified and (",
        "conclusive = (",
    ),
    # the symmetry reduction: the generator check, the declared generators
    # and the orbit rows
    (
        "sdp-symmetry-not-a-permutation",
        SDP,
        "                or not np.array_equal(np.sort(perm), np.arange(m))\n",
        "",
    ),
    (
        "sdp-symmetry-objective-unchecked",
        SDP,
        "if not np.array_equal(self.objective[moved], self.objective):",
        "if False:",
    ),
    (
        "sdp-symmetry-constraints-unchecked",
        SDP,
        "if Counter((b, a[moved].tobytes()) for a, b in checked) != multiset:",
        "if False:",
    ),
    (
        "sdp-no-reversal",
        SDP,
        "symmetries = [np.add.outer(ar * n, ar[::-1]).reshape(-1)]",
        "symmetries = []",
    ),
    (
        "sdp-orbits-one-round",
        SDP,
        "if np.array_equal(spread, labels):",
        "if True:",
    ),
    (
        "sdp-orbit-row-drops-member",
        SDP,
        "    rows[k, i * m + j] += 0.5\n    rows[k, j * m + i] += 0.5\n",
        "    rows[k[1:], i[1:] * m + j[1:]] += 0.5\n    rows[k[1:], j[1:] * m + i[1:]] += 0.5\n",
    ),
    (
        "sdp-fixed-and-slack-orbits-merged",
        SDP,
        "    fixed_rows = _orbit_rows(m, np.triu(fixed), orbits)\n"
        "    slack_rows = _orbit_rows(m, np.triu(~fixed, 1), orbits)\n",
        "    fixed_rows = np.zeros((0, m * m))\n"
        "    slack_rows = _orbit_rows(m, np.triu(np.ones_like(fixed), 1), orbits)\n",
    ),
]


def _copy_tree(dest: Path) -> None:
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(
                source, dest / name, ignore=shutil.ignore_patterns("__pycache__")
            )
        else:
            shutil.copy2(source, dest / name)


def _run_tests(tree: Path) -> bool:
    # one BLAS thread per child: the children already fill the CPUs
    env = dict(
        os.environ,
        PYTHONPATH=str(tree / "src"),
        PYTHONDONTWRITEBYTECODE="1",
        OPENBLAS_NUM_THREADS="1",
    )
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *TESTS],
        cwd=tree,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    return done.returncode == 0


def _apply(tree: Path, path: str, text: str, replacement: str) -> bool:
    target = tree / path
    source = target.read_text(encoding="utf-8")
    if source.count(text) != 1:
        return False
    target.write_text(source.replace(text, replacement), encoding="utf-8")
    return True


def _try(tmp: Path, mutant: tuple[str, str, str, str]) -> tuple[str | None, float]:
    """Test one mutant in its own copy: its verdict, None when the edit does
    not apply, and the seconds it took."""
    name, path, text, replacement = mutant
    tree = tmp / name
    _copy_tree(tree)
    start = time.perf_counter()
    if not _apply(tree, path, text, replacement):
        return None, 0.0
    verdict = "SURVIVED" if _run_tests(tree) else "killed"
    shutil.rmtree(tree)
    return verdict, time.perf_counter() - start


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workdir", default=None, help="parent of the temporary copies")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(dir=args.workdir) as tmp:
        base = Path(tmp) / "unmutated"
        _copy_tree(base)
        if not _run_tests(base):
            print("the unmutated copy fails its tests; no mutant was run")
            return 2
        survivors, stale = [], []
        workers = len(os.sched_getaffinity(0))
        with ThreadPoolExecutor(workers) as pool:
            results = pool.map(lambda mutant: _try(Path(tmp), mutant), MUTANTS)
            for (name, path, _, _), (verdict, seconds) in zip(MUTANTS, results):
                if verdict is None:
                    stale.append(name)
                    print(f"{name:40s} STALE (text not found exactly once in {path})")
                    continue
                print(f"{name:40s} {verdict:8s} {seconds:6.1f} s", flush=True)
                if verdict == "SURVIVED":
                    survivors.append(name)

    print(f"survivors ({len(survivors)} of {len(MUTANTS) - len(stale)}):")
    for name in survivors:
        print(f"  {name}")
    return 2 if stale else 0


if __name__ == "__main__":
    sys.exit(main())
