"""Mutation check of the verifiers, the dense oracle, the reduced bound, the
exact baselines and the tiny-SDP solver.

Each mutant below is one textual edit of the package: a check dropped
from the verdict of either verifier in ``certificates``, a wrong residual
formula in one of its two residual readers (among them a structured
smallest entry that drops a NaN), a wrong kind lookup, a block that
starts one row late or a dropped partial last block in
``CertificateY.densify``, a wrong offset table in the row pass's scatter
of the diagonal-block sum, a wrong contraction, projection, block
placement or mass sum in the block pass behind ``certificates.dense_view``
(among them an equal-slab mass without its factor n, taken without its
equality test or taken for a whole block that mixes both branches, a
dropped general-branch mass, a largest entry read from the slab minima,
a residual written into the row it reads, and a wrong -J_n/n shift in
the stack it returns), a wrong block slice or count of paired
frequencies in ``dense_view`` itself, a Weyl check that lets a NaN mass
through, a wrong count, factor or fixing in ``reduced_sdp``'s bound,
a skipped verification in ``gap_table``, a wrong offset in
``circulant.first_row``, a wrong seed, step or return leg in
``instances.held_karp_cycle``, a dropped merge, key reset or side, a
one-direction read or an unlabelled zero cut in
``subtour_lp.min_cut``, a lost Bland fallback or an unclipped ratio test in
the subtour LP's simplex, a wrong weak-duality bound, trace bound, lift
bound or step length in ``sdp_numeric``, a skipped symmetry check, a lost
generator, a wrong orbit or orbit row in its symmetry reduction, a skipped
check of the exposing matrix, a face basis short of a column, rows or an
objective left unmapped on the face, dependent face rows kept or a
half-done orthogonalisation in the row pick, or a non-monotonicity
verdict that skips the certificate check.  The script
first copies ``src``, ``tests``, ``perfbench`` (the subtour-LP tests read
its layouts) and ``pyproject.toml`` into a snapshot in a temporary
directory.  The unmutated copy and every mutant's copy come from that
snapshot, so one run tests one state of the tree even if the working tree
changes while it runs.  Each mutant gets a fresh copy, the edit is applied
there (the working tree is never written), and the certificate,
trace-pattern, CLI, reduced-SDP, instance, subtour-LP and SDP-solver tests
run on the copy.
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
RED = "src/simplicial_gap/reduced_sdp.py"
CIRC = "src/simplicial_gap/circulant.py"
INST = "src/simplicial_gap/instances.py"
LP = "src/simplicial_gap/subtour_lp.py"
SDP = "src/simplicial_gap/sdp_numeric.py"

# (name, file, text, replacement): the text must occur exactly once
MUTANTS = [
    # verify_povh_rendl's verdict, one check at a time
    ("povh-passed-row", CERT, "(r.row_assign, r.col_assign, ", "(r.col_assign, "),
    (
        "povh-passed-col",
        CERT,
        "r.row_assign, r.col_assign, r.gangster",
        "r.row_assign, r.gangster",
    ),
    (
        "povh-passed-gangster",
        CERT,
        "r.col_assign, r.gangster, r.total_sum)",
        "r.col_assign, r.total_sum)",
    ),
    ("povh-passed-total", CERT, "r.gangster, r.total_sum)", "r.gangster)"),
    (
        "povh-passed-min-entry",
        CERT,
        "passed = r.min_entry >= -NN_TOL and ",
        "passed = ",
    ),
    (
        "povh-passed-closed-psd",
        CERT,
        "least_eigs = (min_eig_closed, min_eig_numeric)",
        "least_eigs = (min_eig_numeric,)",
    ),
    (
        "povh-passed-numeric-psd",
        CERT,
        "least_eigs = (min_eig_closed, min_eig_numeric)",
        "least_eigs = (min_eig_closed,)",
    ),
    # verify_anstreicher's verdict
    (
        "anst-passed-block-sum",
        CERT,
        "(r.block_sum, r.trace_pattern, r.f)",
        "(r.trace_pattern, r.f)",
    ),
    (
        "anst-passed-trace-pattern",
        CERT,
        "(r.block_sum, r.trace_pattern, r.f)",
        "(r.block_sum, r.f)",
    ),
    (
        "anst-passed-f",
        CERT,
        "(r.block_sum, r.trace_pattern, r.f)",
        "(r.block_sum, r.trace_pattern)",
    ),
    ("anst-passed-closed-psd", CERT, "(min_shifted, min_numeric)", "(min_numeric,)"),
    ("anst-passed-numeric-psd", CERT, "(min_shifted, min_numeric)", "(min_shifted,)"),
    # residual formulas
    (
        "povh-dense-row-reads-traces",
        CERT,
        "np.diagonal(block_sum) - 1.0",
        "np.diagonal(traces) - 1.0",
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
        "block_sum[off].sum() + traces[off].sum()",
        "block_sum[off].sum()",
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
        "y.b.min() / (2.0 * n)",
        "y.a.min() / (2.0 * n)",
    ),
    # Python's min drops a NaN that np.min keeps
    ("structured-min-entry-drops-nan", CERT, "np.min([y.a.min()", "min([y.a.min()"),
    (
        "anst-dense-f-doubles-block-sum",
        CERT,
        "block_sum.sum() + traces.sum()",
        "block_sum.sum() + block_sum.sum()",
    ),
    (
        "anst-dense-block-sum-all-blocks",
        CERT,
        "own_blocks += w[r, :, u + r, :]",
        "own_blocks += w[r].sum(axis=1)",
    ),
    (
        "anst-dense-trace-pattern-block-sum",
        CERT,
        "trace_pattern=float(np.abs(traces - eye).max())",
        "trace_pattern=float(np.abs(block_sum - eye).max())",
    ),
    # densify's blocks of vertex rows: every row reads the kinds of vertex
    # 0, every block starts one row late, the partial last block is dropped
    (
        "densify-every-row-vertex-0",
        CERT,
        "row[kind[u : u + k]]",
        "row[kind[np.zeros(len(kind[u : u + k]), dtype=int)]]",
    ),
    ("densify-block-starts-one-row-late", CERT, "range(0, n, k)", "range(1, n, k)"),
    (
        "densify-drops-partial-last-block",
        CERT,
        "range(0, n, k)",
        "range(0, n - n % k, k)",
    ),
    # the one pass over Y's blocks of vertex rows and its projection
    (
        "pass-drops-discarded-mass",
        CERT,
        "        for mass in _row_mass(w, lo, hi, h):\n            off += mass\n",
        "",
    ),
    # each row's mass: n |lo - h|^2 where every slab equals lo, else w - h,
    # tested row by row
    (
        "pass-equal-slab-without-n",
        CERT,
        "n * float(np.vdot(slab[r], slab[r]))",
        "float(np.vdot(slab[r], slab[r]))",
    ),
    (
        "pass-equal-slab-untested",
        CERT,
        "equal = (lo == hi).all(axis=(1, 2))",
        "equal = np.ones(len(w), dtype=bool)",
    ),
    (
        "pass-mixed-block-takes-equal-slab",
        CERT,
        "equal = (lo == hi).all(axis=(1, 2))",
        "equal = np.full(len(w), (lo == hi).all(axis=(1, 2)).any())",
    ),
    (
        "pass-general-mass-dropped",
        CERT,
        "            res = w[r] - h[r]\n            masses.append(float(np.vdot(res, res)))\n",
        "            masses.append(0.0)\n",
    ),
    # the general branch writes its residual into the row it reads
    (
        "pass-residual-in-place",
        CERT,
        "res = w[r] - h[r]",
        "res = np.subtract(w[r], h[r], out=w[r])",
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
        "for row_sum in d.sum(axis=(1, 2)):",
        "for row_sum in d[:, :, 0].sum(axis=1):",
    ),
    ("pass-h-without-mirror", CERT, "(d + d[:, :, mirror]) / (2.0 * n)", "d / n"),
    (
        "pass-anti-without-pair-weight",
        CERT,
        "off + pair @ anti.sum(axis=(1, 2))",
        "off + anti.sum()",
    ),
    (
        "pass-c1-one-offset",
        CERT,
        "c1_inner[rows] = d[:, :, 1] + d[:, :, n - 1]",
        "c1_inner[rows] = 2.0 * d[:, :, 1]",
    ),
    (
        "pass-traces-offset-1",
        CERT,
        "block_traces[rows] = d[:, :, 0]",
        "block_traces[rows] = d[:, :, 1]",
    ),
    (
        "pass-min-max-one-row",
        CERT,
        "low, high = np.minimum(low, lo.min()), np.maximum(high, hi.max())",
        "low, high = lo.min(), hi.max()",
    ),
    (
        "pass-max-from-lo",
        CERT,
        "np.maximum(high, hi.max())",
        "np.maximum(high, lo.max())",
    ),
    (
        "pass-diagonal-block-wrong-column",
        CERT,
        "own_blocks += w[r, :, u + r, :]",
        "own_blocks += w[r, :, (u + r + 1) % n, :]",
    ),
    # the block's rows: every row reads the own block of the block's first
    # row, and the next block is placed one row late
    (
        "pass-own-block-of-the-first-row",
        CERT,
        "own_blocks += w[r, :, u + r, :]",
        "own_blocks += w[r, :, u, :]",
    ),
    ("pass-next-block-one-row-late", CERT, "u = rows.stop", "u = rows.stop + 1"),
    # the Weyl check in dense_view lets a NaN discarded mass through
    (
        "dense-weyl-nan-passes",
        CERT,
        "if not discarded <= EIG_TOL * scale:",
        "if discarded > EIG_TOL * scale:",
    ),
    # the -J_n/n shift in the row pass's stack and the block slicing in
    # dense_view
    ("shift-dropped", CERT, "stack[0] - 1.0 / n", "stack[0]"),
    ("shift-scale", CERT, "stack[0] - 1.0 / n", "stack[0] - 1.0 / (n * n)"),
    ("shift-wrong-block", CERT, "stack[0] - 1.0 / n", "stack[1] - 1.0 / n"),
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
        CERT,
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
    # the zero cut of a disconnected support: labelled after the contraction,
    # which reads an edge in either direction
    ("sw-zero-cut-unlabelled", LP, "if best_val == 0.0:", "if False:"),
    (
        "sw-reads-one-direction",
        LP,
        "np.maximum(np.maximum(w, w.T), 0.0)",
        "np.maximum(w, 0.0)",
    ),
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
    # the face: the checks of the exposing matrix, its null-space basis and
    # the rows mapped onto it
    (
        "sdp-face-fit-unchecked",
        SDP,
        "    if misfit > TRACE_FIT_TOL:\n",
        "    if False:\n",
    ),
    (
        "sdp-face-rhs-unchecked",
        SDP,
        "    if float(coef @ b) > TRACE_FIT_TOL:\n",
        "    if False:\n",
    ),
    (
        "sdp-face-psd-unchecked",
        SDP,
        "    if vals[0] < -tol:\n",
        "    if False:\n",
    ),
    ("sdp-face-drops-a-column", SDP, "return vecs[:, vals <= tol]", "return vecs[:, vals <= tol][:, 1:]"),
    (
        "sdp-face-keeps-dependent-rows",
        SDP,
        "keep = _independent_rows(mapped[:first])",
        "keep = list(range(first))",
    ),
    (
        "sdp-face-rows-unmapped",
        SDP,
        "mapped = face.T @ rows.reshape(-1, m, m) @ face\n",
        "mapped = rows.reshape(-1, m, m)[:, :k, :k]\n",
    ),
    (
        "sdp-face-objective-unmapped",
        SDP,
        "c = v.T @ p.objective @ v\n",
        "c = p.objective[:k, :k]\n",
    ),
    (
        "sdp-independent-rows-first-basis-row",
        SDP,
        "        for _ in range(2):\n            row = row - (basis @ row) @ basis\n",
        "        row = row - (basis @ row)[:1] @ basis[:1]\n",
    ),
]


def _snapshot(dest: Path) -> None:
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


def _try(
    snapshot: Path, mutant: tuple[str, str, str, str]
) -> tuple[str | None, float]:
    """Test one mutant in its own copy of the snapshot: its verdict, None
    when the edit does not apply, and the seconds it took."""
    name, path, text, replacement = mutant
    tree = snapshot.parent / name
    shutil.copytree(snapshot, tree)
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
        snapshot = Path(tmp) / "snapshot"
        _snapshot(snapshot)
        base = Path(tmp) / "unmutated"
        shutil.copytree(snapshot, base)
        if not _run_tests(base):
            print("the unmutated copy fails its tests; no mutant was run")
            return 2
        survivors, stale = [], []
        workers = len(os.sched_getaffinity(0))
        with ThreadPoolExecutor(workers) as pool:
            results = pool.map(lambda mutant: _try(snapshot, mutant), MUTANTS)
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
