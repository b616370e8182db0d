"""Compare the CLI outputs of a git revision with those of the working tree.

Extracts ``src`` of the revision with ``git archive`` into a temporary
directory, then runs every argv that ``perfbench/workloads.all_items()``
lists, and the fixed ``EXTRA`` argvs, once in JSON and once in CSV
(``solve-tiny`` in JSON only), through that tree and through the working
tree's ``src``.  Each run is a fresh process with OPENBLAS_NUM_THREADS=1.
Every argv whose exit code or stdout bytes differ is printed, then the
count.  Run from the repository root:

    python3 tools/same_outputs.py REV

The exit code is 0 when no argv differs, else 1.  Standard library only.
Bytecode writing is off here and in every child, and the children run in
the temporary directory, so the working tree is never written.
"""

from __future__ import annotations

import argparse
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# argvs the benchmark does not run: the grids of tests/test_golden.py, and a
# structured certify at n where n * (1/n) != 1 in floating point
EXTRA = (
    ["certify", "--g", "2", "--n", "8,16", "--dense"],
    ["certify", "--g", "2", "--n", "46,64"],
    ["gap", "--z", "1", "--n", "8,16,32"],
    ["gap", "--z", "3", "--n", "36,48"],
    ["baseline", "--g", "3", "--per-group", "4"],
    ["baseline", "--g", "4", "--per-group", "5"],
    ["identities", "--g", "6", "--n", "12,24"],
    ["solve-tiny", "--max-iters", "50"],
    ["certify", "--g", "2", "--n", "98,196,206"],
)


def _argvs() -> list[list[str]]:
    sys.dont_write_bytecode = True  # leave perfbench/ as is
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    out = []
    for argv in [*workloads.all_items(), *EXTRA]:
        out.append(argv)
        if argv[0] != "solve-tiny":
            out.append([*argv, "--format", "csv"])
    return out


def _extract_src(rev: str, dest: Path) -> None:
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
        check=True,
        capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def _run(src: Path, argv: list[str], cwd: Path) -> tuple[int, bytes]:
    env = dict(
        os.environ,
        PYTHONPATH=str(src),
        PYTHONDONTWRITEBYTECODE="1",
        OPENBLAS_NUM_THREADS="1",
    )
    done = subprocess.run(
        [sys.executable, "-m", "simplicial_gap.cli", *argv],
        cwd=cwd,
        env=env,
        capture_output=True,
    )
    return done.returncode, done.stdout


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to compare the working tree with")
    args = parser.parse_args(argv)

    argvs = _argvs()
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        _extract_src(args.rev, tmp / "rev")
        for item in argvs:
            then = _run(tmp / "rev" / "src", item, tmp)
            now = _run(ROOT / "src", item, tmp)
            if then != now:
                differ += 1
                print(
                    f"differs: {' '.join(item)} "
                    f"(exit {then[0]} -> {now[0]}, "
                    f"{len(then[1])} -> {len(now[1])} stdout bytes)",
                    flush=True,
                )
    print(f"{differ} of {len(argvs)} argvs differ from {args.rev}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
