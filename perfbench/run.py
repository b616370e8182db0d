"""Benchmark of the simplicial-gap CLI, end to end and per module.

Run from the repository root:

    python3 perfbench/run.py --workload structured-large --seed 0 --seconds 30 --trace 0

Workloads (see workloads.py for the items and why each was chosen):
structured-large, dense-oracle, baselines, admm-tiny.  The default seed is
0; it only picks among inputs of comparable cost.

With ``--trace 0`` the last stdout line holds the end-to-end metrics:

* wall_s      -- median wall time of one full pass over the items, timed in
                 a fresh worker process after import, tracing off
* setup_s     -- median time for a fresh process to import the package and
                 build the CLI parser (one discarded warm-up, then 9 runs)
* peak_rss_mb -- peak resident memory of the worker process
* ok_ratio    -- items that passed their output check over items attempted,
                 i.e. 1 - fail_ratio (a share that can read 0 cannot be
                 bounded as a relative regression, its complement can)

With ``--trace 1`` it holds the per-layer metrics of one traced pass
(tracing.py), the tracing overhead (traced minus untraced pass wall time)
and the failure share; the spans go to perfbench/results/.  A traced run
fails if a span expected on the workload never appears.

An item fails if it raises, exits non-zero or fails its output check
against perfbench/references.json.  ``correct`` is false only when an item
returned a wrong output; an item that raised counts in ``failed`` alone.
Earlier stdout lines are a human-readable report; the full record (with
nproc, Python, numpy, BLAS, source revision and seed) is written to
perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracing import unit_of  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_REPEATS = 9
DEADLINE_S = 170.0
SETUP_CODE = "import simplicial_gap.cli as cli; cli.build_parser()"


def fail(message: str, code: int = 1) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def child_env() -> tuple[dict, int]:
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc)
    return env, nproc


def measure_setup(env: dict) -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        # no timeout: with one, the wait polls in steps of up to 50 ms
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, check=True)
        times.append(time.perf_counter() - start)
    return times[1:]


def source_revision() -> dict:
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        rev = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {"git_rev": rev, "src_sha256": digest.hexdigest()}


def quartiles(values: list[float]) -> dict:
    n = len(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if n > 1 else (values[0],) * 3
    # highest percentile with at least ten samples beyond it (report only)
    tail = None
    if n >= 11:
        tail = {"percentile": 100.0 * (n - 10) / n, "value": sorted(values)[n - 11]}
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": n, "tail": tail}


def main() -> int:
    parser = argparse.ArgumentParser(description="simplicial-gap benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    began = time.perf_counter()

    if not (SRC / "simplicial_gap" / "__init__.py").is_file():
        return fail(f"no package source under {SRC}; run from the repository root", 2)
    env, nproc = child_env()
    RESULTS.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    setup_times = [] if args.trace else measure_setup(env)
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.trace:
        cmd += ["--spans", str(RESULTS / f"spans-{args.workload}-seed{args.seed}.jsonl")]
    try:
        proc = subprocess.run(
            cmd,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, DEADLINE_S - (time.perf_counter() - began)),
        )
    except subprocess.TimeoutExpired:
        return fail("worker overran the deadline and was stopped")
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr[-4000:])
        return fail(f"worker exited with code {proc.returncode}")
    worker = json.loads(proc.stdout.strip().splitlines()[-1])

    items = [res for p in worker["passes"] for res in p["items"]]
    attempted = len(items)
    failed = sum(1 for res in items if not res["ok"])
    correct = not any(res["wrong_output"] for res in items)
    walls = [p["wall_s"] for p in worker["passes"]]

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "python": platform.python_version(),
        **worker["env"],
        **source_revision(),
        "draw": [" ".join(argv) for argv in worker["items"]],
        "import_s": worker["import_s"],
        "wall_s": quartiles(walls),
        "setup_s": quartiles(setup_times) if setup_times else None,
        "peak_rss_mb": worker["peak_rss_mb"],
        "attempted": attempted,
        "failed": failed,
        "failures": sorted({f"{' '.join(r['argv'])}: {r['problems'][0]}" for r in items if not r["ok"]}),
        "passes": worker["passes"],
    }

    if args.trace:
        missing = sorted(set(workloads.EXPECTED_SPANS[args.workload]) - set(worker["span_names"]))
        if missing:
            return fail(f"traced run never entered {', '.join(missing)}")
        layers = dict(worker["layers"])
        layers["cli.artifact_digest_changes"] = sum(1 for r in items if r["digest_changed"])
        layers["cli.main.fail_ratio"] = failed / attempted
        layers["trace.wall_s"] = walls[0]
        layers["trace.overhead_s"] = walls[0] - worker["untraced_wall_s"]
        layers["trace.spans"] = worker["span_count"]
        record["layers"] = layers
        metrics = {
            name: {"value": value, "unit": unit_of(name)} for name, value in sorted(layers.items())
        }
    else:
        metrics = {
            "wall_s": {"value": record["wall_s"]["median"], "unit": "s"},
            "setup_s": {"value": record["setup_s"]["median"], "unit": "s"},
            "peak_rss_mb": {"value": worker["peak_rss_mb"], "unit": "MB"},
            "ok_ratio": {"value": 1.0 - failed / attempted, "unit": "1"},
        }

    with open(RESULTS / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(f"# {args.workload} seed={args.seed} nproc={nproc} python={record['python']} "
          f"numpy={record['numpy']} blas={record['blas']} git={record['git_rev']} "
          f"src={record['src_sha256'][:12]}")
    for line in record["draw"]:
        print(f"#   item: {line}")
    w = record["wall_s"]
    print(f"# wall_s median={w['median']:.4f} q1={w['q1']:.4f} q3={w['q3']:.4f} "
          f"n={w['n']} tail={w['tail']}")
    for line in record["failures"]:
        print(f"# failed: {line}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
