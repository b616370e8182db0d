"""One workload in one process: run its items through the CLI and time them.

Started by run.py with the environment pinned (PYTHONPATH=src, BLAS and
OpenMP threads capped).  Untraced, it repeats full passes over the items
until the next pass would overrun ``--seconds`` (at least one pass).
Traced, it runs an untraced warm-up pass, one untraced pass and one traced
pass; the difference of the last two is the tracing overhead.  Prints one
JSON object as its last stdout line.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import resource
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import workloads


def run_item(cli, argv: list[str]) -> dict:
    """Call ``cli.main`` once; an exception is recorded, never propagated."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # the item fails; the workload carries on
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    text = out.getvalue()
    return {
        "argv": argv,
        "exit": code,
        "error": error,
        "stderr": err.getvalue()[-500:],
        "seconds": seconds,
        "text": text,
    }


def run_pass(cli, items, references, on_item=None) -> dict:
    start = time.perf_counter()
    results = []
    for idx, argv in enumerate(items):
        if on_item is not None:
            on_item(idx)
        results.append(run_item(cli, argv))
    wall = time.perf_counter() - start
    # checks run after the clock stops: they are the benchmark's work
    for res in results:
        text = res.pop("text")
        ref = references.get(workloads.item_key(res["argv"]))
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest() if res["error"] is None else None
        res["sha256"] = digest
        res["digest_changed"] = ref is None or digest != ref.get("sha256")
        if res["error"] is not None:
            res["problems"] = [res["error"]]
            res["wrong_output"] = False
        else:
            res["problems"] = workloads.check(res["argv"], res["exit"], text, ref)
            res["wrong_output"] = bool(res["problems"])
        res["ok"] = not res["problems"]
    return {"wall_s": wall, "items": results}


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spans", default=None, help="where a traced run writes its spans")
    args = parser.parse_args()

    start = time.perf_counter()
    from simplicial_gap import cli

    import_s = time.perf_counter() - start
    items = workloads.draw(args.workload, args.seed)
    references = workloads.load_references()

    result = {"import_s": import_s, "env": environment(), "items": items}
    if args.trace:
        from tracing import Tracer

        run_pass(cli, items, references)  # warm-up: the first pass runs cold
        untraced = run_pass(cli, items, references)
        tracer = Tracer()
        tracer.install()

        def mark(idx: int) -> None:
            tracer.item = idx

        traced = run_pass(cli, items, references, on_item=mark)
        result["passes"] = [traced]
        result["untraced_wall_s"] = untraced["wall_s"]
        result["layers"] = tracer.metrics()
        result["span_names"] = sorted(tracer.names_seen())
        result["span_count"] = len(tracer.spans)
        if args.spans:
            tracer.write_spans(args.spans)
    else:
        passes = []
        begin = time.perf_counter()
        while True:
            passes.append(run_pass(cli, items, references))
            elapsed = time.perf_counter() - begin
            longest = max(p["wall_s"] for p in passes)
            if elapsed + longest > args.seconds:
                break
        result["passes"] = passes
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
