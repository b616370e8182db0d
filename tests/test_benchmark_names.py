"""The traced benchmark's function names still resolve in the package, and
a traced run still enters them.

``perfbench/tracing.py`` wraps the functions named in ``TRACED`` and
``perfbench/workloads.py`` lists the spans each workload must show.  A
refactor that renames or drops one of those functions, or moves the work
out of it, breaks a traced run; these tests catch it in the regular suite.
The perfbench files are only imported, never written.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture()
def perfbench(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as is
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing"), importlib.import_module("workloads")


def test_traced_names_resolve_in_the_package(perfbench):
    tracing, _ = perfbench
    for module_name, path, _ in tracing.TRACED:
        target = importlib.import_module(f"{tracing.PACKAGE}.{module_name}")
        for part in path.split("."):
            target = getattr(target, part)
        assert callable(target), f"{module_name}.{path}"


def test_expected_spans_are_traced(perfbench):
    tracing, workloads = perfbench
    traced = {f"{module_name}.{path}" for module_name, path, _ in tracing.TRACED}
    assert set(workloads.EXPECTED_SPANS) == set(workloads.WORKLOADS)
    for workload, spans in workloads.EXPECTED_SPANS.items():
        assert set(spans) <= traced, (workload, set(spans) - traced)


# Runs every workload's seed-0 items under an installed Tracer in a fresh
# process (the tracer patches the package for good), without the slow
# n = 44 dense certify items.
_TRACED_RUN = """
import json, sys
sys.path.insert(0, sys.argv[1])
import tracing, worker, workloads
from simplicial_gap import cli

tracer = tracing.Tracer()
tracer.install()
seen = {}
for workload in workloads.WORKLOADS:
    start = len(tracer.spans)
    for argv in workloads.draw(workload, 0):
        if argv[0] == "certify" and "44" in argv:
            continue
        worker.run_item(cli, argv)
    seen[workload] = sorted({span[0] for span in tracer.spans[start:]})
print(json.dumps({"seen": seen, "metrics": len(tracer.metrics())}))
"""


def test_traced_run_enters_every_expected_span(perfbench):
    _, workloads = perfbench
    src = str(PERFBENCH.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-B", "-c", _TRACED_RUN, str(PERFBENCH)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=True,
    )
    report = json.loads(done.stdout.splitlines()[-1])
    for workload, spans in workloads.EXPECTED_SPANS.items():
        missing = set(spans) - set(report["seen"][workload])
        assert not missing, (workload, missing)
    assert report["metrics"] > 0
