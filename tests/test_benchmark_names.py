"""The traced benchmark's function names still resolve in the package.

``perfbench/tracing.py`` wraps the functions named in ``TRACED`` and
``perfbench/workloads.py`` lists the spans each workload must show.  A
refactor that renames or drops one of those functions breaks a traced run;
this test catches it in the regular suite.  Both files are only imported.
"""

from __future__ import annotations

import importlib
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
