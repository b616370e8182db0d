"""The benchmark's output checks pass on every item they can draw.

``perfbench/workloads.py`` lists every argv a seed can draw and checks each
output against ``perfbench/references.json``.  Running those checks here
catches an output change in the regular suite instead of in a traced
benchmark run.  The file is only imported, and no bytecode is written next
to it.  Two items are left to the benchmark because they take seconds
each: the two n = 44 dense certificates.
"""

from __future__ import annotations

import importlib.util
import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from simplicial_gap.cli import main
from simplicial_gap.matrix_core import DENSE_CAP_ENV_VAR

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave perfbench/ as is
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


workloads = _load_workloads()

SLOW_ITEMS = {
    "certify --g 2 --n 44 --dense",
    "certify --g 4 --n 44 --dense",
}
# the total-sum check uses an absolute 1e-9 tolerance on a sum of size n^2,
# and roundoff at this n exceeds it (ROADMAP, known defects); once that is
# fixed, this mark and the item's reference change together
TOTAL_SUM_DEFECT = "gap --z 3 --n 3054"


def _items():
    for argv in workloads.all_items():
        key = workloads.item_key(argv)
        if key in SLOW_ITEMS:
            continue
        marks = ()
        if key == TOTAL_SUM_DEFECT:
            marks = pytest.mark.xfail(
                strict=True,
                raises=ArithmeticError,
                reason="total-sum tolerance defect: the certificate fails its check",
            )
        yield pytest.param(argv, id=key, marks=marks)


def test_slow_items_are_benchmark_items():
    keys = {workloads.item_key(argv) for argv in workloads.all_items()}
    assert SLOW_ITEMS | {TOTAL_SUM_DEFECT} <= keys


@pytest.mark.parametrize("argv", _items())
def test_benchmark_item_passes_its_check(argv, monkeypatch):
    monkeypatch.delenv(DENSE_CAP_ENV_VAR, raising=False)
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(list(argv))
    ref = workloads.load_references().get(workloads.item_key(argv))
    assert workloads.check(argv, code, out.getvalue(), ref) == []
