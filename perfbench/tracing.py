"""Spans around the package's public functions, recorded from outside it.

``Tracer.install`` wraps each function in ``TRACED`` in every
``simplicial_gap`` namespace that binds it (``cli`` and ``__init__`` import
with ``from .x import y``, so patching the defining module alone misses
their calls), plus ``CertificateY.densify`` on the class.  Spans (name,
start, end, parent, item) stay in memory until ``write_spans``; ``metrics``
turns them into the per-layer numbers.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time
from collections import defaultdict


def _n_of_profile(args, kwargs, result):
    return kwargs["n"] if "n" in kwargs else args[1]


def _n_of_reduction(args, kwargs, result):
    inst = kwargs["inst"] if "inst" in kwargs else args[0]
    return inst.n_total - 1


def _dim_of_first(args, kwargs, result):
    return args[0].shape[0]


def _shape_of_lp(args, kwargs, result):
    return list(args[0].shape)


def _cuts_added(args, kwargs, result):
    return None if result is None else result.cuts_added


def _solve_outcome(args, kwargs, result):
    return None if result is None else [result.iterations, result.converged]


def _text_bytes(args, kwargs, result):
    return None if result is None else len(result.encode("utf-8"))


# (module, attribute path, what to record from the call besides its times)
TRACED = [
    ("circulant", "cosine_profile", _n_of_profile),
    ("circulant", "identity_suite", None),
    ("certificates", "assemble", None),
    ("certificates", "closed_form_spectrum", None),
    ("certificates", "CertificateY.densify", None),
    ("certificates", "verify_povh_rendl", None),
    ("certificates", "objective_dense_trace", None),
    ("matrix_core", "sym_eigs", _dim_of_first),
    ("matrix_core", "kron", None),
    ("anstreicher_sdp", "verify_anstreicher", None),
    ("anstreicher_sdp", "shifted_spectrum", None),
    ("reduced_sdp", "build_reduction", _n_of_reduction),
    ("reduced_sdp", "objective_reduced", None),
    ("reduced_sdp", "gap_table", None),
    ("instances", "held_karp_cycle", _dim_of_first),
    ("subtour_lp", "simplex_solve", _shape_of_lp),
    ("subtour_lp", "min_cut", None),
    ("subtour_lp", "solve_subtour", _cuts_added),
    ("sdp_numeric", "solve", _solve_outcome),
    ("sdp_numeric", "project_psd", None),
    ("sdp_numeric", "encode_reduced", None),
    ("serialize", "json_canonical", _text_bytes),
    ("serialize", "csv_lines", _text_bytes),
    ("cli", "main", None),
]
PACKAGE = "simplicial_gap"


class Tracer:
    def __init__(self) -> None:
        # each span: [name, start, end, parent index or -1, item, info]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.item = -1

    def _wrap(self, name: str, fn, info_of):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item, None]
            stack.append(len(spans))
            spans.append(span)
            result = None
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[2] = clock()
                stack.pop()
                if info_of is not None:
                    span[5] = info_of(args, kwargs, result)

        return traced

    def install(self) -> None:
        """Wrap every traced function wherever the package binds it."""
        package_modules = [
            mod
            for mod_name, mod in list(sys.modules.items())
            if mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")
        ]
        for mod_name, path, info_of in TRACED:
            module = importlib.import_module(f"{PACKAGE}.{mod_name}")
            name = f"{mod_name}.{path}"
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self._wrap(name, cls.__dict__[meth], info_of))
                continue
            original = getattr(module, path)
            wrapped = self._wrap(name, original, info_of)
            for mod in package_modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "item", "info"]}))
            fh.write("\n")
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")

    def names_seen(self) -> set[str]:
        return {span[0] for span in self.spans}

    def metrics(self) -> dict[str, float]:
        """Per-layer numbers: calls and self time for every traced function,
        plus counts of the work each layer did and fitted size exponents."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        per_call: dict[str, list[tuple[float, object]]] = defaultdict(list)
        for idx, span in enumerate(self.spans):
            name = span[0]
            own = (span[2] - span[1]) - child_time[idx]
            calls[name] += 1
            self_s[name] += own
            if span[5] is not None:
                per_call[name].append((own, span[5]))

        out: dict[str, float] = {}
        for mod_name, path, _ in TRACED:
            name = f"{mod_name}.{path}"
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]

        out["circulant.cosine_profile.n_exponent"] = _fit_exponent(
            per_call["circulant.cosine_profile"]
        )
        out["reduced_sdp.build_reduction.n_exponent"] = _fit_exponent(
            per_call["reduced_sdp.build_reduction"]
        )
        dims = [info for _, info in per_call["matrix_core.sym_eigs"]]
        out["matrix_core.sym_eigs.work_n3"] = float(sum(d**3 for d in dims))
        certificates = calls["certificates.assemble"]
        out["matrix_core.sym_eigs.calls_per_certificate"] = (
            calls["matrix_core.sym_eigs"] / certificates if certificates else 0.0
        )
        out["instances.held_karp_cycle.states"] = float(
            sum(2 ** (n - 1) * (n - 1) for _, n in per_call["instances.held_karp_cycle"])
        )
        shapes = [info for _, info in per_call["subtour_lp.simplex_solve"]]
        out["subtour_lp.simplex_solve.rows_max"] = max((m for m, _ in shapes), default=0)
        # the tableau holds the constraint matrix, one artificial column per
        # row and the right-hand side
        out["subtour_lp.simplex_solve.tableau_entries"] = float(
            sum(m * (k + m + 1) for m, k in shapes)
        )
        lp_calls = calls["subtour_lp.simplex_solve"]
        # cuts of solves that returned; a solve that raised reports none
        cuts = sum(c for _, c in per_call["subtour_lp.solve_subtour"])
        out["subtour_lp.cut_yield"] = cuts / lp_calls if lp_calls else 0.0
        solved = [info for _, info in per_call["sdp_numeric.solve"]]
        out["sdp_numeric.solve.iterations"] = sum(it for it, _ in solved)
        out["sdp_numeric.solve.converged_ratio"] = (
            sum(1 for _, ok in solved if ok) / len(solved) if solved else 0.0
        )
        out["serialize.bytes_out"] = sum(
            b for name in ("serialize.json_canonical", "serialize.csv_lines") for _, b in per_call[name]
        )
        return out


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith((".n_exponent", "_ratio", ".cut_yield", ".calls_per_certificate")):
        return "1"
    if name.endswith(".bytes_out"):
        return "bytes"
    if name.endswith(".work_n3"):
        return "dim3"
    return "count"


def _fit_exponent(samples: list[tuple[float, int]]) -> float:
    """Least-squares slope of log(self time) on log(n).

    Only calls of at least 1 ms enter, so timer noise on tiny calls does not
    set the slope; with fewer than two such sizes a factor 1.5 apart the
    fit is undefined and reads 0.
    """
    points = [(math.log(n), math.log(t)) for t, n in samples if t >= 1e-3 and n > 1]
    if not points:
        return 0.0
    xs = [x for x, _ in points]
    if max(xs) - min(xs) < math.log(1.5):
        return 0.0
    mx = sum(xs) / len(xs)
    my = sum(y for _, y in points) / len(points)
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in points)
    return sxy / sxx
