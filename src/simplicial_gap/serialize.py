"""Canonical text output: floats at 17 significant digits, stable JSON/CSV.

17 significant digits round-trip an IEEE double exactly, so any artifact
written here survives parse -> serialize byte for byte (the round-trip
property the CLI tests pin down).

There is one record path: ``record_json`` renders a report dataclass into
the JSON dict, and ``csv_table`` turns such dicts into CSV rows, one cell
per rendered value, so JSON and CSV can never disagree on a value.
"""

from __future__ import annotations

import json
from dataclasses import fields

__all__ = [
    "csv_cell",
    "csv_lines",
    "csv_table",
    "fmt_float",
    "json_canonical",
    "record_json",
]


def fmt_float(x: float) -> str:
    """Decimal string with 17 significant digits (exact double round-trip)."""
    return f"{float(x):.17g}"


def record_json(report) -> dict:
    """JSON dict of a report dataclass, keyed by its field names.

    Floats are rendered by ``fmt_float``; bool, int, str and None pass
    through as they are.
    """
    out = {}
    for f in fields(report):
        value = getattr(report, f.name)
        out[f.name] = fmt_float(value) if isinstance(value, float) else value
    return out


def csv_cell(value) -> str:
    """CSV cell of a rendered JSON value: true/false, empty for None, else str."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return "" if value is None else str(value)


def json_canonical(payload) -> str:
    """Deterministic JSON rendering: sorted keys, fixed separators, newline."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def csv_lines(header: list[str], rows: list[list[str]]) -> str:
    """Plain comma-joined CSV (all cells pre-rendered, no quoting needed)."""
    out = [",".join(header)]
    for row in rows:
        if len(row) != len(header):
            raise ValueError(
                f"row width {len(row)} does not match header width {len(header)}"
            )
        out.append(",".join(row))
    return "\n".join(out) + "\n"


def csv_table(records: list[dict]) -> str:
    """CSV of rendered JSON dicts under the first dict's keys, in its order."""
    header = list(records[0])
    rows = [[csv_cell(rec[key]) for key in header] for rec in records]
    return csv_lines(header, rows)
