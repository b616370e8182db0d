"""Record reference outputs for every item any seed can draw.

Run from the repository root on the commit whose outputs are the reference:

    PYTHONPATH=src python3 perfbench/make_references.py

Writes perfbench/references.json: per item the exit code, the exception
type if it raised, the SHA-256 of its output and the parsed output.
"""

from __future__ import annotations

import hashlib
import json
import sys

import workloads
from worker import run_item


def main() -> int:
    from simplicial_gap import cli

    refs = {}
    for argv in workloads.all_items():
        res = run_item(cli, argv)
        text = res["text"]
        raised = res["error"] is not None
        refs[workloads.item_key(argv)] = {
            "exit": res["exit"],
            "error": res["error"].split(":")[0] if raised else None,
            "sha256": None if raised else hashlib.sha256(text.encode("utf-8")).hexdigest(),
            "output": None if raised else json.loads(text),
        }
        print(f"{workloads.item_key(argv)}: exit={res['exit']} error={res['error']} "
              f"{res['seconds']:.2f}s", file=sys.stderr)
    with open(workloads.REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
