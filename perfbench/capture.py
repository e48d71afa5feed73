#!/usr/bin/env python3
"""Capture the reference outputs the benchmark checks against.

    python3 perfbench/capture.py

Runs every item of every workload variant and smoke pass once through
``zetalab.cli.dispatch`` and stores its exit code, stderr and stdout (for CSV
items, the stdout's sha256 and byte count) in ``perfbench/reference.json``.
Items already stored are never re-run or replaced: a reference records the
outputs of the commit that defined the benchmark, so a changed output is a
failure to fix in the program, not a reference to regenerate.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads as wl  # noqa: E402
from run import import_zetalab, prepare_env  # noqa: E402


def main() -> int:
    prepare_env()
    cli, _import_s = import_zetalab()
    store = {"items": {}}
    if os.path.exists(wl.REFERENCE_PATH):
        with open(wl.REFERENCE_PATH, encoding="utf-8") as fh:
            store = json.load(fh)
    items = store["items"]
    wanted = [it for w in wl.WORKLOADS for v in range(wl.VARIANTS) for it in wl.items_for(w, v)]
    wanted += [it for w in wl.WORKLOADS for it in wl.smoke_items(w)]
    added = 0
    for item in wanted:
        k = wl.key(item)
        if k in items:
            continue
        out = wl.run_item(item, cli.dispatch)
        if "exception" in out.observed:
            print(f"not stored, raised: {k}: {out.observed['exception']}", file=sys.stderr)
            return 1
        items[k] = out.observed
        added += 1
        print(f"stored exit={out.observed['exit']} {out.wall_s:.2f}s {k}", flush=True)
    with open(wl.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(store, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{added} added, {len(items)} stored")
    return 0


if __name__ == "__main__":
    sys.exit(main())
