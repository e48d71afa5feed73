"""Workload items, the CSV sink, and checks against the stored reference outputs.

An item is one argv for ``zetalab.cli.dispatch``; a pass runs a workload's
items in order, in the calling process.  The seed picks one of ``VARIANTS``
input variants: each variant moves the upper end of every scan by a step of
at most 0.05%, so seeds change the inputs but not the kind or amount of work.  Every
variant's outputs were captured from the commit that defined the benchmark
(``reference.json``, written by ``capture.py``).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

VARIANTS = 8
HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

Item = Tuple[str, ...]


def _scan_dense(hi: int) -> List[Item]:
    return [
        ("scan", "B2", "--from", "2", "--to", str(hi)),
        ("scan", "B3", "--from", "1", "--to", str(hi)),
        ("scan", "B4", "--from", "2", "--to", str(hi)),
    ]


def _scan_sparse(hi_jump: int, hi_grid: int, points: int) -> List[Item]:
    return [
        ("scan", "B1", "--to", str(hi_jump), "--mode", "every-jump"),
        ("scan", "B2", "--from", "1e7" if hi_grid > 1e7 else "1e5", "--to", str(hi_grid),
         "--mode", "log-grid", "--points", str(points)),
    ]


def _emit_csv(hi: int) -> List[Item]:
    return [("scan", "B3", "--from", "1", "--to", str(hi), "--format", "csv", "--out", "-")]


CHECK_ALL: List[Item] = [("check", "--all", "--format", "json", "--out", "-")]

WORKLOADS = ("scan_dense", "scan_sparse", "check_all", "emit_csv")

# Share of each workload's pass spent in interpreted Python rather than numpy,
# from the traced runs (README.md): it mixes the two references that correct
# pass times for the host's speed (run.host_slowdown).  The scans are numpy
# sieving, li and cumulative sums; check_all is mostly Python integrands under
# scipy's quad and the claims' own loops, with about 10% numpy in arith; the
# CSV rows are formatted one by one in Python.
INTERPRETED = {"scan_dense": 0.0, "scan_sparse": 0.0, "check_all": 0.8, "emit_csv": 1.0}


def items_for(workload: str, variant: int) -> List[Item]:
    """The items of one pass of `workload` for input variant 0..VARIANTS-1."""
    v = variant % VARIANTS
    if workload == "scan_dense":
        return _scan_dense(1_500_000 + 500 * v)
    if workload == "scan_sparse":
        return _scan_sparse(8_000_000 + 4_000 * v, 80_000_000 + 40_000 * v, 10_000)
    if workload == "check_all":
        return list(CHECK_ALL)
    if workload == "emit_csv":
        return _emit_csv(100_000 + 50 * v)
    raise ValueError(f"unknown workload {workload!r}")


def smoke_items(workload: str) -> List[Item]:
    """Tiny items that take each workload's code path in well under a second."""
    if workload == "scan_dense":
        return _scan_dense(30_000)
    if workload == "scan_sparse":
        return _scan_sparse(400_000, 2_000_000, 200)
    if workload == "check_all":
        return [
            ("check", "C1", "--format", "json", "--out", "-"),
            ("check", "C2"),
            ("check", "C5", "--s", "2"),
            ("check", "C6", "--s", "3"),
            ("check", "C9", "--max", "20000"),
        ]
    if workload == "emit_csv":
        return _emit_csv(20_000)
    raise ValueError(f"unknown workload {workload!r}")


def key(item: Item) -> str:
    return " ".join(item)


def is_csv(item: Item) -> bool:
    return "--format" in item and item[item.index("--format") + 1] == "csv"


class HashSink(io.TextIOBase):
    """Text stream that hashes and counts what it receives and keeps none of it."""

    def __init__(self):
        super().__init__()
        self._sha = hashlib.sha256()
        self.bytes = 0
        self.write_s = 0.0

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        t0 = time.perf_counter()
        data = text.encode("utf-8")
        self._sha.update(data)
        self.bytes += len(data)
        self.write_s += time.perf_counter() - t0
        return len(text)

    def hexdigest(self) -> str:
        return self._sha.hexdigest()


@dataclass
class Outcome:
    """What one item produced, in the shape stored in reference.json."""

    observed: dict
    wall_s: float
    rows: int
    csv_bytes: int = 0
    csv_write_s: float = 0.0


_ROWS = re.compile(r"\brows=(\d+)\b")
_VERDICT = re.compile(r"^\S+ (?:pass|fail|report) max_abs_residual=", re.M)


def run_item(item: Item, dispatch) -> Outcome:
    """Run one CLI call with stdout and stderr captured; never raises."""
    sink = HashSink() if is_csv(item) else io.StringIO()
    err = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err):
            code = dispatch(list(item))
        error = None
    except Exception as exc:  # an item that raises counts as failed, the run goes on
        code, error = None, f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    observed = {"exit": code, "stderr": err.getvalue()}
    if isinstance(sink, HashSink):
        observed["stdout_sha256"] = sink.hexdigest()
        observed["stdout_bytes"] = sink.bytes
        text = observed["stderr"]
    else:
        observed["stdout"] = text = sink.getvalue()
    if error is not None:
        observed["exception"] = error
    rows = sum(int(n) for n in _ROWS.findall(text)) or len(_VERDICT.findall(text))
    if isinstance(sink, HashSink):
        return Outcome(observed, wall, rows, sink.bytes, sink.write_s)
    return Outcome(observed, wall, rows)


@dataclass
class PassResult:
    wall_s: float
    attempted: int = 0
    failed: int = 0
    rows: int = 0
    csv_bytes: int = 0
    csv_write_s: float = 0.0
    mismatches: List[str] = field(default_factory=list)


def run_pass(items: List[Item], references: Dict[str, dict], dispatch, on_item=None) -> PassResult:
    """Run every item once and compare each output with its reference."""
    t0 = time.perf_counter()
    outcomes = []
    for i, item in enumerate(items):
        if on_item is not None:
            on_item(i)
        outcomes.append((item, run_item(item, dispatch)))
    res = PassResult(time.perf_counter() - t0)
    for item, out in outcomes:
        res.attempted += 1
        res.rows += out.rows
        res.csv_bytes += out.csv_bytes
        res.csv_write_s += out.csv_write_s
        expected = references.get(key(item))
        if expected != out.observed:
            res.failed += 1
            res.mismatches.append(f"{key(item)}: {diff_summary(expected, out.observed)}")
    return res


def load_references(path: str = REFERENCE_PATH) -> Dict[str, dict]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["items"]


def diff_summary(expected: Optional[dict], observed: dict) -> str:
    if expected is None:
        return "no reference stored"
    fields = sorted(k for k in set(expected) | set(observed) if expected.get(k) != observed.get(k))
    return "differs in " + ", ".join(fields)
