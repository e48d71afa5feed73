"""Outside-in tracer for the zetalab layers.

The tracer wraps each layer's public entry points from outside the package:
it replaces the function object in every ``zetalab`` module that holds it
(the defining module and each module that imported it by name), so calls
made through ``verify.iter_segments``, ``arith.iter_segments``,
``laplace.lie`` or ``laplace.build_comb`` are all seen.  Nothing under
``src/`` is edited.  An entry point that is missing (renamed or deleted) is
listed in ``Tracer.unmeasured`` and its metrics are reported as unmeasured,
never as 0.

Each call becomes a span: name, start, end, the thread it ran on, the span
that was open on that thread when it started, and the benchmark item (one
CLI call) it belongs to.  Spans stay in memory and are analysed after the
pass.  ``compensated`` gets no span: a wrapper would cost more than one
double-double operation, so its cost shows inside the ``analytic`` spans.
"""

from __future__ import annotations

import bisect
import importlib
import itertools
import statistics
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

CLAIM_IDS = tuple(f"C{i}" for i in range(1, 16)) + ("M1", "M2", "M3")


@dataclass(frozen=True)
class EntryPoint:
    module: str  # zetalab submodule that defines the function
    attr: str
    span: str  # span name; run_claim spans get the claim id appended
    work: Optional[Callable] = None  # args -> work count recorded on the span
    generator: bool = False  # time each next() instead of the call


def _len_first(args, kwargs) -> int:
    return len(args[0]) if args else 0


ENTRY_POINTS = (
    EntryPoint("sieve", "iter_segments", "sieve.iter_segments", generator=True),
    EntryPoint("arith", "j_higher_terms", "arith.j_higher_terms", work=_len_first),
    EntryPoint("arith", "pi_from_j_residuals", "arith.pi_from_j_residuals"),
    EntryPoint("analytic", "li_vec", "analytic.li_vec", work=_len_first),
    EntryPoint("analytic", "lie", "analytic.lie"),
    EntryPoint("analytic", "stirling_model", "analytic.stirling_model"),
    EntryPoint("laplace", "laplace_pair", "laplace.laplace_pair"),
    EntryPoint("laplace", "laplace_quadrature", "laplace.laplace_quadrature"),
    EntryPoint("comb", "build_comb", "comb.build_comb"),
    EntryPoint("comb", "r_integral", "comb.r_integral"),
    EntryPoint("verify", "scan_bound", "verify.scan_bound"),
    EntryPoint("verify", "run_claim", "verify.run_claim"),
    EntryPoint("cli", "dispatch", "cli.dispatch"),
)


@dataclass(frozen=True)
class Span:
    name: str
    t0: float
    t1: float
    idx: int
    parent: int  # idx of the span open on the same thread, -1 if none
    main: bool  # ran on the thread that drives the benchmark
    item: int  # benchmark item (one CLI call) the span belongs to
    work: int

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


class Tracer:
    """Installs span-recording wrappers and restores the originals."""

    def __init__(self, entry_points=ENTRY_POINTS):
        self.entry_points = entry_points
        self.spans: List[Span] = []
        self.unmeasured: List[str] = []
        self.item = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._saved: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str):
        stack = self._stack()
        idx = next(self._ids)
        parent = stack[-1] if stack else -1
        stack.append(idx)
        return name, idx, parent, time.perf_counter()

    def _close(self, opened, work: int) -> None:
        t1 = time.perf_counter()
        name, idx, parent, t0 = opened
        self._stack().pop()
        self.spans.append(
            Span(name, t0, t1, idx, parent, threading.get_ident() == self._main, self.item, work)
        )

    def _wrap_call(self, fn, ep: EntryPoint):
        tracer = self

        def traced(*args, **kwargs):
            name = f"{ep.span}.{args[0]}" if ep.attr == "run_claim" and args else ep.span
            opened = tracer._open(name)
            work = 0
            try:
                result = fn(*args, **kwargs)
                if ep.work is not None:
                    work = ep.work(args, kwargs)
                return result
            finally:
                tracer._close(opened, work)

        return traced

    def _wrap_generator(self, fn, ep: EntryPoint):
        tracer = self

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            try:
                while True:
                    opened = tracer._open(ep.span)
                    try:
                        item = next(it)
                    except StopIteration:
                        tracer._close(opened, 0)
                        return
                    except BaseException:
                        tracer._close(opened, 0)
                        raise
                    tracer._close(opened, len(item))
                    yield item
            finally:
                it.close()

        return traced

    # -- installation --------------------------------------------------
    def install(self) -> None:
        """Rebind every entry point in every zetalab module that holds it."""
        if self._saved:
            return
        self.unmeasured = []
        modules = [m for n, m in sorted(sys.modules.items()) if n == "zetalab" or n.startswith("zetalab.")]
        for ep in self.entry_points:
            try:
                home = importlib.import_module(f"zetalab.{ep.module}")
            except ImportError:
                home = None
            fn = getattr(home, ep.attr, None)
            if fn is None or not callable(fn):
                self.unmeasured.append(ep.span)
                continue
            wrapper = (self._wrap_generator if ep.generator else self._wrap_call)(fn, ep)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._saved.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)
        if "verify.run_claim" not in self.unmeasured:
            claims = getattr(importlib.import_module("zetalab.verify"), "CLAIMS", {})
            self.unmeasured += [f"verify.run_claim.{c}" for c in CLAIM_IDS if c not in claims]

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved = []

    def take(self) -> List[Span]:
        spans, self.spans = self.spans, []
        return spans


# ---------------------------------------------------------------------------
# analysis


def _merge(intervals: List[Tuple[float, float]]) -> Tuple[List[float], List[float], List[float]]:
    """Union of intervals as sorted starts, ends and prefix lengths."""
    starts: List[float] = []
    ends: List[float] = []
    for a, b in sorted(intervals):
        if ends and a <= ends[-1]:
            ends[-1] = max(ends[-1], b)
        else:
            starts.append(a)
            ends.append(b)
    prefix = [0.0]
    for a, b in zip(starts, ends):
        prefix.append(prefix[-1] + b - a)
    return starts, ends, prefix


def _covered(union, t0: float, t1: float) -> float:
    """Length of [t0, t1] covered by a merged union."""
    starts, ends, prefix = union
    i = bisect.bisect_right(ends, t0)
    j = bisect.bisect_left(starts, t1)
    if j <= i:
        return 0.0
    total = prefix[j] - prefix[i]
    total -= max(0.0, t0 - starts[i])
    total -= max(0.0, ends[j - 1] - t1)
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Self time of every span: its duration minus the time its children cover.

    Children on the same thread are the spans opened while it was open.
    Spans on worker threads (the scan's li pool) have no parent on their own
    thread; the part of their union that falls inside a main-thread span and
    outside that span's children is subtracted from it, so a wall interval
    is never counted twice.
    """
    workers = _merge([(s.t0, s.t1) for s in spans if not s.main])
    by_idx = {s.idx: s for s in spans}
    child_dur: Dict[int, float] = defaultdict(float)
    child_workers: Dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent in by_idx:
            child_dur[s.parent] += s.dur
            if s.main:
                child_workers[s.parent] += _covered(workers, s.t0, s.t1)
    out = {}
    for s in spans:
        own = s.dur - child_dur[s.idx]
        if s.main:
            own -= _covered(workers, s.t0, s.t1) - child_workers[s.idx]
        out[s.idx] = own
    return out


def layer_self(spans: List[Span]) -> Dict[str, float]:
    """Self time per layer (the module part of the span name), largest first."""
    own = self_times(spans)
    out: Dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name.split(".")[0]] += own[s.idx]
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))


def summarize(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """busy (summed durations), calls, work and self time per span name."""
    own = self_times(spans)
    out: Dict[str, Dict[str, float]] = defaultdict(lambda: {"busy": 0.0, "calls": 0, "work": 0, "self": 0.0})
    for s in spans:
        d = out[s.name]
        d["busy"] += s.dur
        d["calls"] += 1
        d["work"] += s.work
        d["self"] += own[s.idx]
    # j_higher_terms evaluates every integer of a segment; the scan keeps only
    # the abscissae it evaluates li at, so li points per item are the kept ones.
    j_items = {s.item for s in spans if s.name == "arith.j_higher_terms" and s.work}
    kept = sum(s.work for s in spans if s.name == "analytic.li_vec" and s.item in j_items)
    out["arith.j_higher_terms"]["kept"] = kept
    out["sieve.iter_segments"]["segments"] = sum(
        1 for s in spans if s.name == "sieve.iter_segments" and s.work
    )
    return dict(out)


def median_dicts(rows: List[Dict[str, Optional[float]]]) -> Dict[str, Optional[float]]:
    keys = rows[0].keys() if rows else ()
    out: Dict[str, Optional[float]] = {}
    for k in keys:
        vals = [r[k] for r in rows if r[k] is not None]
        out[k] = statistics.median(vals) if vals else None
    return out
