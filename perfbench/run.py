#!/usr/bin/env python3
"""zetalab benchmark: CLI workloads, end-to-end metrics and a per-layer trace.

    python3 perfbench/run.py --workload scan_dense --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all           # every workload, one process each
    python3 perfbench/run.py --smoke                  # tiny ranges, checks the harness

Run from the root of a checkout; the package is imported from ``src/``.  One
workload run imports zetalab and runs one cold pass, then alternates fresh
child processes (each times ``import zetalab`` and runs one cold pass) with
blocks of warm passes, until ``--seconds`` seconds after the import.  Every item of
every pass goes through ``zetalab.cli.dispatch`` in-process, with the CLI's
default threads, and its output is compared with ``reference.json``.  Every
untraced pass time is corrected for the host's speed with reference
computations timed around it (``host_slowdown``).  With
``--trace 1`` there are no children, the warm passes alternate between
untraced and traced, and the per-layer metrics are printed instead of the
end-to-end ones.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  See README.md for the workloads and
the metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

COLD_CHILDREN = 4  # fresh processes per untraced run, each gives one set-up and one cold sample
MIN_WARM = 3

# Host-speed correction.  On a shared VM the host's speed drifts by 10-50%
# over seconds to minutes, and interpreted code slows more than numpy code, so
# run medians of raw pass times spread past the bounds.  Two fixed reference computations,
# float formatting in Python and vector arithmetic in numpy, are timed before
# and after every untraced pass, each as a multiple of its time on the host of
# the first numbers in README.md (REF_PYTHON_S, REF_NUMPY_S).  Mixed by the
# workload's interpreted share (workloads.INTERPRETED), they give the host's
# slowdown, and a pass is reported as its time / the mean of the slowdowns
# before and after it.  The references are the benchmark's own code, so a
# change to the program moves a corrected time as it would move wall time on
# a steady host.
REF_PYTHON_S = 0.03
REF_NUMPY_S = 0.024
_REF_FLOATS = [random.Random(20181).random() * 10.0 ** k for k in range(12) for _ in range(1700)]
_ref_arrays = []  # numpy inputs and output, made once so no timing pays for page faults


def host_slowdown(interpreted: float) -> float:
    """The host's slowdown now against the reference host, for work that is a
    share `interpreted` of Python and the rest numpy; call after the timed import."""
    import numpy as np  # not before: set-up time includes zetalab's own numpy import

    if not _ref_arrays:
        _ref_arrays.extend([np.linspace(2.0, 1e7, 1 << 19), np.empty(1 << 19)])
        host_slowdown(0.5)  # the first call in a process pays for first-use set-up
    slowdown = 0.0
    if interpreted > 0:
        t0 = time.perf_counter()
        "".join(f"{format(x, '.17g')},{format(x * 1.5, '.17g')}\n" for x in _REF_FLOATS)
        slowdown += interpreted * (time.perf_counter() - t0) / REF_PYTHON_S
    if interpreted < 1:
        a, out = _ref_arrays
        t0 = time.perf_counter()
        for _ in range(8):
            np.log(a, out=out)
            np.multiply(out, a, out=out)
            np.cumsum(out, out=out)
        slowdown += (1 - interpreted) * (time.perf_counter() - t0) / REF_NUMPY_S
    return slowdown


def corrected_pass(items, references, dispatch, interpreted: float, before: Optional[float] = None):
    """One untraced pass between two host_slowdown() timings.

    Returns (result, corrected seconds, the slowdown after the pass, which the
    next pass may reuse as its slowdown before).
    """
    s0 = host_slowdown(interpreted) if before is None else before
    res = wl.run_pass(items, references, dispatch)
    s1 = host_slowdown(interpreted)
    return res, res.wall_s / ((s0 + s1) / 2), s1

END_TO_END = {
    "wall_s": "s",
    "cold_wall_s": "s",
    "setup_s": "s",
    "rows_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# per-layer metric -> (unit, span it is measured from; None when it comes from the sink or passes)
PER_LAYER = {
    "sieve.busy_s": ("s", "sieve.iter_segments"),
    "sieve.segments": ("count", "sieve.iter_segments"),
    "sieve.ints": ("count", "sieve.iter_segments"),
    "sieve.ns_per_int": ("ns", "sieve.iter_segments"),
    "arith.j_higher_terms.busy_s": ("s", "arith.j_higher_terms"),
    "arith.j_higher_terms.points": ("count", "arith.j_higher_terms"),
    "arith.j_higher_terms.useful_ratio": ("ratio", "arith.j_higher_terms"),
    "arith.pi_from_j_residuals.busy_s": ("s", "arith.pi_from_j_residuals"),
    "analytic.li_vec.busy_s": ("s", "analytic.li_vec"),
    "analytic.li_vec.points": ("count", "analytic.li_vec"),
    "analytic.li_vec.ns_per_point": ("ns", "analytic.li_vec"),
    "analytic.lie.calls": ("count", "analytic.lie"),
    "analytic.lie.busy_s": ("s", "analytic.lie"),
    "analytic.stirling_model.busy_s": ("s", "analytic.stirling_model"),
    "laplace.laplace_pair.busy_s": ("s", "laplace.laplace_pair"),
    "laplace.laplace_pair.calls": ("count", "laplace.laplace_pair"),
    "laplace.laplace_quadrature.busy_s": ("s", "laplace.laplace_quadrature"),
    "comb.build_comb.busy_s": ("s", "comb.build_comb"),
    "comb.r_integral.calls": ("count", "comb.r_integral"),
    "comb.r_integral.busy_s": ("s", "comb.r_integral"),
    "verify.scan_bound.busy_s": ("s", "verify.scan_bound"),
    "verify.scan_bound.self_s": ("s", "verify.scan_bound"),
    "verify.rows": ("count", None),
    **{f"verify.run_claim.{c}.busy_s": ("s", f"verify.run_claim.{c}") for c in tr.CLAIM_IDS},
    "verify.csv.bytes": ("bytes", None),
    "verify.csv.write_s": ("s", None),
    "cli.dispatch.self_s": ("s", "cli.dispatch"),
    "trace.overhead_s": ("s", None),
}

# The layer each workload was chosen to stress (README.md, "Workloads").
EXPECTED_LARGEST = {
    "scan_dense": "analytic",
    "scan_sparse": "sieve+verify",
    "check_all": "laplace+analytic",
    "emit_csv": "verify",
}


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def prepare_env() -> dict:
    """Clear ZL_THREADS unless it is needed to match the usable cores."""
    was_set = os.environ.pop("ZL_THREADS", None)
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    if usable and usable != os.cpu_count():
        os.environ["ZL_THREADS"] = str(usable)
    return {
        "nproc": usable,
        "os_cpu_count": os.cpu_count(),
        "zl_threads_was_set": was_set is not None,
        "zl_threads_for_workloads": os.environ.get("ZL_THREADS"),
    }


def import_zetalab():
    """Import zetalab from this checkout's src/, or exit 2; returns (cli module, import seconds)."""
    if not os.path.isfile(os.path.join(SRC, "zetalab", "__init__.py")):
        fail(f"no zetalab sources under {os.path.relpath(SRC)}/; run from a checkout of the repository")
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import zetalab

    import_s = time.perf_counter() - t0
    if not os.path.abspath(zetalab.__file__).startswith(SRC + os.sep):
        fail(f"imported zetalab from {zetalab.__file__}, not from this checkout")
    import zetalab.cli

    return zetalab.cli, import_s


def git_commit() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(env: dict, cli) -> dict:
    import numpy
    import scipy

    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        **env,
        "cli_threads_default": cli._threads_default(),
    }


def _quartiles(values: List[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.4f} median={q2:.4f} q3={q3:.4f}"


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def layer_metrics(res: wl.PassResult, spans: List[tr.Span], cold_spans: List[tr.Span],
                  overhead_s: float, unmeasured: List[str]) -> Dict[str, Optional[float]]:
    """Per-layer metrics of one traced pass.

    stirling_model and build_comb are taken from the cold pass: on warm passes
    they answer from their tables and caches.
    """
    s = tr.summarize(spans)
    cold = tr.summarize(cold_spans)

    def get(name: str, field: str, src=s) -> float:
        return src.get(name, {}).get(field, 0)

    sieve_busy, sieve_ints = get("sieve.iter_segments", "busy"), get("sieve.iter_segments", "work")
    jpts = get("arith.j_higher_terms", "work")
    li_busy, li_pts = get("analytic.li_vec", "busy"), get("analytic.li_vec", "work")
    m = {
        "sieve.busy_s": sieve_busy,
        "sieve.segments": get("sieve.iter_segments", "segments"),
        "sieve.ints": sieve_ints,
        "sieve.ns_per_int": _ratio(sieve_busy, sieve_ints, 1e9),
        "arith.j_higher_terms.busy_s": get("arith.j_higher_terms", "busy"),
        "arith.j_higher_terms.points": jpts,
        "arith.j_higher_terms.useful_ratio": _ratio(get("arith.j_higher_terms", "kept"), jpts),
        "arith.pi_from_j_residuals.busy_s": get("arith.pi_from_j_residuals", "busy"),
        "analytic.li_vec.busy_s": li_busy,
        "analytic.li_vec.points": li_pts,
        "analytic.li_vec.ns_per_point": _ratio(li_busy, li_pts, 1e9),
        "analytic.lie.calls": get("analytic.lie", "calls"),
        "analytic.lie.busy_s": get("analytic.lie", "busy"),
        "analytic.stirling_model.busy_s": get("analytic.stirling_model", "busy", cold),
        "laplace.laplace_pair.busy_s": get("laplace.laplace_pair", "busy"),
        "laplace.laplace_pair.calls": get("laplace.laplace_pair", "calls"),
        "laplace.laplace_quadrature.busy_s": get("laplace.laplace_quadrature", "busy"),
        "comb.build_comb.busy_s": get("comb.build_comb", "busy", cold),
        "comb.r_integral.calls": get("comb.r_integral", "calls"),
        "comb.r_integral.busy_s": get("comb.r_integral", "busy"),
        "verify.scan_bound.busy_s": get("verify.scan_bound", "busy"),
        "verify.scan_bound.self_s": get("verify.scan_bound", "self"),
        "verify.rows": res.rows,
        **{f"verify.run_claim.{c}.busy_s": get(f"verify.run_claim.{c}", "busy") for c in tr.CLAIM_IDS},
        "verify.csv.bytes": res.csv_bytes,
        "verify.csv.write_s": res.csv_write_s,
        "cli.dispatch.self_s": get("cli.dispatch", "self"),
        "trace.overhead_s": overhead_s,
    }
    for name, (_unit, span) in PER_LAYER.items():
        if span in unmeasured or (name.endswith("useful_ratio") and "analytic.li_vec" in unmeasured):
            m[name] = None
    return m


def _metric_json(values: Dict[str, Optional[float]], units: Dict[str, str]) -> dict:
    return {k: {"value": values[k], "unit": units[k]} for k in units}


def _check_args(name: str) -> Dict[str, dict]:
    if name not in wl.WORKLOADS:
        fail(f"unknown workload {name!r}; known: {', '.join(wl.WORKLOADS)}, all")
    if not os.path.isfile(wl.REFERENCE_PATH):
        fail("reference.json is missing")
    return wl.load_references()


def _dispatcher(cli):
    def dispatch(argv):  # looked up per call, so the tracer's wrapper is seen
        return cli.dispatch(argv)

    return dispatch


def run_cold_child(name: str, seed: int) -> int:
    """One fresh process: time the import, run one cold pass, print one JSON line."""
    references = _check_args(name)
    cli, import_s = import_zetalab()
    res, cold_s, _s = corrected_pass(wl.items_for(name, seed), references, _dispatcher(cli),
                                   wl.INTERPRETED[name])
    print(json.dumps({"setup_s": import_s, "cold_wall_s": cold_s, "cold_raw_s": res.wall_s,
                      "attempted": res.attempted, "failed": res.failed, "mismatches": res.mismatches}))
    return 0


def cold_child(name: str, seed: int) -> dict:
    """Run one cold-pass child and return its JSON line."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed), "--cold-child"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        fail(f"cold-pass child of {name} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> int:
    references = _check_args(name)
    env = prepare_env()
    cli, import_s = import_zetalab()
    t_run = time.perf_counter()
    variant = seed % wl.VARIANTS
    items = wl.items_for(name, variant)
    print("provenance " + json.dumps(provenance(env, cli), sort_keys=True))
    print(f"workload {name} seed {seed} variant {variant}: " + " | ".join(wl.key(i) for i in items))
    dispatch = _dispatcher(cli)
    tracer = tr.Tracer() if trace else None
    passes: List[wl.PassResult] = []

    def traced_pass() -> tuple:
        tracer.install()
        try:
            res = wl.run_pass(items, references, dispatch, lambda i: setattr(tracer, "item", i))
        finally:
            tracer.uninstall()
        return res, tracer.take()

    if trace:
        cold, cold_spans = traced_pass()
        cold_s = cold.wall_s
    else:
        cold, cold_s, _s = corrected_pass(items, references, dispatch, wl.INTERPRETED[name])
    passes.append(cold)
    # An untraced run alternates fresh cold-pass children with blocks of warm
    # passes, so set-up, cold and warm samples all spread over the whole run.
    # Block b ends `seconds` * (b + 1) / blocks after the import, children
    # included, so a run lasts about `seconds` whatever the host's speed.
    blocks = 1 if trace else COLD_CHILDREN
    children: List[dict] = []
    warm: List[wl.PassResult] = []
    warm_s: List[float] = []  # warm pass times, corrected for host speed unless traced
    traced: List[tuple] = []
    for block in range(blocks):
        slowdown = None  # the host's slowdown just before the next pass, once measured
        if not trace:
            children.append(cold_child(name, seed))
        t_end = t_run + seconds * (block + 1) / blocks
        need = MIN_WARM * (block + 1) // blocks
        while (time.perf_counter() < t_end or len(warm) < need
               or (trace and len(traced) < MIN_WARM)):
            if trace and len(traced) < len(warm):
                traced.append(traced_pass())
                passes.append(traced[-1][0])
                continue
            if trace:
                res = wl.run_pass(items, references, dispatch)
                secs = res.wall_s
            else:
                res, secs, slowdown = corrected_pass(items, references, dispatch, wl.INTERPRETED[name], slowdown)
            warm.append(res)
            warm_s.append(secs)
            passes.append(res)
    setup = [import_s] + [c["setup_s"] for c in children]
    colds = [cold_s] + [c["cold_wall_s"] for c in children]

    attempted = sum(p.attempted for p in passes) + sum(c["attempted"] for c in children)
    failed = sum(p.failed for p in passes) + sum(c["failed"] for c in children)
    for m in [m for p in passes for m in p.mismatches] + [m for c in children for m in c["mismatches"]]:
        print(f"MISMATCH {m}")
    wall = statistics.median(warm_s)
    if trace:
        print(f"warm passes: {_quartiles(warm_s)}; cold pass: {cold_s:.4f}; "
              f"traced passes: {_quartiles([p.wall_s for p, _ in traced])}")
    else:
        print(f"warm passes, raw: {_quartiles([p.wall_s for p in warm])}; corrected: {_quartiles(warm_s)}")
        print(f"host slowdown (interpreted share {wl.INTERPRETED[name]}): "
              f"{_quartiles([p.wall_s / c for c, p in zip(warm_s, warm)])}")
        print(f"cold passes, raw: {_quartiles([cold.wall_s] + [c['cold_raw_s'] for c in children])}; "
              f"corrected: {_quartiles(colds)}")
    print(f"set-up (import zetalab in a fresh interpreter): {_quartiles(setup)}")
    print(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted} items)")

    if trace:
        overhead = statistics.median(p.wall_s for p, _ in traced) - wall
        rows = [layer_metrics(p, spans, cold_spans, overhead, tracer.unmeasured) for p, spans in traced]
        values = tr.median_dicts(rows)
        units = {k: u for k, (u, _span) in PER_LAYER.items()}
        for k, u in units.items():
            v = values[k]
            print(f"  {k:40s} {'unmeasured' if v is None else f'{v:.6g}'} {u}")
        _res, spans = sorted(traced, key=lambda t: t[0].wall_s)[len(traced) // 2]
        shares = tr.layer_self(spans)
        total = sum(shares.values()) or 1.0
        print("layer self time (median traced pass): "
              + ", ".join(f"{k} {v:.3f} s ({100 * v / total:.0f}%)" for k, v in shares.items()))
        print(f"largest layer: {next(iter(shares), 'none')} (chosen to stress: {EXPECTED_LARGEST[name]})")
    else:
        values = {
            "wall_s": wall,
            "cold_wall_s": statistics.median(colds),
            "setup_s": statistics.median(setup),
            "rows_per_s": statistics.median(p.rows for p in warm) / wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        for k, u in units.items():
            print(f"  {k:14s} {values[k]:.6g} {u}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": _metric_json(values, units)}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(seed: int, seconds: int, trace: bool) -> int:
    """Each workload in its own fresh process; prints one table and a combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    lines = []
    for name in wl.WORKLOADS:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        out = done.stdout.strip().splitlines()
        if not out or not out[-1].startswith("{"):
            fail(f"workload {name} exited {done.returncode} without a result")
        res = json.loads(out[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
        lines.append((name, res))
    print("\nsummary" + (" (traced)" if trace else ""))
    for name, res in lines:
        fr = res["failed"] / res["attempted"]
        cells = "  ".join(
            f"{k}={'unmeasured' if m['value'] is None else format(m['value'], '.4g')} {m['unit']}"
            for k, m in res["metrics"].items()
        )
        print(f"{name:12s} failed_frac={fr:.3g}  {cells}")
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def run_smoke() -> int:
    """Every workload's code path untraced and traced on tiny ranges, plus harness checks."""
    references = wl.load_references()
    env = prepare_env()
    cli, _import_s = import_zetalab()
    print("provenance " + json.dumps(provenance(env, cli), sort_keys=True))
    problems: List[str] = []
    attempted = failed = 0

    dispatch = _dispatcher(cli)
    original_dispatch = cli.dispatch
    for name in wl.WORKLOADS:
        items = wl.smoke_items(name)
        tracer = tr.Tracer()
        tracer.install()  # traced first, so the cold-pass layers are seen
        try:
            traced = wl.run_pass(items, references, dispatch, lambda i: setattr(tracer, "item", i))
        finally:
            tracer.uninstall()
        spans = tracer.take()
        plain = wl.run_pass(items, references, dispatch)
        m = layer_metrics(traced, spans, spans, traced.wall_s - plain.wall_s, tracer.unmeasured)
        for p in (plain, traced):
            attempted += p.attempted
            failed += p.failed
            problems += p.mismatches
        problems += [f"{name}: entry point unmeasured: {u}" for u in tracer.unmeasured]
        print(f"smoke {name}: untraced {plain.wall_s:.3f} s, traced {traced.wall_s:.3f} s, "
              f"{len(spans)} spans, largest layer {next(iter(tr.layer_self(spans)), 'none')}")
        expect = {
            "scan_dense": ("analytic.li_vec.points", "sieve.ints", "arith.j_higher_terms.points"),
            "scan_sparse": ("sieve.segments", "arith.j_higher_terms.points", "verify.scan_bound.self_s"),
            "check_all": ("laplace.laplace_pair.calls", "analytic.lie.calls", "comb.r_integral.calls",
                          "arith.pi_from_j_residuals.busy_s", "analytic.stirling_model.busy_s",
                          "comb.build_comb.busy_s", "verify.run_claim.C6.busy_s"),
            "emit_csv": ("verify.csv.bytes", "verify.csv.write_s", "verify.rows"),
        }[name]
        problems += [f"{name}: {k} is {m[k]}" for k in expect if not m[k]]
    if cli.dispatch is not original_dispatch:
        problems.append("tracer did not restore cli.dispatch")

    # A missing entry point is reported unmeasured and does not stop the pass.
    renamed = tuple(tr.EntryPoint(e.module, e.attr + "_renamed", e.span) if e.span == "analytic.lie" else e
                    for e in tr.ENTRY_POINTS)
    tracer = tr.Tracer(renamed)
    tracer.install()
    try:
        res = wl.run_pass(wl.smoke_items("check_all")[3:4], references, dispatch)
    finally:
        tracer.uninstall()
    m = layer_metrics(res, tracer.take(), [], 0.0, tracer.unmeasured)
    if res.failed or m["analytic.lie.calls"] is not None or not m["laplace.laplace_pair.calls"]:
        problems.append("a missing entry point was not reported as unmeasured")

    # One corrupted reference byte makes failed_frac > 0.
    item = wl.smoke_items("scan_dense")[0]
    bad = dict(references)
    exp = dict(bad[wl.key(item)])
    exp["stdout"] = exp["stdout"][:-2] + chr(ord(exp["stdout"][-2]) ^ 1) + exp["stdout"][-1:]
    bad[wl.key(item)] = exp
    res = wl.run_pass([item], bad, dispatch)
    corrupt_frac = res.failed / res.attempted
    if corrupt_frac <= 0:
        problems.append("a corrupted reference byte was not detected")

    for p in problems:
        print(f"PROBLEM {p}")
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {"corrupt_failed_frac": {"value": corrupt_frac, "unit": "ratio"}}}
    print(json.dumps(result))
    return 0 if not problems else 1


def main(argv: Optional[List[str]] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", help=f"one of {', '.join(wl.WORKLOADS)}, or all")
    p.add_argument("--seed", type=int, default=0, help="picks the input variant")
    p.add_argument("--seconds", type=int, default=30, help="how long one run measures")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny ranges; checks the harness itself")
    p.add_argument("--cold-child", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.smoke:
        return run_smoke()
    if args.cold_child:
        return run_cold_child(args.workload, args.seed)
    if not args.workload:
        p.error("--workload or --smoke is required")
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
