"""Acceptance suite: one test per criterion, each printing a verdict line.

These run the shipping configuration at full desk scale, so the module takes
a few minutes.  Criterion 5 judges the B4 scan of the published offset bound
|J - (li - li(2))| < 0.7 sqrt(x)/log x.  That inequality is false at desk
scale (first counterexample at x = 19; by Littlewood's theorem no constant
times sqrt(x)/log x bounds J - li for all x), so the criterion asserts that
the scanner reports exactly the counterexamples that an independent oracle
(tests/_oracle.py, which imports nothing from zetalab) finds, each confirmed
at 30 digits.  See test_verify.py for the row-level check of the same scan.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import zetalab
from zetalab.analytic import li_pv
from zetalab.arith import psi_value
from zetalab.cli import dispatch
from zetalab.laplace import laplace_quadrature
from zetalab.sieve import iter_segments
from zetalab.verify import S_GRID, emit_report, render_json, run_claim, scan_bound

E12 = math.exp(12.0)


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"{name}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_identity_suite():
    ids = ["C1", "C2", "C3", "C4", "C5", "C7", "C8", "C9", "C10", "C11", "C12", "C13", "C15"]
    t0 = time.time()
    results = [run_claim(cid) for cid in ids]
    elapsed = time.time() - t0
    bad = [r.id for r in results if r.verdict != "pass"]
    ok = not bad and elapsed < 120.0
    _verdict("criterion 1", ok, f"{len(results)} claims, failures={bad}, {elapsed:.1f}s")
    assert not bad, bad
    assert elapsed < 120.0


def test_criterion_2_lie_transform_bracket():
    r = run_claim("C6")
    at2 = laplace_quadrature("lie", 2.0, 40.0)
    ok = r.verdict == "pass" and at2.numeric_lo <= 0.0 <= at2.numeric_hi and at2.width < 1e-6
    _verdict("criterion 2", ok, f"C6={r.verdict}, width at s=2 {at2.width:.3e}")
    assert r.verdict == "pass"
    assert at2.numeric_lo <= 0.0 <= at2.numeric_hi
    assert at2.width < 1e-6


def test_criterion_3_pi_li_bounds():
    t0 = time.time()
    full = scan_bound("B2", 2, 10**7, keep_rows=False)
    tail = scan_bound("B2", 10**7, 10**9, mode="log_grid", points=10**4)
    elapsed = time.time() - t0
    ok = full.passed and tail.passed and elapsed < 600.0
    _verdict(
        "criterion 3", ok,
        f"integers to 1e7: {full.n_failures} failures (min margin {full.min_margin:.3f}); "
        f"log tail to 1e9: {tail.n_failures} failures; {elapsed:.1f}s",
    )
    assert full.passed and tail.passed
    assert elapsed < 600.0


def test_criterion_4_psi_bound():
    spot = psi_value(100)
    full = scan_bound("B3", 1, 10**7, keep_rows=False)
    ok = full.passed and abs(spot - 94.0453) < 1e-4
    _verdict(
        "criterion 4", ok,
        f"integers to 1e7: {full.n_failures} failures (min margin {full.min_margin:.4f}); "
        f"psi(100)={spot:.6f}",
    )
    assert abs(spot - 94.045311229357392) < 1e-9
    assert full.passed


def test_criterion_5_j_offset_li_bound():
    import _oracle as oracle

    # the li-convention discriminator: must fail near x = 100
    li_variant = scan_bound("B4", 90, 110, convention="li")
    regression_ok = not li_variant.passed

    # every integer to 1e7: the oracle's verdict, counted and located
    full = scan_bound("B4", 2, 10**7, keep_rows=False)
    want = oracle.scan_integers(2, 10**7)
    assert want.n_failures > 0  # the published expectation is false
    # all of the oracle's failing rows lie in [2, window_hi], a range short enough
    # for the scan to keep every row, so the failing abscissae are compared there
    window_hi = int(max(x for x, _, _ in want.failures))
    window = scan_bound("B4", 2, window_hi, keep_rows=True)
    want_window = oracle.scan_integers(2, window_hi, keep_rows=True)

    # log grid 1e7..1e9
    tail = scan_bound("B4", 10**7, 10**9, mode="log_grid", points=10**4, keep_rows=True)
    want_tail = oracle.scan_log_grid(10**7, 10**9, 10**4)

    window_diff = oracle.row_mismatch(window.rows, want_window.rows)
    tail_diff = oracle.row_mismatch(tail.rows, want_tail.rows)

    # every failing row, and every row within oracle.NEAR of the bound, at 30 digits
    recheck = want.failures + want.near + want_tail.failures + want_tail.near
    exact = {(x, left): oracle.exact_margin(x, left) for x, _, left in recheck}

    ok = (
        regression_ok
        and (full.n_failures, full.argmin_x) == (want.n_failures, want.argmin_x)
        and (tail.n_failures, tail.argmin_x) == (want_tail.n_failures, want_tail.argmin_x)
        and not window_diff
        and not tail_diff
        and all(exact[x, left] < 0 for x, _, left in want.failures + want_tail.failures)
    )
    _verdict(
        "criterion 5", ok,
        f"offset bound to 1e7: {full.n_failures} failing rows, oracle {want.n_failures} "
        f"(worst margin {full.min_margin:.4f} at x={full.argmin_x:.0f}); "
        f"sampled tail: {tail.n_failures} failing, oracle {want_tail.n_failures}, "
        f"at x={tail.argmin_x:.0f}; {len(exact)} rows rechecked at 30 digits; "
        f"li-variant regression near 100 {'failed as required' if regression_ok else 'PASSED unexpectedly'}",
    )
    assert regression_ok

    assert not full.passed
    assert full.n_rows == want.n_rows
    assert full.n_failures == want.n_failures
    assert full.argmin_x == want.argmin_x
    assert abs(full.min_margin - want.min_margin) <= 1e-9

    assert window.n_rows == len(window.rows)  # no row dropped by the retention cap
    assert not window_diff, window_diff
    # the window holds every failing row of the full scan, hence none lies past it
    assert window.n_failures == full.n_failures

    assert not tail.passed
    assert tail.n_rows == len(tail.rows)
    assert not tail_diff, tail_diff
    assert tail.n_failures == want_tail.n_failures
    assert tail.argmin_x == want_tail.argmin_x
    assert abs(tail.min_margin - want_tail.min_margin) <= oracle.row_tolerance(want_tail.argmin_x)

    # the float oracle agrees with 30 digits, so its verdicts are the true ones
    for x, margin, left in recheck:
        assert abs(margin - float(exact[x, left])) <= oracle.row_tolerance(x), (x, left)
        assert (margin > 0) == (exact[x, left] > 0), (x, left)
    assert all(exact[x, left] < 0 for x, _, left in want.failures + want_tail.failures)


def test_criterion_6_j_li_bound_beyond_e12():
    t0 = time.time()
    jumps = scan_bound("B1", E12, 10**8, keep_rows=False)
    grid = scan_bound("B1", E12, 10**8, mode="log_grid", points=10**4)
    below = scan_bound("B1", 2, E12, keep_rows=False)  # report-only onset probe
    elapsed = time.time() - t0
    ok = jumps.passed and grid.passed
    _verdict(
        "criterion 6", ok,
        f"prime powers: {jumps.n_rows} rows, {jumps.n_failures} failures "
        f"(min margin {jumps.min_margin:.2f}); log grid: {grid.n_failures} failures; "
        f"empirical onset below e^12: {'holds to 2' if below.passed else f'first break {below.argmin_x:.0f}'}; "
        f"{elapsed:.1f}s",
    )
    assert jumps.passed and grid.passed


def test_criterion_7_report_claims(tmp_path):
    results = [run_claim(cid) for cid in ("M1", "M2", "M3")]
    json_path = tmp_path / "reports.json"
    emit_report(results, "json", str(json_path))
    objs = json.loads(json_path.read_text())
    schema_ok = all(
        set(o) == {"id", "kind", "params", "max_abs_residual", "tolerance", "verdict", "arg_extremum"}
        and o["verdict"] == "report"
        and math.isfinite(o["max_abs_residual"])
        for o in objs
    )
    csv_path = tmp_path / "reports.csv"
    emit_report(results, "csv", str(csv_path))
    lines = csv_path.read_text().splitlines()
    rows_ok = lines[0] == "x,lhs,rhs,margin,pass" and len(lines) > 3
    finite_ok = all(
        all(math.isfinite(float(f)) for f in line.split(",")[:4]) for line in lines[1:]
    )
    m2 = next(r for r in results if r.id == "M2")
    at2 = [row for row in m2.rows if row[0] == 2.0][0][3]
    # computation check at s = 2, against the value derived from the defining
    # formulas (R(2) minus kernel-plus-offset)
    value_ok = abs(at2 - (-0.0230291463)) < 1e-5
    ok = schema_ok and rows_ok and finite_ok and value_ok
    _verdict("criterion 7", ok, f"M1-M3 emitted; M2 residual at s=2 = {at2:.10f}")
    assert schema_ok and rows_ok and finite_ok
    assert value_ok


def test_criterion_8_performance_floor():
    import _oracle as oracle

    t0 = time.time()
    count = 0
    for seg in iter_segments(0, 10**8):
        count += int(oracle.dense_arrays(seg)[0].sum())
    sieve_time = time.time() - t0
    assert count == 5761455
    t1 = time.time()
    rc_all = dispatch(["check", "--all"])
    scan_bound("B2", 2, 10**6, keep_rows=False)
    scan_bound("B3", 1, 10**6, keep_rows=False)
    scan_bound("B4", 2, 10**6, keep_rows=False)
    combo_time = time.time() - t1
    ok = sieve_time < 10.0 and combo_time < 60.0 and rc_all == 0
    _verdict(
        "criterion 8", ok,
        f"sieve to 1e8 in {sieve_time:.2f}s; check --all plus B2/B3/B4 at 1e6 in {combo_time:.1f}s",
    )
    assert sieve_time < 10.0
    assert combo_time < 60.0
    assert rc_all == 0


def test_criterion_9_byte_identical_reports(tmp_path):
    cmd = [sys.executable, "-m", "zetalab", "check", "--all", "--format", "json", "--out"]
    # the package's own source tree first, so an uninstalled checkout runs too
    src = os.path.dirname(os.path.dirname(zetalab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for p in (p1, p2):
        proc = subprocess.run(cmd + [str(p)], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
    identical = p1.read_bytes() == p2.read_bytes()
    _verdict("criterion 9", identical, f"{len(p1.read_bytes())} bytes, byte-identical={identical}")
    assert identical
