"""Claim registry and bound scanners.

Every checkable statement gets a registry entry: identity claims compare two
independently computed quantities against a tolerance, bound-scan claims and
the B-series scanners test inequalities over ranges, and report-only claims
emit residual curves without a pass/fail verdict.

Scan rows always encode one inequality as lhs < rhs with margin = rhs - lhs,
so a row passes exactly when its margin is positive.  Two-sided bounds emit
one row per side.  In every-integer mode the scanner additionally evaluates
the step function's left limit at each of its jumps, because extrema of a
step-minus-smooth difference sit against the jumps.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Dict, IO, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import analytic, arith, comb, laplace
from .compensated import KahanSum
from .sieve import iter_segments

N_DECADES = (2, 10, 100, 1000, 10000)
S_GRID = (1.5, 2.0, 3.0, 5.0, 10.0)
C_GRID = (0.0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875)
DEFAULT_COMB_LIMIT = 1e6

Row = Tuple[float, float, float, float, bool]


def fmt17(v: float) -> str:
    return format(float(v), ".17g")


@dataclass(frozen=True)
class Claim:
    id: str
    kind: str  # identity | bound_scan | report_only
    statement: str
    runner: Callable[[dict], "ClaimResult"]
    defaults: dict


@dataclass
class ClaimResult:
    id: str
    kind: str
    params: dict
    max_abs_residual: float
    tolerance: float
    verdict: str  # pass | fail | report
    arg_extremum: float
    rows: Optional[List[Row]] = None

    @property
    def passed(self) -> bool:
        return self.verdict != "fail"


@dataclass
class ScanReport:
    bound_id: str
    params: dict
    n_rows: int
    n_failures: int
    min_margin: float
    argmin_x: float
    rows: Optional[List[Row]] = None

    @property
    def passed(self) -> bool:
        return self.n_failures == 0


class _RowCollector:
    """Streams rows to an optional sink, keeps all of them if asked, tracks extrema."""

    def __init__(self, sink: Optional[IO[str]], keep_rows: bool):
        self.sink = sink
        self.keep = keep_rows
        self.rows: List[Row] = []
        self.n_rows = 0
        self.n_failures = 0
        self.min_margin = math.inf
        self.argmin_x = math.nan
        if sink is not None:
            sink.write("x,lhs,rhs,margin,pass\n")

    def add_block(self, xs, lhs, rhs) -> None:
        margin = rhs - lhs
        ok = margin > 0
        self.n_rows += len(xs)
        self.n_failures += int(np.count_nonzero(~ok))
        if len(xs):
            i = int(np.argmin(margin))
            if margin[i] < self.min_margin:
                self.min_margin = float(margin[i])
                self.argmin_x = float(xs[i])
        if self.sink is not None:
            out = []
            for x, a, b, m, p in zip(xs, lhs, rhs, margin, ok):
                out.append(
                    f"{fmt17(x)},{fmt17(a)},{fmt17(b)},{fmt17(m)},{'true' if p else 'false'}\n"
                )
            self.sink.write("".join(out))
        if self.keep:
            self.rows.extend(
                (float(x), float(a), float(b), float(m), bool(p))
                for x, a, b, m, p in zip(xs, lhs, rhs, margin, ok)
            )


# ---------------------------------------------------------------------------
# bound scanners


@dataclass(frozen=True)
class _BoundDef:
    bound_id: str
    statement: str
    step: str  # pi | psi | j
    two_sided: bool
    min_x: int
    default_lo: float
    default_hi: float
    default_mode: str
    # smooth(xs), upper(xs) and lower(xs) receive float arrays
    smooth: Callable[[np.ndarray], np.ndarray]
    upper: Callable[[np.ndarray], np.ndarray]
    lower: Optional[Callable[[np.ndarray], np.ndarray]] = None
    # named alternatives to `smooth`, chosen by scan_bound's `convention`
    conventions: Dict[str, Callable[[np.ndarray], np.ndarray]] = field(default_factory=dict)


def _li_arr(xs: np.ndarray) -> np.ndarray:
    return analytic.li_vec(xs)  # looked up per call, so a patched li_vec is used


_LI_AT_2 = analytic.li_pv(2.0)


def _li_offset_arr(xs: np.ndarray) -> np.ndarray:
    return analytic.li_vec(xs) - _LI_AT_2


_E12 = math.exp(12.0)

_BOUNDS: Dict[str, _BoundDef] = {}


def _register_bound(b: _BoundDef) -> None:
    _BOUNDS[b.bound_id] = b


_register_bound(
    _BoundDef(
        bound_id="B1",
        statement="|J(x) - li(x)| < 3 sqrt(x)/log x beyond x = e**12",
        step="j",
        two_sided=False,
        min_x=2,
        default_lo=_E12,
        default_hi=1e8,
        default_mode="every_jump",
        smooth=_li_arr,
        upper=lambda xs: 3.0 * np.sqrt(xs) / np.log(xs),
    )
)
_register_bound(
    _BoundDef(
        bound_id="B2",
        statement="-5 sqrt(x)/log x < pi(x) - li(x) < 2 sqrt(x)/log x",
        step="pi",
        two_sided=True,
        min_x=2,
        default_lo=2.0,
        default_hi=1e7,
        default_mode="every_integer",
        smooth=_li_arr,
        upper=lambda xs: 2.0 * np.sqrt(xs) / np.log(xs),
        lower=lambda xs: -5.0 * np.sqrt(xs) / np.log(xs),
    )
)
_register_bound(
    _BoundDef(
        bound_id="B3",
        statement="|psi(x) - x| < 2 sqrt(x)",
        step="psi",
        two_sided=False,
        min_x=1,
        default_lo=1.0,
        default_hi=1e7,
        default_mode="every_integer",
        smooth=lambda xs: xs,
        upper=lambda xs: 2.0 * np.sqrt(xs),
    )
)
_register_bound(
    _BoundDef(
        bound_id="B4",
        statement="|J(x) - (li(x) - li(2))| < 0.7 sqrt(x)/log x",
        step="j",
        two_sided=False,
        min_x=2,
        default_lo=2.0,
        default_hi=1e7,
        default_mode="every_integer",
        smooth=_li_offset_arr,
        upper=lambda xs: 0.7 * np.sqrt(xs) / np.log(xs),
        conventions={"offset": _li_offset_arr, "li": _li_arr},
    )
)


def _emit_bound_rows(
    bdef: _BoundDef,
    col: _RowCollector,
    xs: np.ndarray,
    right: np.ndarray,
    left: Optional[np.ndarray],
    jump_mask: Optional[np.ndarray],
    smooth: np.ndarray,
) -> None:
    """Rows for one block of abscissae, in ascending-x order.

    At a jump the left-limit rows precede the value rows for the same x; for a
    two-sided bound each evaluation yields a lower row (lhs = lower bound,
    rhs = value) and then an upper row (lhs = value, rhs = upper bound).
    """
    up = bdef.upper(xs)
    n = len(xs)
    has_jumps = jump_mask is not None and left is not None and bool(jump_mask.any())
    per = 2 if bdef.two_sided else 1

    if not bdef.two_sided:
        vals_r = np.abs(right - smooth)
        vals_l = np.abs(left - smooth) if has_jumps else None
    else:
        lo = bdef.lower(xs)
        vals_r = right - smooth
        vals_l = (left - smooth) if has_jumps else None

    if not has_jumps:
        if bdef.two_sided:
            x2 = np.repeat(xs, 2)
            a = np.empty(2 * n)
            b = np.empty(2 * n)
            a[0::2], b[0::2] = lo, vals_r  # lower bound < value
            a[1::2], b[1::2] = vals_r, up  # value < upper bound
            col.add_block(x2, a, b)
        else:
            col.add_block(xs, vals_r, up)
        return

    slots = per * (1 + jump_mask.astype(np.int64))
    ends = np.cumsum(slots)
    total = int(ends[-1])
    X = np.empty(total)
    A = np.empty(total)
    B = np.empty(total)
    pos_r = ends - per  # first right-row slot per x; left rows sit just before
    pos_l = pos_r[jump_mask] - per
    if bdef.two_sided:
        for pos, vals, sel in (
            (pos_l, vals_l[jump_mask], jump_mask),
            (pos_r, vals_r, slice(None)),
        ):
            X[pos] = xs[sel]
            A[pos], B[pos] = lo[sel], vals
            X[pos + 1] = xs[sel]
            A[pos + 1], B[pos + 1] = vals, up[sel]
    else:
        X[pos_r], A[pos_r], B[pos_r] = xs, vals_r, up
        X[pos_l], A[pos_l], B[pos_l] = xs[jump_mask], vals_l[jump_mask], up[jump_mask]
    col.add_block(X, A, B)


def _scan_stream(
    bdef: _BoundDef, lo: float, hi: float, jumps_only: bool, smooth, col: _RowCollector
) -> None:
    """every_integer / every_jump engine: one sweep of sieve segments.

    every_integer forms the step's values at all integers of a segment;
    every_jump finds the jump offsets first and forms values, weights and
    J's k >= 2 terms at those offsets only.
    """
    lo_i = max(int(math.ceil(lo)), bdef.min_x)
    hi_i = int(math.floor(hi))
    if hi_i < lo_i:
        return
    base = "psi" if bdef.step == "psi" else "pi"
    if bdef.step == "j":
        hp_vals, hp_wts, _ = arith.higher_power_jumps(hi_i)
    for seg, before in arith.step_segments(base, hi_i, lo=lo_i):
        a = max(lo_i, seg.lo)
        wts = (seg.lam if base == "psi" else seg.is_prime)[a - seg.lo :]
        if bdef.step == "j":
            # k >= 2 powers are never prime, so each lands on a zero weight
            i0, i1 = np.searchsorted(hp_vals, [a, seg.hi + 1])
            hp_offs, hp_w = hp_vals[i0:i1] - a, hp_wts[i0:i1]
        if jumps_only:
            offs = np.flatnonzero(wts)
            wts = wts[offs] if base == "psi" else np.ones(offs.size)
            if bdef.step == "j":
                offs = np.concatenate((offs, hp_offs))
                order = np.argsort(offs, kind="stable")
                offs, wts = offs[order], np.concatenate((wts, hp_w))[order]
            right = arith.segment_values(base, seg, before, offs + (a - seg.lo))
            jump_mask = np.ones(offs.size, dtype=bool)
        else:
            offs = np.arange(seg.hi - a + 1, dtype=np.int64)
            right = arith.segment_values(base, seg, before)[a - seg.lo :]
            if base == "pi":
                wts = wts.astype(np.float64)
            if bdef.step == "j":
                wts[hp_offs] += hp_w
            jump_mask = wts > 0
        if len(offs):
            xs_i = offs + a
            right = right.astype(np.float64)
            if bdef.step == "j":
                right += arith.j_higher_terms(xs_i, hi_i)
            xs_f = xs_i.astype(np.float64)
            _emit_bound_rows(bdef, col, xs_f, right, right - wts, jump_mask, smooth(xs_f))


def _scan_log_grid(
    bdef: _BoundDef, lo: float, hi: float, points: int, smooth, col: _RowCollector
) -> None:
    lo = max(lo, float(bdef.min_x))
    if lo > hi:
        return
    xs = np.geomspace(lo, hi, points)
    step_vals = arith.step_at(bdef.step, np.floor(xs).astype(np.int64))
    _emit_bound_rows(bdef, col, xs, step_vals, None, None, smooth(xs))


def scan_bound(
    bound_id: str,
    lo: Optional[float] = None,
    hi: Optional[float] = None,
    mode: Optional[str] = None,
    *,
    points: int = 10_000,
    convention: Optional[str] = None,
    row_sink: Optional[IO[str]] = None,
    keep_rows: Optional[bool] = None,
) -> ScanReport:
    """Run one bound scanner over [lo, hi].

    mode is one of every_integer (all integers, plus left limits at jumps),
    every_jump (only the step function's jump abscissae, both sides), or
    log_grid (`points` log-spaced abscissae).  convention picks B4's smooth
    side: 'offset' (li - li(2), the default) or 'li'; other bounds take none.
    """
    if bound_id not in _BOUNDS:
        raise ValueError(f"unknown bound id {bound_id!r}; known: {', '.join(sorted(_BOUNDS))}")
    bdef = _BOUNDS[bound_id]
    lo = bdef.default_lo if lo is None else lo
    hi = bdef.default_hi if hi is None else hi
    mode = bdef.default_mode if mode is None else mode
    if hi < lo:
        raise ValueError("inverted scan range")
    if mode == "log_grid" and points < 1:
        raise ValueError("log_grid needs points >= 1")
    if convention is not None and convention not in bdef.conventions:
        known = ", ".join(bdef.conventions) or "none; only B4 takes one"
        raise ValueError(f"unknown convention {convention!r} for {bound_id}; known: {known}")
    smooth = bdef.conventions.get(convention, bdef.smooth)
    if keep_rows is None:
        keep_rows = (hi - lo) <= 50_000 or mode == "log_grid"
    col = _RowCollector(row_sink, keep_rows)

    if mode in ("every_integer", "every_jump"):
        _scan_stream(bdef, lo, hi, mode == "every_jump", smooth, col)
    elif mode == "log_grid":
        _scan_log_grid(bdef, lo, hi, points, smooth, col)
    else:
        raise ValueError(f"unknown scan mode {mode!r}")
    params = {"lo": lo, "hi": hi, "mode": mode, "min_margin": col.min_margin}
    if mode == "log_grid":
        params["points"] = points
    if convention:
        params["convention"] = convention
    return ScanReport(
        bound_id=bound_id,
        params=params,
        n_rows=col.n_rows,
        n_failures=col.n_failures,
        min_margin=col.min_margin,
        argmin_x=col.argmin_x,
        rows=col.rows if keep_rows else None,
    )


def bound_ids() -> Tuple[str, ...]:
    return tuple(_BOUNDS)


# ---------------------------------------------------------------------------
# identity and report claims


def _result_from_rows(
    claim_id: str,
    kind: str,
    params: dict,
    rows: List[Row],
    tol_at: List[float],
    extra_fail: bool = False,
) -> ClaimResult:
    residuals = [abs(r[3]) for r in rows]
    i = int(np.argmax(residuals)) if residuals else 0
    ok = all(r[4] for r in rows) and not extra_fail
    return ClaimResult(
        id=claim_id,
        kind=kind,
        params=params,
        max_abs_residual=residuals[i] if residuals else 0.0,
        tolerance=tol_at[i] if tol_at else 0.0,
        verdict="pass" if ok else "fail",
        arg_extremum=rows[i][0] if rows else math.nan,
        rows=rows,
    )


def _margin_verdict(
    claim_id: str, kind: str, params: dict, rows: List[Row], extra_excess: float = 0.0
) -> ClaimResult:
    """Verdict for rows that must keep a positive margin.

    max_abs_residual is the deepest escape (0 when nothing escapes), raised to
    extra_excess if that is larger; a nonzero extra_excess fails the claim.
    arg_extremum is the row of the deepest escape, or the first row.
    """
    excess = [max(0.0, -r[3]) for r in rows]
    i = int(np.argmax(excess))
    return ClaimResult(
        id=claim_id,
        kind=kind,
        params=params,
        max_abs_residual=max(excess + [extra_excess]),
        tolerance=0.0,
        verdict="pass" if all(r[4] for r in rows) and extra_excess == 0.0 else "fail",
        arg_extremum=rows[i][0],
        rows=rows,
    )


def _report_result(
    claim_id: str, params: dict, rows: List[Row], measured: Optional[List[Row]] = None
) -> ClaimResult:
    """Report-only result over the measured rows (all rows unless given).

    max_abs_residual is their largest |residual| (0 when there are none) and
    arg_extremum the first row that reaches it.
    """
    measured = rows if measured is None else measured
    residuals = [abs(r[3]) for r in measured]
    i = int(np.argmax(residuals)) if residuals else 0
    return ClaimResult(
        id=claim_id,
        kind="report_only",
        params=params,
        max_abs_residual=residuals[i] if residuals else 0.0,
        tolerance=0.0,
        verdict="report",
        arg_extremum=measured[i][0] if measured else math.nan,
        rows=rows,
    )


def _model_claim(claim_id: str, model_fn, params: dict) -> ClaimResult:
    rows: List[Row] = []
    tols: List[float] = []
    for n in params["n_grid"]:
        pair = model_fn(int(n))
        rows.append(
            (float(n), pair.exact, pair.model, pair.residual, abs(pair.residual) <= pair.tolerance)
        )
        tols.append(pair.tolerance)
    return _result_from_rows(claim_id, "identity", params, rows, tols)


def _run_c1(params: dict) -> ClaimResult:
    return _model_claim("C1", analytic.stirling_model, params)


def _run_c2(params: dict) -> ClaimResult:
    rows: List[Row] = []
    tols: List[float] = []
    for n in params["n_grid"]:
        n = int(n)
        direct = comb.r_integral(math.log(n))
        model = comb.r_integral_model(n, 0.0)
        tol = 1.0 / n ** 2
        rows.append((float(n), direct, model, direct - model, abs(direct - model) <= tol))
        tols.append(tol)
    return _result_from_rows("C2", "identity", params, rows, tols)


def _run_c3(params: dict) -> ClaimResult:
    rows: List[Row] = []
    tols: List[float] = []
    exact_ok = True
    for n in params["n_grid"]:
        n = int(n)
        for c in params["c_grid"]:
            a = n + c
            rv = comb.r_value_ordinate(a)
            if rv != c:
                exact_ok = False
            direct = comb.r_integral(math.log(a)) - rv
            model = comb.r_integral_model(n, c)
            tol = 1.0 / n ** 2
            rows.append((a, direct, model, direct - model, abs(direct - model) <= tol))
            tols.append(tol)
    return _result_from_rows("C3", "identity", params, rows, tols, extra_fail=not exact_ok)


def _run_c4(params: dict) -> ClaimResult:
    return _model_claim("C4", analytic.harmonic_model, params)


def _bracket_claim(claim_id: str, pair_id: str, params: dict) -> ClaimResult:
    rows: List[Row] = []
    width_excess = 0.0
    for s in params["s_grid"]:
        br = laplace.laplace_pair(pair_id, float(s), limit=params.get("limit", DEFAULT_COMB_LIMIT))
        # row margin: distance from the closed form to the nearer bracket edge
        lo_gap = br.closed_form - br.numeric_lo
        hi_gap = br.numeric_hi - br.closed_form
        rows.append((float(s), br.numeric_lo, br.numeric_hi, min(lo_gap, hi_gap), br.contains()))
        if claim_id == "C6" and s == 2.0 and br.width >= 1e-6:
            width_excess = br.width - 1e-6
    return _margin_verdict(claim_id, "identity", params, rows, width_excess)


def _run_c5(params: dict) -> ClaimResult:
    return _bracket_claim("C5", "zeta1", params)


def _run_c6(params: dict) -> ClaimResult:
    return _bracket_claim("C6", "lie", params)


def _run_c7(params: dict) -> ClaimResult:
    return _bracket_claim("C7", "r", params)


def _run_c8(params: dict) -> ClaimResult:
    rows: List[Row] = []
    tols: List[float] = []
    ok_all = True
    for s in params["s_grid"]:
        s = float(s)
        u = laplace.expansion_argument(s)
        valid = 0.0 < u < 1.0
        seq = [laplace.er_partial(s, k) for k in range(1, 21)]
        # strictly decreasing until the terms drop below one ulp of the sum,
        # then the partials stall; never increasing is the observable reading
        monotone = all(b <= a for a, b in zip(seq, seq[1:])) and seq[1] < seq[0]
        closed = laplace.er_closed(s)
        diff = seq[-1] - closed
        good = valid and monotone and abs(diff) <= 1e-12
        ok_all &= good
        rows.append((s, seq[-1], closed, diff, good))
        tols.append(1e-12)
    return _result_from_rows("C8", "identity", params, rows, tols, extra_fail=not ok_all)


def _run_c9(params: dict) -> ClaimResult:
    limit = int(params["limit"])
    residuals = arith.pi_from_j_residuals(limit)
    i = int(np.argmax(residuals))
    worst = float(residuals[i])
    return ClaimResult(
        id="C9",
        kind="identity",
        params=params,
        max_abs_residual=worst,
        tolerance=1e-9,
        verdict="pass" if worst <= 1e-9 else "fail",
        arg_extremum=float(i + 2),
        rows=None,
    )


def _run_c10(params: dict) -> ClaimResult:
    limit = int(params["limit"])
    lam = np.zeros(limit + 1)
    for seg in iter_segments(0, limit, want_lam=True):
        lam[seg.lo : seg.hi + 1] = seg.lam
    cum_lam = np.cumsum(lam)
    cum_log = np.zeros(limit + 1)
    cum_log[1:] = np.cumsum(np.log(np.arange(1.0, limit + 1)))
    xs = np.arange(2, limit + 1, dtype=np.int64)
    lhs = np.zeros(xs.size)
    for k in range(1, limit + 1):
        idx = xs // k
        live = idx >= 2
        if not live.any():
            break
        lhs[live] += cum_lam[idx[live]]
    rel = np.abs(lhs - cum_log[xs]) / xs
    i = int(np.argmax(rel))
    worst = float(rel[i])
    return ClaimResult(
        id="C10",
        kind="identity",
        params=params,
        max_abs_residual=worst,
        tolerance=1e-6,
        verdict="pass" if worst <= 1e-6 else "fail",
        arg_extremum=float(xs[i]),
        rows=None,
    )


def _run_c11(params: dict) -> ClaimResult:
    rows: List[Row] = []
    for s in params["s_grid"]:
        s = float(s)
        br = laplace.laplace_pair("psi", s, limit=params.get("limit", DEFAULT_COMB_LIMIT))
        z = analytic.zeta_real(s)
        lo, hi = br.numeric_lo * s * z, br.numeric_hi * s * z
        target = -analytic.zeta_prime_real(s)
        rows.append((s, lo, hi, min(target - lo, hi - target), lo <= target <= hi))
    return _margin_verdict("C11", "identity", params, rows)


def _run_c12(params: dict) -> ClaimResult:
    xs = np.geomspace(params["x_lo"], params["x_hi"], int(params["points"]))
    half = xs / 2.0
    series = np.zeros_like(xs)
    term = np.ones_like(xs)
    for k in range(1, 41):
        term *= half / k
        series += term / k
    rhs_series = 3.0 * np.exp(0.5 * xs) / xs
    lhs3 = half + half ** 2 / 4.0 + half ** 3 / 18.0
    rhs3 = 3.0 * xs / 8.0 + xs ** 2 / 16.0 + xs ** 3 / 128.0
    rows: List[Row] = []
    for x, a, b in zip(xs, series, rhs_series):
        rows.append((float(x), float(a), float(b), float(b - a), a < b))
    for x, a, b in zip(xs, lhs3, rhs3):
        rows.append((float(x), float(a), float(b), float(b - a), a < b))
    return _margin_verdict("C12", "bound_scan", params, rows)


def _run_c13(params: dict) -> ClaimResult:
    xs = np.geomspace(params["x_lo"], params["x_hi"], int(params["points"]))
    rows: List[Row] = []
    for x in xs:
        x = float(x)
        v = comb.r_integral(x)
        rows.append((x, v, x / 2.0, x / 2.0 - v, v < x / 2.0))
    return _margin_verdict("C13", "bound_scan", params, rows)


def _run_c14(params: dict) -> ClaimResult:
    xs = np.geomspace(params["x_lo"], params["x_hi"], int(params["points"]))
    rows: List[Row] = []
    for x in xs:
        x = float(x)
        v = analytic.li_pv(math.sqrt(x))
        lo = 2.0 * math.sqrt(x) / math.log(x)
        hi = 4.0 * math.sqrt(x) / math.log(x)
        rows.append((x, lo, v, v - lo, lo < v))
        rows.append((x, v, hi, hi - v, v < hi))
    return _margin_verdict("C14", "bound_scan", params, rows)


def _run_c15(params: dict) -> ClaimResult:
    rows: List[Row] = []
    tols: List[float] = []
    for s in params["s_grid"]:
        s = float(s)
        lhs = analytic.zeta_real(s) / (s * (s - 1.0))
        rhs = 1.0 / (s - 1.0) ** 2 - analytic.R_of_s(s) / (s - 1.0)
        rows.append((s, lhs, rhs, lhs - rhs, abs(lhs - rhs) <= 1e-12))
        tols.append(1e-12)
    return _result_from_rows("C15", "identity", params, rows, tols)


def _run_m1(params: dict) -> ClaimResult:
    x_max = int(params["x_max"])
    samples = np.unique(np.geomspace(10, x_max, int(params["points"])).astype(np.int64))
    psi_at = np.zeros(samples.size)
    nlam_at = np.zeros(samples.size)
    nlam_before = KahanSum()  # sum of n Lambda(n) over the earlier segments
    for seg, psi_before in arith.step_segments("psi", x_max):
        in_seg = (samples >= seg.lo) & (samples <= seg.hi)
        nlam = seg.lam * np.arange(seg.lo, seg.hi + 1, dtype=np.float64)
        if in_seg.any():
            idx = samples[in_seg] - seg.lo
            psi_at[in_seg] = arith.segment_values("psi", seg, psi_before, idx)
            nlam_at[in_seg] = nlam_before.value + np.cumsum(nlam)[idx]
        nlam_before.add(float(np.sum(nlam)))
    one_plus_gamma = 1.0 + analytic.EULER_GAMMA
    rows: List[Row] = []
    for x, p, nl in zip(samples.astype(np.float64), psi_at, nlam_at):
        model = x - one_plus_gamma * math.log(x)
        rows.append((float(x), p, model, p - model, True))
        # running mean of psi(t) - t over (0, x]: (integral psi - x^2/2)/x
        run_mean = ((x * p - nl) - x * x / 2.0) / x
        rows.append((float(x), run_mean, 0.0, run_mean, True))
    return _report_result("M1", params, rows, measured=rows[0::2])


def _run_m2(params: dict) -> ClaimResult:
    kernel = laplace.ApproxKernel()
    rows: List[Row] = []
    for s in params["s_grid"]:
        s = float(s)
        rows.append((s, analytic.R_of_s(s), kernel.value(s), laplace.kernel_residual(s), True))
    return _report_result("M2", params, rows)


def _run_m3(params: dict) -> ClaimResult:
    rows: List[Row] = []
    for pid in ("ze2", "ze1.5"):
        for s in params["s_grid"]:
            s = float(s)
            br = laplace.laplace_pair(pid, s, limit=params.get("limit", DEFAULT_COMB_LIMIT))
            mid = 0.5 * (br.numeric_lo + br.numeric_hi)
            rows.append((s, mid, br.closed_form, br.closed_form - mid, True))
    return _report_result("M3", params, rows)


CLAIMS: Dict[str, Claim] = {}


def _register(claim: Claim) -> None:
    if claim.id in CLAIMS:
        raise ValueError(f"duplicate claim id {claim.id}")
    CLAIMS[claim.id] = claim


_register(Claim("C1", "identity", "log N! matches the Stirling model within 1/(100 N^3)",
                _run_c1, {"n_grid": N_DECADES}))
_register(Claim("C2", "identity", "remainder integral matches its asymptotic model within 1/N^2",
                _run_c2, {"n_grid": N_DECADES}))
_register(Claim("C3", "identity", "remainder at offset lattice points is exact; offset model within 1/N^2",
                _run_c3, {"n_grid": N_DECADES, "c_grid": C_GRID}))
_register(Claim("C4", "identity", "N H_N - N matches its asymptotic model within 1/N^2",
                _run_c4, {"n_grid": N_DECADES}))
_register(Claim("C5", "identity", "staircase transform bracket contains zeta(s)/s",
                _run_c5, {"s_grid": S_GRID, "limit": DEFAULT_COMB_LIMIT}))
_register(Claim("C6", "identity", "lie transform bracket contains -log(s-1)/s",
                _run_c6, {"s_grid": S_GRID}))
_register(Claim("C7", "identity", "remainder transform bracket contains 1/(s-1) - zeta(s)/s",
                _run_c7, {"s_grid": S_GRID}))
_register(Claim("C8", "identity", "log expansion of the error transform converges to its closed form",
                _run_c8, {"s_grid": S_GRID}))
_register(Claim("C9", "identity", "Mobius inversion of J recovers the prime count",
                _run_c9, {"limit": 100_000}))
_register(Claim("C10", "identity", "sum of psi(x/k) equals sum of log m",
                _run_c10, {"limit": 10_000}))
_register(Claim("C11", "identity", "zeta(s) times the psi-comb transform brackets -zeta'(s)",
                _run_c11, {"s_grid": S_GRID, "limit": DEFAULT_COMB_LIMIT}))
_register(Claim("C12", "bound_scan", "truncated half-argument series stays below 3 e^(x/2)/x past x=12",
                _run_c12, {"x_lo": 12.05, "x_hi": 40.0, "points": 200}))
_register(Claim("C13", "bound_scan", "remainder integral stays below x/2",
                _run_c13, {"x_lo": 1e-3, "x_hi": math.log(1e6), "points": 1000}))
_register(Claim("C14", "bound_scan", "li(sqrt x) sits between 2 sqrt(x)/log x and 4 sqrt(x)/log x from x=100",
                _run_c14, {"x_lo": 100.0, "x_hi": 1e8, "points": 500}))
_register(Claim("C15", "identity", "zeta(s)/(s(s-1)) equals 1/(s-1)^2 - R(s)/(s-1)",
                _run_c15, {"s_grid": S_GRID}))
_register(Claim("M1", "report_only", "residual of psi against its mean model, with running mean",
                _run_m1, {"x_max": 1_000_000, "points": 400}))
_register(Claim("M2", "report_only", "gap between R(s) and the rational kernel",
                _run_m2, {"s_grid": S_GRID}))
_register(Claim("M3", "report_only", "transform brackets of the two arithmetic-progression combs",
                _run_m3, {"s_grid": S_GRID, "limit": DEFAULT_COMB_LIMIT}))


def run_claim(claim_id: str, params: Optional[dict] = None) -> ClaimResult:
    """Execute one registry entry; deterministic for fixed params."""
    if claim_id not in CLAIMS:
        raise ValueError(f"unknown claim id {claim_id!r}; known: {', '.join(CLAIMS)}")
    claim = CLAIMS[claim_id]
    merged = dict(claim.defaults)
    if params:
        merged.update(params)
    return claim.runner(merged)


def run_all(params_by_id: Optional[Dict[str, dict]] = None) -> List[ClaimResult]:
    """Every claim in the catalog, in registry order."""
    out = []
    for cid in CLAIMS:
        out.append(run_claim(cid, (params_by_id or {}).get(cid)))
    return out


# ---------------------------------------------------------------------------
# report emission


def _json_safe(v):
    if isinstance(v, float) and not math.isfinite(v):
        return None  # empty scans have no extremum; NaN/inf are not valid JSON
    return v


def _json_params(params: dict) -> dict:
    out = {}
    for k, v in params.items():
        if isinstance(v, tuple):
            v = list(v)
        elif isinstance(v, np.ndarray):
            v = [float(t) for t in v]
        out[k] = _json_safe(v)
    return out


def _summary_obj(result: Union[ClaimResult, ScanReport]) -> dict:
    if isinstance(result, ClaimResult):
        return {
            "id": result.id,
            "kind": result.kind,
            "params": _json_params(result.params),
            "max_abs_residual": _json_safe(result.max_abs_residual),
            "tolerance": result.tolerance,
            "verdict": result.verdict,
            "arg_extremum": _json_safe(result.arg_extremum),
        }
    return {
        "id": result.bound_id,
        "kind": "bound_scan",
        "params": _json_params(result.params),
        "max_abs_residual": max(0.0, -result.min_margin) if result.n_rows else None,
        "tolerance": 0.0,
        "verdict": "pass" if result.passed else "fail",
        "arg_extremum": _json_safe(result.argmin_x),
    }


def render_json(results: Sequence[Union[ClaimResult, ScanReport]]) -> str:
    objs = sorted((_summary_obj(r) for r in results), key=lambda o: o["id"])
    return json.dumps(objs, sort_keys=True, separators=(",", ":"), ensure_ascii=False) + "\n"


def render_csv(results: Sequence[Union[ClaimResult, ScanReport]]) -> str:
    chunks = ["x,lhs,rhs,margin,pass\n"]
    def sort_key(r):
        return r.id if isinstance(r, ClaimResult) else r.bound_id
    for r in sorted(results, key=sort_key):
        rows = r.rows
        if rows is None:
            raise ValueError(
                f"result {sort_key(r)} holds no rows (streamed or summary-only); "
                "emit it as json or rerun with row retention"
            )
        for x, lhs, rhs, margin, ok in rows:
            chunks.append(
                f"{fmt17(x)},{fmt17(lhs)},{fmt17(rhs)},{fmt17(margin)},"
                f"{'true' if ok else 'false'}\n"
            )
    return "".join(chunks)


def emit_report(
    results: Sequence[Union[ClaimResult, ScanReport]],
    fmt: str,
    destination: Union[str, IO[str]],
) -> None:
    """Write results as CSV rows or a JSON summary array; '-' means stdout."""
    if not results:
        raise ValueError("no results to emit")
    if fmt == "csv":
        text = render_csv(results)
    elif fmt == "json":
        text = render_json(results)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if hasattr(destination, "write"):
        destination.write(text)
    elif destination == "-":
        sys.stdout.write(text)
    else:
        with open(destination, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
