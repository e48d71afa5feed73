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

import contextlib
import io
import json
import math
import sys
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial
from typing import Callable, Dict, IO, Iterator, Optional, Sequence, Tuple, Union

import numpy as np

from . import analytic, arith, comb, laplace
from .compensated import two_prod
from .sieve import iter_segments

N_DECADES = (2, 10, 100, 1000, 10000)
S_GRID = (1.5, 2.0, 3.0, 5.0, 10.0)
C_GRID = (0.0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875)
DEFAULT_COMB_LIMIT = 1e6
# the largest limit of a claim or comb whose work spans the whole range.  The
# weighted combs (C11's psi comb, mcomb, jcomb), C9 and C10 hold arrays that
# grow with it: C9 about 33 bytes per integer, so some 3.3 GB here.  The unit
# combs (C5, M3, zeta1, eta) hold none: only their time, linear in it, grows.
# C10's time is quadratic in its limit (about 1 s at 1e5), so it is admitted to
# this ceiling but not practical there
LIMIT_CEILING = 10 ** 8
M1_X_MIN = 10  # M1 samples x on a log grid from here


def fmt17(v: float) -> str:
    return format(float(v), ".17g")


def _rows(xs, lhs, rhs, margin, ok) -> np.ndarray:
    """Rows as one (n, 5) float64 array: x, lhs, rhs, margin and pass (1.0 or 0.0); scalars broadcast."""
    return np.stack(np.broadcast_arrays(xs, lhs, rhs, margin, ok), axis=1).astype(np.float64, copy=False)


def _below(xs, lhs, rhs) -> np.ndarray:
    """The rows of lhs < rhs: margin rhs - lhs."""
    return _rows(xs, lhs, rhs, rhs - lhs, lhs < rhs)


_CSV_HEADER = "x,lhs,rhs,margin,pass\n"
# rows per sink write: a chunk's temporaries (about 1 KB a row) stay in cache,
# and beside the sieve's two-segment mask a CSV scan's peak stays flat
_CSV_CHUNK = 1 << 10


@lru_cache(maxsize=1)
def _csv_tables() -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The CSV writer's tables; a word is a uint64 that holds 8 little-endian bytes.

    quads[q] is a word of the 4 ASCII digits of q < 10^4 in its low half,
    zeros[q] the number of those digits that end q (4 for q = 0), and
    pow10[p] = 10^p exactly, p <= 20.  masks[:, (k + 4) * 17 + t] lays out
    the 3 words of a field of decimal exponent k whose digits end in t
    zeros (see ``_fixed_words``): per word, the bytes taken from the digits
    moved one byte down, the bytes taken in place, and the '.'.
    """
    q = np.arange(10_000)
    digits = np.stack([q // 1000, q // 100 % 10, q // 10 % 10, q % 10], axis=1) + ord("0")
    quads = digits.astype(np.uint8).view("<u4").ravel().astype(np.uint64)
    zeros = sum(q % 10 ** j == 0 for j in range(1, 5)).astype(np.uint8)
    pow10 = np.array([float(10 ** p) for p in range(21)])  # exact: 10^p is a double for p <= 22
    k = np.arange(-4, 17)[:, None, None]
    last = 20 - np.arange(17)[:, None]  # the last digit of "0000" + N that shows
    b = np.arange(24)
    moved = (b >= 6 + np.minimum(k, 0)) & (b <= 6 + k)
    kept = (b >= 8 + k) & (b <= 3 + last)
    point = (b == 7 + k) & (last >= 5 + k)
    masks = np.stack(np.broadcast_arrays(moved * 0xFF, kept * 0xFF, point * ord("."))).astype(np.uint8)
    masks = masks.view("<u8").reshape(3, -1, 3).transpose(0, 2, 1).reshape(9, -1)
    return quads, zeros, pow10, masks.astype(np.uint64)


def _exponent_guess(a: np.ndarray) -> np.ndarray:
    """floor(log10(a)), which may be one off next to a power of ten: the exact digits correct it."""
    return np.floor(np.log10(a))


def _decade_step(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """-1, 0 or +1 as hi + lo lies below, in or above [1e16, 1e17)."""
    above = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    below = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    return above.astype(np.int64) - below


def _fixed_words(v: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The .17g text of the values of v that %g writes in fixed notation.

    Returns 3 words per value (a leading axis of 3), and a mask of the
    values whose words hold their text: those whose 17-digit rounding
    N 10^(k-16) has a decimal exponent k in -4..16.  For them hi + lo =
    |x| 10^(16-k) exactly (``two_prod``; 10^(16-k) is an exact double), k
    is corrected on that pair, and N = hi + rint(lo) rounds half to even,
    as hi >= 2^53 is even.

    Digit i of "0000" + N starts at byte 3 + i.  The integer digits (i = 4
    to 4 + k, or the one '0' at 4 + k for k < 0) move one byte down, the
    '.' takes byte 7 + k, and the fraction digits stay where they are, up
    to the last one that is not 0.  Every other byte is NUL: the zeros
    before the number, those ending its fraction, and the '.' of a whole
    number.  Byte 1 takes the sign and byte 0 is left free.
    """
    quads, zeros, pow10, masks = _csv_tables()
    a = np.abs(v)
    fixed = (a >= 1e-5) & (a < 1e18)  # exponents -5 to 17; NaN is neither
    np.copyto(a, 1.0, where=~fixed)
    k = np.clip(_exponent_guess(a), -4, 16).astype(np.intp)
    hi, lo = two_prod(a, pow10[16 - k])
    step = _decade_step(hi, lo)
    if step.any():
        k += step
        fixed &= (k >= -4) & (k <= 16)
        np.clip(k, -4, 16, out=k)
        hi, lo = two_prod(a, pow10[16 - k])
        fixed &= _decade_step(hi, lo) == 0
    n = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    # N = 10^17 would carry into k + 1.  No double rounds so (the largest
    # below 10^(k+1) is more than half a 17th digit below it); fmt17 has it.
    fixed &= n < 10 ** 17
    # N's digits as 1 + 4 x 4, by // (by a scalar numpy's // is fast, its %
    # is not); the groups of a value not in fixed notation stay below 10^4
    first9 = n // 10 ** 8
    last8 = n - first9 * 10 ** 8
    head = first9 // 10 ** 8
    mid8 = first9 - head * 10 ** 8
    g1, g3 = mid8 // 10 ** 4, last8 // 10 ** 4
    g2, g4 = mid8 - g1 * 10 ** 4, last8 - g3 * 10 ** 4
    z1, z2, z3, z4 = (zeros[g] for g in (g1, g2, g3, g4))
    trailing = np.where(last8, np.where(g4, z4, z3 + 4), np.where(g2, z2, z1 + 4) + 8)
    words = np.empty((3,) + v.shape, dtype=np.uint64)
    np.bitwise_or(quads[head] << 32, 0x30000000, out=words[0])
    np.bitwise_or(quads[g1], quads[g2] << 32, out=words[1])
    np.bitwise_or(quads[g3], quads[g4] << 32, out=words[2])
    m = masks[:, (k + 4) * 17 + trailing]
    out = words >> 8
    out[:2] |= words[1:] << 56
    out &= m[:3]
    words &= m[3:6]
    out |= words
    out |= m[6:]
    out[0] |= (v < 0) * np.uint64(ord("-") << 8)
    return out, fixed


def _write_csv(sink: IO[str], xs, lhs, rhs, margin, ok) -> None:
    """Write rows as CSV lines whose values read as ``fmt17`` prints them, _CSV_CHUNK rows a write.

    A line is formed as 17 words, NUL where no character goes: four fields
    of 4 words, each a comma (none before x) and a value's text of at most
    24 bytes, and ",true\n" or ",false\n".  A value outside %g's fixed
    notation takes its text from ``fmt17``.  The NULs are squeezed out.
    """
    cols = [np.asarray(c, dtype=np.float64) for c in (xs, lhs, rhs, margin)]
    ok = np.asarray(ok, dtype=bool)
    ends = np.array([int.from_bytes(b",false\n", "little"), int.from_bytes(b",true\n", "little")], dtype=np.uint64)
    for start in range(0, len(ok), _CSV_CHUNK):
        v = np.stack([c[start : start + _CSV_CHUNK] for c in cols])
        words, fixed = _fixed_words(v)
        words[0, 1:] |= np.uint64(ord(","))
        line = np.zeros((v.shape[1], 17), dtype="<u8")
        line[:, :16].reshape(-1, 4, 4)[:, :, :3] = words.transpose(2, 1, 0)
        line[:, 16] = ends[ok[start : start + _CSV_CHUNK].astype(np.intp)]
        text = line.view(np.uint8)
        col, row = np.nonzero(~fixed)
        if col.size:
            other = [("," if c else "") + fmt17(x) for c, x in zip(col, v[col, row])]
            text[:, :128].reshape(-1, 4, 32)[row, col] = np.array(other, dtype="S32").view(np.uint8).reshape(-1, 32)
        sink.write(text[text != 0].tobytes().decode("ascii"))


@dataclass(frozen=True)
class Claim:
    id: str
    kind: str  # identity | bound_scan | report_only
    statement: str
    runner: Callable[[dict], "Summary"]  # the ClaimResult fields after params
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
    rows: Optional[np.ndarray] = None  # (n, 5): x, lhs, rhs, margin, pass (1.0 or 0.0)

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
    rows: Optional[np.ndarray] = None  # (n, 5), as ClaimResult.rows

    @property
    def passed(self) -> bool:
        return self.n_failures == 0


class _RowCollector:
    """Streams rows to an optional sink, keeps all of them if asked, tracks extrema."""

    def __init__(self, sink: Optional[IO[str]], keep_rows: bool):
        self.sink = sink
        self.keep = keep_rows
        self.blocks = [np.empty((0, 5))]  # kept rows, one (k, 5) block per add_rows
        self.n_rows = 0
        self.n_failures = 0
        self.min_margin = math.inf
        self.argmin_x = math.nan
        if sink is not None:
            sink.write(_CSV_HEADER)

    @property
    def wants_rows(self) -> bool:
        return self.sink is not None or self.keep

    def add_margins(self, families: Sequence[Tuple[np.ndarray, np.ndarray]], passing: int = 0) -> None:
        """Summary of one block given as margin families (ascending xs, margins).

        The one place rows are counted and the minimum is taken.  ``passing``
        counts further rows that pass with a margin above some counted row's.
        A tie in the minimum goes to the smallest x, then to the earlier
        family, and across blocks to the earlier block: the first tied row in
        row order.
        """
        self.n_rows += passing
        best = None
        for xs, m in families:
            self.n_rows += len(m)
            self.n_failures += len(m) - int(np.count_nonzero(m > 0))
            if len(m):
                i = int(np.argmin(m))
                if best is None or (m[i], xs[i]) < best:
                    best = (m[i], xs[i])
        if best is not None and best[0] < self.min_margin:
            self.min_margin, self.argmin_x = float(best[0]), float(best[1])

    def add_rows(self, xs, lhs, rhs, margin) -> None:
        """Write and keep, as asked, rows whose margins ``add_margins`` has summarised."""
        ok = margin > 0
        if self.sink is not None:
            _write_csv(self.sink, xs, lhs, rhs, margin, ok)
        if self.keep:
            self.blocks.append(_rows(xs, lhs, rhs, margin, ok))


# ---------------------------------------------------------------------------
# bound scanners


@dataclass(frozen=True)
class _BoundDef:
    """One bound: the step minus its smooth side S(x) against c sqrt(x)/log x.

    S(x) is x when li_shift is None (B3), else li(x) - li_shift, with li from
    ``analytic.li_vec`` looked up per call.  Summary-only scans decide most
    rows from block floors (``_emit_decided_rows``).  conventions names the
    alternative li shifts that scan_bound's `convention` picks from.
    """

    bound_id: str
    statement: str
    step: str  # pi | psi | j
    min_x: int
    default_lo: float
    default_hi: float
    default_mode: str
    li_shift: Optional[float]
    # the bounds are c sqrt(x)/log x, or c sqrt(x) when per_log is false
    upper: float
    lower: Optional[float] = None
    per_log: bool = True
    conventions: Dict[str, float] = field(default_factory=dict)


_LI_AT_2 = analytic.li_pv(2.0)

_E12 = math.exp(12.0)

_BOUNDS: Dict[str, _BoundDef] = {}


def _register_bound(b: _BoundDef) -> None:
    _BOUNDS[b.bound_id] = b


_register_bound(
    _BoundDef(
        bound_id="B1",
        statement="|J(x) - li(x)| < 3 sqrt(x)/log x beyond x = e**12",
        step="j",
        min_x=2,
        default_lo=_E12,
        default_hi=1e8,
        default_mode="every_jump",
        li_shift=0.0,
        upper=3.0,
    )
)
_register_bound(
    _BoundDef(
        bound_id="B2",
        statement="-5 sqrt(x)/log x < pi(x) - li(x) < 2 sqrt(x)/log x",
        step="pi",
        min_x=2,
        default_lo=2.0,
        default_hi=1e7,
        default_mode="every_integer",
        li_shift=0.0,
        upper=2.0,
        lower=-5.0,
    )
)
_register_bound(
    _BoundDef(
        bound_id="B3",
        statement="|psi(x) - x| < 2 sqrt(x)",
        step="psi",
        min_x=1,
        default_lo=1.0,
        default_hi=1e7,
        default_mode="every_integer",
        li_shift=None,
        upper=2.0,
        per_log=False,
    )
)
_register_bound(
    _BoundDef(
        bound_id="B4",
        statement="|J(x) - (li(x) - li(2))| < 0.7 sqrt(x)/log x",
        step="j",
        min_x=2,
        default_lo=2.0,
        default_hi=1e7,
        default_mode="every_integer",
        li_shift=_LI_AT_2,
        upper=0.7,
        conventions={"offset": _LI_AT_2, "li": 0.0},
    )
)


def _bound_sides(bdef: _BoundDef, sqrt_x: np.ndarray, log_x: Optional[np.ndarray]):
    """Upper and lower bound (None if one-sided) from sqrt(x) and log x (read only if per_log)."""
    sides = []
    for c in (bdef.upper, bdef.lower):
        side = None if c is None else c * sqrt_x
        if side is not None and bdef.per_log:
            side /= log_x  # c * sqrt(x) / log(x), in that order
        sides.append(side)
    return sides


def _emit_bound_rows(
    bdef: _BoundDef,
    col: _RowCollector,
    xs: np.ndarray,
    right: np.ndarray,
    left: Optional[np.ndarray],
    jump_mask: Optional[np.ndarray],
) -> None:
    """Rows for one block of abscissae, ascending in x.

    Each margin family is formed once: value (right-limit) rows at every x,
    left-limit rows at the jumps only, and for a two-sided bound a lower row
    (lhs = lower bound, rhs = value) and an upper row (lhs = value, rhs =
    upper bound) per evaluation.  The collector summarises the families'
    margins, rhs - lhs.  If it wants no rows, the margins are formed in place
    and no row is formed.  Otherwise one stable sort on the abscissa's index
    puts the rows in order, and the collector writes or keeps them: at an
    abscissa the left-limit rows come before the value rows, and a lower row
    before its upper row.  The index, not x, orders a log grid that repeats x.
    """
    up, lo = _bound_sides(bdef, np.sqrt(xs), np.log(xs) if bdef.per_log else None)
    smooth = xs if bdef.li_shift is None else analytic.li_vec(xs) - bdef.li_shift
    evals = [(slice(None), right)]  # (selection of xs, step values), in row order at an x
    if jump_mask is not None and jump_mask.any():
        j = np.flatnonzero(jump_mask)
        evals.insert(0, (j, left[j]))
    fams, at = [], []  # (x, lhs, rhs) per family, and the selection of xs it sits at
    for sel, v in evals:
        d = v - smooth[sel]
        sides = [(np.abs(d, out=d), up[sel])] if lo is None else [(lo[sel], d), (d, up[sel])]
        fams += [(xs[sel], a, b) for a, b in sides]
        at += [sel] * len(sides)
    if not col.wants_rows:
        # each lhs is a temporary that no later family reads, so its margin overwrites it
        col.add_margins([(x, np.subtract(b, a, out=a)) for x, a, b in fams])
        return
    order = np.argsort(np.concatenate([np.arange(xs.size)[sel] for sel in at]), kind="stable")
    X, A, B = (np.concatenate(c)[order] for c in zip(*fams))
    M = B - A
    col.add_margins([(X, M)])
    col.add_rows(X, A, B, M)


# abscissae per block of rows read, formed and written at once: a block's
# per-row arrays are 128 KB, and none grows with the scan's range.  2^13
# wrote perfbench's emit_csv scan 13% slower; 2^15 held 1.3 MB more
_ROW_BLOCK = 1 << 14
_LI_BLOCK = 1 << 10  # integers per li interval block
_BLOCK = 64  # abscissae per block of the block pass
_SLACK = 1e-12  # relative and absolute rounding slack of a margin interval
# c sqrt(x)/log x increases past e**2 (and c sqrt(x) everywhere), so a block
# that starts at 8 or later has its tightest bound sides at its start
_MONOTONE_FROM = 8.0


def _li_grid(lo: float, hi: float) -> Tuple[np.ndarray, np.ndarray]:
    """Block starts a = lo + k * _LI_BLOCK up to hi, and li_vec at them."""
    a = lo + _LI_BLOCK * np.arange((hi - lo) // _LI_BLOCK + 1)
    return a, analytic.li_vec(a)


def _li_bounds(
    x: np.ndarray, log_x: np.ndarray, a: np.ndarray, li_a: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """lo, hi with lo <= li(x) <= hi for ascending x (log_x = log x), from the grid a, li_a = li(a).

    li is increasing and concave for x > 1 (li' = 1/log), so for x = a + h in
    the block that starts at a, li(a) + h/log(a + h) <= li(x) <= li(a) + h/log a.
    The bounds hold in real arithmetic for exact li(a); ``_slack`` covers the rest.
    """
    j0, j1 = np.searchsorted(a, [x[0], x[-1]], "right")
    a, li_a = a[j0 - 1 : j1], li_a[j0 - 1 : j1]
    counts = np.diff(np.searchsorted(x, a[1:]), prepend=0, append=x.size)
    h = x - np.repeat(a, counts)
    base = np.repeat(li_a, counts)
    lo = h / log_x
    lo += base
    h /= np.repeat(np.log(a), counts)
    h += base
    return lo, h


def _slack(magnitude: np.ndarray) -> np.ndarray:
    return _SLACK * magnitude + _SLACK


def _margin_floor(vmin, vmax, s_lo, s_hi, up, lo) -> np.ndarray:
    """Lowest margin of the rows with step values in [vmin, vmax] and smooth sides in [s_lo, s_hi]."""
    if lo is None:  # up - |v - S|
        return up - np.maximum(vmax - s_lo, s_hi - vmin)
    return np.minimum(vmin - s_hi - lo, up - (vmax - s_lo))  # v - S - lo and up - (v - S)


def _block_floors(
    bdef: _BoundDef, grid: Optional[Tuple[np.ndarray, np.ndarray]], first: tuple, last: tuple
) -> Tuple[np.ndarray, np.ndarray]:
    """Widened floor of every margin in each block [x0, x1], and a ceiling of one real row's margin.

    ``first`` and ``last`` are the rows (x, right, left, jump mask) at the
    blocks' first and last abscissae.  A block's step values, right and left
    limits alike, lie in [vmin, vmax]: the left limit at x0 and the value at
    x1, since pi, psi and J do not decrease.  Its smooth side S lies in
    [S_lo(x0), S_hi(x1)], li bounds from ``_li_bounds`` on ``grid`` less
    li_shift, as li increases; for B3, S = x is exact.  The bound sides are
    taken at x0, where they are tightest on a block that starts at 8 or
    later; a longer block that starts below 8 gets the floor -inf.  Every
    margin moves by at most |dS| when S does, so a row's margin lies in
    [m_lo, m_lo + w] over an S interval of width w.  The floor is widened by
    the slack 1e-12 (|S| + vmax + |bounds|) + 1e-12, at the block's largest
    magnitudes: it covers li_vec's error (under 1e-14 relative, against li(x)
    and li(a)), the rounding of the interval ends, and the few float
    operations that form a margin.  The ceiling is the floor of the rows at
    x0 (left limit vmin, value v0) plus w at x0 and the slack, so the lower
    of those two rows has a computed margin at or below it.  One-row blocks
    pass the same rows as first and last; their floor is that of the rows at x0.
    """
    def sides_at(x):
        log_x = np.log(x) if bdef.per_log or grid is not None else None
        if grid is None:
            s_lo = s_hi = x
        else:
            s_lo, s_hi = _li_bounds(x, log_x, *grid)
            s_lo -= bdef.li_shift
            s_hi -= bdef.li_shift
        return (s_lo, s_hi, *_bound_sides(bdef, np.sqrt(x), log_x))

    x0, v0, vmin, _ = first
    x1, vmax, _, _ = last
    one_row = last is first
    s_lo0, s_hi0, up0, lo0 = sides_at(x0)
    _, s_hi1, up1, lo1 = (s_lo0, s_hi0, up0, lo0) if one_row else sides_at(x1)
    at_x0 = _margin_floor(vmin, v0, s_lo0, s_hi0, up0, lo0)
    floor = at_x0 if one_row else _margin_floor(vmin, vmax, s_lo0, s_hi1, up0, lo0)
    mag = np.maximum(np.abs(s_lo0), np.abs(s_hi1)) + vmax + up1  # |vmin| <= vmax: step values >= 0
    if lo1 is not None:
        mag += np.abs(lo1)
    slack = _slack(mag)
    floor = floor - slack
    if not one_row:
        floor[x0 < _MONOTONE_FROM] = -np.inf
    return floor, at_x0 + (s_hi0 - s_lo0) + slack


def _emit_decided_rows(bdef: _BoundDef, col: _RowCollector, n: int, n_jumps: int, rows) -> None:
    """Summary of one segment, with exact margins only where the summary can depend on them.

    The segment holds n abscissae, n_jumps of them jumps.  ``rows(idx)``
    gives the abscissae, right limits, left limits and jump mask at
    ascending indices idx.  A block pass reads them at the two ends of every
    block of _BLOCK abscissae only and takes ``_block_floors``.  A block is
    skipped when its widened floor is strictly above max(0, cut), where cut
    is the lowest of the running minimum and the ceilings so far, each at or
    above a real row's margin.  The rows of every other block go
    to the row pass: the same floors on one-row blocks, and the same skip
    test.  The rows left go down the exact path: li_vec on their abscissae
    (x itself for B3), then ``_emit_bound_rows``.  A skipped row passes and
    its margin is above some real row's, which is never skipped, so it is
    neither a failure nor the first of the tied minima, and is only counted.
    li_vec is pointwise, so the exact rows have the bits of a full scan, and
    the collector takes the first of ties in ascending x: n_failures,
    min_margin and argmin_x are those of a full scan.
    """
    starts = np.arange(0, n, _BLOCK)
    ends = np.minimum(starts + _BLOCK, n) - 1
    first, last = rows(starts), rows(ends)
    grid = None if bdef.li_shift is None else _li_grid(first[0][0], last[0][-1])
    cut = col.min_margin

    def undecided(first, last):
        nonlocal cut
        floor, ceiling = _block_floors(bdef, grid, first, last)
        cut = min(cut, float(np.min(ceiling)))
        return ~(floor > max(0.0, cut))

    open_blocks = np.flatnonzero(undecided(first, last))
    n_exact = jumps_exact = 0
    if open_blocks.size:
        sel = (starts[open_blocks, None] + np.arange(_BLOCK)).ravel()
        one = rows(sel[sel < n])
        keep = undecided(one, one)
        if keep.any():
            xs, right, left, jump_mask = (c[keep] for c in one)
            _emit_bound_rows(bdef, col, xs, right, left, jump_mask)
            n_exact, jumps_exact = xs.size, int(np.count_nonzero(jump_mask))
    skipped = n - n_exact + n_jumps - jumps_exact
    col.add_margins([], passing=(1 if bdef.lower is None else 2) * skipped)


def _segment_rows(step: str, seg, before, a: int, hp, hi_i: int, levels, idx) -> tuple:
    """Abscissae, right and left limits and jump mask of a segment from a on, at offsets idx.

    The one reader of both sweep modes: every-integer scans pass offsets of
    every integer from a, every-jump scans offsets of the jumps only.  idx is
    a slice of contiguous offsets (a block of rows) or ascending offsets.
    ``hp`` holds J's k >= 2 jump offsets from a and their weights, and
    ``levels`` the segment's ``arith.segment_levels`` (or None: a read that
    needs them forms its own).  The base step and its jump sizes come from
    ``arith.segment_values`` and ``arith.segment_jumps``, which spread the
    levels over a slice or read them at ascending offsets (psi's two sparse
    reads share one ``seg.lam_rank``), and every other entry by the same
    elementwise operations.  So each entry has the bits of a read at every
    integer of the segment; J's k >= 2 terms are copies of the same table
    entries.
    """
    base = "psi" if step == "psi" else "pi"
    off = a - seg.lo
    if isinstance(idx, slice):
        at, rank = slice(idx.start + off, idx.stop + off), None
        idx = np.arange(idx.start, idx.stop)
    else:
        at = idx + off
        rank = seg.lam_rank(at) if base == "psi" else None  # one rank of the offsets serves both reads
    right = arith.segment_values(base, seg, before, at, rank, levels).astype(np.float64, copy=False)
    w = arith.segment_jumps(base, seg, at, rank, levels)
    xs = idx + float(a)
    if step == "j":
        # k >= 2 powers are never prime, so each lands on a zero weight
        hp_offs, hp_w = hp
        p = np.searchsorted(idx, hp_offs)
        found = p < idx.size
        found[found] = idx[p[found]] == hp_offs[found]
        w[p[found]] += hp_w[found]
        right += arith.j_higher_terms(xs, hi_i)
    return xs, right, right - w, w > 0


def _scan_stream(bdef: _BoundDef, lo: float, hi: float, jumps_only: bool, col: _RowCollector) -> None:
    """every_integer / every_jump engine: one sweep of sieve segments.

    Both modes read a segment through ``_segment_rows``: every_integer at
    every integer, every_jump at the list of its jump offsets (the primes,
    or the nonzero Lambda for psi, merged with J's k >= 2 powers).  A scan
    with a sink or kept rows forms every row (``_emit_bound_rows``), one
    block of _ROW_BLOCK abscissae at a time, so no per-row array spans a
    segment; every row of an abscissa falls in its block.  Any other scan
    forms no rows and takes ``_emit_decided_rows``: margins are exact only
    where block and row floors cannot decide them, and step values, J's
    k >= 2 terms and the per-abscissa arrays are read only at block ends and
    in undecided blocks.
    """
    lo_i = max(int(math.ceil(lo)), bdef.min_x)
    hi_i = int(math.floor(hi))
    if hi_i < lo_i:
        return
    base = "psi" if bdef.step == "psi" else "pi"
    # a scan that forms every row reads a segment in blocks; those that read
    # the segment's levels (every-integer blocks, and psi's every-jump blocks
    # at their ranks) share one forming of them per segment.  Summary-only
    # reads form their own: psi's levels held for a whole segment (0.6 MB)
    # raised those scans' peak
    with_levels = col.wants_rows and (base == "psi" or not jumps_only)
    hp = None
    if bdef.step == "j":
        hp_vals, hp_wts, _ = arith.higher_power_jumps(hi_i)
    for seg, before in arith.step_segments(base, hi_i, lo=lo_i):
        a = max(lo_i, seg.lo)
        off = a - seg.lo
        if bdef.step == "j":
            i0, i1 = np.searchsorted(hp_vals, [a, seg.hi + 1])
            hp = hp_vals[i0:i1] - a, hp_wts[i0:i1]
        levels = arith.segment_levels(base, seg) if with_levels else None
        read = partial(_segment_rows, bdef.step, seg, before, a, hp, hi_i, levels)
        if jumps_only:
            # the segment's jump offsets from a: its nonzero Lambda, or its primes
            nz = seg.lam_nonzero if base == "psi" else seg.prime_offsets()
            offs = nz[np.searchsorted(nz, off) :] - off
            if hp is not None:
                # no k >= 2 power is prime: merge the two ascending lists
                offs = np.insert(offs, np.searchsorted(offs, hp[0]), hp[0])
            rows = lambda idx: read(offs[idx])
            n = n_jumps = offs.size
        else:
            rows = read
            n = seg.hi + 1 - a
            if base == "psi":
                n_jumps = seg.lam_nonzero.size - int(np.searchsorted(seg.lam_nonzero, off))
            else:
                n_jumps = seg.n_primes - int(seg.count_primes(np.array([off - 1]))[0])
            n_jumps += 0 if hp is None else hp[0].size
        if not n:
            continue
        if col.wants_rows:
            for start in range(0, n, _ROW_BLOCK):
                _emit_bound_rows(bdef, col, *rows(slice(start, min(start + _ROW_BLOCK, n))))
        else:
            _emit_decided_rows(bdef, col, n, n_jumps, rows)


def _scan_log_grid(bdef: _BoundDef, lo: float, hi: float, points: int, col: _RowCollector) -> None:
    """log_grid engine: one sparse read of the step at every point, then rows one block at a time."""
    lo = max(lo, float(bdef.min_x))
    if lo > hi:
        return
    xs = np.geomspace(lo, hi, points)
    step_vals = arith.step_at(bdef.step, np.floor(xs).astype(np.int64))
    for start in range(0, points, _ROW_BLOCK):
        block = slice(start, start + _ROW_BLOCK)
        _emit_bound_rows(bdef, col, xs[block], step_vals[block], None, None)


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
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"scan range must be finite, got [{lo}, {hi}]")
    if hi < lo:
        raise ValueError("inverted scan range")
    if mode == "log_grid" and points < 1:
        raise ValueError("log_grid needs points >= 1")
    if convention is not None:
        if convention not in bdef.conventions:
            known = ", ".join(bdef.conventions) or "none; only B4 takes one"
            raise ValueError(f"unknown convention {convention!r} for {bound_id}; known: {known}")
        bdef = replace(bdef, li_shift=bdef.conventions[convention])
    if keep_rows is None:
        keep_rows = (hi - lo) <= 50_000 or mode == "log_grid"
    col = _RowCollector(row_sink, keep_rows)

    if mode in ("every_integer", "every_jump"):
        _scan_stream(bdef, lo, hi, mode == "every_jump", col)
    elif mode == "log_grid":
        _scan_log_grid(bdef, lo, hi, points, col)
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
        rows=np.concatenate(col.blocks) if keep_rows else None,
    )


# ---------------------------------------------------------------------------
# identity and report claims

# what a runner returns: max_abs_residual, tolerance, verdict, arg_extremum, rows
Summary = Tuple[float, float, str, float, Optional[np.ndarray]]


def _verdict(
    xs: Sequence[float], residuals, tolerance, passed: Optional[bool], rows: Optional[np.ndarray] = None
) -> Summary:
    """The one verdict rule: the largest residual, its tolerance and its x.

    residuals hold one value >= 0 per x, tolerance is one float or one per x,
    and passed is the verdict (None for a report).  The first of the largest
    residuals counts, and a NaN counts as the largest (``np.argmax``), so a
    claim that fails on a NaN names that row.  With no residuals the result
    is 0 with tolerance 0 at x = NaN.
    """
    verdict = "report" if passed is None else "pass" if passed else "fail"
    r = np.asarray(residuals, dtype=np.float64)
    if not r.size:
        return 0.0, 0.0, verdict, math.nan, rows
    i = int(np.argmax(r))
    return float(r[i]), float(np.broadcast_to(tolerance, r.shape)[i]), verdict, float(xs[i]), rows


def _as_rows(rows) -> np.ndarray:
    """Rows, an (n, 5) array or a list of n (x, lhs, rhs, margin, pass) tuples, as an (n, 5) float64 array."""
    rows = np.asarray(rows, dtype=np.float64)
    return rows if rows.size else rows.reshape(0, 5)


def _identity_rule(rows, tolerance, passed: bool = True) -> Summary:
    """Rows compared within a tolerance each: the largest |residual| and that row's tolerance."""
    rows = _as_rows(rows)
    return _verdict(rows[:, 0], np.abs(rows[:, 3]), tolerance, passed and bool(rows[:, 4].all()), rows)


def _escapes(rows: np.ndarray) -> np.ndarray:
    """How far each margin sits below 0: -margin, or +0.0 for a margin >= 0; NaN stays NaN."""
    return np.where(rows[:, 3] >= 0, 0.0, -rows[:, 3])


def _margin_rule(rows) -> Summary:
    """Rows that must keep a positive margin: the deepest escape, or 0 at the first row."""
    rows = _as_rows(rows)
    return _verdict(rows[:, 0], _escapes(rows), 0.0, bool(rows[:, 4].all()), rows)


def _report_rule(rows, measured: Optional[np.ndarray] = None) -> Summary:
    """Report-only: the largest |residual| over the measured rows (all rows unless given)."""
    rows = _as_rows(rows)
    measured = rows if measured is None else measured
    return _verdict(measured[:, 0], np.abs(measured[:, 3]), 0.0, None, rows)


def _model_claim(model_fn, params: dict) -> Summary:
    rows, tols = [], []
    for n in params["n_grid"]:
        pair = model_fn(int(n))
        rows.append(
            (float(n), pair.exact, pair.model, pair.residual, abs(pair.residual) <= pair.tolerance)
        )
        tols.append(pair.tolerance)
    return _identity_rule(rows, tols)


def _run_c1(params: dict) -> Summary:
    n = np.asarray(params["n_grid"], dtype=np.int64)
    pair = analytic.stirling_model(n)
    passed = np.abs(pair.residual) <= pair.tolerance
    return _identity_rule(np.column_stack((n, pair.exact, pair.model, pair.residual, passed)), pair.tolerance)


def _run_c2(params: dict) -> Summary:
    rows, tols = [], []
    for n in params["n_grid"]:
        n = int(n)
        direct = comb.r_integral(math.log(n))
        model = comb.r_integral_model(n, 0.0)
        tol = 1.0 / n ** 2
        rows.append((float(n), direct, model, direct - model, abs(direct - model) <= tol))
        tols.append(tol)
    return _identity_rule(rows, tols)


def _run_c3(params: dict) -> Summary:
    rows, tols = [], []
    exact_ok = True  # the remainder at N + c is exactly c
    for n in params["n_grid"]:
        n = int(n)
        for c in params["c_grid"]:
            a = n + c
            rv = comb.r_value_ordinate(a)
            exact_ok &= rv == c
            direct = comb.r_integral(math.log(a)) - rv
            model = comb.r_integral_model(n, c)
            tol = 1.0 / n ** 2
            rows.append((a, direct, model, direct - model, abs(direct - model) <= tol))
            tols.append(tol)
    return _identity_rule(rows, tols, passed=exact_ok)


def _run_c4(params: dict) -> Summary:
    return _model_claim(analytic.harmonic_model, params)


def _bracket_rows(pair_id: str, params: dict) -> np.ndarray:
    rows = []
    for s in params["s_grid"]:
        br = laplace.laplace_pair(pair_id, float(s), limit=params.get("limit", DEFAULT_COMB_LIMIT))
        # row margin: distance from the closed form to the nearer bracket edge
        lo_gap = br.closed_form - br.numeric_lo
        hi_gap = br.numeric_hi - br.closed_form
        rows.append((float(s), br.numeric_lo, br.numeric_hi, min(lo_gap, hi_gap), br.contains()))
    return _as_rows(rows)


def _run_c5(params: dict) -> Summary:
    return _margin_rule(_bracket_rows("zeta1", params))


def _run_c6(params: dict) -> Summary:
    rows = _bracket_rows("lie", params)
    # the bracket at s = 2 must also be narrower than 1e-6; a wider one fails
    # C6, and its excess width is that row's residual where above its escape
    s, lo, hi = rows[:, :3].T
    excess = np.where(s == 2.0, hi - lo - 1e-6, -1.0)
    passed = bool(rows[:, 4].all()) and excess.max(initial=-1.0) < 0.0
    return _verdict(s, np.maximum(_escapes(rows), excess), 0.0, passed, rows)


def _run_c7(params: dict) -> Summary:
    return _margin_rule(_bracket_rows("r", params))


def _run_c8(params: dict) -> Summary:
    rows = []
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
        rows.append((s, seq[-1], closed, diff, valid and monotone and abs(diff) <= 1e-12))
    return _identity_rule(rows, 1e-12)


def _run_c9(params: dict) -> Summary:
    residuals = arith.pi_from_j_residuals(int(params["limit"]))  # at x = 2, 3, ...
    return _verdict(range(2, residuals.size + 2), residuals, 1e-9, bool(residuals.max() <= 1e-9))


def _c10_residuals(limit: int) -> Tuple[np.ndarray, np.ndarray]:
    """x = 2..limit and |sum_k psi(x // k) - log x!| / x, k added in ascending order.

    lhs is indexed by x.  On [m k, (m + 1) k) every x has x // k = m, so each k
    adds psi(m) to whole rows of length k for m = 2..q - 1, q = limit // k, and
    psi(q) to the partial row from q k; x < 2 k would add psi(0) = psi(1) = 0.
    Every x receives the same psi values in the same order as from a per-x
    gather, so the sums keep their bits.  Still quadratic in limit: some
    limit**2 / 4 adds.
    """
    lam = np.zeros(limit + 1)
    for seg in iter_segments(0, limit, want_lam=True):
        lam[seg.lo + seg.lam_nonzero] = seg.lam_values
    cum_lam = np.cumsum(lam)
    cum_log = np.zeros(limit + 1)
    cum_log[1:] = np.cumsum(np.log(np.arange(1.0, limit + 1)))
    lhs = np.zeros(limit + 1)
    for k in range(1, limit // 2 + 1):
        q = limit // k
        if q > 2:
            rows = lhs[2 * k : q * k].reshape(q - 2, k)
            rows += cum_lam[2:q, None]
        lhs[q * k :] += cum_lam[q]
    xs = np.arange(2, limit + 1, dtype=np.int64)
    return xs, np.abs(lhs[2:] - cum_log[2:]) / xs


def _run_c10(params: dict) -> Summary:
    xs, residuals = _c10_residuals(int(params["limit"]))
    return _verdict(xs, residuals, 1e-6, bool(residuals.max() <= 1e-6))


def _run_c11(params: dict) -> Summary:
    rows = []
    for s in params["s_grid"]:
        s = float(s)
        br = laplace.laplace_pair("psi", s, limit=params.get("limit", DEFAULT_COMB_LIMIT))
        z = analytic.zeta_real(s)
        lo, hi = br.numeric_lo * s * z, br.numeric_hi * s * z
        target = -analytic.zeta_prime_real(s)
        rows.append((s, lo, hi, min(target - lo, hi - target), lo <= target <= hi))
    return _margin_rule(rows)


def _c12_bound(x):
    """C12's bound on its series, 3 e^(x/2) / x; 3 e^(x/2) overflows to inf past x ~ 1417.4."""
    return 3.0 * np.exp(0.5 * x) / x


@lru_cache(maxsize=1)
def _c12_x_max() -> float:
    """The largest double x at which ``_c12_bound`` is finite."""
    x = 2.0 * math.log(sys.float_info.max / 3.0)
    with np.errstate(over="ignore"):
        while not np.isfinite(_c12_bound(x)):
            x = math.nextafter(x, 0.0)
        while np.isfinite(_c12_bound(math.nextafter(x, math.inf))):
            x = math.nextafter(x, math.inf)
    return x


def _run_c12(params: dict) -> Summary:
    if params["x_hi"] > _c12_x_max():
        # past it every row would pass against an infinite bound
        raise ValueError(
            f"C12's x_hi {fmt17(params['x_hi'])} is past {fmt17(_c12_x_max())}, "
            "where its bound 3 e^(x/2)/x overflows"
        )
    xs = np.geomspace(params["x_lo"], params["x_hi"], int(params["points"]))
    half = xs / 2.0
    series = np.zeros_like(xs)
    term = np.ones_like(xs)
    for k in range(1, 41):
        term *= half / k
        series += term / k
    rhs_series = _c12_bound(xs)
    lhs3 = half + half ** 2 / 4.0 + half ** 3 / 18.0
    rhs3 = 3.0 * xs / 8.0 + xs ** 2 / 16.0 + xs ** 3 / 128.0
    return _margin_rule(np.concatenate([_below(xs, series, rhs_series), _below(xs, lhs3, rhs3)]))


def _run_c13(params: dict) -> Summary:
    xs = np.geomspace(params["x_lo"], params["x_hi"], int(params["points"]))
    return _margin_rule(_below(xs, comb.r_integral(xs), xs / 2.0))


def _run_c14(params: dict) -> Summary:
    # li_vec's 1e-14 relative error is far inside the closest margin (12.9%
    # of li at x = 1e8, 1.82 absolute at x = 100), so no verdict can flip
    xs = np.geomspace(params["x_lo"], params["x_hi"], int(params["points"]))
    root = np.sqrt(xs)
    li = analytic.li_vec(root)
    lo = 2.0 * root / np.log(xs)
    hi = 4.0 * root / np.log(xs)
    # per x, the lower row then the upper row
    return _margin_rule(np.stack([_below(xs, lo, li), _below(xs, li, hi)], axis=1).reshape(-1, 5))


def _run_c15(params: dict) -> Summary:
    rows = []
    for s in params["s_grid"]:
        s = float(s)
        lhs = analytic.zeta_real(s) / (s * (s - 1.0))
        rhs = 1.0 / (s - 1.0) ** 2 - analytic.R_of_s(s) / (s - 1.0)
        rows.append((s, lhs, rhs, lhs - rhs, abs(lhs - rhs) <= 1e-12))
    return _identity_rule(rows, 1e-12)


def _scatter_leaf(at: np.ndarray, values: np.ndarray):
    """A ``laplace._pairwise_sum`` leaf over zeros with values at the ascending offsets at."""
    buf = np.empty(laplace._LEAF)

    def leaf(m0: int, n: int) -> float:
        out = buf[:n]
        out.fill(0.0)
        a, b = np.searchsorted(at, (m0, m0 + n))
        out[at[a:b] - m0] = values[a:b]
        return np.sum(out)

    return leaf


def _run_m1(params: dict) -> Summary:
    x_max = int(params["x_max"])
    samples = np.sort(np.geomspace(M1_X_MIN, x_max, int(params["points"])).astype(np.int64))
    # np.unique's first call imports numpy.ma, about 10 ms of a cold check --all
    samples = samples[np.diff(samples, prepend=-1) != 0]
    psi_at = np.zeros(samples.size)
    nlam_at = np.zeros(samples.size)
    nlam_totals = []  # sum of n Lambda(n) in each earlier segment
    for seg, psi_before in arith.step_segments("psi", x_max):
        in_seg = (samples >= seg.lo) & (samples <= seg.hi)
        nlam = seg.lam_values * (seg.lam_nonzero + float(seg.lo))  # n Lambda(n) at Lambda's jumps
        total = float(laplace._pairwise_sum(_scatter_leaf(seg.lam_nonzero, nlam), len(seg)))
        if in_seg.any():
            idx = samples[in_seg] - seg.lo
            rank = seg.lam_rank(idx)
            psi_at[in_seg] = arith.segment_values("psi", seg, psi_before, idx, rank)
            # adding 0.0 leaves a running sum unchanged, so these are the running
            # sums over every integer of the segment, read at the jumps
            levels = np.zeros(nlam.size + 1)
            np.cumsum(nlam, out=levels[1:])
            nlam_at[in_seg] = math.fsum(nlam_totals) + levels[rank]
        nlam_totals.append(total)
    x = samples.astype(np.float64)
    # math.log, not np.log: np.log is not correctly rounded and its SIMD path varies by host
    model = x - (1.0 + analytic.EULER_GAMMA) * np.array([math.log(t) for t in x.tolist()])
    # running mean of psi(t) - t over (0, x]: (integral psi - x^2/2)/x
    run_mean = ((x * psi_at - nlam_at) - x * x / 2.0) / x
    per_x = [_rows(x, psi_at, model, psi_at - model, True), _rows(x, run_mean, 0.0, run_mean, True)]
    rows = np.stack(per_x, axis=1).reshape(-1, 5)
    return _report_rule(rows, measured=rows[0::2])


def _run_m2(params: dict) -> Summary:
    rows = []
    for s in params["s_grid"]:
        s = float(s)
        r, kernel = analytic.R_of_s(s), laplace.approx_kernel(s)
        rows.append((s, r, kernel, r - kernel, True))
    return _report_rule(rows)


def _run_m3(params: dict) -> Summary:
    rows = []
    for pid in ("ze2", "ze1.5"):
        for s in params["s_grid"]:
            s = float(s)
            br = laplace.laplace_pair(pid, s, limit=params.get("limit", DEFAULT_COMB_LIMIT))
            mid = 0.5 * (br.numeric_lo + br.numeric_hi)
            rows.append((s, mid, br.closed_form, br.closed_form - mid, True))
    return _report_rule(rows)


CLAIMS: Dict[str, Claim] = {}
# claims that summarise one residual per integer and keep no rows, so have no CSV
ROWLESS_CLAIMS = frozenset({"C9", "C10"})
NO_CLAIM_CSV = "claim {} keeps no rows, so it has no CSV; emit it as json"


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
_register(Claim("C15", "identity", "rounding of zeta(s)/(s(s-1)) = 1/(s-1)^2 - R(s)/(s-1), an identity "
                "by algebra since R(s) is 1/(s-1) - zeta(s)/s",
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
    return ClaimResult(claim.id, claim.kind, merged, *claim.runner(merged))


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
    text = io.StringIO()
    text.write(_CSV_HEADER)
    def sort_key(r):
        return r.id if isinstance(r, ClaimResult) else r.bound_id
    for r in sorted(results, key=sort_key):
        if r.rows is None:
            raise ValueError(
                NO_CLAIM_CSV.format(r.id)
                if isinstance(r, ClaimResult)
                else f"result {r.bound_id} holds no rows (streamed or summary-only); "
                "emit it as json or rerun with row retention"
            )
        _write_csv(text, *r.rows[:, :4].T, r.rows[:, 4] != 0)
    return text.getvalue()


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
    with open_text(destination) as fh:
        fh.write(text)


@contextlib.contextmanager
def open_text(destination: Union[str, IO[str]]) -> Iterator[IO[str]]:
    """A text stream as it is given, stdout for '-', else the named file written with LF endings."""
    if hasattr(destination, "write"):
        yield destination
    elif destination == "-":
        yield sys.stdout
    else:
        with open(destination, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
