"""Independent oracle for the offset bound |J(x) - Li(x)| < 0.7 sqrt(x)/log x.

Li(x) = li(x) - li(2), and J(x) = sum over prime powers p**k <= x of 1/k.
This module imports nothing from zetalab, so a fault in the package cannot
hide behind a shared helper:

- prime counts come from a plain segmented sieve of Eratosthenes in numpy;
- J(n) = sum_k pi(floor(n**(1/k)))/k with exact integer k-th roots, and the
  left limit at an integer x is J(x - 1), not J(x) minus a jump weight;
- Li in float is scipy.special.expi(log x) - mpmath.li(2);
- `exact_margin` redoes one row at 30 digits with mpmath.li, sympy.primepi
  and sympy.integer_nthroot, sharing nothing with the float path above;
- `dense_arrays` spreads a sieve segment's jump lists over every integer of
  it, for tests that check them against trial division.

Rows follow the scanner's CSV layout: (x, lhs, rhs, margin, pass) with
lhs = |J - Li|, rhs = the bound, margin = rhs - lhs, pass = margin > 0.  In
every-integer mode a jump abscissa gets a left-limit row before its value row.
"""

import math
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

import numpy as np
import pytest
from scipy import special

mpmath = pytest.importorskip("mpmath")
sympy = pytest.importorskip("sympy")

LI_AT_2 = float(mpmath.li(2))
BOUND_CONSTANT = 0.7
SEGMENT = 1 << 20
NEAR = 1e-3  # rows closer than this to the bound are redone by `exact_margin`
EXACT_DPS = 30


def bound(xs: np.ndarray) -> np.ndarray:
    return BOUND_CONSTANT * np.sqrt(xs) / np.log(xs)


def offset_li(xs: np.ndarray) -> np.ndarray:
    return special.expi(np.log(xs)) - LI_AT_2


def small_primes(n: int) -> np.ndarray:
    flags = np.ones(n + 1, dtype=bool)
    flags[: min(2, n + 1)] = False
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags)


def prime_segments(hi: int, size: int = SEGMENT) -> Iterator[Tuple[int, np.ndarray]]:
    """(a, flags) with flags[i] = (a + i is prime), covering [0, hi]."""
    odd_primes = [int(p) for p in small_primes(math.isqrt(hi))[1:]]
    for a in range(0, hi + 1, size):
        b = min(a + size, hi + 1)
        flags = np.ones(b - a, dtype=bool)
        flags[a % 2 :: 2] = False  # even numbers
        for n, prime in ((1, False), (2, True)):
            if a <= n < b:
                flags[n - a] = prime
        for p in odd_primes:
            if p * p >= b:
                break
            start = max(p * p, -(-a // p) * p)
            if start % 2 == 0:
                start += p
            flags[start - a :: 2 * p] = False  # odd multiples only
        yield a, flags


def dense_arrays(seg) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Primality (bool) and Lambda (float64, or None if the segment has none) of
    every integer in [seg.lo, seg.hi], zeros filled in from the segment's jump
    lists: ``prime_offsets()``, and ``lam_nonzero`` with ``lam_values``."""
    is_prime = np.zeros(seg.hi - seg.lo + 1, dtype=bool)
    is_prime[seg.prime_offsets()] = True
    if seg.lam_values is None:
        return is_prime, None
    lam = np.zeros(is_prime.size)
    lam[seg.lam_nonzero] = seg.lam_values
    return is_prime, lam


class _HigherTerms:
    """H(n) = J(n) - pi(n) = sum_{k >= 2} pi(iroot(n, k))/k for 0 <= n <= limit.

    iroot(n, k) = floor(n**(1/k)) is counted exactly, as the number of m >= 1
    with m**k <= n, against a table of integer k-th powers.
    """

    def __init__(self, limit: int):
        top = math.isqrt(limit) + 1
        flags = np.zeros(top + 1, dtype=bool)
        flags[small_primes(top)] = True
        self.pi_small = np.cumsum(flags)
        self.powers = []
        k = 2
        while 2**k <= limit:
            m = np.arange(1, int(round(limit ** (1.0 / k))) + 2, dtype=np.int64)
            self.powers.append((k, m**k))
            k += 1

    def __call__(self, ns: np.ndarray) -> np.ndarray:
        out = np.zeros(len(ns), dtype=np.float64)
        for k, powers in self.powers:
            out += self.pi_small[np.searchsorted(powers, ns, side="right")] / k
        return out


@dataclass
class OracleScan:
    """Verdict of the offset bound over one range, as the scanner should report it."""

    n_rows: int = 0
    n_failures: int = 0
    min_margin: float = math.inf
    argmin_x: float = math.nan
    # (x, margin, is_left_limit) for every failing row
    failures: List[Tuple[float, float, bool]] = field(default_factory=list)
    # (x, margin, is_left_limit) for every row with |margin| < NEAR
    near: List[Tuple[float, float, bool]] = field(default_factory=list)
    rows: Optional[np.ndarray] = None  # (n_rows, 5) when kept

    def _add(self, xs, lhs, is_left, keep: Optional[List[np.ndarray]]) -> None:
        rhs = bound(xs)
        margin = rhs - lhs
        self.n_rows += len(xs)
        bad = margin <= 0
        self.n_failures += int(bad.sum())
        if len(xs):
            i = int(np.argmin(margin))
            if margin[i] < self.min_margin:
                self.min_margin = float(margin[i])
                self.argmin_x = float(xs[i])
        for sel, out in ((bad, self.failures), (np.abs(margin) < NEAR, self.near)):
            out.extend(zip(xs[sel].tolist(), margin[sel].tolist(), is_left[sel].tolist()))
        if keep is not None:
            keep.append(np.column_stack([xs, lhs, rhs, margin, margin > 0]))


def scan_integers(lo: int, hi: int, keep_rows: bool = False) -> OracleScan:
    """Every integer x in [lo, hi], plus the left limit at each jump of J."""
    lo = max(lo, 2)
    higher = _HigherTerms(hi)
    res = OracleScan()
    keep: Optional[List[np.ndarray]] = [] if keep_rows else None
    pi_before = 0  # pi(a - 1) at the start of each segment
    for a, flags in prime_segments(hi):
        # pi_seg[i] = pi(a - 1 + i), for i in [0, len(flags)]
        pi_seg = np.concatenate(([pi_before], pi_before + np.cumsum(flags, dtype=np.int64)))
        b = a + len(flags) - 1
        pi_before = int(pi_seg[-1])
        if b < lo:
            continue
        # J at ns - 1 and ns, for ns = max(lo, a) .. b
        ns = np.arange(max(lo, a) - 1, b + 1, dtype=np.int64)
        j = pi_seg[ns - a + 1] + higher(ns)
        j_prev, j_n = j[:-1], j[1:]
        xs = ns[1:].astype(np.float64)
        li = offset_li(xs)
        jump = j_n > j_prev
        # interleave: left-limit row first at a jump, then the value row
        slots = 1 + jump.astype(np.int64)
        ends = np.cumsum(slots)
        total = int(ends[-1])
        X = np.empty(total)
        L = np.empty(total)
        left = np.zeros(total, dtype=bool)
        X[ends - 1], L[ends - 1] = xs, np.abs(j_n - li)
        lpos = ends[jump] - 2
        X[lpos], L[lpos], left[lpos] = xs[jump], np.abs(j_prev[jump] - li[jump]), True
        res._add(X, L, left, keep)
    if keep_rows:
        res.rows = np.concatenate(keep) if keep else np.empty((0, 5))
    return res


def scan_log_grid(lo: float, hi: float, points: int) -> OracleScan:
    """`points` log-spaced abscissae from lo to hi, J taken at floor(x)."""
    xs = np.geomspace(max(lo, 2.0), hi, points)
    ns = np.floor(xs).astype(np.int64)
    top = int(ns.max())
    pi_n = np.empty(len(ns), dtype=np.int64)
    pi_before = 0
    for a, flags in prime_segments(top):
        b = a + len(flags) - 1
        i0, i1 = np.searchsorted(ns, [a, b + 1])
        if i1 > i0:
            pi_n[i0:i1] = pi_before + np.cumsum(flags, dtype=np.int64)[ns[i0:i1] - a]
        pi_before += int(np.count_nonzero(flags))
    j_n = pi_n + _HigherTerms(top)(ns)
    res = OracleScan()
    keep: List[np.ndarray] = []
    res._add(xs, np.abs(j_n - offset_li(xs)), np.zeros(len(xs), dtype=bool), keep)
    res.rows = keep[0]
    return res


def exact_margin(x: float, is_left_limit: bool = False):
    """One row's margin at EXACT_DPS digits: mpmath.li plus sympy's prime counts.

    For a left-limit row J is taken at x - 1 (x is then an integer jump).
    """
    n = int(math.floor(x)) - (1 if is_left_limit else 0)
    with mpmath.workdps(EXACT_DPS):
        j = mpmath.mpf(0)
        k = 1
        while 2**k <= n:
            root, _ = sympy.integer_nthroot(n, k)
            j += mpmath.mpf(int(sympy.primepi(root))) / k
            k += 1
        xm = mpmath.mpf(x)
        li_off = mpmath.li(xm) - mpmath.li(2)
        return BOUND_CONSTANT * mpmath.sqrt(xm) / mpmath.log(xm) - abs(j - li_off)


def row_tolerance(xs: np.ndarray) -> np.ndarray:
    """Largest |difference| allowed between two float64 evaluations of a row.

    lhs is |J - Li| with J and Li both about x/log x in size; two li
    implementations each good to a few ulps may differ by a few dozen ulps of
    that size, so allow 64 of them plus 1e-9.
    """
    return 1e-9 + 64 * np.finfo(np.float64).eps * xs / np.log(xs)


def row_mismatch(got: np.ndarray, want: np.ndarray) -> str:
    """'' when got has want's abscissae in order, values within `row_tolerance`
    and the same verdicts; otherwise a description of the first difference."""
    if got.shape != want.shape:
        return f"{got.shape[0]} rows, oracle {want.shape[0]}"
    tol = row_tolerance(want[:, 0])
    bad = (got[:, 0] != want[:, 0]) | ((got[:, 4] != 0) != (want[:, 4] != 0))
    for col in (1, 2, 3):
        bad |= ~(np.abs(got[:, col] - want[:, col]) <= tol)
    if not bad.any():
        return ""
    i = int(np.argmax(bad))
    return f"row {i}: {tuple(got[i].tolist())}, oracle {tuple(want[i].tolist())}"
