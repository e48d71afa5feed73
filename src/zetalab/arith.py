"""Exact arithmetic counting functions on the ordinary abscissa.

pi and psi are step functions summed segment by segment over one sieve
sweep (``step_segments``), so memory stays bounded.  The sweep hands each
segment over with the step's value just left of it; ``segment_values`` then
forms right-limit values either at every offset (dense readers: every-integer
scans, ``pi_table``) or at sorted offsets only (sparse readers: ``step_at``
for log grids, every-jump scans), where the cost follows the segment's jumps
and the requested points, not its length, and the bits are the dense ones.
The weighted prime-power count J is pi plus the k >= 2 jumps at exact integer
k-th roots, added at the requested points only; float powers are never used
to decide whether a lattice point is a perfect power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, List, Optional, Tuple, Union

import numpy as np

from .compensated import KahanSum
from .sieve import (
    SieveSegment,
    base_primes,
    int_kth_root_array,
    integer_kth_root,
    iter_segments,
    mobius,
)


def step_segments(
    step: str, hi: int, *, lo: int = 0
) -> Iterator[Tuple[SieveSegment, Union[int, float]]]:
    """Sieve segments over [0, hi] that reach lo, each with the step's value just left of it.

    That value, ``before``, is the step at seg.lo - 1.  step "pi" gives
    ``before`` as an int prime count; "psi" gives the
    Kahan-compensated total of the earlier segments' Lambda, and its segments
    carry ``lam``.  No running sum is formed here: ``segment_values`` forms
    the right-limit values a reader asks for.  Every segment, reached or not,
    adds only its total to the carry.
    """
    if step not in ("pi", "psi"):
        raise ValueError(f"unknown step function {step!r}")
    pi_run = 0
    psi_run = KahanSum()
    for seg in iter_segments(0, hi, want_lam=step == "psi"):
        if seg.hi >= lo:
            yield seg, pi_run if step == "pi" else psi_run.value
        if step == "pi":
            pi_run += int(np.count_nonzero(seg.is_prime))
        else:
            psi_run.add(_lam_total(seg.lam))


def _lam_total(lam: np.ndarray) -> float:
    """Correctly rounded sum of a segment's Lambda; its zeros cannot change an fsum."""
    return math.fsum(lam[np.flatnonzero(lam)].tolist())


# Up to this many offsets, a sparse pi read counts primes slice by slice rather
# than listing a segment's primes: on a 2-core x86 VM one count_nonzero slice
# costs about 1.3 us and listing a 2**20 segment's primes about 1.7 ms.
_FEW_OFFSETS = 1024


def segment_values(
    step: str, seg: SieveSegment, before: Union[int, float], offs: Optional[np.ndarray] = None
) -> np.ndarray:
    """Right-limit values of pi (int64) or psi (float64) at seg.lo + offs, from ``before``.

    Dense readers pass no offs and get every offset: ``before`` plus the
    running sum of the whole segment.  Sparse readers pass ascending offsets
    (repeats allowed) and pay for the segment's jumps or the offsets, not a
    running sum over its integers: pi counts the primes at or below each
    offset, slice by slice for a few offsets and by a binary search over the
    prime offsets for many; psi runs the same sequential sum over the nonzero
    Lambda only.  Adding 0.0 leaves a running float sum unchanged, so each
    value has the bits of the dense sum at that offset.
    """
    if offs is None:
        if step == "pi":
            vals = np.cumsum(seg.is_prime, dtype=np.int64)
        else:
            vals = np.cumsum(seg.lam)
        vals += before
        return vals
    offs = np.asarray(offs, dtype=np.int64)
    if step == "pi":
        if offs.size > _FEW_OFFSETS:
            return np.searchsorted(np.flatnonzero(seg.is_prime), offs, "right") + before
        # few offsets: count the primes between consecutive ones instead
        ends = (offs + 1).tolist()
        counts = [np.count_nonzero(seg.is_prime[i:j]) for i, j in zip([0] + ends[:-1], ends)]
        return np.cumsum(counts, dtype=np.int64) + before
    lam = seg.lam[: int(offs[-1]) + 1] if offs.size else seg.lam[:0]
    nz = np.flatnonzero(lam)
    run = np.zeros(nz.size + 1)
    np.cumsum(lam[nz], out=run[1:])
    vals = run[np.searchsorted(nz, offs, "right")]
    vals += before
    return vals


def step_at(step: str, xs: np.ndarray) -> np.ndarray:
    """pi, psi or J (step "pi", "psi" or "j") at integer abscissae xs >= 0, as float64.

    One sieve sweep to max(xs) serves all points, in any order.  Each segment
    that holds points is read sparsely (``segment_values`` at the sorted
    offsets), so the work past the sieve follows the number of points and the
    segment's jumps, not its length; J adds the k >= 2 jumps at the requested
    points only.
    """
    if step not in ("pi", "psi", "j"):
        raise ValueError(f"unknown step function {step!r}")
    xs = np.asarray(xs, dtype=np.int64)
    out = np.zeros(xs.size, dtype=np.float64)
    if xs.size == 0:
        return out
    order = np.argsort(xs, kind="stable")
    sx = xs[order]
    top = int(sx[-1])
    base = "psi" if step == "psi" else "pi"
    for seg, before in step_segments(base, top, lo=int(sx[0])):
        i0, i1 = np.searchsorted(sx, [seg.lo, seg.hi + 1])
        if i0 < i1:
            out[order[i0:i1]] = segment_values(base, seg, before, sx[i0:i1] - seg.lo)
    if step == "j":
        out += j_higher_terms(xs, top)
    return out


def pi_count(x: float) -> int:
    """Number of primes <= floor(x)."""
    if x < 2:
        return 0
    n = int(math.floor(x))
    ((seg, before),) = step_segments("pi", n, lo=n)
    return before + int(np.count_nonzero(seg.is_prime))


@lru_cache(maxsize=4)
def pi_table(limit: int) -> np.ndarray:
    """Cumulative prime-count table: pi_table(limit)[m] = pi(m) for 0 <= m <= limit."""
    out = np.empty(limit + 1, dtype=np.int64)
    for seg, before in step_segments("pi", limit):
        out[seg.lo : seg.hi + 1] = segment_values("pi", seg, before)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class JValue:
    """Weighted prime-power count sum_{p**k <= x} 1/k, with its per-k breakdown."""

    x: float
    counts_per_k: List[int]  # counts_per_k[k-1] = pi(floor(x)**(1/k)), exact roots
    value: float


def j_value(x: float) -> JValue:
    """J at x from per-exponent prime counts at exact integer roots."""
    if x < 0:
        raise ValueError("x must be >= 0")
    n = int(math.floor(x))
    if n < 2:
        return JValue(x=x, counts_per_k=[], value=0.0)
    counts: List[int] = []
    ptab = pi_table(max(math.isqrt(n), 3))
    k = 1
    while (1 << k) <= n or k == 1:
        r = integer_kth_root(n, k)
        if r < 2:
            break
        counts.append(pi_count(r) if k == 1 else int(ptab[r]))
        k += 1
    value = math.fsum(c / kk for kk, c in enumerate(counts, start=1))
    return JValue(x=x, counts_per_k=counts, value=value)


def pi_from_j(x: float) -> float:
    """Recover pi(x) from J by Mobius inversion: sum_n mu(n)/n * J(x**(1/n))."""
    if x < 2:
        raise ValueError("x must be >= 2")
    n = int(math.floor(x))
    total = KahanSum()
    m = 1
    while True:
        r = integer_kth_root(n, m)
        if r < 2:
            break
        mu = mobius(m)
        if mu:
            total.add(mu / m * j_value(float(r)).value)
        m += 1
    return total.value


def psi_value(x: float) -> float:
    """Chebyshev psi(x) as the compensated sum of exact per-segment Lambda totals.

    Each segment's total is an fsum, not the step engine's running cumsum, so
    the value is correctly rounded per segment.
    """
    if x < 2:
        return 0.0
    acc = KahanSum()
    for seg in iter_segments(0, int(math.floor(x)), want_lam=True):
        acc.add(_lam_total(seg.lam))
    return acc.value


@lru_cache(maxsize=4)
def higher_power_jumps(limit: int):
    """Jump table of J's k >= 2 components: (values, weights 1/k, cumulative weights).

    J(x) = pi(x) + H(x) where H steps by 1/k at every p**k <= x with k >= 2.
    Only primes up to sqrt(limit) can contribute, so the table stays tiny even
    for limits in the billions.
    """
    vals = []
    wts = []
    for p in base_primes(math.isqrt(limit) if limit >= 4 else 2):
        p = int(p)
        v, k = p * p, 2
        while v <= limit:
            vals.append(v)
            wts.append(1.0 / k)
            if v > limit // p:
                break
            v *= p
            k += 1
    values = np.array(vals, dtype=np.int64)
    weights = np.array(wts, dtype=np.float64)
    order = np.argsort(values, kind="stable")
    values, weights = values[order], weights[order]
    cum = np.cumsum(weights)
    for arr in (values, weights, cum):
        arr.setflags(write=False)
    return values, weights, cum


def j_higher_terms(xs: np.ndarray, limit: int) -> np.ndarray:
    """H(x) = J(x) - pi(x) for an integer array xs with max <= limit."""
    values, _w, cum = higher_power_jumps(limit)
    idx = np.searchsorted(values, xs, side="right")
    out = np.zeros(len(xs), dtype=np.float64)
    nz = idx > 0
    out[nz] = cum[idx[nz] - 1]
    return out


def pi_from_j_residuals(limit: int) -> np.ndarray:
    """|pi_from_j(x) - pi(x)| for every integer x in [2, limit], vectorised.

    Mirrors pi_from_j term by term: roots by exact integer arithmetic, J from
    per-k prime counts, Mobius weights in float.
    """
    xs = np.arange(2, limit + 1, dtype=np.int64)
    ptab = pi_table(limit)
    recovered = np.zeros(xs.size, dtype=np.float64)
    m = 1
    while (1 << m) <= limit:
        mu = mobius(m)
        if mu:
            roots = int_kth_root_array(xs, m)
            jv = np.zeros(xs.size, dtype=np.float64)
            k = 1
            while True:
                rk = int_kth_root_array(roots, k)
                live = rk >= 2
                if not live.any():
                    break
                jv[live] += ptab[rk[live]] / k
                k += 1
            recovered += (mu / m) * jv
        m += 1
    return np.abs(recovered - ptab[xs])
