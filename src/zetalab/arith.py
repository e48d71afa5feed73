"""Exact arithmetic counting functions on the ordinary abscissa.

pi and psi are step functions summed segment by segment over one sieve
sweep (``step_segments``), so memory stays bounded; ``step_at`` reads pi, psi
or J off that sweep at given integer abscissae.  The weighted prime-power
count J is pi plus the k >= 2 jumps at exact integer k-th roots; float powers
are never used to decide whether a lattice point is a perfect power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, List, Tuple

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
) -> Iterator[Tuple[SieveSegment, np.ndarray]]:
    """Sieve segments over [0, hi] that reach lo, each with the step's right-limit values.

    step "pi" gives int64 prime counts; "psi" gives the Kahan-compensated
    total of the earlier segments plus the running sum of this segment's
    Lambda, and its segments carry ``lam``.  Segments that end below lo are
    sieved only for the carry: their running sums are never formed.
    """
    if step not in ("pi", "psi"):
        raise ValueError(f"unknown step function {step!r}")
    pi_run = 0
    psi_run = KahanSum()
    for seg in iter_segments(0, hi, want_lam=step == "psi"):
        if seg.hi >= lo:
            if step == "pi":
                vals = np.cumsum(seg.is_prime, dtype=np.int64)
                vals += pi_run
            else:
                vals = np.cumsum(seg.lam)
                vals += psi_run.value
            yield seg, vals
        if step == "pi":
            pi_run += int(np.count_nonzero(seg.is_prime))
        else:
            psi_run.add(math.fsum(seg.lam))


def step_at(step: str, xs: np.ndarray) -> np.ndarray:
    """pi, psi or J (step "pi", "psi" or "j") at integer abscissae xs >= 0, as float64.

    One sieve sweep to max(xs) serves all points, in any order; J adds the
    k >= 2 jumps at the requested points only.
    """
    if step not in ("pi", "psi", "j"):
        raise ValueError(f"unknown step function {step!r}")
    xs = np.asarray(xs, dtype=np.int64)
    out = np.zeros(xs.size, dtype=np.float64)
    if xs.size == 0:
        return out
    top = int(xs.max())
    for seg, vals in step_segments("psi" if step == "psi" else "pi", top, lo=int(xs.min())):
        in_seg = (xs >= seg.lo) & (xs <= seg.hi)
        out[in_seg] = vals[xs[in_seg] - seg.lo]
    if step == "j":
        out += j_higher_terms(xs, top)
    return out


def pi_count(x: float) -> int:
    """Number of primes <= floor(x)."""
    if x < 2:
        return 0
    n = int(math.floor(x))
    ((_seg, counts),) = step_segments("pi", n, lo=n)
    return int(counts[-1])


@lru_cache(maxsize=4)
def pi_table(limit: int) -> np.ndarray:
    """Cumulative prime-count table: pi_table(limit)[m] = pi(m) for 0 <= m <= limit."""
    out = np.empty(limit + 1, dtype=np.int64)
    for seg, counts in step_segments("pi", limit):
        out[seg.lo : seg.hi + 1] = counts
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
        acc.add(math.fsum(seg.lam))
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
