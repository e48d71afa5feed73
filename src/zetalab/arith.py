"""Exact arithmetic counting functions on the ordinary abscissa.

pi and psi are step functions summed segment by segment over one sieve
sweep (``step_segments``), so memory stays bounded.  The sweep hands each
segment over with the step's value just left of it; ``segment_values`` then
forms right-limit values from the segment's jumps either at every offset
(dense readers: every-integer scans that keep their rows, ``pi_table``) or at
sorted offsets only (sparse readers: ``step_at`` for log grids, every-jump and
summary-only scans), where the cost follows the segment's jumps and the
requested points, not its length, and the bits are the dense ones.
The weighted prime-power count J is pi plus the k >= 2 jumps at exact integer
k-th roots, added at the requested points only; float powers are never used
to decide whether a lattice point is a perfect power.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterator, Optional, Tuple, Union

import numpy as np

from .sieve import (
    SieveSegment,
    higher_prime_powers,
    integer_kth_root,
    iter_segments,
    kth_root_runs,
    mobius,
)


def step_segments(
    step: str, hi: int, *, lo: int = 0
) -> Iterator[Tuple[SieveSegment, Union[int, float]]]:
    """Sieve segments over [0, hi] that reach lo, each with the step's value just left of it.

    That value, ``before``, is the step at seg.lo - 1.  One exact integer
    ``run`` carries it across segments.  For step "pi" it counts the earlier
    primes and is handed over as an int.  For "psi" it holds the sum of every
    earlier Lambda value in units of 2**-53 (``_lam_scaled``), and ``before``
    is ``run / 2**53``, rounded once: the bits of ``math.fsum``.  psi's
    segments carry Lambda by its jumps (``lam_nonzero``, ``lam_values``),
    which the carry and the readers share.  No running sum is formed here:
    ``segment_values`` forms the right-limit values a reader asks for.
    Every segment, reached or not, adds only its total to the carry.
    """
    if step not in ("pi", "psi"):
        raise ValueError(f"unknown step function {step!r}")
    run = 0
    for seg in iter_segments(0, hi, want_lam=step == "psi"):
        if seg.hi >= lo:
            yield seg, run if step == "pi" else run / 2**53
        run += seg.n_primes if step == "pi" else _lam_scaled(seg.lam_values)


def _lam_scaled(values: np.ndarray) -> int:
    """The exact sum of a segment's Lambda values in units of 2**-53, as an int.

    Each value lies in [log 2, log 2**40] within [0.5, 32), so v * 2**53 is an integer
    below 2**58; its 29-bit halves sum exactly in int64.  Dividing by 2**53 rounds once,
    half-even: the bits of ``math.fsum``.
    """
    scaled = (values * 2.0**53).astype(np.int64)
    return (int(np.sum(scaled >> 29)) << 29) + int(np.sum(scaled & ((1 << 29) - 1)))


def _jumps(step: str, seg: SieveSegment) -> Tuple[np.ndarray, np.ndarray]:
    """Offsets and sizes of a segment's jumps: pi's primes (int64 1 each) or psi's stored Lambda."""
    if step == "pi":
        at = seg.prime_offsets()
        return at, np.ones(at.size, dtype=np.int64)
    return seg.lam_nonzero, seg.lam_values


def segment_values(
    step: str,
    seg: SieveSegment,
    before: Union[int, float],
    offs: Optional[np.ndarray] = None,
    rank: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Right-limit values of pi (int64) or psi (float64) at seg.lo + offs, from ``before``.

    The step's levels are the running sum of its jump sizes, from 0 before
    the first jump.  Dense readers pass no offs and get every offset: the
    levels spread over the gaps between jumps by ``np.repeat``, plus
    ``before``.  Sparse readers pass ascending offsets (repeats allowed) and
    pay for the segment's jumps or the offsets, not its length: pi reads the
    segment's packed-bit prime counter (``seg.count_primes``); psi reads the
    levels at each offset's ``seg.lam_rank`` (``rank``, if the reader has
    formed it already).  Adding 0.0 leaves a running float sum unchanged, so
    each value has the bits of a running sum over every integer.
    """
    offs = None if offs is None else np.asarray(offs, dtype=np.int64)
    if step == "pi" and offs is not None:
        return seg.count_primes(offs) + before
    at, sizes = _jumps(step, seg)
    levels = np.zeros(at.size + 1, dtype=sizes.dtype)
    np.cumsum(sizes, out=levels[1:])
    if offs is None:
        vals = np.repeat(levels, np.diff(at, prepend=0, append=len(seg)))
    else:
        vals = levels[seg.lam_rank(offs) if rank is None else rank]
    vals += before
    return vals


def segment_jumps(
    step: str, seg: SieveSegment, offs: Optional[np.ndarray] = None, rank: Optional[np.ndarray] = None
) -> np.ndarray:
    """Jump sizes (float64) of pi or psi at seg.lo + offs, 0.0 off the jumps.

    No offs reads every offset: zeros, filled in at the jumps.  Ascending offs
    read ``seg.prime_at`` or ``seg.lam_at`` there (psi's at ``rank``, as in
    ``segment_values``).  Both give the same bits.
    """
    if offs is not None:
        return seg.prime_at(offs).astype(np.float64) if step == "pi" else seg.lam_at(offs, rank)
    at, sizes = _jumps(step, seg)
    out = np.zeros(len(seg))
    out[at] = sizes
    return out


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
        out[order] += j_higher_terms(sx, top)
    return out


def pi_count(x: float) -> int:
    """Number of primes <= floor(x)."""
    if x < 2:
        return 0
    n = int(math.floor(x))
    ((seg, before),) = step_segments("pi", n, lo=n)
    return before + seg.n_primes


@lru_cache(maxsize=4)
def pi_table(limit: int) -> np.ndarray:
    """Cumulative prime-count table: pi_table(limit)[m] = pi(m) for 0 <= m <= limit."""
    out = np.empty(limit + 1, dtype=np.int64)
    for seg, before in step_segments("pi", limit):
        out[seg.lo : seg.hi + 1] = segment_values("pi", seg, before)
    out.setflags(write=False)
    return out


def j_value(x: float) -> float:
    """J at x: the fsum over k of pi(r_k)/k, r_k the exact integer k-th root of floor(x).

    One ``step_at`` call reads pi at every root r_k >= 2, those of the k with
    2**k <= floor(x).
    """
    if x < 0:
        raise ValueError("x must be >= 0")
    n = int(math.floor(x))
    pis = step_at("pi", [integer_kth_root(n, k) for k in range(1, n.bit_length())])
    return math.fsum(c / k for k, c in enumerate(pis.tolist(), start=1))


def psi_value(x: float) -> float:
    """Chebyshev psi(x), correctly rounded: the bits of ``math.fsum`` of every Lambda(n), n <= x.

    The segments' ``_lam_scaled`` sums add exactly as ints and are divided by 2**53
    once, not the step engine's running cumsum.
    """
    if x < 2:
        return 0.0
    segs = iter_segments(0, int(math.floor(x)), want_lam=True)
    return sum(_lam_scaled(seg.lam_values) for seg in segs) / 2**53


@lru_cache(maxsize=4)
def higher_power_jumps(limit: int):
    """Jump table of J's k >= 2 components: (values, weights 1/k, cumulative weights).

    J(x) = pi(x) + H(x) where H steps by 1/k at every p**k <= x with k >= 2,
    the entries of ``sieve.higher_prime_powers(limit)``.
    """
    values, _primes, exps = higher_prime_powers(limit)
    weights = 1.0 / exps
    cum = np.cumsum(weights)
    for arr in (weights, cum):
        arr.setflags(write=False)
    return values, weights, cum


def j_higher_terms(xs: np.ndarray, limit: int) -> np.ndarray:
    """H(x) = J(x) - pi(x) for an ascending integer-valued array xs with max <= limit.

    Only the table entries in (xs[0], xs[-1]] are placed into xs, each at the
    first x it does not exceed; H is constant between them, so the cumulative
    weights are spread over xs by ``np.repeat``.  The cost follows len(xs)
    plus those few entries, and each value is a copy of a ``cum`` entry (or 0).
    """
    values, _w, cum = higher_power_jumps(limit)
    if len(xs) == 0:
        return np.zeros(0)
    i0, i1 = np.searchsorted(values, [int(xs[0]), int(xs[-1])], side="right")
    pos = np.searchsorted(xs, values[i0:i1])
    levels = np.concatenate(([cum[i0 - 1] if i0 else 0.0], cum[i0:i1]))
    return np.repeat(levels, np.diff(pos, prepend=0, append=len(xs)))


def pi_from_j_residuals(limit: int) -> np.ndarray:
    """|sum_m mu(m)/m J(x**(1/m)) - pi(x)| for every integer x in [2, limit], vectorised.

    The Mobius inversion of J = sum_k pi(x**(1/k))/k.  J is tabulated once on
    0..limit, each J(r) the sequential sum over k of pi(r**(1/k))/k; each m
    then reads the table at the m-th roots of x.  Every root is exact
    (``kth_root_runs``), so each value is spread over the run of x that shares
    it; entries whose root is below 2 add zero and are skipped.
    """
    ptab = pi_table(limit)
    jtab = ptab.astype(np.float64)  # k = 1: pi(r)
    for k in range(2, limit.bit_length()):  # 2**k <= limit
        qs, counts = kth_root_runs(limit, k)
        jtab[1 << k :] += np.repeat(ptab[qs[2:]] / k, counts[2:])
    recovered = jtab[2:].copy()  # m = 1, over x = 2..limit
    for m in range(2, limit.bit_length()):
        mu = mobius(m)
        if mu:
            qs, counts = kth_root_runs(limit, m)
            recovered[(1 << m) - 2 :] += np.repeat((mu / m) * jtab[qs[2:]], counts[2:])
    recovered -= ptab[2:]
    return np.abs(recovered, out=recovered)
