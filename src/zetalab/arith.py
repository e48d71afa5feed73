"""Exact arithmetic counting functions on the ordinary abscissa.

pi and psi are step functions summed segment by segment over one sieve
sweep (``step_segments``), so memory stays bounded.  The sweep hands each
segment over with the step's value just left of it; ``segment_values`` then
forms right-limit values from the segment's jumps either over a contiguous
range of offsets (dense readers: the blocks of scans that write or keep rows,
``pi_table``) or at sorted offsets only (sparse readers: log grids, every-jump
and summary-only scans), where the cost follows the segment's jumps and the
requested points, not its length.  Both give the bits of one running sum over
every integer of the segment.
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


def segment_levels(step: str, seg: SieveSegment) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Offsets and sizes of a segment's jumps, and their levels: levels[r] sums the first r sizes.

    pi's jumps are its primes (int64 1 each), psi's the stored Lambda.  The
    readers below form these per call unless given them; a reader that reads
    one segment in several calls forms them once and passes them on.
    """
    if step == "pi":
        at = seg.prime_offsets()
        sizes = np.ones(at.size, dtype=np.int64)
    else:
        at, sizes = seg.lam_nonzero, seg.lam_values
    levels = np.zeros(at.size + 1, dtype=sizes.dtype)
    np.cumsum(sizes, out=levels[1:])
    return at, sizes, levels


def segment_values(
    step: str,
    seg: SieveSegment,
    before: Union[int, float],
    offs: Union[np.ndarray, slice],
    rank: Optional[np.ndarray] = None,
    levels: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None,
) -> np.ndarray:
    """Right-limit values of pi (int64) or psi (float64) at seg.lo + offs, from ``before``.

    The step's value at an offset is ``before`` plus the level of the jumps
    up to it (``segment_levels``, or ``levels`` if the reader has formed
    them).  Dense readers pass a slice of contiguous offsets (stop
    exclusive): the levels spread over the gaps between the jumps inside it
    by ``np.repeat``, so the cost follows the slice and its jumps.  Sparse
    readers pass ascending offsets (repeats allowed) and pay for the
    segment's jumps or the offsets, not its length: pi reads the segment's
    packed-bit prime counter (``seg.count_primes``); psi reads the levels at
    each offset's ``seg.lam_rank`` (``rank``, if the reader has formed it
    already).  Adding 0.0 leaves a running float sum unchanged, so each value
    has the bits of a running sum over every integer.
    """
    if step == "pi" and not isinstance(offs, slice):
        return seg.count_primes(np.asarray(offs, dtype=np.int64)) + before
    at, _sizes, levels = segment_levels(step, seg) if levels is None else levels
    if isinstance(offs, slice):
        r0, r1 = np.searchsorted(at, [offs.start, offs.stop - 1], "right")
        vals = np.repeat(levels[r0 : r1 + 1], np.diff(at[r0:r1], prepend=offs.start, append=offs.stop))
    else:
        offs = np.asarray(offs, dtype=np.int64)
        vals = levels[seg.lam_rank(offs) if rank is None else rank]
    vals += before
    return vals


def segment_jumps(
    step: str,
    seg: SieveSegment,
    offs: Union[np.ndarray, slice],
    rank: Optional[np.ndarray] = None,
    levels: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None,
) -> np.ndarray:
    """Jump sizes (float64) of pi or psi at seg.lo + offs, 0.0 off the jumps.

    A slice of contiguous offsets reads zeros, filled in at the jumps inside
    it (from ``levels``, as in ``segment_values``).  Ascending offs read
    ``seg.prime_at`` or ``seg.lam_at`` there (psi's at ``rank``).  Both give
    the same bits.
    """
    if not isinstance(offs, slice):
        return seg.prime_at(offs).astype(np.float64) if step == "pi" else seg.lam_at(offs, rank)
    at, sizes, _levels = segment_levels(step, seg) if levels is None else levels
    i0, i1 = np.searchsorted(at, [offs.start, offs.stop])
    out = np.zeros(offs.stop - offs.start)
    out[at[i0:i1] - offs.start] = sizes[i0:i1]
    return out


def _floor(name: str, x: float) -> int:
    """floor(x) as an int; NaN and +inf raise a ValueError that names the function."""
    if not x < math.inf:
        raise ValueError(f"{name} requires a finite x, got x={x!r}")
    return int(math.floor(x))


def pi_count(x: float) -> int:
    """Number of primes <= floor(x)."""
    if x < 2:
        return 0
    n = _floor("pi_count", x)
    ((seg, before),) = step_segments("pi", n, lo=n)
    return before + seg.n_primes


@lru_cache(maxsize=4)
def pi_table(limit: int) -> np.ndarray:
    """Cumulative prime-count table: pi_table(limit)[m] = pi(m) for 0 <= m <= limit."""
    out = np.empty(limit + 1, dtype=np.int64)
    for seg, before in step_segments("pi", limit):
        out[seg.lo : seg.hi + 1] = segment_values("pi", seg, before, slice(0, len(seg)))
    out.setflags(write=False)
    return out


def j_value(x: float) -> float:
    """J at x: the fsum over k of pi(r_k)/k, r_k the exact integer k-th root of floor(x).

    ``pi_count`` reads pi at every root r_k >= 2, those of the k with
    2**k <= floor(x).
    """
    if x < 0:
        raise ValueError("x must be >= 0")
    n = _floor("j_value", x)
    return math.fsum(pi_count(integer_kth_root(n, k)) / k for k in range(1, n.bit_length()))


def psi_value(x: float) -> float:
    """Chebyshev psi(x), correctly rounded: the bits of ``math.fsum`` of every Lambda(n), n <= x.

    The segments' ``_lam_scaled`` sums add exactly as ints and are divided by 2**53
    once, not the step engine's running cumsum.
    """
    if x < 2:
        return 0.0
    segs = iter_segments(0, _floor("psi_value", x), want_lam=True)
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
