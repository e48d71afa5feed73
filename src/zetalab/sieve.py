"""Segmented sieve primitives: primality, von Mangoldt Lambda, prime powers,
scalar Mobius mu, and exact integer k-th roots.

All range work is segmented so memory stays proportional to the segment size,
not to the upper endpoint.  Segments are immutable once built.

Conventions:
    mobius(n) = 0 if a squared prime divides n, else (-1)**(number of prime factors)
    lam[n]    = log p if n = p**k for a prime p and k >= 1, else 0.0
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional, Tuple

import numpy as np

DEFAULT_SEGMENT = 1 << 20
SIEVE_CEILING = 1 << 40


@dataclass(frozen=True)
class SieveSegment:
    """Primality and Lambda over the inclusive integer range [lo, hi].

    ``lam`` is None unless the caller asked ``iter_segments`` for it;
    ``lam_nonzero`` then lists the offsets of its nonzero entries, ascending.
    """

    lo: int
    hi: int
    is_prime: np.ndarray
    lam: Optional[np.ndarray]
    lam_nonzero: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return self.hi - self.lo + 1


@lru_cache(maxsize=8)
def base_primes(limit: int) -> np.ndarray:
    """All primes <= limit by a plain odd-only sieve (limit is small: <= sqrt(hi))."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    # odd candidates 3,5,...; index i <-> 2i+3
    n_odd = (limit - 1) // 2
    mask = np.ones(n_odd, dtype=bool)
    i_max = min(n_odd, (math.isqrt(limit) - 3) // 2 + 1)
    for i in range(max(0, i_max)):
        if mask[i]:
            p = 2 * i + 3
            start = (p * p - 3) // 2
            mask[start::p] = False
    odds = 2 * np.flatnonzero(mask) + 3
    return np.concatenate(([2], odds)).astype(np.int64)


def _check_range(lo: int, hi: int) -> None:
    if lo < 0 or hi < lo:
        raise ValueError(f"inverted or negative range [{lo}, {hi}]")
    if hi > SIEVE_CEILING:
        raise ValueError(f"hi={hi} exceeds sieve ceiling {SIEVE_CEILING}")


def _primality_block(lo: int, hi: int, primes: np.ndarray) -> np.ndarray:
    """Boolean primality for [lo, hi] with odd-only composite marking."""
    size = hi - lo + 1
    out = np.zeros(size, dtype=bool)
    first_odd = lo | 1 if lo > 0 else 1
    if first_odd <= hi:
        n_odd = (hi - first_odd) // 2 + 1
        mask = np.ones(n_odd, dtype=bool)
        # odd base primes with p*p <= hi; each strikes its odd multiples from
        # max(p*p, the first multiple >= lo), bumped to odd
        ps = primes[1 : np.searchsorted(primes, math.isqrt(hi), "right")]
        starts = np.maximum(ps * ps, -(-lo // ps) * ps)
        starts += ps * (starts % 2 == 0)
        live = starts <= hi
        for s, p in zip(((starts[live] - first_odd) // 2).tolist(), ps[live].tolist()):
            mask[s::p] = False
        out[first_odd - lo :: 2] = mask
    if lo <= 2 <= hi:
        out[2 - lo] = True
    if lo <= 1 <= hi:
        out[1 - lo] = False
    if lo == 0:
        out[0] = False
    return out


def _lam_block(
    lo: int, hi: int, powers: Tuple[np.ndarray, ...], is_prime: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """von Mangoldt Lambda on [lo, hi]: log p at every prime power p**k, and its nonzero offsets.

    ``powers`` is the ``higher_prime_powers`` table of the whole sweep; its
    entries inside [lo, hi] get math.log(p).  The nonzero offsets are the
    primes' with the few k >= 2 powers merged in (no power is prime), so
    Lambda's 8 bytes per integer are never scanned for them.
    """
    size = hi - lo + 1
    lam = np.zeros(size, dtype=np.float64)
    idx = np.flatnonzero(is_prime)
    if idx.size:
        lam[idx] = np.log(idx + float(lo))
    values, primes, _k = powers
    i0, i1 = np.searchsorted(values, [lo, hi + 1])
    at = values[i0:i1] - lo
    lam[at] = [math.log(p) for p in primes[i0:i1].tolist()]
    return lam, np.insert(idx, np.searchsorted(idx, at), at)


def iter_segments(lo: int, hi: int, *, want_lam: bool = False) -> Iterator[SieveSegment]:
    """Yield consecutive SieveSegments of DEFAULT_SEGMENT integers covering [lo, hi]."""
    _check_range(lo, hi)
    primes = base_primes(math.isqrt(hi) if hi >= 4 else 2)
    powers = higher_prime_powers(hi) if want_lam else None
    a = lo
    while a <= hi:
        b = min(a + DEFAULT_SEGMENT - 1, hi)
        isp = _primality_block(a, b, primes)
        isp.setflags(write=False)
        lam = nonzero = None
        if want_lam:
            lam, nonzero = _lam_block(a, b, powers, isp)
            lam.setflags(write=False)
            nonzero.setflags(write=False)
        yield SieveSegment(a, b, isp, lam, nonzero)
        a = b + 1


def mobius(n: int) -> int:
    """mu(n) for a single integer, by trial division."""
    if n < 1:
        raise ValueError("mobius is defined for n >= 1")
    if n == 1:
        return 1
    result = 1
    m = n
    for p in base_primes(math.isqrt(n)):
        p = int(p)
        if p * p > m:
            break
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            result = -result
    if m > 1:
        result = -result
    return result


@lru_cache(maxsize=4)
def higher_prime_powers(limit: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(values, primes, exponents) int64 arrays of every p**k <= limit with k >= 2, ascending.

    The one walk over the powers of p: Lambda's segments, ``prime_power_arrays``
    and J's k >= 2 jumps all read this table.  Only primes up to sqrt(limit)
    contribute, so it stays small (3,689 entries to 1e9).
    """
    values, primes, exps = [], [], []
    ps = base_primes(math.isqrt(max(limit, 0)))
    vs, k = ps * ps, 2
    while True:
        values.append(vs)
        primes.append(ps)
        exps.append(np.full(ps.size, k, dtype=np.int64))
        more = vs <= limit // ps  # p**(k+1) <= limit, without overflowing int64
        if not more.any():
            break
        ps, vs, k = ps[more], vs[more] * ps[more], k + 1
    values, primes, exps = np.concatenate(values), np.concatenate(primes), np.concatenate(exps)
    order = np.argsort(values, kind="stable")
    out = (values[order], primes[order], exps[order])
    for arr in out:
        arr.setflags(write=False)
    return out


def prime_power_arrays(limit: float):
    """(values, primes, exponents) int64/int64/int64 arrays of all p**k <= limit, ascending."""
    n = int(math.floor(limit))
    if n < 2:
        return (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
        )
    prime_chunks = []
    for seg in iter_segments(2, n):
        prime_chunks.append(np.flatnonzero(seg.is_prime).astype(np.int64) + seg.lo)
    primes = np.concatenate(prime_chunks)
    hv, hp, hk = higher_prime_powers(n)
    vs = np.concatenate((primes, hv))
    order = np.argsort(vs, kind="stable")
    return (
        vs[order],
        np.concatenate((primes, hp))[order],
        np.concatenate((np.ones(primes.size, dtype=np.int64), hk))[order],
    )


def integer_kth_root(n: int, k: int) -> int:
    """Largest r with r**k <= n, in exact integer arithmetic."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return 0
    if k == 1:
        return n
    if k >= n.bit_length():
        return 1
    # Newton iteration on integers, starting from an over-estimate
    r = 1 << ((n.bit_length() + k - 1) // k)
    while True:
        t = ((k - 1) * r + n // r ** (k - 1)) // k
        if t >= r:
            break
        r = t
    while r ** k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


def kth_root_runs(limit: int, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """The runs of floor(r**(1/k)) over r = 0..limit, as (q, count) int64 arrays.

    The root is q exactly on [q**k, (q+1)**k), so ``np.repeat(q, count)`` is
    the root of every r, found by integer powers alone.  (q+1)**k is at most
    2**k * limit, so for k <= log2(limit) it fits int64 while limit < 3e9.
    """
    qs = np.arange(integer_kth_root(limit, k) + 2, dtype=np.int64)
    return qs[:-1], np.diff(np.minimum(qs ** k, limit + 1))
