"""Segmented sieve primitives: primality, von Mangoldt Lambda, prime powers,
scalar Mobius mu, and exact integer k-th roots.

All range work is segmented so memory stays proportional to the segment size,
not to the upper endpoint.  Segments are immutable once built and safe to share
across threads; every function here is re-entrant.

Conventions:
    mobius(n) = 0 if a squared prime divides n, else (-1)**(number of prime factors)
    lam[n]    = log p if n = p**k for a prime p and k >= 1, else 0.0
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional

import numpy as np

DEFAULT_SEGMENT = 1 << 20
SIEVE_CEILING = 1 << 40


@dataclass(frozen=True)
class SieveSegment:
    """Primality and Lambda over the inclusive integer range [lo, hi].

    ``lam`` is None unless the caller asked ``iter_segments`` for it.
    """

    lo: int
    hi: int
    is_prime: np.ndarray
    lam: Optional[np.ndarray]

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


def _lam_block(lo: int, hi: int, primes: np.ndarray, is_prime: np.ndarray) -> np.ndarray:
    """von Mangoldt Lambda on [lo, hi]: log p at every prime power p**k."""
    size = hi - lo + 1
    lam = np.zeros(size, dtype=np.float64)
    idx = np.flatnonzero(is_prime)
    if idx.size:
        lam[idx] = np.log(idx + float(lo))
    for p in primes:
        p = int(p)
        if p * p > hi:
            break
        logp = math.log(p)
        pj = p * p
        while pj <= hi:
            if pj >= lo:
                lam[pj - lo] = logp
            if pj > hi // p:
                break
            pj *= p
    return lam


def iter_segments(
    lo: int,
    hi: int,
    *,
    segment_size: int = DEFAULT_SEGMENT,
    want_lam: bool = False,
) -> Iterator[SieveSegment]:
    """Yield consecutive SieveSegments covering [lo, hi]."""
    _check_range(lo, hi)
    primes = base_primes(math.isqrt(hi) if hi >= 4 else 2)
    a = lo
    while a <= hi:
        b = min(a + segment_size - 1, hi)
        isp = _primality_block(a, b, primes)
        isp.setflags(write=False)
        lam = _lam_block(a, b, primes, isp) if want_lam else None
        if lam is not None:
            lam.setflags(write=False)
        yield SieveSegment(a, b, isp, lam)
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


def von_mangoldt(n: int) -> float:
    """Lambda(n) for a single integer: log p when n is a prime power, else 0."""
    if n < 1:
        raise ValueError("von_mangoldt is defined for n >= 1")
    if n == 1:
        return 0.0
    m = n
    for p in base_primes(math.isqrt(n)):
        p = int(p)
        if p * p > m:
            break
        if m % p == 0:
            while m % p == 0:
                m //= p
            return math.log(p) if m == 1 else 0.0
    # n itself is prime
    return math.log(n)


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
    primes = np.concatenate(prime_chunks) if prime_chunks else np.empty(0, np.int64)
    values = [primes]
    ps = [primes]
    ks = [np.ones(primes.size, dtype=np.int64)]
    for p in primes[primes <= math.isqrt(n)]:
        p = int(p)
        v, k = p * p, 2
        while v <= n:
            values.append(np.array([v], dtype=np.int64))
            ps.append(np.array([p], dtype=np.int64))
            ks.append(np.array([k], dtype=np.int64))
            if v > n // p:
                break
            v *= p
            k += 1
    vs = np.concatenate(values)
    pp = np.concatenate(ps)
    kk = np.concatenate(ks)
    order = np.argsort(vs, kind="stable")
    return vs[order], pp[order], kk[order]


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


def int_kth_root_array(values: np.ndarray, k: int) -> np.ndarray:
    """Vectorised floor k-th root for int64 arrays (values <= ~8.6e9 for k >= 2)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        return values.astype(np.int64)
    v = values.astype(np.int64)
    r = np.floor(np.power(v.astype(np.float64), 1.0 / k)).astype(np.int64)
    r = np.maximum(r, 0)
    for _ in range(2):  # float seed is off by at most 1 either way
        r = np.where((r + 1) ** k <= v, r + 1, r)
        r = np.where((r > 0) & (r ** k > v), r - 1, r)
    return r
