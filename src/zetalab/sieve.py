"""Segmented sieve primitives: primality, von Mangoldt Lambda, prime powers,
scalar Mobius mu, and exact integer k-th roots.

All range work is segmented so memory stays proportional to the segment size,
not to the upper endpoint.  Segments are immutable once built.

Conventions:
    mobius(n) = 0 if a squared prime divides n, else (-1)**(number of prime factors)
    Lambda(n) = log p if n = p**k for a prime p and k >= 1, else 0 (kept by its jumps)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import Iterator, Optional, Tuple

import numpy as np

DEFAULT_SEGMENT = 1 << 20
SIEVE_CEILING = 1 << 40


@dataclass(frozen=True)
class SieveSegment:
    """Primality and Lambda over the inclusive integer range [lo, hi].

    ``odd`` is the odd-only primality mask: entry i is whether the odd
    integer ``first + 2i`` is prime, with ``first = lo | 1``.  The only even
    prime, 2, is added by the readers below.  Counts, prime lists and
    lookups at offsets all read ``odd``.  Lambda is kept by its jumps, if
    ``iter_segments`` was asked for it (else None): the prime powers'
    offsets ``lam_nonzero``, ascending, and log p at each in ``lam_values``.
    """

    lo: int
    hi: int
    odd: np.ndarray
    lam_nonzero: Optional[np.ndarray] = None
    lam_values: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return self.hi - self.lo + 1

    @property
    def first(self) -> int:
        """The odd integer that ``odd[0]`` stands for."""
        return self.lo | 1

    @property
    def _two(self) -> int:
        """Offset of the prime 2 from lo, or -1 if 2 is outside [lo, hi]."""
        return 2 - self.lo if self.lo <= 2 <= self.hi else -1

    @cached_property
    def _counter(self) -> Tuple[np.ndarray, np.ndarray]:
        """The mask packed into little-endian uint64 words, and the prime count before each word.

        Bit k of word w is ``odd[64 w + k]``.  The words run to bit
        ``odd.size`` inclusive, so the word that holds bit m exists for
        every count m of mask entries, a whole mask that ends on a word
        boundary included.
        """
        words = np.zeros(self.odd.size // 64 + 1, dtype="<u8")
        packed = np.packbits(self.odd, bitorder="little")
        words.view(np.uint8)[: packed.size] = packed
        before = np.zeros(words.size, dtype=np.int64)
        np.cumsum(np.bitwise_count(words[:-1]), out=before[1:])
        return words, before

    @property
    def n_primes(self) -> int:
        """Number of primes in [lo, hi]."""
        return int(self.count_primes(np.array([len(self) - 1]))[0])

    def count_primes(self, offs: np.ndarray) -> np.ndarray:
        """Number of primes in [lo, lo + off] for each offset (int64).

        The odd integers up to lo + off are the first m = (off + lo - first)
        // 2 + 1 mask entries: whole words from the prefix counts, the rest
        from the popcount of the partial word below bit m % 64, and 1 for
        the prime 2 once it is passed.
        """
        words, before = self._counter
        m = (offs + (self.lo - self.first)) // 2 + 1
        w = m >> 6
        below = np.left_shift(np.uint64(1), (m & 63).astype(np.uint64)) - np.uint64(1)
        out = before[w] + np.bitwise_count(words[w] & below)
        if self._two >= 0:
            out += offs >= self._two
        return out

    def prime_offsets(self) -> np.ndarray:
        """Offsets from lo of the primes in [lo, hi], ascending (int64)."""
        offs = 2 * np.flatnonzero(self.odd) + (self.first - self.lo)
        return np.insert(offs, 0, self._two) if self._two >= 0 else offs

    def prime_at(self, offs: np.ndarray) -> np.ndarray:
        """Whether lo + off is prime, for each offset (bool)."""
        out = np.zeros(offs.shape, dtype=bool)
        is_odd = (offs + self.lo) & 1 == 1
        out[is_odd] = self.odd[offs[is_odd] // 2]
        if self._two >= 0:
            out[offs == self._two] = True
        return out

    @cached_property
    def _lam_powers(self) -> np.ndarray:
        return self.lam_nonzero[~self.prime_at(self.lam_nonzero)]  # the k >= 2 powers

    def lam_rank(self, offs: np.ndarray) -> np.ndarray:
        """Count of Lambda's jumps in [lo, lo + off] per offset: 3x faster than a searchsorted."""
        return self.count_primes(offs) + np.searchsorted(self._lam_powers, offs, "right")

    def lam_at(self, offs: np.ndarray, rank: Optional[np.ndarray] = None) -> np.ndarray:
        """Lambda(lo + off) for each offset (float64): the stored value, or 0.0 off the jumps.

        ``rank`` is ``lam_rank(offs)``, for a reader that has formed it already.
        """
        at = (self.lam_rank(offs) if rank is None else rank) - 1
        hit = at >= 0
        hit[hit] = self.lam_nonzero[at[hit]] == offs[hit]
        out = np.zeros(offs.shape)
        out[hit] = self.lam_values[at[hit]]
        return out


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
    out = np.concatenate(([2], 2 * np.flatnonzero(mask) + 3)).astype(np.int64)
    out.setflags(write=False)  # lru_cache shares it with every later caller
    return out


def _check_range(lo: int, hi: int) -> None:
    if lo < 0 or hi < lo:
        raise ValueError(f"inverted or negative range [{lo}, {hi}]")
    if hi > SIEVE_CEILING:
        raise ValueError(f"hi={hi} exceeds sieve ceiling {SIEVE_CEILING}")


# The odd integers coprime to 3, 5, 7, 11 and 13 repeat with period 15015
# in the odd index j of n = 2j + 1.
_WHEEL_PRIMES = (3, 5, 7, 11, 13)
_WHEEL = 15015


_FALSE = np.zeros((), dtype=bool)  # the strike value, converted once


@lru_cache(maxsize=1)
def _wheel() -> np.ndarray:
    """Two periods of the wheel: entry j is whether 2j + 1 has no prime factor up to 13.

    Any one period, rotated to start at entry r, is the slice [r, r + _WHEEL).
    """
    periods = np.ones(2 * _WHEEL, dtype=bool)
    for p in _WHEEL_PRIMES:
        periods[(p - 1) // 2 :: p] = False
    periods.setflags(write=False)
    return periods


def _primality_block(lo: int, hi: int, primes: np.ndarray) -> np.ndarray:
    """Odd-only primality mask of [lo, hi]: entry i is whether (lo | 1) + 2i is prime.

    ``iter_segments`` calls it on two segments at a time, so each base prime
    strikes one slice per pair of segments.  The mask starts from the wheel:
    the period rotated to lo, sliced out of the two-period table and copied
    over the range; the wheel primes themselves are marked prime again and 1
    is cleared.  Then each base prime from 17 on with p*p <= hi strikes its
    odd multiples from max(p*p, the first multiple >= lo), bumped to odd.
    """
    first = lo | 1
    n_odd = (hi - first) // 2 + 1 if first <= hi else 0
    r, full = (first // 2) % _WHEEL, n_odd // _WHEEL
    wheel = _wheel()
    mask = np.empty(n_odd, dtype=bool)
    mask[: full * _WHEEL].reshape(full, _WHEEL)[...] = wheel[r : r + _WHEEL]
    mask[full * _WHEEL :] = wheel[r : r + n_odd - full * _WHEEL]
    for p in _WHEEL_PRIMES:
        if first <= p <= hi:
            mask[(p - first) // 2] = True
    if first == 1 and n_odd:
        mask[0] = False
    ps = primes[len(_WHEEL_PRIMES) + 1 : np.searchsorted(primes, math.isqrt(hi), "right")]
    starts = np.maximum(ps * ps, -(-lo // ps) * ps)
    starts += ps * (starts % 2 == 0)
    live = starts <= hi
    for s, p in zip(((starts[live] - first) // 2).tolist(), ps[live].tolist()):
        mask[s::p] = _FALSE
    return mask


def _lam_block(
    lo: int, hi: int, powers: Tuple[np.ndarray, ...], idx: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """von Mangoldt Lambda on [lo, hi] by its jumps: (offsets, values), offsets ascending.

    The primes' offsets ``idx`` get log p; the entries of the sweep's
    ``higher_prime_powers`` table inside [lo, hi] get math.log(p) and are
    merged in at their ``searchsorted`` positions (no power is prime).
    """
    values, primes, _k = powers
    i0, i1 = np.searchsorted(values, [lo, hi + 1])
    at = values[i0:i1] - lo
    pos = np.searchsorted(idx, at)
    # np.log, not math.log, at primes: a correctly rounded log would move psi's bits
    lam = np.insert(np.log(idx + float(lo)), pos, [math.log(p) for p in primes[i0:i1].tolist()])
    return np.insert(idx, pos, at), lam


def iter_segments(lo: int, hi: int, *, want_lam: bool = False) -> Iterator[SieveSegment]:
    """Yield consecutive SieveSegments of DEFAULT_SEGMENT integers covering [lo, hi].

    The primality mask is struck two segments at a time, by one
    ``_primality_block`` call, and each segment's ``odd`` is a read-only
    view of its half of that mask.
    """
    _check_range(lo, hi)
    primes = base_primes(math.isqrt(hi) if hi >= 4 else 2)
    powers = higher_prime_powers(hi) if want_lam else None
    a = lo
    while a <= hi:
        block_hi = min(a + 2 * DEFAULT_SEGMENT - 1, hi)
        block = _primality_block(a, block_hi, primes)
        block.setflags(write=False)
        first = a | 1
        while a <= block_hi:
            b = min(a + DEFAULT_SEGMENT - 1, block_hi)
            i = ((a | 1) - first) // 2  # both odd, so the gap is even
            seg = SieveSegment(a, b, block[i : i + (b - (a | 1)) // 2 + 1])
            if want_lam:
                nonzero, lam = _lam_block(a, b, powers, seg.prime_offsets())
                lam.setflags(write=False)
                nonzero.setflags(write=False)
                seg = replace(seg, lam_nonzero=nonzero, lam_values=lam)
            yield seg
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
        prime_chunks.append(seg.prime_offsets() + seg.lo)
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
