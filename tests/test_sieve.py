"""Sieve primitives against trial-division oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracle as oracle
from zetalab import sieve
from zetalab.sieve import (
    SIEVE_CEILING,
    base_primes,
    integer_kth_root,
    iter_segments,
    kth_root_runs,
    mobius,
    prime_power_arrays,
)


def trial_is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


def trial_mu(n: int) -> int:
    if n == 0:
        return 0
    if n == 1:
        return 1
    m, count, d = n, 0, 2
    while d * d <= m:
        if m % d == 0:
            m //= d
            count += 1
            if m % d == 0:
                return 0
        else:
            d += 1
    if m > 1:
        count += 1
    return -1 if count % 2 else 1


def trial_lambda(n: int) -> float:
    if n < 2:
        return 0.0
    m, d = n, 2
    while d * d <= m:
        if m % d == 0:
            while m % d == 0:
                m //= d
            return math.log(d) if m == 1 else 0.0
        d += 1
    return math.log(n)


def one_segment(lo: int, hi: int):
    """[lo, hi] as a single SieveSegment with Lambda."""
    (seg,) = iter_segments(lo, hi, want_lam=True)
    return seg


def test_segment_matches_trial_division_up_to_104():
    is_prime, lam = oracle.dense_arrays(one_segment(0, 10_000))
    for n in range(0, 10_001):
        assert is_prime[n] == trial_is_prime(n)
        assert lam[n] == pytest.approx(trial_lambda(n), abs=1e-12)


def test_segment_window_above_million():
    is_prime, lam = oracle.dense_arrays(one_segment(10**6, 10**6 + 100))
    primes = [int(i) + 10**6 for i in np.flatnonzero(is_prime)]
    assert primes == [1000003, 1000033, 1000037, 1000039, 1000081, 1000099]
    for n in range(10**6, 10**6 + 101):
        assert lam[n - 10**6] == pytest.approx(trial_lambda(n), abs=1e-12)


@pytest.mark.parametrize("lo", range(41))
def test_odd_mask_and_its_readers_match_trial_division(lo):
    # every lo from 0 to 40 puts the wheel primes 3..13, the prime 2 and 1 at
    # the ends of the range or inside it
    for hi in range(lo, lo + 71):
        (seg,) = iter_segments(lo, hi, want_lam=True)
        want = np.array([trial_is_prime(n) for n in range(lo, hi + 1)])
        first = lo | 1
        assert seg.odd.tolist() == [trial_is_prime(n) for n in range(first, hi + 1, 2)], (lo, hi)
        assert oracle.dense_arrays(seg)[0].tolist() == want.tolist(), (lo, hi)
        assert seg.n_primes == int(want.sum()), (lo, hi)
        offs = np.arange(-1, hi - lo + 1)
        assert seg.count_primes(offs).tolist() == [0] + np.cumsum(want).tolist(), (lo, hi)
        assert seg.prime_offsets().tolist() == np.flatnonzero(want).tolist(), (lo, hi)
        assert seg.prime_at(np.arange(hi - lo + 1)).tolist() == want.tolist(), (lo, hi)
        # Lambda's jumps, read at every offset, empty ranges included
        lam = [trial_lambda(n) for n in range(lo, hi + 1)]
        assert seg.lam_at(offs[1:]).tolist() == pytest.approx(lam, abs=1e-12), (lo, hi)
        assert seg.lam_rank(offs).tolist() == [0] + np.cumsum(np.array(lam) > 0).tolist()


@pytest.mark.parametrize(
    "lo, hi",
    [
        (29_900, 30_300),  # odd index 15014 -> 15015: the wheel's first wrap
        (2 * 15015 * 677 - 101, 2 * 15015 * 677 + 301),  # a wrap far from 0
        (10**6 - 7, 10**6 + 40_000),  # a mask longer than two wheel periods
    ],
)
def test_odd_mask_across_wheel_periods(lo, hi):
    (seg,) = iter_segments(lo, hi)
    primes = base_primes(hi)
    want = primes[primes >= lo] - lo
    assert seg.prime_offsets().tolist() == want.tolist()
    assert np.flatnonzero(oracle.dense_arrays(seg)[0]).tolist() == want.tolist()
    assert seg.n_primes == want.size


def test_trivial_segment():
    is_prime, lam = oracle.dense_arrays(one_segment(0, 1))
    assert not is_prime.any()
    assert not lam.any()


def test_small_segment_primes():
    is_prime, _ = oracle.dense_arrays(one_segment(2, 30))
    primes = {int(i) + 2 for i in np.flatnonzero(is_prime)}
    assert primes == {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}


def test_segmentation_is_invisible(monkeypatch):
    whole_prime, whole_lam = oracle.dense_arrays(one_segment(0, 65_000))
    monkeypatch.setattr(sieve, "DEFAULT_SEGMENT", 7_919)
    parts = list(iter_segments(0, 65_000, want_lam=True))
    assert len(parts) == 9
    dense = [oracle.dense_arrays(p) for p in parts]
    assert np.array_equal(np.concatenate([is_prime for is_prime, _ in dense]), whole_prime)
    assert np.allclose(np.concatenate([lam for _, lam in dense]), whole_lam)
    # each segment lists its nonzero Lambda: primes and k >= 2 powers, merged
    for p, (_, lam) in zip(parts, dense):
        assert np.array_equal(p.lam_nonzero, np.flatnonzero(lam))
    (seg,) = iter_segments(2**40 - 1000, 2**40, want_lam=True)
    assert np.array_equal(seg.lam_nonzero, np.flatnonzero(oracle.dense_arrays(seg)[1]))
    assert 2**40 - seg.lo in seg.lam_nonzero.tolist()  # 2**40 itself
    # segments longer than the default build their wheel masks just as well
    lo, hi = 10**6 + 1, 10**6 + (1 << 21) + 1
    default_parts = list(iter_segments(lo, hi))
    monkeypatch.setattr(sieve, "DEFAULT_SEGMENT", (1 << 21) + 1)
    (big,) = iter_segments(lo, hi)
    dense_parts = [oracle.dense_arrays(p)[0] for p in default_parts]
    assert np.array_equal(np.concatenate(dense_parts), oracle.dense_arrays(big)[0])
    primes = base_primes(hi)
    assert np.array_equal(big.prime_offsets() + lo, primes[primes >= lo])


SEG = sieve.DEFAULT_SEGMENT


@pytest.mark.parametrize(
    "lo, hi",
    [
        (5, 1000),  # one segment
        (0, 2 * SEG - 1),  # two segments: one whole strike block
        (0, 2 * SEG),  # three: a final one-integer (even) segment, a new block
        (1, 2 * SEG + 1),  # lo odd; a final one-integer odd segment
        (2, 2 * SEG + 1),  # lo even, not a multiple of the segment
        (12_345, 12_345 + 3 * SEG + 6),  # four segments; the fourth starts mid-block
        (SEG + 2, 3 * SEG + 100),  # three segments from an even mid-block start
    ],
)
def test_segments_struck_in_pairs_are_their_own_masks(lo, hi):
    # the sieve strikes two segments per mask; each segment must read as if
    # struck alone, and its primes as a plain sieve's
    primes = base_primes(math.isqrt(hi))
    segs = list(iter_segments(lo, hi))
    assert len(segs) == -(-(hi - lo + 1) // SEG)
    assert [s.lo for s in segs] == list(range(lo, hi + 1, SEG))
    assert [len(s) for s in segs[:-1]] == [SEG] * (len(segs) - 1) and segs[-1].hi == hi
    oracle_primes = base_primes(hi)
    for seg in segs:
        assert seg.first == seg.lo | 1
        assert seg.odd.size == max(0, (seg.hi - seg.first) // 2 + 1)
        assert not seg.odd.flags.writeable
        with pytest.raises(ValueError):
            seg.odd.setflags(write=True)
        assert np.array_equal(seg.odd, sieve._primality_block(seg.lo, seg.hi, primes)), seg.lo
        want = oracle_primes[(oracle_primes >= seg.lo) & (oracle_primes <= seg.hi)] - seg.lo
        assert np.array_equal(seg.prime_offsets(), want), seg.lo
        assert seg.n_primes == want.size


@pytest.mark.parametrize("size", [1, 2, 3, 64])
def test_small_segments_struck_in_pairs_match_trial_division(monkeypatch, size):
    monkeypatch.setattr(sieve, "DEFAULT_SEGMENT", size)
    for lo in range(8):
        for hi in range(lo, lo + 30):
            segs = list(iter_segments(lo, hi, want_lam=True))
            assert [len(s) for s in segs[:-1]] == [size] * (len(segs) - 1), (size, lo, hi)
            assert all(not s.odd.flags.writeable for s in segs)
            got = np.concatenate([s.prime_offsets() + s.lo for s in segs]).tolist()
            assert got == [n for n in range(lo, hi + 1) if trial_is_prime(n)], (size, lo, hi)
            lam = np.concatenate([oracle.dense_arrays(s)[1] for s in segs])
            assert lam.tolist() == pytest.approx([trial_lambda(n) for n in range(lo, hi + 1)], abs=1e-12)


def zero_fill_lam(seg) -> np.ndarray:
    """Dense Lambda as the sieve formed it before it kept only the jumps:
    zeros, np.log at the primes, math.log(p) at the k >= 2 powers."""
    lam = np.zeros(len(seg), dtype=np.float64)
    idx = seg.prime_offsets()
    lam[idx] = np.log(idx + float(seg.lo))
    values, primes, _k = sieve.higher_prime_powers(seg.hi)
    i0, i1 = np.searchsorted(values, [seg.lo, seg.hi + 1])
    lam[values[i0:i1] - seg.lo] = [math.log(p) for p in primes[i0:i1].tolist()]
    return lam


@pytest.mark.parametrize("lo", [0, 10**6, 2**40 - (1 << 20) + 1])
def test_lambda_by_its_jumps_matches_the_zero_filled_array(lo):
    (seg,) = iter_segments(lo, lo + (1 << 20) - 1, want_lam=True)
    want = zero_fill_lam(seg)
    _, lam = oracle.dense_arrays(seg)
    assert lam.tobytes() == want.tobytes()
    assert seg.lam_nonzero.tolist() == np.flatnonzero(want).tolist()
    assert lam[seg.lam_nonzero].tobytes() == seg.lam_values.tobytes()
    rng = np.random.default_rng(lo % 1000 + 7)
    picks = ([0, len(seg) - 1], rng.integers(0, len(seg), 5000), seg.lam_nonzero[::97])
    offs = np.sort(np.concatenate(picks))
    assert seg.lam_at(offs).tobytes() == lam[offs].tobytes()
    assert np.array_equal(seg.lam_rank(offs), np.searchsorted(seg.lam_nonzero, offs, "right"))
    for arr in (seg.lam_nonzero, seg.lam_values):
        assert not arr.flags.writeable
    # a pi-only segment has no Lambda
    (bare,) = iter_segments(lo, lo + 100)
    assert bare.lam_values is None and bare.lam_nonzero is None and oracle.dense_arrays(bare)[1] is None


def test_range_validation():
    with pytest.raises(ValueError):
        next(iter_segments(10, 5))
    with pytest.raises(ValueError):
        next(iter_segments(0, 2**41))


def test_segments_are_immutable():
    seg = one_segment(0, 100)
    with pytest.raises(ValueError):
        seg.odd[0] = True
    with pytest.raises(AttributeError):
        seg.odd = np.zeros(seg.odd.size, dtype=bool)
    with pytest.raises(ValueError):
        seg.lam_nonzero[0] = 1
    with pytest.raises(ValueError):
        seg.lam_values[0] = 1.0


def test_mobius_values():
    assert mobius(1) == 1
    assert mobius(6) == 1
    assert mobius(4) == 0
    assert mobius(30) == -1
    assert [mobius(n) for n in range(1, 2001)] == [trial_mu(n) for n in range(1, 2001)]
    with pytest.raises(ValueError):
        mobius(0)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 3000), st.integers(2, 3000))
def test_mobius_multiplicative(a, b):
    if math.gcd(a, b) == 1:
        assert mobius(a * b) == mobius(a) * mobius(b)


@pytest.mark.parametrize("p", [285343, 287549, 351497, 504631, 664679, 757811, 857953])
def test_lambda_at_prime_square_is_math_log(p):
    # primes at which numpy's vectorised log can round log p differently from
    # math.log; Lambda at a prime power must be math.log(p) bit for bit
    assert p * p <= SIEVE_CEILING
    (seg,) = iter_segments(p * p - 1, p * p + 1, want_lam=True)
    assert oracle.dense_arrays(seg)[1].tolist() == [0.0, math.log(p), 0.0]


def test_lambda_divisor_sum_is_log():
    # sum of Lambda(d) over divisors d of n telescopes to log n
    _, lam = oracle.dense_arrays(one_segment(0, 10_000))
    acc = np.zeros(10_001)
    for d in range(1, 10_001):
        if lam[d]:
            acc[d::d] += lam[d]
    ns = np.arange(1.0, 10_001)
    assert np.max(np.abs(acc[1:] - np.log(ns))) < 1e-9


def test_prime_powers_enumeration():
    values, primes, exps = prime_power_arrays(20)
    assert values.tolist() == [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19]
    values, primes, exps = prime_power_arrays(10)
    assert list(zip(primes.tolist(), exps.tolist())) == [
        (2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
    ]
    assert all(v.size == 0 for v in prime_power_arrays(1.5))
    values, primes, exps = prime_power_arrays(10_000)
    assert values.tolist() == sorted(values.tolist())
    assert (primes ** exps == values).all()
    expected = {n for n in range(2, 10_001) if trial_lambda(n) > 0}
    assert set(values.tolist()) == expected


def test_integer_kth_root_examples():
    assert integer_kth_root(100, 2) == 10
    assert integer_kth_root(99, 2) == 9
    assert integer_kth_root(2**63 - 1, 3) == 2097151
    assert integer_kth_root(0, 5) == 0
    assert integer_kth_root(7, 1) == 7
    with pytest.raises(ValueError):
        integer_kth_root(10, 0)
    with pytest.raises(ValueError):
        integer_kth_root(-1, 2)


def test_integer_kth_root_grid():
    for m in range(1, 1001):
        for k in range(1, 7):
            assert integer_kth_root(m**k, k) == m
            if m > 1:
                assert integer_kth_root(m**k - 1, k) == m - 1


def bisect_root(n: int, k: int) -> int:
    lo, hi = 0, max(2, n)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid**k <= n:
            lo = mid
        else:
            hi = mid - 1
    return lo


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**12), st.integers(1, 24))
def test_integer_kth_root_against_bisection(n, k):
    assert integer_kth_root(n, k) == bisect_root(n, k)


@pytest.mark.parametrize("limit", [0, 1, 2, 100, 131071, 1_000_000])
def test_kth_root_runs_are_the_exact_roots_at_every_power(limit):
    for k in range(1, 18):
        qs, counts = kth_root_runs(limit, k)
        assert int(counts.sum()) == limit + 1 and (counts > 0).all()
        roots = np.repeat(qs, counts)
        # both sides of every jump m**k of the root that lies in 0..limit
        for m in range(1, integer_kth_root(limit, k) + 1):
            for x in (m**k - 1, m**k):
                assert roots[x] == integer_kth_root(x, k), (limit, k, x)
    if limit <= 1000:
        for k in range(1, 18):
            assert np.repeat(*kth_root_runs(limit, k)).tolist() == [
                integer_kth_root(x, k) for x in range(limit + 1)
            ]


def test_base_primes_small():
    assert list(base_primes(2)) == [2]
    assert list(base_primes(13)) == [2, 3, 5, 7, 11, 13]
    assert len(base_primes(10**6)) == 78498


def test_base_primes_is_read_only():
    # lru_cache hands the same array to every later sieve: a write would corrupt them
    primes = base_primes(1000)
    assert not primes.flags.writeable
    with pytest.raises(ValueError):
        primes[0] = 4
    assert base_primes(1000)[0] == 2
