"""Counting functions on the ordinary abscissa."""

import math

import numpy as np
import pytest

from zetalab.arith import (
    higher_power_jumps,
    j_value,
    pi_count,
    pi_from_j,
    pi_from_j_residuals,
    pi_table,
    psi_value,
    segment_values,
    step_at,
    step_segments,
)
from zetalab.sieve import DEFAULT_SEGMENT, iter_segments


def one_segment(hi: int):
    (seg,) = iter_segments(0, hi, want_lam=True)
    return seg


def test_pi_count_examples():
    assert pi_count(10) == 4
    assert pi_count(100) == 25
    assert pi_count(1.9) == 0
    assert pi_count(2) == 1
    assert pi_count(10**6) == 78498


def test_pi_count_matches_trial_division():
    seg = one_segment(5000)
    running = 0
    for n in range(2, 5001):
        running += int(seg.is_prime[n])
        if n % 137 == 0 or n < 50:
            assert pi_count(n) == running


def test_j_value_examples():
    jv = j_value(20)
    assert jv.counts_per_k == [8, 2, 1, 1]
    assert jv.value == pytest.approx(8 + 2 / 2 + 1 / 3 + 1 / 4, abs=1e-14)
    assert j_value(100).value == pytest.approx(25 + 2 + 2 / 3 + 0.5 + 0.2 + 1 / 6, abs=1e-13)
    assert j_value(1).value == 0.0
    assert j_value(0).value == 0.0


def test_j_value_matches_direct_prime_power_sum():
    seg = one_segment(10_000)
    direct = 0.0
    values = []
    for n in range(2, 10_001):
        if seg.lam[n] > 0:
            # recover the exponent k from the smallest prime factor
            p = round(math.exp(seg.lam[n]))
            k = round(math.log(n) / math.log(p))
            direct += 1.0 / k
        values.append((n, direct))
    for n, expect in values[:: 97]:
        assert j_value(n).value == pytest.approx(expect, abs=1e-12), n


def test_pi_from_j_examples():
    assert pi_from_j(20) == pytest.approx(8.0, abs=1e-12)
    assert pi_from_j(100) == pytest.approx(25.0, abs=1e-12)
    assert pi_from_j(3) == pytest.approx(2.0, abs=1e-14)
    with pytest.raises(ValueError):
        pi_from_j(1.5)


def test_mobius_roundtrip_vectorised():
    residuals = pi_from_j_residuals(20_000)
    assert float(residuals.max()) < 1e-9


def test_vectorised_j_matches_scalar():
    xs = np.array([2, 3, 4, 8, 9, 16, 100, 1024, 6859, 59049, 65536], dtype=np.int64)
    vec = step_at("j", xs)
    for x, v in zip(xs, vec):
        assert v == pytest.approx(j_value(int(x)).value, abs=1e-12)


# both sides of the first segment boundary, and perfect powers with their
# left neighbours: 3**12, 1021**2 and 2**20 (the boundary itself)
B = DEFAULT_SEGMENT
STEP_XS = np.array(
    [2, 3, 531_440, 3**12, 1_042_440, 1021**2, B - 2, B - 1, B, B + 1, B + 2], dtype=np.int64
)


def exact_power_psi(n: int, primes: np.ndarray) -> float:
    """psi(n) = fsum of log p once for every k >= 1 with p**k <= n, in integers."""
    terms = []
    for p in primes[primes <= n].tolist():
        pk = p
        while pk <= n:
            terms.append(math.log(p))
            pk *= p
    return math.fsum(terms)


def test_step_at_matches_the_oracle_across_segments_and_powers():
    import _oracle as oracle

    top = int(STEP_XS.max())
    flags = np.concatenate([f for _, f in oracle.prime_segments(top)])
    pi = np.cumsum(flags)[STEP_XS]
    assert step_at("pi", STEP_XS).tolist() == pi.tolist()
    j = pi + oracle._HigherTerms(top)(STEP_XS)
    assert np.array_equal(step_at("j", STEP_XS), j)
    # order does not matter, and a jump at a perfect power is its 1/k weight
    assert np.array_equal(step_at("j", STEP_XS[::-1]), j[::-1])
    assert (step_at("j", [3**12]) - step_at("j", [3**12 - 1]))[0] == pytest.approx(1 / 12, abs=1e-9)
    primes = np.flatnonzero(flags)
    psi = step_at("psi", STEP_XS)
    for n, got in zip(STEP_XS.tolist(), psi):
        want = exact_power_psi(n, primes)
        # recursive summation of the nonzero terms of one segment, on top of a
        # compensated carry: at most (count - 1) eps times the total
        count = int(np.count_nonzero(primes <= n)) + 2 * math.isqrt(n)
        assert abs(got - want) <= count * np.finfo(float).eps * want, n


def test_step_segments_carry_and_validation():
    segs = list(step_segments("pi", B + 5))
    assert [(seg.lo, seg.hi) for seg, _ in segs] == [(0, B - 1), (B, B + 5)]
    # each segment comes with the step's value just left of it
    assert segs[0][1] == 0 and segs[1][1] == pi_count(B - 1)
    dense = segment_values("pi", *segs[1])
    assert dense.dtype == np.int64 and dense[0] == pi_count(B)
    # a segment wholly below lo is sieved for the carry but not yielded
    ((seg, before),) = step_segments("pi", B + 5, lo=B)
    assert seg.lo == B and segment_values("pi", seg, before).tolist() == dense.tolist()
    psi_segs = list(step_segments("psi", B + 5))
    ((seg, before),) = step_segments("psi", B + 5, lo=B + 5)
    assert seg.lam is not None
    want = segment_values("psi", *psi_segs[1])
    assert segment_values("psi", seg, before).tolist() == want.tolist()
    with pytest.raises(ValueError):
        list(step_segments("j", 10))
    with pytest.raises(ValueError):
        step_at("mu", [10])


def test_sparse_segment_values_have_the_dense_bits():
    rng = np.random.default_rng(11)
    for step in ("pi", "psi"):
        for seg, before in step_segments(step, 2 * B + 777):
            dense = segment_values(step, seg, before)
            n = len(seg)
            picks = [
                np.arange(n),
                np.sort(rng.integers(0, n, 500)),
                np.array([0, 0, 1, n - 1, n - 1]),
                np.array([n - 1]),
                np.array([0]),
                np.arange(0, n, 4099),
            ]
            for offs in picks:
                sparse = segment_values(step, seg, before, offs)
                assert sparse.dtype == dense.dtype
                assert np.array_equal(sparse, dense[offs]), (step, seg.lo, offs[:5])
            assert segment_values(step, seg, before, np.array([], dtype=np.int64)).size == 0


def test_step_at_sparse_points_match_the_oracle():
    import _oracle as oracle

    # 10 and 3e6 leave whole segments between them without a point; repeats,
    # a lone point and a segment's last integer (2**20 - 1) read sparsely too
    cases = [
        np.array([10, 3_000_000], dtype=np.int64),
        np.array([3_000_000, 10, 10, 3_000_000, B - 1, B - 1], dtype=np.int64),
        np.array([B - 1], dtype=np.int64),
        np.array([3_000_000], dtype=np.int64),
        np.array([0, 1, 2, 2], dtype=np.int64),
    ]
    top = 3_000_000
    flags = np.concatenate([f for _, f in oracle.prime_segments(top)])
    pi_all = np.cumsum(flags)
    higher = oracle._HigherTerms(top)
    primes = np.flatnonzero(flags)
    for xs in cases:
        pi = pi_all[xs]
        assert step_at("pi", xs).tolist() == pi.tolist(), xs
        assert np.array_equal(step_at("j", xs), pi + higher(xs)), xs
        psi = step_at("psi", xs)
        for n, got in zip(xs.tolist(), psi):
            want = exact_power_psi(n, primes)
            count = int(np.count_nonzero(primes <= n)) + 2 * math.isqrt(max(n, 0))
            assert abs(got - want) <= count * np.finfo(float).eps * want, n
        # a point's value does not depend on which other points are asked for
        for step in ("pi", "psi", "j"):
            alone = np.concatenate([step_at(step, [x]) for x in xs.tolist()])
            assert np.array_equal(step_at(step, xs), alone), (step, xs)


def test_psi_value_examples():
    assert psi_value(10) == pytest.approx(7.832014180505469, abs=1e-12)
    assert psi_value(20) == pytest.approx(19.265658314547978, abs=1e-12)
    assert psi_value(100) == pytest.approx(94.045311229357392, abs=1e-12)
    assert psi_value(1) == 0.0


def test_psi_monotone_with_log_p_jumps():
    seg = one_segment(400)
    prev = 0.0
    for n in range(2, 401):
        cur = psi_value(n)
        assert cur >= prev
        jump = cur - prev
        assert jump == pytest.approx(seg.lam[n], abs=1e-10)
        prev = cur


def test_psi_sum_identity_small():
    # sum_{k<=x} psi(x/k) telescopes to sum_{m<=x} log m
    for x in (10, 57, 200):
        lhs = math.fsum(psi_value(x / k) for k in range(1, x + 1))
        rhs = math.fsum(math.log(m) for m in range(1, x + 1))
        assert abs(lhs - rhs) < 1e-6 * x
    x = 10
    lhs = math.fsum(psi_value(10 / k) for k in range(1, 11))
    assert lhs == pytest.approx(15.104412573075515, abs=1e-9)


def test_j_minus_pi_gap_is_the_odd_root_tail():
    # even-exponent terms of J(x) - pi(x) cancel exactly against half of
    # J(sqrt x), leaving the odd-root tail; the third-root term dominates it
    from zetalab.sieve import integer_kth_root

    for x in np.geomspace(100, 1e6, 40):
        x = int(x)
        gap = j_value(x).value - pi_count(x)
        half = 0.5 * j_value(math.isqrt(x)).value
        tail = 0.0
        k = 3
        while 2**k <= x:
            r = integer_kth_root(x, k)
            if r >= 2:
                tail += pi_count(r) / k
            k += 2
        assert abs((gap - half) - tail) < 1e-9, x
        envelope = j_value(integer_kth_root(x, 3)).value / 3 + pi_count(integer_kth_root(x, 5)) + 1
        assert abs(gap - half) < envelope, x


def test_higher_power_jump_table():
    vals, wts, cum = higher_power_jumps(100)
    assert list(vals) == [4, 8, 9, 16, 25, 27, 32, 49, 64, 81]
    assert wts[0] == 0.5 and wts[1] == pytest.approx(1 / 3)
    assert cum[-1] == pytest.approx(np.sum(wts))
