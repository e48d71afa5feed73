"""Counting functions on the ordinary abscissa."""

import hashlib
import math

import numpy as np
import pytest

import _oracle as oracle
from zetalab import sieve
from zetalab.arith import (
    _lam_scaled,
    higher_power_jumps,
    j_value,
    pi_count,
    pi_from_j_residuals,
    pi_table,
    psi_value,
    segment_jumps,
    segment_levels,
    segment_values,
    step_at,
    step_segments,
)
from zetalab.sieve import DEFAULT_SEGMENT, base_primes, higher_prime_powers, integer_kth_root, iter_segments
from zetalab.verify import fmt17, run_claim


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
    is_prime, _ = oracle.dense_arrays(one_segment(5000))
    running = 0
    for n in range(2, 5001):
        running += int(is_prime[n])
        if n % 137 == 0 or n < 50:
            assert pi_count(n) == running


def test_j_value_examples():
    assert j_value(20) == pytest.approx(8 + 2 / 2 + 1 / 3 + 1 / 4, abs=1e-14)
    assert j_value(100) == pytest.approx(25 + 2 + 2 / 3 + 0.5 + 0.2 + 1 / 6, abs=1e-13)
    assert j_value(1) == 0.0
    assert j_value(0) == 0.0


def test_j_value_matches_direct_prime_power_sum():
    _, lam = oracle.dense_arrays(one_segment(10_000))
    direct = 0.0
    values = []
    for n in range(2, 10_001):
        if lam[n] > 0:
            # recover the exponent k from the smallest prime factor
            p = round(math.exp(lam[n]))
            k = round(math.log(n) / math.log(p))
            direct += 1.0 / k
        values.append((n, direct))
    for n, expect in values[:: 97]:
        assert j_value(n) == pytest.approx(expect, abs=1e-12), n


def _j_by_root_loop(x) -> float:
    """J as j_value formed it before it read pi through step_at: pi_count(floor x)
    for k = 1, and a pi_table to sqrt(x) at the roots for k >= 2."""
    n = int(math.floor(x))
    if n < 2:
        return 0.0
    counts = []
    ptab = pi_table(max(math.isqrt(n), 3))
    k = 1
    while (1 << k) <= n or k == 1:
        r = integer_kth_root(n, k)
        if r < 2:
            break
        counts.append(pi_count(r) if k == 1 else int(ptab[r]))
        k += 1
    return math.fsum(c / kk for kk, c in enumerate(counts, start=1))


def test_j_value_keeps_the_bits_of_the_root_loop():
    rng = np.random.default_rng(24)
    xs = list(range(5001))
    xs += [b**k + d for b, top in ((2, 26), (3, 16)) for k in range(1, top + 1) for d in (-1, 0, 1)]
    xs += np.unique(np.geomspace(5001, 1e8, 12).astype(np.int64) + rng.integers(0, 1000, 12)).tolist()
    xs += [12_345_678, 10**8]
    for x in xs:
        assert j_value(x).hex() == _j_by_root_loop(x).hex(), x
    assert j_value(5000.9) == _j_by_root_loop(5000)


def test_mobius_roundtrip_vectorised():
    residuals = pi_from_j_residuals(20_000)
    assert float(residuals.max()) < 1e-9


# sha256 of the residual bytes, from the float-root implementation this one replaced
C9_RESIDUAL_SHA256 = {
    100: "2588f9b2fe08c23d65a36e0dd2e68e1b375bdb2142e23478e42c288ad34e44d0",
    1000: "36ecd3f46b7a9e4274ada5d90c446965bfbdf1bd6d2a6f64bfd53d1de18f0f75",
    20000: "ee9d9fc63d3d3eb3155c2f0d96749a44d1223c6697f0370e5bc296deb2a2006c",
    100000: "1e518e8c61965e8bcdc8dd8291fb754d390cac6386db019304dea83cdd1d2cee",
    1000000: "3a8e4517e017c2b556f47c5d072dba76d64706fd526d3edcca1f2640b3a0eb69",
}


@pytest.mark.parametrize("limit", sorted(C9_RESIDUAL_SHA256))
def test_pi_from_j_residuals_keep_their_pinned_bits(limit):
    residuals = pi_from_j_residuals(limit)
    assert residuals.dtype == np.float64 and residuals.shape == (limit - 1,)
    assert hashlib.sha256(residuals.tobytes()).hexdigest() == C9_RESIDUAL_SHA256[limit]


def test_c9_at_three_million_keeps_its_worst_residual():
    result = run_claim("C9", {"limit": 3_000_000})
    assert result.verdict == "pass"
    assert fmt17(result.max_abs_residual) == "8.7311491370201111e-11"
    assert result.arg_extremum == 2685619


def test_vectorised_j_matches_scalar():
    xs = np.array([2, 3, 4, 8, 9, 16, 100, 1024, 6859, 59049, 65536], dtype=np.int64)
    vec = step_at("j", xs)
    for x, v in zip(xs, vec):
        assert v == pytest.approx(j_value(int(x)), abs=1e-12)


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
        # correctly rounded carry: at most (count - 1) eps times the total
        count = int(np.count_nonzero(primes <= n)) + 2 * math.isqrt(n)
        assert abs(got - want) <= count * np.finfo(float).eps * want, n


def test_step_segments_carry_and_validation():
    segs = list(step_segments("pi", B + 5))
    assert [(seg.lo, seg.hi) for seg, _ in segs] == [(0, B - 1), (B, B + 5)]
    # each segment comes with the step's value just left of it
    assert segs[0][1] == 0 and segs[1][1] == pi_count(B - 1)
    dense = segment_values("pi", *segs[1], slice(0, 6))
    assert dense.dtype == np.int64 and dense[0] == pi_count(B)
    # a segment wholly below lo is sieved for the carry but not yielded
    ((seg, before),) = step_segments("pi", B + 5, lo=B)
    assert seg.lo == B and segment_values("pi", seg, before, slice(0, 6)).tolist() == dense.tolist()
    psi_segs = list(step_segments("psi", B + 5))
    ((seg, before),) = step_segments("psi", B + 5, lo=B + 5)
    assert seg.lam_values is not None
    want = segment_values("psi", *psi_segs[1], slice(0, 6))
    assert segment_values("psi", seg, before, slice(0, 6)).tolist() == want.tolist()
    with pytest.raises(ValueError):
        list(step_segments("j", 10))
    with pytest.raises(ValueError):
        step_at("mu", [10])


def test_sparse_segment_values_have_the_dense_bits():
    rng, cut_rng = np.random.default_rng(11), np.random.default_rng(12)
    for step in ("pi", "psi"):
        for seg, before in step_segments(step, 3 * B + 5):
            # a dense read spreads the jumps' running sum over the gaps in its
            # slice: the bits of a running sum over every integer, carries included
            is_prime, lam = oracle.dense_arrays(seg)
            jumps = is_prime.astype(np.float64) if step == "pi" else lam
            want = np.cumsum(is_prime, dtype=np.int64) if step == "pi" else np.cumsum(lam)
            want += before
            assert before or seg.lo == 0
            n = len(seg)
            dense = segment_values(step, seg, before, slice(0, n))
            assert dense.dtype == want.dtype and dense.tobytes() == want.tobytes(), (step, seg.lo)
            assert segment_jumps(step, seg, slice(0, n)).tobytes() == jumps.tobytes(), (step, seg.lo)
            levels = segment_levels(step, seg)
            cuts = np.sort(cut_rng.integers(0, n, 40))
            for sl in [slice(0, 1), slice(n - 1, n), slice(2, 3), slice(0, min(n, 4097))] + [
                slice(int(a), int(b) + 1) for a, b in zip(cuts[::2], cuts[1::2])
            ]:
                for lv in (None, levels):
                    got = segment_values(step, seg, before, sl, levels=lv)
                    assert got.tobytes() == dense[sl].tobytes(), (step, seg.lo, sl)
                    assert segment_jumps(step, seg, sl, levels=lv).tobytes() == jumps[sl].tobytes(), (step, sl)
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
                assert sparse.tobytes() == dense[offs].tobytes(), (step, seg.lo, offs[:5])
                rank = seg.lam_rank(offs) if step == "psi" else None
                assert segment_values(step, seg, before, offs, rank).tobytes() == sparse.tobytes()
                for r in (None, rank):
                    assert segment_jumps(step, seg, offs, r).tobytes() == jumps[offs].tobytes()
            assert segment_values(step, seg, before, np.array([], dtype=np.int64)).size == 0


@pytest.mark.parametrize("size", [7_919, 128])
def test_prime_counter_is_the_dense_cumsum(monkeypatch, size):
    # segments of 7919 start at odd and even lo; segments of 128 hold 64 odd
    # integers each, so a count of a whole segment ends on a word boundary.
    # The first segment holds the prime 2.
    monkeypatch.setattr(sieve, "DEFAULT_SEGMENT", size)
    rng = np.random.default_rng(20)
    for seg, before in step_segments("pi", 6 * size + 100):
        n = len(seg)
        dense = segment_values("pi", seg, before, slice(0, n))
        edges = [0, 0, 1, n - 1, n - 1] + list(range(63, n, 64)) + list(range(64, n, 64))
        offs = np.sort(np.concatenate((edges, rng.integers(0, n, 300)))).astype(np.int64)
        assert np.array_equal(segment_values("pi", seg, before, offs), dense[offs]), seg.lo
        assert np.array_equal(segment_values("pi", seg, before, np.arange(n)), dense), seg.lo
        assert before + seg.n_primes == dense[-1]
        # every-jump scans read the primes' offsets from the mask: where the counter steps
        steps = np.diff(seg.count_primes(np.arange(-1, n)))
        assert np.array_equal(seg.prime_offsets(), np.flatnonzero(steps)), seg.lo


def test_step_at_sparse_points_match_the_oracle():
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


def test_j_higher_terms_one_pass_is_the_per_point_search():
    from zetalab.arith import j_higher_terms

    limit = B + 200_000
    values, _w, cum = higher_power_jumps(limit)

    def per_point(xs):  # one binary search per x, as J's k >= 2 terms were first read
        idx = np.searchsorted(values, xs, side="right")
        out = np.zeros(len(xs), dtype=np.float64)
        nz = idx > 0
        out[nz] = cum[idx[nz] - 1]
        return out

    rng = np.random.default_rng(43)
    at_powers = np.sort(np.concatenate([values[:50], values[:50] - 1, values[-5:], values[-5:] - 1]))
    scattered = np.sort(rng.integers(0, limit + 1, 20_000))
    cases = [
        np.array([], dtype=np.int64),
        np.arange(4),  # below the first k >= 2 jump, at 4
        np.array([0, 0, 3, 4, 4, 7, 8, 8, 9, 9, 9]),  # repeats, at and just below powers
        np.array([4, 4, 5, 7, 8]),  # starts exactly at the first power
        at_powers,  # every x exactly at p**k or p**k - 1, some twice (8 = 9 - 1)
        np.arange(B - 3000, B + 3000),  # across 2**20
        scattered,
        np.array([limit]),
    ]
    for xs in cases:
        for arr in (xs.astype(np.int64), xs.astype(np.float64)):
            got = j_higher_terms(arr, limit)
            assert got.dtype == np.float64 and got.tobytes() == per_point(arr).tobytes(), xs[:5]
    # step_at hands the terms its sorted points and scatters them back
    pts = rng.permutation(np.concatenate([at_powers, scattered[:2000], np.arange(4)]))
    flags = np.concatenate([f for _, f in oracle.prime_segments(limit)])
    want = np.cumsum(flags)[pts] + oracle._HigherTerms(limit)(pts)
    assert np.array_equal(step_at("j", pts), want)


def test_psi_value_examples():
    assert psi_value(10) == pytest.approx(7.832014180505469, abs=1e-12)
    assert psi_value(20) == pytest.approx(19.265658314547978, abs=1e-12)
    assert psi_value(100) == pytest.approx(94.045311229357392, abs=1e-12)
    assert psi_value(1) == 0.0


def _exact_total_cases():
    for seg in iter_segments(0, 2 * 10**7, want_lam=True):
        yield seg.lam_values
    (top,) = iter_segments(2**40 - 1000, 2**40, want_lam=True)
    yield top.lam_values
    rng = np.random.default_rng(25)
    for seg in iter_segments(0, 3 * 10**6, want_lam=True):
        values = seg.lam_values
        for _ in range(30):
            a, b = np.sort(rng.integers(0, values.size + 1, 2))
            yield values[a:b]
        yield values[rng.random(values.size) < 0.01]


def test_lam_total_is_the_fsum_of_the_values():
    for values in _exact_total_cases():
        # the exact integer sum rests on every value lying in [log 2, 32)
        assert values.size == 0 or (values.min() >= math.log(2) and values.max() < 32)
        assert _lam_scaled(values) / 2**53 == math.fsum(values.tolist())
    # exact halfway sums, rounded to the even neighbour (down, then up), and the empty sum
    ties = {(16.0, 0.5 + 2**-49): 16.5, (16.0 + 2**-48, 0.5 + 2**-49): 16.5 + 2**-47, (): 0.0}
    for values, want in ties.items():
        got = _lam_scaled(np.array(values, dtype=np.float64)) / 2**53
        assert got == math.fsum(values) == want and math.copysign(1, got) == 1


def _psi_by_dense_fsum(xs):
    """psi from dense Lambda with an fsum oracle: at each segment start (to
    max(xs)), the fsum of every Lambda value below it; at each x, that carry
    plus the dense cumsum at its offset."""
    earlier, carry, at = [], {}, {}
    for seg in iter_segments(0, max(xs), want_lam=True):
        _, lam = oracle.dense_arrays(seg)
        carry[seg.lo] = math.fsum(earlier)
        for x in xs:
            if seg.lo <= x <= seg.hi:
                at[x] = np.cumsum(lam)[x - seg.lo] + carry[seg.lo]
        earlier.extend(lam[np.flatnonzero(lam)].tolist())
    return carry, at


def test_psi_has_the_bits_of_the_dense_fsum_composition():
    xs = [2, 10**6, 2**20, 2**20 + 1, 3 * 10**7]
    carry, at = _psi_by_dense_fsum(xs)
    assert step_at("psi", xs).tolist() == [at[x] for x in xs]
    # the carry at every segment start to 3e7 is the fsum of every Lambda value below it
    assert {seg.lo: before for seg, before in step_segments("psi", max(xs))} == carry


def test_psi_value_is_the_fsum_of_every_lambda_value_up_to_x():
    top = 3 * 10**7
    rng = np.random.default_rng(28)
    sampled = rng.choice(np.unique(np.geomspace(2, top, 5000).astype(np.int64)), 200, replace=False)
    segs = list(iter_segments(0, top, want_lam=True))
    ns = np.concatenate([seg.lo + seg.lam_nonzero for seg in segs])
    values = np.concatenate([seg.lam_values for seg in segs]).tolist()
    # past the first segment: the sum of the two rounded segment totals is
    # 1079468.1595597418, one ulp below the fsum
    for x in [2, 10**6, 2**20, 2**20 + 1, 1079893, top, *sampled.tolist()]:
        assert psi_value(x) == math.fsum(values[: np.searchsorted(ns, x, side="right")]), x
    assert psi_value(1079893) == 1079468.1595597421


def test_psi_monotone_with_log_p_jumps():
    _, lam = oracle.dense_arrays(one_segment(400))
    prev = 0.0
    for n in range(2, 401):
        cur = psi_value(n)
        assert cur >= prev
        jump = cur - prev
        assert jump == pytest.approx(lam[n], abs=1e-10)
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
        gap = j_value(x) - pi_count(x)
        half = 0.5 * j_value(math.isqrt(x))
        tail = 0.0
        k = 3
        while 2**k <= x:
            r = integer_kth_root(x, k)
            if r >= 2:
                tail += pi_count(r) / k
            k += 2
        assert abs((gap - half) - tail) < 1e-9, x
        envelope = j_value(integer_kth_root(x, 3)) / 3 + pi_count(integer_kth_root(x, 5)) + 1
        assert abs(gap - half) < envelope, x


def test_higher_power_jump_table():
    vals, wts, cum = higher_power_jumps(100)
    assert list(vals) == [4, 8, 9, 16, 25, 27, 32, 49, 64, 81]
    assert wts[0] == 0.5 and wts[1] == pytest.approx(1 / 3)
    assert cum[-1] == pytest.approx(np.sum(wts))
    # to 1e9 the table is the prime-power table, weighted 1/k, and agrees with
    # a plain walk over p**k in Python integers
    limit = 10**9
    vals, wts, cum = higher_power_jumps(limit)
    assert np.array_equal(vals, higher_prime_powers(limit)[0])
    walk = sorted(
        (p**k, k)
        for p in base_primes(math.isqrt(limit)).tolist()
        for k in range(2, limit.bit_length())
        if p**k <= limit
    )
    assert vals.tolist() == [v for v, _ in walk]
    assert wts.tolist() == [1.0 / k for _, k in walk]
    assert np.array_equal(cum, np.cumsum(wts))
