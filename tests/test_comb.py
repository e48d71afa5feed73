"""Step combs, the staircase remainder, and its integral."""

import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetalab.arith import j_value, pi_count
from zetalab.comb import (
    ArithmeticKind,
    CombKind,
    build_comb,
    log_factorial,
    r_integral,
    r_integral_model,
    r_value,
    r_value_ordinate,
    zeta1_count,
)
from zetalab.sieve import integer_kth_root

LOG2 = math.log(2.0)
LOG3 = math.log(3.0)


def test_build_staircase():
    c = build_comb(CombKind.ZETA1, 4)
    assert c.values.tolist() == [1.0, 2.0, 3.0, 4.0]
    assert np.all(c.weights == 1.0)


def test_build_prime_power_comb():
    c = build_comb(CombKind.JCOMB, 10)
    assert list(c.values) == [2, 3, 4, 5, 7, 8, 9]
    assert np.allclose(c.weights, [1, 1, 0.5, 1, 1, 1 / 3, 0.5])


def test_build_arithmetic_comb():
    c = build_comb(ArithmeticKind(2.0, 2.0), 9)
    assert list(c.values) == [2, 4, 6, 8]
    assert np.all(c.weights == 1.0)
    c = build_comb(ArithmeticKind(1.5, 1.0), 5)
    assert list(c.values) == [1.5, 2.5, 3.5, 4.5]


def test_build_validation():
    with pytest.raises(ValueError):
        build_comb(CombKind.ZETA1, 0.5)
    with pytest.raises(ValueError):
        build_comb(ArithmeticKind(2.0, 2.0), 1.0)


def test_staircase_hits_every_integer_exactly():
    c = build_comb(CombKind.ZETA1, 2000)
    assert np.array_equal(c.values, np.arange(1.0, 2001.0))
    for n in range(1, 2001):
        assert zeta1_count(math.log(n)) == n


def test_eval_examples():
    # a comb's value at log a is the sum of its weights at ordinates <= a
    c = build_comb(CombKind.ZETA1, 10)
    assert c.weights[c.values <= 3].sum() == 3.0
    p = build_comb(CombKind.PSICOMB, 100)
    assert p.weights[p.values <= 10].sum() == pytest.approx(7.832014180505469, abs=1e-12)


def test_jcomb_eval_uses_per_k_counts():
    # per exponent k, the comb holds one weight 1/k for each prime up to the
    # exact k-th root
    c = build_comb(CombKind.JCOMB, 100_000)
    counts = [int(np.count_nonzero(c.weights == 1.0 / k)) for k in range(1, 20)]
    assert counts == [pi_count(integer_kth_root(100_000, k)) for k in range(1, 20)]
    assert counts[:4] == [9592, 65, 14, 7] and counts[16:] == [0, 0, 0]
    assert math.fsum(c.weights) == j_value(100_000)


def test_eta_values_are_zero_or_one():
    e = build_comb(CombKind.ETA, 5000)
    assert set(np.cumsum(e.weights).tolist()) == {0.0, 1.0}


def brute_lambda(n: int) -> float:
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            while n % d == 0:
                n //= d
            return math.log(d) if n == 1 else 0.0
    return math.log(n) if n > 1 else 0.0


def test_eval_against_brute_oracle():
    # the psi comb's jumps are exactly the n with Lambda(n) > 0, weighted Lambda(n)
    c = build_comb(CombKind.PSICOMB, 300)
    table = dict(zip(c.values.tolist(), c.weights.tolist()))
    brute = {float(n): brute_lambda(n) for n in range(1, 301) if brute_lambda(n) > 0}
    assert table.keys() == brute.keys()
    for a, w in brute.items():
        assert table[a] == pytest.approx(w, rel=1e-15)


def test_remainder_lattice_values():
    assert r_value(math.log(2.5)) == pytest.approx(0.5, abs=1e-12)
    assert abs(r_value(LOG3)) < 1e-12
    assert r_value(0.5) == pytest.approx(math.exp(0.5) - 1.0, abs=1e-15)
    # ordinate-domain queries are exact, no exp/log round trip
    assert r_value_ordinate(2.5) == 0.5
    assert r_value_ordinate(3.0) == 0.0
    assert r_value_ordinate(10.125) == 0.125


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=0.0, max_value=math.log(1e6)))
def test_remainder_always_in_unit_interval(x):
    assert 0.0 <= r_value(x) < 1.0


def test_remainder_integral_values():
    assert r_integral(0.0) == 0.0
    assert r_integral(LOG2) == pytest.approx(1.0 - LOG2, abs=1e-15)
    assert r_integral(math.log(10)) == pytest.approx(1.0785616431350585, abs=1e-12)
    # cross-check against the asymptotic model at N=10 (model error ~ 2.8e-6)
    assert r_integral(math.log(10)) == pytest.approx(r_integral_model(10, 0.0), abs=1e-3)


def test_remainder_integral_model_values():
    m = r_integral_model(10, 0.0)
    assert m == pytest.approx(1.0785644130350289, abs=1e-14)
    # the offset quadratic at c = 0.5 equals -0.5
    c = 0.5
    assert 1 - 6 * c + 6 * c * c == -0.5
    m5 = r_integral_model(10, 0.5)
    expected = math.log(10.5) / 2 + math.log(2 * math.pi) / 2 - 1 - 0.5 + (-0.5) / (12 * 10.5)
    assert m5 == pytest.approx(expected, abs=1e-15)
    with pytest.raises(ValueError):
        r_integral_model(1, 0.0)
    with pytest.raises(ValueError):
        r_integral_model(10, 1.0)


@pytest.mark.parametrize("n", [2, 3, 10, 100, 1000, 10_000])
@pytest.mark.parametrize("c", [0.0, 0.125, 0.25, 0.5, 0.75, 0.875])
def test_offset_model_matches_direct_integral(n, c):
    a = n + c
    direct = r_integral(math.log(a)) - r_value_ordinate(a)
    assert abs(direct - r_integral_model(n, c)) < 1.0 / n**2


def test_integral_stays_below_half_x():
    for x in np.geomspace(1e-3, math.log(1e6), 1000):
        assert r_integral(float(x)) < x / 2.0


def test_log_factorial():
    assert log_factorial(0) == 0.0
    assert log_factorial(1) == 0.0
    with mpmath.workdps(40):
        for n in (10, 457, 5000, 10_000, 10_001, 123_456):
            assert log_factorial(n) == float(mpmath.loggamma(n + 1)), n


def test_remainder_integral_of_an_array_is_pointwise():
    xs = np.geomspace(1e-3, 19.0, 400)
    assert np.array_equal(r_integral(xs), np.array([r_integral(x) for x in xs.tolist()]))
    assert type(r_integral(1.0)) is float


@pytest.mark.parametrize("x", [19.3, 40.0, math.inf, math.nan, -1.0])
def test_remainder_integral_outside_its_domain_raises(x):
    # at x = 40, (e^x - 1) - (N x - log N!) cancels to 1376 in floats; the true value is 19.92
    with pytest.raises(ValueError, match=re.escape(f"x={x!r}")):
        r_integral(x)
    with pytest.raises(ValueError, match=re.escape(f"x={x!r}")):
        r_integral(np.array([1.0, x]))
    # an array names its first bad x, not the whole array
    with pytest.raises(ValueError) as err:
        r_integral(np.concatenate(([1.0], np.full(999, x))))
    assert f"x={x!r}" in str(err.value) and len(str(err.value)) < 120


@pytest.mark.parametrize(
    "kind", list(CombKind) + [ArithmeticKind(2.0, 2.0), ArithmeticKind(1.5, 1.0)]
)
def test_comb_weights_have_the_signs_the_transform_relies_on(kind):
    # laplace_comb skips the weight product where every weight is 1.0, and
    # reads sum |terms| as the partial sum where no weight is negative
    w = build_comb(kind, 10**5).weights
    if kind is CombKind.ETA:
        assert np.any(w < 0)
        return
    assert not np.any(w < 0) and not np.any(np.signbit(w))
    if kind is CombKind.ZETA1 or isinstance(kind, ArithmeticKind):
        assert np.all(w == 1.0)
        # a read-only stride-0 view of 1.0: the cached comb holds no array of ones
        assert w.dtype == np.float64 and w.strides == (0,) and not w.flags.writeable
