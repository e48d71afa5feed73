"""Series-defined quantities against quadrature and brute-series oracles."""

import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import expi

from zetalab import analytic
from zetalab.analytic import (
    EULER_GAMMA,
    R_of_s,
    harmonic_model,
    hurwitz_zeta_real,
    j_mean_original,
    li_pv,
    li_vec,
    lie,
    psi_mean_original,
    stirling_model,
    stirling_residual_accurate,
    zeta_prime_real,
    zeta_real,
)


# ---------------------------------------------------------------------------
# independent oracles

def li_quadrature(x: float, eps: float = 1e-6) -> float:
    """Principal value of the integral of 1/log t from 0 to x.

    Symmetric cutouts around t=1 leave an O(eps) defect that Richardson
    extrapolation in eps removes.
    """

    def cut(e: float) -> float:
        a, _ = quad(lambda t: 1.0 / math.log(t), 0.0, 1.0 - e, limit=200)
        b, _ = quad(lambda t: 1.0 / math.log(t), 1.0 + e, x, limit=200,
                    points=[min(2.0, x)] if x > 2 else None)
        return a + b

    return 2.0 * cut(eps / 2.0) - cut(eps)


ORACLE_GRID = [2.0, 5.0, 10.0, 1e2, 1e4, 1e6, 1e8]


def test_li_series_matches_quadrature_oracle():
    for x in ORACLE_GRID:
        assert abs(li_pv(x) - li_quadrature(x)) < 1e-9 * max(1.0, li_pv(x)), x


def test_li_series_matches_exponential_integral():
    for x in ORACLE_GRID + [1e10]:
        assert li_pv(x) == pytest.approx(float(expi(math.log(x))), rel=1e-12), x


def test_li_spot_values():
    assert li_pv(2.0) == pytest.approx(1.0451637801174927, abs=1e-9)
    assert li_pv(10.0) == pytest.approx(6.1655995047872979, abs=1e-9)
    assert li_pv(100.0) == pytest.approx(30.126141584079633, abs=1e-9)
    with pytest.raises(ValueError):
        li_pv(1.0)


def test_lie_is_li_of_exp():
    for x in [2.0, 5.0, 10.0, 1e2, 1e4, 1e6, 1e8]:
        assert abs(lie(math.log(x)) - li_pv(x)) <= 1e-10 * abs(li_pv(x))
    assert lie(1.0) == pytest.approx(1.8951178163559368, abs=1e-9)
    assert lie(math.log(2.0)) == pytest.approx(li_pv(2.0), abs=1e-12)
    assert lie(math.log(100.0)) == pytest.approx(li_pv(100.0), abs=1e-10)
    with pytest.raises(ValueError):
        lie(0.0)


def test_li_vec_matches_scalar():
    xs = np.array([2.0, 3.0, 10.0, 1e3, 1e7, 1e9])
    vals = li_vec(xs)
    for x, v in zip(xs, vals):
        assert v == pytest.approx(li_pv(float(x)), rel=1e-13)


def _li_vec_one_pass(xs: np.ndarray) -> np.ndarray:
    """li_vec's series run over the whole array at once, with its own stopping test."""
    lx = np.log(xs)
    acc = np.zeros_like(lx)
    term = np.ones_like(lx)
    k = 0
    while True:
        k += 1
        term *= lx / k
        contrib = term / k
        acc += contrib
        if k > float(np.max(lx)) and float(np.max(np.abs(contrib))) < 1e-14:
            return EULER_GAMMA + np.log(np.abs(lx)) + acc


def test_li_vec_against_mpmath_across_blocks():
    block = analytic._LI_VEC_BLOCK
    n = 3 * block + block // 3  # three whole blocks and a partial one
    xs = np.geomspace(1.0 + 2.0**-20, 1e9, n)
    np.random.default_rng(7).shuffle(xs)  # put both ends of the range at every boundary
    xs[[block - 1, block]] = 1.5, 2.0
    vals = li_vec(xs)
    assert np.array_equal(vals, _li_vec_one_pass(xs))
    near = [i for b in range(0, n, block) for i in range(b - 2, b + 3) if 0 <= i < n]
    with mpmath.workdps(30):
        for i in near + [n - 1]:
            x = float(xs[i])
            exact = mpmath.li(x)
            err = abs(float(vals[i]) - exact)
            assert err <= (1e-14 if x < 2.0 else 1e-14 * abs(exact)), (i, x)


@pytest.mark.parametrize("xs", [[0.0, 2.0], [math.nan, 2.0], [math.inf], [1.0], [-3.0, 2.0]])
def test_li_vec_rejects_x_outside_its_domain(xs):
    # log x <= 0, NaN or inf would keep the series' stopping test from holding
    with pytest.raises(ValueError):
        li_vec(np.array(xs))


def test_lie_differs_from_growth_integral_by_constant():
    # lie(x) minus the integral of e^t/t from 1 to x is independent of x
    diffs = []
    for x in np.linspace(2.0, 20.0, 19):
        integral, _ = quad(
            lambda t: math.exp(t) / t, 1.0, float(x), limit=300, epsabs=0.0, epsrel=1e-13
        )
        diffs.append(lie(float(x)) - integral)
    assert max(diffs) - min(diffs) < 1e-8
    assert diffs[0] == pytest.approx(lie(1.0), abs=1e-8)


def brute_zeta(s: float, terms: int = 10**7):
    """Partial sum plus integral bracketing of the tail: [lo, hi] contains zeta(s)."""
    n = np.arange(1, terms + 1, dtype=np.float64)
    partial = float(np.sum(n**-s))
    hi_tail = (terms + 1.0) ** (1.0 - s) / (s - 1.0) + (terms + 1.0) ** -s
    lo_tail = (terms + 1.0) ** (1.0 - s) / (s - 1.0)
    return partial + lo_tail, partial + hi_tail


def test_zeta_against_brute_series():
    for s in [1.5, 2.0, 3.0]:
        lo, hi = brute_zeta(s)
        assert lo - 1e-12 <= zeta_real(s) <= hi + 1e-12, s


def test_zeta_spot_values():
    assert zeta_real(2.0) == pytest.approx(math.pi**2 / 6.0, rel=1e-12)
    assert zeta_real(1.5) == pytest.approx(2.6123753486854883, rel=1e-12)
    assert zeta_real(10.0) == pytest.approx(1.0009945751278181, rel=1e-12)
    with pytest.raises(ValueError):
        zeta_real(1.0)
    with pytest.raises(ValueError):
        zeta_real(0.5)


def test_zeta_and_zeta_prime_against_mpmath():
    with mpmath.workdps(30):
        for s in np.linspace(1.1, 50.0, 99):
            s = float(s)
            z, dz = mpmath.zeta(s), mpmath.zeta(s, derivative=1)
            assert abs((zeta_real(s) - z) / z) <= 1e-13, s
            assert abs((zeta_prime_real(s) - dz) / dz) <= 5e-13, s


def test_zeta_prime_against_brute_series():
    for s, tol in [(2.0, 1e-5), (10.0, 1e-8)]:
        n = np.arange(2, 10**7, dtype=np.float64)
        brute = -float(np.sum(np.log(n) * n**-s))
        assert zeta_prime_real(s) == pytest.approx(brute, abs=tol)


def test_zeta_prime_spot_values():
    assert zeta_prime_real(2.0) == pytest.approx(-0.93754825431584375, abs=1e-10)
    assert zeta_prime_real(10.0) == pytest.approx(-0.00069703300817139369, abs=1e-12)
    # far out, the first series term dominates
    assert zeta_prime_real(40.0) == pytest.approx(-math.log(2.0) * 2.0**-40.0, rel=1e-10)
    with pytest.raises(ValueError):
        zeta_prime_real(1.0)


def test_hurwitz_against_scipy():
    from scipy.special import zeta as scipy_zeta

    for s in [1.5, 2.0, 5.0]:
        for q in [0.75, 1.0, 1.5]:
            assert hurwitz_zeta_real(s, q) == pytest.approx(float(scipy_zeta(s, q)), rel=1e-12)


def test_R_of_s_values():
    assert R_of_s(2.0) == pytest.approx(0.17753296657588678, abs=1e-12)
    assert R_of_s(1.5) == pytest.approx(0.25841643420967444, abs=1e-12)
    # zeta(100) ~ 1 so R(100) ~ 1/(100*99)
    assert R_of_s(100.0) == pytest.approx(1.0 / 9900.0, rel=1e-3)
    with pytest.raises(ValueError):
        R_of_s(1.0)


def test_stirling_model_examples():
    pair = stirling_model(10)
    assert pair.exact == pytest.approx(15.104412573075515, abs=1e-13)
    assert pair.model == pytest.approx(15.104415342975486, abs=1e-13)
    assert abs(pair.residual) < 3e-6
    assert pair.residual == pair.exact - pair.model
    assert abs(stirling_model(2).residual) < 1.25e-3
    assert abs(stirling_model(1000).residual) < 1e-8
    with pytest.raises(ValueError):
        stirling_model(1)


def test_stirling_residual_within_tolerance_everywhere():
    # measured in double-double; the 64-bit endpoint pair cannot resolve the
    # ~1e-15 true gap once N log N reaches ~1e4 (one ulp there is ~1e-11)
    for n in range(2, 10_001):
        assert abs(stirling_residual_accurate(n)) < 1.0 / (100.0 * n**3), n


def test_stirling_float64_pair_on_decade_grid():
    for n in (2, 10, 100, 1000, 10_000):
        pair = stirling_model(n)
        assert abs(pair.residual) <= pair.tolerance, (n, pair)


def test_harmonic_model():
    pair = harmonic_model(10)
    assert pair.exact == pytest.approx(19.28968253968254, abs=1e-12)
    assert pair.model == pytest.approx(19.289674245622452, abs=1e-12)
    assert abs(pair.residual) < 1e-4
    assert abs(harmonic_model(2).residual) < 0.25
    for n in range(2, 10_001):
        p = harmonic_model(n)
        assert abs(p.residual) <= p.tolerance, n
    with pytest.raises(ValueError):
        harmonic_model(1)


def test_mean_function_identities():
    assert psi_mean_original(0.0) == pytest.approx(-EULER_GAMMA, abs=3e-16)
    assert psi_mean_original(math.log(10.0)) == pytest.approx(10 - 1.5772156649015329, abs=1e-12)
    assert psi_mean_original(1.0) == pytest.approx(math.e - 1.5772156649015329, abs=1e-14)
    assert j_mean_original(1.0) == pytest.approx(math.e - (1 + EULER_GAMMA), abs=1e-14)
    assert j_mean_original(2.0) == pytest.approx((math.e**2 - 1.5772156649015329) / 2, abs=1e-13)
    for x in [0.25, 1.0, 3.0, 9.9]:
        assert x * j_mean_original(x) == pytest.approx(psi_mean_original(x), rel=1e-14)
    with pytest.raises(ValueError):
        j_mean_original(0.0)


def test_li_sqrt_bracket_from_100():
    # below ~e^2 the lower side fails (li(e) < 2e/2), hence the 100 threshold
    for x in np.geomspace(100.0, 1e8, 300):
        x = float(x)
        v = li_pv(math.sqrt(x))
        assert 2.0 * math.sqrt(x) / math.log(x) < v < 4.0 * math.sqrt(x) / math.log(x), x


def test_euler_gamma_is_the_nearest_double():
    assert EULER_GAMMA == float(mpmath.euler)
