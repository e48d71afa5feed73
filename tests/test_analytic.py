"""Series-defined quantities against quadrature and brute-series oracles."""

import hashlib
import math
import struct

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import expi

from zetalab import analytic, compensated, laplace, verify
from zetalab.analytic import (
    EULER_GAMMA,
    R_of_s,
    harmonic_model,
    hurwitz_zeta_real,
    li_pv,
    li_vec,
    lie,
    stirling_model,
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


# sha256 of li_series_terms' bytes over the points of _series_pin_points, as
# captured before the series became a composition of the compensated helpers
SERIES_PIN = "e11dd3f29b348f195790a61a9c5dfbf100fcf5ca2ba82d93f8aeae94bf55c440"


def _series_pin_points():
    edge = analytic.LI_SERIES_LOG_MAX
    rng = np.random.default_rng(20260918)
    spread = np.exp(rng.uniform(math.log(1e-12), math.log(edge), 20000)).tolist()
    # lie's 12-point panels at edges 40 and 44, with numpy's tabulated nodes
    t = np.polynomial.legendre.leggauss(12)[0]
    nodes = []
    for mid, half in (laplace._lie_panels(x_max)[:2] for x_max in (40.0, 44.0)):
        nodes += (mid[:, None] + half[:, None] * t).ravel().tolist()
    return spread + nodes + [1e-12, 1.0, 2.0, 40.0, edge]


def test_li_series_keeps_its_pinned_bits():
    points = _series_pin_points()
    assert len(points) == 20000 + 2 * 864 + 5
    packed = b"".join(struct.pack("d", analytic.li_series_terms(v)) for v in points)
    assert hashlib.sha256(packed).hexdigest() == SERIES_PIN
    # the array driver, over the active set, gives the same bytes
    array = analytic.li_series_terms(np.array(points))
    assert hashlib.sha256(array.tobytes()).hexdigest() == SERIES_PIN
    assert li_pv(2.0).hex() == "0x1.0b8fda7e91807p+0"


def test_array_lie_has_the_scalar_bits():
    edge = analytic.LI_SERIES_LOG_MAX
    nodes = [laplace._lie_panels(x_max)[2] for x_max in (40.0, 44.0)]
    for x in nodes + [np.array([edge, 1.0, edge]), np.array([]), np.array(2.0)]:
        got = lie(x)
        want = np.array([lie(v) for v in x.ravel().tolist()]).reshape(x.shape)
        assert got.shape == x.shape and got.tobytes() == want.tobytes()
    assert np.array_equal(laplace._lie_panels(40.0)[3], lie(nodes[0]))


def test_c14_reads_li_vec_not_the_series(monkeypatch):
    def fail(log_x):
        raise AssertionError("C14 ran the scalar series")

    monkeypatch.setattr(analytic, "li_series_terms", fail)
    params = verify.CLAIMS["C14"].defaults
    r = verify.run_claim("C14")
    assert r.passed
    monkeypatch.undo()
    xs = np.geomspace(params["x_lo"], params["x_hi"], int(params["points"]))
    li = np.array([row[2] for row in r.rows[0::2]])  # rhs of each lower-side row
    assert np.array_equal(np.array([row[0] for row in r.rows[0::2]]), xs)
    assert np.array_equal(li, li_vec(np.sqrt(xs)))
    scalar = np.array([li_pv(math.sqrt(x)) for x in xs.tolist()])
    assert np.all(np.abs(li - scalar) <= 1e-14 * scalar)


def test_lie_and_li_against_30_digit_mpmath():
    # 400 log-spaced points from 1e-12 to the domain edge; li is taken at e**x.
    # The measured worst error is 2.4e-16 of max(1, |value|) (relative error is
    # meaningless at li's zero near 1.451), so 3e-16 bounds it with no slack to hide a drift.
    edge = analytic.LI_SERIES_LOG_MAX
    grid = np.exp(np.linspace(math.log(1e-12), math.log(edge), 400)).tolist()[:-1] + [edge]
    with mpmath.workdps(30):
        for x in grid:
            exact = mpmath.ei(x)
            assert abs(lie(x) - exact) <= 3e-16 * max(1, abs(exact)), x
            y = math.exp(x)
            if y > 1.0 and math.log(y) <= edge:
                exact = mpmath.li(y)
                assert abs(li_pv(y) - exact) <= 3e-16 * max(1, abs(exact)), y


def test_c6_runs_the_series_once_per_distinct_node(monkeypatch):
    # C6 runs the series in one array call per edge: record the nodes of each call
    batches = []
    series = analytic.li_series_terms

    def count_series(log_x):
        batches.append(np.size(log_x))
        return series(log_x)

    monkeypatch.setattr(analytic, "li_series_terms", count_series)
    laplace._lie_panels.cache_clear()
    assert verify.run_claim("C6").passed
    nodes = laplace._lie_panels(40.0)[2]
    assert batches == [np.unique(nodes).size] == [nodes.size] == [864]
    # the nodes do not depend on s, so a second C6 reads the cached values
    assert verify.run_claim("C6").passed
    assert batches == [864]

    def fail(log_x):
        raise ValueError("no series today")

    monkeypatch.setattr(analytic, "li_series_terms", fail)
    for _ in range(2):  # a raise is never cached
        with pytest.raises(ValueError, match="no series today"):
            laplace.laplace_quadrature("lie", 3.0, 44.0)
    monkeypatch.setattr(analytic, "li_series_terms", count_series)
    assert laplace.laplace_quadrature("lie", 3.0, 44.0).contains()
    assert batches == [864, 864]


def test_series_outside_its_domain_raises(monkeypatch):
    edge = analytic.LI_SERIES_LOG_MAX
    assert math.isfinite(lie(edge))
    assert math.isfinite(li_pv(8.8e301))

    def never_stops(log_x):
        raise AssertionError(f"the series was asked for log x = {log_x!r}, where it never stops")

    monkeypatch.setattr(analytic, "li_series_terms", never_stops)
    for x in (math.nextafter(edge, math.inf), 700.0, math.inf, math.nan, -1.0, 0.0):
        for _ in range(2):
            with pytest.raises(ValueError, match="lie requires"):
                lie(x)
        # one bad value in an array raises before the series runs on any point
        for xs in (np.array([x]), np.array([1.0, 2.0, x, edge]), np.full((3, 4), x)):
            with pytest.raises(ValueError, match="lie requires"):
                lie(xs)
    for x in (8.9e301, math.inf, math.nan, 1.0):
        with pytest.raises(ValueError, match="li_pv requires"):
            li_pv(x)


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


def test_li_vec_is_pointwise():
    # each value is its own series' fixed point, whatever else the array holds
    block = analytic._LI_VEC_BLOCK
    n = block + block // 2
    xs = 1.0 + np.geomspace(2.0**-40, 1e12 - 1.0, n)  # spans (1, 1e12]
    rng = np.random.default_rng(19)
    rng.shuffle(xs)
    vals = li_vec(xs)
    picks = np.concatenate([rng.choice(n, 600, replace=False), [0, block - 1, block, n - 1]])
    for i in picks:
        assert li_vec(xs[i : i + 1])[0] == vals[i], (i, xs[i])
    subset = np.sort(rng.choice(n, 5000, replace=False))
    assert np.array_equal(li_vec(xs[subset]), vals[subset])
    assert np.array_equal(li_vec(xs[::-1]), vals[::-1])
    with mpmath.workdps(30):
        for i in picks[:200]:
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


@pytest.mark.parametrize("s", [1e62, 1e100, 1e308])
def test_zeta_and_zeta_prime_past_the_bernoulli_terms_overflow(s):
    # the Euler-Maclaurin terms were inf * 0 = NaN from s of about 4e61 on
    assert zeta_real(s) == 1.0
    assert math.isfinite(zeta_prime_real(s)) and zeta_prime_real(s) <= 0.0


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
    # each 64-bit endpoint is the correctly rounded 40-digit value, and the
    # 40-digit gap meets the tolerance; the float64 difference itself cannot
    # resolve the ~1e-15 gap once one ulp of log N! is ~1e-11 (N ~ 1e4)
    ns = np.arange(2, 10_001)
    pairs = stirling_model(ns)  # one array call, as C1 makes
    with mpmath.workdps(40):
        half_log_2pi = mpmath.log(2 * mpmath.pi) / 2
        log_fact = mpmath.mpf(0)
        for n, exact, model_64 in zip(ns.tolist(), pairs.exact.tolist(), pairs.model.tolist()):
            log_n = mpmath.log(n)
            log_fact += log_n
            model = n * log_n - n + log_n / 2 + half_log_2pi + mpmath.mpf(1) / (12 * n)
            assert (exact, model_64) == (float(log_fact), float(model)), n
            assert abs(log_fact - model) < mpmath.mpf(1) / (100 * n**3), n
    assert np.array_equal(pairs.residual, pairs.exact - pairs.model)
    # the scalar call at an N is that element of the array call
    for i in (0, 1, 98, 997, 9998):
        one = stirling_model(int(ns[i]))
        assert type(one.model) is float and type(one.tolerance) is float
        fields = (one.exact, one.model, one.residual, one.tolerance)
        assert fields == (pairs.exact[i], pairs.model[i], pairs.residual[i], pairs.tolerance[i])


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
    with pytest.raises(ValueError):
        harmonic_model(10_001)  # past the H_n table


def test_harmonic_numbers_are_correctly_rounded():
    with mpmath.workdps(40):
        exact = mpmath.mpf(0)
        for n in range(1, 10_001):
            exact += mpmath.mpf(1) / n
            assert analytic._harmonic_number(n) == float(exact), n
        # the first n at which an 80-bit running sum rounds the wrong way
        for n in (213, 254, 652, 1221):
            assert analytic._harmonic_number(n) == float(mpmath.harmonic(n)), n


# sha256 of the (hi, lo) rows 0..10**4 of the double-double log n! and H_n
# tables, captured from the scalar running sums they replaced
LOGFACT_TABLE_PIN = "d28f77904c2d201ad223d30378e7c556f6d732a35a2ecfe76367d5acc31094a5"
HARMONIC_TABLE_PIN = "75454276619728ffab799892b242da48833fbf40a86bc317132155a67fdc5fee"


def test_double_double_tables_keep_their_pinned_bits():
    logfact = analytic._dd_log_factorial_table()
    harmonic = analytic._dd_harmonic_table()
    assert logfact.shape == harmonic.shape == (10_001, 2)
    assert hashlib.sha256(logfact.tobytes()).hexdigest() == LOGFACT_TABLE_PIN
    assert hashlib.sha256(harmonic.tobytes()).hexdigest() == HARMONIC_TABLE_PIN


def test_log_factorial_reads_the_table_to_ten_thousand(monkeypatch):
    # C1 compares the direct sum with its model, so n <= 10**4 never takes Stirling
    def fail(n):
        raise AssertionError("took the Stirling series")

    monkeypatch.setattr(analytic, "_stirling_log_factorial", fail)
    table = analytic._dd_log_factorial_table()[:, 0]
    assert np.array_equal(analytic.log_factorial(np.arange(10_001)), table)
    assert analytic.stirling_model(10_000).exact == table[10_000]
    with pytest.raises(AssertionError):
        analytic.log_factorial(10_001)


def _scalar_dd_log(m: float):
    """The scalar dd_log loop the array body replaced, as the bit reference."""
    f, e = math.frexp(m)
    if f < 0.7071067811865476:
        f *= 2.0
        e -= 1
    w = compensated.dd_div((f - 1.0, 0.0), compensated.two_sum(f, 1.0))
    z = compensated.dd_mul(w, w)
    term = acc = w
    for recip in compensated._ODD_RECIP:
        term = compensated.dd_mul(term, z)
        contrib = compensated.dd_mul(term, recip)
        acc = compensated.dd_add(acc, contrib)
        if abs(contrib[0]) < 1e-35 * abs(acc[0]):
            break
    acc = compensated.dd_mul_d(acc, 2.0)
    if e:
        acc = compensated.dd_add(acc, compensated.dd_mul_d(compensated.LN2_DD, float(e)))
    return acc


def test_array_dd_log_gives_the_scalar_bits():
    rng = np.random.default_rng(20261019)
    for m in (np.arange(1.0, 20_001.0), np.exp2(rng.uniform(-60.0, 60.0, 10_000))):
        hi, lo = compensated.dd_log(m)
        ref = np.array([_scalar_dd_log(v) for v in m.tolist()])
        assert np.array_equal(hi, ref[:, 0]) and np.array_equal(lo, ref[:, 1])
        assert np.array_equal(np.signbit(lo), np.signbit(ref[:, 1]))
    for v in (2.0, 7.0, 0.1, 1e300):
        pair = compensated.dd_log(v)
        assert pair == _scalar_dd_log(v)
        assert type(pair[0]) is float and type(pair[1]) is float
    # the active set keeps the bits of 0-d calls, one element at a time
    for m in (np.arange(2.0, 10_001.0), rng.choice(np.exp2(rng.uniform(-60.0, 60.0, 10_000)), 1000)):
        hi, lo = compensated.dd_log(m)
        ref = np.array([compensated.dd_log(np.array(v)) for v in m.tolist()])
        assert hi.tobytes() == ref[:, 0].tobytes() and lo.tobytes() == ref[:, 1].tobytes()
    assert [a.shape for a in compensated.dd_log(np.full((2, 3), 5.0))] == [(2, 3), (2, 3)]
    assert [a.size for a in compensated.dd_log(np.array([]))] == [0, 0]
    for bad in (0.0, -1.0, math.inf, math.nan, np.array([2.0, 0.0])):
        with pytest.raises(ValueError):
            compensated.dd_log(bad)


def test_log_factorial_is_correctly_rounded():
    rng = np.random.default_rng(0)
    ns = rng.integers(2, 10**6, size=400, endpoint=True).tolist()
    ns += [201204, 409200, 639332, 10**4, 10**4 + 1, 10**9, 10**15]
    got = analytic.log_factorial(np.array(ns))
    with mpmath.workdps(40):
        want = [float(mpmath.loggamma(n + 1)) for n in ns]
    assert [n for n, g, w in zip(ns, got.tolist(), want) if g != w] == []
    assert all(analytic.log_factorial(n) == w for n, w in zip(ns[-7:], want[-7:]))
    assert type(analytic.log_factorial(10**9)) is float
    for bad in (-1, 2**53 + 1, 2.0, np.array([3, -2])):
        with pytest.raises(ValueError):
            analytic.log_factorial(bad)


def test_li_sqrt_bracket_from_100():
    # below ~e^2 the lower side fails (li(e) < 2e/2), hence the 100 threshold
    for x in np.geomspace(100.0, 1e8, 300):
        x = float(x)
        v = li_pv(math.sqrt(x))
        assert 2.0 * math.sqrt(x) / math.log(x) < v < 4.0 * math.sqrt(x) / math.log(x), x


def test_euler_gamma_is_the_nearest_double():
    assert EULER_GAMMA == float(mpmath.euler)
