"""Smooth and series-defined quantities on the real axis s > 1 / x > 0.

zeta and its derivative are evaluated from the original Dirichlet series,
accelerated by Euler-Maclaurin (direct sum to a cutoff, then integral plus
half-term plus Bernoulli corrections).  The logarithmic integral li and its
log-contracted companion lie come from their classical power series.

The Stirling and harmonic comparisons pit a directly computed sum against a
closed asymptotic model.  Both endpoints of the Stirling pair are computed in
double-double arithmetic so the stored 64-bit values are correctly rounded;
at N ~ 1e4 the true gap between the sides is a fraction of one ulp, so
anything sloppier dissolves the signal into representation noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from threading import Lock

import numpy as np

from .compensated import (
    LOG_2PI_DD,
    dd_add,
    dd_div,
    dd_log,
    dd_mul,
    dd_mul_d,
    dd_sub,
)

EULER_GAMMA = 0.5772156649015329

# B_2, B_4, B_6: the Bernoulli corrections of the Euler-Maclaurin tails
_BERNOULLI = (1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0)
_EM_CUTOFF = 20  # direct-sum length before the Euler-Maclaurin tail, for s >= 1.1
_LI_VEC_TOL = 1e-14  # li_vec stops once every series term is below this
_LI_VEC_BLOCK = 1 << 15  # points per li_vec block, so that its work arrays fit in L2


@dataclass(frozen=True)
class ModelPair:
    """A directly computed quantity next to its closed-form model."""

    exact: float
    model: float
    residual: float
    tolerance: float

    @classmethod
    def of(cls, exact: float, model: float, tolerance: float) -> "ModelPair":
        return cls(exact=exact, model=model, residual=exact - model, tolerance=tolerance)


def _require_s(s: float) -> None:
    if not s > 1.0:
        raise ValueError(f"series domain is s > 1, got s={s}")


def hurwitz_zeta_real(s: float, q: float = 1.0) -> float:
    """sum_{n>=0} (n+q)**-s by Euler-Maclaurin, for s > 1 and q > 0."""
    _require_s(s)
    if q <= 0:
        raise ValueError("q must be positive")
    m = _EM_CUTOFF if s >= 1.1 else 100
    n = np.arange(m, dtype=np.float64) + q
    direct = float(np.sum(n ** -s))
    t = m + q  # tail starts at (m+q)**-s
    tail = t ** (1.0 - s) / (s - 1.0) + 0.5 * t ** -s
    poch = s
    tk = t ** (-s - 1.0)
    for j, b in enumerate(_BERNOULLI):
        fact = math.factorial(2 * j + 2)
        tail += b / fact * poch * tk
        poch *= (s + 2 * j + 1) * (s + 2 * j + 2)
        tk /= t * t
    return direct + tail


def zeta_real(s: float) -> float:
    """Riemann zeta from the original series, s > 1 only."""
    return hurwitz_zeta_real(s, 1.0)


def zeta_prime_real(s: float) -> float:
    """zeta'(s) = -sum log(n) n**-s for s > 1, Euler-Maclaurin on log(t) t**-s."""
    _require_s(s)
    m = _EM_CUTOFF if s >= 1.1 else 100
    n = np.arange(2.0, m)
    direct = float(np.sum(np.log(n) * n ** -s))
    t = float(m)
    logt = math.log(t)
    s1 = s - 1.0
    # integral of log(u) u**-s from t to infinity, plus half-term
    tail = t ** -s1 * (s1 * logt + 1.0) / (s1 * s1) + 0.5 * logt * t ** -s
    # derivatives of f(u) = log(u) u**-s: f^(m)(u) = (-1)^m u**(-s-m) (A_m log u + B_m)
    a_m, b_m = s, -1.0
    order = 1
    tk = t ** (-s - 1.0)
    for j, b in enumerate(_BERNOULLI):
        fact = math.factorial(2 * j + 2)
        # f^(2j+1)(t) = -t**(-s-2j-1) (A log t + B); E-M adds -B_2k/(2k)! f^(2k-1)
        tail += b / fact * tk * (a_m * logt + b_m)
        for _ in range(2):
            a_next = (s + order) * a_m
            b_next = (s + order) * b_m - a_m
            a_m, b_m = a_next, b_next
            order += 1
        tk /= t * t
    return -(direct + tail)


def li_series_terms(log_x: float) -> float:
    """sum_{k>=1} (log x)**k / (k * k!), the shared tail of li and lie.

    The term recursion runs in double-double: sixty plain-float multiplies
    drift by ~1e-7 absolute near log x = 20, which would drown the constant
    that separates lie from the growth integral.  Truncation waits for a term
    below 1e-17 of the sum, under the 64-bit representability floor, so the
    geometric tail left behind is ulp-sized.
    """
    term = (1.0, 0.0)
    acc = (0.0, 0.0)
    k = 0
    while True:
        k += 1
        term = dd_mul(term, dd_div((log_x, 0.0), (float(k), 0.0)))
        contrib = dd_div(term, (float(k), 0.0))
        acc = dd_add(acc, contrib)
        if abs(contrib[0]) < 1e-17 * max(1.0, abs(acc[0])) and k > abs(log_x):
            return acc[0]


def li_pv(x: float) -> float:
    """Principal-value logarithmic integral, from the classical series.

    li(x) = gamma + log|log x| + sum_k (log x)**k / (k * k!), valid for x > 1.
    """
    if not x > 1.0:
        raise ValueError("li_pv requires x > 1")
    lx = math.log(x)
    return EULER_GAMMA + math.log(abs(lx)) + li_series_terms(lx)


def lie(x: float) -> float:
    """li evaluated at e**x: gamma + log x + sum_k x**k / (k * k!), for x > 0."""
    if not x > 0.0:
        raise ValueError("lie requires x > 0")
    return EULER_GAMMA + math.log(x) + li_series_terms(x)


def _li_vec_steps(lx_ends: np.ndarray) -> int:
    """Series length of li_vec for an array whose log x values span lx_ends."""
    term = np.ones_like(lx_ends)
    k_floor = float(np.max(lx_ends))
    k = 0
    while True:
        k += 1
        term *= lx_ends / k
        if k > k_floor and float(np.max(np.abs(term / k))) < _LI_VEC_TOL:
            return k


def li_vec(x: np.ndarray) -> np.ndarray:
    """Vectorised li over a 1-D array of finite x > 1 (series, shared term recursion).

    Any other x raises ValueError: log x <= 0, NaN or inf would keep the
    stopping test below from ever holding.

    Every point runs the same K steps of ``term *= lx / k; acc += term / k``
    with lx = log x, where K is the first k above max(lx) at which every
    |term / k| is below 1e-14.  |term / k| grows with |lx| at each k, because
    IEEE multiply and divide are monotone, so the largest one belongs to the
    smallest or the largest lx and K is found from those two alone.  The
    array is then run in L2-sized blocks of K steps each.  Every point sees
    the same operations in the same order as in one pass over the whole
    array, so the blocks change the speed but not a bit of the result.
    Against 30-digit mpmath.li the error is below 1e-14 relative on
    [2, 1e9] and below 1e-14 absolute on (1, 2].
    """
    with np.errstate(divide="ignore", invalid="ignore"):  # bad x raise below
        lx = np.log(np.asarray(x, dtype=np.float64))
    if not lx.size:
        return lx
    lx_ends = np.array([lx.min(), lx.max()])
    if not (0.0 < lx_ends[0] and lx_ends[1] < math.inf):
        raise ValueError("li_vec needs finite x > 1")
    out = np.abs(lx)
    np.log(out, out=out)
    out += EULER_GAMMA
    n_steps = _li_vec_steps(lx_ends)
    width = min(lx.size, _LI_VEC_BLOCK)
    term, acc, tmp = np.empty(width), np.empty(width), np.empty(width)
    for start in range(0, lx.size, width):
        lb = lx[start : start + width]
        n = lb.size
        t, a, w = term[:n], acc[:n], tmp[:n]
        t.fill(1.0)
        a.fill(0.0)
        for k in range(1, n_steps + 1):
            np.divide(lb, k, out=w)
            t *= w
            np.divide(t, k, out=w)
            a += w
        out[start : start + n] += a
    return out


def R_of_s(s: float) -> float:
    """Laplace image of the staircase remainder: 1/(s-1) - zeta(s)/s."""
    _require_s(s)
    return 1.0 / (s - 1.0) - zeta_real(s) / s


# ---------------------------------------------------------------------------
# Stirling and harmonic comparisons

_DD_LOGFACT = [(0.0, 0.0), (0.0, 0.0)]  # index n -> dd log(n!)
_DD_LOCK = Lock()


def _dd_log_factorial(n: int):
    if n >= len(_DD_LOGFACT):
        with _DD_LOCK:
            acc = _DD_LOGFACT[-1]
            for m in range(len(_DD_LOGFACT), n + 1):
                acc = dd_add(acc, dd_log(float(m)))
                _DD_LOGFACT.append(acc)
    return _DD_LOGFACT[n]


def _dd_stirling_sides(n: int):
    exact = _dd_log_factorial(n)
    ln_n = dd_log(float(n))
    model = dd_mul_d(ln_n, float(n))
    model = dd_add(model, (-float(n), 0.0))
    model = dd_add(model, dd_mul_d(ln_n, 0.5))
    model = dd_add(model, dd_mul_d(LOG_2PI_DD, 0.5))
    model = dd_add(model, dd_div((1.0, 0.0), (12.0 * n, 0.0)))
    return exact, model


def stirling_model(N: int) -> ModelPair:
    """log N! against N log N - N + (log N)/2 + log(2 pi)/2 + 1/(12 N).

    tolerance is 1/(100 N**3); the true gap is -1/(360 N**3) + O(N**-5).
    """
    if N < 2:
        raise ValueError("N must be >= 2")
    exact_dd, model_dd = _dd_stirling_sides(N)
    return ModelPair.of(exact_dd[0], model_dd[0], 1.0 / (100.0 * N ** 3))


def stirling_residual_accurate(N: int) -> float:
    """The Stirling residual measured in double-double, before any rounding to
    64-bit endpoints.  Below N ~ 2000 this agrees with ModelPair.residual; above,
    the endpoint ulp (~1e-11) swamps the true ~1e-15 gap and this is the only
    faithful measurement."""
    if N < 2:
        raise ValueError("N must be >= 2")
    exact_dd, model_dd = _dd_stirling_sides(N)
    return dd_sub(exact_dd, model_dd)[0]


_HARMONIC: np.ndarray = np.zeros(1, dtype=np.longdouble)
_HARMONIC_LOCK = Lock()


def _harmonic_number(n: int) -> float:
    global _HARMONIC
    if n >= _HARMONIC.size:
        with _HARMONIC_LOCK:
            if n >= _HARMONIC.size:
                size = max(n + 1, 2 * _HARMONIC.size, 1024)
                fresh = np.zeros(size, dtype=np.longdouble)
                fresh[1:] = np.cumsum(1.0 / np.arange(1, size, dtype=np.longdouble))
                _HARMONIC = fresh
    return float(_HARMONIC[n])


def harmonic_model(N: int) -> ModelPair:
    """N*H_N - N against N log N - (1-gamma) N + 1/2 - 1/(12 N), tolerance 1/N**2."""
    if N < 2:
        raise ValueError("N must be >= 2")
    exact = N * _harmonic_number(N) - N
    model = N * math.log(N) - (1.0 - EULER_GAMMA) * N + 0.5 - 1.0 / (12.0 * N)
    return ModelPair.of(exact, model, 1.0 / N ** 2)


def psi_mean_original(x: float) -> float:
    """Density whose integral is the mean staircase e**x - (1+gamma)x."""
    if x < 0:
        raise ValueError("x must be >= 0")
    return math.exp(x) - (1.0 + EULER_GAMMA)


def j_mean_original(x: float) -> float:
    """e**x/x - (1+gamma)/x; satisfies x * j_mean_original(x) = psi_mean_original(x)."""
    if x == 0:
        raise ValueError("x = 0 is singular")
    return math.exp(x) / x - (1.0 + EULER_GAMMA) / x
