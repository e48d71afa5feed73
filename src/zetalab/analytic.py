"""Smooth and series-defined quantities on the real axis s > 1 / x > 0.

zeta and its derivative are evaluated from the original Dirichlet series,
accelerated by Euler-Maclaurin (direct sum to a cutoff, then integral plus
half-term plus Bernoulli corrections).  The logarithmic integral li and its
log-contracted companion lie come from their classical power series: ``li_pv``
and ``lie`` run it in the ``compensated`` double-double arithmetic (3e-16),
``lie`` also on an array with the scalar bits, and the vectorised ``li_vec``
in float64 (1e-14 relative), for the scans and the claims whose margins leave
that room.

The Stirling and harmonic comparisons pit a directly computed sum against a
closed asymptotic model.  Both endpoints of the Stirling pair, and the
harmonic numbers, are computed in double-double arithmetic so the stored
64-bit values are correctly rounded; at N ~ 1e4 the true gap between the
Stirling sides is a fraction of one ulp, so anything sloppier dissolves the
signal into representation noise.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .compensated import (
    LOG_2PI_DD,
    dd_add,
    dd_div,
    dd_log,
    dd_mul,
    dd_mul_d,
)

EULER_GAMMA = 0.5772156649015329

# B_2, B_4, B_6: the Bernoulli corrections of the Euler-Maclaurin tails
_BERNOULLI = (1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0)
_EM_CUTOFF = 20  # direct-sum length before the Euler-Maclaurin tail, for s >= 1.1
_LI_VEC_BLOCK = 1 << 15  # points per li_vec block, so that its work arrays fit in L2
# the largest log x at which li_series_terms finishes; one ulp more and it never does
LI_SERIES_LOG_MAX = 695.2588015446954


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
    if not 1.0 < s < math.inf:
        raise ValueError(f"s must be finite and > 1, got s={s}")


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
        if tk == 0.0:  # this term and the later ones are 0; poch may have overflowed
            break
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
    # integral of log(u) u**-s from t to infinity, plus half-term; the integral
    # is 0 once t**-s1 underflows, where s1 log t or s1**2 may overflow
    head = t ** -s1
    tail = head * (s1 * logt + 1.0) / (s1 * s1) if head else 0.0
    tail += 0.5 * logt * t ** -s
    # derivatives of f(u) = log(u) u**-s: f^(m)(u) = (-1)^m u**(-s-m) (A_m log u + B_m)
    a_m, b_m = s, -1.0
    order = 1
    tk = t ** (-s - 1.0)
    for j, b in enumerate(_BERNOULLI):
        if tk == 0.0:  # this term and the later ones are 0; A and B may overflow
            break
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


def _series_term(term, acc, log_x, k: float):
    """One step of the li series in double-double: term times log x / k, and term / k added to acc.

    Plain IEEE arithmetic (the ``compensated`` helpers), so the scalar and the
    array driver of ``li_series_terms`` share it with the same bits.
    """
    term = dd_mul(term, dd_div((log_x, 0.0), (k, 0.0)))
    contrib = dd_div(term, (k, 0.0))
    return term, contrib, dd_add(acc, contrib)


def li_series_terms(log_x):
    """sum_{k>=1} (log x)**k / (k * k!), the shared tail of li and lie.

    Domain: |log x| <= LI_SERIES_LOG_MAX, which the callers check.  Past it a
    term exceeds ~1.3e300, the Dekker split of the next product overflows to
    NaN, and the stopping test below never holds.

    The term recursion runs in double-double: sixty plain-float multiplies
    drift by ~1e-7 absolute near log x = 20, which would drown the constant
    that separates lie from the growth integral.  Truncation waits for a term
    below 1e-17 of the sum, under the 64-bit representability floor, so the
    geometric tail left behind is ulp-sized.

    A float gives a float.  An array gives an array of its shape, each
    element with the bits of its scalar call: the terms run elementwise over
    an active set, the points whose own stopping test has not yet held, and a
    point leaves it with its sum written out at the term where its scalar
    loop returns.  A one-point array costs about 20 scalar calls, so scalar
    callers stay on the scalar loop.
    """
    if isinstance(log_x, np.ndarray):
        return _series_terms_array(log_x)
    term = (1.0, 0.0)
    acc = (0.0, 0.0)
    k = 0
    while True:
        k += 1
        term, contrib, acc = _series_term(term, acc, log_x, float(k))
        if k > abs(log_x) and abs(contrib[0]) < 1e-17 * max(1.0, abs(acc[0])):
            return acc[0]


def _series_terms_array(log_x: np.ndarray) -> np.ndarray:
    """``li_series_terms`` at every point of an array, over the active set."""
    lx = np.asarray(log_x, dtype=np.float64).ravel()
    out = np.empty(lx.size)
    size = np.abs(lx)
    at = np.arange(lx.size)
    term, acc = (1.0, 0.0), (0.0, 0.0)
    k = 0
    while at.size:
        k += 1
        term, contrib, acc = _series_term(term, acc, lx, float(k))
        done = (k > size) & (np.abs(contrib[0]) < 1e-17 * np.maximum(1.0, np.abs(acc[0])))
        if done.any():
            out[at[done]] = acc[0][done]
            going = ~done
            at, lx, size = at[going], lx[going], size[going]
            term, acc = (term[0][going], term[1][going]), (acc[0][going], acc[1][going])
    return out.reshape(log_x.shape)


def li_pv(x: float) -> float:
    """Principal-value logarithmic integral, from the classical series.

    li(x) = lie(log x) = gamma + log log x + sum_k (log x)**k / (k * k!),
    valid for 1 < x <= e**LI_SERIES_LOG_MAX (about 8.85e301); any other x
    raises.
    """
    if not x > 1.0:
        raise ValueError("li_pv requires x > 1")
    lx = math.log(x)
    if not lx <= LI_SERIES_LOG_MAX:
        raise ValueError(
            f"li_pv requires log x <= {LI_SERIES_LOG_MAX!r} (x <= ~8.85e301), got x={x!r}"
        )
    return lie(lx)


def lie(x):
    """li evaluated at e**x: gamma + log x + sum_k x**k / (k * k!).

    Domain: 0 < x <= LI_SERIES_LOG_MAX; any other x raises ValueError.  An
    array x gives an array, each element with the bits of ``lie`` at it; one
    value outside the domain raises before any series runs.  log x is
    ``math.log`` per element, as numpy's log may round differently by host.
    Nothing is memoised here: the lie transform caches its node values per
    interval (``laplace._lie_panels``).
    """
    if isinstance(x, np.ndarray):
        xs = np.asarray(x, dtype=np.float64)
        inside = (0.0 < xs) & (xs <= LI_SERIES_LOG_MAX)
        if inside.all():
            log_x = np.array([math.log(v) for v in xs.ravel().tolist()]).reshape(xs.shape)
            return (EULER_GAMMA + log_x) + li_series_terms(xs)
        x = float(xs[~inside][0])  # the first value outside the domain raises below
    if not 0.0 < x <= LI_SERIES_LOG_MAX:
        raise ValueError(f"lie requires 0 < x <= {LI_SERIES_LOG_MAX!r}, got x={x!r}")
    return EULER_GAMMA + math.log(x) + li_series_terms(x)


def li_vec(x: np.ndarray) -> np.ndarray:
    """Vectorised li over a 1-D array of finite x > 1, a pure function of each x.

    Any other x raises ValueError: log x <= 0, NaN or inf would keep the
    stopping test below from ever holding.

    Each value is the fixed point of its own series recursion
    ``term *= lx / k; acc += term / k`` with lx = log x, so it does not depend
    on the other points.  The array runs in L2-sized blocks, and a block stops
    at the first k above its largest lx at which the largest ``term / k`` is
    below half an ulp of the smallest ``acc``.  That largest term belongs to
    the largest lx and that smallest acc to the smallest lx, because IEEE
    multiply, divide and add are monotone.  Past k > lx every later term is
    smaller and every acc only grows, so no later step changes a bit of any
    point.  Against 30-digit mpmath.li the error is below 1e-14 relative on
    [2, 1e9] and below 1e-14 absolute on (1, 2].
    """
    # numpy's log can round a strided array differently from a contiguous one
    with np.errstate(divide="ignore", invalid="ignore"):  # bad x raise below
        lx = np.log(np.ascontiguousarray(x, dtype=np.float64))
    if not lx.size:
        return lx
    if not (0.0 < lx.min() and lx.max() < math.inf):
        raise ValueError("li_vec needs finite x > 1")
    out = np.abs(lx)
    np.log(out, out=out)
    out += EULER_GAMMA
    width = min(lx.size, _LI_VEC_BLOCK)
    term, acc, tmp = np.empty(width), np.empty(width), np.empty(width)
    for start in range(0, lx.size, width):
        lb = lx[start : start + width]
        n = lb.size
        t, a, w = term[:n], acc[:n], tmp[:n]
        t.fill(1.0)
        a.fill(0.0)
        i_top, i_low = int(np.argmax(lb)), int(np.argmin(lb))
        top = float(lb[i_top])
        k = 0
        while True:
            k += 1
            np.divide(lb, k, out=w)
            t *= w
            np.divide(t, k, out=w)
            a += w
            if k > top and float(w[i_top]) < 0.5 * math.ulp(float(a[i_low])):
                break
        out[start : start + n] += a
    return out


def R_of_s(s: float) -> float:
    """Laplace image of the staircase remainder: 1/(s-1) - zeta(s)/s."""
    _require_s(s)
    return 1.0 / (s - 1.0) - zeta_real(s) / s


# ---------------------------------------------------------------------------
# Stirling and harmonic comparisons

# the direct double-double tables of log n! and H_n run to this n
DD_TABLE_MAX = 10_000
# B_2k / (2k (2k-1)) for k = 2, 3, 4: the Stirling terms after 1/(12 n)
_STIRLING_TAIL = (-1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0)


def _dd_prefix(head: int, hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """head (0, 0) rows, then the running double-double sums of (hi, lo).

    One scalar dd_add per term, in order, so each row has the bits of the
    sequential sum.  The dd_add is written out inline, with the same
    operations in the same order, to save the calls.  The result is
    read-only: the callers cache it.
    """
    x = y = 0.0
    out = [(x, y)] * head
    for a, b in zip(hi.tolist(), lo.tolist()):
        s = x + a  # two_sum(x, a) -> (s, e)
        v = s - x
        e = (x - (s - v)) + (a - v)
        t = y + b  # two_sum(y, b) -> (t, f)
        v = t - y
        f = (y - (t - v)) + (b - v)
        e += t
        x = s + e  # _quick_two_sum(s, e) -> (x, e)
        e -= x - s
        e += f
        s = x + e  # _quick_two_sum(x, e) -> (x, y)
        y = e - (s - x)
        x = s
        out.append((x, y))
    table = np.array(out)
    table.setflags(write=False)
    return table


@functools.lru_cache(maxsize=None)
def _dd_log_factorial_table() -> np.ndarray:
    """Row n is log n! as a double-double (hi, lo), for 0 <= n <= DD_TABLE_MAX.

    The logs come from one array dd_log, the sums from the sequential prefix,
    so every row is the scalar running sum log 2 + log 3 + ... + log n.
    """
    return _dd_prefix(2, *dd_log(np.arange(2.0, DD_TABLE_MAX + 1)))  # log 0! = log 1! = 0


@functools.lru_cache(maxsize=None)
def _dd_harmonic_table() -> np.ndarray:
    """Row n is H_n = 1 + 1/2 + ... + 1/n as a double-double, 0 <= n <= DD_TABLE_MAX."""
    m = np.arange(1.0, DD_TABLE_MAX + 1)
    return _dd_prefix(1, *dd_div((1.0, 0.0), (m, np.zeros_like(m))))


def _stirling_head(n):
    """(n + 1/2) log n - n + log(2 pi)/2 + 1/(12 n), the Stirling series (DLMF 5.11.1)
    to its k = 1 term, in double-double for a float n > 0 or an array of them."""
    ln_n = dd_log(n)
    acc = dd_add(dd_mul_d(ln_n, n), dd_mul_d(ln_n, 0.5))
    acc = dd_add(acc, (-n, 0.0))
    acc = dd_add(acc, dd_mul_d(LOG_2PI_DD, 0.5))
    return dd_add(acc, dd_div((1.0, 0.0), (12.0 * n, 0.0)))


def _stirling_log_factorial(n: np.ndarray) -> np.ndarray:
    """log n! for float n > DD_TABLE_MAX: ``_stirling_head`` plus, as a float, the
    terms B_2k / (2k (2k-1) n**(2k-1)) for k = 2..4, below 3e-15 here.

    For real n > 0 the remainder has the sign of, and is smaller than, the
    first neglected term 1/(1188 n**9) (DLMF 5.11.10-11): below 1e-39 here.
    """
    inv = 1.0 / n
    inv2 = inv * inv
    tail = inv * inv2 * (_STIRLING_TAIL[0] + inv2 * (_STIRLING_TAIL[1] + inv2 * _STIRLING_TAIL[2]))
    return dd_add(_stirling_head(n), (tail, 0.0))[0]


def log_factorial(n):
    """log(n!) as a float, for an integer n or an integer array, 0 <= n <= 2**53.

    Which route an n takes depends on n alone.  n <= DD_TABLE_MAX reads the
    direct double-double sum of logs, so C1 tests the true sum; larger n take
    the double-double Stirling series, whose remainder is below 1e-39.  Both
    are within about 1e-27 of log n!, relative, so the float returned is the
    correctly rounded log n! unless log n! lies that close to a midpoint
    between two floats.
    """
    ns = np.asarray(n)
    if not (ns.dtype.kind in "iu" and np.all(ns >= 0) and np.all(ns <= 2 ** 53)):
        raise ValueError(f"log_factorial needs integers 0 <= n <= 2**53, got {n!r}")
    small = ns <= DD_TABLE_MAX
    out = np.empty(ns.shape)
    out[small] = _dd_log_factorial_table()[ns[small], 0]
    if not small.all():
        out[~small] = _stirling_log_factorial(ns[~small].astype(np.float64))
    return float(out) if out.ndim == 0 else out


def stirling_model(N) -> ModelPair:
    """log N! against N log N - N + (log N)/2 + log(2 pi)/2 + 1/(12 N).

    tolerance is 1/(100 N**3); the true gap is -1/(360 N**3) + O(N**-5).
    An integer N gives floats; an integer array (C1's N grid) gives arrays,
    from one ``_stirling_head`` call, each element with the bits of the call at
    its N while N**3 is exact in float64 (N below about 2e5).
    """
    ns = np.asarray(N)
    if not (ns.dtype.kind in "iu" and np.all(ns >= 2)):
        raise ValueError("N must be an integer >= 2")
    model = _stirling_head(ns.astype(np.float64))[0]
    if ns.ndim == 0:
        return ModelPair.of(log_factorial(N), float(model), 1.0 / (100.0 * int(N) ** 3))
    return ModelPair.of(log_factorial(ns), model, 1.0 / (100.0 * ns.astype(np.float64) ** 3))


def _harmonic_number(n: int) -> float:
    if not 0 <= n <= DD_TABLE_MAX:
        raise ValueError(f"H_n is tabulated for 0 <= n <= {DD_TABLE_MAX}, got n={n}")
    return float(_dd_harmonic_table()[n, 0])


def harmonic_model(N: int) -> ModelPair:
    """N*H_N - N against N log N - (1-gamma) N + 1/2 - 1/(12 N), tolerance 1/N**2.

    Domain 2 <= N <= DD_TABLE_MAX, the range of the H_N table.
    """
    if N < 2:
        raise ValueError("N must be >= 2")
    exact = N * _harmonic_number(N) - N
    model = N * math.log(N) - (1.0 - EULER_GAMMA) * N + 0.5 - 1.0 / (12.0 * N)
    return ModelPair.of(exact, model, 1.0 / N ** 2)
