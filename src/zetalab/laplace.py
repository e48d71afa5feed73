"""Numeric Laplace transforms on the real axis s > 1, with rigorous brackets.

For a comb sum_n w_n u(x - log a_n) the transform of the comb divided by s is
(1/s) sum_n w_n a_n**-s; truncating the sum at the materialised limit leaves a
signed tail that is boxed by integral comparison (the summand profiles are
eventually decreasing).  The resulting TransformBracket is an interval that
provably contains the full transform, to be compared against a closed form.
The sums of the unit combs (weights +-1 on an arithmetic progression) are
formed 2**14 terms at a time along numpy's pairwise-summation tree, so they
hold no array that grows with the limit and keep the bits of np.sum over the
whole array of terms.

Transforms of the two tabulated continuous functions (the staircase remainder
and the log-contracted logarithmic integral) share one Gauss-Legendre panel
sum, on correctly rounded rules, with a stated error bound: one panel per
staircase step for the remainder, and geometric panels for lie, each with an
explicit truncation tail added to the bracket.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .analytic import (
    EULER_GAMMA,
    LI_SERIES_LOG_MAX,
    R_of_s,
    _require_s,
    hurwitz_zeta_real,
    lie,
    zeta_prime_real,
    zeta_real,
)
from .compensated import dd_div, dd_mul, dd_mul_d, dd_sub
from .comb import ArithmeticKind, CombKind, StepComb, build_comb

#: offset of the rational kernel approximating the remainder transform
KERNEL_OFFSET = 7.0 / 12.0 - EULER_GAMMA


def approx_kernel(s: float) -> float:
    """Rational kernel 1/(2s) - 1/(6(s+1)) plus the offset KERNEL_OFFSET."""
    return 1.0 / (2.0 * s) - 1.0 / (6.0 * (s + 1.0)) + KERNEL_OFFSET


@dataclass(frozen=True)
class TransformBracket:
    s: float
    numeric_lo: float
    numeric_hi: float
    closed_form: float
    pair_id: str

    def __post_init__(self):
        if self.numeric_lo > self.numeric_hi:
            raise ValueError("bracket endpoints out of order")

    @property
    def width(self) -> float:
        return self.numeric_hi - self.numeric_lo

    def contains(self) -> bool:
        return self.numeric_lo <= self.closed_form <= self.numeric_hi


def _power_tail(v0: float, stride: float, s: float):
    """Bounds on sum f(v) over v = v0, v0+stride, ... for f(t) = t**-s (decreasing)."""
    integral = v0 ** (1.0 - s) / (s - 1.0) / stride
    return integral, integral + v0 ** -s


def _log_power_tail(v0: float, stride: float, s: float):
    """Same for f(t) = log(t) * t**-s, decreasing once log t > 1/s (true for v0 >= 2)."""
    integral = v0 ** (1.0 - s) * ((s - 1.0) * math.log(v0) + 1.0) / (s - 1.0) ** 2 / stride
    return integral, integral + math.log(v0) * v0 ** -s


def _comb_tail(c: StepComb, s: float):
    """Signed bounds on the omitted part of sum w_n a_n**-s beyond the limit."""
    kind = c.kind
    if isinstance(kind, ArithmeticKind):
        v0 = kind.start + kind.stride * c.n_terms
        return _power_tail(v0, kind.stride, s)
    n0 = math.floor(c.limit) + 1.0
    if kind is CombKind.ZETA1:
        return _power_tail(n0, 1.0, s)
    if kind is CombKind.MCOMB:
        return _log_power_tail(n0, 1.0, s)
    if kind is CombKind.JCOMB:
        # weights 1/k <= 1 on a subset of the integers > limit
        return 0.0, _power_tail(n0, 1.0, s)[1]
    if kind is CombKind.PSICOMB:
        # weights log p <= log(p**k) on a subset of the integers > limit
        return 0.0, _log_power_tail(n0, 1.0, s)[1]
    if kind is CombKind.ETA:
        # alternating with decreasing magnitudes: tail bounded by first term
        first = n0 ** -s
        return -first, first
    raise ValueError(f"no tail rule for comb kind {kind!r}")


def closed_form_for(kind, s: float) -> float:
    """Closed form of the (1/s)-scaled transform for a comb kind."""
    if isinstance(kind, ArithmeticKind):
        # sum (start + m*stride)**-s = stride**-s * hurwitz(s, start/stride)
        return kind.stride ** -s * hurwitz_zeta_real(s, kind.start / kind.stride) / s
    if kind is CombKind.ZETA1:
        return zeta_real(s) / s
    if kind is CombKind.MCOMB:
        return -zeta_prime_real(s) / s
    if kind is CombKind.JCOMB:
        return math.log(zeta_real(s)) / s
    if kind is CombKind.PSICOMB:
        return -zeta_prime_real(s) / (s * zeta_real(s))
    if kind is CombKind.ETA:
        return (1.0 - 2.0 ** (1.0 - s)) * zeta_real(s) / s
    raise ValueError(f"no closed form for comb kind {kind!r}")


_LEAF = 1 << 14  # terms per leaf of ``_pairwise_sum``: a 128 KB buffer


def _pairwise_sum(leaf, n: int, m0: int = 0):
    """np.sum of terms m0 .. m0 + n - 1 of an array that is never formed whole.

    numpy sums a contiguous float64 array by ``pairwise_sum``
    (numpy/_core/src/umath/loops_utils.h.src): a node of more than 128 terms
    splits at n // 2 rounded down to a multiple of 8, and its sum is its left
    half's plus its right half's.  This takes the same splits down to nodes
    of at most ``_LEAF`` terms, where ``leaf(m0, n)`` forms the node's terms
    and returns their np.sum (or an array of such sums, one per array a leaf
    sums), so the result has the bits of np.sum over the whole array.
    """
    if n <= _LEAF:
        return leaf(m0, n)
    half = n // 2
    half -= half % 8
    return _pairwise_sum(leaf, half, m0) + _pairwise_sum(leaf, n - half, m0 + half)


def _unit_comb_sums(c: StepComb, s: float) -> Tuple[float, float]:
    """sum w_n a_n**-s and sum |w_n a_n**-s| of a unit comb, leaf by leaf.

    Each leaf forms its ordinates as stride*j (one array per sum) plus the
    scalar start + stride*m0, in one reused buffer.  Every ordinate and
    every step to it is an exact dyadic below 2**53 (checked here), so the
    terms have the bits of the whole-array ``values ** -s``; ETA's weights
    flip the sign of every odd m, after the sum of |terms| is taken.
    """
    start, stride = c.ramp
    (a, qa), (b, qb) = float(start).as_integer_ratio(), float(stride).as_integer_ratio()
    q = max(qa, qb)  # both are powers of two: every ordinate is a multiple of 1/q
    if (a * (q // qa) + b * (q // qb) * c.n_terms) >= 2**53:
        raise ValueError(
            f"unit comb ordinates {start} + {stride}*m for m < {c.n_terms} are not all exact floats"
        )
    ramp = stride * np.arange(min(c.n_terms, _LEAF), dtype=np.float64)
    buf = np.empty_like(ramp)
    eta = c.kind is CombKind.ETA

    def leaf(m0: int, n: int) -> np.ndarray:
        terms = np.add(ramp[:n], start + stride * m0, out=buf[:n])
        np.power(terms, -s, out=terms)
        mag = np.sum(terms)
        if not eta:
            return np.array((mag, mag))
        odd = terms[1 - m0 % 2 :: 2]
        np.negative(odd, out=odd)
        return np.array((np.sum(terms), mag))

    partial, abs_sum = _pairwise_sum(leaf, c.n_terms).tolist()
    return partial, abs_sum


def laplace_comb(c: StepComb, s: float, *, pair_id: str) -> TransformBracket:
    """Bracket for (1/s) sum w_n a_n**-s over the full (infinite) comb.

    A unit comb's sums go leaf by leaf (``_unit_comb_sums``), in memory
    bounded by ``_LEAF`` whatever the limit, with the bits of np.sum over
    the whole array of terms.  A weighted comb's terms are one array of its
    ordinates' powers times its weights; those weights are >= 0, so the sum
    of |terms| is the partial sum itself.
    """
    _require_s(s)
    if c.ramp is not None:
        partial, abs_sum = _unit_comb_sums(c, s)
    else:
        terms = c.values ** -s
        terms *= c.weights
        partial = abs_sum = float(np.sum(terms))
    tail_lo, tail_hi = _comb_tail(c, s)
    slack = 1e-13 * (abs(partial) + 1.0) + 4e-16 * abs_sum
    return TransformBracket(
        s=s,
        numeric_lo=(partial + tail_lo - slack) / s,
        numeric_hi=(partial + tail_hi + slack) / s,
        closed_form=closed_form_for(c.kind, s),
        pair_id=pair_id,
    )


# ---------------------------------------------------------------------------
# quadrature transforms

_R_PANEL_CAP = 12.5  # numeric window cap: panel count is e**cap
_TAIL_TOL = 1e-8  # largest analytic tail bound a quadrature bracket may carry
_UNIT_ROUNDOFF = 2.0 ** -53
# Gauss points per remainder panel, least first: each panel takes the least
# order whose remainder is below _R_NEGLIGIBLE of the panel's integral
_R_ORDERS = (2, 3, 4, 6, 8, 12, 16, 24, 32)
_R_NEGLIGIBLE = 2.0 ** -56
_R_CHUNK = 1 << 14  # panels per batch
# numpy's exp, expm1, log1p and power and math.log are within this many units
# of roundoff, relative (tests check them)
_FN_ERR = 2


def _legendre_dd(q: int, x):
    """P_q(x) and P_q'(x) in double-double, by the three-term recurrence."""
    one = (1.0, 0.0)
    p0, p1 = one, x
    for k in range(2, q + 1):
        p0, p1 = p1, dd_div(dd_sub(dd_mul_d(dd_mul(x, p1), 2 * k - 1.0), dd_mul_d(p0, k - 1.0)),
                            (float(k), 0.0))
    return p1, dd_div(dd_mul_d(dd_sub(dd_mul(x, p1), p0), float(q)), dd_sub(dd_mul(x, x), one))


@lru_cache(maxsize=len(_R_ORDERS))
def _gauss_rule(q: int):
    """q-point Gauss-Legendre nodes and weights on [-1, 1], each correctly rounded.

    numpy's nodes, refined by one double-double Newton step (from within an
    ulp, that reaches about 1e-30), and the weights 2 / ((1 - t**2) P_q'(t)**2)
    at the refined nodes, so that each weight is within u of the exact one,
    relative; numpy's ``leggauss`` weights are up to 80 u off at 12 points.
    The rule is symmetric, so only the nodes t <= 0 are refined.
    """
    nodes, weights = [], []
    for t0 in np.polynomial.legendre.leggauss(q)[0][: (q + 1) // 2].tolist():
        t = (t0, 0.0)
        p, dp = _legendre_dd(q, t)
        t = dd_sub(t, dd_div(p, dp))
        dp = _legendre_dd(q, t)[1]
        w = dd_div((2.0, 0.0), dd_mul(dd_sub((1.0, 0.0), dd_mul(t, t)), dd_mul(dp, dp)))
        nodes.append(t[0])
        weights.append(w[0])
    t, w, m = np.array(nodes), np.array(weights), q // 2
    return np.concatenate((t, -t[:m][::-1])), np.concatenate((w, w[:m][::-1]))


class _QuadError(NamedTuple):
    """The parts of the stated error of a transform's Gauss panels over [0, edge]."""

    first: float  # the left-out first panel [0, a0]
    remainder: float  # the Gauss remainders of the panels
    weights: float  # the rounded Gauss weights
    functions: float  # the integrand's functions at the nodes, and their rounded arguments
    rounding: float  # node positions, the products and the panel sum


class _PanelSum:
    """Gauss panels (F @ w) * scale added one after another, and their error.

    A row of F holds the integrand at one panel's q nodes, w is
    ``_gauss_rule(q)``'s weights and scale the panel's half-width times any
    factor left out of F.  Relative to |F| @ w |scale|, the weights err by at
    most u and the q-term dot and four products by (q + 4) u.  Adding the
    panels in order errs by at most u times the sum of the absolute partial
    sums (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
    2002, section 4.2).
    """

    def __init__(self):
        self.value = self.weights = self.rounding = 0.0

    def add(self, f: np.ndarray, w: np.ndarray, scale: np.ndarray):
        """Add the panels in row order; return them, and the sum of |F| @ w |scale|."""
        f_w = f @ w
        panel = f_w * scale
        run = np.cumsum(np.concatenate(([self.value], panel)))
        self.value = float(run[-1])
        mag = f_w if f.min() >= 0.0 else np.abs(f) @ w  # the weights are positive
        mass = float(np.sum(mag * np.abs(scale)))
        self.weights += _UNIT_ROUNDOFF * mass
        self.rounding += _UNIT_ROUNDOFF * ((w.size + 4) * mass + float(np.sum(np.abs(run[1:]))))
        return panel, mass


def _log_remainder_coeff(q: int, s: float) -> float:
    """log of (q!)**4 ((s-1)**2q + s**2q) / ((2q+1) ((2q)!)**3).

    A q-point Gauss-Legendre rule on a panel of width h errs by at most
    h**(2q+1) (q!)**4 / ((2q+1) ((2q)!)**3) max |g**(2q)| (Davis and
    Rabinowitz, *Methods of Numerical Integration*, 2nd ed., 1984, section
    2.7).  For g(y) = expm1(y) e**-sy = e**(1-s)y - e**-sy on y >= 0,
    |g**(2q)| <= (s-1)**2q + s**2q.
    """
    return (math.log(math.factorial(q) ** 4 / ((2 * q + 1) * math.factorial(2 * q) ** 3))
            + 2 * q * math.log(s) + math.log1p((1.0 - 1.0 / s) ** (2 * q)))


def _r_order_runs(s: float, n_panels: int):
    """(q, first, stop): order q serves the panels n in [first, stop), largest n first.

    On panel n, y = x - log n in [0, h] with h = log1p(1/n), the integrand is
    n**(1-s) g(y), and since expm1 y >= y the panel's integral is at least
    n**(1-s) min(h, 1/s)**2 / (2e).  The ratio of the remainder bound to that
    grows with h, so falls with n, and each order serves one run of n.  The
    panels where no order makes it negligible take the largest.
    """
    def negligible(q: int, n: int) -> bool:
        h = math.log1p(1.0 / n)
        log_ratio = (_log_remainder_coeff(q, s) + (2 * q + 1) * math.log(h)
                     - 2.0 * math.log(min(h, 1.0 / s)) + math.log(2.0 * math.e))
        return log_ratio <= math.log(_R_NEGLIGIBLE)

    runs, stop = [], n_panels + 1
    for q in _R_ORDERS[:-1]:
        first = 1 + bisect.bisect_left(range(1, stop), True, key=lambda n: negligible(q, n))
        if first < stop:
            runs.append((q, first, stop))
            stop = first
    if stop > 1:
        runs.append((_R_ORDERS[-1], 1, stop))
    return runs


def _laplace_r_numeric(s: float, edge: float) -> Tuple[float, _QuadError]:
    """The integral of r(x) e**-sx over [0, edge], and the parts of its error bound.

    Each staircase step [log n, log(n+1)) is one panel, integrated in the
    offset y = x - log n, where r(x) e**-sx = f(y) = n**(1-s) expm1(y) e**-sy
    has no cancellation and the panel is [0, h], h = log1p(1/n); the last,
    [log N, edge], is cut at edge.  One Gauss rule per panel, of the order
    ``_r_order_runs`` picks, with its remainder bound, summed by
    ``_PanelSum`` from the smallest panel.  Every panel value is positive,
    so a relative error per panel sums to that multiple of the value.  Per
    panel, in units u of roundoff, the functions allow ``_FN_ERR`` each for
    expm1, exp and power, and s h for exp's rounded argument.  Each node
    is within u (half/2 + 2y) of its place, and |f'(y)| <= n**(1-s) e**-sy
    max(1, (s-1)/n), which adds 5 u half**2 n**(1-s) max(1, (s-1)/n)
    sum_k w_k e**-s y_k.  log1p(1/n) is within (``_FN_ERR`` + 1) u h of h, and
    f(h) <= n**-s e**-sh.  At the cut, (2 ``_FN_ERR`` + 1) u edge N**-s covers
    log N's rounding and a jump at log(N+1) that e**edge, rounded, may put on
    the wrong side of edge.  Underflow adds 8 subnormal spacings per node.
    """
    n_panels = int(math.floor(math.exp(edge)))
    if math.log(n_panels) >= edge:  # edge is log N: no cut panel, so N - 1 ends the window
        n_panels -= 1
    last = edge - math.log(n_panels)  # width of the cut panel [log N, edge], > 0
    u = _UNIT_ROUNDOFF
    panels = _PanelSum()
    remainder = functions = rounding = 0.0
    nodes = 0
    for q, first, stop in _r_order_runs(s, n_panels):
        t, w = _gauss_rule(q)
        one_plus_t = (1.0 + t).tolist()
        rem_coeff = _log_remainder_coeff(q, s)
        for b in range(stop, first, -_R_CHUNK):
            n = np.arange(b - 1, max(first, b - _R_CHUNK) - 1, -1, dtype=np.float64)
            h = np.log1p(1.0 / n)
            if b > n_panels:
                h[0] = last
            half = 0.5 * h
            # one node column at a time: a row of only q nodes is a short inner loop
            y = np.empty((n.size, q))
            for k, tk in enumerate(one_plus_t):
                np.multiply(half, tk, out=y[:, k])
            decay = np.exp(-s * y)
            p_s = np.power(n, -s)
            scale = half * (p_s * n)
            panel, mass = panels.add(np.expm1(y) * decay, w, scale)
            remainder += float(np.sum(np.exp(
                rem_coeff + (2 * q + 1) * np.log(h) + (1.0 - s) * np.log(n))))
            functions += u * (3 * _FN_ERR * mass + s * float(h @ panel))
            slope = 5.0 * half * scale * np.maximum(1.0, (s - 1.0) / n)
            width = (_FN_ERR + 1) * h * p_s * np.exp(-s * h)
            rounding += u * (float(slope @ (decay @ w)) + float(np.sum(width)))
            nodes += y.size
    cut = (2 * _FN_ERR + 1) * edge * n_panels ** -s
    rounding += u * cut + 8 * nodes * math.ulp(0.0)
    return panels.value, _QuadError(0.0, remainder, panels.weights, functions,
                                    panels.rounding + rounding)


_LIE_ORDER = 12  # Gauss points per lie panel
_LIE_FIRST_END = 1e-20  # the left-out first panel [0, a0] has a0 <= this
# lie's tested contract: |lie(x) - Ei(x)| <= 3e-16 max(1, |Ei(x)|)
_LIE_CONTRACT = 3e-16
# Bernstein ellipses tried per panel: rho on an even grid inside (1, 3 + sqrt 8)
_RHO = 1.0 + (2.0 + math.sqrt(8.0)) * np.arange(1, 33) / 33.0


@lru_cache(maxsize=4)
def _lie_panels(edge: float):
    """Panel midpoints and half-widths, and the Gauss nodes and lie there, a row per panel.

    The panels are [edge/2**(k+1), edge/2**k] for k = m-1 .. 0, from the
    left, with m the least that puts a0 = edge/2**m at or below 1e-20.  The
    nodes do not depend on s, so every s reads one cached set of lie values,
    formed by one array call of ``lie`` over all the nodes.
    """
    m = math.ceil(math.log2(edge / _LIE_FIRST_END))
    ends = np.ldexp(edge, np.arange(-m, 1))  # exact: edge times powers of two
    lo, hi = ends[:-1], ends[1:]
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    x = mid[:, None] + half[:, None] * _gauss_rule(_LIE_ORDER)[0]
    out = (mid, half, x, lie(x))
    for arr in out:
        arr.setflags(write=False)
    return out


def _lie_remainder(mid: np.ndarray, half: np.ndarray, s: float) -> float:
    """Sum over the panels of the Gauss remainder bound for lie(z) e**-sz.

    ATAP Thm 19.3 (Trefethen 2013): an (n+1)-point Gauss rule on [-1, 1] errs
    by at most (64/15) M rho**-2n / (rho**2 - 1) when the integrand is
    analytic in the Bernstein ellipse E_rho with |f| <= M there.  On a panel
    the ellipse has real semi-axis A = half (rho + 1/rho) / 2, so every z in
    it has Re z >= d = mid - A > 0 (rho < 3 + sqrt 8 on panels with
    hi = 2 lo) and |z| <= D = mid + A.  There lie(z) = gamma + log z + E(z),
    with |gamma + log z| <= gamma + max(|log d|, |log D|) + pi/2 and
    |E(z)| <= |z| (e**Re z - 1) / Re z; e**-s Re z (e**Re z - 1) / Re z
    decreases in Re z for s > 1.  So M <= (gamma + L + pi/2) e**-sd
    + D e**-sd (e**d - 1) / d, taken in logs so that no panel overflows, and
    each panel keeps its best rho on the grid.
    """
    a = half[:, None] * (0.5 * (_RHO + 1.0 / _RHO))
    d, big = mid[:, None] - a, mid[:, None] + a
    spread = np.maximum(np.abs(np.log(d)), np.abs(np.log(big)))
    log_near = np.log(EULER_GAMMA + spread + 0.5 * math.pi) - s * d
    log_far = np.log(big) - s * d + d + np.log(-np.expm1(-d)) - np.log(d)
    log_m = np.logaddexp(log_near, log_far)
    log_r = (np.log(64.0 / 15.0 * half[:, None]) + log_m
             - 2 * (_LIE_ORDER - 1) * np.log(_RHO) - np.log(_RHO * _RHO - 1.0))
    return float(np.sum(np.exp(log_r.min(axis=1))))


def _lie_transform(s: float, edge: float) -> Tuple[float, _QuadError]:
    """The integral of lie(x) e**-sx over [0, edge], and the parts of its error bound.

    ``_lie_panels`` summed by ``_PanelSum``, from the left; [0, a0] is left
    out.  f = lie e**-sx takes two of the four products a panel allows, and
    the other two cover the bracket's ends.  Per node, relative to |f|, the
    functions allow lie's tested contract, ``_FN_ERR`` for exp and s x for
    its rounded argument; the node, within 4 u x of its place, adds 5 u x |f'|,
    with x |f'| <= e**(1-s)x + s x |f|.
    """
    mid, half, x, values = _lie_panels(edge)
    decay = np.exp(-s * x)
    f = values * decay
    w = _gauss_rule(_LIE_ORDER)[1]
    panels = _PanelSum()
    panels.add(f, w, half)
    a0 = math.ldexp(edge, -mid.size)
    mag = np.abs(f)
    per_node = (_LIE_CONTRACT * decay * np.maximum(1.0, np.abs(values))  # lie's error
                + _UNIT_ROUNDOFF * mag * (_FN_ERR + s * x))  # exp's, and its argument's
    slope = (5.0 * _UNIT_ROUNDOFF) * (np.exp((1.0 - s) * x) + s * x * mag)
    return panels.value, _QuadError(
        first=a0 * (EULER_GAMMA + 1.0 + abs(math.log(a0)) + a0 * math.exp(a0)),
        remainder=_lie_remainder(mid, half, s),
        weights=panels.weights,
        functions=float(half @ (per_node @ w)),
        rounding=panels.rounding + float(half @ (slope @ w)),
    )


def laplace_quadrature(
    fn_id: str,
    s: float,
    x_max: Optional[float] = None,
) -> TransformBracket:
    """Bracket for the transform of the remainder ("r") or of lie ("lie").

    x_max caps the numeric window; beyond it an analytic tail bound widens the
    bracket on the high side.  Raises when the achievable tail bound exceeds
    1e-8.
    """
    _require_s(s)
    if fn_id == "r":
        if x_max is not None and not x_max > 0.0:
            raise ValueError(f"x_max must be positive, got {x_max}")
        cap = min(x_max, _R_PANEL_CAP) if x_max is not None else _R_PANEL_CAP
        # below cap the tail is at most 1e-12, so only the cap can fail the test
        edge = min(cap, max(math.log(1.0 / (1e-12 * s)) / s, 1.0))
        tail_hi = math.exp(-s * edge) / s  # 0 <= r < 1
        transform, closed_form = _laplace_r_numeric, R_of_s(s)
    elif fn_id == "lie":
        edge = x_max if x_max is not None else 40.0
        if not edge > 2.0:
            raise ValueError("x_max too small for the lie tail bound")
        if not edge <= LI_SERIES_LOG_MAX:
            raise ValueError(f"x_max must be at most {LI_SERIES_LOG_MAX!r}, where lie's series ends")
        # lie(x) <= e**x + x for x >= 2
        tail_hi = (math.exp((1.0 - s) * edge) / (s - 1.0)
                   + (edge / s + 1.0 / s ** 2) * math.exp(-s * edge))
        transform, closed_form = _lie_transform, -math.log(s - 1.0) / s
    else:
        raise ValueError(f"unknown quadrature transform {fn_id!r}")
    if tail_hi > _TAIL_TOL:
        raise ValueError(f"tail bound {tail_hi:.3e} at x_max={edge} exceeds {_TAIL_TOL:g}")
    value, parts = transform(s, edge)
    err = sum(parts)
    return TransformBracket(
        s=s,
        numeric_lo=value - err,
        numeric_hi=value + err + tail_hi,
        closed_form=closed_form,
        pair_id=fn_id,
    )


# ---------------------------------------------------------------------------
# the expansion of the error transform

def er_closed(s: float) -> float:
    """(1/s) log((s-1) zeta(s) / s)."""
    _require_s(s)
    return math.log((s - 1.0) * zeta_real(s) / s) / s


def expansion_argument(s: float) -> float:
    """u = (s-1) R(s); the series below converges only for 0 < u < 1."""
    _require_s(s)
    return (s - 1.0) * R_of_s(s)


def er_partial(s: float, K: int) -> float:
    """-(1/s) sum_{k=1..K} u**k / k with u = (s-1) R(s); converges to er_closed."""
    _require_s(s)
    if K < 1:
        raise ValueError("K must be >= 1")
    u = expansion_argument(s)
    if not 0.0 < u < 1.0:
        raise ValueError(f"expansion argument u={u} outside (0, 1) at s={s}")
    acc = 0.0
    power = 1.0
    for k in range(1, K + 1):
        power *= u
        acc += power / k
    return -acc / s


# ---------------------------------------------------------------------------
# named transform pairs

_COMB_PAIRS = {
    "zeta1": CombKind.ZETA1,
    "mcomb": CombKind.MCOMB,
    "jcomb": CombKind.JCOMB,
    "psi": CombKind.PSICOMB,
    "eta": CombKind.ETA,
    "ze2": ArithmeticKind(2.0, 2.0),
    "ze1.5": ArithmeticKind(1.5, 1.0),
}

PAIR_IDS = tuple(list(_COMB_PAIRS) + ["r", "lie"])


@lru_cache(maxsize=16)
def _cached_comb(kind_key: str, limit: float) -> StepComb:
    return build_comb(_COMB_PAIRS[kind_key], limit)


def laplace_pair(
    pair_id: str,
    s: float,
    *,
    limit: float = 1e6,
    x_max: Optional[float] = None,
) -> TransformBracket:
    """Bracket for any catalogued transform pair by name."""
    if pair_id in _COMB_PAIRS:
        return laplace_comb(_cached_comb(pair_id, limit), s, pair_id=pair_id)
    if pair_id in ("r", "lie"):
        return laplace_quadrature(pair_id, s, x_max)
    raise ValueError(f"unknown pair id {pair_id!r}; known: {', '.join(PAIR_IDS)}")
