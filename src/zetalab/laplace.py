"""Numeric Laplace transforms on the real axis s > 1, with rigorous brackets.

For a comb sum_n w_n u(x - log a_n) the transform of the comb divided by s is
(1/s) sum_n w_n a_n**-s; truncating the sum at the materialised limit leaves a
signed tail that is boxed by integral comparison (the summand profiles are
eventually decreasing).  The resulting TransformBracket is an interval that
provably contains the full transform, to be compared against a closed form.

Transforms of the two tabulated continuous functions (the staircase remainder
and the log-contracted logarithmic integral) are done by quadrature: jump-aware
batched Gauss-Legendre panels for the remainder, adaptive quadrature for lie,
each with an explicit truncation tail added to the bracket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np
from scipy.integrate import quad

from .analytic import (
    EULER_GAMMA,
    R_of_s,
    hurwitz_zeta_real,
    lie,
    zeta_prime_real,
    zeta_real,
)
from .comb import ArithmeticKind, CombKind, StepComb, build_comb

#: offset of the rational kernel approximating the remainder transform
KERNEL_OFFSET = 7.0 / 12.0 - EULER_GAMMA


@dataclass(frozen=True)
class ApproxKernel:
    """Rational kernel 1/(2s) - 1/(6(s+1)) plus a constant offset."""

    offset: float = KERNEL_OFFSET

    def form(self, s: float) -> float:
        return 1.0 / (2.0 * s) - 1.0 / (6.0 * (s + 1.0))

    def value(self, s: float) -> float:
        return self.form(s) + self.offset


@dataclass(frozen=True)
class TransformBracket:
    s: float
    numeric_lo: float
    numeric_hi: float
    closed_form: Optional[float]
    pair_id: str

    def __post_init__(self):
        if self.numeric_lo > self.numeric_hi:
            raise ValueError("bracket endpoints out of order")

    @property
    def width(self) -> float:
        return self.numeric_hi - self.numeric_lo

    def contains(self, value: Optional[float] = None) -> bool:
        v = self.closed_form if value is None else value
        if v is None:
            raise ValueError("no value to test")
        return self.numeric_lo <= v <= self.numeric_hi


def _require_s(s: float) -> None:
    if not s > 1.0:
        raise ValueError(f"transforms are evaluated for s > 1 only, got {s}")


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
        n_done = len(c.values)
        v0 = kind.start + kind.stride * n_done
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


def closed_form_for(kind, s: float) -> Optional[float]:
    """Known closed form of the (1/s)-scaled transform for a comb kind, if any."""
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
    return None


def laplace_comb(c: StepComb, s: float, *, pair_id: Optional[str] = None) -> TransformBracket:
    """Bracket for (1/s) sum w_n a_n**-s over the full (infinite) comb."""
    _require_s(s)
    terms = c.weights * c.values ** -s
    partial = float(np.sum(terms))
    tail_lo, tail_hi = _comb_tail(c, s)
    slack = 1e-13 * (abs(partial) + 1.0) + 4e-16 * float(np.sum(np.abs(terms)))
    name = pair_id or (c.kind.value if isinstance(c.kind, CombKind)
                       else f"arith({c.kind.start},{c.kind.stride})")
    return TransformBracket(
        s=s,
        numeric_lo=(partial + tail_lo - slack) / s,
        numeric_hi=(partial + tail_hi + slack) / s,
        closed_form=closed_form_for(c.kind, s),
        pair_id=name,
    )


# ---------------------------------------------------------------------------
# quadrature transforms

_R_PANEL_CAP = 12.5  # numeric window cap: panel count is e**cap
_TAIL_TOL = 1e-8  # largest analytic tail bound a quadrature bracket may carry


@lru_cache(maxsize=4)
def _gauss_nodes(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def _laplace_r_numeric(s: float, edge: float):
    """Integral of r(x) e**-sx over [0, edge] by per-panel Gauss-Legendre.

    Panels are bounded by the staircase jumps, where r is the smooth function
    e**x - n; two quadrature orders give the error estimate.
    """
    n_panels = int(math.floor(math.exp(edge)))
    bounds = np.log(np.arange(1, n_panels + 1, dtype=np.float64))
    bounds = np.append(bounds, edge)
    total8 = 0.0
    total16 = 0.0
    chunk = 1 << 16
    for start in range(0, n_panels, chunk):
        stop = min(start + chunk, n_panels)
        a = bounds[start:stop]
        b = bounds[start + 1 : stop + 1]
        n_vals = np.arange(start + 1, stop + 1, dtype=np.float64)
        half = 0.5 * (b - a)
        mid = 0.5 * (b + a)
        live = half > 0
        for order, acc in ((8, "t8"), (16, "t16")):
            xg, wg = _gauss_nodes(order)
            xs = mid[live, None] + half[live, None] * xg[None, :]
            integ = np.exp((1.0 - s) * xs) - n_vals[live, None] * np.exp(-s * xs)
            vals = (integ * wg[None, :]).sum(axis=1) * half[live]
            if order == 8:
                total8 += float(vals.sum())
            else:
                total16 += float(vals.sum())
    return total16, abs(total16 - total8)


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
        want = math.log(1.0 / (1e-12 * s)) / s if s > 1 else _R_PANEL_CAP
        edge = min(x_max if x_max is not None else _R_PANEL_CAP, _R_PANEL_CAP, max(want, 1.0))
        cap = min(x_max, _R_PANEL_CAP) if x_max is not None else _R_PANEL_CAP
        tail_hi = math.exp(-s * edge) / s  # 0 <= r < 1
        if tail_hi > _TAIL_TOL:
            edge = cap
            tail_hi = math.exp(-s * edge) / s
            if tail_hi > _TAIL_TOL:
                raise ValueError(
                    f"tail bound {tail_hi:.3e} at x_max={edge} exceeds {_TAIL_TOL:g}"
                )
        value, err = _laplace_r_numeric(s, edge)
        err += 1e-15 * (1.0 + abs(value))
        return TransformBracket(
            s=s,
            numeric_lo=value - err,
            numeric_hi=value + err + tail_hi,
            closed_form=R_of_s(s),
            pair_id="r",
        )
    if fn_id == "lie":
        edge = x_max if x_max is not None else 40.0
        if edge <= 2.0:
            raise ValueError("x_max too small for the lie tail bound")
        # lie(x) <= e**x + x for x >= 2
        tail_hi = math.exp((1.0 - s) * edge) / (s - 1.0) + (edge / s + 1.0 / s ** 2) * math.exp(
            -s * edge
        )
        if tail_hi > _TAIL_TOL:
            raise ValueError(
                f"tail bound {tail_hi:.3e} at x_max={edge} exceeds {_TAIL_TOL:g}"
            )
        value, err = quad(
            lambda x: lie(x) * math.exp(-s * x),
            0.0,
            edge,
            limit=400,
            points=[1e-4, 1e-2, 0.1, 1.0],
        )
        err = 2.0 * abs(err) + 1e-15 * (1.0 + abs(value))
        return TransformBracket(
            s=s,
            numeric_lo=value - err,
            numeric_hi=value + err + tail_hi,
            closed_form=-math.log(s - 1.0) / s,
            pair_id="lie",
        )
    raise ValueError(f"unknown quadrature transform {fn_id!r}")


# ---------------------------------------------------------------------------
# the expansion of the error transform and the kernel comparison

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


def kernel_residual(s: float) -> float:
    """R(s) minus the rational kernel with offset; report-only measurement."""
    _require_s(s)
    return R_of_s(s) - ApproxKernel().value(s)


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
