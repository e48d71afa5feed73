"""Step combs on the logarithmic abscissa.

A comb is a finite sum of unit steps sum_n w_n * u(x - log a_n) with the
convention u(0) = 1: a jump located at x0 is already included in the value at
x = x0.  That convention makes the staircase of all integers hit exactly n at
x = log n, so the remainder e**x minus the staircase vanishes on the lattice.

Jumps are given by their ordinates a_n.  The unit combs, whose ordinates are
an arithmetic progression and whose weights are +-1, keep only their count and
form the ordinates when read; the weighted combs store theirs.  Queries that
must land exactly on a lattice point go through the ordinate-domain entry points
(``r_value_ordinate``), so nothing depends on float rounding of logs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple, Union

import numpy as np

from .analytic import log_factorial
from .sieve import prime_power_arrays


class CombKind(Enum):
    ZETA1 = "zeta1"  # steps at log n, weight 1: the integer staircase
    JCOMB = "jcomb"  # steps at log p**k, weight 1/k
    PSICOMB = "psicomb"  # steps at log p**k, weight log p
    MCOMB = "mcomb"  # steps at log n, weight log n
    ETA = "eta"  # steps at log n, weight (-1)**(n+1): unit square wave


@dataclass(frozen=True)
class ArithmeticKind:
    """Steps of weight 1 at log(start + m*stride), m >= 0."""

    start: float
    stride: float


Kind = Union[CombKind, ArithmeticKind]


@dataclass(frozen=True)
class StepComb:
    """The n_terms jumps of a comb with ordinate <= limit.

    A unit comb, one with ordinates start + stride*m and weights +-1 (ZETA1,
    ETA and the arithmetic combs), holds no array: ``values`` and
    ``weights`` form them afresh on each read, and ``ramp`` gives (start,
    stride).  The weighted combs (MCOMB, JCOMB, PSICOMB) hold their
    ordinates and weights, read-only, in ``arrays``.
    """

    kind: Kind
    limit: float  # largest ordinate that was materialised against
    n_terms: int
    arrays: Optional[Tuple[np.ndarray, np.ndarray]] = None  # the weighted combs' (values, weights)

    def __post_init__(self):
        for arr in self.arrays or ():
            arr.setflags(write=False)

    @property
    def ramp(self) -> Optional[Tuple[float, float]]:
        """(start, stride) of a unit comb's ordinates; None for a weighted comb."""
        if isinstance(self.kind, ArithmeticKind):
            return self.kind.start, self.kind.stride
        return (1.0, 1.0) if self.kind in (CombKind.ZETA1, CombKind.ETA) else None

    @property
    def values(self) -> np.ndarray:
        """Ordinates a_n, strictly ascending."""
        if self.arrays is not None:
            return self.arrays[0]
        start, stride = self.ramp
        return start + stride * np.arange(self.n_terms, dtype=np.float64)

    @property
    def weights(self) -> np.ndarray:
        """Weights w_n; a unit comb's all-ones weights are a read-only stride-0 view of 1.0."""
        if self.arrays is not None:
            return self.arrays[1]
        if self.kind is CombKind.ETA:
            return np.where(np.arange(self.n_terms) % 2 == 0, 1.0, -1.0)
        return np.broadcast_to(1.0, self.n_terms)


def build_comb(kind: Kind, limit: float) -> StepComb:
    """Every jump with ordinate <= limit: a unit comb's count, a weighted comb's arrays."""
    if isinstance(kind, ArithmeticKind):
        if kind.start <= 0 or kind.stride <= 0:
            raise ValueError("arithmetic comb needs positive start and stride")
        if limit < kind.start:
            raise ValueError(f"limit {limit} below first jump {kind.start}")
        n_terms = int(math.floor((limit - kind.start) / kind.stride)) + 1
        return StepComb(kind=kind, limit=float(limit), n_terms=n_terms)
    if not isinstance(kind, CombKind):
        raise ValueError(f"unknown comb kind {kind!r}")
    if limit < 1:
        raise ValueError("limit must be >= 1")
    if kind in (CombKind.ZETA1, CombKind.ETA):
        return StepComb(kind=kind, limit=float(limit), n_terms=int(math.floor(limit)))
    if kind is CombKind.MCOMB:
        values = np.arange(1, int(math.floor(limit)) + 1, dtype=np.float64)
        weights = np.log(values)
    else:
        vs, ps, ks = prime_power_arrays(limit)
        values = vs.astype(np.float64)
        if kind is CombKind.PSICOMB:
            weights = np.log(ps.astype(np.float64))
        else:
            weights = 1.0 / ks.astype(np.float64)
    return StepComb(kind=kind, limit=float(limit), n_terms=values.size, arrays=(values, weights))


def zeta1_count(x: float) -> int:
    """Value of the integer staircase at x: the number of n >= 1 with log n <= x.

    Closed-form evaluation of the ZETA1 comb, with its jumps placed at
    math.log(n).
    """
    if x < 0:
        raise ValueError("x must be >= 0")
    n = int(math.exp(x))
    while n >= 1 and math.log(n) > x:
        n -= 1
    while math.log(n + 1) <= x:
        n += 1
    return n


def r_value(x: float) -> float:
    """Remainder e**x minus the integer staircase; lies in [0, 1)."""
    if x < 0:
        raise ValueError("x must be >= 0")
    if not x < math.inf:
        raise ValueError(f"r_value requires a finite x, got x={x!r}")
    r = math.exp(x) - zeta1_count(x)
    # exp(log n) can land half an ulp on either side of the lattice; clamp the
    # round-trip noise so the contract r in [0, 1) holds at jump points
    if r < 0.0:
        return 0.0
    if r >= 1.0:
        return math.nextafter(1.0, 0.0)
    return r


def r_value_ordinate(a: float) -> float:
    """Remainder at x = log a, computed in the ordinate domain: a - floor-count.

    For a = N + c with integer N and 0 <= c < 1 this returns c exactly, with no
    exp/log round trip.
    """
    if a < 1:
        raise ValueError("ordinate must be >= 1")
    n = math.floor(a)
    return a - n


# r_integral's largest stated rounding error, N*x*2**-52 (reached at x ~ 19.2)
R_INTEGRAL_ERROR_MAX = 1e-6


def r_integral(x):
    """Integral of the remainder from 0 to x, in closed piecewise form.

    With N = staircase value at x: (e**x - 1) - (N*x - log N!).  The two
    terms cancel to about x/2, so the rounding error is about N*x*2**-52;
    an x at which that exceeds R_INTEGRAL_ERROR_MAX (x above ~19.2) raises
    ValueError.  A float x gives a float, an array of x an array, with one
    log_factorial call for all of them.
    """
    xs = np.asarray(x, dtype=np.float64)
    bad = ~((xs >= 0.0) & (xs < math.inf))
    if bad.any():
        raise ValueError(f"r_integral needs finite x >= 0, got x={float(xs[bad].flat[0])!r}")
    flat = xs.ravel().tolist()
    ns = [zeta1_count(t) for t in flat]
    for t, n in zip(flat, ns):
        if n * t * 2.0 ** -52 > R_INTEGRAL_ERROR_MAX:
            raise ValueError(
                f"r_integral at x={t!r} has rounding error N*x*2**-52 above "
                f"{R_INTEGRAL_ERROR_MAX:g}; its domain ends at x ~ 19.2"
            )
    log_fact = log_factorial(np.array(ns, dtype=np.int64)).tolist()
    out = [(math.exp(t) - 1.0) - (n * t - lf) for t, n, lf in zip(flat, ns, log_fact)]
    return out[0] if xs.ndim == 0 else np.array(out).reshape(xs.shape)


def r_integral_model(N: int, c: float) -> float:
    """Asymptotic model for (integral of remainder up to log(N+c)) minus r(log(N+c)).

    log(N+c)/2 + log(2*pi)/2 - 1 - c + (1 - 6c + 6c**2) / (12*(N+c)).
    """
    if N < 2:
        raise ValueError("N must be >= 2")
    if not 0.0 <= c < 1.0:
        raise ValueError("c must lie in [0, 1)")
    a = N + c
    return (
        math.log(a) / 2.0
        + math.log(2.0 * math.pi) / 2.0
        - 1.0
        - c
        + (1.0 - 6.0 * c + 6.0 * c * c) / (12.0 * a)
    )
