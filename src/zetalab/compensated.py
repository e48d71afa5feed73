"""Compensated floating-point arithmetic: double-double helpers.

The double-double routines represent a value as an unevaluated sum ``hi + lo``
of two floats (roughly 32 significant digits).  They exist for the few places
where two nearly equal quantities of magnitude ~1e5 must be compared to far
below one ulp of that magnitude.  The one exact sum elsewhere, psi across sieve
segments in ``arith``, counts units of 2**-53 in a Python int and needs no float
carry; everything else in the package runs on plain 64-bit floats.  The helpers
are plain IEEE + - * /, so they apply elementwise to numpy arrays with the bits
of a scalar call.

A series summed this way on an array (``dd_log`` here, ``li_series_terms``
in ``analytic``) runs over an active set: the elements whose own stopping
test has not yet held.  Each term is formed for those elements only; an
element whose test holds has its sum written out and leaves the set.  So
every element gets exactly the operations of its scalar loop, in the same
order, and no element pays for the terms of a slower neighbour.
"""

from __future__ import annotations

import numpy as np

SPLITTER = 134217729.0  # 2**27 + 1, Dekker split constant

# hi/lo decompositions of constants needed beyond 53-bit precision
LN2_DD = (0.6931471805599453, 2.3190468138462996e-17)
LOG_2PI_DD = (1.8378770664093456, -7.756588316134483e-17)


def two_sum(a: float, b: float):
    """Error-free sum: returns (s, e) with s = fl(a+b) and a+b = s+e exactly."""
    s = a + b
    bb = s - a
    e = (a - (s - bb)) + (b - bb)
    return s, e


def _quick_two_sum(a: float, b: float):
    # requires |a| >= |b|
    s = a + b
    return s, b - (s - a)


def two_prod(a: float, b: float):
    """Error-free product via Dekker splitting: a*b = p + e exactly."""
    p = a * b
    t = SPLITTER * a
    ah = t - (t - a)
    al = a - ah
    t = SPLITTER * b
    bh = t - (t - b)
    bl = b - bh
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, e


def dd_add(x, y):
    s1, s2 = two_sum(x[0], y[0])
    t1, t2 = two_sum(x[1], y[1])
    s2 += t1
    s1, s2 = _quick_two_sum(s1, s2)
    s2 += t2
    return _quick_two_sum(s1, s2)


def dd_sub(x, y):
    return dd_add(x, (-y[0], -y[1]))


def dd_mul(x, y):
    p1, p2 = two_prod(x[0], y[0])
    p2 += x[0] * y[1] + x[1] * y[0]
    return _quick_two_sum(p1, p2)


def dd_mul_d(x, c: float):
    p1, p2 = two_prod(x[0], c)
    p2 += x[1] * c
    return _quick_two_sum(p1, p2)


def dd_div(x, y):
    q1 = x[0] / y[0]
    r = dd_sub(x, dd_mul_d(y, q1))
    q2 = r[0] / y[0]
    r = dd_sub(r, dd_mul_d(y, q2))
    q3 = r[0] / y[0]
    s, e = _quick_two_sum(q1, q2)
    return dd_add((s, e), (q3, 0.0))


# reciprocals of odd integers, double-double, for the atanh series in dd_log
_ODD_RECIP = [dd_div((1.0, 0.0), (float(2 * j + 1), 0.0)) for j in range(1, 40)]


def dd_log(m):
    """log(m) as a double-double, for a positive m or an array of them.

    Splits m = f * 2**e with f in [sqrt(1/2), sqrt(2)), then evaluates
    2*atanh((f-1)/(f+1)) by series.  Worst-case series argument is ~0.1716,
    so 22 odd terms reach ~1e-33.

    The helpers above are plain IEEE arithmetic, so the series runs
    elementwise on arrays with the bits of a scalar call.  It runs over an
    active set: the elements whose own stopping test has not yet held.  An
    element leaves the set at the term where its scalar loop would stop, with
    its sum written out, so the later terms run on the elements still going
    only.  A scalar m gives a pair of Python floats, an array m a pair of
    arrays of its shape.
    """
    x = np.asarray(m, dtype=np.float64)
    if not (np.all(x > 0.0) and np.all(np.isfinite(x))):
        raise ValueError("dd_log requires a positive finite argument")
    f, e = np.frexp(x.ravel())  # f in [0.5, 1)
    small = f < 0.7071067811865476
    f[small] *= 2.0
    e[small] -= 1
    num = (f - 1.0, 0.0)  # exact: f in [0.5, 2), Sterbenz
    w = dd_div(num, two_sum(f, 1.0))
    out = (np.empty(f.size), np.empty(f.size))
    z = dd_mul(w, w)
    term = acc = w
    at = np.arange(f.size)
    for recip in _ODD_RECIP:
        if not at.size:
            break
        term = dd_mul(term, z)
        contrib = dd_mul(term, recip)
        acc = dd_add(acc, contrib)
        done = abs(contrib[0]) < 1e-35 * abs(acc[0])
        if done.any():
            out[0][at[done]], out[1][at[done]] = acc[0][done], acc[1][done]
            going = ~done
            at, z = at[going], (z[0][going], z[1][going])
            term, acc = (term[0][going], term[1][going]), (acc[0][going], acc[1][going])
    out[0][at], out[1][at] = acc  # the elements that took every term
    out = dd_mul_d(out, 2.0)
    ln2e = dd_add(out, dd_mul_d(LN2_DD, e.astype(np.float64)))
    out = tuple(np.where(e != 0, v, a).reshape(x.shape) for v, a in zip(ln2e, out))
    if x.ndim == 0:
        return float(out[0]), float(out[1])
    return out
