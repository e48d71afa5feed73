"""Transform brackets, the error-transform expansion, and the kernel gap."""

import math
from functools import lru_cache
from typing import Optional

import mpmath
import numpy as np
import pytest

from zetalab import laplace
from zetalab.analytic import R_of_s, zeta_prime_real, zeta_real
from zetalab.comb import ArithmeticKind, CombKind, StepComb, build_comb
from zetalab.laplace import (
    KERNEL_OFFSET,
    TransformBracket,
    approx_kernel,
    closed_form_for,
    er_closed,
    er_partial,
    expansion_argument,
    laplace_comb,
    laplace_pair,
    laplace_quadrature,
)

S_GRID = [1.5, 2.0, 3.0, 5.0, 10.0]


def test_bracket_ordering_enforced():
    with pytest.raises(ValueError):
        TransformBracket(s=2.0, numeric_lo=1.0, numeric_hi=0.0, closed_form=0.5, pair_id="x")


@pytest.mark.parametrize("pair_id", ["zeta1", "mcomb", "jcomb", "psi", "eta", "ze2", "ze1.5"])
def test_comb_brackets_contain_closed_forms(pair_id):
    for s in S_GRID:
        br = laplace_pair(pair_id, s, limit=1e6)
        assert br.numeric_lo <= br.numeric_hi
        assert br.contains(), (pair_id, s, br)


# float.hex of (numeric_lo, numeric_hi) on S_GRID, captured while laplace_comb
# still multiplied unit weights and formed |terms| for every comb: leaving
# those passes out must move no bit
COMB_BRACKET_BITS = {
    ("zeta1", 1e5): [
        ("0x1.bdd86b7d0c0f9p+0", "0x1.bdd86bd797fbcp+0"),
        ("0x1.a51a6624f9392p-1", "0x1.a51a662567c15p-1"),
        ("0x1.9a4d55beaada5p-2", "0x1.9a4d55beab807p-2"),
        ("0x1.a8b9c17aa5b8ap-3", "0x1.a8b9c17aa6706p-3"),
        ("0x1.9a01e385d59eap-4", "0x1.9a01e385d6533p-4"),
    ],
    ("mcomb", 1e5): [
        ("0x1.4f8d15762810cp+1", "0x1.4f8d177f5fd91p+1"),
        ("0x1.e006532078746p-2", "0x1.e006532a5cfa9p-2"),
        ("0x1.0e82241e41059p-4", "0x1.0e82241e427edp-4"),
        ("0x1.7685b28fe9814p-8", "0x1.7685b28ff5164p-8"),
        ("0x1.245b596ed5fadp-14", "0x1.245b59703e852p-14"),
    ],
    ("jcomb", 1e5): [
        ("0x1.479b2b3b003cbp-1", "0x1.49c3d1235a187p-1"),
        ("0x1.fda4f002b1c79p-3", "0x1.fda78f196434ap-3"),
        ("0x1.f6893686c44f5p-5", "0x1.f6893689117edp-5"),
        ("0x1.db4bf3daba9a8p-8", "0x1.db4bf3dac645bp-8"),
        ("0x1.a0f29ec41d015p-14", "0x1.a0f29ec585a72p-14"),
    ],
    ("psi", 1e5): [
        ("0x1.ffa0faa3b4d04p-1", "0x1.0e666f87ae5d5p+0"),
        ("0x1.23d09e0803970p-2", "0x1.23e104ac212e8p-2"),
        ("0x1.c21367e32246bp-5", "0x1.c21367fea976cp-5"),
        ("0x1.692f3cda574b8p-8", "0x1.692f3cda62dd8p-8"),
        ("0x1.2410fc68c560dp-14", "0x1.2410fc6a2deb0p-14"),
    ],
    ("eta", 1e5): [
        ("0x1.052b9024e52e7p-1", "0x1.052b918f1345dp-1"),
        ("0x1.a51a6623e63d4p-2", "0x1.a51a66259ed6ep-2"),
        ("0x1.33ba004f001a0p-2", "0x1.33ba004f00a9dp-2"),
        ("0x1.8e2e2562fb5a3p-3", "0x1.8e2e2562fc0c3p-3"),
        ("0x1.9934e29412b3cp-4", "0x1.9934e29413682p-4"),
    ],
    ("ze2", 1e5): [
        ("0x1.3b42a2b582b60p-1", "0x1.3b42a36a995d7p-1"),
        ("0x1.a51a662453f92p-3", "0x1.a51a66260d00bp-3"),
        ("0x1.9a4d55bea9d27p-5", "0x1.9a4d55beac887p-5"),
        ("0x1.a8b9c17aa0448p-8", "0x1.a8b9c17aabe48p-8"),
        ("0x1.9a01e38521a6dp-14", "0x1.9a01e3868a4b0p-14"),
    ],
    ("ze1.5", 1e5): [
        ("0x1.4c7a4288b0e33p+0", "0x1.4c7a42e33ce2fp+0"),
        ("0x1.de9e64deb48ebp-2", "0x1.de9e64df914f6p-2"),
        ("0x1.1ae55b1806bc3p-3", "0x1.1ae55b1807918p-3"),
        ("0x1.da59d53748b7ap-6", "0x1.da59d5374bf10p-6"),
        ("0x1.c9735ae9cfb73p-10", "0x1.c9735ae9e6a0dp-10"),
    ],
    ("zeta1", 1e6): [
        ("0x1.bdd86ba8e3485p+0", "0x1.bdd86babc0d1fp+0"),
        ("0x1.a51a66252fa5dp-1", "0x1.a51a662531548p-1"),
        ("0x1.9a4d55beaada8p-2", "0x1.9a4d55beab803p-2"),
        ("0x1.a8b9c17aa5b8bp-3", "0x1.a8b9c17aa6708p-3"),
        ("0x1.9a01e385d59eap-4", "0x1.9a01e385d6533p-4"),
    ],
    ("mcomb", 1e6): [
        ("0x1.4f8d1670e037bp+1", "0x1.4f8d1684a8025p+1"),
        ("0x1.e00653255b1a7p-2", "0x1.e00653257a568p-2"),
        ("0x1.0e82241e410e1p-4", "0x1.0e82241e42761p-4"),
        ("0x1.7685b28fe9816p-8", "0x1.7685b28ff5166p-8"),
        ("0x1.245b596ed5facp-14", "0x1.245b59703e851p-14"),
    ],
    ("jcomb", 1e6): [
        ("0x1.47b996fc1853dp-1", "0x1.48685a3a384e1p-1"),
        ("0x1.fda5215c79436p-3", "0x1.fda564785917fp-3"),
        ("0x1.f6893686f4bc1p-5", "0x1.f6893686fd60cp-5"),
        ("0x1.db4bf3daba9a8p-8", "0x1.db4bf3dac645bp-8"),
        ("0x1.a0f29ec41d015p-14", "0x1.a0f29ec585a72p-14"),
    ],
    ("psi", 1e6): [
        ("0x1.008d5665adab5p+0", "0x1.05f351612af52p+0"),
        ("0x1.23d1cbd15e451p-2", "0x1.23d3bcf1a3389p-2"),
        ("0x1.c21367e566230p-5", "0x1.c21367e5bcd14p-5"),
        ("0x1.692f3cda574b9p-8", "0x1.692f3cda62dd9p-8"),
        ("0x1.2410fc68c560dp-14", "0x1.2410fc6a2deb0p-14"),
    ],
    ("eta", 1e6): [
        ("0x1.052b912bf0833p-1", "0x1.052b9137650f5p-1"),
        ("0x1.a51a66252cca1p-2", "0x1.a51a662531fddp-2"),
        ("0x1.33ba004f001a9p-2", "0x1.33ba004f00a9ap-2"),
        ("0x1.8e2e2562fb5a3p-3", "0x1.8e2e2562fc0c3p-3"),
        ("0x1.9934e29412b3cp-4", "0x1.9934e29413682p-4"),
    ],
    ("ze2", 1e6): [
        ("0x1.3b42a30d30ddbp-1", "0x1.3b42a312eb711p-1"),
        ("0x1.a51a66252dab2p-3", "0x1.a51a6625334f3p-3"),
        ("0x1.9a4d55bea9d3dp-5", "0x1.9a4d55beac86dp-5"),
        ("0x1.a8b9c17aa044ap-8", "0x1.a8b9c17aabe4ap-8"),
        ("0x1.9a01e38521a6dp-14", "0x1.9a01e3868a4b0p-14"),
    ],
    ("ze1.5", 1e6): [
        ("0x1.4c7a42b488323p+0", "0x1.4c7a42b765a2dp+0"),
        ("0x1.de9e64df2168ap-2", "0x1.de9e64df2475dp-2"),
        ("0x1.1ae55b1806bc9p-3", "0x1.1ae55b1807913p-3"),
        ("0x1.da59d53748b78p-6", "0x1.da59d5374bf0ep-6"),
        ("0x1.c9735ae9cfb73p-10", "0x1.c9735ae9e6a0dp-10"),
    ],
}


@pytest.mark.parametrize("pair_id, limit", list(COMB_BRACKET_BITS))
def test_comb_brackets_keep_their_pinned_bits(pair_id, limit):
    got = [laplace_pair(pair_id, s, limit=limit) for s in S_GRID]
    assert [(br.numeric_lo.hex(), br.numeric_hi.hex()) for br in got] == COMB_BRACKET_BITS[
        (pair_id, limit)
    ]


# lengths around numpy's pairwise block (128), its unroll (8) and _LEAF (2**14)
@pytest.mark.parametrize(
    "n", [1, 7, 8, 9, 127, 128, 129, 2**14 - 1, 2**14 + 1, 2**15 + 3, 499_999, 999_999, 10**6]
)
def test_pairwise_sum_has_the_bits_of_np_sum(n):
    rng = np.random.default_rng(n)
    a = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(-8.0, 8.0, n)
    got = laplace._pairwise_sum(lambda m0, m: np.sum(a[m0 : m0 + m]), n)
    assert got == np.sum(a), (
        f"n={n}: leaf by leaf {float(got).hex()}, np.sum {float(np.sum(a)).hex()}; "
        "_pairwise_sum no longer splits as pairwise_sum in numpy/_core/src/umath/loops_utils.h.src"
    )


@pytest.mark.parametrize("limit", [1e3, 100001, 1e6])
@pytest.mark.parametrize(
    "kind, start, stride",
    [(CombKind.ZETA1, 1.0, 1.0), (CombKind.ETA, 1.0, 1.0),
     (ArithmeticKind(2.0, 2.0), 2.0, 2.0), (ArithmeticKind(1.5, 1.0), 1.5, 1.0)],
)
def test_streamed_comb_sums_are_those_of_the_whole_array(kind, start, stride, limit):
    c = build_comb(kind, limit)
    values = start + stride * np.arange(c.n_terms)
    assert values[-1] <= limit < values[-1] + stride
    w = np.where(np.arange(c.n_terms) % 2 == 0, 1.0, -1.0) if kind is CombKind.ETA else 1.0
    for s in S_GRID + [1.1, 7.3]:
        terms = values ** -s
        assert laplace._unit_comb_sums(c, s) == (np.sum(terms * w), np.sum(terms)), s


def test_unit_comb_sums_refuse_ordinates_that_are_not_exact_floats():
    # a stride that is no short dyadic: its ordinates round, so the leaf's
    # stride*j + (start + stride*m0) need not have the bits of values ** -s
    with pytest.raises(ValueError, match="not all exact"):
        laplace_comb(build_comb(ArithmeticKind(1.0, 0.1), 100), 2.0, pair_id="ze")
    # integer ordinates run exact to 2**53, half-integers to 2**52
    for kind, n in ((CombKind.ZETA1, 2**53), (ArithmeticKind(1.5, 1.0), 2**52)):
        with pytest.raises(ValueError, match="not all exact"):
            laplace._unit_comb_sums(StepComb(kind=kind, limit=float(n), n_terms=n), 2.0)
    quarters = build_comb(ArithmeticKind(0.75, 0.25), 3.0)
    assert laplace._unit_comb_sums(quarters, 2.0)[1] == np.sum(quarters.values ** -2.0)


def test_brackets_shrink_with_limit():
    for limit in (1e3, 1e4, 1e5):
        wide = laplace_comb(build_comb(CombKind.ZETA1, limit), 2.0, pair_id="zeta1")
        tight = laplace_comb(build_comb(CombKind.ZETA1, 10 * limit), 2.0, pair_id="zeta1")
        assert tight.width < wide.width
        assert wide.contains() and tight.contains()


def test_zeta1_bracket_spot():
    br = laplace_pair("zeta1", 2.0, limit=1e6)
    assert br.closed_form == pytest.approx(0.82246703342411322, abs=1e-11)
    assert br.contains()


def test_mcomb_and_jcomb_closed_forms():
    br = laplace_pair("mcomb", 2.0, limit=1e6)
    assert br.closed_form == pytest.approx(0.46877412715792188, abs=1e-10)
    br = laplace_pair("jcomb", 2.0, limit=1e6)
    assert br.closed_form == pytest.approx(0.24885015123537267, abs=1e-11)


def test_eta_bracket_standard_alternating_form():
    # the alternating comb transforms to (1 - 2**(1-s)) zeta(s) / s
    for s in S_GRID:
        br = laplace_pair("eta", s, limit=1e6)
        assert br.closed_form == pytest.approx(
            (1.0 - 2.0 ** (1.0 - s)) * zeta_real(s) / s, rel=1e-13
        )
        assert br.contains()


def test_arithmetic_closed_forms_via_odd_zeta():
    for s in S_GRID:
        ze2 = laplace_pair("ze2", s, limit=1e6)
        assert ze2.closed_form == pytest.approx(2.0**-s * zeta_real(s) / s, rel=1e-12)
        ze15 = laplace_pair("ze1.5", s, limit=1e6)
        hurwitz = (2.0**s) * ((1.0 - 2.0**-s) * zeta_real(s) - 1.0)
        assert ze15.closed_form == pytest.approx(hurwitz / s, rel=1e-10)


def test_psi_comb_product_identity():
    # zeta(s) * s * bracket(psi comb) must bracket -zeta'(s)
    for s in S_GRID:
        br = laplace_pair("psi", s, limit=1e6)
        z = zeta_real(s)
        assert br.numeric_lo * s * z <= -zeta_prime_real(s) <= br.numeric_hi * s * z


def test_quadrature_r_brackets():
    for s in S_GRID:
        br = laplace_quadrature("r", s)
        assert br.contains(), (s, br)
        assert br.closed_form == pytest.approx(R_of_s(s), abs=1e-14)
    assert laplace_quadrature("r", 2.0, 30.0).contains()


def test_quadrature_lie_brackets():
    for s, xm in [(1.5, 44.0), (2.0, 40.0), (3.0, 40.0), (5.0, 40.0), (10.0, 40.0)]:
        br = laplace_quadrature("lie", s, xm)
        assert br.contains(), (s, br)
    br = laplace_quadrature("lie", 3.0, 40.0)
    assert br.closed_form == pytest.approx(-math.log(2.0) / 3.0, abs=1e-14)


def test_lie_bracket_at_two_contains_zero_tightly():
    br = laplace_quadrature("lie", 2.0, 40.0)
    assert br.numeric_lo <= 0.0 <= br.numeric_hi
    assert br.width < 1e-6


def test_lie_brackets_are_a_third_as_wide_as_on_numpys_tabulated_weights():
    # widths when lie's panels used leggauss(12) with a 128-ulp weight allowance
    tabulated = {2.0: 2.7509668327200789e-14, 3.0: 1.6042722705833512e-14,
                 5.0: 1.0658141036401503e-14, 10.0: 7.2719608112947753e-15}
    for s, width in tabulated.items():
        assert laplace_quadrature("lie", s).width <= width / 3, s
    assert laplace_quadrature("lie", 1.5).width <= 4.1223551794367097e-09


def test_both_transforms_state_their_error_in_one_tuple():
    r_parts = laplace._laplace_r_numeric(2.0, 1.0)[1]
    lie_parts = laplace._lie_transform(2.0, 40.0)[1]
    assert type(r_parts) is type(lie_parts)
    assert r_parts._fields == ("first", "remainder", "weights", "functions", "rounding")
    assert r_parts.first == 0.0 < lie_parts.first  # r has no left-out panel
    assert all(p > 0 for p in r_parts[1:] + lie_parts[1:])


# ---------------------------------------------------------------------------
# the stated error of the lie transform, part by part, against 30-digit oracles

LIE_EDGES = (40.0, 44.0)
U = 2.0**-53


def _lie_s_values():
    rng = np.random.default_rng(20261018)
    return S_GRID + sorted(rng.uniform(1.2, 20.0, 10).tolist())


@lru_cache(maxsize=None)
def _ei_transform(s: float, edge: float) -> float:
    """The integral of Ei(x) e**-sx over [0, edge]: -log(s-1)/s less the part past edge."""
    with mpmath.workdps(30):
        past = mpmath.quad(lambda t: mpmath.ei(t) * mpmath.exp(-s * t), [edge, 2 * edge, mpmath.inf])
        return -mpmath.log(s - 1) / s - past


@lru_cache(maxsize=None)
def _ei_at_nodes(edge: float):
    with mpmath.workdps(30):
        return [mpmath.ei(x) for x in laplace._lie_panels(edge)[2].ravel().tolist()]


@pytest.mark.parametrize("edge", LIE_EDGES)
def test_lie_transform_error_contains_the_30_digit_integral(edge):
    for s in _lie_s_values():
        value, parts = laplace._lie_transform(s, edge)
        err = sum(parts)
        exact = _ei_transform(s, edge)
        assert value - err <= exact <= value + err, (s, edge, float(exact - value), parts)
        assert err <= 1e-13, (s, edge, parts)  # a vacuously wide bound fails
        try:
            br = laplace_quadrature("lie", s, edge)
        except ValueError as exc:  # the tail past edge is too large at this s
            assert "tail bound" in str(exc) and s < 1.5
            continue
        tail_hi = br.numeric_hi - (value + err)
        assert 0.0 <= tail_hi <= 1e-8
        assert br.numeric_lo <= exact <= br.numeric_hi - tail_hi


def test_lie_first_panel_bound_covers_the_left_out_integral():
    for edge in LIE_EDGES:
        mid, half = laplace._lie_panels(edge)[:2]
        a0 = math.ldexp(edge, -mid.size)
        assert a0 <= 1e-20 and mid[0] - half[0] == pytest.approx(a0, rel=1e-15)
        with mpmath.workdps(30):
            for s in S_GRID:
                left_out = mpmath.quad(lambda t: abs(mpmath.ei(t)) * mpmath.exp(-s * t), [0, a0])
                assert laplace._lie_transform(s, edge)[1].first >= left_out


def test_lie_contract_part_covers_lie_error_at_every_node():
    for edge in LIE_EDGES:
        _mid, half, x, values = laplace._lie_panels(edge)
        w = (half[:, None] * laplace._gauss_rule(laplace._LIE_ORDER)[1]).ravel().tolist()
        exact = _ei_at_nodes(edge)
        miss = [abs(v - e) for v, e in zip(values.ravel().tolist(), exact)]
        for xi, m, e in zip(x.ravel().tolist(), miss, exact):
            assert m <= 3e-16 * max(1, abs(e)), xi
        for s in S_GRID:
            actual = sum(wi * math.exp(-s * xi) * float(m) for wi, xi, m in zip(w, x.ravel(), miss))
            assert laplace._lie_transform(s, edge)[1].functions >= actual > 0


@lru_cache(maxsize=None)
def _gauss_legendre_40_digits(n: int):
    with mpmath.workdps(40):
        nodes, weights = [], []
        for t in np.polynomial.legendre.leggauss(n)[0].tolist():
            r = mpmath.findroot(lambda z: mpmath.legendre(n, z), mpmath.mpf(t))
            dp = mpmath.diff(lambda z: mpmath.legendre(n, z), r)
            nodes.append(r)
            weights.append(2 / ((1 - r**2) * dp**2))
        return nodes, weights


def test_lie_weights_and_rounding_parts_cover_the_float_panel_sum():
    # the transform's own integrand values, summed with 40-digit weights in
    # 40-digit arithmetic: the rest is the weights' and the arithmetic's error
    weights = _gauss_legendre_40_digits(laplace._LIE_ORDER)[1]
    for edge in LIE_EDGES:
        _mid, half, x, values = laplace._lie_panels(edge)
        for s in S_GRID:
            value, parts = laplace._lie_transform(s, edge)
            f = values * np.exp(-s * x)
            with mpmath.workdps(40):
                exact = mpmath.fsum(h * mpmath.fsum(w * v for w, v in zip(weights, row))
                                    for h, row in zip(half.tolist(), f.tolist()))
                assert abs(value - exact) <= parts.weights + parts.rounding, (edge, s)


def test_exp_at_the_lie_nodes_is_as_accurate_as_the_functions_part_assumes():
    with mpmath.workdps(40):
        for edge in LIE_EDGES:
            x = laplace._lie_panels(edge)[2].ravel()
            for s in S_GRID:
                y = -s * x
                got = np.exp(y).tolist()
                worst = max(abs(g / mpmath.exp(v) - 1) for g, v in zip(got, y.tolist()))
                assert worst <= laplace._FN_ERR * U, (edge, s)


def test_lie_panel_remainder_bounds_the_40_digit_gauss_error():
    # the panels past x = 1/8 carry nearly all of the truncation error; each
    # one's bound must cover its Gauss rule's error in 40-digit arithmetic
    edge, s = 40.0, 1.5
    mid, half = laplace._lie_panels(edge)[:2]
    nodes, weights = _gauss_legendre_40_digits(laplace._LIE_ORDER)
    errors = []
    with mpmath.workdps(40):
        f = lambda z: mpmath.ei(z) * mpmath.exp(-s * z)  # noqa: E731
        for i in np.flatnonzero(mid - half >= 0.125).tolist():
            m, h = mpmath.mpf(float(mid[i])), mpmath.mpf(float(half[i]))
            rule = h * mpmath.fsum(wk * f(m + h * tk) for tk, wk in zip(nodes, weights))
            errors.append(abs(rule - mpmath.quad(f, [m - h, m + h])))
            assert laplace._lie_remainder(mid[i : i + 1], half[i : i + 1], s) >= errors[-1], i
    assert laplace._lie_transform(s, edge)[1].remainder >= sum(errors) > 0


# ---------------------------------------------------------------------------
# the stated error of the remainder transform, part by part, against 40-digit oracles


def _r_default_edge(s: float) -> float:
    """The window laplace_quadrature("r") integrates when x_max is not given."""
    return min(12.5, max(math.log(1.0 / (1e-12 * s)) / s, 1.0))


@lru_cache(maxsize=None)
def _r_transform(s: float, edge: float):
    """The integral of r(x) e**-sx over [0, edge] at 40 digits.

    Over the full steps n < N = floor(e**edge) the panel integrals telescope
    to (N**(1-s) - 1)/(1-s) - (zeta(s) - zeta(s, N) - (N-1) N**-s)/s; the
    cut step [log N, edge] is added in closed form.
    """
    with mpmath.workdps(40):
        s, edge = mpmath.mpf(s), mpmath.mpf(edge)
        n = int(mpmath.floor(mpmath.exp(edge)))
        cut = edge - mpmath.log(n)
        p = mpmath.mpf(n) ** (1 - s)
        full = (p - 1) / (1 - s) - (mpmath.zeta(s) - mpmath.zeta(s, n) - (n - 1) * p / n) / s
        return full + p * (mpmath.expm1((1 - s) * cut) / (1 - s) + mpmath.expm1(-s * cut) / s)


def _r_panel(s, n: int, q: int):
    """(q-point Gauss rule, exact integral) of n**(1-s) expm1(y) e**-sy over [0, log1p(1/n)], 40 digits."""
    nodes, weights = _gauss_legendre_40_digits(q)
    with mpmath.workdps(40):
        s, half = mpmath.mpf(s), mpmath.log1p(mpmath.mpf(1) / n) / 2
        f = lambda y: mpmath.mpf(n) ** (1 - s) * mpmath.expm1(y) * mpmath.exp(-s * y)  # noqa: E731
        rule = half * mpmath.fsum(w * f(half * (1 + t)) for t, w in zip(nodes, weights))
        exact = mpmath.mpf(n) ** (1 - s) * (
            mpmath.expm1((1 - s) * 2 * half) / (1 - s) + mpmath.expm1(-s * 2 * half) / s)
        return rule, exact


def _r_remainder(s: float, n: int, q: int, h: Optional[float] = None) -> float:
    """The stated Gauss remainder of panel n, of width h (a full step by default)."""
    h = math.log1p(1.0 / n) if h is None else h
    return math.exp(laplace._log_remainder_coeff(q, s) + (2 * q + 1) * math.log(h) + (1 - s) * math.log(n))


@pytest.mark.parametrize("s", S_GRID)
def test_remainder_transform_error_contains_the_40_digit_integral(s):
    # at edge log 3 the window ends on a step, and no empty cut panel may take a log of 0
    for edge in sorted({1.0, math.log(3.0), _r_default_edge(s), 12.5}):
        with np.errstate(divide="raise", invalid="raise"):
            value, parts = laplace._laplace_r_numeric(s, edge)
        err = sum(parts)
        exact = _r_transform(s, edge)
        assert abs(value - exact) <= err, (s, edge, float(exact - value), parts)
        assert err <= 1e-15, (s, edge, parts)  # the tail past edge is not in it
        assert parts.remainder <= laplace._R_NEGLIGIBLE * value  # each panel's order makes it negligible
    br = laplace_quadrature("r", s)
    assert br.closed_form == R_of_s(s) and br.contains()
    value, parts = laplace._laplace_r_numeric(s, _r_default_edge(s))
    assert br.numeric_lo == value - sum(parts)
    # at edge 1 the window is the step [0, log 2] and the cut [log 2, 1]
    expect = sum(_r_remainder(s, n, q, 1.0 - math.log(2.0) if n == 2 else None)
                 for q, first, stop in laplace._r_order_runs(s, 2) for n in range(first, stop))
    assert laplace._laplace_r_numeric(s, 1.0)[1].remainder == pytest.approx(expect, rel=1e-12, abs=0)


@pytest.mark.parametrize("s", [50.0, 100.0, 150.0, 1e4])
def test_remainder_bracket_past_the_s_grid_is_wide_but_contains_the_integral(s):
    # past s of about 120 no order up to 32 makes the first step's remainder
    # small; the bracket widens instead of leaving the value out, as the
    # |GL16 - GL8| estimate did at s = 1e4
    value, parts = laplace._laplace_r_numeric(s, 1.0)
    assert abs(value - _r_transform(s, 1.0)) <= sum(parts)
    br = laplace_quadrature("r", s)
    assert br.closed_form == R_of_s(s) and br.contains()


def test_remainder_bound_covers_the_40_digit_gauss_error():
    # the widest panels at every order, where the error is far above the
    # oracle's 40 digits; the bound must hold there, and not be vacuous
    checked = 0
    for s in (1.5, 10.0, 50.0):
        for q in laplace._R_ORDERS:
            for n in (1, 2, 3, 10):
                bound = _r_remainder(s, n, q)
                if bound < 1e-30:
                    continue
                rule, exact = _r_panel(s, n, q)
                assert abs(rule - exact) <= bound, (s, q, n)
                checked += 1
    assert checked >= 30


def test_remainder_orders_serve_runs_of_panels_and_each_is_the_least_negligible():
    def negligible(s, q, n):
        h = math.log1p(1.0 / n)
        lower = n ** (1 - s) * min(h, 1 / s) ** 2 / (2 * math.e)  # expm1 y >= y
        return _r_remainder(s, n, q) <= laplace._R_NEGLIGIBLE * lower

    orders = laplace._R_ORDERS
    for s in S_GRID + [1.2, 12.5, 50.0, 1000.0]:
        n_panels = int(math.exp(_r_default_edge(s)))
        runs = laplace._r_order_runs(s, n_panels)
        assert runs[0][2] == n_panels + 1 and runs[-1][1] == 1
        assert all(a[1] == b[2] for a, b in zip(runs, runs[1:]))
        assert [orders.index(q) for q, _, _ in runs] == sorted({orders.index(q) for q, _, _ in runs})
        for q, first, stop in runs:
            if q != orders[-1]:  # the largest also takes the panels no order makes negligible
                assert negligible(s, q, first), (s, q, first)
            for smaller in orders[: orders.index(q)]:
                assert not negligible(s, smaller, stop - 1), (s, q, smaller)


def test_remainder_gauss_rules_are_correctly_rounded():
    for q in laplace._R_ORDERS:
        t, w = laplace._gauss_rule(q)
        nodes, weights = _gauss_legendre_40_digits(q)
        assert (t == -t[::-1]).all() and (w == w[::-1]).all()
        with mpmath.workdps(40):
            for a, b in zip(t.tolist(), nodes):
                assert abs(a - b) <= U / 2, q
            for a, b in zip(w.tolist(), weights):
                assert abs(a - b) <= U * b, q


def test_functions_at_the_remainder_nodes_are_as_accurate_as_stated():
    rng = np.random.default_rng(20261019)
    n = np.unique(np.concatenate([np.arange(1, 64), rng.integers(64, 268338, 300)])).astype(np.float64)
    bound = laplace._FN_ERR * U
    with mpmath.workdps(40):
        exact = {v: mpmath.mpf(v) for v in n.tolist()}
        for got, v in zip(np.log1p(1.0 / n).tolist(), n.tolist()):
            assert abs(got / mpmath.log1p(1 / exact[v]) - 1) <= bound, v
        for v in n[1:].tolist():
            assert abs(math.log(v) / mpmath.log(exact[v]) - 1) <= bound, v
        for s in S_GRID:
            for got, v in zip(np.power(n, -s).tolist(), n.tolist()):
                assert abs(got / exact[v] ** -s - 1) <= bound, (s, v)
            for q, first, stop in laplace._r_order_runs(s, int(math.exp(_r_default_edge(s)))):
                t = laplace._gauss_rule(q)[0]
                for k in sorted({first, stop - 1, (first + stop) // 2}):
                    y = 0.5 * np.log1p(1.0 / np.array([float(k)])) * (1.0 + t)
                    for a, b, yi in zip(np.expm1(y).tolist(), np.exp(-s * y).tolist(), y.tolist()):
                        assert abs(a / mpmath.expm1(yi) - 1) <= bound, (s, k, yi)
                        assert abs(b / mpmath.exp(mpmath.mpf(-s * yi)) - 1) <= bound, (s, k, yi)


def test_quadrature_domain_errors():
    with pytest.raises(ValueError):
        laplace_quadrature("r", 1.0)
    for fn_id in ("r", "lie"):
        for s in (math.inf, math.nan, -math.inf):
            with pytest.raises(ValueError, match=f"s={s}"):
                laplace_quadrature(fn_id, s)
    with pytest.raises(ValueError, match="s=inf"):
        laplace_pair("zeta1", math.inf, limit=100.0)
    with pytest.raises(ValueError):
        laplace_quadrature("r", 1.5, 2.0)  # tail bound unreachable
    with pytest.raises(ValueError):
        laplace_quadrature("nope", 2.0)
    for x_max in (math.nan, 0.0, -1.0):  # used to fail converting e**nan to an int
        with pytest.raises(ValueError, match="x_max"):
            laplace_quadrature("r", 2.0, x_max)
    for x_max in (2.0, math.nan, 700.0, math.inf):  # lie's series ends at log x = 695.25...
        with pytest.raises(ValueError, match="x_max"):
            laplace_quadrature("lie", 2.0, x_max)


def test_er_closed_values():
    assert er_closed(2.0) == pytest.approx(-0.097723439044599981, abs=1e-12)
    assert er_closed(10.0) == pytest.approx(-0.010436643479215724, abs=1e-12)
    assert abs(er_closed(1.0001)) < 1e-3
    with pytest.raises(ValueError):
        er_closed(1.0)


def test_er_partial_truncations():
    assert er_partial(2.0, 3) == pytest.approx(-0.097578551162135263, abs=1e-12)
    u = expansion_argument(2.0)
    assert abs(er_closed(2.0) - er_partial(2.0, 3)) < u**4 / (4 * 2 * (1 - u))
    assert er_partial(2.0, 20) == pytest.approx(er_closed(2.0), abs=1e-12)
    assert er_partial(5.0, 1) == pytest.approx(-(4.0 / 5.0) * R_of_s(5.0), abs=1e-14)


def test_er_partial_monotone_and_convergent():
    for s in S_GRID:
        seq = [er_partial(s, k) for k in range(1, 21)]
        assert all(b <= a for a, b in zip(seq, seq[1:]))
        assert seq[1] < seq[0]
        assert seq[-1] == pytest.approx(er_closed(s), abs=1e-11)


def test_expansion_argument_in_unit_interval():
    for s in S_GRID + [1.0001, 1.01, 50.0]:
        u = expansion_argument(s)
        assert 0.0 < u < 1.0, (s, u)


def test_kernel_offset_and_residuals():
    assert KERNEL_OFFSET == pytest.approx(7.0 / 12.0 - 0.5772156649015329, abs=1e-12)
    assert approx_kernel(2.0) - KERNEL_OFFSET == pytest.approx(0.25 - 1.0 / 18.0, abs=1e-16)
    # measured gaps between R(s) and the kernel (report quantities)
    assert R_of_s(2.0) - approx_kernel(2.0) == pytest.approx(-0.023029146300358135, abs=1e-10)
    assert R_of_s(1.5) - approx_kernel(1.5) == pytest.approx(-0.014367900888792702, abs=1e-10)
    assert abs(R_of_s(50.0) - approx_kernel(50.0)) < 0.02


def test_exact_bracket_algebra_identity():
    # zeta(s)/(s(s-1)) = 1/(s-1)^2 - R(s)/(s-1), an exact rearrangement
    for s in S_GRID:
        lhs = zeta_real(s) / (s * (s - 1.0))
        rhs = 1.0 / (s - 1.0) ** 2 - R_of_s(s) / (s - 1.0)
        assert abs(lhs - rhs) < 1e-12


def test_laplace_comb_rejects_small_s():
    c = build_comb(CombKind.ZETA1, 100)
    with pytest.raises(ValueError):
        laplace_comb(c, 1.0, pair_id="zeta1")


def test_every_comb_kind_has_a_closed_form():
    for kind in list(CombKind) + [ArithmeticKind(1.5, 1.0)]:
        assert math.isfinite(closed_form_for(kind, 2.0)), kind
    with pytest.raises(ValueError, match="no closed form"):
        closed_form_for("zeta9", 2.0)


def test_unknown_pair():
    with pytest.raises(ValueError):
        laplace_pair("zeta9", 2.0)
