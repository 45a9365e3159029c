"""Quadrature and finite-difference battery.

Expected values come from hand integrals (exponential moments, Laplace
transforms) so the integrator is checked against closed forms it does
not know about.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from finite_difference import finite_difference_curvature, finite_difference_slope
from neqbath.numerics import (
    _NODES,
    _WG_FULL,
    _WK_FULL,
    _initial_edges,
    integrate_finite,
    integrate_semi_infinite,
)

EPS = np.finfo(float).eps


def sorted_edges(upper, rate, chirp):
    """The initial edges as all pieces concatenated, sorted and deduplicated."""
    floor = upper / 8192.0
    step = 16.0 * math.pi
    w0 = max(min(upper / 32.0, step / rate if rate else upper), floor)
    a1 = a2 = upper
    if chirp > 0:
        a1 = min(max((step / w0 - rate) / chirp, 0.0), upper)
        a2 = min(max((step / floor - rate) / chirp, a1), upper)
    p1 = a1 * (rate + 0.5 * chirp * a1)
    p2 = a2 * (rate + 0.5 * chirp * a2)
    phase = p1 + step * np.arange(math.ceil((p2 - p1) / step))
    edges = np.sort(np.concatenate([
        w0 * np.arange(math.ceil(a1 / w0)),
        2.0 * phase / (rate + np.sqrt(rate * rate + 2.0 * chirp * phase)),
        a2 + floor * np.arange(math.ceil((upper - a2) / floor)),
        [upper],
    ]))
    keep = np.ones(len(edges), dtype=bool)
    keep[1:] = edges[1:] > edges[:-1]
    return edges[keep]


class TestInitialEdges:
    """The pieces, built in order and sorted only where they meet, give the
    edges that sorting all of them gives, bit for bit."""

    @pytest.mark.parametrize("upper", [1e-300, 1e-3, 0.3, 16.151673058267946, 40.0, 1e5, 1e300])
    @pytest.mark.parametrize("rate", [0.0, 0.02, 1.0, 4.0, 20.0, 1e3])
    @pytest.mark.parametrize("chirp", [0.0, 1e-3, 0.5, 4.0, 40.0, 1e4])
    def test_bitwise_equal_to_sorting_every_piece(self, upper, rate, chirp):
        edges = _initial_edges(upper, rate, chirp)
        want = sorted_edges(upper, rate, chirp)
        assert edges.dtype == want.dtype and edges.tobytes() == want.tobytes()

    @pytest.mark.parametrize("upper,rate", [(70.59359560117714, 65.50770429955354),
                                            (306.1266539855235, 31.033482582358843)])
    def test_an_edge_rounded_onto_upper_is_dropped(self, upper, rate):
        # the last uniform edge, w0 (ceil(upper / w0) - 1), rounds onto upper:
        # the one seam that needs the sort (found by drawing rate and upper =
        # w0 m at random until the product rounded so)
        w0 = 16.0 * math.pi / rate
        assert w0 * (math.ceil(upper / w0) - 1) == upper
        edges = _initial_edges(upper, rate, 0.0)
        assert edges.tobytes() == sorted_edges(upper, rate, 0.0).tobytes()
        assert np.all(np.diff(edges) > 0.0) and edges[-1] == upper

    def test_sweep_covers_every_piece(self):
        # rate 1 and chirp 1e5 on [0, 40]: phase and floor pieces (a2 < upper,
        # more than 8,000 floor-wide panels); chirp 0: the uniform piece alone
        floor = 40.0 / 8192.0
        widths = np.diff(_initial_edges(40.0, 1.0, 1e5))
        assert np.sum(np.isclose(widths, floor, rtol=1e-9)) > 8000
        assert widths.max() > 2.0 * floor
        assert np.all(np.diff(_initial_edges(40.0, 4.0, 0.0)) == 40.0 / 32.0)


class TestRule:
    """The G20/K41 constants: a mistyped digit breaks exactness or symmetry."""

    def test_nodes_and_weights_are_symmetric(self):
        assert np.all(np.diff(_NODES) > 0.0)
        assert np.array_equal(_NODES, -_NODES[::-1])
        assert np.array_equal(_WK_FULL, _WK_FULL[::-1])
        assert np.array_equal(_WG_FULL, _WG_FULL[::-1])

    @pytest.mark.parametrize("k", range(62))
    def test_polynomials_integrate_exactly(self, k):
        # int_-1^1 x^k dx (k = 0: the weights sum to 2); K41 has degree 61,
        # the G20 at its odd nodes 39
        want = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(_NODES ** k @ _WK_FULL - want) <= 4.0 * EPS
        if k <= 39:
            assert abs(_NODES[1::2] ** k @ _WG_FULL - want) <= 4.0 * EPS

    def test_odd_nodes_are_gauss_legendre(self):
        nodes, _ = np.polynomial.legendre.leggauss(20)
        assert np.all(np.abs(_NODES[1::2] - nodes) <= 2.0 * EPS)


def test_exponential_moment():
    # int_0^inf e^-w dw = 1; tail beyond 60 is ~1e-26
    res = integrate_semi_infinite(lambda w: np.exp(-w), upper=60.0, tol=1e-12)
    assert res.converged
    assert res.error <= 1e-12
    assert res.value == pytest.approx(1.0, abs=1e-12)


def test_oscillatory_laplace_transform():
    # int_0^inf w e^-w cos(2 w) dw = (1 - b^2)/(1 + b^2)^2 with b = 2,
    # i.e. -3/25, by differentiating the Laplace transform of cos(b w)
    def f(w):
        return w * np.exp(-w) * np.cos(2.0 * w)

    res = integrate_semi_infinite(f, upper=60.0, tol=1e-12, rate=2.0)
    assert res.converged
    assert res.value == pytest.approx(-3.0 / 25.0, abs=1e-11)


def test_finite_cubic():
    res = integrate_finite(lambda t: t**3, 0.0, 1.0, tol=1e-12)
    assert res.converged
    assert res.value == pytest.approx(0.25, abs=1e-13)


class TestVectorIntegrand:
    """An integrand returning shape (m, npts): m integrals on one partition."""

    @staticmethod
    def family(ks):
        # int_0^1 e^(k t) dt = expm1(k) / k: the larger k, the more panels
        ks = np.asarray(ks, dtype=float)[:, None]
        return (lambda t: np.exp(ks * t)), np.expm1(ks[:, 0]) / ks[:, 0]

    # the hardest component double precision can hold to 1e-9: 50 eps int |f|
    # is about 7e-15, yet 4 panels cannot resolve 64 periods (16 do)
    @staticmethod
    def fast(t):
        return np.cos(400.0 * t)

    def test_each_component_meets_tol(self):
        f, exact = self.family([0.5, 5.0])
        res = integrate_finite(lambda t: np.vstack([f(t), self.fast(t)]), 0.0, 1.0, tol=1e-9)
        exact = np.append(exact, math.sin(400.0) / 400.0)
        assert res.converged
        assert res.value.shape == res.error.shape == (3,)
        assert np.all(res.error <= 1e-9)
        assert np.all(np.abs(res.value - exact) <= res.error + 1e-15 * np.abs(exact))

    def test_refines_for_the_hardest_component(self):
        easy = integrate_finite(lambda t: np.exp(0.5 * t), 0.0, 1.0, tol=1e-9)
        both = integrate_finite(lambda t: np.vstack([np.exp(0.5 * t), self.fast(t)]),
                                0.0, 1.0, tol=1e-9)
        hard = integrate_finite(self.fast, 0.0, 1.0, tol=1e-9)
        assert easy.subdivisions < both.subdivisions == hard.subdivisions

    def test_component_below_its_rounding_is_not_converged(self):
        # int_0^1 e^40t dt = 5.9e15: its rounding floor, 50 eps int |f| = 66,
        # lies far above 1e-9, so the component is reported unmet, and its
        # error covers its distance from the 50-digit value
        import mpmath as mp
        f, _ = self.family([0.5, 40.0])
        res = integrate_finite(f, 0.0, 1.0, tol=1e-9)
        assert not res.converged and res.error[0] <= 1e-9 < res.error[1]
        with mp.workdps(50):
            distance = abs(mp.mpf(res.value[1]) - mp.expm1(40) / 40)
        assert res.error[1] >= distance

    def test_unmet_tolerance_reports_every_component(self):
        f, _ = self.family([0.5, 40.0])
        res = integrate_finite(f, 0.0, 1.0, tol=1e-30)
        assert not res.converged and res.subdivisions == 10_000
        assert res.error.shape == (2,)

    @pytest.mark.parametrize("k", [0.5, 5.0, 40.0])
    def test_one_component_is_bitwise_the_scalar_call(self, k):
        scalar = integrate_finite(lambda t: np.exp(k * t) * np.sin(9.0 * t), 0.0, 3.0,
                                  tol=1e-11)
        vector = integrate_finite(lambda t: (np.exp(k * t) * np.sin(9.0 * t))[None, :],
                                  0.0, 3.0, tol=1e-11)
        assert isinstance(scalar.value, float) and isinstance(scalar.error, float)
        assert vector.value.shape == (1,)
        assert vector.value[0] == scalar.value and vector.error[0] == scalar.error
        assert vector.subdivisions == scalar.subdivisions


@pytest.mark.parametrize("k", [5.0, 12.0, 20.0, 40.0])
def test_reported_error_covers_the_50_digit_error(k):
    # int_0^1 e^kt dt at tol 1e-9: where |K41 - G20| falls below the rounding
    # of the value itself, the floor 50 eps int |f| keeps the error honest,
    # converged or not
    import mpmath as mp
    res = integrate_finite(lambda t: np.exp(k * t), 0.0, 1.0, tol=1e-9)
    with mp.workdps(50):
        distance = abs(mp.mpf(res.value) - mp.expm1(k) / k)
    assert res.error >= distance


def test_finite_sine_squared():
    res = integrate_finite(lambda t: np.sin(t) ** 2, 0.0, 2.0 * math.pi,
                           tol=1e-12)
    assert res.value == pytest.approx(math.pi, abs=1e-11)


def test_tolerance_contract_against_tighter_run():
    def f(w):
        return np.exp(-w) * np.cos(5.0 * w)

    loose = integrate_semi_infinite(f, upper=80.0, tol=1e-8, rate=5.0)
    tight = integrate_semi_infinite(f, upper=80.0, tol=1e-13, rate=5.0)
    assert loose.converged and tight.converged
    assert loose.error <= 1e-8
    # exact value 1/26; the loose run must sit inside its own error bar
    # against the much tighter reference
    assert abs(loose.value - tight.value) <= max(loose.error, 1e-12)
    assert tight.value == pytest.approx(1.0 / 26.0, abs=1e-12)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(a=st.floats(-3.0, 3.0), b=st.floats(-3.0, 3.0))
def test_linearity(a, b):
    # int e^-w = 1, int e^(-w/2) cos w = (1/2)/(1/4 + 1) = 2/5
    def f(w):
        return a * np.exp(-w) + b * np.exp(-w / 2.0) * np.cos(w)

    res = integrate_semi_infinite(f, upper=120.0, tol=1e-10, rate=1.0)
    expected = a * 1.0 + b * 0.4
    assert res.value == pytest.approx(expected, abs=2e-10)


def test_bitwise_determinism():
    def f(w):
        return w * np.exp(-w) * np.cos(3.0 * w + 0.2)

    r1 = integrate_semi_infinite(f, upper=60.0, tol=1e-11, rate=3.0)
    r2 = integrate_semi_infinite(f, upper=60.0, tol=1e-11, rate=3.0)
    assert r1.value == r2.value
    assert r1.error == r2.error
    assert r1.subdivisions == r2.subdivisions


def test_budget_exhaustion_reports_unconverged():
    # chirp too fast for the panel budget at this tolerance: keep the best
    # estimate, flag it
    def f(w):
        return np.cos(50.0 * w * w)

    res = integrate_semi_infinite(f, upper=10.0, tol=1e-14)
    assert not res.converged
    assert math.isfinite(res.value)
    assert res.error > 1e-14


def test_nonfinite_integrand_rejected():
    def inverse(t):
        with np.errstate(divide="ignore", over="ignore"):  # the blow-up at 0 is the point
            return 1.0 / t

    with pytest.raises(ValueError, match="non-finite"):
        integrate_finite(inverse, -1.0, 1.0, tol=1e-8)


def test_nonfinite_integrand_names_its_place():
    def inverse(t):
        with np.errstate(divide="ignore", over="ignore"):
            return 1.0 / t

    with pytest.raises(ValueError, match="non-finite value at x = ") as exc_info:
        integrate_finite(inverse, -1.0, 1.0, tol=1e-8)
    place = float(str(exc_info.value).rsplit("x = ", 1)[1])
    assert abs(place) <= 1e-300


def test_overflowing_sum_of_finite_values_is_no_bad_node():
    # every node value is finite, but the weighted sums overflow: no node
    # is to blame, so the run refines to its cap and reports no convergence
    big = np.finfo(float).max
    with np.errstate(over="ignore", invalid="ignore"):
        res = integrate_finite(lambda t: np.full_like(t, big), 0.0, 4.0, tol=1.0)
    assert not res.converged and res.subdivisions == 10_000


def test_nan_at_one_node_is_named():
    # 0.25 is the centre node of the initial panel [0, 0.5]
    def f(t):
        return np.where(t == 0.25, math.nan, np.sin(t))

    with pytest.raises(ValueError, match=r"non-finite value at x = 0\.25$"):
        integrate_finite(f, -1.0, 1.0, tol=1e-8)


def test_bad_arguments():
    with pytest.raises(ValueError):
        integrate_finite(np.exp, 1.0, 1.0)
    # NaN refined to the panel cap and reported converged=False
    for bad in (0.0, math.nan):
        with pytest.raises(ValueError, match=f"tol must be positive, got {bad}"):
            integrate_finite(np.exp, 0.0, 1.0, tol=bad)
        with pytest.raises(ValueError, match=f"tol must be positive, got {bad}"):
            integrate_semi_infinite(np.exp, upper=1.0, tol=bad)
    with pytest.raises(ValueError):
        integrate_semi_infinite(np.exp, upper=-2.0)
    with pytest.raises(ValueError):
        finite_difference_slope(math.sin, 0.0, h=0.0)
    with pytest.raises(ValueError):
        finite_difference_curvature(math.sin, 0.0, h=-1.0)


@pytest.mark.parametrize("integrator,bounds,message", [
    (integrate_semi_infinite, (math.inf,), "upper must be finite and positive, got inf"),
    (integrate_semi_infinite, (math.nan,), "upper must be finite and positive, got nan"),
    (integrate_finite, (0.0, math.inf), "must be finite with b > a, got [0.0, inf]"),
    (integrate_finite, (-math.inf, 0.0), "must be finite with b > a, got [-inf, 0.0]"),
    (integrate_finite, (math.nan, 1.0), "must be finite with b > a, got [nan, 1.0]"),
], ids=["upper inf", "upper nan", "b inf", "a -inf", "a nan"])
def test_nonfinite_bounds_rejected_by_name(integrator, bounds, message):
    # refused before any node is evaluated: no RuntimeWarning, no blame on the integrand
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as exc_info:
            integrator(np.exp, *bounds)
    assert message in str(exc_info.value)


def test_slope_against_analytic_derivative():
    got = finite_difference_slope(math.cos, 0.7)
    assert got == pytest.approx(-math.sin(0.7), abs=1e-10)


def test_curvature_against_analytic_second_derivative():
    got = finite_difference_curvature(math.cos, 0.7)
    assert got == pytest.approx(-math.cos(0.7), abs=1e-8)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(x0=st.floats(-2.0, 2.0))
def test_slope_of_cubic_is_fourth_order_exact(x0):
    # Richardson kills the h^2 term, so cubics differentiate exactly
    # up to rounding
    got = finite_difference_slope(lambda x: x**3 - 2.0 * x, x0, h=1e-3)
    assert got == pytest.approx(3.0 * x0 * x0 - 2.0, abs=1e-9)
