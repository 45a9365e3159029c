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
    integrate_finite,
    integrate_semi_infinite,
)

EPS = np.finfo(float).eps


class TestRule:
    """The G10/K21 constants: a mistyped digit breaks exactness or symmetry."""

    def test_nodes_and_weights_are_symmetric(self):
        assert np.all(np.diff(_NODES) > 0.0)
        assert np.array_equal(_NODES, -_NODES[::-1])
        assert np.array_equal(_WK_FULL, _WK_FULL[::-1])
        assert np.array_equal(_WG_FULL, _WG_FULL[::-1])

    @pytest.mark.parametrize("k", range(32))
    def test_polynomials_integrate_exactly(self, k):
        # int_-1^1 x^k dx (k = 0: the weights sum to 2); K21 has degree 31,
        # the G10 at its odd nodes 19
        want = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(_NODES ** k @ _WK_FULL - want) <= 4.0 * EPS
        if k <= 19:
            assert abs(_NODES[1::2] ** k @ _WG_FULL - want) <= 4.0 * EPS


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

    def test_each_component_meets_tol(self):
        f, exact = self.family([0.5, 5.0, 40.0])
        res = integrate_finite(f, 0.0, 1.0, tol=1e-9)
        assert res.converged
        assert res.value.shape == res.error.shape == (3,)
        assert np.all(res.error <= 1e-9)
        assert np.all(np.abs(res.value - exact) <= res.error + 1e-15 * np.abs(exact))

    def test_refines_for_the_hardest_component(self):
        f, _ = self.family([0.5, 40.0])
        easy = integrate_finite(lambda t: np.exp(0.5 * t), 0.0, 1.0, tol=1e-9)
        both = integrate_finite(f, 0.0, 1.0, tol=1e-9)
        hard = integrate_finite(lambda t: np.exp(40.0 * t), 0.0, 1.0, tol=1e-9)
        assert easy.subdivisions < both.subdivisions == hard.subdivisions

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
    # 0.125 is the centre node of the panel [0, 0.25]
    def f(t):
        return np.where(t == 0.125, math.nan, np.sin(t))

    with pytest.raises(ValueError, match=r"non-finite value at x = 0\.125$"):
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
