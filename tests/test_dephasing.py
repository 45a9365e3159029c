"""Decoherence-factor battery.

The closed forms were derived by hand from Laplace-transform identities;
here they are cross-checked against the independent adaptive quadrature
route, against symbolic special points, and against the long-time limit.
"""

import dataclasses
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from neqbath import dephasing
from neqbath.bath import BathConfig, PhaseProfile, SpectralDensity
from neqbath.cli import grid_array
from neqbath.dephasing import (
    METHOD_CLOSED,
    METHOD_QUADRATURE,
    _TAIL_SHARE,
    DecoherenceCurve,
    _log_upper_gamma,
    _osc_cutoff,
    _tail,
    _tail_cutoff,
    beta_closed,
    beta_integrand,
    beta_quadrature,
    beta_values,
    decoherence_factor,
    find_dip,
)
from neqbath.numerics import ConvergenceError, _initial_edges

FIG1 = dict(gamma=3.0, cutoff=1.0, diffusion=0.5, phase_lambda=1.0)
FIG2 = dict(gamma=0.5, cutoff=1.0, diffusion=0.1, phase_lambda=1.0)
FIG3 = dict(gamma=3.0, cutoff=1.0, diffusion=0.1, phase_lambda=1.0,
            phase_profile="quadratic")


def cfg(params, **kw):
    d = dict(params)
    d.update(kw)
    return BathConfig(**d)


class TestClosedForm:
    def test_beta_zero_at_t0(self):
        assert beta_closed(0.0, cfg(FIG2)) == pytest.approx(0.0, abs=1e-15)
        assert beta_closed(0.0, cfg(FIG1, ohmicity=3)) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("n,scale", [(1, 1.0), (3, 6.0)])
    def test_value_at_t_equals_delay(self, n, scale):
        # at t = lam the oscillatory factor is Q(0) = 1 and beta collapses
        # to scale * gamma * (1 - e^(-4 D t))
        c = cfg(FIG2, ohmicity=n)
        expected = scale * c.gamma * (1.0 - math.exp(-4.0 * c.diffusion * 1.0))
        assert beta_closed(1.0, c) == pytest.approx(expected, rel=1e-14)

    def test_matches_quadrature_fig_params(self):
        ts = np.arange(0.0, 20.01, 0.5)
        worst = 0.0
        for params in (FIG1, FIG2):
            for n in (1, 3):
                c = cfg(params, ohmicity=n)
                bc = beta_closed(ts, c)
                bq = np.array([beta_quadrature(float(t), c).value for t in ts])
                worst = max(worst, float(np.max(np.abs(bc - bq))))
        assert worst < 1e-8

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_any_ohmicity_matches_quadrature(self, n):
        ts = np.arange(0.0, 10.01, 0.5)
        for params in (FIG1, FIG2):
            c = cfg(params, ohmicity=n)
            beta, err, route = beta_values(ts, c, 1e-10)
            assert route == METHOD_CLOSED
            for t, b, e in zip(ts, beta, err):
                try:
                    res = beta_quadrature(float(t), c)
                except ConvergenceError as exc:
                    # n = 8 on FIG1 (gamma n! = 1.2e5) at t = 0.5-2: the panels'
                    # rounding floor alone exceeds tol, so the call stalls at
                    # 2.3-4.1e-10; its best estimate must still hold
                    res = exc.result
                assert abs(b - res.value) <= res.error + e, (params, t)

    def test_largest_ohmicity_at_huge_scales(self):
        # y = 2 cutoff (t - lam) overflows off the delay (q = 0 there);
        # with a tiny D, gamma n! a stays below the largest double
        c = BathConfig(gamma=1e300, cutoff=1e300, diffusion=1e-300,
                       phase_lambda=1.0, ohmicity=170)
        ts = np.array([0.0, 0.5, 1.0, 2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            beta, err, _ = beta_values(ts, c, 1e-10)
            assert np.all(np.isfinite(beta)) and np.all(np.isfinite(err))
            assert beta[0] == 0.0 and err[0] == 0.0
            # gamma n! a (1 + q) with gamma a = 2 t and q = 1 only at t = lam
            for t, b, q in zip(ts[1:], beta[1:], (0.0, 1.0, 0.0)):
                want = 2.0 * t * float(math.factorial(170)) * (1.0 + q)
                assert b == pytest.approx(want, rel=1e-12)
            # at D = 0.1 beta overflows; |F| is 0 with error 0, not NaN
            curve = decoherence_factor(ts, dataclasses.replace(c, diffusion=0.1))
        assert list(curve.values) == [1.0, 0.0, 0.0, 0.0]
        assert list(curve.errors) == [0.0, 0.0, 0.0, 0.0]

    def test_wrapper_misuse_errors(self):
        with pytest.raises(ValueError, match="linear"):
            beta_closed(1.0, cfg(FIG1, phase_profile="quadratic"))

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(gamma=st.floats(0.0, 5.0), cutoff=st.floats(0.2, 5.0),
           diffusion=st.floats(0.0, 2.0), lam=st.floats(0.0, 5.0),
           n=st.sampled_from([1, 3]), t=st.floats(0.0, 30.0))
    def test_beta_nonnegative_factor_physical(self, gamma, cutoff, diffusion,
                                              lam, n, t):
        c = BathConfig(gamma=gamma, cutoff=cutoff, diffusion=diffusion,
                       phase_lambda=lam, ohmicity=n)
        b = beta_closed(t, c)
        assert b >= -1e-13
        f = math.exp(-b)
        assert 0.0 < f <= 1.0 + 1e-13

    def test_short_time_linear_growth(self):
        c = cfg(FIG1)
        ratio = beta_closed(2e-3, c) / beta_closed(1e-3, c)
        assert ratio == pytest.approx(2.0, rel=0.01)


class TestClosedFormError:
    """beta_values' closed-form error against a 50-digit evaluation."""

    # (gamma, D, lam, cutoff); the fifth keeps a = 1 - e^(-2 D t) a normal
    # float while gamma n! a overflows at late times (those are skipped),
    # the last makes a subnormal for t below 1e-8
    SETS = [(3.0, 0.5, 1.0, 1.0), (0.5, 0.1, 1.0, 1.0), (1.0, 1e-3, 2.5, 3.0),
            (1e-3, 5.0, 0.0, 0.2), (2.0, 0.05, 7.0, 10.0),
            (1e300, 1e-296, 1.0, 1e300), (1e300, 1e-300, 1.0, 1e300)]

    @staticmethod
    def exact_beta(t, gamma, diffusion, lam, cutoff, n):
        import mpmath as mp
        t = mp.mpf(float(t))
        y = 2 * mp.mpf(cutoff) * (t - mp.mpf(lam))
        a = -mp.expm1(-2 * mp.mpf(diffusion) * t)
        q = mp.re((1 - 1j * y) ** (-(n + 1)))
        return mp.mpf(gamma) * mp.factorial(n) * a * (1 + (1 - a) * q)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 20, 60, 170])
    def test_error_covers_exact_value(self, n):
        import mpmath as mp
        ts = np.concatenate([np.logspace(-12.0, 4.0, 33),
                             np.arange(0.0, 12.01, 0.25)])
        checked = 0
        with mp.workdps(50):
            for gamma, diffusion, lam, cutoff in self.SETS:
                c = BathConfig(gamma=gamma, cutoff=cutoff, diffusion=diffusion,
                               phase_lambda=lam, ohmicity=n)
                beta, err, _ = beta_values(ts, c, 1e-10)
                for t, b, e in zip(ts, beta, err):
                    if not math.isfinite(b):
                        continue
                    exact = self.exact_beta(t, gamma, diffusion, lam, cutoff, n)
                    assert abs(mp.mpf(float(b)) - exact) <= e, (c, t)
                    checked += 1
        assert checked >= 5 * len(ts)

    def test_subnormal_diffusion_factor(self):
        # a = 2e-312 carries an absolute rounding of 2^-1075, relative 1e-12
        import mpmath as mp
        c = BathConfig(gamma=1e300, cutoff=1e300, diffusion=1e-300,
                       phase_lambda=1.0, ohmicity=1)
        beta, err, _ = beta_values(np.array([1e-12]), c, 1e-10)
        with mp.workdps(50):
            exact = self.exact_beta(1e-12, 1e300, 1e-300, 1.0, 1e300, 1)
            deviation = abs(mp.mpf(float(beta[0])) - exact)
        assert 1e-24 < deviation <= err[0]


class TestIntegrand:
    def test_spot_value_ohmic(self):
        # at w = t = lam = cutoff = 1 the cosine argument vanishes, and the
        # oscillating part is 1/4 * 4 gamma e^-1 * (e^(-2 D) - e^(-4 D))
        c = cfg(FIG2)
        expected = c.gamma * math.exp(-1.0) * (math.exp(-0.2) - math.exp(-0.4))
        assert beta_integrand(1.0, 1.0, c) == pytest.approx(expected, rel=1e-14)

    def test_vanishes_at_zero_frequency(self):
        assert beta_integrand(0.0, 2.0, cfg(FIG1)) == 0.0

    def test_vectorized(self):
        w = np.linspace(0.0, 10.0, 11)
        vals = beta_integrand(w, 1.5, cfg(FIG2))
        assert vals.shape == w.shape
        assert np.all(np.isfinite(vals))


def one_expression(name, w, t, c):
    """The one-expression forms of the density, the phase and the integrand,
    which compute the same float operations in the same order with a new
    array for every step."""
    x = w / c.cutoff
    density = (4.0 * c.gamma / c.cutoff) * x**c.ohmicity * np.exp(-x)
    lam = c.phase_lambda
    theta = -lam * w if c.phase_profile == "linear" else -lam * w * w
    e2 = math.exp(-2.0 * c.diffusion * t)
    return {"density": density, "phase": theta,
            "integrand": (0.25 * (e2 - e2 * e2) * density) * np.cos(2.0 * (w * t + theta))}[name]


class TestInPlaceArithmetic:
    """SpectralDensity, PhaseProfile and beta_integrand compute in place on
    arrays they make: the input is left as it was, the result is a new
    array, and the bits are those of the one-expression forms."""

    CALLS = {"density": lambda w, t, c: SpectralDensity(c)(w),
             "phase": lambda w, t, c: PhaseProfile(c)(w),
             "integrand": beta_integrand}

    @pytest.mark.parametrize("name", sorted(CALLS))
    @pytest.mark.parametrize("profile", ["linear", "quadratic"])
    @pytest.mark.parametrize("ohmicity", [1, 3])
    def test_array_input_is_kept_and_the_result_is_new(self, name, profile, ohmicity):
        c = cfg(FIG3, phase_profile=profile, ohmicity=ohmicity)
        w = np.linspace(0.0, 40.0, 2101)
        before = w.copy()
        got = self.CALLS[name](w, 2.5, c)
        assert w.tobytes() == before.tobytes()
        assert not np.shares_memory(got, w)
        want = one_expression(name, before, 2.5, c)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", sorted(CALLS))
    @pytest.mark.parametrize("profile", ["linear", "quadratic"])
    @pytest.mark.parametrize("omega", [0.0, 0.7, 13.0])
    def test_float_input_gives_a_numpy_float(self, name, profile, omega):
        c = cfg(FIG3, phase_profile=profile, ohmicity=3)
        got = self.CALLS[name](omega, 2.5, c)
        want = one_expression(name, np.asarray(omega, dtype=float), 2.5, c)
        assert type(got) is type(want) is np.float64
        assert got == want


class TestQuadrature:
    def test_zero_time_and_zero_diffusion_shortcut(self):
        res = beta_quadrature(0.0, cfg(FIG1))
        assert res.value == 0.0 and res.converged
        res = beta_quadrature(3.0, cfg(FIG1, diffusion=0.0))
        assert res.value == 0.0 and res.converged

    def test_reports_error_within_tolerance(self):
        res = beta_quadrature(2.0, cfg(FIG2), tol=1e-10)
        assert res.converged
        assert res.error <= 1e-10

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            beta_quadrature(-1.0, cfg(FIG2))

    def test_nan_tolerance_rejected(self):
        # formerly a ConvergenceError from the tail cutoff's log(nan)
        with pytest.raises(ValueError, match="tol must be positive, got nan"):
            beta_quadrature(0.5, cfg(FIG3), tol=math.nan)

    def test_unreachable_tolerance_raises_with_estimate(self):
        with pytest.raises(ConvergenceError) as exc_info:
            beta_quadrature(2.0, cfg(FIG1), tol=1e-300)
        res = exc_info.value.result
        assert res is not None
        # the best estimate is still the right answer
        assert res.value == pytest.approx(beta_closed(2.0, cfg(FIG1)), abs=1e-10)

    def test_profile_shift_matches_closed_form(self):
        # quadrature at a longer delay must equal the closed form there
        c = cfg(FIG2)
        shifted = dataclasses.replace(c, phase_lambda=2.5)
        for t in (0.5, 1.7, 3.0):
            got = beta_quadrature(t, shifted).value
            assert got == pytest.approx(beta_closed(t, shifted), abs=1e-9)


class TestTruncatedQuadrature:
    """The tolerance-derived cutoff, its tail bound and the panel grid."""

    @pytest.mark.parametrize("params", [FIG1, FIG2])
    @pytest.mark.parametrize("n", [1, 3])
    def test_error_covers_closed_form_on_time_grid(self, params, n):
        # the tail bound is nearly tight at late times, so the closed form
        # keeps its own rounding error, eps (1 + beta), as in
        # decoherence_factor
        c = cfg(params, ohmicity=n)
        for t in np.arange(0.0, 10.01, 0.1):
            res = beta_quadrature(float(t), c)
            exact = beta_closed(float(t), c)
            assert res.converged and res.error <= 1e-10
            slack = np.finfo(float).eps * (1.0 + exact)
            assert abs(res.value - exact) <= res.error + slack, t

    @pytest.mark.parametrize("n", [1, 3])
    def test_loose_run_within_its_error_of_tight_run(self, n):
        c = cfg(FIG3, ohmicity=n)
        for t in np.arange(0.1, 10.01, 0.3):
            loose = beta_quadrature(float(t), c, tol=1e-8)
            tight = beta_quadrature(float(t), c, tol=1e-12)
            assert abs(loose.value - tight.value) <= loose.error, t

    @staticmethod
    def greedy_edges(upper, hint, cap):
        # the panel-by-panel construction the closed-form grid replaces
        floor = upper / 8192.0
        w0 = max(min(upper / 32.0, 8.0 * hint if hint else upper), floor)
        edges = [0.0]
        while edges[-1] < upper:
            w = max(min(w0, cap(edges[-1])), floor)
            edges.append(min(edges[-1] + w, upper))
        return np.array(edges)

    @pytest.mark.parametrize("upper", [30.0, 300.0])
    @pytest.mark.parametrize("lam", [0.0, 1.0, 5.0])
    @pytest.mark.parametrize("t", [0.02, 0.5, 3.0, 10.0])
    def test_initial_grid_meets_width_rule(self, t, lam, upper):
        rate = 2.0 * t  # the local angular frequency at w = 0
        edges = _initial_edges(upper, rate, 4.0 * lam)
        hint = 2.0 * math.pi / rate
        widths = np.diff(edges)
        floor = upper / 8192.0
        w0 = max(min(upper / 32.0, 8.0 * hint), floor)
        # eight local periods, 2 pi / (2 t + 4 lam a) each
        cap = 8.0 * math.pi / (t + 2.0 * lam * edges[:-1])
        assert edges[0] == 0.0 and edges[-1] == upper
        assert np.all(widths > 0.0)
        assert np.all(widths <= w0 * (1.0 + 1e-12))
        # past the point where the cap falls below the floor, the floor rules
        assert np.all(widths <= np.maximum(cap, floor) * (1.0 + 1e-12))
        greedy = self.greedy_edges(
            upper, hint, lambda a: 8.0 * math.pi / (t + 2.0 * lam * a))
        assert len(edges) <= 1.05 * len(greedy) + 3

    def test_linear_grid_is_uniform_below_one_period(self):
        rate = 4.0  # at t = 3, 2 |t - lam|
        widths = np.diff(_initial_edges(40.0, rate, 0.0))
        hint = 2.0 * math.pi / rate
        assert np.all(widths <= hint * (1.0 + 1e-12))
        assert np.allclose(widths[:-1], widths[0])

    @pytest.mark.parametrize("upper", [1e-300, 0.3, 40.0, 1e300])
    def test_no_oscillation_gives_equal_panels(self, upper):
        edges = _initial_edges(upper, 0.0, 0.0)
        assert len(edges) == 33 and edges[0] == 0.0 and edges[-1] == upper
        assert np.allclose(np.diff(edges), upper / 32.0, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("params,t,rate,chirp", [
        (FIG2, 3.0, 4.0, 0.0),  # 2 |t - lam|
        (FIG2, 0.25, 1.5, 0.0),
        (FIG3, 3.0, 6.0, 4.0),  # 2 t, 4 lam
    ])
    def test_quadrature_states_the_local_rate(self, monkeypatch, params, t, rate, chirp):
        seen = []
        inner = dephasing.integrate_semi_infinite
        monkeypatch.setattr(dephasing, "integrate_semi_infinite", lambda f, upper, **kw: (
            seen.append(kw) or inner(f, upper, **kw)))
        beta_quadrature(t, cfg(params))
        assert seen[0]["rate"] == rate and seen[0]["chirp"] == chirp

    @pytest.mark.parametrize("params", [FIG2, FIG3])
    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("dt,tol", [(20.0, 1e-10), (3.0, 1.0)])
    def test_negligible_oscillation_returns_the_smooth_part(self, params, n, dt, tol):
        # the oscillating part weighs at most gamma a n!, a = e^-2Dt - e^-4Dt;
        # at or below tol / 10 (D t = 20: about 1e-16) it is not integrated
        c = cfg(params, ohmicity=n)
        t = dt / c.diffusion
        a = -math.expm1(-2.0 * c.diffusion * t)
        whole = c.gamma * (math.exp(-2.0 * c.diffusion * t) * a) * math.factorial(n)
        assert whole <= 0.1 * tol
        res = beta_quadrature(t, c, tol=tol)
        smooth = c.gamma * (math.factorial(n) * a)
        assert res.value == smooth
        # the weight, plus the smooth term's rounding
        assert res.error == whole + 5.0 * math.ulp(1.0) * smooth
        assert res.subdivisions == 0 and res.converged
        if c.phase_profile == "linear":
            assert abs(res.value - beta_closed(t, c)) <= res.error

    def test_small_dt_smooth_term_within_its_error(self):
        # from a rounded e^-2Dt, 1 - e^-2Dt put beta 5.6e-12 off at a reported
        # error of 1.1e-13; -expm1, and the smooth term's rounding in the error,
        # bring it within (the linear profile, forced through the quadrature)
        import mpmath as mp
        c = BathConfig(gamma=1.27, cutoff=0.30, diffusion=0.56, phase_lambda=0.0, ohmicity=8)
        t = 1e-3
        res = beta_quadrature(t, c, tol=1e-12)
        with mp.workdps(40):
            a = -mp.expm1(-2 * mp.mpf(c.diffusion) * t)
            y, k = 2 * mp.mpf(c.cutoff) * t, c.ohmicity + 1
            q = mp.cos(k * mp.atan(y)) / (1 + y * y) ** (mp.mpf(k) / 2)
            want = float(mp.mpf(c.gamma) * mp.factorial(c.ohmicity) * a * (1 + (1 - a) * q))
        assert abs(res.value - want) <= res.error
        beta, err, _ = beta_values(np.array([t]), c, 1e-12)
        assert abs(res.value - beta[0]) <= res.error + err[0]

    def test_zero_coupling_vanishes(self):
        for params in (FIG2, FIG3):
            res = beta_quadrature(2.0, cfg(params, gamma=0.0))
            assert res.value == 0.0 and res.error == 0.0 and res.converged
        curve = decoherence_factor(np.linspace(0.0, 5.0, 6),
                                   cfg(FIG3, gamma=0.0))
        assert np.all(curve.values == 1.0)

    @pytest.mark.parametrize("n", [1, 3, 10])
    @pytest.mark.parametrize("x", [0.5, 5.0, 50.0])
    def test_log_upper_gamma_matches_scipy(self, n, x):
        from scipy.special import gammaincc
        want = math.log(gammaincc(n + 1, x) * math.factorial(n))
        assert _log_upper_gamma(n, x) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 3, 170])
    @pytest.mark.parametrize("tol", [5e-324, 1e-300, 1e-10, 1.0, 1e300])
    def test_cutoff_search_bounded_and_smallest(self, n, tol):
        log_target = math.log(0.1) + math.log(tol)
        x = _tail_cutoff(n, log_target)
        assert math.isfinite(x) and x >= 1.0
        assert _log_upper_gamma(n, x) <= log_target + 1e-12 * abs(log_target)
        if x > 1.0:
            assert _log_upper_gamma(n, x * (1.0 - 1e-6)) > log_target

    def test_cutoff_follows_tolerance(self):
        # the old fixed cutoff was 60 Lambda; at tol 1e-10 the bound allows
        # about half that, and a tighter tolerance pushes it out
        c = cfg(FIG3)
        loose = beta_quadrature(5.0, c, tol=1e-6)
        tight = beta_quadrature(5.0, c, tol=1e-12)
        assert loose.subdivisions < tight.subdivisions
        scale = math.log(c.gamma) + math.log(-math.expm1(-4.0 * c.diffusion * 5.0))
        w = _tail_cutoff(1, math.log(1e-11) - scale)
        assert 20.0 < w < 40.0

    def test_short_cutoff_is_charged_to_the_error(self):
        # an explicit omega_max that leaves a large tail cannot pass as
        # converged: the bound on that tail is part of the error
        with pytest.raises(ConvergenceError) as exc_info:
            beta_quadrature(2.0, cfg(FIG3), omega_max=5.0)
        res = exc_info.value.result
        # x = W = 5 is past n + 2 sqrt(n) = 3 and the stationary point 1: the
        # two-term remainder G P / (4 r^3), G = gamma a x e^-x, r = 2 x - t = 8,
        # rho = 2 / r, q = 1 / x - 1, is below 2 g(W) / |phi'(W)| = G / r and
        # the Gamma bound, a = e^-0.4 - e^-0.8
        g = 3.0 * (math.exp(-0.4) - math.exp(-0.8)) * 5.0 * math.exp(-5.0)
        q, rho = 0.2 - 1.0, 0.25
        tail = g * (q * q - 1.0 / 25.0 - 3.0 * q * rho + 3.0 * rho * rho) / (4.0 * 8.0 ** 3)
        assert tail < g / 8.0 < 3.0 * (math.exp(-0.4) - math.exp(-0.8)) * math.exp(
            _log_upper_gamma(1, 5.0))
        assert res.error >= tail > 1e-5
        # the two terms it adds leave the value within that error
        assert abs(res.value - faddeeva_beta(2.0, cfg(FIG3))) <= res.error
        res = beta_quadrature(2.0, cfg(FIG3), omega_max=60.0)
        assert res.converged

    def test_largest_ohmicity_fails_cleanly(self):
        # beta ~ gamma n! overflows the integrand: a convergence failure,
        # not a bare ValueError
        with pytest.raises(ConvergenceError, match="non-finite"):
            beta_quadrature(0.5, cfg(FIG3, ohmicity=170))
        # the plateau exp(-gamma n!), reached by the linear closed form
        late = cfg(FIG3, phase_profile="linear", ohmicity=170)
        assert math.exp(-beta_closed(1e4, late)) == 0.0
        tiny = dataclasses.replace(late, gamma=1e-307)
        want = math.exp(-math.exp(math.log(1e-307) + math.lgamma(171)))
        assert math.exp(-beta_closed(1e4, tiny)) == pytest.approx(want, rel=1e-12)


    @pytest.mark.parametrize("cutoff,message", [
        (2e154, "non-finite value at x"),
        (1e200, "non-finite value at x"),
        (1e308, "upper must be finite and positive, got inf"),  # W past the largest double
    ])
    def test_huge_cutoff_is_not_a_nan_cutoff(self, cutoff, message):
        # cutoff^2 overflows past 1.34e154; the tail bound never forms it,
        # so the failure names the integrand or W, not a NaN upper limit
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(ConvergenceError, match=message):
                beta_quadrature(0.5, cfg(FIG3, cutoff=cutoff))


def faddeeva_beta(t, c):
    """beta(t) for the quadratic profile through w(z) = scipy's wofz.

    With x = w / cutoff, a = 2i lam cutoff^2 and b = 1 - 2i cutoff t,
    I_k = int_0^inf x^k exp(-a x^2 - b x) dx has
        I_0 = sqrt(pi) / (2 sqrt(a)) w(i b / (2 sqrt(a))),
        2a I_1 = 1 - b I_0,  2a I_{k+1} = k I_{k-1} - b I_k,
    and beta = gamma n! [(1 - e^-2Dt) + (e^-2Dt - e^-4Dt) Re I_n / n!].
    The forward recurrence holds to about 3e-13 of gamma n! for
    lam cutoff^2 >= 0.3 and n <= 10.
    """
    from scipy.special import wofz
    a = 2j * c.phase_lambda * c.cutoff ** 2
    b = 1.0 - 2j * c.cutoff * t
    root = np.sqrt(a)
    i = [math.sqrt(math.pi) / (2.0 * root) * wofz(1j * b / (2.0 * root))]
    i.append((1.0 - b * i[0]) / (2.0 * a))
    for k in range(1, c.ohmicity):
        i.append((k * i[k - 1] - b * i[k]) / (2.0 * a))
    e2 = math.exp(-2.0 * c.diffusion * t)
    nf = math.factorial(c.ohmicity)
    return c.gamma * nf * ((1.0 - e2) + (e2 - e2 * e2) * i[c.ohmicity].real / nf)


class TestQuadraticReference:
    """beta_quadrature on the quadratic profile against the Faddeeva form.

    The reference is rounded in double precision, so each comparison
    allows eps (1 + beta) beside the reported error, as the closed-form
    comparison above does; the truncated tail dominates that error.
    """

    @pytest.fixture(scope="class")
    def figure3(self):
        """Figure 3's quadratures on its grid, for both ohmicities, the
        beta_integrand points they took in all, and its calls (one per panel
        evaluation): one run serves every test."""
        points = []
        integrand = dephasing.beta_integrand
        ts = grid_array((0.0, 10.0, 0.02))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dephasing, "beta_integrand", lambda w, t, c: (
                points.append(len(w)) or integrand(w, t, c)))
            runs = {n: [(float(t), beta_quadrature(float(t), cfg(FIG3, ohmicity=n)))
                        for t in ts] for n in (1, 3)}
        return runs, sum(points), len(points)

    @staticmethod
    def assert_within_error(runs, c):
        for t, res in runs:
            want = faddeeva_beta(t, c)
            slack = np.finfo(float).eps * (1.0 + want)
            assert abs(res.value - want) <= res.error + slack, (c, t)

    @pytest.mark.parametrize("n", [1, 3])
    def test_figure3_within_reported_error(self, figure3, n):
        runs = figure3[0][n]
        assert len(runs) == 501
        self.assert_within_error(runs, cfg(FIG3, ohmicity=n))

    @pytest.mark.parametrize("params", [
        dict(gamma=0.5, cutoff=1.0, diffusion=0.5, phase_lambda=0.3, ohmicity=2),
        dict(gamma=1.0, cutoff=2.0, diffusion=0.05, phase_lambda=1.0, ohmicity=5),
        # gamma n! near 4: the tolerance is absolute
        dict(gamma=1e-6, cutoff=0.5, diffusion=1.0, phase_lambda=3.0, ohmicity=10),
        dict(gamma=1e-6, cutoff=1.0, diffusion=0.1, phase_lambda=0.5, ohmicity=10),
    ])
    def test_other_parameters_within_reported_error(self, params):
        c = cfg(FIG3, **params)
        ts = (0.05, 0.5, 1.3, 3.0, 7.5)
        self.assert_within_error([(t, beta_quadrature(t, c)) for t in ts], c)

    def test_figure3_point_budget(self, figure3):
        # the oscillating part alone, its tail taken to two integration-by-parts
        # terms, eight local periods per initial panel, split only where G20
        # and K41 disagree: 1.36 M points (1.84 M with three periods and
        # G10/K21, 2.69 M with the one-term tail bound, 3.58 M for the whole
        # bracket cut by its Gamma bound; 6.44 M with one period and G7/K15)
        assert figure3[1] <= 1_400_000
        # every call but the two at t = 0 converges on its initial partition
        assert figure3[2] <= 1_000

    def test_readme_quotes_the_figure3_point_count(self, figure3):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        quoted = re.search(r"Figure 3's 1,000 quadratures take\s+([\d,]+) integrand points",
                           readme)
        assert quoted, "README no longer quotes figure 3's integrand points"
        assert int(quoted.group(1).replace(",", "")) == figure3[1]
        evaluations = re.search(r"in\s+([\d,]+) panel evaluations", readme)
        assert evaluations, "README no longer quotes figure 3's panel evaluations"
        assert int(evaluations.group(1).replace(",", "")) == figure3[2]


class TestTailBound:
    """The tail bound _tail charges at beta_quadrature's cut-off W covers what
    its two integration-by-parts terms leave of the oscillating part's true
    tail: the distance of the terms from its integral over [W, W + 60 cutoff]
    at 40 digits, plus the Gamma bound past that."""

    @staticmethod
    def oscillating_integral(c, t, x_lo, x_hi):
        """gamma a int cos(phi) x^n e^-x dx over [x_lo, x_hi], x = w / cutoff.

        With A = 2i lam cutoff^2 (0 on the linear profile) and
        B = 1 - 2i cutoff (t - lam) (linear) or 1 - 2i cutoff t
        (quadratic), J_k(X) = int_X^inf x^k exp(-A x^2 - B x) dx is
        Gamma(k + 1, B X) / B^(k + 1) for A = 0, and otherwise
        J_0 = sqrt(pi) / (2 sqrt A) exp(B^2 / 4A) erfc(sqrt A X + B / (2 sqrt A)),
        2A J_{k+1} = k J_{k-1} - B J_k + X^k exp(-A X^2 - B X).
        """
        import mpmath as mp
        with mp.workdps(40):
            n = c.ohmicity
            quadratic = c.phase_profile == "quadratic"
            a = 2j * c.phase_lambda * c.cutoff ** 2 if quadratic else 0
            b = 1 - 2j * c.cutoff * (t if quadratic else t - c.phase_lambda)
            a, b = mp.mpc(a), mp.mpc(b)

            def j_n(x):
                x = mp.mpf(x)
                if not quadratic:
                    return mp.gammainc(n + 1, b * x) / b ** (n + 1)
                root = mp.sqrt(a)
                edge = mp.exp(-a * x * x - b * x)
                j = [mp.sqrt(mp.pi) / (2 * root) * mp.exp(b * b / (4 * a))
                     * mp.erfc(root * x + b / (2 * root))]
                j.append((edge - b * j[0]) / (2 * a))
                for k in range(1, n):
                    j.append((k * j[k - 1] - b * j[k] + x ** k * edge) / (2 * a))
                return j[n]

            d = mp.mpf(c.diffusion) * t
            amp = mp.exp(-2 * d) - mp.exp(-4 * d)
            return float(c.gamma * amp * mp.re(j_n(x_lo) - j_n(x_hi))), float(
                c.gamma * amp * mp.gammainc(n + 1, x_hi))

    @staticmethod
    def tail_at_cutoff(c, t, tol):
        """(W / cutoff, _tail's terms and charge at beta_quadrature's cut-off W, the
        Gamma bound at W).  phi' = 2 sign (s0 + s1 w) past the stationary point:
        s0 = |t - lam|, s1 = 0 on the linear profile, s0 = -t, s1 = 2 lam, sign -1
        on the quadratic one."""
        n, cut, lam = c.ohmicity, c.cutoff, c.phase_lambda
        a = -math.expm1(-2.0 * c.diffusion * t)
        log_scale = math.log(c.gamma) + math.log(math.exp(-2.0 * c.diffusion * t) * a)
        if c.phase_profile == "linear":
            s0, s1, sign = abs(t - lam), 0.0, math.copysign(1.0, t - lam)
        else:
            s0, s1, sign = -t, 2.0 * lam, -1.0
        x = _osc_cutoff(n, math.log(_TAIL_SHARE) + math.log(tol) - log_scale, s0, s1, cut)
        w = cut * x
        phase = 2.0 * (w * t + float(PhaseProfile(c)(w)))
        terms, log_charge = _tail(x, n, s0, s1, sign, cut, log_scale, phase)
        return x, terms, math.exp(log_charge), math.exp(log_scale + _log_upper_gamma(n, x))

    def assert_covered(self, t, c, tol):
        x, terms, charge, gamma_bound = self.tail_at_cutoff(c, t, tol)
        near, far = self.oscillating_integral(c, t, x, x + 60.0)
        # the two-term remainder is the bound charged, with its terms, and it holds
        assert terms != 0.0 and charge < gamma_bound
        assert abs(near - terms) + far <= charge, (t, near, terms, far, charge)

    @pytest.mark.parametrize("params,phase", [
        (FIG3, lambda x: 2 * (x * 2 - x * x)),  # t = 2, lam = cutoff = 1
        (FIG2, lambda x: 2 * x * (2 - 1)),
    ])
    def test_the_closed_form_matches_mpmath_quadrature(self, params, phase):
        import mpmath as mp
        c = cfg(params, ohmicity=3)
        near, _ = self.oscillating_integral(c, 2.0, 4.0, 7.0)
        d = 2.0 * c.diffusion * 2.0  # 2 D t
        with mp.workdps(30):
            want = c.gamma * (math.exp(-d) - math.exp(-2.0 * d)) * mp.quad(
                lambda x: x ** 3 * mp.exp(-x) * mp.cos(phase(x)), mp.linspace(4, 7, 31))
        assert near == pytest.approx(float(want), rel=1e-12)

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("t", [0.5, 2.0, 5.0, 10.0])
    def test_figure3_tail_is_covered(self, n, t):
        self.assert_covered(t, cfg(FIG3, ohmicity=n), 1e-10)

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("t", [0.5, 2.0, 5.0])
    def test_figure3_tail_is_covered_at_the_gp_inner_tol(self, n, t):
        # the GP takes beta at gamma = 1 and tol 1e-12 / gamma, gamma = 3 in figure 3
        self.assert_covered(t, cfg(FIG3, gamma=1.0, ohmicity=n), 1e-12 / 3.0)

    def test_linear_quadrature_tail_is_covered(self):
        # decoherence --method quadrature --tol 1e-8 at t = 2, the CLI defaults
        self.assert_covered(2.0, cfg(FIG2), 1e-8)

    @pytest.mark.parametrize("t", [1.0, 5.0])
    def test_linear_tail_is_covered_on_both_sides_of_the_delay(self, t):
        # lam = 3: phi' = 2 (t - lam) is negative at t = 1, and the h term turns
        self.assert_covered(t, cfg(FIG2, phase_lambda=3.0), 1e-8)

    @pytest.mark.parametrize("cutoff", [0.37, 3.0])
    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("t", [0.5, 2.0, 5.0])
    def test_quadratic_tail_is_covered_off_unit_cutoff(self, cutoff, n, t):
        self.assert_covered(t, cfg(FIG3, cutoff=cutoff, ohmicity=n), 1e-10)

    def test_linear_tail_is_covered_off_unit_cutoff(self):
        self.assert_covered(2.0, cfg(FIG2, cutoff=3.0), 1e-8)

    @pytest.mark.parametrize("profile", ["linear", "quadratic"])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_charge_meets_the_tail_share_at_the_cutoff(self, profile, n):
        # W is where the two-term or the Gamma bound meets tol / 10, and _tail
        # charges the smaller of the two, so no third bound is needed.  W is a
        # root of the log charge, which rounds within |log charge| eps < 1e-14
        for cutoff in (0.37, 1.0, 3.0):
            c = cfg(FIG3 if profile == "quadratic" else FIG2, ohmicity=n, cutoff=cutoff)
            for t in np.linspace(0.5, 10.0, 20):
                for tol in (1e-12, 1e-10, 1e-8, 1e-6):
                    charge = self.tail_at_cutoff(c, float(t), tol)[2]
                    assert charge <= _TAIL_SHARE * tol * (1.0 + 1e-13), (cutoff, t, tol, charge)


class TestDispatch:
    def test_auto_routes(self):
        ts = np.arange(0.0, 3.01, 0.5)
        assert decoherence_factor(ts, cfg(FIG2)).method == METHOD_CLOSED
        assert decoherence_factor(ts, cfg(FIG2, ohmicity=2)).method \
            == METHOD_CLOSED
        assert decoherence_factor(
            ts, cfg(FIG2, phase_profile="quadratic")).method == METHOD_QUADRATURE

    def test_routes_agree(self):
        ts = np.arange(0.0, 5.01, 0.25)
        closed = decoherence_factor(ts, cfg(FIG2))
        quad = decoherence_factor(ts, cfg(FIG2), method=METHOD_QUADRATURE)
        assert np.max(np.abs(closed.values - quad.values)) < 1e-9

    def test_forcing_closed_on_unsupported_raises(self):
        ts = np.arange(0.0, 1.01, 0.5)
        with pytest.raises(ValueError, match="closed form"):
            decoherence_factor(ts, cfg(FIG3), method=METHOD_CLOSED)
        with pytest.raises(ValueError, match="method"):
            decoherence_factor(ts, cfg(FIG2), method="simpson")

    def test_bad_grids_rejected(self):
        with pytest.raises(ValueError):
            decoherence_factor(np.array([-1.0, 0.0]), cfg(FIG2))
        with pytest.raises(ValueError):
            decoherence_factor(np.array([[0.0, 1.0]]), cfg(FIG2))

    @pytest.mark.parametrize("call,message", [
        (lambda: beta_quadrature(math.nan, cfg(FIG3)), "t must be >= 0, got nan"),
        (lambda: beta_values(np.array([0.0, math.nan]), cfg(FIG2), 1e-10),
         "times must be >= 0, got nan"),
        (lambda: beta_values(np.array([math.nan]), cfg(FIG3), 1e-10),
         "times must be >= 0, got nan"),
        (lambda: beta_quadrature(1.0, cfg(FIG3), omega_max=-1.0),
         "omega_max must be finite and positive, got -1.0"),
        (lambda: beta_quadrature(1.0, cfg(FIG3), omega_max=math.nan),
         "omega_max must be finite and positive, got nan"),
        (lambda: beta_quadrature(1.0, cfg(FIG3), omega_max=math.inf),
         "omega_max must be finite and positive, got inf"),
    ], ids=["quadrature t", "closed-form times", "quadrature times",
            "omega_max -1", "omega_max nan", "omega_max inf"])
    def test_nan_times_and_bad_cutoffs_are_named(self, call, message):
        # a NaN time is an input error on both routes, not a silent NaN
        # beta or a convergence failure
        with pytest.raises(ValueError) as exc_info:
            call()
        assert str(exc_info.value) == message

    @pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0, math.inf])
    @pytest.mark.parametrize("params", [FIG2, FIG3], ids=["closed-form", "quadrature"])
    def test_bad_tol_is_named_on_both_routes(self, params, tol):
        # the closed form formerly ignored tol and returned normally
        with pytest.raises(ValueError) as exc_info:
            decoherence_factor(np.array([0.0, 1.0]), cfg(params), tol=tol)
        assert str(exc_info.value) == f"tol must be finite and positive, got {tol}"

    def test_no_diffusion_means_no_decay(self):
        ts = np.arange(0.0, 10.01, 0.5)
        for method in (None, METHOD_QUADRATURE):
            curve = decoherence_factor(ts, cfg(FIG2, diffusion=0.0),
                                       method=method)
            assert np.max(np.abs(curve.values - 1.0)) < 1e-14


class TestAsymptotics:
    def test_plateau_values(self):
        # beta(inf) = gamma n!; e^(-2 D t) at t = 200 is ~e^-40
        c1 = cfg(FIG2)
        assert math.exp(-beta_closed(200.0, c1)) == pytest.approx(
            math.exp(-0.5), abs=1e-10)
        assert math.exp(-beta_closed(1e4, c1)) == math.exp(-c1.gamma * math.factorial(1))
        c3 = cfg(FIG1, ohmicity=3)
        got = math.exp(-beta_closed(200.0, c3))
        assert got == pytest.approx(math.exp(-18.0), rel=1e-8)
        assert math.exp(-beta_closed(1e4, c3)) == math.exp(-c3.gamma * math.factorial(3))

    def test_no_diffusion_plateau_is_one(self):
        assert math.exp(-beta_closed(1e4, cfg(FIG2, diffusion=0.0))) == 1.0


class TestFindDip:
    def test_weak_coupling_recoherence_dip(self):
        # the |F| minimum sits just after t = lam = 1: the curve's own
        # envelope keeps decaying through the recoherence window, which
        # pushes the minimum to ~1.07 on a 0.01 grid
        ts = np.arange(0.0, 10.001, 0.01)
        dip = find_dip(decoherence_factor(ts, cfg(FIG2)))
        assert dip is not None
        assert 1.05 <= dip.time <= 1.10
        assert dip.value == pytest.approx(0.8439, abs=5e-4)
        assert dip.prominence > 0.03

    def test_flat_curve_has_none(self):
        ts = np.arange(0.0, 5.001, 0.01)
        assert find_dip(decoherence_factor(ts, cfg(FIG2, gamma=0.0))) is None

    def test_monotone_curve_has_none(self):
        ts = np.linspace(0.0, 4.0, 41)
        curve = DecoherenceCurve(ts, np.exp(-ts), np.full(41, 1e-12), "test")
        assert find_dip(curve) is None

    def test_picks_deepest(self):
        ts = np.arange(5.0)
        vals = np.array([1.0, 0.8, 0.85, 0.6, 0.75])
        curve = DecoherenceCurve(ts, vals, np.full(5, 1e-9), "test")
        dip = find_dip(curve)
        assert dip.index == 3
        assert dip.prominence == pytest.approx(0.15)

    def test_wiggle_below_noise_floor_ignored(self):
        ts = np.arange(3.0)
        vals = np.array([1.0, 1.0 - 1e-6, 1.0])
        curve = DecoherenceCurve(ts, vals, np.full(3, 1e-3), "test")
        assert find_dip(curve) is None

    def test_quadratic_profile_has_richer_dip_structure(self):
        # chirped initial phases revive coherence repeatedly: at least
        # two prominent local minima instead of the single linear dip
        ts = np.arange(0.0, 6.001, 0.05)
        c = cfg(FIG1, diffusion=0.1, phase_profile="quadratic")
        curve = decoherence_factor(ts, c)
        assert curve.method == METHOD_QUADRATURE
        assert np.all((curve.values > 0.0) & (curve.values <= 1.0))
        v = curve.values
        mins = [i for i in range(1, len(v) - 1)
                if v[i] < v[i - 1] and v[i] < v[i + 1]]
        prominent = [i for i in mins
                     if min(v[:i + 1].max(), v[i:].max()) - v[i] > 0.01]
        assert len(prominent) >= 2

    @staticmethod
    def brute_force_dip(curve):
        """Every strict interior minimum scanned in order; the first of the largest wins."""
        v, best = curve.values, None
        for i in range(1, len(v) - 1):
            if not (v[i] < v[i - 1] and v[i] < v[i + 1]):
                continue
            prominence = min(v[: i + 1].max(), v[i:].max()) - v[i]
            if prominence <= 2.0 * curve.errors[i]:
                continue
            if best is None or prominence > best[1]:
                best = (i, prominence)
        return best

    # small integer levels make ties and plateaus common; a NaN error
    # (one MC trajectory) rejects nothing, an infinite one everything
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 4),
                              st.sampled_from([0.0, 0.2, 0.6, math.nan, math.inf])),
                    max_size=24))
    @example([(2, 0.0), (1, 0.0), (2, 0.0), (1, 0.0), (2, 0.0)])  # the first of equal dips
    def test_matches_a_scan_of_every_minimum(self, points):
        vals = np.array([v for v, _ in points], dtype=float)
        errs = np.array([e for _, e in points], dtype=float)
        curve = DecoherenceCurve(np.arange(len(vals), dtype=float), vals, errs, "test")
        dip, want = find_dip(curve), self.brute_force_dip(curve)
        if want is None:
            assert dip is None
        else:
            assert (dip.index, dip.prominence) == want
            assert (dip.time, dip.value) == (curve.times[want[0]], vals[want[0]])


class TestCurveValidation:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            DecoherenceCurve(np.arange(3.0), np.ones(2), np.ones(3), "test")

    def test_nonincreasing_times(self):
        with pytest.raises(ValueError):
            DecoherenceCurve(np.array([0.0, 2.0, 1.0]), np.ones(3),
                             np.zeros(3), "test")

    def test_nonfinite_values(self):
        with pytest.raises(ValueError):
            DecoherenceCurve(np.arange(3.0), np.array([1.0, math.nan, 1.0]),
                             np.zeros(3), "test")
