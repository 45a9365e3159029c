"""Decoherence-factor battery.

The closed forms were derived by hand from Laplace-transform identities;
here they are cross-checked against the independent adaptive quadrature
route, against symbolic special points, and against the long-time limit.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from neqbath.bath import BathConfig
from neqbath.dephasing import (
    METHOD_CLOSED,
    METHOD_QUADRATURE,
    DecoherenceCurve,
    _log_upper_gamma,
    _oscillation_controls,
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
                res = beta_quadrature(float(t), c)
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
        # at w = t = lam = cutoff = 1 the cosine argument vanishes:
        # 1/4 * 4 gamma e^-1 * (1 - e^(-4 D))
        c = cfg(FIG2)
        expected = c.gamma * math.exp(-1.0) * (1.0 - math.exp(-0.4))
        assert beta_integrand(1.0, 1.0, c) == pytest.approx(expected, rel=1e-14)

    def test_vanishes_at_zero_frequency(self):
        assert beta_integrand(0.0, 2.0, cfg(FIG1)) == 0.0

    def test_vectorized(self):
        w = np.linspace(0.0, 10.0, 11)
        vals = beta_integrand(w, 1.5, cfg(FIG2))
        assert vals.shape == w.shape
        assert np.all(np.isfinite(vals))


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
        w0 = max(min(upper / 64.0, hint / 2.0 if hint else upper), floor)
        edges = [0.0]
        while edges[-1] < upper:
            w = max(min(w0, cap(edges[-1])), floor)
            edges.append(min(edges[-1] + w, upper))
        return np.array(edges)

    @pytest.mark.parametrize("upper", [30.0, 300.0])
    @pytest.mark.parametrize("lam", [0.0, 1.0, 5.0])
    @pytest.mark.parametrize("t", [0.02, 0.5, 3.0, 10.0])
    def test_initial_grid_meets_width_rule(self, t, lam, upper):
        c = cfg(FIG3, phase_lambda=lam)
        hint, chirp = _oscillation_controls(t, c)
        edges = _initial_edges(upper, hint, chirp)
        widths = np.diff(edges)
        floor = upper / 8192.0
        w0 = max(min(upper / 64.0, hint / 2.0), floor)
        cap = math.pi / (2.0 * (t + 2.0 * lam * edges[:-1]))
        assert edges[0] == 0.0 and edges[-1] == upper
        assert np.all(widths > 0.0)
        assert np.all(widths <= w0 * (1.0 + 1e-12))
        # past the point where the cap falls below the floor, the floor rules
        assert np.all(widths <= np.maximum(cap, floor) * (1.0 + 1e-12))
        greedy = self.greedy_edges(
            upper, hint, lambda a: math.pi / (2.0 * (t + 2.0 * lam * a)))
        assert len(edges) <= 1.05 * len(greedy) + 3

    def test_linear_grid_is_uniform_below_half_period(self):
        hint, chirp = _oscillation_controls(3.0, cfg(FIG2))
        assert chirp == 0.0
        widths = np.diff(_initial_edges(40.0, hint, chirp))
        assert np.all(widths <= hint / 2.0 * (1.0 + 1e-12))
        assert np.allclose(widths[:-1], widths[0])

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
        scale = math.log(3.0) + math.log(-math.expm1(-0.8))
        tail = math.exp(scale + _log_upper_gamma(1, 5.0))
        assert res.error >= tail > 1e-2
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
