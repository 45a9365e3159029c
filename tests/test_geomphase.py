"""Geometric-phase battery.

Frozen reference numbers were produced with an independent integrator
(adaptive Gauss quadrature from scipy cross-checked against a dense
Simpson rule at 1e-15 agreement) evaluating the same defining integral,
so the package's own quadrature is never used to grade itself.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from neqbath.bath import BathConfig
from neqbath.dephasing import beta_values
from neqbath.geomphase import (
    LambdaSweepResult,
    bloch_angle,
    first_order_coefficient,
    first_order_correction,
    gamma_comparison,
    geometric_phase,
    gp_lambda_sweep,
    gp_surface,
    perturbative_correction,
    unitary_phase,
)
from neqbath.numerics import ConvergenceError, integrate_finite

FIG6 = dict(cutoff=1.0, diffusion=1.0, phase_lambda=1.0)


def cfg(gamma, ohmicity=1, **kw):
    base = dict(cutoff=1.0, diffusion=0.1, phase_lambda=1.0)
    base.update(kw)
    return BathConfig(gamma=gamma, ohmicity=ohmicity, **base)


class TestUnitaryPhase:
    def test_range(self):
        assert unitary_phase(0.0) == 2.0 * math.pi
        assert unitary_phase(math.pi) == 0.0
        for bad in (-0.1, math.pi + 0.1, math.nan):
            with pytest.raises(ValueError, match=r"theta0 must lie in \[0, pi\]"):
                unitary_phase(bad)


class TestBlochAngle:
    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(f=st.floats(0.0, 1.0), th=st.floats(0.0, math.pi))
    def test_unit_spinor(self, f, th):
        c, s = bloch_angle(f, th)
        assert abs(c * c + s * s - 1.0) < 1e-12
        assert s >= -1e-15

    def test_pure_state_reduces_to_half_angle(self):
        for th in np.linspace(0.0, math.pi, 17):
            c, s = bloch_angle(1.0, float(th))
            assert c == pytest.approx(math.cos(th / 2.0), abs=1e-12)
            assert s == pytest.approx(math.sin(th / 2.0), abs=1e-12)

    def test_poles(self):
        assert bloch_angle(0.7, 0.0) == (1.0, 0.0)
        c, s = bloch_angle(0.7, math.pi)
        assert (c, s) == pytest.approx((0.0, 1.0), abs=1e-15)

    def test_fully_dephased_branches(self):
        # eigenvector snaps to +z above the equator, to -z-ish (sin
        # branch) below; float cos(pi/2) = 6e-17 > 0, so the nominal
        # equator also resolves to +z
        assert bloch_angle(0.0, math.pi / 3.0) == (1.0, 0.0)
        c, s = bloch_angle(0.0, 2.0 * math.pi / 3.0)
        assert (c, s) == pytest.approx((0.0, 1.0), abs=1e-15)
        assert bloch_angle(0.0, math.pi / 2.0) == (1.0, 0.0)

    def test_domain_errors(self):
        for bad in (1.2, -0.01):
            with pytest.raises(ValueError, match="must lie in"):
                bloch_angle(bad, 0.5)

    def test_continuous_at_vanishing_factor(self):
        c, s = bloch_angle(1e-12, math.pi / 3.0)
        assert c == pytest.approx(1.0, abs=1e-9)
        c, s = bloch_angle(1e-12, 2.0 * math.pi / 3.0)
        assert s == pytest.approx(1.0, abs=1e-9)


class TestGeometricPhase:
    def test_no_coupling_recovers_unitary_phase(self):
        for th in np.linspace(0.0, math.pi, 9):
            res = geometric_phase(cfg(0.0), float(th))
            assert res.delta == 0.0
            assert res.phi_g == pytest.approx(math.pi * (1.0 + math.cos(th)),
                                              abs=1e-12)

    def test_no_diffusion_recovers_unitary_phase(self):
        res = geometric_phase(cfg(2.0, diffusion=0.0), 0.9)
        assert res.delta == 0.0 and res.phi_g == res.phi_u

    def test_polar_states_have_no_correction(self):
        for th, expect in ((0.0, 2.0 * math.pi), (math.pi, 0.0)):
            res = geometric_phase(cfg(1.5, **FIG6), th)
            assert res.delta == pytest.approx(0.0, abs=1e-10)
            assert res.phi_g == pytest.approx(expect, abs=1e-10)

    def test_accepts_state_object(self):
        # any real scalar is a state: a numpy float gives the same phase
        a = geometric_phase(cfg(0.5), 0.8)
        b = geometric_phase(cfg(0.5), np.float64(0.8))
        assert a == b

    def test_against_frozen_oracle(self):
        # independently computed: delta = 0.09381482355126985 for
        # gamma=0.2, D=0.1, lam=1, cutoff=1, ohmic, theta0=pi/4
        res = geometric_phase(cfg(0.2), math.pi / 4.0, tol=1e-10)
        assert res.delta == pytest.approx(0.09381482355126985, abs=2e-8)
        assert res.phi_u == pytest.approx(math.pi * (1.0 + math.sqrt(0.5)),
                                          rel=1e-15)

    def test_first_order_accuracy_at_moderate_coupling_is_poor(self):
        # the asymptotic coefficient overshoots by ~59% here; pinning
        # this documents the real radius of the first-order formula at
        # D = 0.1 rather than pretending it tracks closely
        res = geometric_phase(cfg(0.2), math.pi / 4.0, tol=1e-10)
        pred = perturbative_correction(cfg(0.2), math.pi / 4.0)
        assert pred == pytest.approx(0.22793344758259243, rel=1e-12)
        # fraction of the predicted correction that is wrong: 0.5884
        ratio = abs(pred - res.delta) / abs(pred)
        assert 0.55 < ratio < 0.65

    def test_small_gamma_shape_and_coefficient(self):
        # delta / (gamma sin^2 cos) must be flat in theta0 at gamma =
        # 1e-4, and the fitted constant is the cycle integral of
        # beta/gamma over two: 2.916017 (ohmic) / 17.336514 (supra),
        # both from the independent oracle
        for n, c_ref in ((1, 2.916017), (3, 17.336514)):
            ths = np.linspace(math.pi / 16.0, math.pi * 7.0 / 16.0, 7)
            vals = []
            for th in ths:
                res = geometric_phase(cfg(1e-4, ohmicity=n, **FIG6),
                                      float(th), tol=1e-12)
                vals.append(res.delta / (1e-4 * math.sin(th) ** 2
                                         * math.cos(th)))
            vals = np.array(vals)
            c_fit = float(vals.mean())
            assert float(np.max(np.abs(vals - c_fit))) / c_fit < 0.01
            assert c_fit == pytest.approx(c_ref, rel=2e-3)


class TestPerturbativeCorrection:
    def test_equator_and_zero_coupling_vanish(self):
        assert perturbative_correction(cfg(0.5), math.pi / 2.0) \
            == pytest.approx(0.0, abs=1e-16)
        assert perturbative_correction(cfg(0.0), 0.7) == 0.0

    def test_frozen_value(self):
        # 0.01 (pi + 0.1 e^-0.2) sin^2(pi/4) cos(pi/4)
        got = perturbative_correction(cfg(0.01), math.pi / 4.0)
        assert got == pytest.approx(0.011396672379129622, rel=1e-12)

    def test_unsupported_ohmicity(self):
        with pytest.raises(ValueError, match="ohmicity"):
            perturbative_correction(cfg(0.5, ohmicity=2), 0.5)

    def test_large_delay_limit(self):
        # e^(-2 D lam) term dies; pi sin^2 cos survives
        got = perturbative_correction(cfg(0.5, phase_lambda=200.0), 0.7)
        want = 0.5 * math.pi * math.sin(0.7) ** 2 * math.cos(0.7)
        assert got == pytest.approx(want, rel=1e-12)

    def test_lower_hemisphere_sign(self):
        assert perturbative_correction(cfg(0.5), 2.5) < 0.0

    @pytest.mark.parametrize("n", [1, 3])
    def test_extreme_cutoffs_do_not_raise(self, n):
        # cutoff**2 used to overflow (OverflowError) or underflow to 0
        # (ZeroDivisionError); the D / cutoff^2 term just vanishes or grows
        want = 0.5 * math.pi * (6.0 if n == 3 else 1.0) \
            * math.sin(0.7) ** 2 * math.cos(0.7)
        got = perturbative_correction(cfg(0.5, n, cutoff=1e200), 0.7)
        assert got == pytest.approx(want, rel=1e-12)
        assert perturbative_correction(cfg(0.5, n, cutoff=1e-200), 0.7) == math.inf


class TestFirstOrderCoefficient:
    def test_matches_oracle(self):
        # the independent-oracle slopes of test_small_gamma_shape_and_coefficient
        for n, c_ref in ((1, 2.916017), (3, 17.336514)):
            got = first_order_coefficient(cfg(1.0, ohmicity=n, **FIG6))
            assert got == pytest.approx(c_ref, abs=1e-6)

    def test_independent_of_gamma(self):
        a = first_order_coefficient(cfg(0.01, **FIG6))
        b = first_order_coefficient(cfg(2.0, **FIG6))
        assert a == b

    def test_paper_coefficient_is_its_large_diffusion_limit(self):
        # the paper's C_n lies 11% (n = 1) / 8% (n = 3) above the exact
        # slope at D = Omega = 1 and meets it as D / Omega grows
        for n, ratio_at_1 in ((1, 0.88986), (3, 0.91808)):
            for d, want, tol in ((1.0, ratio_at_1, 1e-5), (100.0, 1.0, 1e-3)):
                c = cfg(1.0, ohmicity=n, cutoff=1.0, diffusion=d,
                        phase_lambda=1.0)
                paper = perturbative_correction(c, math.pi / 4.0) \
                    / (math.sin(math.pi / 4.0) ** 2 * math.cos(math.pi / 4.0))
                assert first_order_coefficient(c) / paper \
                    == pytest.approx(want, abs=tol)

    def test_is_linear_term_on_quadrature_route(self):
        # ohmicity 2 has no closed form and no tabulated paper coefficient
        c = cfg(1e-4, ohmicity=2, **FIG6)
        exact = geometric_phase(c, math.pi / 4.0, tol=1e-13).delta
        assert first_order_correction(c, math.pi / 4.0) \
            == pytest.approx(exact, rel=1e-3)

    def test_equator_and_zero_coupling_vanish(self):
        assert first_order_correction(cfg(0.5), math.pi / 2.0) \
            == pytest.approx(0.0, abs=1e-16)
        assert first_order_correction(cfg(0.0), 0.7) == 0.0
        assert first_order_correction(cfg(0.5), 2.5) < 0.0


class TestSurface:
    def test_layout_and_edges(self):
        th = np.array([0.0, math.pi / 4.0, math.pi])
        ga = np.array([0.0, 0.5])
        surf = gp_surface(cfg(1.0), th, ga)
        assert surf.ratio.shape == (3, 2)
        # gamma = 0 column and polar rows carry no degradation
        assert np.all(surf.delta_abs[:, 0] == 0.0)
        assert surf.delta_abs[0, 1] == pytest.approx(0.0, abs=1e-10)
        assert surf.delta_abs[2, 1] == pytest.approx(0.0, abs=1e-10)
        # theta0 = pi has phi_u = 0: ratio undefined
        assert math.isnan(surf.ratio[2, 0]) and math.isnan(surf.ratio[2, 1])
        assert surf.ratio[1, 1] > 0.0

    def test_supraohmic_surface_is_rougher(self):
        # total variation across theta0 at gamma = 0.5: the supraohmic
        # correction swings harder than the ohmic one
        th = np.linspace(math.pi / 8.0, math.pi * 7.0 / 8.0, 7)
        ga = np.array([0.5])
        tv = {}
        for n in (1, 3):
            surf = gp_surface(cfg(1.0, ohmicity=n), th, ga)
            tv[n] = float(np.sum(np.abs(np.diff(surf.ratio[:, 0]))))
        assert tv[3] > tv[1]

    def test_degradation_grows_with_gamma_at_quarter_polar(self):
        th = np.array([math.pi / 4.0])
        ga = np.linspace(0.0, 1.0, 6)
        surf = gp_surface(cfg(1.0), th, ga)
        assert np.all(np.diff(surf.delta_abs[0]) > 0.0)


def per_point_delta(config, theta0, tol=1e-9):
    """(delta, error) of one point by the per-point cycle integral that
    gp_surface ran before it batched the couplings (frozen copy)."""
    if config.gamma == 0.0 or config.diffusion == 0.0:
        return 0.0, 0.0
    base = math.cos(0.5 * theta0) ** 2

    def integrand(ts):
        cosp, _ = bloch_angle(np.exp(-beta_values(ts, config, 1e-12)[0]), theta0)
        return config.omega * (cosp * cosp - base)

    res = integrate_finite(integrand, 0.0, 2.0 * math.pi / config.omega, tol=tol)
    assert res.converged
    return res.value, res.error


class TestSurfaceAgainstPerPointLoop:
    """gp_surface integrates a whole gamma row at once; each point must
    agree with its own cycle integral within the sum of both errors (the
    row's error is at most tol, or gp_surface raises)."""

    TOL = 1e-9

    def check(self, config, th, ga):
        surf = gp_surface(config, th, ga, tol=self.TOL)
        for i, t0 in enumerate(th):
            for j, g in enumerate(ga):
                want, err = per_point_delta(
                    dataclasses.replace(config, gamma=float(g)), float(t0))
                assert abs(surf.delta_abs[i, j] - abs(want)) <= self.TOL + err, (t0, g)
        return surf

    @pytest.mark.parametrize("n", [1, 3])
    def test_closed_form_route(self, n):
        th = np.linspace(0.0, math.pi, 9)
        ga = np.arange(0.0, 2.01, 0.25)
        surf = self.check(cfg(1.0, ohmicity=n, **FIG6), th, ga)
        assert np.all(surf.delta_abs[:, 0] == 0.0)
        assert np.all(np.isnan(surf.ratio[-1]))
        assert np.all(np.isfinite(surf.ratio[:-1]))

    def test_quadrature_route(self):
        th = np.array([0.25, 0.5, 0.75, 1.0]) * math.pi
        ga = np.array([0.0, 0.5, 1.0])
        surf = self.check(cfg(1.0, phase_profile="quadratic"), th, ga)
        assert np.all(surf.delta_abs[:, 0] == 0.0)
        assert np.all(np.isnan(surf.ratio[-1]))

    def test_one_coupling_is_bitwise_the_per_point_integral(self):
        # on the closed form gamma * (beta at gamma = 1) is beta to the bit,
        # so geometric_phase (gp --mode point) keeps its bytes
        for n, t0 in ((1, 0.3), (3, math.pi / 2.0), (3, 2.5)):
            c = cfg(0.7, ohmicity=n)
            res = geometric_phase(c, t0)
            assert (res.delta, res.tol) == per_point_delta(c, t0)
            assert gp_surface(c, [t0], [0.7]).delta_abs[0, 0] == abs(res.delta)

    def test_zero_coupling_and_zero_diffusion_are_exactly_zero(self):
        surf = gp_surface(cfg(1.0, diffusion=0.0), [0.4, 1.2], [0.0, 0.5, 2.0])
        assert np.all(surf.delta_abs == 0.0)
        _, exact, _ = gamma_comparison(cfg(1.0), 0.4, [0.0, 0.0])
        assert np.all(exact == unitary_phase(0.4))

    def test_bad_couplings_raise(self):
        for ga in ([0.5, -0.1], [0.5, math.inf], [math.nan]):
            with pytest.raises(ValueError, match="gamma"):
                gp_surface(cfg(1.0), [0.5], ga)

    def test_convergence_error_reaches_the_caller(self):
        with pytest.raises(ConvergenceError, match="geometric-phase") as info:
            gp_surface(cfg(1.0), [0.5], [0.5, 1.0], tol=1e-30)
        assert info.value.result.error.shape == (2,)
        with pytest.raises(ConvergenceError):
            gamma_comparison(cfg(1.0), 0.5, [0.5, 1.0], tol=1e-30)


class TestLambdaSweep:
    def sweep(self):
        config = BathConfig(gamma=3.0, cutoff=1.0, diffusion=0.1,
                            phase_lambda=1.0, ohmicity=1)
        th = [math.pi / 4.0]
        lams = np.arange(0.0, 5.01, 0.25)
        return gp_lambda_sweep(config, th, lams)

    def test_frozen_endpoints_and_bump(self):
        sweep = self.sweep()
        row = sweep.delta_abs[0]
        # oracle values: 0.719029 at lam=0, peak 0.736039 at lam=1
        assert row[0] == pytest.approx(0.719029, abs=1e-4)
        assert row[4] == pytest.approx(0.736039, abs=1e-4)
        assert row[4] > row[0]

    def test_reports_nonmonotonicity_honestly(self):
        sweep = self.sweep()
        assert isinstance(sweep, LambdaSweepResult)
        assert not sweep.monotone[0]
        assert sweep.max_increase[0] > 1e-3

    def test_sweep_keeps_the_config_profile(self):
        # each cell is geometric_phase at that delay on the given profile
        config = cfg(3.0, phase_profile="quadratic")
        sweep = gp_lambda_sweep(config, [0.7], [0.0, 0.5])
        want = geometric_phase(dataclasses.replace(config, phase_lambda=0.5), 0.7)
        assert sweep.delta_abs[0, 1] == abs(want.delta)

    def test_bad_lambda_grid(self):
        with pytest.raises(ValueError):
            gp_lambda_sweep(cfg(1.0), [0.5], [1.0, 0.5])


class TestGammaComparison:
    def test_columns_are_consistent(self):
        ga = np.array([0.0, 0.1, 0.2])
        got_g, exact, pred = gamma_comparison(cfg(1.0, **FIG6),
                                              math.pi / 4.0, ga)
        assert np.array_equal(got_g, ga)
        # gamma = 0 rows collapse to phi_u on both columns
        phi_u = unitary_phase(math.pi / 4.0)
        assert exact[0] == pytest.approx(phi_u, abs=1e-12)
        assert pred[0] == pytest.approx(phi_u, abs=1e-12)
        # prediction column is phi_u + the first-order formula
        want = phi_u + perturbative_correction(cfg(0.2, **FIG6), math.pi / 4.0)
        assert pred[2] == pytest.approx(want, rel=1e-14)
        # exact column matches a direct evaluation
        direct = geometric_phase(cfg(0.2, **FIG6), math.pi / 4.0)
        assert exact[2] == pytest.approx(direct.phi_g, abs=1e-9)
