"""Geometric-phase battery.

Frozen reference numbers were produced with an independent integrator
(adaptive Gauss quadrature from scipy cross-checked against a dense
Simpson rule at 1e-15 agreement) evaluating the same defining integral,
so the package's own quadrature is never used to grade itself.
"""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from neqbath import cli, geomphase
from neqbath.bath import BathConfig
from neqbath.dephasing import beta_values
from neqbath.geomphase import (
    LambdaSweepResult,
    bloch_angle,
    cycle_corrections,
    first_order_coefficient,
    first_order_correction,
    geometric_phase,
    gp_lambda_sweep,
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
        # theta_+ lies in [0, pi/2], and cos(2 theta_+) is the Bloch vector's
        # z component over its length
        c = bloch_angle(f, th)
        assert 0.0 <= c <= 1.0
        r = math.hypot(math.sin(th) * f, math.cos(th))
        assert abs(2.0 * c * c - 1.0 - math.cos(th) / r) < 1e-12

    def test_pure_state_reduces_to_half_angle(self):
        for th in np.linspace(0.0, math.pi, 17):
            c = bloch_angle(1.0, float(th))
            assert c == pytest.approx(math.cos(th / 2.0), abs=1e-12)

    def test_poles(self):
        assert bloch_angle(0.7, 0.0) == 1.0
        assert bloch_angle(0.7, math.pi) == pytest.approx(0.0, abs=1e-15)

    def test_fully_dephased_branches(self):
        # eigenvector snaps to +z above the equator, to -z below; float
        # cos(pi/2) = 6e-17 > 0, so the nominal equator also resolves to +z
        assert bloch_angle(0.0, math.pi / 3.0) == 1.0
        below = bloch_angle(0.0, 2.0 * math.pi / 3.0)
        assert below == pytest.approx(0.0, abs=1e-15)
        # sin(theta0) * -0.0 is -0.0, which atan2 takes to -pi: the
        # half-angle -pi/2 has the same cosine, bit for bit
        assert bloch_angle(-0.0, 2.0 * math.pi / 3.0) == below
        assert bloch_angle(0.0, math.pi / 2.0) == 1.0

    def test_domain_errors(self):
        for bad in (1.2, -0.01):
            with pytest.raises(ValueError, match="must lie in"):
                bloch_angle(bad, 0.5)

    def test_continuous_at_vanishing_factor(self):
        assert bloch_angle(1e-12, math.pi / 3.0) == pytest.approx(1.0, abs=1e-9)
        assert bloch_angle(1e-12, 2.0 * math.pi / 3.0) == pytest.approx(0.0, abs=1e-9)

    def test_array_of_states_is_bitwise_the_scalar_calls(self):
        th = np.array([0.0, 1e-300, 0.4, math.pi / 2.0, 2.0, math.pi - 1e-8, math.pi])
        f = np.array([[0.0], [1e-12], [0.3], [1.0 - 1e-15], [1.0]])
        c = bloch_angle(f, th)
        assert c.shape == (len(f), len(th))
        for j, t0 in enumerate(th):
            assert np.array_equal(c[:, j], bloch_angle(f[:, 0], float(t0)))

    def test_against_eigenvector_at_40_digits(self):
        # the + eigenvector of the density matrix, from mpmath's symmetric
        # eigensolver, with theta0 and F read as the exact doubles given
        import mpmath as mp
        rng = np.random.default_rng(19)
        ths = [0.0, 1e-300, math.pi / 2.0, math.pi - 1e-8, math.pi,
               *rng.uniform(0.0, math.pi, 3)]
        fs = [0.0, 1e-12, 1.0 - 1e-15, 1.0, *rng.uniform(0.0, 1.0, 3)]
        c = bloch_angle(np.array(fs)[:, None], np.array(ths))
        with mp.workdps(40):
            for j, t0 in enumerate(ths):
                for i, f in enumerate(fs):
                    half = mp.mpf(t0) / 2
                    off = mp.mpf(f) * mp.sin(half) * mp.cos(half)
                    rho = mp.matrix([[mp.cos(half) ** 2, off], [off, mp.sin(half) ** 2]])
                    vals, vecs = mp.eigsy(rho)
                    k = 0 if vals[0] > vals[1] else 1
                    # off >= 0: the + eigenvector has components of one sign
                    want = abs(vecs[0, k])
                    assert abs(c[i, j] - want) <= 4 * np.finfo(float).eps, (t0, f)


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

    def test_nan_tolerance_rejected(self):
        # formerly 0.4 s of refinement, then "stalled at error 3.597e-17"
        with pytest.raises(ValueError, match="tol must be positive, got nan"):
            geometric_phase(cfg(0.5), 0.7, tol=math.nan)
        # no live coupling (gamma = 0, or D = 0) means no integral to check
        # tol: formerly every entry point then returned delta = 0
        for c in (cfg(0.0), cfg(0.5, diffusion=0.0)):
            for bad in (math.nan, -1.0, 0.0):
                match = f"tol must be positive, got {bad}"
                with pytest.raises(ValueError, match=match):
                    geometric_phase(c, 0.7, tol=bad)
                with pytest.raises(ValueError, match=match):
                    cycle_corrections(c, [0.7], [c.gamma], tol=bad)

    @pytest.mark.parametrize("profile", ["linear", "quadratic"])
    def test_subnormal_coupling_keeps_the_inner_tol_finite(self, profile):
        # 1e-12 / 5e-324 overflows; beta_values refuses an infinite tol
        res = geometric_phase(cfg(5e-324, phase_profile=profile), 0.7)
        assert res.delta == 0.0 and res.phi_g == res.phi_u

    def test_array_of_states_shares_one_integral(self):
        th = np.array([0.0, 0.3, math.pi / 2.0, 2.5, math.pi])
        for c in (cfg(0.7), cfg(0.7, ohmicity=3, **FIG6)):
            res = geometric_phase(c, th, tol=1e-9)
            assert all(isinstance(f, np.ndarray) and f.shape == th.shape
                       for f in (res.phi_g, res.phi_u, res.delta, res.tol))
            for i, t0 in enumerate(th):
                one = geometric_phase(c, float(t0), tol=1e-9)
                assert abs(res.delta[i] - one.delta) <= 1e-9 + one.tol
                assert res.phi_u[i] == one.phi_u

    def test_one_element_array_is_bitwise_the_scalar_call(self):
        for c in (cfg(0.7), cfg(1.0, phase_profile="quadratic")):
            one = geometric_phase(c, np.array([0.9]))
            scalar = geometric_phase(c, 0.9)
            assert all(type(f) is float for f in dataclasses.astuple(scalar))
            assert dataclasses.astuple(scalar) == tuple(
                f[0] for f in dataclasses.astuple(one))

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
        delta, err = cycle_corrections(cfg(1.0), th, ga)
        assert delta.shape == err.shape == (3, 2)
        # gamma = 0 column and polar rows carry no degradation
        assert np.all(delta[:, 0] == 0.0)
        assert delta[0, 1] == pytest.approx(0.0, abs=1e-10)
        assert delta[2, 1] == pytest.approx(0.0, abs=1e-10)
        assert delta[1, 1] > 0.0

    def test_supraohmic_surface_is_rougher(self):
        # total variation across theta0 at gamma = 0.5: the supraohmic
        # correction swings harder than the ohmic one
        th = np.linspace(math.pi / 8.0, math.pi * 7.0 / 8.0, 7)
        ga = np.array([0.5])
        tv = {}
        for n in (1, 3):
            ratio = np.abs(cycle_corrections(cfg(1.0, ohmicity=n), th, ga)[0][:, 0]) \
                / unitary_phase(th)
            tv[n] = float(np.sum(np.abs(np.diff(ratio))))
        assert tv[3] > tv[1]

    def test_degradation_grows_with_gamma_at_quarter_polar(self):
        th = np.array([math.pi / 4.0])
        ga = np.linspace(0.0, 1.0, 6)
        delta = cycle_corrections(cfg(1.0), th, ga)[0]
        assert np.all(np.diff(np.abs(delta[0])) > 0.0)


def per_point_delta(config, theta0, tol=1e-9):
    """(delta, error) of one point by the per-point cycle integral that the
    surface ran before it batched the couplings (frozen copy)."""
    if config.gamma == 0.0 or config.diffusion == 0.0:
        return 0.0, 0.0
    base = math.cos(0.5 * theta0) ** 2

    def integrand(ts):
        cosp = bloch_angle(np.exp(-beta_values(ts, config, 1e-12)[0]), theta0)
        return cosp * cosp - base

    res = integrate_finite(integrand, 0.0, 2.0 * math.pi, tol=tol)
    assert res.converged
    return res.value, res.error


class TestSurfaceAgainstPerPointLoop:
    """cycle_corrections integrates a whole gamma row at once; each point
    must agree with its own cycle integral within the sum of both errors
    (the row's error is at most tol, or cycle_corrections raises)."""

    TOL = 1e-9

    def check(self, config, th, ga):
        delta = cycle_corrections(config, th, ga, tol=self.TOL)[0]
        for i, t0 in enumerate(th):
            for j, g in enumerate(ga):
                want, err = per_point_delta(
                    dataclasses.replace(config, gamma=float(g)), float(t0))
                assert abs(delta[i, j] - want) <= self.TOL + err, (t0, g)
        return delta

    @pytest.mark.parametrize("n", [1, 3])
    def test_closed_form_route(self, n):
        th = np.linspace(0.0, math.pi, 9)
        ga = np.arange(0.0, 2.01, 0.25)
        delta = self.check(cfg(1.0, ohmicity=n, **FIG6), th, ga)
        assert np.all(delta[:, 0] == 0.0)
        # the polar rows carry no correction
        assert np.all(np.abs(delta[[0, -1]]) <= self.TOL)

    def test_quadrature_route(self):
        th = np.array([0.25, 0.5, 0.75, 1.0]) * math.pi
        ga = np.array([0.0, 0.5, 1.0])
        delta = self.check(cfg(1.0, phase_profile="quadratic"), th, ga)
        assert np.all(delta[:, 0] == 0.0)
        assert np.all(np.abs(delta[-1]) <= self.TOL)

    def test_one_coupling_is_bitwise_the_per_point_integral(self):
        # on the closed form gamma * (beta at gamma = 1) is beta to the bit,
        # so geometric_phase (gp --mode point) keeps its bytes
        for n, t0 in ((1, 0.3), (3, math.pi / 2.0), (3, 2.5)):
            c = cfg(0.7, ohmicity=n)
            res = geometric_phase(c, t0)
            assert (res.delta, res.tol) == per_point_delta(c, t0)
            assert cycle_corrections(c, [t0], [0.7])[0][0, 0] == res.delta

    def test_zero_coupling_and_zero_diffusion_are_exactly_zero(self):
        delta, err = cycle_corrections(cfg(1.0, diffusion=0.0), [0.4, 1.2], [0.0, 0.5, 2.0])
        assert np.all(delta == 0.0) and np.all(err == 0.0)
        assert np.all(cycle_corrections(cfg(1.0), [0.4], [0.0, 0.0])[0] == 0.0)

    def test_bad_couplings_raise(self):
        for ga in ([0.5, -0.1], [0.5, math.inf], [math.nan]):
            with pytest.raises(ValueError, match="gamma"):
                cycle_corrections(cfg(1.0), [0.5], ga)

    def test_convergence_error_reaches_the_caller(self):
        with pytest.raises(ConvergenceError, match="geometric-phase") as info:
            cycle_corrections(cfg(1.0), [0.5], [0.5, 1.0], tol=1e-30)
        assert info.value.result.error.shape == (2,)


def count_cycle_integrals(monkeypatch):
    """List that gains the component count of each cycle integral geomphase runs."""
    calls = []

    def counted(*args, **kwargs):
        res = integrate_finite(*args, **kwargs)
        calls.append(np.size(res.value))
        return res

    monkeypatch.setattr(geomphase, "integrate_finite", counted)
    return calls


class TestOneIntegralPerTable:
    """beta does not depend on theta0: a whole (theta0, gamma) table is one
    cycle integral, cut only where it exceeds _COMPONENTS components."""

    def test_surface_is_one_integral(self, monkeypatch):
        calls = count_cycle_integrals(monkeypatch)
        delta = cycle_corrections(cfg(1.0), np.linspace(0.0, math.pi, 33),
                                  np.arange(0.0, 2.01, 0.1))[0]
        assert delta.shape == (33, 21)
        assert len(calls) == 1

    def test_lambda_sweep_is_one_integral_per_delay(self, monkeypatch):
        calls = count_cycle_integrals(monkeypatch)
        sweep = gp_lambda_sweep(cfg(3.0), [math.pi / 8.0, math.pi / 4.0, math.pi / 3.0],
                                np.arange(0.0, 5.01, 0.25))
        assert sweep.delta_abs.shape == (3, 21)
        assert len(calls) == 21

    @pytest.mark.parametrize("budget,integrals", [(6, 3), (2, 8)])
    def test_component_budget_cuts_live_pairs(self, monkeypatch, budget, integrals):
        # 5 rows of 3 live couplings, 15 pairs: 6 + 6 + 3 at 6, 7 x 2 + 1 at 2
        th = np.linspace(0.2, 2.8, 5)
        ga = np.array([0.0, 0.5, 1.0, 2.0])
        tol = 1e-9
        whole = cycle_corrections(cfg(1.0, ohmicity=3), th, ga, tol=tol)[0]
        monkeypatch.setattr(geomphase, "_COMPONENTS", budget)
        calls = count_cycle_integrals(monkeypatch)
        cut = cycle_corrections(cfg(1.0, ohmicity=3), th, ga, tol=tol)[0]
        assert len(calls) == integrals
        assert np.all(np.abs(cut - whole) <= 2.0 * tol)
        assert np.all(cut[:, 0] == 0.0)

    def test_component_budget_cuts_inside_a_row(self, monkeypatch):
        # one theta0 with 7 live couplings: 3 + 3 + 1, not one 7-component integral
        ga = np.linspace(0.0, 2.1, 8)
        tol = 1e-9
        whole = cycle_corrections(cfg(1.0), [math.pi / 4.0], ga, tol=tol)[0]
        monkeypatch.setattr(geomphase, "_COMPONENTS", 3)
        calls = count_cycle_integrals(monkeypatch)
        cut = cycle_corrections(cfg(1.0), [math.pi / 4.0], ga, tol=tol)[0]
        assert calls == [3, 3, 1]
        assert np.all(np.abs(cut - whole) <= 2.0 * tol)

    def test_memory_does_not_grow_with_the_couplings(self):
        # 10 x the couplings of one theta0 is 10 x the integrals, not 10 x the nodes held
        def peak(n):
            tracemalloc.start()
            try:
                cycle_corrections(cfg(1.0), [math.pi / 4.0], np.linspace(0.0, 1.0, n))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(20_001) <= 1.5 * peak(2_001)


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
    def test_columns_are_consistent(self, tmp_path):
        # gp --mode gamma at the defaults theta0 = pi/4, cutoff 1, lambda 1
        out = tmp_path / "gamma.json"
        assert cli.main(["gp", "--mode", "gamma", "--diffusion", "1", "--gamma-grid",
                         "0:0.2:0.1", "--json", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["columns"] == ["gamma", "phi_g", "phi_g_pred"]
        ga, exact, pred = np.array(doc["rows"]).T
        assert list(ga) == [0.0, 0.1, 0.2]
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
