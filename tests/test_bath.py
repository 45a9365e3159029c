"""Bath model battery: spectral densities, profiles, phase distribution."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from finite_difference import finite_difference_curvature, finite_difference_slope
from neqbath.bath import (
    BathConfig,
    DeltaLimitError,
    PhaseDistribution,
    PhaseProfile,
    SpectralDensity,
    phase_distribution_eval,
    profile_from_config,
)
from neqbath.montecarlo import discretize_bath
from neqbath.numerics import integrate_finite


def make_config(**kw):
    base = dict(gamma=0.5, cutoff=1.0, diffusion=0.1, phase_lambda=1.0)
    base.update(kw)
    return BathConfig(**base)


class TestConfigValidation:
    def test_valid_config_roundtrips(self):
        cfg = make_config(ohmicity=3, omega=2.0, phase_profile="quadratic")
        assert cfg.ohmicity == 3
        assert cfg.phase_profile == "quadratic"

    @pytest.mark.parametrize("field,value", [
        ("gamma", -0.1), ("gamma", math.nan),
        ("cutoff", 0.0), ("cutoff", -1.0),
        ("diffusion", -1e-9), ("diffusion", math.inf),
        ("phase_lambda", -0.5),
        ("omega", 0.0),
    ])
    def test_bad_numbers_name_the_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            make_config(**{field: value})

    def test_ohmicity_cap(self):
        # 170! is the largest factorial a double holds
        assert make_config(ohmicity=170).ohmicity == 170
        with pytest.raises(ValueError, match="170"):
            make_config(ohmicity=171)

    def test_bad_ohmicity(self):
        with pytest.raises(ValueError, match="ohmicity"):
            make_config(ohmicity=0)
        with pytest.raises(ValueError, match="ohmicity"):
            make_config(ohmicity=1.5)
        with pytest.raises(ValueError, match="ohmicity"):
            make_config(ohmicity=True)

    def test_bad_profile_kind(self):
        with pytest.raises(ValueError, match="phase_profile"):
            make_config(phase_profile="cubic")


class TestSpectralDensity:
    def test_ohmic_value_at_cutoff(self):
        # (4 * 1 / 1) * 1 * e^-1 at w = cutoff = 1
        sd = SpectralDensity(gamma=1.0, cutoff=1.0, ohmicity=1)
        assert sd(1.0) == pytest.approx(
            4.0 * math.exp(-1.0), rel=1e-15)

    def test_extreme_cutoff_does_not_overflow(self):
        # cutoff**2 used to raise OverflowError here
        sd = SpectralDensity(gamma=1.0, cutoff=1e200, ohmicity=3)
        assert sd(1e200) == pytest.approx(4e-200 * math.exp(-1.0), rel=1e-14)

    def test_supraohmic_value(self):
        # gamma=1, cutoff=2, n=3, w=2: (4/4) * 8/4 * e^-1 = 2 e^-1
        sd = SpectralDensity(gamma=1.0, cutoff=2.0, ohmicity=3)
        assert sd(2.0) == pytest.approx(2.0 * math.exp(-1.0), rel=1e-15)

    def test_zero_at_origin_and_negative_rejected(self):
        sd = SpectralDensity(gamma=2.0, cutoff=1.5, ohmicity=1)
        assert sd(0.0) == 0.0
        with pytest.raises(ValueError, match="omega"):
            sd(-0.1)
        with pytest.raises(ValueError, match="omega"):
            sd(np.array([0.5, -2.0]))

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(gamma=st.floats(0.0, 10.0), cutoff=st.floats(0.1, 10.0),
           ohmicity=st.integers(1, 4), w=st.floats(0.0, 100.0))
    def test_nonnegative_everywhere(self, gamma, cutoff, ohmicity, w):
        sd = SpectralDensity(gamma, cutoff, ohmicity)
        assert sd(w) >= 0.0

    def test_total_weight_closed_forms(self):
        # discretize_bath measures its modes against the weight 4 gamma n!
        for gamma, cutoff, n, total in ((0.5, 1.0, 1, "2"), (1.0, 2.0, 3, "24")):
            with pytest.warns(UserWarning, match=f" of {total} spectral weight"):
                discretize_bath(SpectralDensity(gamma, cutoff, n),
                                PhaseProfile("linear", 1.0), 4, 60.0)

    @pytest.mark.parametrize("gamma,cutoff,n", [(0.5, 1.0, 1), (3.0, 1.0, 3),
                                                (1.7, 2.5, 2)])
    def test_total_weight_matches_quadrature(self, gamma, cutoff, n):
        sd = SpectralDensity(gamma, cutoff, n)
        ref = integrate_finite(sd, 0.0, 80.0 * cutoff, tol=1e-11)
        assert ref.converged
        assert 4.0 * gamma * math.factorial(n) == pytest.approx(ref.value, rel=1e-9)

    def test_from_config(self):
        cfg = make_config(gamma=2.0, cutoff=0.5, ohmicity=3)
        sd = SpectralDensity.from_config(cfg)
        assert sd.gamma == 2.0 and sd.cutoff == 0.5 and sd.ohmicity == 3


class TestPhaseProfile:
    def test_linear(self):
        p = PhaseProfile("linear", 2.0)
        assert p(3.0) == -6.0
        assert np.allclose(p(np.array([0.0, 1.0])), [0.0, -2.0])

    def test_quadratic(self):
        p = PhaseProfile("quadratic", 0.5)
        assert p(3.0) == -4.5

    def test_validation(self):
        with pytest.raises(ValueError):
            PhaseProfile("linear", -1.0)
        with pytest.raises(ValueError):
            PhaseProfile("sawtooth", lam=1.0)

    def test_profile_from_config(self):
        assert profile_from_config(make_config()).kind == "linear"
        quad = profile_from_config(make_config(phase_profile="quadratic",
                                               phase_lambda=0.7))
        assert quad.kind == "quadratic" and quad.lam == 0.7
        with pytest.raises(ValueError, match="phase_profile"):
            make_config(phase_profile="custom")


class TestPhaseDistribution:
    def test_normalization_on_circle(self):
        dist = PhaseDistribution(diffusion=1.0)
        x = np.linspace(-math.pi, math.pi, 4097)
        for t in (0.05, 0.3, 2.0):
            p = phase_distribution_eval(dist, x, t)
            assert np.trapezoid(p, x) == pytest.approx(1.0, abs=1e-10)

    def test_even_in_x(self):
        dist = PhaseDistribution(diffusion=0.5)
        x = np.linspace(0.0, math.pi, 50)
        assert np.array_equal(phase_distribution_eval(dist, x, 0.7),
                              phase_distribution_eval(dist, -x, 0.7))

    def test_positive(self):
        # at narrow spreads the tails underflow and the truncated series
        # can round to ~-1e-14 there; positivity holds to rounding
        dist = PhaseDistribution(diffusion=1.0)
        x = np.linspace(-math.pi, math.pi, 801)
        assert np.all(phase_distribution_eval(dist, x, 0.05) > -1e-12)
        assert np.all(phase_distribution_eval(dist, x, 0.3) > 0.0)

    def test_late_time_uniform(self):
        dist = PhaseDistribution(diffusion=1.0)
        x = np.linspace(-math.pi, math.pi, 101)
        p = phase_distribution_eval(dist, x, 30.0)
        assert np.max(np.abs(p - 1.0 / (2.0 * math.pi))) < 1e-12

    def test_short_time_matches_free_gaussian_peak(self):
        # wrap-around images at D t = 0.01 are e^(-pi^2/0.01)-small, so
        # the peak equals the line heat kernel 1/sqrt(4 pi D t)
        dist = PhaseDistribution(diffusion=1.0)
        got = phase_distribution_eval(dist, 0.0, 0.01)
        assert got == pytest.approx(1.0 / math.sqrt(4.0 * math.pi * 0.01),
                                    abs=1e-10)

    def test_delta_limit_raises(self):
        dist = PhaseDistribution(diffusion=1.0)
        with pytest.raises(DeltaLimitError):
            phase_distribution_eval(dist, 0.3, 0.0)
        with pytest.raises(DeltaLimitError):
            phase_distribution_eval(PhaseDistribution(diffusion=0.0), 0.3, 5.0)
        with pytest.raises(DeltaLimitError):  # D t = 0 * inf: no spread, ever
            phase_distribution_eval(PhaseDistribution(diffusion=0.0), 0.3, math.inf)
        assert issubclass(DeltaLimitError, ValueError)

    def test_tiny_dt_warns(self):
        dist = PhaseDistribution(diffusion=1.0)
        with pytest.warns(UserWarning, match="small"):
            phase_distribution_eval(dist, 0.0, 1e-7)

    def test_truncation_warns(self):
        # D t = 1e-9 needs about 166,000 terms, past the term budget
        dist = PhaseDistribution(diffusion=1.0)
        with pytest.warns(UserWarning, match="truncated"):
            phase_distribution_eval(dist, 0.0, 1e-9)

    def test_subnormal_time_truncates_instead_of_overflowing(self):
        # the term count 1/sqrt(D t) is infinite in floating point here
        dist = PhaseDistribution(diffusion=0.1)
        with pytest.warns(UserWarning, match="truncated"):
            p = phase_distribution_eval(dist, 0.0, 2.2e-309)
        assert math.isfinite(p) and p > 0.0

    def test_negative_time_rejected(self):
        dist = PhaseDistribution(diffusion=1.0)
        with pytest.raises(ValueError):
            phase_distribution_eval(dist, 0.0, -0.1)

    def test_satisfies_diffusion_equation(self):
        # spot-check the PDE residual dP/dt - D d2P/dx2 at a few points
        dist = PhaseDistribution(diffusion=1.0)
        for x0, t0 in ((0.0, 0.1), (1.0, 0.5), (-2.0, 1.5)):
            dpdt = finite_difference_slope(
                lambda t: phase_distribution_eval(dist, x0, t), t0, h=1e-5)
            d2pdx2 = finite_difference_curvature(
                lambda x: phase_distribution_eval(dist, x, t0), x0, h=1e-3)
            assert abs(dpdt - 1.0 * d2pdx2) < 1e-6

