"""Monte Carlo sampling battery.

All runs use fixed seeds, so every assertion here is deterministic; the
statistical tolerances were chosen against the seeds actually used.
"""

import math
import sys
import threading

import numpy as np
import pytest

from neqbath import montecarlo
from neqbath.bath import BathConfig, PhaseProfile, SpectralDensity, \
    profile_from_config
from neqbath.dephasing import METHOD_MC, beta_closed
from neqbath.montecarlo import (
    _CHUNK,
    DiscretizedBath,
    EnsembleConfig,
    _fill_paths,
    accumulated_phase,
    discretize_bath,
    endpoint_phase,
    mc_decoherence_factor,
    to_decoherence_curve,
)

CFG = BathConfig(gamma=0.3, cutoff=1.0, diffusion=0.2, phase_lambda=1.0)


class TestDiscretize:
    def test_midpoint_grid_and_profile(self):
        sd = SpectralDensity.power_law(0.5, 1.0, 1)
        bath = discretize_bath(sd, PhaseProfile.linear(1.0), 128, 20.0)
        assert bath.delta_omega == pytest.approx(20.0 / 128)
        assert bath.omega[0] == pytest.approx(bath.delta_omega / 2.0)
        assert np.allclose(bath.theta0, -bath.omega)
        assert np.all(np.diff(bath.omega) > 0)

    @pytest.mark.parametrize("gamma,n,weight", [(0.5, 1, 2.0), (3.0, 3, 72.0)])
    def test_covered_weight_near_total(self, gamma, n, weight):
        sd = SpectralDensity.power_law(gamma, 1.0, n)
        bath = discretize_bath(sd, PhaseProfile.linear(1.0), 512, 60.0)
        assert bath.covered_weight() == pytest.approx(weight, rel=0.01)

    def test_zero_coupling_limit(self):
        sd = SpectralDensity.power_law(0.0, 1.0, 1)
        bath = discretize_bath(sd, PhaseProfile.linear(1.0), 32, 20.0)
        assert np.all(bath.coupling == 0.0)

    def test_coarse_grid_warns(self):
        sd = SpectralDensity.power_law(0.5, 1.0, 1)
        with pytest.warns(UserWarning, match="spectral weight"):
            discretize_bath(sd, PhaseProfile.linear(1.0), 4, 60.0)

    def test_bad_arguments(self):
        sd = SpectralDensity.power_law(0.5, 1.0, 1)
        with pytest.raises(ValueError):
            discretize_bath(sd, PhaseProfile.linear(1.0), 0, 20.0)
        with pytest.raises(ValueError):
            discretize_bath(sd, PhaseProfile.linear(1.0), 16, 0.0)


def built_paths(diffusion, dt, horizon, seed, n_modes=1):
    """Phase paths from the Monte Carlo's own builder, on fresh buffers."""
    nt = int(round(horizon / dt))
    paths = np.zeros((n_modes, nt + 1))
    rng = np.random.Generator(np.random.Philox(seed))
    _fill_paths(paths, np.empty((min(_CHUNK, n_modes), nt)), rng,
                math.sqrt(2.0 * diffusion * dt))
    return paths


class TestPhasePaths:
    def test_deterministic_per_seed(self):
        a = built_paths(0.5, 0.01, 2.0, seed=42)
        b = built_paths(0.5, 0.01, 2.0, seed=42)
        c = built_paths(0.5, 0.01, 2.0, seed=43)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_starts_at_zero_right_length(self):
        x = built_paths(0.5, 0.01, 2.0, seed=1, n_modes=3)
        assert np.all(x[:, 0] == 0.0)
        assert x.shape == (3, 201)

    def test_frozen_when_no_diffusion(self):
        assert np.all(built_paths(0.0, 0.01, 1.0, seed=5) == 0.0)

    def test_increment_variance(self):
        # 4000 iid increments: sample variance within 5% of 2 D dt
        x = built_paths(0.5, 0.01, 40.0, seed=3)[0]
        inc = np.diff(x)
        assert inc.var() == pytest.approx(2.0 * 0.5 * 0.01, rel=0.05)

    def test_bad_arguments(self):
        # a draw buffer one step short of the paths
        rng = np.random.Generator(np.random.Philox(0))
        with pytest.raises(ValueError):
            _fill_paths(np.zeros((4, 11)), np.empty((4, 9)), rng, 0.1)
        # the scale comes from configs that refuse D < 0 and dt = 0
        with pytest.raises(ValueError):
            BathConfig(gamma=0.3, cutoff=1.0, diffusion=-0.1, phase_lambda=1.0)
        with pytest.raises(ValueError):
            EnsembleConfig(n_modes=8, n_trajectories=10, seed=0, dt=0.0)

    def test_chunks_reproduce_one_draw(self):
        # 100 modes: one full chunk of 64 rows and a partial one of 36
        n_modes, nt, scale = 100, 300, math.sqrt(2.0 * 0.5 * 0.01)
        got = built_paths(0.5, 0.01, 3.0, seed=11, n_modes=n_modes)
        rng = np.random.Generator(np.random.Philox(11))
        want = np.zeros((n_modes, nt + 1))
        np.cumsum(rng.standard_normal((n_modes, nt)) * scale, axis=1,
                  out=want[:, 1:])
        assert n_modes % _CHUNK != 0
        assert np.array_equal(got, want)

    def test_no_diffusion_draws_nothing(self):
        rng = np.random.Generator(np.random.Philox(7))
        paths = np.zeros((70, 11))
        _fill_paths(paths, np.empty((_CHUNK, 10)), rng, 0.0)
        assert np.all(paths == 0.0)
        fresh = np.random.Generator(np.random.Philox(7))
        assert rng.standard_normal() == fresh.standard_normal()


def single_mode_bath(c=0.3, w=1.7, th=0.4):
    return DiscretizedBath(omega=np.array([w]), coupling=np.array([c]),
                           theta0=np.array([th]), omega_max=w + 1.0,
                           delta_omega=1.0)


class TestAccumulation:
    def test_trapezoid_matches_antiderivative_at_second_order(self):
        # frozen path: phi(t) = (c/w) [sin(w t + th) - sin(th)]
        bath = single_mode_bath()
        c, w, th = 0.3, 1.7, 0.4

        def run(dt):
            times = np.arange(int(round(2.0 / dt)) + 1) * dt
            paths = np.zeros((1, len(times)))
            got = accumulated_phase(bath, paths, times)
            exact = (c / w) * (np.sin(w * times + th) - math.sin(th))
            return float(np.max(np.abs(got - exact)))

        err1, err2 = run(0.01), run(0.005)
        assert err1 < 5e-5
        assert err1 / err2 == pytest.approx(4.0, rel=0.2)

    def test_endpoint_reading_is_exact_on_frozen_paths(self):
        bath = single_mode_bath()
        c, w, th = 0.3, 1.7, 0.4
        times = np.linspace(0.0, 2.0, 21)
        paths = np.zeros((1, 21))
        got = endpoint_phase(bath, paths, times)
        exact = c * (np.sin(w * times + th) - math.sin(th))
        assert np.allclose(got, exact, rtol=0, atol=1e-15)

    def test_zero_couplings_give_zero_phase(self):
        bath = DiscretizedBath(omega=np.array([1.0]), coupling=np.array([0.0]),
                               theta0=np.array([0.5]), omega_max=2.0,
                               delta_omega=1.0)
        times = np.linspace(0.0, 1.0, 11)
        assert np.all(accumulated_phase(bath, np.zeros((1, 11)), times) == 0.0)
        assert np.all(endpoint_phase(bath, np.zeros((1, 11)), times) == 0.0)

    def test_shape_validation(self):
        bath = single_mode_bath()
        times = np.linspace(0.0, 1.0, 11)
        with pytest.raises(ValueError, match="shape"):
            accumulated_phase(bath, np.zeros((2, 11)), times)
        with pytest.raises(ValueError, match="shape"):
            endpoint_phase(bath, np.zeros((1, 10)), times)
        with pytest.raises(ValueError, match="increasing"):
            accumulated_phase(bath, np.zeros((1, 3)),
                              np.array([0.0, 1.0, 0.5]))


class TestEnsembleConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            EnsembleConfig(n_modes=0, n_trajectories=10, seed=1)
        with pytest.raises(ValueError):
            EnsembleConfig(n_modes=8, n_trajectories=0, seed=1)
        with pytest.raises(ValueError):
            EnsembleConfig(n_modes=8, n_trajectories=10, seed=-1)
        with pytest.raises(ValueError):
            EnsembleConfig(n_modes=8, n_trajectories=10, seed=1, dt=0.0)
        with pytest.raises(ValueError):
            EnsembleConfig(n_modes=8, n_trajectories=10, seed=1, horizon=-1.0)
        with pytest.raises(ValueError):
            EnsembleConfig(n_modes=8, n_trajectories=10, seed=1, omega_max=0.0)


class TestEnsembleRuns:
    def small_ensemble(self, **kw):
        base = dict(n_modes=64, n_trajectories=400, seed=1234, dt=0.005,
                    horizon=5.0)
        base.update(kw)
        return EnsembleConfig(**base)

    def test_tracks_analytic_curve(self):
        mc = mc_decoherence_factor(CFG, self.small_ensemble())
        analytic = np.exp(-beta_closed(mc.times, CFG))
        dev = np.abs(np.abs(mc.estimates) - analytic)
        # every point within 3 standard errors (with a floor for the
        # early, nearly noise-free region) at this fixed seed
        assert np.all(dev <= np.maximum(3.0 * mc.stderr, 0.012))
        assert float(dev.max()) < 0.05

    def test_modulus_bounded_by_one_plus_noise(self):
        mc = mc_decoherence_factor(CFG, self.small_ensemble())
        assert np.all(np.abs(mc.estimates) <= 1.0 + 3.0 * mc.stderr + 1e-12)

    def test_stderr_halves_like_sqrt2(self):
        se1 = mc_decoherence_factor(
            CFG, self.small_ensemble(n_trajectories=300, seed=77)).stderr
        se2 = mc_decoherence_factor(
            CFG, self.small_ensemble(n_trajectories=600, seed=78)).stderr
        mask = se2 > 1e-12
        ratio = float(np.median(se1[mask] / se2[mask]))
        assert ratio == pytest.approx(math.sqrt(2.0), rel=0.2)

    def test_bitwise_determinism(self):
        ens = self.small_ensemble(n_trajectories=40, horizon=2.0)
        a = mc_decoherence_factor(CFG, ens)
        b = mc_decoherence_factor(CFG, ens)
        assert np.array_equal(a.estimates, b.estimates)
        assert np.array_equal(a.stderr, b.stderr)
        c = mc_decoherence_factor(CFG, self.small_ensemble(
            n_trajectories=40, horizon=2.0, seed=99))
        assert not np.array_equal(a.estimates, c.estimates)

    def test_no_diffusion_keeps_unit_modulus(self):
        frozen = BathConfig(gamma=0.3, cutoff=1.0, diffusion=0.0,
                            phase_lambda=1.0)
        ens = EnsembleConfig(n_modes=64, n_trajectories=20, seed=2, dt=0.01,
                             horizon=2.0, omega_max=10.0)
        for model in ("endpoint", "integral"):
            mc = mc_decoherence_factor(frozen, ens, phase_model=model)
            assert np.max(np.abs(np.abs(mc.estimates) - 1.0)) < 1e-12

    def test_integral_reading_disagrees_with_exponential_decay(self):
        # the trapezoid-of-the-field reading carries a secular variance
        # term; at moderate D it visibly underestimates |F| while the
        # endpoint reading stays on the analytic curve
        ens = self.small_ensemble(n_trajectories=200)
        end = mc_decoherence_factor(CFG, ens, phase_model="endpoint")
        integ = mc_decoherence_factor(CFG, ens, phase_model="integral")
        analytic = np.exp(-beta_closed(end.times, CFG))
        dev_end = float(np.max(np.abs(np.abs(end.estimates) - analytic)))
        dev_int = float(np.max(np.abs(np.abs(integ.estimates) - analytic)))
        assert dev_int > 3.0 * dev_end

    def test_coarse_dt_warns(self):
        ens = EnsembleConfig(n_modes=16, n_trajectories=5, seed=1, dt=0.02,
                             horizon=1.0)
        with pytest.warns(UserWarning, match="coarse"):
            mc_decoherence_factor(CFG, ens)

    def test_bad_phase_model(self):
        with pytest.raises(ValueError, match="phase_model"):
            mc_decoherence_factor(CFG, self.small_ensemble(),
                                  phase_model="ito")

    def test_result_does_not_depend_on_worker_count(self, monkeypatch):
        # 7 workers (usually more than the cores) and a short switch
        # interval interleave often; the bytes must still be the serial loop's
        ens = EnsembleConfig(n_modes=16, n_trajectories=9, seed=5, dt=0.01,
                             horizon=2.0, omega_max=8.0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for model in ("endpoint", "integral"):
                want = serial_reference(CFG, ens, model)
                for workers in (1, 2, 7):
                    monkeypatch.setattr(montecarlo, "_worker_count",
                                        lambda workers=workers: workers)
                    got = mc_decoherence_factor(CFG, ens, phase_model=model)
                    assert got.estimates.tobytes() == want[0].tobytes()
                    assert got.stderr.tobytes() == want[1].tobytes()
        finally:
            sys.setswitchinterval(interval)

    def test_worker_exception_reaches_caller(self, monkeypatch):
        # the calling thread runs trajectories too; fail only off it
        def failing(bath, paths, times):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("trajectory failed")
            return endpoint_phase(bath, paths, times)

        monkeypatch.setattr(montecarlo, "_worker_count", lambda: 2)
        monkeypatch.setattr(montecarlo, "endpoint_phase", failing)
        ens = EnsembleConfig(n_modes=16, n_trajectories=4, seed=1, dt=0.01,
                             horizon=1.0, omega_max=8.0)
        with pytest.raises(RuntimeError, match="trajectory failed"):
            mc_decoherence_factor(CFG, ens)

    def test_curve_conversion(self):
        mc = mc_decoherence_factor(CFG, self.small_ensemble(
            n_trajectories=30, horizon=2.0))
        curve = to_decoherence_curve(mc)
        assert curve.method == METHOD_MC
        assert np.array_equal(curve.values, np.abs(mc.estimates))
        assert np.array_equal(curve.errors, mc.stderr)


def serial_reference(config, ens, phase_model):
    """(estimates, stderr) from the one-trajectory-at-a-time loop that
    preceded the thread pool, frozen here as the bit-for-bit reference."""
    bath = discretize_bath(SpectralDensity.from_config(config),
                           profile_from_config(config), ens.n_modes,
                           ens.omega_max)
    nt = int(round(ens.horizon / ens.dt))
    times = np.arange(nt + 1) * ens.dt
    acc = np.empty((ens.n_trajectories, nt + 1), dtype=complex)
    for m in range(ens.n_trajectories):
        key = np.random.SeedSequence(ens.seed).generate_state(2, np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key, counter=m << 64))
        steps = rng.standard_normal((ens.n_modes, nt)) * math.sqrt(
            2.0 * config.diffusion * ens.dt)
        paths = np.empty((ens.n_modes, nt + 1))
        paths[:, 0] = 0.0
        np.cumsum(steps, axis=1, out=paths[:, 1:])
        ph = bath.omega[:, None] * times[None, :] + bath.theta0[:, None] + paths
        if phase_model == "endpoint":
            phi = bath.coupling @ (np.sin(ph) - np.sin(bath.theta0)[:, None])
        else:
            field = bath.coupling @ np.cos(ph)
            phi = np.empty_like(field)
            phi[0] = 0.0
            np.cumsum(0.5 * (field[:-1] + field[1:]) * np.diff(times),
                      out=phi[1:])
        acc[m] = np.exp(-1j * phi)
    mean = acc.mean(axis=0)
    mod = np.abs(mean)
    unit = np.where(mod > 0, mean / np.where(mod > 0, mod, 1.0), 1.0 + 0j)
    along = acc.real * unit.real[None, :] + acc.imag * unit.imag[None, :]
    stderr = np.sqrt(along.var(axis=0, ddof=1) / ens.n_trajectories)
    return mean, stderr
