"""Monte Carlo sampling battery.

All runs use fixed seeds, so every assertion here is deterministic; the
statistical tolerances were chosen against the seeds actually used.
"""

import math
import os
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from neqbath import montecarlo
from neqbath.bath import BathConfig
from neqbath.dephasing import METHOD_MC, DecoherenceCurve, beta_closed
from neqbath.montecarlo import (
    _CHUNK,
    DiscretizedBath,
    EnsembleConfig,
    _fill_paths,
    discretize_bath,
    endpoint_phase,
    mc_decoherence_factor,
)

CFG = BathConfig(gamma=0.3, cutoff=1.0, diffusion=0.2, phase_lambda=1.0)


class TestDiscretize:
    def test_midpoint_grid_and_profile(self):
        bath = discretize_bath(replace(CFG, gamma=0.5), 128, 20.0)
        dw = np.diff(bath.omega)
        assert dw == pytest.approx(np.full(127, 20.0 / 128))
        assert bath.omega[0] == pytest.approx(dw[0] / 2.0)
        assert np.allclose(bath.theta0, -bath.omega)
        assert np.all(dw > 0)

    @pytest.mark.parametrize("gamma,n,weight", [(0.5, 1, 2.0), (3.0, 3, 72.0)])
    def test_covered_weight_near_total(self, gamma, n, weight):
        bath = discretize_bath(replace(CFG, gamma=gamma, ohmicity=n), 512, 60.0)
        assert np.sum(bath.coupling**2) == pytest.approx(weight, rel=0.01)

    def test_zero_coupling_limit(self):
        bath = discretize_bath(replace(CFG, gamma=0.0), 32, 20.0)
        assert np.all(bath.coupling == 0.0)

    def test_coarse_grid_warns(self):
        with pytest.warns(UserWarning, match="spectral weight"):
            discretize_bath(replace(CFG, gamma=0.5), 4, 60.0)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            discretize_bath(CFG, 0, 20.0)
        with pytest.raises(ValueError):
            discretize_bath(CFG, 16, 0.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="omega_max"):
                discretize_bath(CFG, 16, bad)


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
                           theta0=np.array([th]))


class TestAccumulation:
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
                               theta0=np.array([0.5]))
        times = np.linspace(0.0, 1.0, 11)
        assert np.all(endpoint_phase(bath, np.zeros((1, 11)), times) == 0.0)

    def test_shape_validation(self):
        bath = single_mode_bath()
        times = np.linspace(0.0, 1.0, 11)
        with pytest.raises(ValueError, match="shape"):
            endpoint_phase(bath, np.zeros((2, 11)), times)
        with pytest.raises(ValueError, match="shape"):
            endpoint_phase(bath, np.zeros((1, 10)), times)


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
        # round(0.4) = 0 steps: formerly a curve of the single time t = 0
        with pytest.raises(ValueError, match="horizon"):
            EnsembleConfig(n_modes=8, n_trajectories=2, seed=1, dt=0.001, horizon=0.0004)
        with pytest.raises(ValueError):
            EnsembleConfig(n_modes=8, n_trajectories=10, seed=1, omega_max=0.0)
        # refused here, not later as an overflow of the mode couplings
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="omega_max"):
                EnsembleConfig(n_modes=8, n_trajectories=2, seed=0, omega_max=bad)


class TestEnsembleRuns:
    def small_ensemble(self, **kw):
        base = dict(n_modes=64, n_trajectories=400, seed=1234, dt=0.005,
                    horizon=5.0)
        base.update(kw)
        return EnsembleConfig(**base)

    def test_tracks_analytic_curve(self):
        mc = mc_decoherence_factor(CFG, self.small_ensemble())
        analytic = np.exp(-beta_closed(mc.times, CFG))
        dev = np.abs(mc.values - analytic)
        # every point within 3 standard errors (with a floor for the
        # early, nearly noise-free region) at this fixed seed
        assert np.all(dev <= np.maximum(3.0 * mc.errors, 0.012))
        assert float(dev.max()) < 0.05

    def test_modulus_bounded_by_one_plus_noise(self):
        mc = mc_decoherence_factor(CFG, self.small_ensemble())
        assert np.all(mc.values <= 1.0 + 3.0 * mc.errors + 1e-12)

    def test_stderr_halves_like_sqrt2(self):
        se1 = mc_decoherence_factor(
            CFG, self.small_ensemble(n_trajectories=300, seed=77)).errors
        se2 = mc_decoherence_factor(
            CFG, self.small_ensemble(n_trajectories=600, seed=78)).errors
        mask = se2 > 1e-12
        ratio = float(np.median(se1[mask] / se2[mask]))
        assert ratio == pytest.approx(math.sqrt(2.0), rel=0.2)

    def test_bitwise_determinism(self):
        ens = self.small_ensemble(n_trajectories=40, horizon=2.0)
        a = mc_decoherence_factor(CFG, ens)
        b = mc_decoherence_factor(CFG, ens)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.errors, b.errors)
        c = mc_decoherence_factor(CFG, self.small_ensemble(
            n_trajectories=40, horizon=2.0, seed=99))
        assert not np.array_equal(a.values, c.values)

    def test_no_diffusion_keeps_unit_modulus(self):
        frozen = BathConfig(gamma=0.3, cutoff=1.0, diffusion=0.0,
                            phase_lambda=1.0)
        ens = EnsembleConfig(n_modes=64, n_trajectories=20, seed=2, dt=0.01,
                             horizon=2.0, omega_max=10.0)
        mc = mc_decoherence_factor(frozen, ens)
        assert np.max(np.abs(mc.values - 1.0)) < 1e-12

    def test_coarse_dt_warns(self):
        ens = EnsembleConfig(n_modes=16, n_trajectories=5, seed=1, dt=0.02,
                             horizon=1.0)
        with pytest.warns(UserWarning, match="coarse"), \
                pytest.warns(UserWarning, match="spectral weight"):
            mc_decoherence_factor(CFG, ens)

    def test_result_does_not_depend_on_worker_count(self, monkeypatch):
        # 7 workers (usually more than the cores) and a short switch
        # interval interleave often; the bytes must still be the serial loop's.
        # 100 modes are one full chunk of _CHUNK and one partial chunk.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for n_modes in (16, 100):
                ens = EnsembleConfig(n_modes=n_modes, n_trajectories=9, seed=5,
                                     dt=0.01, horizon=2.0, omega_max=8.0)
                want = serial_reference(CFG, ens)
                for workers in (1, 2, 7):
                    monkeypatch.setattr(montecarlo, "_worker_count",
                                        lambda workers=workers: workers)
                    got = mc_decoherence_factor(CFG, ens)
                    assert got.values.tobytes() == want[0].tobytes()
                    assert got.errors.tobytes() == want[1].tobytes()
        finally:
            sys.setswitchinterval(interval)

    def test_csv_does_not_depend_on_blas_threads(self, tmp_path):
        # the mode sum makes no BLAS call, so OpenBLAS's thread count
        # (default: one per core) cannot move a bit of the output
        src = str(Path(montecarlo.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        default = {k: v for k, v in os.environ.items()
                   if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        outputs = []
        for name, extra in (("default", {}), ("one", {"OPENBLAS_NUM_THREADS": "1"})):
            out = tmp_path / f"{name}.csv"
            proc = subprocess.run(
                [sys.executable, "-W", "ignore", "-m", "neqbath.cli", "mc",
                 "--gamma", "0.5", "--diffusion", "0.1", "--n-modes", "512",
                 "--n-trajectories", "2", "--dt", "0.005", "--horizon", "10",
                 "--seed", "3", "--out", str(out)],
                capture_output=True, text=True,
                env=dict(default, PYTHONPATH=path, **extra))
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

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
        assert isinstance(mc, DecoherenceCurve)
        assert mc.method == METHOD_MC


WEAK = BathConfig(gamma=0.5, cutoff=1.0, diffusion=0.1, phase_lambda=1.0)


def finite_mode_factor(bath, diffusion, times, orders=12):
    """Exact ensemble mean of exp(-i phi) for the endpoint reading on a
    discretized bath.  The modes are independent, and Jacobi-Anger with
    E[exp(-i m x)] = exp(-m^2 D t) gives per mode
    exp(i c sin th) sum_m J_m(c) exp(-i m (w t + th)) exp(-m^2 D t)."""
    from scipy.special import jv

    arg = bath.omega[:, None] * times[None, :] + bath.theta0[:, None]
    factor = np.zeros(arg.shape, dtype=complex)
    for m in range(-orders, orders + 1):
        factor += (jv(m, bath.coupling)[:, None] * np.exp(-1j * m * arg)
                   * np.exp(-m * m * diffusion * times)[None, :])
    factor *= np.exp(1j * bath.coupling * np.sin(bath.theta0))[:, None]
    return np.prod(factor, axis=0)


class TestFiniteModeOracle:
    # bounds from sampling theory, fixed before the first run: z is a
    # standard normal at each point, so its rms sits near 1 and 5 sigma
    # does not occur among ~2,000 (correlated) points
    @pytest.mark.parametrize("n_modes,n_trajectories", [(64, 400), (512, 128)])
    def test_sampling_z_scores(self, n_modes, n_trajectories):
        ens = EnsembleConfig(n_modes=n_modes, n_trajectories=n_trajectories,
                             seed=20240817, dt=0.005, horizon=10.0)
        mc = mc_decoherence_factor(WEAK, ens)
        bath = discretize_bath(WEAK, n_modes, 20.0 * WEAK.cutoff)
        exact = np.abs(finite_mode_factor(bath, WEAK.diffusion, mc.times))
        live = mc.errors > 0
        z = (mc.values[live] - exact[live]) / mc.errors[live]
        assert 0.5 <= math.sqrt(float(np.mean(z**2))) <= 1.5
        assert float(np.max(np.abs(z))) < 5.0
        if n_modes == 512:
            # the discretization bias is far below the sampling noise
            bias = np.abs(exact - np.exp(-beta_closed(mc.times, WEAK)))
            assert float(bias.max()) < 1e-3


def chunk_sum(coupling, values):
    """sum_k c_k values[k], one non-BLAS reduction per _CHUNK modes added in
    mode order."""
    phi = np.zeros(values.shape[1])
    for r in range(0, len(coupling), _CHUNK):
        phi += np.einsum("k,kj->j", coupling[r:r + _CHUNK], values[r:r + _CHUNK])
    return phi


def serial_reference(config, ens):
    """(|mean|, stderr) from the one-trajectory-at-a-time loop that
    preceded the thread pool, frozen here as the bit-for-bit reference.
    Only its mode sum follows the chunked trajectory (see chunk_sum)."""
    bath = discretize_bath(config, ens.n_modes, ens.omega_max)
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
        phi = chunk_sum(bath.coupling, np.sin(ph) - np.sin(bath.theta0)[:, None])
        acc[m] = np.exp(-1j * phi)
    mean = acc.mean(axis=0)
    mod = np.abs(mean)
    unit = np.where(mod > 0, mean / np.where(mod > 0, mod, 1.0), 1.0 + 0j)
    along = acc.real * unit.real[None, :] + acc.imag * unit.imag[None, :]
    stderr = np.sqrt(along.var(axis=0, ddof=1) / ens.n_trajectories)
    return mod, stderr
