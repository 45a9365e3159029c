"""Monte Carlo sampling battery.

All runs use fixed seeds, so every assertion here is deterministic; the
statistical tolerances were chosen against the seeds actually used.
"""

import math
import os
import subprocess
import sys
import threading
import warnings
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
    phase_table,
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

    def test_short_band_names_its_tail_not_the_mode_count(self):
        # at n = 10 the band [0, 20 cutoff] misses Gamma(11, 20) / 10! = 1.08 %
        # of the weight, however many modes share it
        with pytest.warns(UserWarning, match="spectral weight") as record:
            discretize_bath(replace(CFG, ohmicity=10), 4096, 20.0)
        message = str(record[0].message)
        assert "1.1% of it lies past omega_max = 20" in message
        assert "EnsembleConfig(omega_max=...)" in message
        assert "n_modes" not in message

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


def float32_bound(coupling, arg):
    """The reading's stated error bound, sum_k |c_k| 2^-23 (max |arg| + 1),
    with arg the float32 sine's argument (reduced base plus path)."""
    return float(np.sum(np.abs(coupling))) * 2.0**-23 * (float(np.max(np.abs(arg))) + 1.0)


class TestAccumulation:
    def test_endpoint_reading_on_frozen_paths(self):
        bath = single_mode_bath()
        c, w, th = 0.3, 1.7, 0.4
        times = np.linspace(0.0, 2.0, 21)
        paths = np.zeros((1, 21))
        table = phase_table(bath, times)
        got = endpoint_phase(bath, paths, table)
        exact = c * (np.sin(w * times + th) - math.sin(th))
        assert np.allclose(got, exact, rtol=0, atol=float32_bound([c], table))

    def test_zero_couplings_give_zero_phase(self):
        bath = DiscretizedBath(omega=np.array([1.0]), coupling=np.array([0.0]),
                               theta0=np.array([0.5]))
        times = np.linspace(0.0, 1.0, 11)
        table = phase_table(bath, times)
        assert np.all(endpoint_phase(bath, np.zeros((1, 11)), table) == 0.0)

    def test_shape_validation(self):
        bath = single_mode_bath()
        table = phase_table(bath, np.linspace(0.0, 1.0, 11))
        with pytest.raises(ValueError, match="shape"):
            endpoint_phase(bath, np.zeros((2, 11)), table)
        with pytest.raises(ValueError, match="shape"):
            endpoint_phase(bath, np.zeros((1, 10)), table)


class TestFloat32Reading:
    """The float32 sine against the float64 formula it replaced, over one
    full trajectory of the criterion-8 ensemble (512 modes, dt 0.005,
    horizon 10), at its D = 0.1 and at D = 10, where |x| reaches tens,
    and at cutoff 1e11, where w t + th reaches 2e13."""

    @pytest.mark.parametrize("diffusion, cutoff", [
        pytest.param(0.1, 1.0, id="0.1"),
        pytest.param(10.0, 1.0, id="10.0"),
        pytest.param(0.1, 1e11, id="cutoff-1e11"),
    ])
    def test_full_trajectory_within_bound(self, diffusion, cutoff):
        config = BathConfig(gamma=0.5, cutoff=cutoff, diffusion=diffusion,
                            phase_lambda=1.0)
        n_modes, dt, nt = 512, 0.005, 2000
        bath = discretize_bath(config, n_modes, 20.0 * cutoff)
        times = np.arange(nt + 1) * dt
        key = np.random.SeedSequence(20240817).generate_state(2, np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key, counter=0))
        paths = np.zeros((n_modes, nt + 1))
        _fill_paths(paths, np.empty((_CHUNK, nt)), rng, math.sqrt(2.0 * diffusion * dt))

        got = np.zeros(nt + 1)
        args = []
        for r in range(0, n_modes, _CHUNK):
            part = DiscretizedBath(bath.omega[r:r + _CHUNK], bath.coupling[r:r + _CHUNK],
                                   bath.theta0[r:r + _CHUNK])
            table = phase_table(part, times)
            got += endpoint_phase(part, paths[r:r + _CHUNK], table)
            args.append(table + paths[r:r + _CHUNK])
        arg = np.concatenate(args)
        # the float64 reading the float32 one replaced; sin(a + x) is
        # expanded so that x is not rounded at the scale of a = w t + th
        a = bath.omega[:, None] * times[None, :] + bath.theta0[:, None]
        ph = np.sin(a) * np.cos(paths) + np.cos(a) * np.sin(paths)
        want = np.einsum("k,kj->j", bath.coupling, ph - np.sin(bath.theta0)[:, None])

        assert float(np.max(np.abs(arg))) > (30.0 if diffusion > 1 else 3.0)
        assert np.max(np.abs(got - want)) <= float32_bound(bath.coupling, arg)

    def test_each_mode_within_its_bound(self):
        # per mode, 2^-24 (|arg| + 4): one rounding of the float64 sum,
        # half an ulp of the float32 base (|base| <= pi) and 2 ulps of sine
        config = BathConfig(gamma=0.5, cutoff=1.0, diffusion=10.0, phase_lambda=1.0)
        bath = discretize_bath(config, 64, 20.0)
        times = np.arange(2001) * 0.005
        paths = built_paths(10.0, 0.005, 10.0, seed=4, n_modes=64)
        for k in range(64):
            one = DiscretizedBath(bath.omega[k:k + 1], np.ones(1), bath.theta0[k:k + 1])
            table = phase_table(one, times)
            got = endpoint_phase(one, paths[k:k + 1], table)
            want = (np.sin(bath.omega[k] * times + bath.theta0[k] + paths[k])
                    - math.sin(bath.theta0[k]))
            arg = np.abs(table[0] + paths[k])
            assert np.all(np.abs(got - want) <= 2.0**-24 * (arg + 4.0))


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

    # formerly a TypeError from inside the run (2.5, True as a size) or
    # seed 1 (True); a numpy integer is an integer
    @pytest.mark.parametrize("name,bad", [("n_modes", 2.5), ("n_modes", True),
                                          ("n_trajectories", 2.5), ("n_trajectories", False),
                                          ("seed", True), ("seed", 1.0)])
    def test_sizes_and_seed_must_be_integers(self, name, bad):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            EnsembleConfig(**{"n_modes": 8, "n_trajectories": 2, "seed": 0, name: bad})
        assert EnsembleConfig(np.int64(8), np.int32(2), np.uint64(0)).n_modes == 8

    @pytest.mark.parametrize("bad", [2.5, True])
    def test_discretize_bath_needs_an_integer_mode_count(self, bad):
        # 2.5 formerly built 3 modes of width 20 / 2.5 = 8
        with pytest.raises(ValueError, match="n_modes must be an integer"):
            discretize_bath(CFG, bad, 20.0)


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

    def test_only_the_weight_warning_fires_at_a_coarse_dt(self):
        # each grid time is sampled exactly, so a coarse dt draws no warning;
        # 16 modes still draw the spectral-weight one
        ens = EnsembleConfig(n_modes=16, n_trajectories=5, seed=1, dt=0.02,
                             horizon=1.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            mc_decoherence_factor(CFG, ens)
        assert len(caught) == 1
        assert "spectral weight" in str(caught[0].message)

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
        def failing(bath, paths, table):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("trajectory failed")
            return endpoint_phase(bath, paths, table)

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
    # does not occur among ~2,000 (correlated) points; at dt 0.25 each of
    # 41 times is sampled as exactly
    @pytest.mark.parametrize("n_modes,n_trajectories,dt", [
        (64, 400, 0.005), (512, 128, 0.005), (64, 400, 0.25),
    ], ids=["64-400", "512-128", "64-400-dt0.25"])
    def test_sampling_z_scores(self, n_modes, n_trajectories, dt):
        ens = EnsembleConfig(n_modes=n_modes, n_trajectories=n_trajectories,
                             seed=20240817, dt=dt, horizon=10.0)
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


def chunk_sum(bath, times, paths):
    """sum_k c_k [sin(w_k t + th_k + x_k) - sin th_k], one non-BLAS reduction
    per _CHUNK modes added in mode order.  The sine is float32, of the
    float64 sum of x_k and w_k t + th_k reduced to [-pi, pi] and stored as
    float32; the mode sum and sum_k c_k sin th_k are float64."""
    phi = np.zeros(paths.shape[1])
    for r in range(0, len(bath.coupling), _CHUNK):
        c, w, th = (a[r:r + _CHUNK] for a in (bath.coupling, bath.omega, bath.theta0))
        ph = w[:, None] * times[None, :] + th[:, None]
        base = (ph - 2.0 * math.pi * np.rint(ph / (2.0 * math.pi))).astype(np.float32)
        arg = (base.astype(float) + paths[r:r + _CHUNK]).astype(np.float32)
        phi += np.einsum("k,kj->j", c, np.sin(arg)) - np.einsum("k,k->", c, np.sin(th))
    return phi


def serial_reference(config, ens):
    """(|mean|, stderr) from the one-trajectory-at-a-time loop that
    preceded the thread pool, frozen here as the bit-for-bit reference.
    Only its reading follows the chunked trajectory (see chunk_sum)."""
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
        phi = chunk_sum(bath, times, paths)
        acc[m] = np.exp(-1j * phi)
    mean = acc.mean(axis=0)
    mod = np.abs(mean)
    unit = np.where(mod > 0, mean / np.where(mod > 0, mod, 1.0), 1.0 + 0j)
    along = acc.real * unit.real[None, :] + acc.imag * unit.imag[None, :]
    stderr = np.sqrt(along.var(axis=0, ddof=1) / ens.n_trajectories)
    return mod, stderr
