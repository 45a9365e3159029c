"""Stochastic sampling oracle for the decoherence factor.

The bath is discretized into modes on a midpoint frequency grid with
couplings c_k = sqrt(I(w_k) dw), each carrying an independent Brownian
phase x_k(t) with variance 2 D t.  Averaging exp(-i phi) over phase
trajectories reproduces exp(-beta) without ever touching the frequency
integral, which is what makes this an independent check.

Each trajectory's phase is read at its endpoint,

  phi(t) = sum_k c_k [sin(w_k t + th_k + x_k(t)) - sin(th_k)],

which is Gaussian over the ensemble with second cumulant exactly beta(t)
for the couplings above.  The deterministic part w_k t + th_k is reduced
to [-pi, pi] in float64 once per run, as atan2(sin x, cos x), which is
exact for every finite x, and stored as a float32 table (n_modes x
n_times, shared by every worker); each trajectory adds its paths in
float64, rounds once to float32 and takes the sine in float32.  Per mode
that is within 2^-24 (|arg| + 4) of the float64 sine, arg being the
float32 argument, so |dphi| <= sum_k |c_k| 2^-23 (max |arg| + 1) once
max |arg| >= 2: about 3e-7 at the criterion-8 size, against a sampling
error near 5e-3.

Seeding is counter-based (Philox): trajectory m draws from counter
block m << 64, so results are independent of evaluation order and
reproducible bit for bit.  Trajectories run on one thread per available
core and are reduced in trajectory order: the core count changes no bit.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .bath import BathConfig, PhaseProfile, SpectralDensity
from .dephasing import DecoherenceCurve, METHOD_MC

__all__ = [
    "DiscretizedBath",
    "EnsembleConfig",
    "PhaseTable",
    "discretize_bath",
    "endpoint_phase",
    "mc_decoherence_factor",
    "phase_table",
]


@dataclass(frozen=True)
class DiscretizedBath:
    """Finite-mode stand-in for the continuous bath.

    omega: midpoint frequencies (k + 1/2) dw
    coupling: per-mode amplitudes sqrt(I(w_k) dw)
    theta0: initial phases theta(w_k)
    """

    omega: np.ndarray
    coupling: np.ndarray
    theta0: np.ndarray


@dataclass(frozen=True)
class EnsembleConfig:
    """Size and resolution of a Monte Carlo run.

    omega_max of None means 20x the spectral cutoff, which keeps the
    truncated tail below 1e-8 of the total weight for the power-law
    densities used here.
    """

    n_modes: int
    n_trajectories: int
    seed: int
    dt: float = 0.005
    horizon: float = 10.0
    omega_max: Optional[float] = None

    def __post_init__(self):
        if self.n_modes < 1:
            raise ValueError(f"n_modes must be >= 1, got {self.n_modes}")
        if self.n_trajectories < 1:
            raise ValueError(f"n_trajectories must be >= 1, got {self.n_trajectories}")
        if not (isinstance(self.seed, (int, np.integer)) and self.seed >= 0):
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not (self.horizon >= self.dt and math.isfinite(self.horizon)):
            raise ValueError(f"horizon must be finite and >= dt {self.dt}, got {self.horizon}")
        if self.omega_max is not None and not (
                self.omega_max > 0 and math.isfinite(self.omega_max)):
            raise ValueError(f"omega_max must be finite and positive, got {self.omega_max}")


def discretize_bath(config: BathConfig, n_modes: int,
                    omega_max: float) -> DiscretizedBath:
    """Midpoint-grid mode decomposition of the bath's spectral density.

    Warns when the modes fail to carry the full spectral weight to
    within 1% (grid too coarse or omega_max too small), since missing
    weight biases the sampled decoherence; ValueError if a coupling overflows.
    """
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    if not (omega_max > 0 and math.isfinite(omega_max)):
        raise ValueError("omega_max must be finite and positive")
    dw = omega_max / n_modes
    w = (np.arange(n_modes) + 0.5) * dw
    coupling = np.sqrt(SpectralDensity(config)(w) * dw)
    if not np.all(np.isfinite(coupling)):
        raise ValueError("mode couplings overflow a double: lower gamma or the ohmicity")
    theta0 = np.asarray(PhaseProfile(config)(w), dtype=float)
    total = 4.0 * config.gamma * math.factorial(config.ohmicity)  # integral of I
    if total > 0:
        covered = float(np.sum(coupling**2))  # midpoint rule
        rel = abs(covered - total) / total
        if rel > 0.01:
            warnings.warn(
                f"discretized modes carry {covered:.6g} of "
                f"{total:.6g} spectral weight (off by {rel:.1%}); increase "
                "n_modes or omega_max",
                stacklevel=2,
            )
    return DiscretizedBath(omega=w, coupling=coupling, theta0=theta0)


def _worker_count() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_CHUNK = 64  # modes per reading and per path buffer
_DRAW_ROWS = 8  # modes per normal draw: a smaller buffer, the same stream


def _fill_paths(paths: np.ndarray, draw: np.ndarray,
                rng: np.random.Generator, scale: float) -> None:
    """Brownian paths into paths[:, 1:] (column 0 stays 0), steps N(0, scale^2).

    Normals are drawn len(draw) rows at a time, which continues one stream:
    the paths are those of a single (n_modes, n_steps) draw.  Scale 0
    draws nothing.
    """
    if scale == 0.0:
        return
    for r in range(0, len(paths), len(draw)):
        chunk = draw[:len(paths) - r]
        rng.standard_normal(out=chunk)
        chunk *= scale
        np.cumsum(chunk, axis=1, out=paths[r:r + len(chunk), 1:])


@dataclass(frozen=True)
class PhaseTable:
    """The deterministic part of one mode chunk's phases, built once per run.

    base: w_k t_j + th_k reduced to [-pi, pi] in float64, stored as float32
    offset: sum_k c_k sin(th_k), the reading's constant term
    """

    base: np.ndarray
    offset: float


def phase_table(bath: DiscretizedBath, times: np.ndarray) -> PhaseTable:
    """The table every trajectory reads for these modes on this time grid."""
    x = bath.omega[:, None] * np.asarray(times, dtype=float)[None, :]
    x += bath.theta0[:, None]
    x = np.arctan2(np.sin(x), np.cos(x))  # sin and cos reduce x exactly
    offset = float(np.einsum("k,k->", bath.coupling, np.sin(bath.theta0)))
    return PhaseTable(x.astype(np.float32), offset)


def endpoint_phase(bath: DiscretizedBath, paths: np.ndarray,
                   table: PhaseTable) -> np.ndarray:
    """Endpoint reading of one trajectory's dephasing angle over bath's modes.

    The argument base + x is summed in float64 and rounded once to
    float32, where its sine is taken; the mode sum is float64.
    """
    paths = np.asarray(paths, dtype=float)
    if paths.shape != table.base.shape or len(paths) != len(bath.coupling):
        raise ValueError(
            f"paths must have shape (n_modes, n_times) = "
            f"({len(bath.coupling)}, {table.base.shape[1]}), got {paths.shape}"
        )
    arg = np.empty(paths.shape, dtype=np.float32)
    np.add(table.base, paths, out=arg, casting="same_kind")  # float64 sum, one rounding
    np.sin(arg, out=arg)
    return np.einsum("k,kj->j", bath.coupling, arg) - table.offset  # no BLAS: no thread-dependent bits


def mc_decoherence_factor(config: BathConfig, ensemble: EnsembleConfig) -> DecoherenceCurve:
    """Ensemble estimate of the decoherence factor on the simulation time grid.

    The values are the modulus of the mean of exp(-i phi) per grid time,
    the errors a delta-method standard error of that modulus (the spread
    of the component along the mean direction), NaN for one trajectory.
    """
    # paths are rounded to float32; the odds of one past 64 spreads are below e^-2000
    if 64.0 * math.sqrt(2.0 * config.diffusion * ensemble.horizon) > float(np.finfo(np.float32).max):
        raise ValueError(f"diffusion * horizon = {config.diffusion * ensemble.horizon:.3g} "
                         "spreads the phase paths past float32's range")
    omega_max = ensemble.omega_max or 20.0 * config.cutoff
    bath = discretize_bath(config, ensemble.n_modes, omega_max)

    limits = [1.0 / omega_max]
    if config.diffusion > 0:
        limits.append(1.0 / config.diffusion)
    dt_max = 0.1 * min(limits)
    if ensemble.dt > dt_max * (1.0 + 1e-9):
        warnings.warn(
            f"dt = {ensemble.dt} is coarse for omega_max = {omega_max:.3g}, "
            f"D = {config.diffusion}; resolve faster than {dt_max:.3g} to "
            "keep discretization bias below the sampling noise",
            stacklevel=2,
        )

    nt = int(round(ensemble.horizon / ensemble.dt))
    times = np.arange(nt + 1) * ensemble.dt
    m_total = ensemble.n_trajectories
    scale = math.sqrt(2.0 * config.diffusion * ensemble.dt)
    # one 2^64 counter block per trajectory: streams never overlap and do
    # not depend on which worker runs a trajectory, or when
    key = np.random.SeedSequence(ensemble.seed).generate_state(2, np.uint64)
    acc = np.empty((m_total, nt + 1), dtype=complex)
    workers = min(_worker_count(), m_total)

    parts = [replace(bath, omega=bath.omega[r:r + _CHUNK], coupling=bath.coupling[r:r + _CHUNK],
                     theta0=bath.theta0[r:r + _CHUNK]) for r in range(0, ensemble.n_modes, _CHUNK)]
    chunks = [(part, phase_table(part, times)) for part in parts]  # shared, read-only

    def run(first: int) -> None:
        # buffers owned by this worker, reused by every chunk of its trajectories
        paths = np.zeros((min(_CHUNK, ensemble.n_modes), nt + 1))
        draw = np.empty((min(_DRAW_ROWS, len(paths)), nt))
        for m in range(first, m_total, workers):
            rng = np.random.Generator(np.random.Philox(key=key, counter=m << 64))
            phi = np.zeros(nt + 1)
            for part, table in chunks:
                rows = paths[:len(part.omega)]
                _fill_paths(rows, draw, rng, scale)
                phi += endpoint_phase(part, rows, table)
            acc[m] = np.exp(-1j * phi)

    from concurrent.futures import ThreadPoolExecutor  # off the import path
    with ThreadPoolExecutor(max(workers - 1, 1)) as pool:
        others = [pool.submit(run, w) for w in range(1, workers)]
        run(0)  # the calling thread is a worker too
        for task in others:
            task.result()  # re-raises a worker's exception
    del chunks  # free the tables before the reduction's temporaries

    mean = acc.mean(axis=0)
    mod = np.abs(mean)
    unit = np.where(mod > 0, mean / np.where(mod > 0, mod, 1.0), 1.0 + 0j)
    along = acc.real * unit.real[None, :] + acc.imag * unit.imag[None, :]
    if m_total > 1:
        stderr = np.sqrt(along.var(axis=0, ddof=1) / m_total)
    else:
        stderr = np.full(nt + 1, np.nan)
    return DecoherenceCurve(times, mod, stderr, METHOD_MC)
