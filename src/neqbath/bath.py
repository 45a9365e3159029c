"""Bath model: spectral densities, stochastic-phase profiles, phase spread.

The bath is a collection of modes with power-law-times-exponential
spectral weight and a random initial phase per mode.  Each phase then
diffuses with coefficient D, which is what makes the environment
non-equilibrium: the mode phases are not thermal, they drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BathConfig",
    "SpectralDensity",
    "PhaseProfile",
    "phase_distribution_eval",
]

_PROFILE_KINDS = ("linear", "quadratic")
_MAX_OHMICITY = 170


@dataclass(frozen=True)
class BathConfig:
    """Physical parameters of the qubit-bath problem, in units of the drive
    frequency Omega = 1 (rates over Omega, times Omega t).

    gamma: overall coupling strength
    cutoff: spectral cutoff frequency (Lambda)
    diffusion: phase diffusion coefficient D
    ohmicity: spectral exponent n (1 = ohmic, 3 = supraohmic), at most 170,
        the largest n whose n! (total spectral weight / 4 gamma) is a finite double
    phase_lambda: delay parameter of the initial phase profile
    phase_profile: "linear" or "quadratic"
    """

    gamma: float
    cutoff: float
    diffusion: float
    phase_lambda: float
    ohmicity: int = 1
    phase_profile: str = "linear"

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and self.gamma >= 0):
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma}")
        if not (math.isfinite(self.cutoff) and self.cutoff > 0):
            raise ValueError(f"cutoff must be finite and > 0, got {self.cutoff}")
        if not (math.isfinite(self.diffusion) and self.diffusion >= 0):
            raise ValueError(f"diffusion must be finite and >= 0, got {self.diffusion}")
        if not (math.isfinite(self.phase_lambda) and self.phase_lambda >= 0):
            raise ValueError(f"phase_lambda must be finite and >= 0, got {self.phase_lambda}")
        if isinstance(self.ohmicity, bool) or not isinstance(self.ohmicity, (int, np.integer)):
            raise ValueError(f"ohmicity must be an integer, got {self.ohmicity!r}")
        if not 1 <= self.ohmicity <= _MAX_OHMICITY:
            raise ValueError(f"ohmicity must lie in [1, {_MAX_OHMICITY}], got {self.ohmicity}")
        if self.phase_profile not in _PROFILE_KINDS:
            raise ValueError(
                f"phase_profile must be one of {_PROFILE_KINDS}, got {self.phase_profile!r}"
            )


class SpectralDensity:
    """Spectral weight of the bath, defined for omega >= 0:

        I(w) = (4 gamma / cutoff) * (w / cutoff)^n * exp(-w / cutoff),

    whose integral over [0, inf) is 4 gamma n!.
    """

    def __init__(self, config: BathConfig):
        self.gamma = config.gamma
        self.cutoff = config.cutoff
        self.ohmicity = int(config.ohmicity)

    def __call__(self, omega):
        w = np.asarray(omega, dtype=float)
        if (w < 0).any():
            raise ValueError("spectral density is defined for omega >= 0 only")
        x = w / self.cutoff  # then in place (a float omega gives a float, which *= rebinds)
        # past the largest double: inf or nan, which every caller rejects
        with np.errstate(over="ignore", invalid="ignore"):
            decay = np.exp(-x)
            x **= self.ohmicity
            x *= 4.0 * self.gamma / self.cutoff
            x *= decay
        return x


class PhaseProfile:
    """Initial phase of mode omega: theta(omega), with lam = config.phase_lambda.

    linear:    theta = -lam * omega      (a pure delay)
    quadratic: theta = -lam * omega**2   (chirped delay)
    """

    def __init__(self, config: BathConfig):
        self.kind = config.phase_profile
        self.lam = config.phase_lambda

    def __call__(self, omega):
        w = np.asarray(omega, dtype=float)
        return -self.lam * w if self.kind == "linear" else -self.lam * w * w


def phase_distribution_eval(diffusion: float, x, t: float):
    """P(x, t) of a single phase diffusing on the circle with coefficient D.

    Starts as a delta at x = 0 and spreads as the heat kernel on the
    circle, which has two exact forms (Poisson summation).  With x^ the
    distance |x - 2 pi rint(x / 2 pi)| in [0, pi]:
        D t >= 1: (1/(2 pi)) (1 + 2 sum_{m=1..6} exp(-m^2 D t) cos(m x^)),
        D t < 1:  (4 pi D t)^(-1/2) sum_{k=-2..2} exp(-(x^ + 2 pi k)^2 / (4 D t)).
    The first omitted term is below e^-49 (Fourier) or e^-61 of the peak
    (images), so both are exact in double precision, down to a subnormal
    D t.  t = inf is the uniform limit, exactly 1/(2 pi).

    Dt = 0 has no density (delta at x = 0) and raises ValueError.
    """
    if not (math.isfinite(diffusion) and diffusion >= 0):
        raise ValueError(f"diffusion must be finite and >= 0, got {diffusion}")
    if not t >= 0:
        raise ValueError(f"t must be >= 0, got {t}")
    dt_prod = diffusion * t
    if not dt_prod > 0.0:  # D t = 0, or 0 * inf: a delta for all time
        raise ValueError(
            "P(x, t) at D*t = 0 is a delta distribution at x = 0; "
            "evaluate at D*t > 0 or handle the initial condition directly"
        )
    xa = np.asarray(x, dtype=float)
    xr = np.abs(xa - 2.0 * math.pi * np.rint(xa / (2.0 * math.pi)))  # even in x, bit for bit
    # m^2 D t and z overflow to inf where the term is exactly 0
    with np.errstate(over="ignore"):
        if dt_prod >= 1.0:
            m = np.arange(1.0, 7.0)
            series = np.cos(np.multiply.outer(xr, m)) @ np.exp(-m * m * dt_prod)
            return (1.0 + 2.0 * series) / (2.0 * math.pi)
        # sqrt(D t) is normal even for a subnormal D t, where 4 pi D t rounds
        root = math.sqrt(dt_prod)
        z = np.add.outer(xr, 2.0 * math.pi * np.arange(-2.0, 3.0)) / (2.0 * root)
        return np.exp(-z * z).sum(axis=-1) / (math.sqrt(4.0 * math.pi) * root)
