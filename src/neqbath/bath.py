"""Bath model: spectral densities, stochastic-phase profiles, phase spread.

The bath is a collection of modes with power-law-times-exponential
spectral weight and a random initial phase per mode.  Each phase then
diffuses with coefficient D, which is what makes the environment
non-equilibrium: the mode phases are not thermal, they drift.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BathConfig",
    "SpectralDensity",
    "PhaseProfile",
    "DeltaLimitError",
    "phase_distribution_eval",
]

_PROFILE_KINDS = ("linear", "quadratic")
_MAX_OHMICITY = 170
_SERIES_EPS = 1e-12  # P(x, t) drops series terms below this
_MAX_TERMS = 10_000  # series terms at most, for very small D t


class DeltaLimitError(ValueError):
    """Phase distribution requested at Dt = 0, where it is a delta at x = 0."""


@dataclass(frozen=True)
class BathConfig:
    """Physical parameters of the qubit-bath problem.

    gamma: overall coupling strength
    cutoff: spectral cutoff frequency (Lambda)
    diffusion: phase diffusion coefficient D
    ohmicity: spectral exponent n (1 = ohmic, 3 = supraohmic), at most 170,
        the largest n whose n! (total spectral weight / 4 gamma) is a finite double
    phase_lambda: delay parameter of the initial phase profile
    omega: drive frequency of the quasi-cyclic evolution
    phase_profile: "linear" or "quadratic"
    """

    gamma: float
    cutoff: float
    diffusion: float
    phase_lambda: float
    ohmicity: int = 1
    omega: float = 1.0
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
        if not (math.isfinite(self.omega) and self.omega > 0):
            raise ValueError(f"omega must be finite and > 0, got {self.omega}")
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
        if np.any(w < 0):
            raise ValueError("spectral density is defined for omega >= 0 only")
        x = w / self.cutoff
        # past the largest double: inf or nan, which every caller rejects
        with np.errstate(over="ignore", invalid="ignore"):
            out = (4.0 * self.gamma / self.cutoff) * x**self.ohmicity * np.exp(-x)
        if np.isscalar(omega) or np.ndim(omega) == 0:
            return float(out)
        return out


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
        out = -self.lam * w if self.kind == "linear" else -self.lam * w * w
        if np.isscalar(omega) or np.ndim(omega) == 0:
            return float(out)
        return out


def phase_distribution_eval(diffusion: float, x, t: float):
    """P(x, t) of a single phase diffusing on the circle with coefficient D.

    Starts as a delta at x = 0 and spreads as
        P(x, t) = 1/(2 pi) + (1/pi) sum_{m>=1} exp(-m^2 D t) cos(m x),
    the heat kernel on the circle, summed until its terms fall below
    _SERIES_EPS or _MAX_TERMS is reached.

    Dt = 0 has no density (delta at x = 0) and raises DeltaLimitError.
    Very small Dt is allowed but warned about: the series needs ~1/sqrt(Dt)
    terms and is truncated at _MAX_TERMS.  t = inf is the uniform limit.
    """
    if not (math.isfinite(diffusion) and diffusion >= 0):
        raise ValueError(f"diffusion must be finite and >= 0, got {diffusion}")
    if not t >= 0:
        raise ValueError(f"t must be >= 0, got {t}")
    dt_prod = diffusion * t
    if not dt_prod > 0.0:  # D t = 0, or 0 * inf: a delta for all time
        raise DeltaLimitError(
            "P(x, t) at D*t = 0 is a delta distribution at x = 0; "
            "evaluate at D*t > 0 or handle the initial condition directly"
        )
    if dt_prod < 1e-6:
        warnings.warn(
            f"D*t = {dt_prod:.3e} is extremely small; the series needs "
            "many terms and the result is close to a delta",
            stacklevel=2,
        )
    # may be inf when D*t is subnormal, so it is capped before rounding up
    m_needed = math.sqrt(math.log(1.0 / _SERIES_EPS) / dt_prod)
    m_terms = max(math.ceil(min(m_needed, _MAX_TERMS)), 1)
    if m_needed > _MAX_TERMS:
        warnings.warn(
            f"series truncated at {_MAX_TERMS} terms ({m_needed:.0f} needed "
            f"for eps={_SERIES_EPS:.1e})",
            stacklevel=2,
        )
    xa = np.asarray(x, dtype=float)
    out = np.full(xa.shape, 1.0 / (2.0 * math.pi))
    # chunk over m to bound memory on big grids
    for m0 in range(1, m_terms + 1, 512):
        m = np.arange(m0, min(m0 + 512, m_terms + 1), dtype=float)
        amp = np.exp(-m * m * dt_prod)
        out = out + (np.cos(np.multiply.outer(xa, m)) @ amp) / math.pi
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out
