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
from typing import Callable, Optional

import numpy as np

from .numerics import ConvergenceError, integrate_finite

__all__ = [
    "BathConfig",
    "SpectralDensity",
    "PhaseProfile",
    "PhaseDistribution",
    "DeltaLimitError",
    "spectral_total_weight",
    "phase_distribution_eval",
    "profile_from_config",
]

_PROFILE_KINDS = ("linear", "quadratic", "custom")
_MAX_OHMICITY = 170


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
    phase_profile: "linear", "quadratic" or "custom"
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
    """Spectral weight I(omega) of the bath, defined for omega >= 0.

    Two flavors: the power-law family
        I(w) = (4 gamma / cutoff) * (w / cutoff)^n * exp(-w / cutoff)
    and a tabulated density interpolated monotonically (shape-preserving,
    so nonnegative data stays nonnegative) and zero outside the table.
    """

    def __init__(self, kind, gamma=None, cutoff=None, ohmicity=None,
                 table_omega=None, table_values=None):
        self.kind = kind
        self.gamma = gamma
        self.cutoff = cutoff
        self.ohmicity = ohmicity
        self.table_omega = table_omega
        self.table_values = table_values
        self._interp = None
        if kind == "table":
            # lazy: scipy.interpolate is most of the import cost; only tables use it
            from scipy.interpolate import PchipInterpolator
            self._interp = PchipInterpolator(table_omega, table_values, extrapolate=False)

    @classmethod
    def power_law(cls, gamma: float, cutoff: float, ohmicity: int) -> "SpectralDensity":
        if gamma < 0 or cutoff <= 0 or ohmicity < 1:
            raise ValueError("power_law requires gamma >= 0, cutoff > 0, ohmicity >= 1")
        return cls("power-law", gamma=gamma, cutoff=cutoff, ohmicity=int(ohmicity))

    @classmethod
    def from_config(cls, config: BathConfig) -> "SpectralDensity":
        return cls.power_law(config.gamma, config.cutoff, config.ohmicity)

    @classmethod
    def from_table(cls, omega, values) -> "SpectralDensity":
        omega = np.asarray(omega, dtype=float)
        values = np.asarray(values, dtype=float)
        if omega.ndim != 1 or omega.shape != values.shape or len(omega) < 2:
            raise ValueError("table needs matching 1-D omega and value arrays, len >= 2")
        if omega[0] < 0:
            raise ValueError("table frequencies must be >= 0")
        if np.any(np.diff(omega) <= 0):
            raise ValueError("table frequencies must be strictly increasing")
        if np.any(values < 0) or not np.all(np.isfinite(values)):
            raise ValueError("table values must be finite and >= 0")
        return cls("table", table_omega=omega, table_values=values)

    def __call__(self, omega):
        w = np.asarray(omega, dtype=float)
        if np.any(w < 0):
            raise ValueError("spectral density is defined for omega >= 0 only")
        if self.kind == "power-law":
            x = w / self.cutoff
            out = (4.0 * self.gamma / self.cutoff) * x**self.ohmicity * np.exp(-x)
        else:
            out = self._interp(w)
            out = np.where(np.isnan(out), 0.0, out)  # zero outside the table
        if np.isscalar(omega) or np.ndim(omega) == 0:
            return float(out)
        return out


def spectral_total_weight(density: SpectralDensity, tol: float = 1e-10) -> float:
    """Integral of I over [0, inf).

    Power-law densities integrate in closed form to 4 * gamma * n!.
    Tabulated densities are integrated numerically over their support; a
    table the integrator cannot resolve raises with the best estimate
    attached.
    """
    if density.kind == "power-law":
        return 4.0 * density.gamma * math.factorial(density.ohmicity)
    res = integrate_finite(
        lambda w: density(w),
        float(density.table_omega[0]),
        float(density.table_omega[-1]),
        tol=tol,
    )
    if not res.converged:
        raise ConvergenceError(
            f"tabulated spectral weight did not converge (error {res.error:.3e})",
            result=res,
        )
    return res.value


class PhaseProfile:
    """Initial phase of mode omega: theta(omega).

    linear:    theta = -lam * omega      (a pure delay)
    quadratic: theta = -lam * omega**2   (chirped delay)
    custom:    any callable of omega
    """

    def __init__(self, kind: str, lam: Optional[float] = None,
                 func: Optional[Callable] = None):
        if kind not in _PROFILE_KINDS:
            raise ValueError(f"profile kind must be one of {_PROFILE_KINDS}")
        if kind in ("linear", "quadratic"):
            if lam is None or not math.isfinite(lam) or lam < 0:
                raise ValueError("linear/quadratic profiles need a finite lam >= 0")
        if kind == "custom" and not callable(func):
            raise ValueError("custom profile needs a callable")
        self.kind = kind
        self.lam = lam
        self.func = func

    @classmethod
    def linear(cls, lam: float) -> "PhaseProfile":
        return cls("linear", lam=lam)

    @classmethod
    def quadratic(cls, lam: float) -> "PhaseProfile":
        return cls("quadratic", lam=lam)

    @classmethod
    def custom(cls, func: Callable) -> "PhaseProfile":
        return cls("custom", func=func)

    def __call__(self, omega):
        w = np.asarray(omega, dtype=float)
        if self.kind == "linear":
            out = -self.lam * w
        elif self.kind == "quadratic":
            out = -self.lam * w * w
        else:
            out = np.asarray(self.func(w), dtype=float)
        if np.isscalar(omega) or np.ndim(omega) == 0:
            return float(out)
        return out


def profile_from_config(config: BathConfig,
                        custom: Optional[Callable] = None) -> PhaseProfile:
    """Build the profile named by config.phase_profile.

    A config asking for "custom" must come with the callable; the config
    itself only stores the kind.
    """
    if config.phase_profile == "linear":
        return PhaseProfile.linear(config.phase_lambda)
    if config.phase_profile == "quadratic":
        return PhaseProfile.quadratic(config.phase_lambda)
    if custom is None:
        raise ValueError("config requests a custom profile but no callable was given")
    return PhaseProfile.custom(custom)


@dataclass(frozen=True)
class PhaseDistribution:
    """Distribution of a single diffusing phase on the circle.

    Starts as a delta at x = 0 and spreads as
        P(x, t) = 1/(2 pi) + (1/pi) sum_{m>=1} exp(-m^2 D t) cos(m x),
    the heat kernel on the circle.  series_eps controls where the sum is
    truncated; max_terms bounds the work for very small Dt.
    """

    diffusion: float
    series_eps: float = 1e-12
    max_terms: int = 10_000

    def __post_init__(self):
        if not (math.isfinite(self.diffusion) and self.diffusion >= 0):
            raise ValueError(f"diffusion must be finite and >= 0, got {self.diffusion}")
        if not (0 < self.series_eps < 1):
            raise ValueError("series_eps must be in (0, 1)")
        if self.max_terms < 1:
            raise ValueError("max_terms must be >= 1")


def phase_distribution_eval(dist: PhaseDistribution, x, t: float):
    """P(x, t) for the diffusing phase.

    Dt = 0 has no density (delta at x = 0) and raises DeltaLimitError.
    Very small Dt is allowed but warned about: the series needs ~1/sqrt(Dt)
    terms and is truncated at max_terms.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    dt_prod = dist.diffusion * t
    if dt_prod == 0.0:
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
    m_needed = math.sqrt(math.log(1.0 / dist.series_eps) / dt_prod)
    m_terms = max(math.ceil(min(m_needed, dist.max_terms)), 1)
    if m_needed > dist.max_terms:
        warnings.warn(
            f"series truncated at {dist.max_terms} terms ({m_needed:.0f} needed "
            f"for eps={dist.series_eps:.1e})",
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
