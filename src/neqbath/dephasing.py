"""Decoherence factor of a dephasing qubit in the random-phase bath.

The off-diagonal element of the qubit density matrix decays as
|F(t)| = exp(-beta(t)) with

    beta(t) = 1/4 * int_0^inf dw I(w) * [ 1 - exp(-2 D t)
              + (exp(-2 D t) - exp(-4 D t)) * cos(2 (w t + theta(w))) ]

The bracket is (1 - e)(1 + e cos(...)) with e = exp(-2 D t), which is
nonnegative, so beta >= 0 and |F| <= 1 for every parameter choice.

For the linear phase profile and ohmicity 1 or 3 the frequency integral
has a closed form; everything else goes through adaptive quadrature.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bath import BathConfig, PhaseProfile, SpectralDensity, profile_from_config
from .numerics import ConvergenceError, QuadratureResult, integrate_semi_infinite

__all__ = [
    "DecoherenceCurve",
    "DipReport",
    "METHOD_CLOSED",
    "METHOD_QUADRATURE",
    "METHOD_MC",
    "beta_integrand",
    "beta_quadrature",
    "beta_closed",
    "decoherence_factor",
    "asymptotic_factor",
    "find_dip",
]

METHOD_CLOSED = "closed-form"
METHOD_QUADRATURE = "quadrature"
METHOD_MC = "monte-carlo"

# below this, the oscillatory term in the bracket cannot affect results
# at the tolerances used anywhere in the package
_OSC_AMP_FLOOR = 1e-14

# share of the tolerance left to the truncated frequency tail
_TAIL_SHARE = 0.1


@dataclass
class DecoherenceCurve:
    """|F(t)| sampled on a time grid, with per-point error estimates."""

    times: np.ndarray
    values: np.ndarray
    errors: np.ndarray
    method: str

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        self.errors = np.asarray(self.errors, dtype=float)
        if self.times.ndim != 1 or self.times.shape != self.values.shape \
                or self.times.shape != self.errors.shape:
            raise ValueError("times, values, errors must be matching 1-D arrays")
        if len(self.times) >= 2 and np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("curve values must be finite")


@dataclass(frozen=True)
class DipReport:
    """A strict local minimum of |F| that rises above the noise floor."""

    index: int
    time: float
    value: float
    prominence: float


def beta_integrand(omega, t: float, config: BathConfig,
                   profile: Optional[PhaseProfile] = None):
    """Integrand of beta(t) as a function of frequency (vectorized)."""
    if profile is None:
        profile = profile_from_config(config)
    w = np.asarray(omega, dtype=float)
    density = SpectralDensity.from_config(config)
    e2 = math.exp(-2.0 * config.diffusion * t)
    e4 = e2 * e2
    bracket = (1.0 - e2) + (e2 - e4) * np.cos(2.0 * (w * t + profile(w)))
    out = 0.25 * density(w) * bracket
    if np.isscalar(omega) or np.ndim(omega) == 0:
        return float(out)
    return out


def _closed_q(s, cutoff, ohmicity):
    with np.errstate(over="ignore", invalid="ignore"):
        u = 4.0 * cutoff * cutoff * s * s
        if ohmicity == 1:
            q = (1.0 - u) / (1.0 + u) ** 2
        else:
            q = (1.0 - 6.0 * u + u * u) / (1.0 + u) ** 4
    # q -> 0 as u -> inf (not inf/inf); past 1e100 q is below beta's rounding
    return np.where(u > 1e100, 0.0, q)


def beta_closed(t, config: BathConfig):
    """Closed-form beta(t) for ohmicity 1 or 3 with the linear profile.

    Built from the Laplace transforms of w * exp(-a w) * cos(b w) and
    w^3 * exp(-a w) * cos(b w); only the retarded time s = t - lam enters
    the oscillatory piece.
    """
    if config.phase_profile != "linear":
        raise ValueError(
            f"closed form requires the linear phase profile, config has "
            f"{config.phase_profile!r}"
        )
    if config.ohmicity not in (1, 3):
        raise ValueError(
            f"closed form exists for ohmicity 1 or 3, got {config.ohmicity}"
        )
    ta = np.asarray(t, dtype=float)
    s = ta - config.phase_lambda
    e2 = np.exp(-2.0 * config.diffusion * ta)
    e4 = e2 * e2
    q = _closed_q(s, config.cutoff, config.ohmicity)
    beta = (6.0 * config.gamma if config.ohmicity == 3 else config.gamma) * (
        (1.0 - e2) + (e2 - e4) * q)
    if np.isscalar(t) or np.ndim(t) == 0:
        return float(beta)
    return beta


def _oscillation_controls(t: float, config: BathConfig, profile: PhaseProfile):
    """(period_hint, chirp) for the frequency integral at time t.

    The integrand oscillates as cos(2 (w t + theta(w))) with local rate
    2 |t + theta'(w)|: constant 2 |t - lam| for linear profiles, at most
    2 t + 4 lam w for quadratic ones, whose panels thus shrink with
    frequency.  Custom profiles only get the t-based hint.
    """
    amp = math.exp(-2.0 * config.diffusion * t) - math.exp(-4.0 * config.diffusion * t)
    if t <= 0 or amp < _OSC_AMP_FLOOR:
        return None, 0.0
    if profile.kind == "linear":
        rate = 2.0 * abs(t - profile.lam)
        return (2.0 * math.pi / rate if rate > 1e-12 else None), 0.0
    if profile.kind == "quadratic":
        return math.pi / t, 4.0 * profile.lam
    return math.pi / t, 0.0


def _log_upper_gamma(n: int, x: float) -> float:
    """log Gamma(n + 1, x) = log(n! e^-x sum_{k<=n} x^k / k!), overflow-free."""
    terms = [k * math.log(x) - math.lgamma(k + 1) for k in range(n + 1)]
    top = max(terms)
    return math.lgamma(n + 1) - x + top + math.log(sum(math.exp(v - top) for v in terms))


def _tail_cutoff(n: int, log_target: float) -> float:
    """Smallest x >= 1 with log Gamma(n + 1, x) <= log_target, by Newton.

    log Gamma(n + 1, x) is concave and decreasing: from a start left of
    the root (n! e^-x is a lower bound) or past the mode, the iterates
    overshoot once, then fall onto the root from above.
    """
    x = max(float(n), math.lgamma(n + 1) - log_target)
    for _ in range(100):
        log_q = _log_upper_gamma(n, x)
        # excess over the target divided by |d log Gamma / dx|
        step = (log_q - log_target) * math.exp(log_q + x - n * math.log(x))
        x += step
        if x <= 1.0 or -1e-9 * x <= step <= 0.0:
            break
    return max(x, 1.0)


def beta_quadrature(t: float, config: BathConfig,
                    profile: Optional[PhaseProfile] = None,
                    tol: float = 1e-10,
                    omega_max: Optional[float] = None) -> QuadratureResult:
    """beta(t) by adaptive quadrature over frequency, any profile and ohmicity.

    The bracket is at most 1 - exp(-4 D t), so the tail past W is at
    most gamma Gamma(n + 1, W / cutoff) (1 - exp(-4 D t)).  Unless
    omega_max fixes it, W is the smallest value (>= cutoff) that puts
    this bound at a tenth of tol.  The error is the quadrature error
    plus the bound; ConvergenceError, with the best estimate attached,
    if it misses tol or the integrand overflows.
    """
    if profile is None:
        profile = profile_from_config(config)
    if t < 0:
        raise ValueError("t must be >= 0")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if config.gamma == 0.0 or config.diffusion * t == 0.0:
        # the integrand vanishes identically
        return QuadratureResult(value=0.0, error=0.0, subdivisions=0, converged=True)
    n = config.ohmicity
    log_scale = math.log(config.gamma) + math.log(-math.expm1(-4.0 * config.diffusion * t))
    if omega_max is None:
        log_target = math.log(_TAIL_SHARE) + math.log(tol) - log_scale
        omega_max = config.cutoff * _tail_cutoff(n, log_target)
    tail = math.exp(log_scale + _log_upper_gamma(n, omega_max / config.cutoff))
    hint, chirp = _oscillation_controls(t, config, profile)
    try:
        res = integrate_semi_infinite(
            lambda w: beta_integrand(w, t, config, profile), upper=omega_max,
            tol=(1.0 - _TAIL_SHARE) * tol, period_hint=hint, chirp=chirp)
    except ValueError as exc:  # the integrand overflowed
        raise ConvergenceError(f"beta({t}) quadrature failed: {exc}") from exc
    error = res.error + tail
    res = dataclasses.replace(res, error=error, converged=error <= tol)
    if not res.converged:
        raise ConvergenceError(
            f"beta({t}) quadrature stalled at error {res.error:.3e} "
            f"(target {tol:.1e}, {res.subdivisions} panels)",
            result=res,
        )
    return res


def decoherence_factor(times, config: BathConfig,
                       profile: Optional[PhaseProfile] = None,
                       tol: float = 1e-10,
                       method: Optional[str] = None) -> DecoherenceCurve:
    """|F| over a time grid, dispatching closed form vs quadrature.

    The closed form applies when ohmicity is 1 or 3 and the profile is
    linear; method can force either route (forcing the closed form on an
    unsupported config raises).  Errors on the curve are float-rounding
    scale for the closed form and propagated quadrature error otherwise.
    """
    ta = np.asarray(times, dtype=float)
    if ta.ndim != 1:
        raise ValueError("times must be a 1-D array")
    if np.any(ta < 0):
        raise ValueError("times must be >= 0")
    if profile is None:
        profile = profile_from_config(config)

    closed_ok = profile.kind == "linear" and config.ohmicity in (1, 3)
    if method is None:
        method = METHOD_CLOSED if closed_ok else METHOD_QUADRATURE
    if method == METHOD_CLOSED:
        if not closed_ok:
            raise ValueError(
                "closed form unavailable: needs linear profile and ohmicity 1 or 3"
            )
        cfg = config
        if profile.lam != config.phase_lambda:
            # the profile's delay is what enters beta
            cfg = dataclasses.replace(config, phase_lambda=profile.lam,
                                      phase_profile="linear")
        beta = beta_closed(ta, cfg)
        values = np.exp(-beta)
        errors = np.finfo(float).eps * (1.0 + beta) * values
        return DecoherenceCurve(ta, values, errors, METHOD_CLOSED)
    if method != METHOD_QUADRATURE:
        raise ValueError(f"unknown method {method!r}")

    values = np.empty_like(ta)
    errors = np.empty_like(ta)
    for i, t in enumerate(ta):
        res = beta_quadrature(float(t), config, profile, tol=tol)
        values[i] = math.exp(-res.value)
        errors[i] = values[i] * res.error
    return DecoherenceCurve(ta, values, errors, METHOD_QUADRATURE)


def asymptotic_factor(config: BathConfig) -> float:
    """Long-time plateau of |F|.

    As t -> inf the oscillatory term dies and beta -> total weight / 4
    = gamma * n!.  With no diffusion nothing decays and the factor
    stays at 1.
    """
    if config.diffusion == 0.0:
        return 1.0
    return math.exp(-config.gamma * math.factorial(config.ohmicity))


def find_dip(curve: DecoherenceCurve) -> Optional[DipReport]:
    """Deepest strict local minimum of |F| that beats the error floor.

    Prominence is measured against the lower of the two flanking maxima;
    a candidate must clear twice the local error estimate to count.
    Monotone curves, or curves whose wiggles sit inside the noise,
    return None.
    """
    v = curve.values
    best = None
    for i in range(1, len(v) - 1):
        if not (v[i] < v[i - 1] and v[i] < v[i + 1]):
            continue
        prominence = min(v[: i + 1].max(), v[i:].max()) - v[i]
        if prominence <= 2.0 * curve.errors[i]:
            continue
        if best is None or prominence > best.prominence:
            best = DipReport(index=i, time=float(curve.times[i]),
                             value=float(v[i]), prominence=float(prominence))
    return best
