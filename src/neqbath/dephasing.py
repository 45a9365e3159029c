"""Decoherence factor of a dephasing qubit in the random-phase bath.

The off-diagonal element of the qubit density matrix decays as
|F(t)| = exp(-beta(t)) with

    beta(t) = 1/4 * int_0^inf dw I(w) * [ 1 - exp(-2 D t)
              + (exp(-2 D t) - exp(-4 D t)) * cos(2 (w t + theta(w))) ]

The bracket is (1 - e)(1 + e cos(...)) with e = exp(-2 D t), which is
nonnegative, so beta >= 0 and |F| <= 1 for every parameter choice.

For the linear phase profile the frequency integral is a Laplace
transform with one closed form for every ohmicity; the quadratic
profile goes through adaptive quadrature, which also serves as the
independent cross-check.  beta_values makes that choice for every
caller.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bath import BathConfig, PhaseProfile, SpectralDensity
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
    "beta_values",
    "decoherence_factor",
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

_EPS = np.finfo(float).eps


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


def beta_integrand(omega, t: float, config: BathConfig):
    """Integrand of beta(t) as a function of frequency (vectorized)."""
    w = np.asarray(omega, dtype=float)
    density = SpectralDensity(config)
    profile = PhaseProfile(config)
    e2 = math.exp(-2.0 * config.diffusion * t)
    e4 = e2 * e2
    bracket = (1.0 - e2) + (e2 - e4) * np.cos(2.0 * (w * t + profile(w)))
    return 0.25 * density(w) * bracket


def beta_closed(t, config: BathConfig):
    """Closed-form beta(t) for the linear profile, any ohmicity n.

    The frequency integral is the Laplace transform of
    w^n exp(-w / cutoff) cos(2 w (t - lam)): with y = 2 cutoff (t - lam),
    k = n + 1 and a = 1 - exp(-2 D t),

        q = Re (1 - i y)^-k = cos(k atan y) / (1 + y^2)^(k/2),
        beta = gamma n! a (1 + (1 - a) q).

    n! a (...) <= 2 n! is finite, so beta is 0 at t = 0 for any gamma,
    and beta -> gamma n! as t -> inf.
    """
    if config.phase_profile != "linear":
        raise ValueError(
            f"closed form requires the linear phase profile, config has "
            f"{config.phase_profile!r}"
        )
    ta = np.asarray(t, dtype=float)
    k = config.ohmicity + 1
    # y = +-inf at a huge cutoff gives q = 0, its limit; beta = inf past
    # the largest double, where |F| = exp(-beta) is 0 all the same
    with np.errstate(over="ignore"):
        y = 2.0 * config.cutoff * (ta - config.phase_lambda)
        q = np.cos(k * np.arctan(y)) * (1.0 / np.hypot(1.0, y)) ** k
        a = -np.expm1(-2.0 * config.diffusion * ta)
        return config.gamma * (float(math.factorial(config.ohmicity)) * a
                               * (1.0 + (1.0 - a) * q))


def _oscillation_controls(t: float, config: BathConfig):
    """(period_hint, chirp) for the frequency integral at time t.

    The integrand oscillates as cos(2 (w t + theta(w))) with local rate
    2 |t + theta'(w)|: constant 2 |t - lam| for linear profiles, at most
    2 t + 4 lam w for quadratic ones, whose panels thus shrink with
    frequency.
    """
    amp = math.exp(-2.0 * config.diffusion * t) - math.exp(-4.0 * config.diffusion * t)
    if t <= 0 or amp < _OSC_AMP_FLOOR:
        return None, 0.0
    if config.phase_profile == "quadratic":
        return math.pi / t, 4.0 * config.phase_lambda
    rate = 2.0 * abs(t - config.phase_lambda)
    return (2.0 * math.pi / rate if rate > 1e-12 else None), 0.0


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

    A profile, if given, replaces the config's profile kind and delay.
    The bracket is at most 1 - exp(-4 D t), so the tail past W is at
    most gamma Gamma(n + 1, W / cutoff) (1 - exp(-4 D t)).  Unless
    omega_max fixes it, W is the smallest value (>= cutoff) that puts
    this bound at a tenth of tol.  The error is the quadrature error
    plus the bound; ConvergenceError, with the best estimate attached,
    if it misses tol or the integrand overflows.
    """
    if profile is not None:
        config = dataclasses.replace(config, phase_profile=profile.kind,
                                     phase_lambda=profile.lam)
    if t < 0:
        raise ValueError("t must be >= 0")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if config.gamma == 0.0 or config.diffusion * t == 0.0:
        # the integrand vanishes identically
        return QuadratureResult(value=0.0, error=0.0, subdivisions=0, converged=True)
    n = config.ohmicity
    log_scale = math.log(config.gamma) + math.log(-math.expm1(-4.0 * config.diffusion * t))
    if omega_max is None:
        log_target = math.log(_TAIL_SHARE) + math.log(tol) - log_scale
        omega_max = config.cutoff * _tail_cutoff(n, log_target)
    tail = math.exp(log_scale + _log_upper_gamma(n, omega_max / config.cutoff))
    hint, chirp = _oscillation_controls(t, config)
    try:
        res = integrate_semi_infinite(
            lambda w: beta_integrand(w, t, config), upper=omega_max,
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


def beta_values(times, config: BathConfig, tol: float,
                method: Optional[str] = None):
    """beta on a 1-D time grid as (values, errors, route): the one dispatch.

    The closed form applies whenever the profile is linear; method can
    force either route (forcing the closed form on the quadratic profile
    raises).  The closed form's error bounds its rounding,
    eps (4 beta + 2 (n + 1) gamma n! a (1 - a)) with a = 1 - exp(-2 D t),
    plus 2^-1073 gamma n! where a is subnormal; the quadrature's, to tol.
    """
    ta = np.asarray(times, dtype=float)
    if ta.ndim != 1:
        raise ValueError("times must be a 1-D array")
    if (ta < 0).any():  # cheaper than np.any; the GP calls this per panel batch
        raise ValueError("times must be >= 0")
    if method is None:
        method = METHOD_CLOSED if config.phase_profile == "linear" else METHOD_QUADRATURE
    if method == METHOD_CLOSED:
        beta = beta_closed(ta, config)
        k = config.ohmicity + 1
        a = -np.expm1(-2.0 * config.diffusion * ta)
        with np.errstate(over="ignore"):  # overflows only where beta is inf
            errors = (4.0 * _EPS) * beta + (config.gamma * a) * (1.0 - a) * (
                2.0 * k * _EPS * math.factorial(k - 1))
        # a subnormal a is rounded to an absolute 2^-1074, not to eps a
        errors += np.where((a > 0) & (a < np.finfo(float).tiny),
                           config.gamma * (math.factorial(k - 1) * 2.0 ** -1073), 0.0)
        return beta, errors, METHOD_CLOSED
    if method != METHOD_QUADRATURE:
        raise ValueError(f"unknown method {method!r}")
    beta = np.empty_like(ta)
    errors = np.empty_like(ta)
    for i, t in enumerate(ta):
        res = beta_quadrature(float(t), config, tol=tol)
        beta[i] = res.value
        errors[i] = res.error
    return beta, errors, METHOD_QUADRATURE


def decoherence_factor(times, config: BathConfig, tol: float = 1e-10,
                       method: Optional[str] = None) -> DecoherenceCurve:
    """|F| = exp(-beta) over a time grid, with beta from beta_values.

    The error on |F| is |F| times the error on beta, and 0 where |F|
    underflows to 0 (beta may be inf there).
    """
    beta, errors, route = beta_values(times, config, tol, method)
    values = np.exp(-beta)
    return DecoherenceCurve(np.asarray(times, dtype=float), values,
                            np.where(values > 0.0, errors, 0.0) * values, route)


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
