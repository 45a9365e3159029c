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

from .bath import _MAX_OHMICITY, BathConfig, PhaseProfile, SpectralDensity
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

# share of the tolerance left to the truncated frequency tail
_TAIL_SHARE = 0.1

_EPS = math.ulp(1.0)  # 2^-52


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
    """Oscillating part of beta(t)'s integrand, g(w) cos(2 (w t + theta(w))) with
    g = I(w) e^-2Dt (1 - e^-2Dt) / 4 (vectorized over frequency, in place on new arrays).
    The smooth part, I(w) (1 - e^-2Dt) / 4, has the exact integral gamma n! (1 - e^-2Dt)."""
    w = np.asarray(omega, dtype=float)
    amp = 0.25 * (math.exp(-2.0 * config.diffusion * t) * -math.expm1(-2.0 * config.diffusion * t))
    out = SpectralDensity(config)(w)
    out *= amp
    phase = PhaseProfile(config)(w)
    phase += w * t
    phase *= 2.0
    out *= np.cos(phase)
    return out


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


_LOG_FACTORIAL = [math.lgamma(k + 1) for k in range(_MAX_OHMICITY + 1)]  # log k!


def _log_upper_gamma(n: int, x: float) -> float:
    """log Gamma(n + 1, x) = log(n! e^-x sum_{k<=n} x^k / k!), overflow-free."""
    log_x = math.log(x)
    terms = [k * log_x - _LOG_FACTORIAL[k] for k in range(n + 1)]
    top = max(terms)
    return _LOG_FACTORIAL[n] - x + top + math.log(sum(math.exp(v - top) for v in terms))


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


def _two_term(x: float, n: int, s0: float, s1: float, cut: float):
    """log(2 |k'/phi'| / (gamma e^-2Dt a)) = log(x^n e^-x P / (4 r^3)) at x = W / cutoff, and its
    x-derivative: P = q^2 - n / x^2 - 3 q rho + 3 rho^2, q = n / x - 1, rho = r' / r."""
    u = s0 + s1 * cut * x
    rho, q = s1 * cut / u, n / x - 1.0
    p = q * q - n / (x * x) - 3.0 * q * rho + 3.0 * rho * rho
    dp = (2.0 * n / x - 2.0 * q * n + 3.0 * n * rho) / (x * x) + 3.0 * rho * rho * (q - 2.0 * rho)
    log_c = n * math.log(x) - x - 3.0 * (math.log(cut) + math.log(u)) + math.log(0.25 * p)
    return log_c, q - 3.0 * rho + dp / p


def _osc_cutoff(n: int, log_target: float, s0: float, s1: float, cut: float) -> float:
    """Smallest x where the two-term bound (log_scale 0) meets log_target: Newton from
    -log_target, a step stopping at n + 2 sqrt(n) or halfway to the stationary point x_s.
    The Gamma cut-off where no rate holds there, where Gamma(n + 1, x) <= x^n e^-x / (1 -
    n / x) meets the target at the edge, or where the bound ends above x^n e^-x <= Gamma."""
    lo = n + 2.0 * math.sqrt(n)
    x_s = -s0 / (s1 * cut) if s1 > 0.0 else (0.0 if s0 > 0.0 else math.inf)
    edge = max(lo, x_s)
    if not edge < math.inf > s1 * cut or \
            n * math.log(edge) - edge - math.log1p(-n / edge) <= log_target:
        return _tail_cutoff(n, log_target)
    x = max(-log_target, 2.0 * edge)
    for _ in range(100):
        log_c, slope = _two_term(x, n, s0, s1, cut)
        last, x = x, max(x - (log_c - log_target) / slope, lo, 0.5 * (x + x_s))
        if abs(x - last) <= 1e-9 * last:
            break
    return min(x, _tail_cutoff(n, log_target)) if log_c > n * math.log(last) - last else x


def beta_quadrature(t: float, config: BathConfig,
                    profile: Optional[PhaseProfile] = None,
                    tol: float = 1e-10,
                    omega_max: Optional[float] = None) -> QuadratureResult:
    """beta(t) by adaptive quadrature over frequency, any profile and ohmicity.

    A profile, if given, replaces the config's profile kind and delay.  With
    a = 1 - e^-2Dt, beta is gamma n! a (the smooth part), plus beta_integrand's
    g cos phi over [0, W], plus the tail, by parts twice (h = g / phi', k = h' / phi'):

        int_W^inf g cos phi = -h sin phi(W) - k cos phi(W) - int_W^inf k' cos phi,

    whose remainder is at most 2 |m(W)|, m = k'/phi', where m keeps its sign and falls
    in size on [W, inf).  In x = w / cutoff, with G = gamma e^-2Dt a x^n e^-x and
    r = cutoff (s0 + s1 W) = |phi'| / 2, 4 |m| = G'' / r^3 - 3 G' r' / r^4 + 3 G r'^2 / r^5;
    past the stationary point (r > 0, r' >= 0) and n + 2 sqrt(n), each term is nonnegative
    and falls: -G' = e^-x x^(n-1) (x - n) from n + sqrt(n), and G'' = e^-x x^(n-2)
    ((x - n)^2 - n) where y^3 - 3 n y - 2 n > 0, y = x - n.  The tail is charged the least
    bound that holds at W: that one, with the two terms; G / r = 2 g / |phi'| (x >= n,
    r > 0); gamma e^-2Dt a Gamma(n + 1, x).  W, unless omega_max fixes it, is where the
    bound is tol / 10 (_osc_cutoff).  The error adds the panels', the tail's and 5 eps gamma
    n! a, the smooth part's rounding (-expm1 in an ulp; its argument, n! and two products
    eps / 2 each; eps per sum, at most twice it).  ConvergenceError, with the best estimate
    attached, if the first two miss tol or the integrand or its phase bound overflows.  At
    an oscillating weight gamma e^-2Dt a n! <= tol / 10, the smooth part is returned with
    that weight and its rounding as its error."""
    if profile is not None:
        config = dataclasses.replace(config, phase_profile=profile.kind,
                                     phase_lambda=profile.lam)
    if not t >= 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if omega_max is not None and not 0 < omega_max < math.inf:
        raise ValueError(f"omega_max must be finite and positive, got {omega_max}")
    n, cut, lam = config.ohmicity, config.cutoff, config.phase_lambda
    a = -math.expm1(-2.0 * config.diffusion * t)
    smooth = config.gamma * (math.factorial(n) * a)
    rounding = 5.0 * _EPS * smooth
    amp = math.exp(-2.0 * config.diffusion * t) * a  # e^-2Dt - e^-4Dt
    whole = config.gamma * amp * math.factorial(n)  # the Gamma bound at W = 0
    if whole <= _TAIL_SHARE * tol:
        return QuadratureResult(smooth, whole + rounding, subdivisions=0, converged=True)
    log_scale = math.log(config.gamma) + math.log(amp)
    # phi'(w) / 2 = t + theta'(w) = sign (s0 + s1 w), with s0 + s1 w > 0 wherever
    # |phi'| does not fall, and |phi'| <= 2 |s0| + 2 s1 w everywhere
    linear = config.phase_profile == "linear"
    s0, s1, sign = (abs(t - lam), 0.0, math.copysign(1.0, t - lam)) if linear else (-t, 2 * lam, -1)
    if omega_max is None:  # x as found, so that rounding W / cutoff keeps it past any edge
        x = _osc_cutoff(n, math.log(_TAIL_SHARE) + math.log(tol) - log_scale, s0, s1, cut)
        omega_max = cut * x
    else:
        x = omega_max / cut
    # |2 (w t + theta(w))| <= 2 (W t + |theta(W)|) on [0, W]: refused by name, not warned of
    reach = omega_max * (1.0 if linear else omega_max)
    if omega_max < math.inf and not math.isfinite(2.0 * (omega_max * t + lam * reach)):
        raise ConvergenceError(f"beta({t}) quadrature failed: the phase bound 2 (w t + "
                               f"|theta(w)|) takes a non-finite value at x = W = {omega_max!r}")
    try:
        res = integrate_semi_infinite(
            lambda w: beta_integrand(w, t, config), upper=omega_max,
            tol=(1.0 - _TAIL_SHARE) * tol, rate=2.0 * abs(s0), chirp=2.0 * s1)
    except ValueError as exc:  # the integrand overflowed
        raise ConvergenceError(f"beta({t}) quadrature failed: {exc}") from exc
    log_g = log_scale + n * math.log(x) - x  # log G(x), below the Gamma bound
    log_tail, terms, u = math.inf, 0.0, s0 + s1 * cut * x
    if x >= n and u > 0.0:
        log_r = math.log(cut) + math.log(u)
        log_tail = log_g - log_r
        log_c = log_scale + _two_term(x, n, s0, s1, cut)[0] \
            if x >= n + 2.0 * math.sqrt(n) else math.inf
        if log_c < log_tail:
            log_tail, phase = log_c, 2.0 * (omega_max * t - lam * reach)
            terms = -(sign * 0.5 * math.exp(log_g - log_r) * math.sin(phase) + 0.25 * math.exp(
                log_g - 2.0 * log_r) * (n / x - 1.0 - s1 * cut / u) * math.cos(phase))
    if log_tail > log_g and (log_gamma := log_scale + _log_upper_gamma(n, x)) < log_tail:
        log_tail, terms = log_gamma, 0.0
    error = res.error + math.exp(log_tail)
    res = QuadratureResult(value=smooth + res.value + terms, error=error + rounding,
                           subdivisions=res.subdivisions, converged=error <= tol)
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
    if not (ta >= 0).all():  # cheaper than np.all; the GP calls this per panel batch
        raise ValueError(f"times must be >= 0, got {ta[~(ta >= 0)][0]}")
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
    i = np.flatnonzero((v[1:-1] < v[:-2]) & (v[1:-1] < v[2:])) + 1
    # each flank's height, max(v[:i + 1]) and max(v[i:]), as a running maximum
    flank = np.minimum(np.maximum.accumulate(v)[i], np.maximum.accumulate(v[::-1])[::-1][i])
    prominence = flank - v[i]
    keep = ~(prominence <= 2.0 * curve.errors[i])  # a NaN error does not reject
    if not keep.any():
        return None
    k = np.argmax(np.where(keep, prominence, -np.inf))  # the first of the largest
    return DipReport(index=int(i[k]), time=float(curve.times[i[k]]),
                     value=float(v[i[k]]), prominence=float(prominence[k]))
