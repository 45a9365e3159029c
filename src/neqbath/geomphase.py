"""Non-unitary geometric phase of the dephasing qubit.

Over one quasi-cycle of duration 2 pi / Omega the qubit density matrix
keeps its populations while the coherence shrinks by F(t).  The larger
eigenvalue eps_+ of the density matrix defines an instantaneous Bloch
direction through its eigenvector, parametrized here by the spinor
half-angle theta_+ (so F = 1 gives theta_+ = theta0 / 2).  The phase
accumulated by that eigenvector,

    phi_G = Omega * int_0^{2 pi / Omega} cos(theta_+(t))^2 dt,

reduces to the unitary value phi_U = pi (1 + cos theta0) when the bath
is off.  The decoherence-induced correction delta = phi_G - phi_U is
computed directly as the integral of cos(theta_+)^2 - cos(theta0/2)^2,
which keeps small corrections accurate instead of subtracting two
nearly equal phases.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bath import BathConfig
from .dephasing import beta_values
from .numerics import ConvergenceError, integrate_finite

__all__ = [
    "GPResult",
    "SurfaceResult",
    "LambdaSweepResult",
    "bloch_angle",
    "geometric_phase",
    "unitary_phase",
    "first_order_coefficient",
    "first_order_correction",
    "perturbative_correction",
    "gp_surface",
    "gp_lambda_sweep",
    "gamma_comparison",
]


@dataclass(frozen=True)
class GPResult:
    """Geometric phase over one quasi-cycle.

    delta is computed directly (not as a difference of phi_g and phi_u)
    and tol is the achieved integration error on it.
    """

    phi_g: float
    phi_u: float
    delta: float
    tol: float


@dataclass(frozen=True)
class SurfaceResult:
    """Relative GP degradation |delta| / phi_u over (theta0, gamma).

    theta0 = pi has phi_u = 0; the ratio is undefined there and stored
    as NaN.
    """

    theta0: np.ndarray
    gamma: np.ndarray
    ratio: np.ndarray  # shape (len(theta0), len(gamma))
    delta_abs: np.ndarray


@dataclass(frozen=True)
class LambdaSweepResult:
    """|delta| over (theta0, lambda) plus a per-theta0 monotonicity check.

    monotone[i] is True when |delta| is nonincreasing along lambda for
    theta0[i] (up to slack); max_increase[i] is the largest upward step
    observed, for reporting when it is not.
    """

    theta0: np.ndarray
    lam: np.ndarray
    delta_abs: np.ndarray
    monotone: np.ndarray
    max_increase: np.ndarray


def _theta0_of(state: float) -> float:
    """The polar angle theta0 of the initial pure state
    cos(theta0/2)|0> + sin(theta0/2)|1>, checked to lie in [0, pi]."""
    theta0 = float(state)
    if not 0.0 <= theta0 <= math.pi:
        raise ValueError(f"theta0 must lie in [0, pi], got {theta0}")
    return theta0


def bloch_angle(factor, state: float):
    """(cos theta_+, sin theta_+) of the + eigenvector's half-angle.

    Written to avoid the cancellation in eps_+ - cos(theta0/2)^2 when
    cos(theta0) >= 0, and with the F -> 0 and polar limits pinned to
    their analytic values instead of 0/0.
    """
    theta0 = _theta0_of(state)
    f = np.asarray(factor, dtype=float)
    if np.any(f < 0) or np.any(f > 1):
        raise ValueError("decoherence factor must lie in [0, 1]")
    c = math.cos(theta0)
    s = math.sin(theta0)
    n = s * f
    r = np.hypot(c, n)
    if c >= 0:
        # d = (r - c)/2 rationalized: s^2 F^2 / (2 (r + c))
        rc = r + c
        d = np.where(rc > 0, 0.5 * n * n / np.where(rc > 0, rc, 1.0), 0.0)
    else:
        d = 0.5 * (r - c)
    # hypot keeps the ratio exact even when n^2 underflows (tiny theta0)
    den = np.hypot(n, 2.0 * d)
    safe = den > 0
    # den = 0 only with F = 0 (or theta0 = 0); the eigenvector is then
    # +z whenever the residual cos(theta0) is positive (float cos of
    # pi/2 is 6e-17, so real angles always land here), with the exact
    # equator kept as a defensive branch
    if c > 0:
        cos_fill, sin_fill = 1.0, 0.0
    elif c < 0:
        cos_fill, sin_fill = 0.0, 1.0  # unreachable: d > 0 there
    else:
        cos_fill = sin_fill = math.sqrt(0.5)
    cosp = np.where(safe, n / np.where(safe, den, 1.0), cos_fill)
    sinp = np.where(safe, 2.0 * d / np.where(safe, den, 1.0), sin_fill)
    if np.isscalar(factor) or np.ndim(factor) == 0:
        return float(cosp), float(sinp)
    return cosp, sinp


def unitary_phase(state: float) -> float:
    """GP of the bare quasi-cycle: pi (1 + cos theta0)."""
    return math.pi * (1.0 + math.cos(_theta0_of(state)))


def _cycle_corrections(config: BathConfig, theta0: float, gammas,
                       tol: float):
    """Cycle corrections delta = Omega * int (cos(theta_+)^2 - cos(theta0/2)^2) dt
    and their errors, to absolute tol, for every coupling in gammas at once.

    beta is linear in gamma: each node batch takes beta once, at gamma = 1
    and tol 1e-12 / max gamma.  Couplings 0, and all of them at D = 0, give 0.
    """
    g = np.asarray(gammas, dtype=float)
    if not np.all(np.isfinite(g) & (g >= 0)):
        raise ValueError(f"gamma must be finite and >= 0, got {g}")
    delta, err = np.zeros(len(g)), np.zeros(len(g))
    live = (g > 0) & (config.diffusion > 0)
    if not live.any():
        return delta, err
    unit = dataclasses.replace(config, gamma=1.0)
    col = g[live][:, None]
    base = math.cos(0.5 * theta0) ** 2

    def integrand(ts):
        with np.errstate(over="ignore"):  # gamma beta past the largest double: F = 0
            beta = col * beta_values(ts, unit, 1e-12 / col.max())[0]
        cosp, _ = bloch_angle(np.exp(-beta), theta0)
        return config.omega * (cosp * cosp - base)

    res = integrate_finite(integrand, 0.0, 2.0 * math.pi / config.omega, tol=tol)
    if not res.converged:
        raise ConvergenceError(
            f"geometric-phase integral stalled at error {res.error.max():.3e}",
            result=res,
        )
    delta[live], err[live] = res.value, res.error
    return delta, err


def geometric_phase(config: BathConfig, state: float,
                    tol: float = 1e-9) -> GPResult:
    """GP of one quasi-cycle with the bath on.

    phi_g is phi_u plus the correction delta of _cycle_corrections, to
    absolute tolerance tol; the polar states theta0 = 0, pi get delta = 0.
    """
    theta0 = _theta0_of(state)
    delta, err = _cycle_corrections(config, theta0, [config.gamma], tol)
    phi_u = unitary_phase(theta0)
    return GPResult(phi_g=phi_u + float(delta[0]), phi_u=phi_u,
                    delta=float(delta[0]), tol=float(err[0]))


def first_order_coefficient(config: BathConfig) -> float:
    """Exact small-gamma slope C of the GP correction, on every route.

    beta is linear in gamma and d cos(theta_+)^2 / dF = -sin(theta0)^2
    cos(theta0) / 2 at F = 1, so

        delta = gamma * C * sin(theta0)^2 cos(theta0) + O(gamma^2),
        C = (Omega / 2) * int_0^{2 pi / Omega} beta(t) / gamma dt.

    The cycle integral is taken to 1e-12 on C with beta at gamma = 1,
    by the same closed-form or quadrature route as geometric_phase.
    """
    unit = dataclasses.replace(config, gamma=1.0)
    period = 2.0 * math.pi / config.omega
    res = integrate_finite(lambda ts: beta_values(ts, unit, 1e-12)[0], 0.0, period,
                           tol=2e-12 / config.omega)
    if not res.converged:
        raise ConvergenceError(
            f"first-order cycle integral stalled at error {res.error:.3e}",
            result=res,
        )
    return 0.5 * config.omega * res.value


def first_order_correction(config: BathConfig,
                           state: float) -> float:
    """First-order term gamma * C * sin(theta0)^2 cos(theta0) of delta.

    C is first_order_coefficient; this is the linear Taylor term of the
    exact correction in gamma, for every ohmicity and profile.
    """
    theta0 = _theta0_of(state)
    shape = math.sin(theta0) ** 2 * math.cos(theta0)
    if config.gamma == 0.0 or shape == 0.0:
        return 0.0
    return config.gamma * first_order_coefficient(config) * shape


def perturbative_correction(config: BathConfig,
                            state: float) -> float:
    """The paper's closed-form first-order prediction of the correction.

    delta ~ gamma * C_n * sin(theta0)^2 cos(theta0) with the cycle
    coefficient

        C_1 = pi + Omega D exp(-2 D lam) / cutoff^2
        C_3 = 6 pi + Omega D^3 exp(-2 D lam) / (4 cutoff^4)

    This is the paper's asymptotic coefficient, the quantity plotted
    against the exact correction in the comparison experiments.  It
    shares the D / Omega -> infinity limit (pi, 6 pi) of the exact
    first-order coefficient C of first_order_coefficient, but at finite
    D / Omega it lies above C, at every gamma: at D = cutoff = lambda =
    Omega = 1 by 12.4% (n = 1) and 8.9% (n = 3); at D / Omega = 100 by
    less than 0.1%.  first_order_correction gives the exact first-order
    term.  Other ohmicities have no tabulated coefficient here.
    """
    theta0 = _theta0_of(state)
    d = config.diffusion
    lam = config.phase_lambda
    c = config.cutoff  # divided out, not raised: float ** overflows, c**2 can reach 0
    if config.ohmicity == 1:
        coeff = math.pi + config.omega * d * math.exp(-2.0 * d * lam) / c / c
    elif config.ohmicity == 3:
        coeff = 6.0 * math.pi + config.omega * d * d * d * math.exp(-2.0 * d * lam) \
            / 4.0 / c / c / c / c
    else:
        raise ValueError(
            f"no first-order coefficient for ohmicity {config.ohmicity}; "
            "supported: 1, 3"
        )
    return config.gamma * coeff * math.sin(theta0) ** 2 * math.cos(theta0)


def gp_surface(config: BathConfig, theta0_grid: Sequence[float],
               gamma_grid: Sequence[float],
               tol: float = 1e-9) -> SurfaceResult:
    """Relative GP degradation over a (theta0, gamma) grid.

    Rows where phi_u vanishes (theta0 = pi) get NaN ratios; callers that
    serialize the surface are expected to flag them rather than drop
    them.
    """
    th = np.asarray(theta0_grid, dtype=float)
    ga = np.asarray(gamma_grid, dtype=float)
    delta_abs = np.empty((len(th), len(ga)))
    ratio = np.empty_like(delta_abs)
    for i, t0 in enumerate(th):
        # one cycle integral per row: every gamma from the same beta nodes
        delta_abs[i] = np.abs(_cycle_corrections(config, _theta0_of(t0), ga, tol)[0])
        phi_u = unitary_phase(t0)
        ratio[i] = delta_abs[i] / phi_u if phi_u > 0 else np.nan
    return SurfaceResult(theta0=th, gamma=ga, ratio=ratio, delta_abs=delta_abs)


def gp_lambda_sweep(config: BathConfig, theta0_grid: Sequence[float],
                    lambda_grid: Sequence[float],
                    tol: float = 1e-9,
                    slack: float = 1e-9) -> LambdaSweepResult:
    """|delta| as the profile delay lambda varies, per initial state.

    Uses the config's phase profile with the swept delay.  The monotone flags
    record whether degradation only weakens as the delay grows; the
    sweep reports rather than enforces this.  At gamma = 3, D = 0.1 the
    exact curves rise from lambda = 0 to a peak at lambda = 0.75-1.5
    (a quarter of the 2 pi cycle or less), fall to a minimum near
    lambda = 3.75-4, and for theta0 = pi/8 and pi/4 rise again by
    lambda = 5 (TestLambdaSweep::test_reports_nonmonotonicity_honestly).
    """
    th = np.asarray(theta0_grid, dtype=float)
    lams = np.asarray(lambda_grid, dtype=float)
    if len(lams) >= 2 and np.any(np.diff(lams) <= 0):
        raise ValueError("lambda_grid must be strictly increasing")
    delta_abs = np.empty((len(th), len(lams)))
    for j, lam in enumerate(lams):
        cfg = dataclasses.replace(config, phase_lambda=float(lam))
        for i, t0 in enumerate(th):
            res = geometric_phase(cfg, float(t0), tol=tol)
            delta_abs[i, j] = abs(res.delta)
    steps = np.diff(delta_abs, axis=1)
    monotone = np.all(steps <= slack, axis=1)
    max_increase = np.maximum(steps.max(axis=1, initial=0.0), 0.0)
    return LambdaSweepResult(theta0=th, lam=lams, delta_abs=delta_abs,
                             monotone=monotone, max_increase=max_increase)


def gamma_comparison(config: BathConfig, state: float,
                     gamma_grid: Sequence[float],
                     tol: float = 1e-9):
    """(gamma, exact phi_g, first-order phi_g) arrays for one state.

    The first-order column is phi_u + perturbative_correction, the
    curve the exact one should hug at small gamma and peel away from
    as gamma grows.
    """
    theta0 = _theta0_of(state)
    ga = np.asarray(gamma_grid, dtype=float)
    phi_u = unitary_phase(theta0)
    pred = np.array([phi_u + perturbative_correction(
        dataclasses.replace(config, gamma=float(g)), theta0) for g in ga])
    exact = phi_u + _cycle_corrections(config, theta0, ga, tol)[0]
    return ga, exact, pred
