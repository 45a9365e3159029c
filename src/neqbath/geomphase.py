"""Non-unitary geometric phase of the dephasing qubit.

Times are in units of 1 / Omega, Omega being the drive frequency, so a
quasi-cycle lasts 2 pi.  Over it the qubit density matrix keeps its
populations while the coherence shrinks by F(t): its Bloch vector is
(sin(theta0) F, 0, cos(theta0)).  The eigenvector of the larger
eigenvalue eps_+ points along it, at the spinor half-angle
theta_+ = atan2(sin(theta0) F, cos(theta0)) / 2 (theta0 / 2 at F = 1).
The phase accumulated by that eigenvector,

    phi_G = int_0^{2 pi} cos(theta_+(t))^2 dt,

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
    and tol is the achieved integration error on it.  Each field is a
    float, or an array for an array of states.
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

    ratio: np.ndarray  # shape (len(theta0), len(gamma))
    delta_abs: np.ndarray


@dataclass(frozen=True)
class LambdaSweepResult:
    """|delta| over (theta0, lambda) plus a per-theta0 monotonicity check.

    monotone[i] is True when |delta| is nonincreasing along lambda for
    theta0[i] (up to slack); max_increase[i] is the largest upward step
    observed, for reporting when it is not.
    """

    delta_abs: np.ndarray
    monotone: np.ndarray
    max_increase: np.ndarray


def _theta0_of(state):
    """The polar angle theta0 of the initial pure state
    cos(theta0/2)|0> + sin(theta0/2)|1>, or an array of them, checked to
    lie in [0, pi]."""
    theta0 = np.asarray(state, dtype=float)
    bad = ~((0.0 <= theta0) & (theta0 <= math.pi))
    if bad.any():
        raise ValueError(f"theta0 must lie in [0, pi], got {theta0[bad][0]}")
    return theta0


def bloch_angle(factor, state):
    """cos theta_+, the cosine of the + eigenvector's half-angle.

    The density matrix has Bloch vector (sin(theta0) F, 0, cos(theta0)),
    so theta_+ = atan2(sin(theta0) F, cos(theta0)) / 2, with no 0/0 at
    F = 0 or at the poles.  state is a theta0 or an array of them that
    broadcasts against factor.
    """
    theta0 = _theta0_of(state)
    f = np.asarray(factor, dtype=float)
    if np.any(f < 0) or np.any(f > 1):
        raise ValueError("decoherence factor must lie in [0, 1]")
    return np.cos(0.5 * np.arctan2(np.sin(theta0) * f, np.cos(theta0)))


def unitary_phase(state):
    """GP of the bare quasi-cycle, pi (1 + cos theta0), elementwise."""
    return math.pi * (1.0 + np.cos(_theta0_of(state)))


_COMPONENTS = 1460  # live (theta0, gamma) pairs per cycle integral: bounds its node values


def _cycle_corrections(config: BathConfig, theta0s, gammas, tol: float):
    """Cycle corrections delta = int_0^{2 pi} (cos(theta_+)^2 - cos(theta0/2)^2) dt
    and their errors, to absolute tol, as (len(theta0s), len(gammas)) arrays.

    beta is independent of theta0 and linear in gamma: each node batch takes
    beta once, at gamma = 1 and tol 1e-12 / (the integral's largest gamma).
    The live (theta0, gamma) pairs, in row order, are cut into integrals of
    at most _COMPONENTS pairs.  Couplings 0, and all of them at D = 0, give 0.
    """
    th = _theta0_of(theta0s)
    g = np.asarray(gammas, dtype=float)
    if not np.all(np.isfinite(g) & (g >= 0)):
        raise ValueError(f"gamma must be finite and >= 0, got {g}")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    delta, err = np.zeros((len(th), len(g))), np.zeros((len(th), len(g)))
    rows, cols = np.nonzero(np.broadcast_to((g > 0) & (config.diffusion > 0), delta.shape))
    unit = dataclasses.replace(config, gamma=1.0)
    for start in range(0, len(rows), _COMPONENTS):
        i, j = rows[start:start + _COMPONENTS], cols[start:start + _COMPONENTS]
        theta0, gamma = th[i, None], g[j, None]

        def integrand(ts):
            with np.errstate(over="ignore"):  # gamma beta past the largest double: F = 0
                factor = np.exp(-gamma * beta_values(ts, unit, 1e-12 / gamma.max())[0])
            return bloch_angle(factor, theta0) ** 2 - np.cos(0.5 * theta0) ** 2

        res = integrate_finite(integrand, 0.0, 2.0 * math.pi, tol=tol)
        if not res.converged:
            raise ConvergenceError(
                f"geometric-phase integral stalled at error {res.error.max():.3e}",
                result=res,
            )
        delta[i, j], err[i, j] = res.value, res.error
    return delta, err


def geometric_phase(config: BathConfig, state,
                    tol: float = 1e-9) -> GPResult:
    """GP of one quasi-cycle with the bath on.

    phi_g is phi_u plus the correction delta of _cycle_corrections, to
    absolute tolerance tol; the polar states theta0 = 0, pi get delta = 0.
    A float state gives float fields; an array of states shares one
    integral and gives arrays of its shape.
    """
    th = np.asarray(state, dtype=float)
    delta, err = _cycle_corrections(config, th.ravel(), [config.gamma], tol)
    phi_u = unitary_phase(th.ravel())
    fields = [f.reshape(th.shape) for f in (phi_u + delta[:, 0], phi_u, delta[:, 0], err[:, 0])]
    return GPResult(*(map(float, fields) if th.ndim == 0 else fields))


def first_order_coefficient(config: BathConfig) -> float:
    """Exact small-gamma slope C of the GP correction, on every route.

    beta is linear in gamma and d cos(theta_+)^2 / dF = -sin(theta0)^2
    cos(theta0) / 2 at F = 1, so

        delta = gamma * C * sin(theta0)^2 cos(theta0) + O(gamma^2),
        C = (1/2) * int_0^{2 pi} beta(t) / gamma dt.

    The cycle integral is taken to 1e-12 on C with beta at gamma = 1,
    by the same closed-form or quadrature route as geometric_phase.
    """
    unit = dataclasses.replace(config, gamma=1.0)
    res = integrate_finite(lambda ts: beta_values(ts, unit, 1e-12)[0], 0.0, 2.0 * math.pi,
                           tol=2e-12)
    if not res.converged:
        raise ConvergenceError(
            f"first-order cycle integral stalled at error {res.error:.3e}",
            result=res,
        )
    return 0.5 * res.value


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
    coefficient, in units of the drive frequency (Omega = 1),

        C_1 = pi + D exp(-2 D lam) / cutoff^2
        C_3 = 6 pi + D^3 exp(-2 D lam) / (4 cutoff^4)

    This is the paper's asymptotic coefficient, the quantity plotted
    against the exact correction in the comparison experiments.  It
    shares the D -> infinity limit (pi, 6 pi) of the exact first-order
    coefficient C of first_order_coefficient, but at finite D it lies
    above C, at every gamma: at D = cutoff = lambda = 1 by 12.4%
    (n = 1) and 8.9% (n = 3); at D = 100 by less than 0.1%.
    first_order_correction gives the exact first-order term.  Other
    ohmicities have no tabulated coefficient here.
    """
    theta0 = _theta0_of(state)
    d = config.diffusion
    lam = config.phase_lambda
    c = config.cutoff  # divided out, not raised: float ** overflows, c**2 can reach 0
    if config.ohmicity == 1:
        coeff = math.pi + d * math.exp(-2.0 * d * lam) / c / c
    elif config.ohmicity == 3:
        coeff = 6.0 * math.pi + d * d * d * math.exp(-2.0 * d * lam) / 4.0 / c / c / c / c
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
    delta_abs = np.abs(_cycle_corrections(config, theta0_grid, gamma_grid, tol)[0])
    phi_u = unitary_phase(theta0_grid)
    # dividing by NaN leaves the phi_u = 0 rows NaN without a warning
    ratio = delta_abs / np.where(phi_u > 0, phi_u, np.nan)[:, None]
    return SurfaceResult(ratio=ratio, delta_abs=delta_abs)


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
    # beta is not linear in lambda: one cycle integral per delay, every theta0 in it
    delta_abs = np.empty((len(th), len(lams)))
    for j, lam in enumerate(lams):
        cfg = dataclasses.replace(config, phase_lambda=float(lam))
        delta_abs[:, j] = np.abs(geometric_phase(cfg, th, tol=tol).delta)
    steps = np.diff(delta_abs, axis=1)
    monotone = np.all(steps <= slack, axis=1)
    max_increase = np.maximum(steps.max(axis=1, initial=0.0), 0.0)
    return LambdaSweepResult(delta_abs=delta_abs, monotone=monotone,
                             max_increase=max_increase)


def gamma_comparison(config: BathConfig, state: float,
                     gamma_grid: Sequence[float],
                     tol: float = 1e-9):
    """(exact phi_g, first-order phi_g) arrays over gamma_grid for one state.

    The first-order column is phi_u + perturbative_correction, the
    curve the exact one should hug at small gamma and peel away from
    as gamma grows.
    """
    ga = np.asarray(gamma_grid, dtype=float)
    phi_u = unitary_phase(state)
    exact = phi_u + _cycle_corrections(config, [state], ga, tol)[0][0]
    # the first-order formula is linear in gamma
    pred = phi_u + ga * perturbative_correction(dataclasses.replace(config, gamma=1.0), state)
    return exact, pred
