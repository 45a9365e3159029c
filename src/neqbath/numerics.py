"""Deterministic adaptive quadrature.

Everything here is adaptive panel integration with one fixed rule,
QUADPACK's G10/K21 Gauss-Kronrod pair.  No randomness, no environment
dependence: identical inputs give bitwise-identical outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

__all__ = [
    "QuadratureResult",
    "ConvergenceError",
    "integrate_finite",
    "integrate_semi_infinite",
]


@dataclass(frozen=True)
class QuadratureResult:
    """Outcome of an adaptive panel integration.

    value: best estimate of the integral, shape (m,) for m integrands
    error: sum of per-panel error estimates (abs scale), shaped as value
    subdivisions: number of panels in the final partition
    converged: True iff error <= requested tolerance, for every integrand
    """

    value: Union[float, np.ndarray]
    error: Union[float, np.ndarray]
    subdivisions: int
    converged: bool


class ConvergenceError(RuntimeError):
    """Raised by callers that require a converged result.

    Carries the best available estimate so downstream code can still
    report partial output.
    """

    def __init__(self, message: str, result: Optional[QuadratureResult] = None):
        super().__init__(message)
        self.result = result


# QUADPACK's qk21: 21-point Kronrod extension of 10-point Gauss (nonneg abscissae, descending)
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.000000000000000000000000000000000])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338])

# sorted node layout on [-1, 1]; Gauss-10 sits at the odd indices
_NODES = np.concatenate([-_XGK, _XGK[-2::-1]])
_WK_FULL = np.concatenate([_WGK, _WGK[-2::-1]])
_WG_FULL = np.concatenate([_WG, _WG[::-1]])

_MAX_INITIAL_PANELS = 8192
_MAX_PANELS = 10_000  # refinement stops here; an initial partition may exceed it
_PERIODS = 3  # local periods per initial panel (fewest integrand points)


def _eval_panels(f: Callable, a: np.ndarray, b: np.ndarray):
    """Gauss-Kronrod on each [a_i, b_i]: (K21, |K21-G10|), panels on the last axis."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    pts = c[:, None] + h[:, None] * _NODES[None, :]
    vals = np.asarray(f(pts.ravel()), dtype=float)
    vals = vals.reshape(vals.shape[:-1] + pts.shape)
    with np.errstate(invalid="ignore"):  # inf - inf is reported below
        k21 = h * (vals @ _WK_FULL)
        g10 = h * (vals[..., 1::2] @ _WG_FULL)
    # a non-finite node makes its panel's sum non-finite: scan vals only then
    if not np.isfinite(k21).all():
        bad = ~np.isfinite(vals).reshape(-1, pts.size).all(axis=0)
        if bad.any():
            x = float(pts.ravel()[np.argmax(bad)])  # the first bad node
            raise ValueError(f"integrand returned a non-finite value at x = {x!r}")
    return k21, np.abs(k21 - g10)


def _adapt(f, a, b, tol):
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    k21, err = _eval_panels(f, a, b)
    vector = err.ndim > 1
    while True:
        n = len(a)
        total = err.sum(axis=-1)  # summed once per round, and kept for the result
        if ((total <= tol).all() if vector else float(total) <= tol) or n >= _MAX_PANELS:
            break
        # split every panel above its fair share of the budget in any component,
        # or NaN (overflowed sums): while a sum exceeds tol, some panel does
        peak = err.reshape(-1, n).max(axis=0)
        idx = np.flatnonzero(~(peak <= tol / (2.0 * n)))
        if n + len(idx) > _MAX_PANELS:
            idx = idx[np.argsort(peak[idx])[::-1][: _MAX_PANELS - n]]
        mid = 0.5 * (a[idx] + b[idx])
        new_a = np.concatenate([a[idx], mid])
        new_b = np.concatenate([mid, b[idx]])
        new_k, new_e = _eval_panels(f, new_a, new_b)
        keep = np.ones(n, dtype=bool)
        keep[idx] = False
        a = np.concatenate([a[keep], new_a])
        b = np.concatenate([b[keep], new_b])
        k21 = np.concatenate([k21[..., keep], new_k], axis=-1)
        err = np.concatenate([err[..., keep], new_e], axis=-1)
    if vector:
        return QuadratureResult(k21.sum(axis=-1), total, len(a), bool((total <= tol).all()))
    total = float(total)
    return QuadratureResult(float(k21.sum()), total, len(a), total <= tol)


def integrate_finite(
    f: Callable,
    a: float,
    b: float,
    tol: float = 1e-10,
) -> QuadratureResult:
    """Adaptive integral of f over [a, b] to absolute tolerance tol.

    f must accept a 1-D numpy array and return values elementwise, as
    shape (npts,) or (m, npts) for m integrands that each meet tol on
    one partition.  Never raises on non-convergence; inspect .converged.
    """
    if not -math.inf < a < b < math.inf:
        raise ValueError(f"integration interval must be finite with b > a, got [{a}, {b}]")
    edges = np.linspace(a, b, 9)  # 8 equal initial panels
    return _adapt(f, edges[:-1], edges[1:], tol)


def _initial_edges(upper: float, rate: float, chirp: float) -> np.ndarray:
    """Panel edges on [0, upper] for local angular frequency rate + chirp w.

    Every panel spans at most _PERIODS local periods, 2 pi _PERIODS /
    (rate + chirp a) at its left edge a: panels are w0 = min(upper / 64,
    2 pi _PERIODS / rate) wide while that cap exceeds w0 (64 equal panels
    if rate = chirp = 0); then 2 pi _PERIODS apart in the phase rate w +
    chirp w^2 / 2 while it exceeds the floor upper / 8192; then floor-wide,
    which bounds their number.  _adapt splits them where G10 and K21 disagree.
    """
    floor = upper / _MAX_INITIAL_PANELS
    step = 2.0 * math.pi * _PERIODS  # phase across one panel
    w0 = max(min(upper / 64.0, step / rate if rate else upper), floor)
    a1 = a2 = upper
    if chirp > 0:
        a1 = min(max((step / w0 - rate) / chirp, 0.0), upper)
        a2 = min(max((step / floor - rate) / chirp, a1), upper)
    p1 = a1 * (rate + 0.5 * chirp * a1)
    p2 = a2 * (rate + 0.5 * chirp * a2)
    phase = p1 + step * np.arange(math.ceil((p2 - p1) / step))
    edges = np.sort(np.concatenate([
        w0 * np.arange(math.ceil(a1 / w0)),
        # root of chirp w^2 / 2 + rate w = phase without cancellation
        2.0 * phase / (rate + np.sqrt(rate * rate + 2.0 * chirp * phase)),
        a2 + floor * np.arange(math.ceil((upper - a2) / floor)),
        [upper],
    ]))
    keep = np.ones(len(edges), dtype=bool)
    keep[1:] = edges[1:] > edges[:-1]  # the first of equal edges, as np.unique
    return edges[keep]


def integrate_semi_infinite(
    f: Callable,
    upper: float,
    tol: float = 1e-10,
    rate: float = 0.0,
    chirp: float = 0.0,
) -> QuadratureResult:
    """Integral of f over [0, upper], tuned for oscillatory tails.

    upper: finite truncation point; the error covers [0, upper] only, so
        a caller truncating an infinite range adds its own tail bound.
    rate, chirp: f oscillates at angular frequency at most rate + chirp w;
        initial panels span _PERIODS local periods (0, 0: not oscillatory).
    Refinement stops at _MAX_PANELS panels.
    """
    if not 0 < upper < math.inf:
        raise ValueError(f"upper must be finite and positive, got {upper}")
    edges = _initial_edges(upper, rate, chirp)
    return _adapt(f, edges[:-1], edges[1:], tol)
