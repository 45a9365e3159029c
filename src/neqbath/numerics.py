"""Deterministic adaptive quadrature.

Everything here is fixed-order Gauss-Kronrod panel integration.  No
randomness, no environment dependence: identical inputs give
bitwise-identical outputs.
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


# 15-point Kronrod extension of 7-point Gauss (nonneg abscissae, descending).
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

# sorted node layout on [-1, 1]; Gauss-7 sits at the odd indices
_NODES = np.concatenate([-_XGK[:7], [0.0], _XGK[6::-1]])
_WK_FULL = np.concatenate([_WGK[:7], [_WGK[7]], _WGK[6::-1]])
_WG_FULL = np.array([_WG[0], _WG[1], _WG[2], _WG[3], _WG[2], _WG[1], _WG[0]])

_MAX_INITIAL_PANELS = 8192
_MAX_PANELS = 10_000  # refinement stops here; an initial partition may exceed it


def _eval_panels(f: Callable, a: np.ndarray, b: np.ndarray):
    """Gauss-Kronrod on each [a_i, b_i]: (K15, |K15-G7|), panels on the last axis."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    pts = c[:, None] + h[:, None] * _NODES[None, :]
    vals = np.asarray(f(pts.ravel()), dtype=float)
    vals = vals.reshape(vals.shape[:-1] + pts.shape)
    if not np.all(np.isfinite(vals)):
        bad = ~np.isfinite(vals).reshape(-1, pts.size).all(axis=0)
        x = float(pts.ravel()[np.argmax(bad)])  # the first bad node
        raise ValueError(f"integrand returned a non-finite value at x = {x!r}")
    k15 = h * (vals @ _WK_FULL)
    g7 = h * (vals[..., 1::2] @ _WG_FULL)
    return k15, np.abs(k15 - g7)


def _adapt(f, a, b, tol):
    k15, err = _eval_panels(f, a, b)
    while True:
        n = len(a)
        if np.all(err.sum(axis=-1) <= tol) or n >= _MAX_PANELS:
            break
        # split every panel above its fair share of the budget in any
        # component; always split the worst one so progress is guaranteed
        peak = err.reshape(-1, n).max(axis=0)
        sel = peak > tol / (2.0 * n)
        if not sel.any():
            sel = peak == peak.max()
        idx = np.flatnonzero(sel)
        if n + len(idx) > _MAX_PANELS:
            order = np.argsort(peak[idx])[::-1]
            idx = idx[order[: _MAX_PANELS - n]]
            if len(idx) == 0:
                break
        mid = 0.5 * (a[idx] + b[idx])
        new_a = np.concatenate([a[idx], mid])
        new_b = np.concatenate([mid, b[idx]])
        new_k, new_e = _eval_panels(f, new_a, new_b)
        keep = np.ones(n, dtype=bool)
        keep[idx] = False
        a = np.concatenate([a[keep], new_a])
        b = np.concatenate([b[keep], new_b])
        k15 = np.concatenate([k15[..., keep], new_k], axis=-1)
        err = np.concatenate([err[..., keep], new_e], axis=-1)
    value, total_err = (k15.sum(axis=-1), err.sum(axis=-1)) if err.ndim > 1 \
        else (float(k15.sum()), float(err.sum()))
    return QuadratureResult(
        value=value,
        error=total_err,
        subdivisions=len(a),
        converged=bool(np.all(total_err <= tol)),
    )


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
    if not b > a:
        raise ValueError("integration interval must satisfy b > a")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    edges = np.linspace(a, b, 9)  # 8 equal initial panels
    return _adapt(f, edges[:-1], edges[1:], tol)


def _initial_edges(upper: float, period_hint: Optional[float], chirp: float) -> np.ndarray:
    """Panel edges on [0, upper] for local angular frequency k0 + chirp w.

    Panels are w0 = min(upper / 64, period_hint) wide while one local
    period, 2 pi / k(a) at the left edge a, exceeds w0; then 2 pi apart
    in the phase k0 w + chirp w^2 / 2 while that cap exceeds the floor
    upper / 8192; then floor-wide, which bounds their number.  _adapt
    splits them where G7 and K15 disagree.
    """
    floor = upper / _MAX_INITIAL_PANELS
    k0 = 2.0 * math.pi / period_hint if period_hint is not None and period_hint > 0 else 0.0
    w0 = max(min(upper / 64.0, 2.0 * math.pi / k0 if k0 else upper), floor)
    a1 = a2 = upper
    if chirp > 0:
        a1 = min(max((2.0 * math.pi / w0 - k0) / chirp, 0.0), upper)
        a2 = min(max((2.0 * math.pi / floor - k0) / chirp, a1), upper)
    p1 = a1 * (k0 + 0.5 * chirp * a1)
    p2 = a2 * (k0 + 0.5 * chirp * a2)
    phase = p1 + 2.0 * math.pi * np.arange(math.ceil((p2 - p1) / (2.0 * math.pi)))
    return np.unique(np.concatenate([
        w0 * np.arange(math.ceil(a1 / w0)),
        # root of chirp w^2 / 2 + k0 w = phase without cancellation
        2.0 * phase / (k0 + np.sqrt(k0 * k0 + 2.0 * chirp * phase)),
        a2 + floor * np.arange(math.ceil((upper - a2) / floor)),
        [upper],
    ]))


def integrate_semi_infinite(
    f: Callable,
    upper: float,
    tol: float = 1e-10,
    period_hint: Optional[float] = None,
    chirp: float = 0.0,
) -> QuadratureResult:
    """Integral of f over [0, upper], tuned for oscillatory tails.

    upper: truncation point; the error covers [0, upper] only, so a
        caller truncating an infinite range adds its own tail bound.
    period_hint, chirp: f oscillates with period period_hint at 0 and its angular
        frequency grows at rate chirp; initial panels span one local period (_initial_edges).
    Refinement stops at _MAX_PANELS panels.
    """
    if upper <= 0:
        raise ValueError("upper must be positive")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    edges = _initial_edges(upper, period_hint, chirp)
    return _adapt(f, edges[:-1], edges[1:], tol)
