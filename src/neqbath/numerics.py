"""Deterministic adaptive quadrature.

Adaptive panel integration with one fixed rule, QUADPACK's G20/K41
Gauss-Kronrod pair with its rounding floor.  No randomness, no environment
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


# QUADPACK's qk41: 41-point Kronrod extension of 20-point Gauss (nonneg abscissae, descending)
_XGK = np.array([
    0.998859031588277663838315576545863, 0.993128599185094924786122388471320,
    0.981507877450250259193342994720217, 0.963971927277913791267666131197277,
    0.940822633831754753519982722212443, 0.912234428251325905867752441203298,
    0.878276811252281976077442995113078, 0.839116971822218823394529061701521,
    0.795041428837551198350638833272788, 0.746331906460150792614305070355642,
    0.693237656334751384805490711845932, 0.636053680726515025452836696226286,
    0.575140446819710315342946036586425, 0.510867001950827098004364050955251,
    0.443593175238725103199992213492640, 0.373706088715419560672548177024927,
    0.301627868114913004320555356858592, 0.227785851141645078080496195368575,
    0.152605465240922675505220241022678, 0.076526521133497333754640409398838,
    0.000000000000000000000000000000000])
_WGK = np.array([
    0.003073583718520531501218293246031, 0.008600269855642942198661787950102,
    0.014626169256971252983787960308868, 0.020388373461266523598010231432755,
    0.025882133604951158834505067096153, 0.031287306777032798958543119323801,
    0.036600169758200798030557240707211, 0.041668873327973686263788305936895,
    0.046434821867497674720231880926108, 0.050944573923728691932707670050345,
    0.055195105348285994744832372419777, 0.059111400880639572374967220648594,
    0.062653237554781168025870122174255, 0.065834597133618422111563556969398,
    0.068648672928521619345623411885368, 0.071054423553444068305790361723210,
    0.073030690332786667495189417658913, 0.074582875400499188986581418362488,
    0.075704497684556674659542775376617, 0.076377867672080736705502835038061,
    0.076600711917999656445049901530102])
_WG = np.array([
    0.017614007139152118311861962351853, 0.040601429800386941331039952274932,
    0.062672048334109063569506535187042, 0.083276741576704748724758143222046,
    0.101930119817240435036750135480350, 0.118194531961518417312377377711382,
    0.131688638449176626898494499748163, 0.142096109318382051329298325067165,
    0.149172986472603746787828737001969, 0.152753387130725850698084331955098])

# sorted node layout on [-1, 1]; Gauss-20 sits at the odd indices
_NODES = np.concatenate([-_XGK, _XGK[-2::-1]])
_WK_FULL = np.concatenate([_WGK, _WGK[-2::-1]])
_WG_FULL = np.concatenate([_WG, _WG[::-1]])

_MAX_INITIAL_PANELS = 8192
_MAX_PANELS = 10_000  # refinement stops here; an initial partition may exceed it
_PERIODS = 8  # local periods per initial panel (fewest integrand points)
_ROUNDING = 50.0 * np.finfo(float).eps  # QUADPACK's floor, times K41 on |f| (per component)


def _eval_panels(f: Callable, a: np.ndarray, b: np.ndarray):
    """Gauss-Kronrod on each [a_i, b_i]: (K41, |K41-G20| + _ROUNDING int |f|), panels last."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    pts = c[:, None] + h[:, None] * _NODES[None, :]
    vals = np.asarray(f(pts.ravel()), dtype=float)
    vals = vals.reshape(vals.shape[:-1] + pts.shape)
    with np.errstate(invalid="ignore"):  # inf - inf is reported below
        k41 = h * (vals @ _WK_FULL)
        g20 = h * (vals[..., 1::2] @ _WG_FULL)
    # a non-finite node makes its panel's sum non-finite: scan vals only then
    if not np.isfinite(k41).all():
        bad = ~np.isfinite(vals).reshape(-1, pts.size).all(axis=0)
        if bad.any():
            x = float(pts.ravel()[np.argmax(bad)])  # the first bad node
            raise ValueError(f"integrand returned a non-finite value at x = {x!r}")
    return k41, np.abs(k41 - g20) + _ROUNDING * h * (np.abs(vals) @ _WK_FULL)


def _adapt(f, a, b, tol):
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    k41, err = _eval_panels(f, a, b)
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
        k41 = np.concatenate([k41[..., keep], new_k], axis=-1)
        err = np.concatenate([err[..., keep], new_e], axis=-1)
    if vector:
        return QuadratureResult(k41.sum(axis=-1), total, len(a), bool((total <= tol).all()))
    total = float(total)
    return QuadratureResult(float(k41.sum()), total, len(a), total <= tol)


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
    edges = np.linspace(a, b, 5)  # 4 equal initial panels
    return _adapt(f, edges[:-1], edges[1:], tol)


def _initial_edges(upper: float, rate: float, chirp: float) -> np.ndarray:
    """Panel edges on [0, upper] for local angular frequency rate + chirp w.

    Every panel spans at most _PERIODS local periods, 2 pi _PERIODS /
    (rate + chirp a) at its left edge a: panels are w0 = min(upper / 32,
    2 pi _PERIODS / rate) wide while that cap exceeds w0 (32 equal panels
    if rate = chirp = 0); then 2 pi _PERIODS apart in the phase rate w +
    chirp w^2 / 2 while it exceeds the floor upper / 8192; then floor-wide,
    which bounds their number.  _adapt splits them where G20 and K41 disagree.
    """
    floor = upper / _MAX_INITIAL_PANELS
    step = 2.0 * math.pi * _PERIODS  # phase across one panel
    w0 = max(min(upper / 32.0, step / rate if rate else upper), floor)
    a1 = a2 = upper
    if chirp > 0:
        a1 = min(max((step / w0 - rate) / chirp, 0.0), upper)
        a2 = min(max((step / floor - rate) / chirp, a1), upper)
    pieces = [w0 * np.arange(math.ceil(a1 / w0))]
    if a2 > a1:
        p1 = a1 * (rate + 0.5 * chirp * a1)
        phase = p1 + step * np.arange(math.ceil((a2 * (rate + 0.5 * chirp * a2) - p1) / step))
        # root of chirp w^2 / 2 + rate w = phase without cancellation
        pieces.append(2.0 * phase / (rate + np.sqrt(rate * rate + 2.0 * chirp * phase)))
    if a2 < upper:
        pieces.append(a2 + floor * np.arange(math.ceil((upper - a2) / floor)))
    pieces = [p for p in pieces if len(p)] + [np.array([upper])]
    edges = np.concatenate(pieces)
    # each piece rises by at least the floor: only at a1, a2 or upper can rounding put an
    # edge on or past the next one, and only then are the edges sorted and made unique
    return np.unique(edges) if any(p[-1] >= q[0] for p, q in zip(pieces, pieces[1:])) else edges


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
