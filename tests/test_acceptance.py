"""Acceptance battery: one test per release criterion.

Each test prints (and records in the terminal summary) a single verdict
line.  Criteria that the implementation cannot meet are asserted anyway,
with the measured numbers in the verdict line; see the repository notes
for the analysis of the red ones.
"""

import math
import time
import warnings

import numpy as np

import conftest
from finite_difference import finite_difference_curvature, finite_difference_slope
from neqbath.bath import BathConfig, PhaseDistribution, phase_distribution_eval
from neqbath.cli import main as cli_main
from neqbath.dephasing import (
    beta_closed,
    beta_quadrature,
    decoherence_factor,
    find_dip,
)
from neqbath.geomphase import (
    first_order_coefficient,
    first_order_correction,
    geometric_phase,
    gp_lambda_sweep,
    perturbative_correction,
)
from neqbath.montecarlo import (
    EnsembleConfig,
    mc_decoherence_factor,
    to_decoherence_curve,
)

STRONG = dict(gamma=3.0, cutoff=1.0, diffusion=0.5, phase_lambda=1.0)
WEAK = dict(gamma=0.5, cutoff=1.0, diffusion=0.1, phase_lambda=1.0)


def _criterion(num, name, ok, detail):
    line = f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} [{detail}]"
    print(line)
    conftest.VERDICTS.append(line)
    assert ok, line


def test_01_asymptotic_limits():
    t_late = 100.0 / STRONG["diffusion"]
    devs = {}
    for n, expo in ((1, -3.0), (3, -18.0)):
        cfg = BathConfig(ohmicity=n, **STRONG)
        got = decoherence_factor(np.array([t_late]), cfg).values[0]
        devs[n] = abs(got - math.exp(expo))
    ok = devs[1] < 1e-6 and devs[3] < 1e-6
    _criterion(1, "asymptotic-limits", ok,
               f"|F(200)-e^-3| = {devs[1]:.2e}, |F(200)-e^-18| = {devs[3]:.2e},"
               " tol 1e-6")


def test_02_closed_form_vs_quadrature():
    ts = np.linspace(0.0, 20.0, 201)
    start = time.perf_counter()
    worst = 0.0
    for n in (1, 3):
        for params in (STRONG, WEAK):
            cfg = BathConfig(ohmicity=n, **params)
            closed = beta_closed(ts, cfg)
            quad = np.array([beta_quadrature(t, cfg, tol=1e-11).value
                             for t in ts])
            worst = max(worst, float(np.max(np.abs(closed - quad))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 10.0
    _criterion(2, "closed-vs-quadrature", ok,
               f"max |beta_closed - beta_quad| = {worst:.2e} (tol 1e-8), "
               f"{elapsed:.1f} s (budget 10 s)")


def test_03_dip_location():
    # weak-coupling ohmic curve on the reference grid step 0.01
    cfg = BathConfig(ohmicity=1, **WEAK)
    ts = np.linspace(0.0, 10.0, 1001)
    dip = find_dip(decoherence_factor(ts, cfg))
    if dip is None:
        _criterion(3, "dip-location", False, "no dip found")
    offset = abs(dip.time - cfg.phase_lambda)
    ok = offset <= 0.01 + 1e-12
    _criterion(3, "dip-location", ok,
               f"dip at t = {dip.time:.2f}, |t - lambda| = {offset:.2f}, "
               f"required <= one grid step (0.01)")


def test_04_unitary_gp_limit():
    cfg = BathConfig(gamma=0.0, cutoff=1.0, diffusion=0.1, phase_lambda=1.0)
    worst = 0.0
    for k in range(17):
        th = k * math.pi / 16.0
        got = geometric_phase(cfg, th).phi_g
        worst = max(worst, abs(got - math.pi * (1.0 + math.cos(th))))
    ok = worst < 1e-9
    _criterion(4, "unitary-gp-limit", ok,
               f"max |phi_g - pi(1+cos theta0)| = {worst:.2e}, tol 1e-9")


def test_05_perturbative_shape():
    # tiny gamma so the measured correction sits in the linear regime
    gamma = 1e-4
    thetas = np.linspace(0.0, math.pi, 17)
    basis = np.sin(thetas) ** 2 * np.cos(thetas)
    details = []
    ok = True
    for n in (1, 3):
        cfg = BathConfig(gamma=gamma, cutoff=1.0, diffusion=1.0,
                         phase_lambda=1.0, ohmicity=n)
        y = np.array([geometric_phase(cfg, float(th)).delta
                      for th in thetas]) / gamma
        c_fit = float(np.dot(y, basis) / np.dot(basis, basis))
        resid = float(np.max(np.abs(y - c_fit * basis)) / np.max(np.abs(y)))
        ref_cfg = BathConfig(gamma=1.0, cutoff=1.0, diffusion=1.0,
                             phase_lambda=1.0, ohmicity=n)
        c_ref = perturbative_correction(ref_cfg, math.pi / 4.0) \
            / (math.sin(math.pi / 4.0) ** 2 * math.cos(math.pi / 4.0))
        ratio = c_fit / c_ref
        ok = ok and resid < 0.01 and abs(ratio - 1.0) <= 0.15
        details.append(f"n={n}: resid {resid:.2e}, c_fit/c_pred {ratio:.4f}")
    _criterion(5, "perturbative-shape", ok,
               "; ".join(details) + "; need resid < 1% and ratio within 15%")


def test_06_perturbative_range():
    # relative error of the first-order correction against the exact one.
    # The first-order term is first_order_correction, the linear Taylor
    # term in gamma; the paper's asymptotic coefficient of
    # perturbative_correction sits 12.4% (n = 1) above its slope at every
    # gamma, so it is checked by criterion 5, not here
    theta0 = math.pi / 4.0
    gammas = np.arange(0.02, 0.301, 0.02)
    errs = {}
    coeffs = {}
    for n in (1, 3):
        coeffs[n] = first_order_coefficient(
            BathConfig(gamma=1.0, cutoff=1.0, diffusion=1.0,
                       phase_lambda=1.0, ohmicity=n))
        rows = []
        for ga in gammas:
            cfg = BathConfig(gamma=float(ga), cutoff=1.0, diffusion=1.0,
                             phase_lambda=1.0, ohmicity=n)
            exact = geometric_phase(cfg, theta0).delta
            pred = first_order_correction(cfg, theta0)
            rows.append(abs(pred - exact) / abs(exact))
        errs[n] = np.array(rows)
    at = int(np.argmin(np.abs(gammas - 0.1)))
    monotone = bool(np.all(np.diff(errs[1]) > -1e-9))
    below = errs[1][at] < 0.10
    above = errs[3][at] > 0.10
    order = bool(np.all(errs[3][gammas > 0.02 + 1e-12]
                        > errs[1][gammas > 0.02 + 1e-12]))
    ok = monotone and below and above and order
    _criterion(6, "perturbative-range", ok,
               f"err1 monotone: {monotone}; err1(0.1) = {errs[1][at]:.4f} "
               f"(need < 0.1): {below}; err3(0.1) = {errs[3][at]:.4f} "
               f"(need > 0.1): {above}; err3 > err1 for gamma > 0.02: {order}; "
               f"first-order coefficients C1 = {coeffs[1]:.6f}, "
               f"C3 = {coeffs[3]:.6f}")


def test_07_lambda_monotonicity():
    cfg = BathConfig(gamma=3.0, cutoff=1.0, diffusion=0.1, phase_lambda=0.0,
                     ohmicity=1)
    sweep = gp_lambda_sweep(cfg,
                            [math.pi / 8.0, math.pi / 4.0, 3.0 * math.pi / 8.0],
                            np.arange(0.0, 5.001, 0.25),
                            slack=1e-6)
    ok = bool(np.all(sweep.monotone))
    worst = float(np.max(sweep.max_increase))
    _criterion(7, "lambda-monotonicity", ok,
               f"monotone flags {list(map(bool, sweep.monotone))}, "
               f"largest increase {worst:.2e} vs slack 1e-6")


def test_08_monte_carlo_validation():
    cfg = BathConfig(ohmicity=1, **WEAK)
    ens = EnsembleConfig(n_modes=512, n_trajectories=2000, seed=20240817,
                         dt=0.005, horizon=10.0)
    start = time.perf_counter()
    mc = mc_decoherence_factor(cfg, ens)
    elapsed = time.perf_counter() - start
    analytic = np.exp(-beta_closed(mc.times, cfg))
    dev = np.abs(np.abs(mc.estimates) - analytic)
    bound = np.maximum(0.05, 3.0 * mc.stderr)
    pointwise = bool(np.all(dev < bound))

    curve = to_decoherence_curve(mc)
    early = curve.times <= 3.0
    sub = type(curve)(times=curve.times[early], values=curve.values[early],
                      errors=curve.errors[early], method=curve.method)
    dip = find_dip(sub)
    dip_ok = (dip is not None and abs(dip.time - 1.0) <= 0.25
              and dip.prominence > 3.0 * sub.errors[dip.index])
    ok = pointwise and dip_ok and elapsed < 300.0
    dip_txt = "none" if dip is None else (
        f"t = {dip.time:.3f}, prominence {dip.prominence:.4f} vs "
        f"3*stderr {3.0 * sub.errors[dip.index]:.4f}")
    _criterion(8, "monte-carlo-validation", ok,
               f"max dev {float(dev.max()):.4f} within max(0.05, 3 stderr): "
               f"{pointwise}; dip {dip_txt}; {elapsed:.0f} s (budget 300 s)")


def test_09_distribution_pde():
    dist = PhaseDistribution(diffusion=1.0)
    xs = np.linspace(-math.pi, math.pi, 200)
    worst = 0.0
    for t in np.linspace(0.05, 2.0, 200):
        dpdt = finite_difference_slope(
            lambda tt: phase_distribution_eval(dist, xs, tt), float(t))
        d2pdx2 = finite_difference_curvature(
            lambda xx: phase_distribution_eval(dist, xx, float(t)), xs)
        worst = max(worst, float(np.max(np.abs(dpdt - dist.diffusion * d2pdx2))))
    ok = worst < 1e-6
    _criterion(9, "distribution-pde", ok,
               f"max |dP/dt - D d2P/dx2| = {worst:.2e} on 200x200 grid, "
               "tol 1e-6")


def test_10_mc_determinism(tmp_path):
    # reduced scale; the full-scale run goes through the identical code path
    args = ["mc", "--n-modes", "64", "--n-trajectories", "80",
            "--dt", "0.01", "--horizon", "3", "--seed", "20240817"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert cli_main(args + ["--out", str(a)]) == 0
        assert cli_main(args + ["--out", str(b)]) == 0
    ok = a.read_bytes() == b.read_bytes()
    _criterion(10, "mc-determinism", ok,
               f"two seeded runs byte-identical: {ok}")
