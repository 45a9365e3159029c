"""The benchmark's workloads: the CLI operations of one pass and their checks.

A pass is a fixed list of `neqbath.cli.main` calls, run one after the
other in one process (a closed loop with one client).  Each call is one
operation; an operation fails when it exits non-zero or its output
files fail the workload's correctness check.

BENCHMARK.json lists figures and mc, which between them reach every
module.  gp-closed and gp-quadratic stay runnable by name: they split
the numerics layer into many tiny integrals and into nested beta
quadratures.  They are left out of BENCHMARK.json so that the two gated
workloads can measure 50 s per run within the benchmark's time budget;
timed in raw seconds over 30-s runs on a shared 2-vCPU machine their
run-to-run spread was 16 to 29% between quartiles.

Reference data come from the seed commit (see make_reference.py):
reference/manifest.json holds the SHA-256 of every figure CSV, and
reference/<workload>/<file>.gz holds the files that are compared number
by number.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from calibrate import mc_kernel, quadrature_kernel

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
UNDEFINED = "undefined-normalization"
PI = format(math.pi, ".17g")

# the weak-coupling parameters of acceptance criteria 2 and 8
WEAK = ("--gamma", "0.5", "--cutoff", "1", "--diffusion", "0.1",
        "--phase-lambda", "1", "--ohmicity", "1")


@dataclass(frozen=True)
class Op:
    """One CLI call and the files it writes into the pass directory."""

    argv: tuple
    outputs: tuple


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    item: str  # what items_per_s counts
    uses_seed: bool
    ops: Callable  # (out_dir, seed) -> list[Op]
    warmup: Callable  # out_dir -> argv of the set-up call
    check: Callable  # (file name, bytes) -> list of problems
    items: Callable  # files of one pass -> items it produced
    kernel: Callable  # calibration kernel of the same kind of work


def csv_rows(files: dict) -> int:
    return sum(len(parse_csv(data)[1]) for name, data in files.items()
               if name.endswith(".csv"))


# ---------------------------------------------------------------- parsing

def parse_csv(data: bytes):
    """(header, rows, comments) of a CSV written by neqbath."""
    lines = data.decode().splitlines()
    comments = [ln[2:] for ln in lines if ln.startswith("# ")]
    body = [ln.split(",") for ln in lines if not ln.startswith("# ")]
    return body[0], body[1:], comments


def _num(cell: str) -> Optional[float]:
    try:
        return float(cell)
    except ValueError:
        return None


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")


def _close(a: float, b: float, tol: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= tol


def compare_to_reference(data: bytes, ref: bytes, tol: float) -> list:
    """Problems found comparing a CSV with its reference, cell by cell.

    Numeric cells may differ by tol (absolute); other cells and the text
    of comment lines must match exactly, numbers in comments up to tol.
    """
    head, rows, comments = parse_csv(data)
    rhead, rrows, rcomments = parse_csv(ref)
    if head != rhead:
        return [f"header {head} != reference {rhead}"]
    if len(rows) != len(rrows):
        return [f"{len(rows)} rows, reference has {len(rrows)}"]
    problems = []
    for i, (row, rrow) in enumerate(zip(rows, rrows)):
        if len(row) != len(rrow):
            problems.append(f"row {i}: {len(row)} cells, reference {len(rrow)}")
            continue
        for col, cell, rcell in zip(head, row, rrow):
            a, b = _num(cell), _num(rcell)
            ok = cell == rcell if a is None or b is None else _close(a, b, tol)
            if not ok:
                problems.append(f"row {i} {col}: {cell} vs reference {rcell}")
    if len(comments) != len(rcomments):
        problems.append(f"{len(comments)} comments, reference {len(rcomments)}")
    for c, rc in zip(comments, rcomments):
        nums, rnums = _NUMBER.findall(c), _NUMBER.findall(rc)
        if (_NUMBER.sub("#", c) != _NUMBER.sub("#", rc) or len(nums) != len(rnums)
                or not all(_close(float(x), float(y), tol)
                           for x, y in zip(nums, rnums))):
            problems.append(f"comment {c!r} vs reference {rc!r}")
    return problems[:5]


def reference(workload: str, name: str) -> bytes:
    with gzip.open(REFERENCE_DIR / workload / f"{name}.gz", "rb") as fh:
        return fh.read()


def manifest() -> dict:
    return json.loads((REFERENCE_DIR / "manifest.json").read_text())


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ------------------------------------------------------- closed-form beta

def closed_factor(t: float, gamma: float, diffusion: float, ohmicity: int,
                  cutoff: float = 1.0, lam: float = 1.0) -> float:
    """|F(t)| = exp(-beta(t)) for the linear profile, ohmicity 1 or 3.

    beta follows from the Laplace transforms of w^n exp(-w/cutoff)
    cos(2 w (t - lam)); written out here so the check does not use the
    code it checks.
    """
    u = 4.0 * cutoff * cutoff * (t - lam) ** 2
    e2 = math.exp(-2.0 * diffusion * t)
    e4 = e2 * e2
    if ohmicity == 1:
        beta = gamma * ((1.0 - e2) + (e2 - e4) * (1.0 - u) / (1.0 + u) ** 2)
    else:
        beta = 6.0 * gamma * ((1.0 - e2) + (e2 - e4)
                              * (1.0 - 6.0 * u + u * u) / (1.0 + u) ** 4)
    return math.exp(-beta)


def grid(start: float, stop: float, step: float) -> list:
    """The CLI's grid: start + step * k for k = 0 .. floor((stop-start)/step)."""
    n = int(math.floor((stop - start) / step + 1e-9)) + 1
    return [start + step * k for k in range(n)]


# ---------------------------------------------------------------- figures

# figure -> CSV files it writes; each figure also writes figN_metadata.json
FIGURE_FILES = {
    1: ("fig1_ohmic.csv", "fig1_supraohmic.csv"),
    2: ("fig2_ohmic.csv", "fig2_supraohmic.csv"),
    3: ("fig3_ohmic.csv", "fig3_supraohmic.csv"),
    4: ("fig4_surface.csv",),
    5: ("fig5_surface.csv",),
    6: ("fig6_ohmic.csv", "fig6_supraohmic.csv"),
    7: ("fig7_lambda.csv",),
}
# figures 1 and 2: closed-form curves, (gamma, diffusion) on grid 0:10:0.01
_CLOSED_FIGURES = {1: (3.0, 0.5), 2: (0.5, 0.1)}
_TOLERANCE = {3: 1e-8, 4: 1e-9, 5: 1e-9, 6: 1e-9, 7: 1e-9}


def _figure_ops(out_dir: Path, seed: int) -> list:
    return [Op(("reproduce-figure", str(n), "--out-dir", str(out_dir)),
               files + (f"fig{n}_metadata.json",))
            for n, files in FIGURE_FILES.items()]


def _check_closed_curve(data: bytes, gamma: float, diffusion: float,
                        ohmicity: int) -> list:
    head, rows, _ = parse_csv(data)
    if head != ["t", "F", "err", "method"]:
        return [f"header {head}"]
    times = grid(0.0, 10.0, 0.01)
    if len(rows) != len(times):
        return [f"{len(rows)} rows, expected {len(times)}"]
    problems = []
    for (t, f, err, method), t_expected in zip(rows, times):
        want = closed_factor(t_expected, gamma, diffusion, ohmicity)
        if (float(t) != t_expected or abs(float(f) - want) > 1e-12
                or not float(err) >= 0.0 or method != "closed-form"):
            problems.append(f"t={t}: F={f} vs exp(-beta_closed)={want!r}")
    return problems[:5]


def _check_figure(name: str, data: bytes) -> list:
    n = int(re.match(r"fig(\d)", name).group(1))
    if name.endswith("_metadata.json"):
        doc = json.loads(data)
        if doc.get("figure") != n or doc.get("files") != list(FIGURE_FILES[n]):
            return [f"metadata lists {doc.get('files')} for figure {doc.get('figure')}"]
        return []
    if n in _CLOSED_FIGURES:
        gamma, diffusion = _CLOSED_FIGURES[n]
        ohmicity = 1 if "_ohmic" in name else 3
        return _check_closed_curve(data, gamma, diffusion, ohmicity)
    return compare_to_reference(data, reference("figures", name), _TOLERANCE[n])


# ------------------------------------------------------------ GP surfaces

def _gp_closed_ops(out_dir: Path, seed: int) -> list:
    return [Op(("gp", "--mode", "surface", "--ohmicity", str(n),
                "--theta0-grid", f"0:{PI}:{format(math.pi / 64, '.17g')}",
                "--gamma-grid", "0:2:0.025",
                "--out", str(out_dir / f"gp_closed_n{n}.csv")),
               (f"gp_closed_n{n}.csv",))
            for n in (1, 3)]


def _gp_quadratic_ops(out_dir: Path, seed: int) -> list:
    quarter = format(math.pi / 4, ".17g")
    return [Op(("gp", "--mode", "surface", "--profile", "quadratic",
                "--theta0-grid", f"{quarter}:{PI}:{quarter}",
                "--gamma-grid", "0:1:0.5",
                "--out", str(out_dir / "gp_quadratic.csv")),
               ("gp_quadratic.csv",))]


def _check_surface(workload: str, tol: float):
    def check(name: str, data: bytes) -> list:
        head, rows, _ = parse_csv(data)
        if head != ["theta0", "gamma", "delta_phi_norm", "note"]:
            return [f"header {head}"]
        problems = []
        for theta0, gamma, value, note in rows:
            polar = float(theta0) == math.pi
            if polar != (note == UNDEFINED and math.isnan(float(value))):
                problems.append(f"theta0={theta0} gamma={gamma}: {value} {note!r}")
            elif not polar and (note != "" or not math.isfinite(float(value))):
                problems.append(f"theta0={theta0} gamma={gamma}: {value} {note!r}")
            elif not polar and float(gamma) == 0.0 and float(value) != 0.0:
                problems.append(f"theta0={theta0} gamma=0: {value} is not 0")
        if not any(float(r[0]) == math.pi for r in rows):
            problems.append("grid has no theta0 = pi row")
        return (problems + compare_to_reference(
            data, reference(workload, name), tol))[:5]
    return check


# ------------------------------------------------------------ Monte Carlo

def mc_seed(seed: int) -> int:
    """The benchmark seed as the nonnegative MC seed the CLI accepts."""
    return seed % 2**63


MC_TRAJECTORIES = 128
MC_DT = 0.005
MC_STEPS = 2000  # horizon 10


def _mc_ops(out_dir: Path, seed: int) -> list:
    return [Op(("mc", *WEAK, "--n-modes", "512",
                "--n-trajectories", str(MC_TRAJECTORIES), "--dt", str(MC_DT),
                "--horizon", "10", "--seed", str(mc_seed(seed)),
                "--out", str(out_dir / "mc.csv")),
               ("mc.csv",))]


def mc_sampling_error(f_analytic: float, trajectories: int) -> float:
    """Standard error of the mean of Re exp(-i phi) for Gaussian phi.

    With <exp(-i phi)> = F the variance of cos(phi) is (1 - F^2)^2 / 2,
    which needs no estimate from the sample itself.
    """
    return (1.0 - f_analytic ** 2) / math.sqrt(2.0 * trajectories)


def _check_mc(name: str, data: bytes) -> list:
    """|F_mc - F_analytic| < max(0.05, 5 sigma(t)) at every grid time.

    This is criterion 8's pointwise band with two changes that keep it
    from failing on correct code at 128 trajectories: sigma is the
    sampling error implied by F (mc_sampling_error) instead of the
    sample stderr, which underestimates it by up to half at this size,
    and 5 sigma in place of 3 keeps the false-alarm rate over the 2,001
    points below about 1e-3 (the Bonferroni bound), where the literal
    rule fails on roughly one seed in two.
    F_analytic is checked against the closed form to 1e-12.
    """
    head, rows, _ = parse_csv(data)
    if head != ["t", "F_mc", "stderr", "F_analytic", "dev"]:
        return [f"header {head}"]
    times = [MC_DT * k for k in range(MC_STEPS + 1)]
    if len(rows) != len(times):
        return [f"{len(rows)} rows, expected {len(times)}"]
    problems = []
    for (t, f_mc, _, f_an, _), t_expected in zip(rows, times):
        t, f_mc, f_an = float(t), float(f_mc), float(f_an)
        want = closed_factor(t_expected, 0.5, 0.1, 1)
        band = max(0.05, 5.0 * mc_sampling_error(want, MC_TRAJECTORIES))
        if t != t_expected or abs(f_an - want) > 1e-12:
            problems.append(f"t={t}: F_analytic={f_an} vs closed form {want!r}")
        elif not abs(f_mc - want) < band:
            problems.append(f"t={t}: |F_mc - F_analytic| = "
                            f"{abs(f_mc - want):.4f} >= {band:.4f}")
    return problems[:5]


def mc_outside_criterion8(data: bytes) -> int:
    """Grid points outside criterion 8's literal max(0.05, 3 stderr) band."""
    _, rows, _ = parse_csv(data)
    return sum(1 for _, f_mc, err, f_an, _ in rows
               if not abs(float(f_mc) - float(f_an))
               < max(0.05, 3.0 * float(err)))


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "figures",
            "the seven reproduce-figure runs, the paper's dataset; fig 3's "
            "~1,000 quadratic-profile beta(t) quadratures dominate, MC never runs",
            "figure rows", False, _figure_ops,
            lambda d: ("reproduce-figure", "1", "--out-dir", str(d)),
            _check_figure, csv_rows, quadrature_kernel),
        Workload(
            "gp-closed",
            "~10k closed-form GP points for n = 1 and 3: many tiny "
            "integrate_finite calls plus bloch_angle and CSV writing",
            "GP points", False, _gp_closed_ops,
            lambda d: ("gp", "--mode", "point", "--out", str(d / "gp.csv")),
            _check_surface("gp-closed", 1e-9), csv_rows, quadrature_kernel),
        Workload(
            "gp-quadratic",
            "GP on the quadratic profile: one beta quadrature per "
            "Gauss-Kronrod node, t-nodes recurring across theta0",
            "GP points", False, _gp_quadratic_ops,
            lambda d: ("decoherence", "--profile", "quadratic", "--grid",
                       "0:1:0.5", "--out", str(d / "warmup.csv")),
            _check_surface("gp-quadratic", 1e-7), csv_rows,
            quadrature_kernel),
        Workload(
            "mc",
            "criterion-8 MC size (512 modes, dt 0.005, horizon 10) with 128 "
            "trajectories seeded by --seed; closed-form analytic curve",
            "trajectories", True, _mc_ops,
            lambda d: ("mc", *WEAK, "--n-modes", "512", "--n-trajectories",
                       "2", "--horizon", "0.1", "--out", str(d / "mc.csv")),
            _check_mc, lambda files: MC_TRAJECTORIES, mc_kernel),
    )
}
