"""Command-line front end.

Subcommands
    decoherence     |F(t)| on a time grid, optional dip report
    gp              geometric phase: point, surface, lambda and gamma modes
    mc              Monte Carlo estimate vs the analytic curve
    pdist           phase-distribution snapshots P(x, t)
    reproduce-figure  canned parameter sets for the standard figures

Numbers are written with 17 significant digits so a written CSV reparses
to the exact float that was computed.  Exit codes: 0 success, 2 bad
configuration (or a run too large to allocate), 3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import __version__
from .bath import BathConfig, PhaseDistribution, phase_distribution_eval
from .dephasing import decoherence_factor, find_dip
from .geomphase import first_order_coefficient, gamma_comparison, \
    geometric_phase, gp_lambda_sweep, gp_surface
from .montecarlo import EnsembleConfig, mc_decoherence_factor, \
    to_decoherence_curve
from .numerics import ConvergenceError

__all__ = ["ConfigError", "RunConfig", "main"]

class ConfigError(ValueError):
    """Bad user input: unknown keys, malformed grids, out-of-range values."""


@dataclass
class RunConfig:
    """Merged run parameters: defaults, then config file, then flags.

    Defaults are the weak-coupling curve parameters (gamma 0.5, cutoff 1,
    D 0.1, lambda 1, ohmic, linear profile).
    """

    gamma: float = 0.5
    cutoff: float = 1.0
    diffusion: float = 0.1
    phase_lambda: float = 1.0
    ohmicity: int = 1
    omega: float = 1.0
    profile: str = "linear"
    theta0: float = math.pi / 4.0
    grid: tuple = (0.0, 10.0, 0.01)
    seed: int = 1
    n_modes: int = 2000
    n_trajectories: int = 2000
    dt: float = 0.005
    horizon: float = 10.0
    times: tuple = (0.1, 0.5, 1.0, 2.0)
    nx: int = 257
    theta0_grid: tuple = (0.0, math.pi, math.pi / 32.0)
    gamma_grid: tuple = (0.0, 0.5, 0.02)
    lambda_grid: tuple = (0.0, 5.0, 0.25)
    mode: str = "point"

    def bath_config(self) -> BathConfig:
        return BathConfig(
            gamma=self.gamma, cutoff=self.cutoff, diffusion=self.diffusion,
            phase_lambda=self.phase_lambda, ohmicity=self.ohmicity,
            omega=self.omega, phase_profile=self.profile,
        )


# each RunConfig field's kind, which rules how its file value is checked;
# any other key is rejected so typos fail loudly instead of running defaults
_KINDS = {f.name: "grid" if f.name.endswith("grid") else f.type
          for f in fields(RunConfig)}


def _parse_grid(text: str) -> tuple:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid must be start:stop:step, got {text!r}")
    return _check_grid(parts)


def _check_grid(grid) -> tuple:
    try:
        start, stop, step = (float(v) for v in grid)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"grid must be three numbers, got {grid!r}") from exc
    if not (math.isfinite(start) and math.isfinite(stop) and math.isfinite(step)):
        raise ConfigError(f"grid values must be finite, got {grid!r}")
    if step <= 0 or stop <= start:
        raise ConfigError(
            f"grid needs stop > start and step > 0, got {grid!r}"
        )
    if (stop - start) / step >= 1e6:
        raise ConfigError(f"grid {grid!r} has more than 1,000,000 points")
    return (start, stop, step)


def grid_array(grid) -> np.ndarray:
    start, stop, step = _check_grid(grid)
    n = int(math.floor((stop - start) / step + 1e-9)) + 1
    return start + step * np.arange(n)


def _parse_times(text: str) -> tuple:
    try:
        return tuple(float(p) for p in text.split(",") if p.strip() != "")
    except ValueError as exc:
        raise ConfigError(f"times must be comma-separated numbers: {text!r}") from exc


def load_config_file(path: str) -> dict:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a JSON object")
    unknown = set(raw) - set(_KINDS)
    if unknown:
        raise ConfigError(
            f"unknown config keys: {', '.join(sorted(unknown))}; "
            f"allowed: {', '.join(sorted(_KINDS))}"
        )
    return raw


def _file_value(name: str, kind: str, val):
    """A config-file value checked and coerced by its RunConfig field kind."""
    if kind == "grid":
        return _check_grid(val)
    if kind == "tuple":  # times
        if not isinstance(val, (list, tuple)):
            raise ConfigError("times must be a list of numbers")
        return tuple(_file_value("times entry", "float", v) for v in val)
    if kind == "int":
        if isinstance(val, bool) or not isinstance(val, int):
            raise ConfigError(f"{name} must be an integer, got {val!r}")
        return val
    if kind == "str":
        if not isinstance(val, str):
            raise ConfigError(f"{name} must be a string, got {val!r}")
        return val
    try:
        return float(val)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} must be a number, got {val!r}") from exc


def build_run_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, then the config file, then the flags, field by field.

    Both walks take the RunConfig fields in declaration order, so the
    first bad value reported does not depend on the file's key order.
    """
    cfg = RunConfig()
    file_vals = load_config_file(args.config) if args.config else {}
    for name, kind in _KINDS.items():
        if name in file_vals:
            setattr(cfg, name, _file_value(name, kind, file_vals[name]))
    # flags win over the file; argparse has typed all but grids and times
    for name, kind in _KINDS.items():
        val = getattr(args, name, None)
        if val is not None:
            setattr(cfg, name, _parse_grid(val) if kind == "grid"
                    else _parse_times(val) if kind == "tuple" else val)
    if cfg.profile not in ("linear", "quadratic"):
        raise ConfigError(
            f"profile must be 'linear' or 'quadratic' on the command line, "
            f"got {cfg.profile!r}"
        )
    if not (0.0 <= cfg.theta0 <= math.pi):
        raise ConfigError(f"theta0 must lie in [0, pi], got {cfg.theta0}")
    return cfg


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _json_cell(value):
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    v = float(value)
    return v if math.isfinite(v) else None


def write_table(out: Optional[str], table: _Table, json_mode: bool):
    """Emit one table as CSV (default) or a JSON document.

    CSV: one header line, 17-significant-digit cells, then any comment
    lines prefixed with '# '.  JSON: metadata + columns + row arrays,
    with non-finite numbers mapped to null.
    """
    if json_mode:
        doc = {
            "metadata": table.metadata,
            "columns": list(table.columns),
            "rows": [[_json_cell(v) for v in row] for row in table.rows],
        }
        if table.comments:
            doc["comments"] = list(table.comments)
        doc.update(table.extra)
        text = json.dumps(doc, indent=2, allow_nan=False) + "\n"
    else:
        lines = [",".join(table.columns)]
        lines.extend(",".join(_fmt(v) for v in row) for row in table.rows)
        lines.extend(f"# {c}" for c in table.comments)
        text = "\n".join(lines) + "\n"
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _metadata(cfg: RunConfig, command: str, **extra) -> dict:
    meta = {
        "command": command,
        "version": __version__,
        "gamma": cfg.gamma,
        "cutoff": cfg.cutoff,
        "diffusion": cfg.diffusion,
        "phase_lambda": cfg.phase_lambda,
        "ohmicity": cfg.ohmicity,
        "omega": cfg.omega,
        "profile": cfg.profile,
    }
    meta.update(extra)
    return meta


class _Table(NamedTuple):
    """One output table, as write_table prints it."""

    columns: list
    rows: list
    comments: list
    metadata: dict
    extra: dict


# Each table function takes the merged RunConfig and the parsed flags of
# its subcommand, for the options that are not run parameters.
def _decoherence_table(cfg: RunConfig, args: argparse.Namespace) -> _Table:
    """|F| on cfg.grid, with a dip report when args.dip is set."""
    tol = args.tol if args.tol is not None else 1e-10
    if not (tol > 0 and math.isfinite(tol)):
        raise ConfigError(f"tol must be finite and positive, got {tol}")
    times = grid_array(cfg.grid)
    if times[0] < 0:
        raise ConfigError("time grid must start at t >= 0")
    curve = decoherence_factor(times, cfg.bath_config(), tol=tol,
                               method=args.method)
    rows = [(t, v, e, curve.method)
            for t, v, e in zip(curve.times, curve.values, curve.errors)]
    comments = []
    extra = {}
    if args.dip:
        found = find_dip(curve)
        if found is None:
            comments.append("dip none")
            extra["dip"] = None
        else:
            comments.append(
                f"dip t={_fmt(found.time)} F={_fmt(found.value)} "
                f"prominence={_fmt(found.prominence)}"
            )
            extra["dip"] = {"t": found.time, "F": found.value,
                            "prominence": found.prominence}
    return _Table(["t", "F", "err", "method"], rows, comments,
                  _metadata(cfg, "decoherence", grid=list(cfg.grid)), extra)


def _gp_table(cfg: RunConfig, args: argparse.Namespace) -> _Table:
    """The geometric-phase table of mode cfg.mode."""
    bath = cfg.bath_config()
    if cfg.mode == "point":
        res = geometric_phase(bath, cfg.theta0)
        rows = [(cfg.theta0, res.phi_g, res.phi_u, res.delta, res.tol)]
        return _Table(["theta0", "phi_g", "phi_u", "delta", "err"], rows, [],
                      _metadata(cfg, "gp", mode="point", theta0=cfg.theta0), {})
    if cfg.mode == "surface":
        th = grid_array(cfg.theta0_grid)
        ga = grid_array(cfg.gamma_grid)
        surf = gp_surface(bath, th, ga)
        rows = []
        for i, t0 in enumerate(surf.theta0):
            for j, g in enumerate(surf.gamma):
                r = surf.ratio[i, j]
                if math.isfinite(r):
                    rows.append((t0, g, r, ""))
                else:
                    rows.append((t0, g, float("nan"), "undefined-normalization"))
        return _Table(["theta0", "gamma", "delta_phi_norm", "note"], rows, [],
                      _metadata(cfg, "gp", mode="surface",
                                theta0_grid=list(cfg.theta0_grid),
                                gamma_grid=list(cfg.gamma_grid)), {})
    if cfg.mode == "lambda":
        th = grid_array(cfg.theta0_grid)
        lams = grid_array(cfg.lambda_grid)
        sweep = gp_lambda_sweep(bath, th, lams)
        rows = [(t0, lam, sweep.delta_abs[i, j])
                for i, t0 in enumerate(sweep.theta0)
                for j, lam in enumerate(sweep.lam)]
        comments = [
            f"monotone theta0={_fmt(t0)}: "
            + ("yes" if sweep.monotone[i]
               else f"no (max increase {_fmt(sweep.max_increase[i])})")
            for i, t0 in enumerate(sweep.theta0)
        ]
        extra = {"theta0_values": [float(v) for v in sweep.theta0],
                 "monotone": [bool(b) for b in sweep.monotone],
                 "max_increase": [float(v) for v in sweep.max_increase]}
        return _Table(["theta0", "lambda", "delta_phi"], rows, comments,
                      _metadata(cfg, "gp", mode="lambda",
                                theta0_grid=list(cfg.theta0_grid),
                                lambda_grid=list(cfg.lambda_grid)), extra)
    if cfg.mode == "gamma":
        ga = grid_array(cfg.gamma_grid)
        _, exact, pred = gamma_comparison(bath, cfg.theta0, ga)
        rows = list(zip(ga, exact, pred))
        coeff = first_order_coefficient(bath)
        comments = [
            f"exact first-order coefficient C = {_fmt(coeff)}: phi_g = "
            "phi_u + gamma C sin(theta0)^2 cos(theta0) + O(gamma^2); "
            "phi_g_pred uses the paper's asymptotic coefficient"
        ]
        return _Table(["gamma", "phi_g", "phi_g_pred"], rows, comments,
                      _metadata(cfg, "gp", mode="gamma", theta0=cfg.theta0,
                                gamma_grid=list(cfg.gamma_grid)),
                      {"first_order_coefficient": coeff})
    raise ConfigError(
        f"gp mode must be point, surface, lambda or gamma, got {cfg.mode!r}"
    )


def _mc_table(cfg: RunConfig, args: argparse.Namespace) -> _Table:
    """The Monte Carlo curve beside the analytic one."""
    bath = cfg.bath_config()
    ens = EnsembleConfig(n_modes=cfg.n_modes, n_trajectories=cfg.n_trajectories,
                         seed=cfg.seed, dt=cfg.dt, horizon=cfg.horizon)
    mc = mc_decoherence_factor(bath, ens)
    mc_curve = to_decoherence_curve(mc)
    analytic = decoherence_factor(mc.times, bath)
    dev = mc_curve.values - analytic.values
    rows = list(zip(mc.times, mc_curve.values, mc_curve.errors,
                    analytic.values, dev))
    max_dev = float(np.max(np.abs(dev)))
    return _Table(["t", "F_mc", "stderr", "F_analytic", "dev"], rows,
                  [f"max|F_mc - F_analytic| = {_fmt(max_dev)}"],
                  _metadata(cfg, "mc", seed=cfg.seed, n_modes=cfg.n_modes,
                            n_trajectories=cfg.n_trajectories, dt=cfg.dt,
                            horizon=cfg.horizon),
                  {"max_abs_dev": max_dev})


def _pdist_table(cfg: RunConfig, args: argparse.Namespace) -> _Table:
    """P(x, t) on nx points across [-pi, pi] at each snapshot time."""
    if cfg.nx < 2:
        raise ConfigError(f"nx must be >= 2, got {cfg.nx}")
    if not cfg.times:
        raise ConfigError("at least one snapshot time is required")
    dist = PhaseDistribution(diffusion=cfg.diffusion)
    x = np.linspace(-math.pi, math.pi, cfg.nx)
    rows = [(t, xi, pi) for t in cfg.times
            for xi, pi in zip(x, phase_distribution_eval(dist, x, float(t)))]
    return _Table(["t", "x", "P"], rows, [],
                  _metadata(cfg, "pdist", times=list(cfg.times), nx=cfg.nx), {})


def cmd_table(args: argparse.Namespace) -> int:
    """decoherence, gp, mc and pdist: argv -> RunConfig -> table -> output."""
    write_table(args.out, args.table(build_run_config(args), args), args.json)
    return 0


# The standard figures as canned runs of the decoherence and gp tables:
# figure -> (figure-wide metadata, [(CSV name, table, RunConfig fields)]).
# The RunConfig defaults hold the figures' common parameters.
_FIGURES = {
    1: ({"note": "the static-noise Gaussian reference curve of the original "
                 "figure is a different bath family and is omitted"},
        [("fig1_ohmic", "decoherence", dict(gamma=3.0, diffusion=0.5)),
         ("fig1_supraohmic", "decoherence",
          dict(gamma=3.0, diffusion=0.5, ohmicity=3))]),
    2: ({}, [("fig2_ohmic", "dip", {}),
             ("fig2_supraohmic", "dip", dict(ohmicity=3))]),
    # the quadratic profile takes the quadrature route; a coarser grid
    # keeps the per-point bill reasonable
    3: ({}, [("fig3_ohmic", "decoherence",
              dict(gamma=3.0, profile="quadratic", grid=(0.0, 10.0, 0.02))),
             ("fig3_supraohmic", "decoherence",
              dict(gamma=3.0, profile="quadratic", grid=(0.0, 10.0, 0.02),
                   ohmicity=3))]),
    4: ({}, [("fig4_surface", "surface", dict(gamma_grid=(0.0, 2.0, 0.1)))]),
    5: ({}, [("fig5_surface", "surface",
              dict(gamma_grid=(0.0, 2.0, 0.1), ohmicity=3))]),
    6: ({"note": "initial state not pinned by the caption; "
                 "theta0 = pi/4 chosen and recorded here"},
        [("fig6_ohmic", "gamma", dict(gamma=0.1, diffusion=1.0)),
         ("fig6_supraohmic", "gamma", dict(gamma=0.1, diffusion=1.0, ohmicity=3))]),
    7: ({}, [("fig7_lambda", "lambda",
              dict(gamma=3.0, theta0_grid=(math.pi / 8.0, 3.0 * math.pi / 8.0,
                                           math.pi / 8.0)))]),
}


def cmd_reproduce_figure(args: argparse.Namespace) -> int:
    if args.number not in _FIGURES:
        raise ConfigError(f"figure number must be 1..7, got {args.number}")
    outdir = Path(args.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    notes, jobs = _FIGURES[args.number]
    meta_doc = {"figure": args.number, "version": __version__,
                "files": [f"{name}.csv" for name, _, _ in jobs], **notes}
    for name, kind, params in jobs:
        opts = argparse.Namespace(dip=kind == "dip", tol=None, method=None)
        if kind in ("decoherence", "dip"):
            table = _decoherence_table(RunConfig(**params), opts)
        else:
            table = _gp_table(RunConfig(mode=kind, **params), opts)
        # only figure 7 keeps its comment lines; the dip and C go to the metadata
        write_table(str(outdir / f"{name}.csv"),
                    table if kind == "lambda" else table._replace(comments=[]),
                    False)
        meta = {**table.metadata, **table.extra}
        if len(jobs) == 1:
            meta_doc.update(meta)
        else:
            meta_doc[name.split("_", 1)[1]] = meta
    meta_path = outdir / f"fig{args.number}_metadata.json"
    meta_path.write_text(json.dumps(meta_doc, indent=2) + "\n")
    for name, _, _ in jobs:
        print(outdir / f"{name}.csv")
    print(meta_path)
    return 0


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--out", help="output path ('-' or omitted: stdout)")
    p.add_argument("--json", action="store_true",
                   help="emit a JSON document instead of CSV")
    p.add_argument("--gamma", type=float)
    p.add_argument("--cutoff", type=float)
    p.add_argument("--diffusion", type=float)
    p.add_argument("--phase-lambda", type=float, dest="phase_lambda")
    p.add_argument("--ohmicity", type=int)
    p.add_argument("--theta0", type=float)
    p.add_argument("--profile", choices=["linear", "quadratic"])
    p.add_argument("--seed", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="neqbath",
        description="decoherence and geometric phase in a random-phase bath",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decoherence", help="|F(t)| over a time grid")
    _add_common(p)
    p.add_argument("--grid", help="time grid start:stop:step")
    p.add_argument("--dip", action="store_true",
                   help="append a dip report for the curve")
    p.add_argument("--method", choices=["closed-form", "quadrature"],
                   help="force the evaluation route")
    p.add_argument("--tol", type=float,
                   help="absolute quadrature tolerance (default 1e-10)")
    p.set_defaults(func=cmd_table, table=_decoherence_table)

    p = sub.add_parser("gp", help="geometric phase over one quasi-cycle")
    _add_common(p)
    p.add_argument("--mode", choices=["point", "surface", "lambda", "gamma"])
    p.add_argument("--theta0-grid", dest="theta0_grid",
                   help="initial-state grid start:stop:step")
    p.add_argument("--gamma-grid", dest="gamma_grid",
                   help="coupling grid start:stop:step")
    p.add_argument("--lambda-grid", dest="lambda_grid",
                   help="delay grid start:stop:step")
    p.set_defaults(func=cmd_table, table=_gp_table)

    p = sub.add_parser("mc", help="Monte Carlo curve vs analytic")
    _add_common(p)
    p.add_argument("--n-modes", type=int, dest="n_modes")
    p.add_argument("--n-trajectories", type=int, dest="n_trajectories")
    p.add_argument("--dt", type=float)
    p.add_argument("--horizon", type=float)
    p.set_defaults(func=cmd_table, table=_mc_table)

    p = sub.add_parser("pdist", help="phase distribution snapshots")
    _add_common(p)
    p.add_argument("--times", help="comma-separated snapshot times (t > 0)")
    p.add_argument("--nx", type=int, help="grid points across [-pi, pi]")
    p.set_defaults(func=cmd_table, table=_pdist_table)

    p = sub.add_parser("reproduce-figure",
                       help="write the data behind one standard figure")
    p.add_argument("number", type=int, help="figure number, 1..7")
    p.add_argument("--out-dir", default="figures", dest="out_dir")
    p.set_defaults(func=cmd_reproduce_figure)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    # ConfigError is a ValueError, as is the library's rejection of bad
    # input; an array too large to allocate is a run sized past the machine
    except (ValueError, MemoryError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
