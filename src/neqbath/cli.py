"""Command-line front end.

Subcommands
    decoherence     |F(t)| on a time grid, optional dip report
    gp              geometric phase: point, surface, lambda and gamma modes
    mc              Monte Carlo estimate vs the analytic curve
    pdist           phase-distribution snapshots P(x, t)
    reproduce-figure  canned parameter sets for the standard figures

Numbers are written with 17 significant digits so a written CSV reparses
to the exact float that was computed.  Exit codes: 0 success, 2 bad
configuration (or a run too large to allocate, or an output path that
cannot be written), 3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import __version__
from .bath import _PROFILE_KINDS, BathConfig, phase_distribution_eval
from .dephasing import METHOD_CLOSED, METHOD_QUADRATURE, decoherence_factor, find_dip
from .geomphase import cycle_corrections, first_order_coefficient, geometric_phase, \
    gp_lambda_sweep, perturbative_correction, unitary_phase
from .montecarlo import EnsembleConfig, mc_decoherence_factor
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
    profile: str = "linear"
    theta0: float = math.pi / 4.0
    mode: str = "point"
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

    def bath_config(self) -> BathConfig:
        return BathConfig(
            gamma=self.gamma, cutoff=self.cutoff, diffusion=self.diffusion,
            phase_lambda=self.phase_lambda, ohmicity=self.ohmicity,
            phase_profile=self.profile,
        )


# each RunConfig field's kind, which rules how its value is checked; any
# other config key is rejected so typos fail loudly instead of running defaults
_KINDS = {f.name: "grid" if f.name.endswith("grid") else f.type
          for f in fields(RunConfig)}
# the allowed values of the str fields, for the flags and the config file
_CHOICES = {"profile": _PROFILE_KINDS,
            "mode": ("point", "surface", "lambda", "gamma")}


def _check_grid(grid) -> tuple:
    try:
        start, stop, step = (float(v) for v in grid)
    except (TypeError, ValueError) as exc:
        raise ConfigError(
            f"grid must be three numbers start:stop:step, got {grid!r}") from exc
    if not (math.isfinite(start) and math.isfinite(stop) and math.isfinite(step)):
        raise ConfigError(f"grid values must be finite, got {grid!r}")
    if step <= 0 or stop <= start:
        raise ConfigError(f"grid needs stop > start and step > 0, got {grid!r}")
    if (stop - start) / step >= 1e6:
        raise ConfigError(f"grid {grid!r} has more than 1,000,000 points")
    return (start, stop, step)


def grid_array(grid) -> np.ndarray:
    start, stop, step = _check_grid(grid)
    n = int(math.floor((stop - start) / step + 1e-9)) + 1
    return start + step * np.arange(n)


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


def _value(name: str, kind: str, val):
    """A config-file or flag value checked and coerced by its field kind."""
    if kind == "grid":
        if not isinstance(val, list):  # a string would unpack as characters
            raise ConfigError(f"{name} must be a list start:stop:step, got {val!r}")
        return _check_grid(val)
    if kind == "tuple":  # times
        if not isinstance(val, (list, tuple)):
            raise ConfigError("times must be a list of numbers")
        return tuple(_value("times entry", "float", v) for v in val)
    if kind == "int":
        if isinstance(val, bool) or not isinstance(val, int):
            raise ConfigError(f"{name} must be an integer, got {val!r}")
        return val
    if kind == "str":
        if val not in _CHOICES[name]:
            raise ConfigError(
                f"{name} must be one of {', '.join(_CHOICES[name])}, got {val!r}")
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
    flag_vals = {k: v for k, v in vars(args).items() if k in _KINDS and v is not None}
    for given in (file_vals, flag_vals):
        for name, kind in _KINDS.items():
            if name in given:
                setattr(cfg, name, _value(name, kind, given[name]))
    return cfg


def _fmt(value) -> str:
    return format(float(value), ".17g")


# rows formatted and written per block, so the text held at once stays
# bounded whatever the table's length
_BLOCK_ROWS = 4096


def _null_nonfinite(obj):
    """obj with every non-finite float replaced by None, for strict JSON."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _null_nonfinite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_null_nonfinite(v) for v in obj]
    return obj


def write_table(out: Optional[str], table: _Table, json_mode: bool):
    """Emit one table as CSV (default) or a JSON document.

    CSV: one header line, 17-significant-digit cells written in blocks
    of _BLOCK_ROWS rows, then any comment lines prefixed with '# '.
    JSON: metadata + columns + row arrays in one document, with every
    non-finite number mapped to null.
    """
    cols = list(table.columns.values())
    with (contextlib.nullcontext(sys.stdout) if out is None or out == "-"
          else open(out, "w")) as fh:
        if json_mode:
            rows = list(zip(*(_null_nonfinite(c.tolist()) for c in cols)))
            doc = {"metadata": _null_nonfinite(table.metadata),
                   "columns": list(table.columns), "rows": rows,
                   **({"comments": table.comments} if table.comments else {}),
                   **_null_nonfinite(table.extra)}
            fh.write(json.dumps(doc, indent=2, allow_nan=False) + "\n")
            return
        line = ",".join("%s" if c.dtype.kind == "U" else "%.17g" for c in cols)
        fh.write(",".join(table.columns) + "\n")
        for i in range(0, len(cols[0]), _BLOCK_ROWS):
            block = zip(*(c[i:i + _BLOCK_ROWS].tolist() for c in cols))
            fh.write("".join(line % row + "\n" for row in block))
        fh.write("".join(f"# {c}\n" for c in table.comments))


# the RunConfig fields of the bath, which every subcommand but pdist reads
_BATH = ("gamma", "cutoff", "diffusion", "phase_lambda", "ohmicity", "profile")
# the RunConfig fields of one MC run, as EnsembleConfig takes them
_MC_RUN = ("seed", "n_modes", "n_trajectories", "dt", "horizon")


def _bath_but(name: str) -> tuple:
    """The bath fields less one, which a gp mode takes from its own grid."""
    return tuple(field for field in _BATH if field != name)


class _Table(NamedTuple):
    """One output table, as write_table prints it.

    columns maps each header name to a 1-D array of equal length: float,
    or str for the text columns (method, note).
    """

    columns: dict
    comments: list
    metadata: dict
    extra: dict


# Each table function takes the merged RunConfig and the parsed flags of
# its subcommand, for the options that are not run parameters, and returns
# the table's columns, comment lines and extra JSON entries.
def _decoherence_table(cfg: RunConfig, args: argparse.Namespace) -> tuple:
    """|F| on cfg.grid, with a dip report when args.dip is set."""
    curve = decoherence_factor(grid_array(cfg.grid), cfg.bath_config(), tol=args.tol,
                               method=args.method)
    columns = {"t": curve.times, "F": curve.values, "err": curve.errors,
               "method": np.full(len(curve.times), curve.method)}
    comments, extra = [], {}
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
    return columns, comments, extra


def _point_table(cfg: RunConfig, args: argparse.Namespace) -> tuple:
    """phi_g, phi_u and delta of the one state cfg.theta0."""
    th = np.array([cfg.theta0])
    res = geometric_phase(cfg.bath_config(), th)
    return {"theta0": th, "phi_g": res.phi_g, "phi_u": res.phi_u,
            "delta": res.delta, "err": res.tol}, [], {}


def _surface_table(cfg: RunConfig, args: argparse.Namespace) -> tuple:
    """|delta| / phi_u over (theta0, gamma): NaN, and noted, where phi_u = 0."""
    th, ga = grid_array(cfg.theta0_grid), grid_array(cfg.gamma_grid)
    delta = cycle_corrections(replace(cfg, gamma=1.0).bath_config(), th, ga)[0]
    phi_u = unitary_phase(th)
    # dividing by NaN leaves the phi_u = 0 rows NaN without a warning
    ratio = (np.abs(delta) / np.where(phi_u > 0, phi_u, np.nan)[:, None]).ravel()
    return {"theta0": np.repeat(th, len(ga)), "gamma": np.tile(ga, len(th)),
            "delta_phi_norm": ratio,
            "note": np.where(np.isnan(ratio), "undefined-normalization", "")}, [], {}


def _lambda_table(cfg: RunConfig, args: argparse.Namespace) -> tuple:
    """|delta| over (theta0, lambda), with each theta0's monotonicity."""
    th, lams = grid_array(cfg.theta0_grid), grid_array(cfg.lambda_grid)
    sweep = gp_lambda_sweep(replace(cfg, phase_lambda=float(lams[0])).bath_config(), th, lams)
    columns = {"theta0": np.repeat(th, len(lams)), "lambda": np.tile(lams, len(th)),
               "delta_phi": sweep.delta_abs.ravel()}
    comments = [
        f"monotone theta0={_fmt(t0)}: "
        + ("yes" if sweep.monotone[i]
           else f"no (max increase {_fmt(sweep.max_increase[i])})")
        for i, t0 in enumerate(th)
    ]
    return columns, comments, {"theta0_values": [float(v) for v in th],
                               "monotone": [bool(b) for b in sweep.monotone],
                               "max_increase": [float(v) for v in sweep.max_increase]}


def _gamma_table(cfg: RunConfig, args: argparse.Namespace) -> tuple:
    """Exact phi_g over gamma beside the paper's first-order phi_g_pred."""
    bath = replace(cfg, gamma=1.0).bath_config()  # cfg.gamma is unread: the grid sets it
    ga = grid_array(cfg.gamma_grid)
    phi_u = unitary_phase(cfg.theta0)
    # the paper's formula, linear in gamma, goes first: an ohmicity it has
    # no coefficient for is refused before the cycle integral
    pred = phi_u + ga * perturbative_correction(bath, cfg.theta0)
    exact = phi_u + cycle_corrections(bath, [cfg.theta0], ga)[0][0]
    coeff = first_order_coefficient(bath)
    comments = [
        f"exact first-order coefficient C = {_fmt(coeff)}: phi_g = "
        "phi_u + gamma C sin(theta0)^2 cos(theta0) + O(gamma^2); "
        "phi_g_pred uses the paper's asymptotic coefficient"
    ]
    return {"gamma": ga, "phi_g": exact, "phi_g_pred": pred}, comments, \
        {"first_order_coefficient": coeff}


# gp mode -> (table function, the RunConfig fields it reads): the fields its
# metadata records and the only gp flags it accepts
_GP_MODES = {
    "point": (_point_table, _BATH + ("mode", "theta0")),
    "surface": (_surface_table, _bath_but("gamma") + ("mode", "theta0_grid", "gamma_grid")),
    "lambda": (_lambda_table,
               _bath_but("phase_lambda") + ("mode", "theta0_grid", "lambda_grid")),
    "gamma": (_gamma_table, _bath_but("gamma") + ("mode", "theta0", "gamma_grid")),
}


def _mc_table(cfg: RunConfig, args: argparse.Namespace) -> tuple:
    """The Monte Carlo curve beside the analytic one."""
    bath = cfg.bath_config()
    mc = mc_decoherence_factor(bath, EnsembleConfig(**{k: getattr(cfg, k) for k in _MC_RUN}))
    analytic = decoherence_factor(mc.times, bath)
    dev = mc.values - analytic.values
    max_dev = float(np.max(np.abs(dev)))
    return {"t": mc.times, "F_mc": mc.values, "stderr": mc.errors,
            "F_analytic": analytic.values, "dev": dev}, \
        [f"max|F_mc - F_analytic| = {_fmt(max_dev)}"], {"max_abs_dev": max_dev}


def _pdist_table(cfg: RunConfig, args: argparse.Namespace) -> tuple:
    """P(x, t) on nx points across [-pi, pi] at each snapshot time."""
    if cfg.nx < 2:
        raise ConfigError(f"nx must be >= 2, got {cfg.nx}")
    if not cfg.times:
        raise ConfigError("at least one snapshot time is required")
    x = np.linspace(-math.pi, math.pi, cfg.nx)
    p = np.concatenate([phase_distribution_eval(cfg.diffusion, x, float(t))
                        for t in cfg.times])
    return {"t": np.repeat(cfg.times, cfg.nx), "x": np.tile(x, len(cfg.times)), "P": p}, [], {}


# table subcommand -> (help, table function, the RunConfig fields it reads);
# each field is the flag --name.  gp runs the table of its mode, and takes
# the fields of every mode in RunConfig order
_COMMANDS = {
    "decoherence": ("|F(t)| over a time grid", _decoherence_table, _BATH + ("grid",)),
    "gp": ("geometric phase over one quasi-cycle", None,
           tuple(name for name in _KINDS
                 if any(name in reads for _, reads in _GP_MODES.values()))),
    "mc": ("Monte Carlo curve vs analytic", _mc_table, _BATH + _MC_RUN),
    "pdist": ("phase distribution snapshots", _pdist_table, ("diffusion", "times", "nx")),
}


def _table_reads(cfg: RunConfig, args: argparse.Namespace) -> tuple:
    """The table function of a run and the RunConfig fields it reads: a gp run
    reads those of its mode (--mode or the config file), and refuses a flag of another."""
    _, table, reads = _COMMANDS[args.command]
    if args.command == "gp":
        table, reads = _GP_MODES[cfg.mode]
        for name in _COMMANDS["gp"][2]:
            if getattr(args, name) is not None and name not in reads:
                raise ConfigError(f"gp --mode {cfg.mode} does not read --{name.replace('_', '-')}")
    return table, reads


def _table(args: argparse.Namespace) -> _Table:
    """The table of a decoherence, gp, mc or pdist run, whose metadata is
    the command, the version and the RunConfig fields the run read."""
    cfg = build_run_config(args)
    table, reads = _table_reads(cfg, args)
    columns, comments, extra = table(cfg, args)
    return _Table(columns, comments, {"command": args.command, "version": __version__,
                                      **{name: getattr(cfg, name) for name in reads}}, extra)


def cmd_table(args: argparse.Namespace) -> int:
    """decoherence, gp, mc and pdist: argv -> RunConfig -> table -> output."""
    write_table(args.out, _table(args), args.json)
    return 0


# The standard figures as canned runs of the decoherence and gp subcommands:
# figure -> (figure-wide metadata, [(CSV name, subcommand argv)]).
# The RunConfig defaults hold the figures' common parameters.
_FIGURES = {
    1: ({"note": "the static-noise Gaussian reference curve of the original "
                 "figure is a different bath family and is omitted"},
        [("fig1_ohmic", "decoherence --gamma 3 --diffusion 0.5"),
         ("fig1_supraohmic", "decoherence --gamma 3 --diffusion 0.5 --ohmicity 3")]),
    2: ({}, [("fig2_ohmic", "decoherence --dip"),
             ("fig2_supraohmic", "decoherence --dip --ohmicity 3")]),
    # the quadratic profile takes the quadrature route; a coarser grid
    # keeps the per-point bill reasonable
    3: ({}, [("fig3_ohmic", "decoherence --gamma 3 --profile quadratic --grid 0:10:0.02"),
             ("fig3_supraohmic", "decoherence --gamma 3 --profile quadratic "
                                 "--grid 0:10:0.02 --ohmicity 3")]),
    4: ({}, [("fig4_surface", "gp --mode surface --gamma-grid 0:2:0.1")]),
    5: ({}, [("fig5_surface", "gp --mode surface --gamma-grid 0:2:0.1 --ohmicity 3")]),
    6: ({"note": "initial state not pinned by the caption; "
                 "theta0 = pi/4 chosen and recorded here"},
        [("fig6_ohmic", "gp --mode gamma --diffusion 1"),
         ("fig6_supraohmic", "gp --mode gamma --diffusion 1 --ohmicity 3")]),
    7: ({}, [("fig7_lambda", "gp --mode lambda --gamma 3 --theta0-grid "
              f"{math.pi / 8!r}:{3 * math.pi / 8!r}:{math.pi / 8!r}")]),
}


def cmd_reproduce_figure(args: argparse.Namespace) -> int:
    if args.number not in _FIGURES:
        raise ConfigError(f"figure number must be 1..7, got {args.number}")
    outdir = Path(args.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    notes, jobs = _FIGURES[args.number]
    meta_doc = {"figure": args.number, "version": __version__,
                "files": [f"{name}.csv" for name, _ in jobs], **notes}
    for name, argv in jobs:
        table = _table(args.parser.parse_args(argv.split()))
        # only figure 7 keeps its comment lines; the dip and C go to the metadata
        write_table(str(outdir / f"{name}.csv"),
                    table if table.metadata.get("mode") == "lambda"
                    else table._replace(comments=[]), False)
        meta = {**table.metadata, **table.extra}
        # a figure of two CSVs keeps each one's metadata under its tag
        meta_doc.update(meta if len(jobs) == 1 else {name.split("_", 1)[1]: meta})
    meta_path = outdir / f"fig{args.number}_metadata.json"
    meta_path.write_text(json.dumps(meta_doc, indent=2) + "\n")
    for name, _ in jobs:
        print(outdir / f"{name}.csv")
    print(meta_path)
    return 0


# argparse reads each kind of flag into the form a config file holds
_FLAG_TYPES = {"float": float, "int": int, "str": str,
               "grid": lambda text: text.split(":"),
               "tuple": lambda text: [p for p in text.split(",") if p.strip()]}
_HELP = {"grid": "time grid start:stop:step",
         "theta0_grid": "initial-state grid start:stop:step",
         "gamma_grid": "coupling grid start:stop:step",
         "lambda_grid": "delay grid start:stop:step",
         "times": "comma-separated snapshot times (t > 0)",
         "nx": "grid points across [-pi, pi]"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="neqbath",
        description="decoherence and geometric phase in a random-phase bath",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, _, names) in _COMMANDS.items():
        p = sub.add_parser(command, help=text)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="output path ('-' or omitted: stdout)")
        p.add_argument("--json", action="store_true",
                       help="emit a JSON document instead of CSV")
        for name in names:
            p.add_argument("--" + name.replace("_", "-"),
                           type=_FLAG_TYPES[_KINDS[name]],
                           choices=_CHOICES.get(name), help=_HELP.get(name))
        if command == "decoherence":
            p.add_argument("--dip", action="store_true",
                           help="append a dip report for the curve")
            p.add_argument("--method", choices=[METHOD_CLOSED, METHOD_QUADRATURE],
                           help="force the evaluation route")
            p.add_argument("--tol", type=float, default=1e-10,
                           help="absolute tolerance of the quadrature route, the "
                                "quadratic profile or --method quadrature; the closed "
                                "form does not read it (default %(default)s)")
        p.set_defaults(func=cmd_table)

    p = sub.add_parser("reproduce-figure",
                       help="write the data behind one standard figure")
    p.add_argument("number", type=int, help="figure number, 1..7")
    p.add_argument("--out-dir", default="figures", dest="out_dir")
    p.set_defaults(func=cmd_reproduce_figure, parser=parser)
    return parser


_PARSER = None  # built by the first main call, then reused: parsing keeps no state


def main(argv: Optional[Sequence[str]] = None) -> int:
    global _PARSER
    _PARSER = _PARSER or build_parser()
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    # ConfigError is a ValueError, as is the library's rejection of bad
    # input; an array too large to allocate is a run sized past the machine
    except (ValueError, MemoryError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # an output path that cannot be written
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
