"""Command-line battery: formats, round-tripping, exit codes, figures."""

import argparse
import csv
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import neqbath
from neqbath.bath import BathConfig
from neqbath import cli, geomphase
from neqbath.cli import RunConfig, build_parser, build_run_config, grid_array, main
from neqbath.dephasing import decoherence_factor
from neqbath.geomphase import geometric_phase


def run_cli(args):
    return main(list(args))


def fresh_cli(args):
    """Run the CLI in a new process, which builds its parser anew."""
    src = str(Path(neqbath.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "neqbath.cli", *args], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path))


def read_csv(path):
    rows = []
    comments = []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# "):
                comments.append(line[2:])
            elif line:
                rows.append(line.split(","))
    header, data = rows[0], rows[1:]
    return header, data, comments


class TestGridParsing:
    def test_inclusive_endpoint(self):
        ts = grid_array((0.0, 10.0, 0.01))
        assert len(ts) == 1001
        assert ts[-1] == pytest.approx(10.0)

    def test_cli_grid_flag(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run_cli(["decoherence", "--grid", "0:1:0.5",
                        "--out", str(out)]) == 0
        _, data, _ = read_csv(out)
        assert len(data) == 3


class TestDecoherenceCommand:
    def test_round_trip_exact_floats(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert run_cli(["decoherence", "--grid", "0:2:0.25",
                        "--out", str(out)]) == 0
        header, data, _ = read_csv(out)
        assert header == ["t", "F", "err", "method"]
        cfg = BathConfig(gamma=0.5, cutoff=1.0, diffusion=0.1,
                         phase_lambda=1.0)
        curve = decoherence_factor(grid_array((0.0, 2.0, 0.25)), cfg)
        for row, want_t, want_f in zip(data, curve.times, curve.values):
            # 17 significant digits reparse to the identical float
            assert float(row[0]) == want_t
            assert float(row[1]) == want_f
            assert row[3] == "closed-form"

    def test_dip_comment(self, tmp_path):
        out = tmp_path / "curve.csv"
        run_cli(["decoherence", "--grid", "0:10:0.01", "--dip",
                 "--out", str(out)])
        _, _, comments = read_csv(out)
        assert any(c.startswith("dip t=") for c in comments)

    @pytest.mark.parametrize("ohmicity,weight", [(1, 1.0), (3, 6.0)])
    def test_far_times_give_the_plateau(self, ohmicity, weight, tmp_path):
        # 4 cutoff^2 (t - lam)^2 overflows here; F is exp(-gamma n!)
        out = tmp_path / "far.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(["decoherence", "--grid", "1e300:1e301:1e300",
                            "--ohmicity", str(ohmicity),
                            "--out", str(out)]) == 0
        _, data, _ = read_csv(out)
        assert len(data) == 10
        assert all(float(row[1]) == math.exp(-0.5 * weight) for row in data)

    def test_huge_cutoff_at_the_delay(self, tmp_path):
        # 4 cutoff^2 overflows, and at t = lam it meets s = 0 (inf * 0)
        out = tmp_path / "huge.csv"
        assert run_cli(["decoherence", "--cutoff", "1e200", "--grid", "0:2:1",
                        "--out", str(out)]) == 0
        _, data, _ = read_csv(out)
        assert float(data[0][1]) == 1.0
        # exp(-gamma (1 - e^{-4 D lam})) at the defaults
        assert data[1][1] == "0.84802939745397565"
        assert float(data[1][1]) == pytest.approx(
            math.exp(-0.5 * (1.0 - math.exp(-0.4))), rel=1e-15)

    @pytest.mark.parametrize("ohmicity", [10, 20])
    def test_high_ohmicity_takes_the_closed_form(self, ohmicity, tmp_path):
        out = tmp_path / "high.csv"
        assert run_cli(["decoherence", "--ohmicity", str(ohmicity),
                        "--grid", "0:2:0.5", "--out", str(out)]) == 0
        _, data, _ = read_csv(out)
        assert len(data) == 5
        assert all(row[3] == "closed-form" for row in data)

    def test_forced_closed_form_agrees_with_quadrature(self, tmp_path):
        curves = {}
        for method in ("closed-form", "quadrature"):
            out = tmp_path / f"{method}.csv"
            assert run_cli(["decoherence", "--ohmicity", "2", "--method", method,
                            "--grid", "0:5:0.25", "--out", str(out)]) == 0
            curves[method] = read_csv(out)[1]
        for closed, quad in zip(curves["closed-form"], curves["quadrature"]):
            assert closed[3] == "closed-form" and quad[3] == "quadrature"
            assert abs(float(closed[1]) - float(quad[1])) <= float(quad[2]), closed[0]

    def test_no_dip_comment_when_flat(self, tmp_path):
        out = tmp_path / "curve.csv"
        run_cli(["decoherence", "--gamma", "0", "--grid", "0:2:0.1", "--dip",
                 "--out", str(out)])
        _, _, comments = read_csv(out)
        assert "dip none" in comments

    def test_json_document(self, tmp_path):
        out = tmp_path / "curve.json"
        run_cli(["decoherence", "--grid", "0:1:0.5", "--json", "--dip",
                 "--out", str(out)])
        doc = json.loads(out.read_text())
        assert doc["columns"] == ["t", "F", "err", "method"]
        assert len(doc["rows"]) == 3
        assert doc["metadata"]["command"] == "decoherence"
        assert "dip" in doc

    def test_overflowing_density_exits_3_without_warnings(self, tmp_path, capsys):
        # 4 gamma x^170 passes the largest double inside the beta integrand
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(["decoherence", "--gamma", "1e300", "--ohmicity", "170",
                            "--method", "quadrature", "--grid", "0:1:0.5",
                            "--out", str(tmp_path / "x.csv")])
        assert code == 3
        assert "integrand returned a non-finite value" in capsys.readouterr().err

    def test_unconvergable_tolerance_exits_3(self, tmp_path, capsys):
        code = run_cli(["decoherence", "--grid", "1:2:1", "--method",
                        "quadrature", "--tol", "1e-300",
                        "--out", str(tmp_path / "x.csv")])
        assert code == 3
        assert "convergence" in capsys.readouterr().err

    @pytest.mark.parametrize("profile", ["linear", "quadratic"])
    def test_negative_grid_exits_2_naming_the_time(self, profile, tmp_path, capsys):
        code = run_cli(["decoherence", "--profile", profile, "--grid=-1:1:0.5",
                        "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "times must be >= 0, got -1.0" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()


class TestConfigHandling:
    def test_file_then_flag_precedence(self, tmp_path):
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps({"gamma": 3.0, "diffusion": 0.5,
                                       "grid": [0.0, 1.0, 0.5]}))
        out = tmp_path / "a.csv"
        run_cli(["decoherence", "--config", str(cfgfile), "--out", str(out)])
        _, data, _ = read_csv(out)
        cfg_file_val = float(data[2][1])
        want = decoherence_factor(
            np.array([0.0, 0.5, 1.0]),
            BathConfig(gamma=3.0, cutoff=1.0, diffusion=0.5,
                       phase_lambda=1.0)).values[2]
        assert cfg_file_val == want
        out2 = tmp_path / "b.csv"
        run_cli(["decoherence", "--config", str(cfgfile), "--gamma", "1.0",
                 "--out", str(out2)])
        _, data2, _ = read_csv(out2)
        want2 = decoherence_factor(
            np.array([0.0, 0.5, 1.0]),
            BathConfig(gamma=1.0, cutoff=1.0, diffusion=0.5,
                       phase_lambda=1.0)).values[2]
        assert float(data2[2][1]) == want2

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        # omega, the drive frequency, is the unit of every rate, not a key
        cfgfile = tmp_path / "bad.json"
        for doc, key in (({"gamma": 1.0, "couplingg": 2.0}, "couplingg"),
                         ({"omega": 1.0}, "omega")):
            cfgfile.write_text(json.dumps(doc))
            assert run_cli(["decoherence", "--config", str(cfgfile)]) == 2
            assert key in capsys.readouterr().err

    def test_malformed_json_exits_2(self, tmp_path):
        cfgfile = tmp_path / "bad.json"
        cfgfile.write_text("{gamma: 1}")
        assert run_cli(["decoherence", "--config", str(cfgfile)]) == 2

    def test_bad_values_exit_2(self, tmp_path):
        assert run_cli(["decoherence", "--gamma", "-2"]) == 2
        assert run_cli(["decoherence", "--grid", "5:1:0.5"]) == 2
        assert run_cli(["decoherence", "--grid", "abc"]) == 2
        assert run_cli(["gp", "--theta0", "4.0"]) == 2
        # a horizon shorter than one step formerly gave the single row t = 0
        assert run_cli(["mc", "--n-modes", "64", "--n-trajectories", "2",
                        "--dt", "0.001", "--horizon", "0.0004"]) == 2
        # argparse itself rejects bad enum choices with the same exit code
        with pytest.raises(SystemExit) as exc:
            run_cli(["gp", "--mode", "wavelet"])
        assert exc.value.code == 2

    def test_missing_config_file_exits_2(self):
        assert run_cli(["decoherence", "--config", "/nonexistent.json"]) == 2

    @pytest.mark.parametrize("argv", [["--grid", "abc"], ["--grid", "0:1"],
                                      ["--config", "{grid_file}"]])
    def test_grid_errors_name_the_form(self, argv, tmp_path, capsys):
        grid_file = tmp_path / "grid.json"
        grid_file.write_text(json.dumps({"grid": "0:1:0.5"}))
        argv = [a.format(grid_file=grid_file) for a in argv]
        assert run_cli(["decoherence", *argv]) == 2
        assert "start:stop:step" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,doc", [
        (["decoherence"], {"grid": "123"}),
        (["gp", "--mode", "surface"], {"gamma_grid": "012"}),
    ], ids=["grid", "gamma_grid"])
    def test_file_grid_as_a_string_exits_2(self, argv, doc, tmp_path, capsys):
        # formerly read as its characters: start 1, stop 2, step 3 ran t = 1 alone
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps(doc))
        assert run_cli([*argv, "--config", str(cfgfile),
                        "--out", str(tmp_path / "out.csv")]) == 2
        assert "start:stop:step" in capsys.readouterr().err

    def test_times_error_names_the_entry(self, capsys):
        assert run_cli(["pdist", "--times", "a,1"]) == 2
        assert "times entry must be a number, got 'a'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["decoherence", "gp", "pdist"])
    def test_file_mode_outside_the_choices_exits_2(self, command, tmp_path, capsys):
        # checked against the flag's choices whether or not the subcommand reads it
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps({"mode": "x"}))
        assert run_cli([command, "--config", str(cfgfile)]) == 2
        assert "mode must be one of" in capsys.readouterr().err


# each subcommand's option strings, in --help order; the table subcommands'
# run-parameter flags are built from the RunConfig fields each one reads
OUTPUT_OPTIONS = ["-h", "--help", "--config", "--out", "--json"]
BATH_OPTIONS = ["--gamma", "--cutoff", "--diffusion", "--phase-lambda", "--ohmicity",
                "--profile"]
OPTIONS = {
    "decoherence": OUTPUT_OPTIONS + BATH_OPTIONS + ["--grid", "--dip", "--method", "--tol"],
    "gp": OUTPUT_OPTIONS + BATH_OPTIONS + ["--theta0", "--mode", "--theta0-grid",
                                           "--gamma-grid", "--lambda-grid"],
    "mc": OUTPUT_OPTIONS + BATH_OPTIONS + ["--seed", "--n-modes", "--n-trajectories", "--dt",
                                           "--horizon"],
    "pdist": OUTPUT_OPTIONS + ["--diffusion", "--times", "--nx"],
    "reproduce-figure": ["-h", "--help", "--out-dir"],
}


def subcommand_options():
    """Each subcommand's option strings, in --help order."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {command: [s for a in parser._actions for s in a.option_strings]
            for command, parser in sub.choices.items()}


def test_each_subcommand_keeps_its_flags():
    assert list(subcommand_options().items()) == list(OPTIONS.items())


BATH_METADATA = ["gamma", "cutoff", "diffusion", "phase_lambda", "ohmicity", "profile"]
# each gp mode -> (a small base argv, the RunConfig fields it reads, in the
# order its metadata lists them); it refuses a flag of any other field
GP_MODES = {
    "point": ([], [*BATH_METADATA, "mode", "theta0"]),
    "surface": (["--mode", "surface", "--theta0-grid", "0:1:0.5", "--gamma-grid", "0:0.2:0.1"],
                [*BATH_METADATA[1:], "mode", "theta0_grid", "gamma_grid"]),
    "lambda": (["--mode", "lambda", "--theta0-grid", "0:1:0.5", "--lambda-grid", "0:2:1"],
               ["gamma", "cutoff", "diffusion", "ohmicity", "profile", "mode", "theta0_grid",
                "lambda_grid"]),
    "gamma": (["--mode", "gamma", "--gamma-grid", "0:0.2:0.1"],
              [*BATH_METADATA[1:], "mode", "theta0", "gamma_grid"]),
}


def flag_of(name):
    return "--" + name.replace("_", "-")


# every run-parameter flag of a table subcommand -> (base argv, a value that
# changes the CSV of the base run; None for a switch).  A flag applies on its
# own route: --tol on the quadratic profile, each gp flag in a mode that reads it.
_DECOHERENCE = ["--grid", "0:2:0.5"]
_MC = ["--n-modes", "64", "--n-trajectories", "2", "--horizon", "0.5", "--dt", "0.1"]
_PDIST = ["--times", "1", "--nx", "5"]
_BATH_VALUES = {"--gamma": "3", "--cutoff": "2", "--diffusion": "0.5",
                "--phase-lambda": "2", "--ohmicity": "3", "--profile": "quadratic"}
_GP_VALUES = {**_BATH_VALUES, "--theta0": "1", "--theta0-grid": "0:1:0.25",
              "--gamma-grid": "0:0.2:0.05", "--lambda-grid": "0:2:0.5"}
# (gp mode, flag) for each flag the mode reads, and for each it refuses
GP_READ = [(mode, flag) for mode, (_, names) in GP_MODES.items()
           for flag in map(flag_of, names) if flag != "--mode"]
GP_REFUSED = [(mode, flag) for mode, (_, names) in GP_MODES.items()
              for flag in _GP_VALUES if flag not in map(flag_of, names)]
FLAG_EFFECTS = {
    **{(command, flag): (base, value)
       for command, base in (("decoherence", _DECOHERENCE), ("mc", _MC))
       for flag, value in _BATH_VALUES.items()},
    # each gp flag in the first mode that reads it; GP_READ_LATER holds the others
    **{("gp", flag): (GP_MODES[next(mode for mode, read in GP_READ if read == flag)][0], value)
       for flag, value in _GP_VALUES.items()},
    ("decoherence", "--grid"): (_DECOHERENCE, "0:2:0.25"),
    ("decoherence", "--dip"): (_DECOHERENCE, None),
    ("decoherence", "--method"): (_DECOHERENCE, "quadrature"),
    ("decoherence", "--tol"): (["--profile", "quadratic", *_DECOHERENCE], "1e-6"),
    ("gp", "--mode"): ([], "surface"),
    ("mc", "--seed"): (_MC, "2"),
    ("mc", "--n-modes"): (_MC, "128"),
    ("mc", "--n-trajectories"): (_MC, "3"),
    ("mc", "--dt"): (_MC, "0.05"),
    ("mc", "--horizon"): (_MC, "1"),
    ("pdist", "--diffusion"): (_PDIST, "0.5"),
    ("pdist", "--times"): (_PDIST, "2"),
    ("pdist", "--nx"): (_PDIST, "9"),
}
GP_READ_LATER = [(mode, flag) for mode, flag in GP_READ
                 if FLAG_EFFECTS["gp", flag][0] != GP_MODES[mode][0]]


class TestEveryFlagIsRead:
    """A table subcommand takes only the flags its run reads."""

    def test_the_table_holds_every_run_parameter_flag(self):
        options = subcommand_options()
        assert set(FLAG_EFFECTS) == {(command, flag) for command in cli._COMMANDS
                                     for flag in options[command]
                                     if flag not in OUTPUT_OPTIONS}

    @staticmethod
    def assert_changes_the_csv(command, base, flag, value, tmp_path):
        outputs = []
        for extra in ([], [flag] if value is None else [f"{flag}={value}"]):
            out = tmp_path / f"run{len(outputs)}.csv"
            with warnings.catch_warnings():
                if command == "mc":
                    warnings.simplefilter("ignore")  # the small ensembles' coverage
                assert run_cli([command, *base, *extra, "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] != outputs[1]

    @pytest.mark.parametrize("command,flag", list(FLAG_EFFECTS),
                             ids=["".join(key) for key in FLAG_EFFECTS])
    def test_flag_changes_the_csv(self, command, flag, tmp_path):
        base, value = FLAG_EFFECTS[command, flag]
        self.assert_changes_the_csv(command, base, flag, value, tmp_path)

    @pytest.mark.parametrize("mode,flag", GP_READ_LATER,
                             ids=["".join(key) for key in GP_READ_LATER])
    def test_each_gp_mode_flag_changes_the_csv(self, mode, flag, tmp_path):
        self.assert_changes_the_csv("gp", GP_MODES[mode][0], flag, _GP_VALUES[flag], tmp_path)

    @pytest.mark.parametrize("mode,flag", GP_REFUSED, ids=["".join(key) for key in GP_REFUSED])
    def test_a_flag_its_gp_mode_never_reads_exits_2(self, mode, flag, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run_cli(["gp", *GP_MODES[mode][0], f"{flag}={_GP_VALUES[flag]}",
                        "--out", str(out)]) == 2
        assert f"config error: gp --mode {mode} does not read {flag}\n" \
            == capsys.readouterr().err
        assert not out.exists()

    def test_the_mode_may_come_from_the_config_file(self, tmp_path, capsys):
        # the file's fields of another mode are accepted; a flag of one is refused
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps({"mode": "surface", "theta0": 1.0, "gamma": 2.0}))
        out = tmp_path / "x.csv"
        assert run_cli(["gp", "--config", str(cfgfile), "--gamma-grid", "0:0.2:0.1",
                        "--theta0-grid", "0:1:0.5", "--out", str(out)]) == 0
        assert run_cli(["gp", "--config", str(cfgfile), "--theta0", "1",
                        "--out", str(out)]) == 2
        assert "gp --mode surface does not read --theta0" in capsys.readouterr().err

    @pytest.mark.parametrize("mode,unread,grids", [
        ("surface", {"gamma": -1}, ["--theta0-grid", "0:1:0.5", "--gamma-grid", "0:0.2:0.1"]),
        ("gamma", {"gamma": -1}, ["--gamma-grid", "0:0.2:0.1"]),
        ("lambda", {"phase_lambda": -1}, ["--theta0-grid", "0:1:0.5", "--lambda-grid", "0:1:0.5"]),
    ], ids=["surface", "gamma", "lambda"])
    def test_a_bath_field_its_gp_mode_never_reads_is_not_checked(self, mode, unread, grids,
                                                                  tmp_path):
        # an invalid file value of a field the mode does not read is inert:
        # the run exits 0 with the bytes of the run without it
        outputs = []
        for extra in ({}, unread):
            cfgfile = tmp_path / "run.json"
            cfgfile.write_text(json.dumps({"mode": mode, **extra}))
            out = tmp_path / f"run{len(outputs)}.json"
            assert run_cli(["gp", "--config", str(cfgfile), *grids, "--json",
                            "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("argv", [
        ["pdist", "--gamma", "1"], ["pdist", "--theta0", "1"], ["decoherence", "--seed", "1"],
        ["decoherence", "--theta0", "4"], ["gp", "--seed", "1"], ["mc", "--theta0", "1"],
    ])
    def test_a_flag_the_run_never_reads_is_unknown(self, argv, capsys):
        with pytest.raises(SystemExit) as exc_info:
            run_cli(argv)
        assert exc_info.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["point", "gamma"])
    def test_theta0_is_checked_where_it_is_read(self, mode, capsys):
        assert run_cli(["gp", *GP_MODES[mode][0], "--theta0", "4"]) == 2
        assert "config error: theta0 must lie in [0, pi], got 4.0" in capsys.readouterr().err


# every RunConfig field with a flag: (subcommand, flag, config-file value,
# flag text, flag value, a file value of the wrong kind)
FIELD_FLAGS = {
    "gamma": ("decoherence", "--gamma", 2.0, "3", 3.0, "x"),
    "cutoff": ("decoherence", "--cutoff", 2.0, "3", 3.0, "x"),
    "diffusion": ("decoherence", "--diffusion", 0.2, "0.3", 0.3, "x"),
    "phase_lambda": ("decoherence", "--phase-lambda", 2.0, "3", 3.0, "x"),
    "ohmicity": ("decoherence", "--ohmicity", 2, "3", 3, 1.5),
    "profile": ("decoherence", "--profile", "quadratic", "linear", "linear", 3),
    "theta0": ("gp", "--theta0", 0.5, "1.5", 1.5, "x"),
    "grid": ("decoherence", "--grid", [0, 2, 0.5], "0:1:0.25", (0.0, 1.0, 0.25),
             "0:1:0.5"),
    "seed": ("mc", "--seed", 2, "3", 3, 1.5),
    "n_modes": ("mc", "--n-modes", 8, "16", 16, 1.5),
    "n_trajectories": ("mc", "--n-trajectories", 8, "16", 16, 1.5),
    "dt": ("mc", "--dt", 0.01, "0.02", 0.02, "x"),
    "horizon": ("mc", "--horizon", 2.0, "3", 3.0, "x"),
    "times": ("pdist", "--times", [1, 2], "3,4", (3.0, 4.0), 1),
    "nx": ("pdist", "--nx", 9, "17", 17, 1.5),
    "theta0_grid": ("gp", "--theta0-grid", [0, 1, 0.5], "0:2:1", (0.0, 2.0, 1.0),
                    "0:1:0.5"),
    "gamma_grid": ("gp", "--gamma-grid", [0, 1, 0.5], "0:2:1", (0.0, 2.0, 1.0),
                   "0:1:0.5"),
    "lambda_grid": ("gp", "--lambda-grid", [0, 1, 0.5], "0:2:1", (0.0, 2.0, 1.0),
                    "0:1:0.5"),
    "mode": ("gp", "--mode", "surface", "gamma", "gamma", 3),
}


class TestRunConfigFields:
    def test_every_flagged_field_is_listed(self):
        assert {f.name for f in fields(RunConfig)} - set(FIELD_FLAGS) == set()

    @pytest.mark.parametrize("name", sorted(FIELD_FLAGS))
    def test_flag_beats_the_file_and_the_file_beats_defaults(self, name, tmp_path):
        command, flag, _, text, want, _ = FIELD_FLAGS[name]
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps({k: v[2] for k, v in FIELD_FLAGS.items()}))
        args = build_parser().parse_args(
            [command, "--config", str(cfgfile), f"{flag}={text}"])
        cfg = build_run_config(args)
        assert getattr(cfg, name) == want
        for key, spec in FIELD_FLAGS.items():
            if key != name:
                file_val = spec[2]
                assert getattr(cfg, key) == (
                    tuple(file_val) if isinstance(file_val, list) else file_val)
                assert getattr(cfg, key) != getattr(RunConfig(), key), key

    @pytest.mark.parametrize("name", sorted(FIELD_FLAGS))
    def test_file_value_of_the_wrong_kind_exits_2(self, name, tmp_path, capsys):
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps({name: FIELD_FLAGS[name][5]}))
        assert run_cli(["decoherence", "--config", str(cfgfile)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", [None, "a"])
    def test_times_entries_must_be_numbers(self, entry, tmp_path, capsys):
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps({"times": [1, entry]}))
        assert run_cli(["pdist", "--config", str(cfgfile)]) == 2
        assert "times entry must be a number" in capsys.readouterr().err


class TestGpCommand:
    def test_point_mode(self, tmp_path):
        out = tmp_path / "gp.csv"
        run_cli(["gp", "--theta0", str(math.pi / 4.0), "--out", str(out)])
        header, data, _ = read_csv(out)
        assert header == ["theta0", "phi_g", "phi_u", "delta", "err"]
        cfg = BathConfig(gamma=0.5, cutoff=1.0, diffusion=0.1,
                         phase_lambda=1.0)
        want = geometric_phase(cfg, math.pi / 4.0)
        assert float(data[0][1]) == want.phi_g

    def test_surface_mode_flags_pole(self, tmp_path):
        out = tmp_path / "surf.csv"
        run_cli(["gp", "--mode", "surface",
                 "--theta0-grid", f"0:{math.pi}:{math.pi / 4.0}",
                 "--gamma-grid", "0:0.2:0.1", "--out", str(out)])
        header, data, _ = read_csv(out)
        assert header == ["theta0", "gamma", "delta_phi_norm", "note"]
        pole_rows = [r for r in data if r[3] == "undefined-normalization"]
        assert len(pole_rows) == 3  # three gamma values at theta0 = pi
        assert all(r[2] == "nan" for r in pole_rows)

    def test_surface_json_uses_null_for_nan(self, tmp_path):
        out = tmp_path / "surf.json"
        run_cli(["gp", "--mode", "surface",
                 "--theta0-grid", f"0:{math.pi}:{math.pi / 2.0}",
                 "--gamma-grid", "0:0.1:0.1", "--json", "--out", str(out)])
        doc = json.loads(out.read_text())
        pole = [r for r in doc["rows"] if r[3] == "undefined-normalization"]
        assert pole and all(r[2] is None for r in pole)

    def test_lambda_mode_reports_monotonicity(self, tmp_path):
        out = tmp_path / "lam.csv"
        run_cli(["gp", "--mode", "lambda", "--gamma", "3.0",
                 "--theta0-grid",
                 f"{math.pi / 8.0}:{3.0 * math.pi / 8.0}:{math.pi / 8.0}",
                 "--lambda-grid", "0:2:0.5", "--out", str(out)])
        header, data, comments = read_csv(out)
        assert header == ["theta0", "lambda", "delta_phi"]
        assert len(data) == 3 * 5
        assert sum(c.startswith("monotone theta0=") for c in comments) == 3

    def test_gamma_mode(self, tmp_path):
        out = tmp_path / "ga.csv"
        run_cli(["gp", "--mode", "gamma", "--diffusion", "1.0",
                 "--gamma-grid", "0:0.1:0.05", "--out", str(out)])
        header, data, _ = read_csv(out)
        assert header == ["gamma", "phi_g", "phi_g_pred"]
        assert len(data) == 3

    def test_gamma_mode_reports_first_order_coefficient(self, tmp_path):
        out = tmp_path / "ga.json"
        run_cli(["gp", "--mode", "gamma", "--diffusion", "1.0",
                 "--gamma-grid", "0:0.1:0.05", "--json", "--out", str(out)])
        doc = json.loads(out.read_text())
        assert doc["first_order_coefficient"] == pytest.approx(2.916017,
                                                               abs=1e-6)
        assert doc["comments"][0].startswith("exact first-order coefficient")

    def test_gamma_mode_refuses_an_ohmicity_before_the_cycle_integral(self, monkeypatch,
                                                                      capsys):
        # formerly the exact column was integrated first, and only then refused
        def no_integral(*args, **kwargs):
            raise AssertionError("the cycle integral ran")

        monkeypatch.setattr(geomphase, "integrate_finite", no_integral)
        assert run_cli(["gp", "--mode", "gamma", "--profile", "quadratic", "--ohmicity", "5",
                        "--gamma-grid", "0:3:0.01"]) == 2
        assert "no first-order coefficient for ohmicity 5" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:discretized modes carry")
class TestMcCommand:
    ARGS = ["mc", "--n-modes", "32", "--n-trajectories", "50",
            "--dt", "0.005", "--horizon", "2", "--seed", "11",
            "--gamma", "0.3", "--diffusion", "0.2"]

    def test_csv_shape_and_summary(self, tmp_path):
        out = tmp_path / "mc.csv"
        assert run_cli(self.ARGS + ["--out", str(out)]) == 0
        header, data, comments = read_csv(out)
        assert header == ["t", "F_mc", "stderr", "F_analytic", "dev"]
        assert len(data) == 401
        assert any(c.startswith("max|F_mc - F_analytic| = ") for c in comments)
        # dev column is consistent with the other two
        for row in (data[7], data[200]):
            assert float(row[4]) == pytest.approx(
                float(row[1]) - float(row[3]), abs=1e-16)

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(self.ARGS + ["--out", str(a)])
        run_cli(self.ARGS + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_json_metadata(self, tmp_path):
        out = tmp_path / "mc.json"
        run_cli(self.ARGS + ["--json", "--out", str(out)])
        doc = json.loads(out.read_text())
        assert doc["metadata"]["seed"] == 11
        assert "phase_model" not in doc["metadata"]  # one reading, nothing to record
        assert "max_abs_dev" in doc

    def test_overflowing_couplings_exit_2_without_warnings(self, tmp_path, capsys):
        # 4 gamma x^170 passes the largest double on every mode
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(["mc", "--ohmicity", "170", "--gamma", "1e300",
                            "--n-modes", "4", "--n-trajectories", "2",
                            "--horizon", "0.5", "--dt", "0.1",
                            "--out", str(tmp_path / "mc.csv")])
        assert code == 2
        assert "couplings overflow" in capsys.readouterr().err
        assert not (tmp_path / "mc.csv").exists()

    def test_paths_past_float32_exit_2_without_warnings(self, tmp_path, capsys):
        # D horizon = 1e299: paths of spread 1.4e149 would overflow the
        # float32 reading; the input is refused before any trajectory runs
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(["mc", "--n-modes", "3", "--n-trajectories", "2",
                            "--horizon", "1e300", "--dt", "1e299",
                            "--out", str(tmp_path / "mc.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "diffusion * horizon = 1e+299" in err and "float32" in err
        assert not (tmp_path / "mc.csv").exists()


class TestPdistCommand:
    def test_snapshots_normalize(self, tmp_path):
        out = tmp_path / "p.csv"
        assert run_cli(["pdist", "--diffusion", "1.0", "--times", "0.5,2",
                        "--nx", "401", "--out", str(out)]) == 0
        header, data, _ = read_csv(out)
        assert header == ["t", "x", "P"]
        arr = np.array([[float(v) for v in row] for row in data])
        for t in (0.5, 2.0):
            block = arr[arr[:, 0] == t]
            assert len(block) == 401
            assert np.trapezoid(block[:, 2], block[:, 1]) \
                == pytest.approx(1.0, abs=1e-6)

    def test_zero_time_rejected(self, capsys):
        assert run_cli(["pdist", "--times", "0"]) == 2
        assert "delta" in capsys.readouterr().err

    def test_negative_time_rejected(self):
        assert run_cli(["pdist", "--times", "-1"]) == 2

    def test_narrow_peak_is_exact_and_silent(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        assert run_cli(["pdist", "--diffusion", "1", "--times", "1e-9", "--nx", "5",
                        "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        _, data, _ = read_csv(out)
        assert float(data[2][1]) == 0.0
        assert float(data[2][2]) == pytest.approx(1.0 / math.sqrt(4.0 * math.pi * 1e-9),
                                                  rel=1e-13)

    def test_infinite_time_is_the_uniform_limit(self, tmp_path):
        out = tmp_path / "p.csv"
        assert run_cli(["pdist", "--times", "inf", "--nx", "5", "--out", str(out)]) == 0
        _, data, _ = read_csv(out)
        assert [float(row[2]) for row in data] == [1.0 / (2.0 * math.pi)] * 5


    def test_infinite_time_in_json_is_null(self, tmp_path):
        # formerly exit 2: the metadata's times list held a bare inf
        out = tmp_path / "p.json"
        assert run_cli(["pdist", "--times", "0.1,inf", "--nx", "5", "--json",
                        "--out", str(out)]) == 0
        text = out.read_text()
        assert "Infinity" not in text
        doc = json.loads(text)
        assert doc["metadata"]["times"] == [0.1, None]
        inf_rows = doc["rows"][5:]
        assert [row[0] for row in inf_rows] == [None] * 5
        assert [row[2] for row in inf_rows] == [1.0 / (2.0 * math.pi)] * 5


class TestTableOutput:
    """CSV and --json are written from one set of named columns."""

    @pytest.mark.parametrize("argv,keys", [
        (["decoherence", "--grid", "0:1:0.5"], [*BATH_METADATA, "grid"]),
        (["gp"], GP_MODES["point"][1]),
        (["gp", "--mode", "surface", "--theta0-grid", "0:1:0.5", "--gamma-grid", "0:1:0.5"],
         GP_MODES["surface"][1]),
        (["gp", "--mode", "lambda", "--theta0-grid", "0:1:0.5", "--lambda-grid", "0:1:0.5"],
         GP_MODES["lambda"][1]),
        (["gp", "--mode", "gamma", "--gamma-grid", "0:0.2:0.1"], GP_MODES["gamma"][1]),
        (["mc", "--n-modes", "128", "--n-trajectories", "2", "--horizon", "0.5"],
         [*BATH_METADATA, "seed", "n_modes", "n_trajectories", "dt", "horizon"]),
        # P(x, t) depends on D alone: pdist builds no bath
        (["pdist", "--times", "1", "--nx", "5"], ["diffusion", "times", "nx"]),
    ], ids=["decoherence", "gp-point", "gp-surface", "gp-lambda", "gp-gamma", "mc", "pdist"])
    def test_json_metadata_keys_in_order(self, argv, keys, tmp_path):
        # the command, the version, then the RunConfig fields the run read
        out = tmp_path / "t.json"
        assert run_cli([*argv, "--json", "--out", str(out)]) == 0
        assert list(json.loads(out.read_text())["metadata"]) == ["command", "version", *keys]

    @pytest.mark.parametrize("argv", [
        ["decoherence", "--dip", "--grid", "0:3:0.1"],
        ["gp"],
        ["gp", "--mode", "surface", "--gamma-grid", "0:1:0.5",
         "--theta0-grid", f"0:{math.pi!r}:{math.pi / 4!r}"],
        ["gp", "--mode", "lambda", "--theta0-grid", "0.3:0.9:0.3",
         "--lambda-grid", "0:2:0.5"],
        ["gp", "--mode", "gamma", "--gamma-grid", "0:0.2:0.05"],
        ["mc", "--n-modes", "16", "--n-trajectories", "1", "--horizon", "0.5"],
        ["pdist", "--times", "0.1,2", "--nx", "9"],
    ], ids=["decoherence-dip", "gp-point", "gp-surface", "gp-lambda",
            "gp-gamma", "mc-1", "pdist"])
    def test_csv_and_json_agree_cell_for_cell(self, argv, tmp_path):
        csv_out, json_out = tmp_path / "t.csv", tmp_path / "t.json"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the 16-mode MC's coverage
            assert run_cli(argv + ["--out", str(csv_out)]) == 0
            assert run_cli(argv + ["--json", "--out", str(json_out)]) == 0
        header, data, comments = read_csv(csv_out)
        doc = json.loads(json_out.read_text())
        assert header == doc["columns"]
        assert comments == doc.get("comments", [])
        assert len(data) == len(doc["rows"]) > 0
        for j, name in enumerate(header):
            cells = [row[j] for row in data]
            jcells = [row[j] for row in doc["rows"]]
            if name in ("method", "note"):
                assert cells == jcells
            else:
                np.testing.assert_array_equal(
                    [float(c) for c in cells],
                    [math.nan if c is None else c for c in jcells])
        if argv[:3] == ["gp", "--mode", "surface"]:
            assert "undefined-normalization" in [row[3] for row in data]
        if argv[0] == "mc":
            assert all(row[2] is None for row in doc["rows"])

    def test_memory_is_flat_in_the_row_count(self, tmp_path):
        # 81,940 rows: the three float columns take 2 MB; the row tuples
        # and the whole text once took 28 MB
        times = ",".join(f"{0.05 * (k + 1):.2f}" for k in range(20))
        tracemalloc.start()
        try:
            assert run_cli(["pdist", "--times", times, "--nx", "4097",
                            "--out", str(tmp_path / "p.csv")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6e6


class TestReproduceFigure:
    def test_weak_coupling_curves(self, tmp_path):
        assert run_cli(["reproduce-figure", "2",
                        "--out-dir", str(tmp_path)]) == 0
        meta = json.loads((tmp_path / "fig2_metadata.json").read_text())
        assert meta["figure"] == 2
        assert meta["ohmic"]["dip"] is not None
        assert 1.0 <= meta["ohmic"]["dip"]["t"] <= 1.2
        header, data, _ = read_csv(tmp_path / "fig2_ohmic.csv")
        assert header == ["t", "F", "err", "method"]
        assert len(data) == 1001

    def test_gamma_comparison_figure(self, tmp_path):
        assert run_cli(["reproduce-figure", "6",
                        "--out-dir", str(tmp_path)]) == 0
        for tag in ("ohmic", "supraohmic"):
            header, data, _ = read_csv(tmp_path / f"fig6_{tag}.csv")
            assert header == ["gamma", "phi_g", "phi_g_pred"]
            assert len(data) == 26

    def test_invalid_number(self):
        assert run_cli(["reproduce-figure", "9"]) == 2


FIGURE_CSVS = [(number, name, argv) for number, (_, jobs) in sorted(cli._FIGURES.items())
               for name, argv in jobs]


@pytest.fixture(scope="module")
def figure_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("figures")
    for number in cli._FIGURES:
        assert run_cli(["reproduce-figure", str(number), "--out-dir", str(out)]) == 0
    return out


class TestFiguresShareSubcommands:
    """Each figure CSV is its subcommand's output, without the comment
    lines except in figure 7."""

    @pytest.mark.parametrize("number,name,argv", FIGURE_CSVS,
                             ids=[name for _, name, _ in FIGURE_CSVS])
    def test_figure_csv_is_the_subcommand_output(self, number, name, argv,
                                                 figure_dir, tmp_path):
        out = tmp_path / "run.csv"
        assert run_cli(argv.split() + ["--out", str(out)]) == 0
        lines = out.read_text().splitlines(keepends=True)
        if name != "fig7_lambda":
            lines = [line for line in lines if not line.startswith("# ")]
        assert "".join(lines) == (figure_dir / f"{name}.csv").read_text()

    @pytest.mark.parametrize("number", [4, 5, 6, 7])
    def test_figure_metadata_names_the_fields_its_mode_read(self, number, figure_dir):
        meta = json.loads((figure_dir / f"fig{number}_metadata.json").read_text())
        runs = [meta] if "mode" in meta else [meta["ohmic"], meta["supraohmic"]]
        for run in runs:
            names = [key for key in run if key in {f.name for f in fields(RunConfig)}]
            assert names == GP_MODES[run["mode"]][1]


class TestSharedParser:
    """main builds one parser in a process and reuses it: no call sees
    the flags, mode or failure of the one before."""

    def test_flags_do_not_carry_over(self, tmp_path):
        assert run_cli(["decoherence", "--dip", "--ohmicity", "3",
                        "--out", str(tmp_path / "a.csv")]) == 0
        assert run_cli(["decoherence", "--out", str(tmp_path / "b.csv")]) == 0
        assert fresh_cli(["decoherence", "--out", str(tmp_path / "c.csv")]).returncode == 0
        assert (tmp_path / "b.csv").read_bytes() == (tmp_path / "c.csv").read_bytes()

    def test_mode_does_not_carry_over(self, tmp_path):
        assert run_cli(["gp", "--mode", "surface", "--gamma-grid", "0:0.5:0.25",
                        "--out", str(tmp_path / "s.csv")]) == 0
        assert run_cli(["gp", "--out", str(tmp_path / "p.csv")]) == 0
        header, data, _ = read_csv(tmp_path / "p.csv")
        assert header == ["theta0", "phi_g", "phi_u", "delta", "err"]
        assert len(data) == 1

    def test_a_bad_flag_does_not_spoil_the_next_call(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc_info:
            run_cli(["decoherence", "--no-such-flag"])
        assert exc_info.value.code == 2
        assert run_cli(["decoherence", "--grid", "0:1:0.5",
                        "--out", str(tmp_path / "x.csv")]) == 0

    @pytest.mark.parametrize("command", ["", "decoherence", "reproduce-figure"])
    def test_help_is_the_same_on_the_first_and_a_later_call(self, command, monkeypatch,
                                                             capsys, tmp_path):
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.setattr(cli, "_PARSER", None)  # the next call builds it
        texts = []
        for _ in range(2):
            with pytest.raises(SystemExit):
                run_cli(command.split() + ["--help"])
            texts.append(capsys.readouterr().out)
            assert run_cli(["gp", "--out", str(tmp_path / "gp.csv")]) == 0
        assert texts[0] == texts[1]
        assert texts[0].startswith(f"usage: neqbath {command}".rstrip())

    def test_a_second_figure_pass_writes_the_same_bytes(self, figure_dir, tmp_path):
        # figure_dir holds the first pass, in this process
        for number in cli._FIGURES:
            assert run_cli(["reproduce-figure", str(number), "--out-dir", str(tmp_path)]) == 0
        names = sorted(p.name for p in figure_dir.iterdir())
        assert names == sorted(p.name for p in tmp_path.iterdir())
        for name in names:
            assert (tmp_path / name).read_bytes() == (figure_dir / name).read_bytes(), name


class TestEntryPoint:
    def test_console_script_runs(self):
        # the child imports the package under test, installed or not
        src = str(Path(neqbath.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "neqbath.cli",
                               "--version"], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=path))
        assert proc.returncode == 0

    def test_runtime_loads_no_scipy(self, tmp_path):
        src = str(Path(neqbath.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = "\n".join([
            "import sys",
            "import neqbath",
            "from neqbath.cli import main",
            f"assert main(['reproduce-figure', '3', '--out-dir', {str(tmp_path)!r}]) == 0",
            "assert main(['mc', '--n-modes', '8', '--n-trajectories', '2', '--horizon',"
            f" '0.5', '--dt', '0.1', '--out', {str(tmp_path / 'mc.csv')!r}]) == 0",
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        ])
        proc = subprocess.run([sys.executable, "-W", "ignore", "-c", code],
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=path))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"


# commands that ended in a traceback before they were given exit code 2
TRACEBACK_COMMANDS = [
    ["gp", "--mode", "gamma", "--ohmicity", "2", "--gamma-grid", "0:0.1:0.05"],
    ["decoherence", "--grid", "0:1:1e-300"],
    ["decoherence", "--profile", "quadratic", "--ohmicity", "200",
     "--grid", "0:1:0.5"],
    # arrays of 10^15 or more elements, refused by the allocator before
    # any memory is touched
    ["mc", "--n-modes", "1000000000000000"],
    ["mc", "--horizon", "1e13", "--dt", "0.005"],
    ["pdist", "--nx", "1000000000000000", "--times", "1"],
]


def _number(lo, hi):
    """Floats in [lo, hi] plus its ends, with a lean toward small values."""
    return st.one_of(st.sampled_from([lo, hi]), st.floats(lo, hi),
                     st.floats(lo, min(hi, 10.0)))


def _grid(start_hi, step_lo, step_hi, points):
    """A start:stop:step flag with at most `points` points."""
    return st.builds(
        lambda start, step, n: f"{start!r}:{start + n * step!r}:{step!r}",
        st.floats(0.0, start_hi), st.floats(step_lo, step_hi),
        st.integers(1, points - 1))


# the bath flags, which decoherence, gp and mc take
_BATH_FLAGS = {
    "--gamma": _number(0.0, 1e300),
    "--cutoff": _number(1e-300, 1e300),
    "--diffusion": _number(0.0, 1e300),
    "--phase-lambda": _number(0.0, 1e300),
    "--ohmicity": st.integers(-1, 250),
    "--profile": st.sampled_from(["linear", "quadratic"]),
}
_COMMAND_FLAGS = {
    "decoherence": {"--grid": _grid(20.0, 0.05, 5.0, 4),
                    "--tol": st.sampled_from([1e-300, 1e-12, 1e-6, 1.0, 1e300]),
                    "--method": st.sampled_from(["closed-form", "quadrature"])},
    "gp": {"--theta0": _number(-1.0, 4.0),
           "--theta0-grid": _grid(3.0, 0.5, 3.0, 2),
           "--gamma-grid": _grid(2.0, 0.05, 2.0, 3),
           "--lambda-grid": _grid(5.0, 0.1, 5.0, 3)},
    "pdist": {"--diffusion": _BATH_FLAGS["--diffusion"],
              "--times": st.lists(_number(-1.0, 1e3), min_size=1, max_size=3)
              .map(lambda ts: ",".join(repr(t) for t in ts)),
              "--nx": st.integers(-1, 65)},
    "mc": {"--n-modes": st.integers(0, 8), "--n-trajectories": st.integers(0, 4),
           "--dt": _number(1e-3, 2.0), "--horizon": _number(1e-3, 2.0)},
}


@st.composite
def cli_arguments(draw):
    command = draw(st.sampled_from(sorted(_COMMAND_FLAGS)))
    argv = [command]
    flags = dict({} if command == "pdist" else _BATH_FLAGS, **_COMMAND_FLAGS[command])
    # keep the expensive defaults small
    if command == "gp":
        # the mode first, then only flags it reads: another would end at exit 2
        base, names = GP_MODES[draw(st.sampled_from(sorted(GP_MODES)))]
        argv += base
        flags = {flag_of(name): flags[flag_of(name)] for name in names if name != "mode"}
    if command == "mc":
        argv += ["--n-modes", "4", "--n-trajectories", "2", "--horizon", "0.5", "--dt", "0.1"]
    if command == "decoherence":
        argv += ["--grid", "0:2:1"]
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), unique=True,
                              max_size=4)):
        # flag=value keeps values such as -1e-05 from reading as flags
        argv.append(f"{flag}={draw(flags[flag])}")
    return argv


class TestExitCodes:
    @pytest.mark.parametrize("argv", TRACEBACK_COMMANDS)
    def test_former_tracebacks_exit_2(self, argv, tmp_path, capsys):
        assert run_cli(argv + ["--out", str(tmp_path / "x.csv")]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,path", [
        (["decoherence", "--grid", "0:1:0.5", "--out", "{tmp}"], "{tmp}"),
        (["decoherence", "--grid", "0:1:0.5", "--out", "{tmp}/missing/x.csv"],
         "{tmp}/missing/x.csv"),
        (["reproduce-figure", "1", "--out-dir", "{tmp}/file/sub"],
         "{tmp}/file/sub"),
    ], ids=["directory", "missing-directory", "file-as-directory"])
    def test_unwritable_output_exits_2(self, argv, path, tmp_path):
        # formerly exit 1 with a traceback
        (tmp_path / "file").write_text("")
        src = str(Path(neqbath.__file__).resolve().parents[1])
        env_path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "neqbath.cli", *(a.format(tmp=tmp_path) for a in argv)],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=env_path))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert path.format(tmp=tmp_path) in proc.stderr

    @pytest.mark.parametrize("argv,field", [
        (["decoherence", "--profile", "quadratic", "--tol", "nan"], "tol"),
        (["decoherence", "--tol", "nan"], "tol"),
        (["decoherence", "--tol", "inf"], "tol"),
        (["pdist", "--times", "nan"], "t"),
        (["pdist", "--diffusion", "-1"], "diffusion"),
        (["pdist", "--diffusion", "nan"], "diffusion"),
    ])
    def test_nonfinite_input_is_a_config_error(self, argv, field, tmp_path, capsys):
        # formerly exit 3 (or 2 with a message naming no input) for the
        # quadratic profile and pdist, and exit 0 for the linear profile
        argv += ["--grid", "0:1:0.5"] if argv[0] == "decoherence" else []
        assert run_cli(argv + ["--out", str(tmp_path / "x.csv")]) == 2
        assert f"config error: {field} must" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,code", [
        (["decoherence", "--grid", "0:1:0.5"], 3),
        (["gp"], 3),
        (["mc", "--n-modes", "4", "--n-trajectories", "2", "--horizon", "0.5",
          "--dt", "0.1"], 2),
    ], ids=["decoherence", "gp", "mc"])
    def test_overflowing_quadratic_phase_is_refused_without_warnings(
            self, argv, code, tmp_path, capsys):
        # lam w^2 passes the largest double from w = 1.34e154, inside the
        # quadrature's cut-off W (refused before any integrand point) and
        # the MC's band of 20 cutoff
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = run_cli(argv + ["--profile", "quadratic", "--cutoff", "1e200",
                                  "--out", str(tmp_path / "x.csv")])
        assert got == code
        err = capsys.readouterr().err
        assert "RuntimeWarning" not in err
        assert ("the phase bound 2 (w t + |theta(w)|) takes a non-finite value" if code == 3
                else "mode phases theta0 overflow") in err

    @settings(derandomize=True, max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(argv=cli_arguments())
    @example(argv=TRACEBACK_COMMANDS[0])
    @example(argv=TRACEBACK_COMMANDS[1])
    @example(argv=TRACEBACK_COMMANDS[2])
    def test_every_run_exits_0_2_or_3(self, argv, tmp_path):
        # later flags win, so the trailing --out keeps output off stdout
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = run_cli(argv + ["--out", str(tmp_path / "x.csv")])
        assert code in (0, 2, 3)
