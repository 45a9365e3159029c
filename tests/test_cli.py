"""Command-line battery: formats, round-tripping, exit codes, figures."""

import csv
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import neqbath
from neqbath.bath import BathConfig
from neqbath.cli import RunConfig, build_parser, build_run_config, grid_array, main
from neqbath.dephasing import decoherence_factor
from neqbath.geomphase import geometric_phase


def run_cli(args):
    return main(list(args))


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
        cfgfile = tmp_path / "bad.json"
        cfgfile.write_text(json.dumps({"gamma": 1.0, "couplingg": 2.0}))
        assert run_cli(["decoherence", "--config", str(cfgfile)]) == 2
        assert "couplingg" in capsys.readouterr().err

    def test_malformed_json_exits_2(self, tmp_path):
        cfgfile = tmp_path / "bad.json"
        cfgfile.write_text("{gamma: 1}")
        assert run_cli(["decoherence", "--config", str(cfgfile)]) == 2

    def test_bad_values_exit_2(self, tmp_path):
        assert run_cli(["decoherence", "--gamma", "-2"]) == 2
        assert run_cli(["decoherence", "--grid", "5:1:0.5"]) == 2
        assert run_cli(["decoherence", "--grid", "abc"]) == 2
        assert run_cli(["gp", "--theta0", "4.0"]) == 2
        # argparse itself rejects bad enum choices with the same exit code
        with pytest.raises(SystemExit) as exc:
            run_cli(["gp", "--mode", "wavelet"])
        assert exc.value.code == 2

    def test_missing_config_file_exits_2(self):
        assert run_cli(["decoherence", "--config", "/nonexistent.json"]) == 2


# every RunConfig field with a flag: (subcommand, flag, config-file value,
# flag text, flag value, a file value of the wrong kind)
FIELD_FLAGS = {
    "gamma": ("decoherence", "--gamma", 2.0, "3", 3.0, "x"),
    "cutoff": ("decoherence", "--cutoff", 2.0, "3", 3.0, "x"),
    "diffusion": ("decoherence", "--diffusion", 0.2, "0.3", 0.3, "x"),
    "phase_lambda": ("decoherence", "--phase-lambda", 2.0, "3", 3.0, "x"),
    "ohmicity": ("decoherence", "--ohmicity", 2, "3", 3, 1.5),
    "profile": ("decoherence", "--profile", "quadratic", "linear", "linear", 3),
    "theta0": ("decoherence", "--theta0", 0.5, "1.5", 1.5, "x"),
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
        assert {f.name for f in fields(RunConfig)} - set(FIELD_FLAGS) == {"omega"}

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

    def test_infinite_time_is_the_uniform_limit(self, tmp_path):
        out = tmp_path / "p.csv"
        assert run_cli(["pdist", "--times", "inf", "--nx", "5", "--out", str(out)]) == 0
        _, data, _ = read_csv(out)
        assert [float(row[2]) for row in data] == [1.0 / (2.0 * math.pi)] * 5


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


class TestFiguresShareSubcommands:
    """Each figure is a canned run of the subcommand that makes its table."""

    @pytest.mark.parametrize("number,name,argv", [
        (4, "fig4_surface", ["--mode", "surface", "--gamma-grid", "0:2:0.1"]),
        (7, "fig7_lambda", ["--mode", "lambda", "--gamma", "3", "--theta0-grid",
                            f"{math.pi / 8!r}:{3 * math.pi / 8!r}:{math.pi / 8!r}"]),
    ])
    def test_figure_csv_is_the_gp_output(self, number, name, argv, tmp_path):
        assert run_cli(["reproduce-figure", str(number),
                        "--out-dir", str(tmp_path)]) == 0
        out = tmp_path / "gp.csv"
        assert run_cli(["gp", *argv, "--out", str(out)]) == 0
        assert out.read_bytes() == (tmp_path / f"{name}.csv").read_bytes()


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


_FLAGS = {
    "--gamma": _number(0.0, 1e300),
    "--cutoff": _number(1e-300, 1e300),
    "--diffusion": _number(0.0, 1e300),
    "--phase-lambda": _number(0.0, 1e300),
    "--ohmicity": st.integers(-1, 250),
    "--theta0": _number(-1.0, 4.0),
    "--profile": st.sampled_from(["linear", "quadratic"]),
}
_COMMAND_FLAGS = {
    "decoherence": {"--grid": _grid(20.0, 0.05, 5.0, 4),
                    "--tol": st.sampled_from([1e-300, 1e-12, 1e-6, 1.0, 1e300]),
                    "--method": st.sampled_from(["closed-form", "quadrature"])},
    "gp": {"--mode": st.sampled_from(["point", "surface", "lambda", "gamma"]),
           "--theta0-grid": _grid(3.0, 0.5, 3.0, 2),
           "--gamma-grid": _grid(2.0, 0.05, 2.0, 3),
           "--lambda-grid": _grid(5.0, 0.1, 5.0, 3)},
    "pdist": {"--times": st.lists(_number(-1.0, 1e3), min_size=1, max_size=3)
              .map(lambda ts: ",".join(repr(t) for t in ts)),
              "--nx": st.integers(-1, 65)},
    "mc": {"--n-modes": st.integers(0, 8), "--n-trajectories": st.integers(0, 4),
           "--dt": _number(1e-3, 2.0), "--horizon": _number(1e-3, 2.0)},
}


@st.composite
def cli_arguments(draw):
    command = draw(st.sampled_from(sorted(_COMMAND_FLAGS)))
    argv = [command]
    if command in ("gp", "mc"):
        # keep the expensive defaults small
        argv += {"gp": ["--theta0-grid", "0:1:0.5", "--gamma-grid", "0:0.2:0.1",
                        "--lambda-grid", "0:2:1"],
                 "mc": ["--n-modes", "4", "--n-trajectories", "2",
                        "--horizon", "0.5", "--dt", "0.1"]}[command]
    if command == "decoherence":
        argv += ["--grid", "0:2:1"]
    flags = dict(_FLAGS, **_COMMAND_FLAGS[command])
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

    @pytest.mark.parametrize("argv,field", [
        (["decoherence", "--profile", "quadratic", "--tol", "nan"], "tol"),
        (["decoherence", "--tol", "nan"], "tol"),
        (["decoherence", "--tol", "inf"], "tol"),
        (["pdist", "--times", "nan"], "t"),
    ])
    def test_nonfinite_input_is_a_config_error(self, argv, field, tmp_path, capsys):
        # formerly exit 3 (or 2 with a message naming no input) for the
        # quadratic profile and pdist, and exit 0 for the linear profile
        argv += ["--grid", "0:1:0.5"] if argv[0] == "decoherence" else []
        assert run_cli(argv + ["--out", str(tmp_path / "x.csv")]) == 2
        assert f"config error: {field} must" in capsys.readouterr().err

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
