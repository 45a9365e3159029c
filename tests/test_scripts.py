"""The scripts under scripts/ run to completion at small arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import neqbath

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


RUNS = [
    ("dip_offset_scan.py", []),
    ("output_hashes.py", []),
    ("perturbative_window.py", []),
    ("reproduce_all_figures.py", ["--only", "1", "--out-dir", "{tmp}"]),
]


def test_every_script_has_a_run():
    assert {script for script, _ in RUNS} == {p.name for p in SCRIPTS.glob("*.py")}


def run_script(script, argv, tmp_path):
    # the child imports the package under test, installed or not
    src = str(Path(neqbath.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(SCRIPTS / script),
         *(a.format(tmp=tmp_path) for a in argv)],
        capture_output=True, text=True, cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=path))


@pytest.mark.parametrize("script,argv", RUNS, ids=[script for script, _ in RUNS])
def test_script_exits_0(script, argv, tmp_path):
    proc = run_script(script, argv, tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_reproduce_all_figures_reports_figure_0(tmp_path):
    # --only 0 formerly read as "not given" and wrote figures 1-7
    proc = run_script("reproduce_all_figures.py",
                      ["--only", "0", "--out-dir", "{tmp}/out"], tmp_path)
    assert proc.returncode == 2
    assert "figure number must be 1..7, got 0" in proc.stderr
    assert not (tmp_path / "out").exists()
