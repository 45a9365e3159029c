#!/usr/bin/env python3
"""SHA-256 of every standard output of the CLI, as one JSON map.

Covers every file of the seven `reproduce-figure` runs, the CSV and the
`--json` document of a fixed set of table runs (each subcommand and gp
mode, both evaluation routes, the GP on both profiles, the dip report, a
non-unit cutoff, a non-finite snapshot time), the same for each table
subcommand and gp mode run on one config file that holds every RunConfig
field, and the `--help` text of the parser and of each subcommand.  All
runs go in-process through `neqbath.cli.main`, in a temporary directory.
Run it on two trees and diff the maps: equal maps mean byte-identical
outputs.  The map has one entry per line in a fixed order, so `diff`
names each entry that changed, is missing or is new, and exits 1 if
there is any.

    PYTHONPATH=src python3 scripts/output_hashes.py > hashes.json
    diff hashes.json <(PYTHONPATH=src python3 scripts/output_hashes.py)
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

# argparse wraps help text at the terminal width
os.environ["COLUMNS"] = "80"

from neqbath.cli import main as cli_main  # noqa: E402

TABLE_RUNS = [
    "decoherence",
    "decoherence --dip",
    "decoherence --ohmicity 3 --dip --grid 0:5:0.05",
    "decoherence --profile quadratic --gamma 3 --grid 0:2:0.25",
    "decoherence --profile quadratic --cutoff 3 --gamma 3 --grid 0:2:0.25",
    "decoherence --method quadrature --tol 1e-8 --grid 0:2:0.5",
    "gp",
    "gp --mode surface --gamma-grid 0:0.5:0.25",
    "gp --mode lambda --lambda-grid 0:2:0.5",
    "gp --mode gamma --gamma-grid 0:0.2:0.05",
    "gp --profile quadratic",
    "mc --n-modes 128 --n-trajectories 16 --horizon 2",
    "mc --n-modes 256 --n-trajectories 4 --horizon 1 --seed 7 --ohmicity 3",
    "pdist",
    "pdist --times 0.1,inf --nx 33",
]
# a config file with every RunConfig field off its default; each subcommand
# reads its own fields from it, and a flag beats the file
STUDY = {"gamma": 0.7, "cutoff": 1.5, "diffusion": 0.2, "phase_lambda": 0.5,
         "ohmicity": 3, "profile": "quadratic", "theta0": 1.0, "grid": [0, 2, 0.25],
         "seed": 5, "n_modes": 128, "n_trajectories": 4, "dt": 0.05, "horizon": 1.0,
         "times": [0.2, 1.0], "nx": 17, "theta0_grid": [0.5, 1.5, 0.5],
         "gamma_grid": [0, 0.4, 0.2], "lambda_grid": [0, 1, 0.5], "mode": "surface"}
CONFIG_RUNS = [
    "decoherence --config study.json",
    "gp --config study.json",
    "gp --config study.json --mode point",
    "gp --config study.json --mode lambda",
    "gp --config study.json --mode gamma",
    "mc --config study.json",
    "pdist --config study.json",
]
HELP_RUNS = ["", "decoherence", "gp", "mc", "pdist", "reproduce-figure"]


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(argv: list) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(argv)
    if code != 0:
        raise SystemExit(f"neqbath {' '.join(argv)} exited {code}")


def hashes(tmp: Path) -> dict:
    out = {}
    for number in range(1, 8):
        fig_dir = tmp / f"fig{number}"
        run(["reproduce-figure", str(number), "--out-dir", str(fig_dir)])
        for path in sorted(fig_dir.iterdir()):
            out[f"reproduce-figure {number}: {path.name}"] = digest(path)
    study = tmp / "study.json"
    study.write_text(json.dumps(STUDY))
    for i, line in enumerate(TABLE_RUNS + CONFIG_RUNS):
        argv = [str(study) if a == study.name else a for a in line.split()]
        for form, flags in (("csv", []), ("json", ["--json"])):
            path = tmp / f"run{i}.{form}"
            run(argv + flags + ["--out", str(path)])
            out[f"{line} [{form}]"] = digest(path)
    for command in HELP_RUNS:
        text = io.StringIO()
        with contextlib.redirect_stdout(text), contextlib.suppress(SystemExit):
            cli_main(command.split() + ["--help"])
        out[f"{command} --help".strip()] = \
            hashlib.sha256(text.getvalue().encode()).hexdigest()
    return out


def main():
    with tempfile.TemporaryDirectory() as tmp:
        print(json.dumps(hashes(Path(tmp)), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
