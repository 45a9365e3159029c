"""Regenerate bench/reference/ from the neqbath under src/.

The checked-in references were written by the seed commit; run this only
to re-anchor them on a commit whose outputs are known to be right:

    python3 bench/make_reference.py

It runs one pass of each deterministic workload and stores the SHA-256
of every figure CSV (for figures.csv_identical) and, gzip-compressed,
each file that workloads.py compares number by number.
"""

import gzip
import json
import sys
import tempfile
from pathlib import Path

import run
from workloads import FIGURE_FILES, REFERENCE_DIR, WORKLOADS, sha256

# figures 1 and 2 are checked against the closed form, not a reference
COMPARED = {
    "figures": {name for n, names in FIGURE_FILES.items() if n > 2
                for name in names},
    "gp-closed": {"gp_closed_n1.csv", "gp_closed_n3.csv"},
    "gp-quadratic": {"gp_quadratic.csv"},
}


def main() -> int:
    cli = run.import_neqbath()
    hashes = {}
    with tempfile.TemporaryDirectory(dir=run.BENCH_DIR) as scratch:
        for name, kept in COMPARED.items():
            runner = run.Runner(cli, WORKLOADS[name], 0, Path(scratch))
            _, ok, files = runner.run_pass()
            if not all(ok):
                sys.exit(f"{name}: an operation failed")
            target = REFERENCE_DIR / name
            target.mkdir(parents=True, exist_ok=True)
            for file_name in sorted(kept):
                (target / f"{file_name}.gz").write_bytes(
                    gzip.compress(files[file_name], mtime=0))
            if name == "figures":
                hashes[name] = {f: sha256(files[f]) for f in sorted(files)
                                if f.endswith(".csv")}
    (REFERENCE_DIR / "manifest.json").write_text(
        json.dumps(hashes, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
