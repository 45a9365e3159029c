#!/usr/bin/env python3
"""Regenerate every reference-figure dataset into one directory.

Thin driver over `neqbath reproduce-figure N`; each figure writes its
CSV curves plus a figN_metadata.json with the exact parameters used.
"""

import argparse
import sys

from neqbath.cli import main as cli_main


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="figure_data")
    ap.add_argument("--only", type=int, default=None,
                    help="regenerate a single figure number")
    args = ap.parse_args()

    numbers = [args.only] if args.only is not None else range(1, 8)
    for number in numbers:
        print(f"--- figure {number} ---")
        code = cli_main(["reproduce-figure", str(number),
                         "--out-dir", args.out_dir])
        if code != 0:
            print(f"figure {number} failed with exit code {code}",
                  file=sys.stderr)
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
