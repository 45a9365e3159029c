"""The Python examples in README.md run to completion against src/, and
its CLI examples are commands the parser and the config route accept."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from neqbath import cli

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.MULTILINE | re.DOTALL)
COMMANDS = [line for block in re.findall(r"^```sh\n(.*?)^```", README,
                                         re.MULTILINE | re.DOTALL)
            for line in block.splitlines() if line.startswith("neqbath ")]


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_python_block_exits_0(code, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr


def test_readme_has_cli_examples():
    assert len(COMMANDS) >= 5


@pytest.mark.parametrize("line", COMMANDS)
def test_cli_example_is_accepted(line):
    # parsed, merged into a RunConfig and checked against the fields its run
    # reads (a gp flag its mode does not read exits 2), not run
    args = cli.build_parser().parse_args(shlex.split(line)[1:])
    if args.command == "reproduce-figure":
        assert args.number in cli._FIGURES
    else:
        cli._table_reads(cli.build_run_config(args), args)
