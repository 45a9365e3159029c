"""Every span the benchmark expects of a workload fires on its CLI calls.

A traced `bench/run.py` run fails its self-check when a span listed in
`EXPECTED_SPANS` never fires, for instance when a refactor routes work
around a traced function.  These tests run the same kind of calls under
the benchmark's own tracer (`bench/spans.py`) and read the expected set
from `bench/run.py`, so such a change fails here first.  The figures
workload's own output check (`bench/workloads.py`) runs here as well.
"""

import importlib
from pathlib import Path

import pytest

from neqbath import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"

CALLS = {
    "figures": [["reproduce-figure", str(n), "--out-dir", "{tmp}"] for n in range(1, 8)],
    "gp-quadratic": [["gp", "--mode", "point", "--profile", "quadratic",
                      "--out", "{tmp}/gp.csv"]],
    "mc": [["mc", "--n-modes", "64", "--n-trajectories", "2", "--dt", "0.005",
            "--horizon", "1", "--seed", "3", "--out", "{tmp}/mc.csv"]],
}


@pytest.mark.parametrize("workload", sorted(CALLS))
def test_expected_spans_fire(workload, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    run, spans = importlib.import_module("run"), importlib.import_module("spans")
    with spans.Tracer().installed() as tracer:
        for argv in CALLS[workload]:
            assert cli.main([a.format(tmp=tmp_path) for a in argv]) == 0
    assert sorted(run.EXPECTED_SPANS[workload] - tracer.fired()) == []


def test_figure_outputs_pass_the_benchmark_check(tmp_path, monkeypatch):
    # the figures workload's own check: closed-form curves for figures 1
    # and 2, the gzipped references (figure 3 within 1e-8, text cells such
    # as `method` exactly) for the rest, and the metadata file lists
    monkeypatch.syspath_prepend(str(BENCH))
    figures = importlib.import_module("workloads").WORKLOADS["figures"]
    for op in figures.ops(tmp_path, 0):
        assert cli.main(list(op.argv)) == 0
        for name in op.outputs:
            assert figures.check(name, (tmp_path / name).read_bytes()) == [], name
