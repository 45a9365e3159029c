"""Every span the benchmark expects of a workload fires on its CLI calls.

A traced `bench/run.py` run fails its self-check when a span listed in
`EXPECTED_SPANS` never fires, for instance when a refactor routes work
around a traced function.  These tests run the same kind of calls under
the benchmark's own tracer (`bench/spans.py`) and read the expected set
from `bench/run.py`, so such a change fails here first.
"""

import importlib
from pathlib import Path

import pytest

from neqbath import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"

CALLS = {
    "figures": [["reproduce-figure", str(n), "--out-dir", "{tmp}"] for n in range(1, 8)],
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
