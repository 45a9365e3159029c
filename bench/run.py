"""Benchmark of neqbath: end-to-end timings, or a traced run per layer.

Run from the repository root:

    python3 bench/run.py --workload figures --seed 1 --seconds 50 --trace 0

Workloads (see workloads.py): figures and mc, listed in BENCHMARK.json,
and gp-closed and gp-quadratic, which run only when named.
Only mc uses --seed (as the MC seed); the others are deterministic and
say so in their run record.  The benchmark imports neqbath from src/
next to this directory and drives `neqbath.cli.main` in this process,
one operation at a time (a closed loop with one client and no threads
of its own).  It repeats whole passes of the workload until --seconds
would be exceeded, checks every output, and prints a human-readable
report followed, as the last line, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics:
    wall_rel     median over passes of the pass's wall time divided by
                 the mean time of the workload's calibration kernel run
                 just before and just after it (calibrate.py); on a
                 machine whose speed drifts by tens of percent from one
                 minute to the next this ratio stays put where seconds
                 do not
    peak_rss_mb  peak resident memory of this process
    setup_s      median over several processes of import plus one
                 small warm-up call of the workload
failed / attempted is the failed ratio, with operations as the base.
The report also prints, ungated, the median pass time wall_s and
items_per_s: figure rows (figures), GP points (gp-*) or trajectories
(mc) per second.

--trace 1 alternates untraced and traced passes and reports the
per-layer metrics of spans.py, plus trace.overhead_s (traced minus
untraced median wall_s), figures.csv_identical (figure CSVs
byte-identical to the seed commit's) and src.lines (non-blank lines
under src/neqbath).  It fails unless every span the workload is
expected to reach fires and traced outputs are byte-identical to
untraced ones.

Each run also writes its record (commit, versions, passes, metrics) to
bench/out/, and the traced run its spans as CSV.
"""

import time

_START = time.perf_counter()  # set-up is timed from here

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

import numpy
import scipy

from calibrate import timed
from workloads import (WORKLOADS, manifest, mc_outside_criterion8, mc_seed,
                       sha256)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORK_DIR = BENCH_DIR / ".work"

SETUP_PROCESSES = 2  # set-up samples besides this process's own
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
            "NUMEXPR_NUM_THREADS")

# spans each workload must reach in a traced pass
EXPECTED_SPANS = {
    "figures": {
        "cli.write_table", "dephasing.decoherence_factor",
        "dephasing.beta_closed", "dephasing.beta_quadrature",
        "dephasing.beta_integrand", "numerics.integrate_semi_infinite",
        "bath.SpectralDensity", "bath.PhaseProfile",
        "geomphase.geometric_phase", "geomphase.bloch_angle",
        "numerics.integrate_finite"},
    "gp-closed": {
        "cli.write_table", "geomphase.geometric_phase",
        "geomphase.bloch_angle", "dephasing.beta_closed",
        "numerics.integrate_finite"},
    "gp-quadratic": {
        "cli.write_table", "geomphase.geometric_phase",
        "geomphase.bloch_angle", "numerics.integrate_finite",
        "dephasing.beta_quadrature", "numerics.integrate_semi_infinite",
        "dephasing.beta_integrand", "bath.SpectralDensity",
        "bath.PhaseProfile"},
    "mc": {
        "cli.write_table", "montecarlo.mc_decoherence_factor",
        "montecarlo.discretize_bath", "montecarlo.endpoint_phase",
        "dephasing.decoherence_factor", "dephasing.beta_closed",
        "bath.SpectralDensity", "bath.PhaseProfile"},
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only time import plus the warm-up call and print it")
    return p.parse_args(argv)


def import_neqbath():
    """Import neqbath from this checkout's src/, or exit non-zero."""
    if not (SRC / "neqbath" / "__init__.py").is_file():
        sys.exit(f"bench: no neqbath package under {SRC}")
    sys.path.insert(0, str(SRC))
    import neqbath.cli
    origin = Path(neqbath.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        sys.exit(f"bench: imported neqbath from {origin}, not from {SRC}")
    return neqbath.cli


class Runner:
    """Runs the operations of a workload through neqbath.cli.main."""

    def __init__(self, cli, workload, seed, scratch: Path):
        self.cli = cli
        self.workload = workload
        self.out = scratch / "pass"
        self.ops = workload.ops(self.out, seed)
        self.op_count = 0
        self._verdicts = {}  # (file name, bytes) -> problems

    def call(self, argv) -> bool:
        """One operation; True when it exits with code 0."""
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                return self.cli.main(list(argv)) == 0
        except Exception:  # an operation that crashes counts as failed
            traceback.print_exc()
            return False

    def run_pass(self, tracer=None):
        """(wall seconds, exit ok per op, files written) of one pass."""
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        ok = []
        start = time.perf_counter()
        for op in self.ops:
            if tracer is None:
                ok.append(self.call(op.argv))
            else:
                with tracer.root("cli.main", self.op_count):
                    ok.append(self.call(op.argv))
            self.op_count += 1
        wall = time.perf_counter() - start
        files = {}
        for op in self.ops:
            for name in op.outputs:
                path = self.out / name
                files[name] = path.read_bytes() if path.is_file() else None
        return wall, ok, files

    def check(self, ok, files, first_files) -> list:
        """Failure message per failed operation of one pass.

        Outputs must pass the workload's check and be byte-identical to
        those of the run's first pass: every workload is deterministic
        for a given seed.
        """
        failures = []
        for op, exit_ok in zip(self.ops, ok):
            problems = [] if exit_ok else ["non-zero exit"]
            for name in op.outputs:
                if files[name] is None:
                    problems.append(f"{name} missing")
                elif files[name] != first_files[name]:
                    problems.append(f"{name} differs from the first pass")
                elif exit_ok:
                    problems += self._verdict(name, files[name])
            if problems:
                failures.append(f"{' '.join(op.argv[:2])}: {problems[:5]}")
        return failures

    def _verdict(self, name, data) -> list:
        key = (name, data)
        if key not in self._verdicts:
            self._verdicts[key] = [f"{name}: {p}" for p in
                                   self.workload.check(name, data)]
        return self._verdicts[key]


def measure(run_pass, seconds: float) -> list:
    """Repeat passes while the next one is predicted to end in time."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(run_pass())
        spent = time.perf_counter() - start
        typical = statistics.median(r[0] for r in results)
        if spent + typical > seconds:
            return results


def setup_samples(workload: str, first: float) -> list:
    """Set-up time of this process and of SETUP_PROCESSES fresh ones."""
    samples = [first]
    for _ in range(SETUP_PROCESSES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload, "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def commit() -> str:
    """HEAD of the checkout's git directory, or 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines() -> int:
    return sum(1 for path in sorted((SRC / "neqbath").rglob("*.py"))
               for line in path.read_text().splitlines() if line.strip())


def run_record(args, workload) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "mc_seed": mc_seed(args.seed) if workload.uses_seed else None,
        "seed_note": None if workload.uses_seed else
        "deterministic workload: --seed is ignored",
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_env": {k: os.environ[k] for k in BLAS_ENV if k in os.environ},
        "src_lines": src_lines(),
    }


def untraced_metrics(runner, args, setup) -> tuple:
    kernel = runner.workload.kernel
    kernel_s = [timed(kernel)]

    def run_pass():
        result = runner.run_pass()
        kernel_s.append(timed(kernel))
        return result

    results = measure(run_pass, args.seconds)
    walls = [r[0] for r in results]
    first = results[0][2]
    failures = [runner.check(ok, files, first) for _, ok, files in results]
    wall = statistics.median(walls)
    items = runner.workload.items(first)
    metrics = {
        "wall_rel": (statistics.median(
            w / (0.5 * (kernel_s[i] + kernel_s[i + 1]))
            for i, w in enumerate(walls)), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    extra = {"wall_s": wall, "items_per_s": items / wall,
             "item": runner.workload.item, "pass_wall_s": walls,
             "kernel_s": kernel_s, "setup_samples_s": setup}
    if runner.workload.name == "figures":
        extra["figures.csv_identical"] = csv_identical(runner.workload, first)
    if runner.workload.name == "mc" and first["mc.csv"] is not None:
        extra["mc.points_outside_criterion8_band"] = mc_outside_criterion8(
            first["mc.csv"])
    return metrics, failures, extra


def csv_identical(workload, files) -> int:
    """Figure CSVs byte-identical to the seed commit's (0 elsewhere)."""
    if workload.name != "figures":
        return 0
    want = manifest()["figures"]
    return sum(1 for name, data in files.items()
               if name.endswith(".csv") and data is not None
               and sha256(data) == want.get(name))


def traced_metrics(runner, args) -> tuple:
    import spans
    per_tracer = []  # metrics of each traced pass
    last = None  # only the last traced pass keeps its spans

    def pair():
        nonlocal last
        untraced = runner.run_pass()
        last = spans.Tracer()
        with last.installed():
            traced = runner.run_pass(last)
        per_tracer.append(last.metrics())
        return untraced[0] + traced[0], untraced, traced

    results = measure(pair, args.seconds)
    first = results[0][1][2]
    failures, self_check = [], []
    for _, untraced, traced in results:
        failures.append(runner.check(untraced[1], untraced[2], first))
        failures.append(runner.check(traced[1], traced[2], first))
        for name, data in traced[2].items():
            if data != untraced[2][name]:
                self_check.append(f"traced {name} differs from untraced")
    # counts repeat exactly from pass to pass; times take the median
    metrics = {name: ((statistics.median_low if unit == "count"
                       else statistics.median)(m[name] for m in per_tracer),
                      unit)
               for name, (unit, _) in spans.PER_LAYER.items()}
    metrics["trace.overhead_s"] = (
        statistics.median(r[2][0] for r in results)
        - statistics.median(r[1][0] for r in results), "s")
    metrics["figures.csv_identical"] = (
        csv_identical(runner.workload, first), "count")
    metrics["src.lines"] = (src_lines(), "count")

    missing = sorted(EXPECTED_SPANS[args.workload] - last.fired())
    if last.missing:
        self_check.append(f"targets not found: {last.missing}")
    if missing:
        self_check.append(f"expected spans never fired: {missing}")
    if args.workload == "gp-quadratic" and \
            metrics["geomphase.beta_quadrature_calls"][0] == 0:
        self_check.append("geometric_phase made no beta_quadrature calls")
    OUT_DIR.mkdir(exist_ok=True)
    last.write_spans(OUT_DIR / f"{args.workload}.spans.csv")
    extra = {"self_check": self_check or "ok",
             "untraced_pass_wall_s": [r[1][0] for r in results],
             "traced_pass_wall_s": [r[2][0] for r in results],
             "spans_per_pass": len(last.names)}
    return metrics, failures, extra


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = import_neqbath()
    workload = WORKLOADS[args.workload]
    WORK_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=WORK_DIR))
    try:
        runner = Runner(cli, workload, args.seed, scratch)
        if not runner.call(workload.warmup(scratch)):
            sys.exit("bench: the warm-up call failed")
        setup_first = time.perf_counter() - _START
        if args.setup_probe:
            print(repr(setup_first))
            return 0
        record = run_record(args, workload)
        if args.trace:
            metrics, failures, extra = traced_metrics(runner, args)
        else:
            metrics, failures, extra = untraced_metrics(
                runner, args, setup_samples(args.workload, setup_first))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()  # left only while another run uses it

    # failures holds one list per pass
    attempted = len(runner.ops) * len(failures)
    failed = sum(len(f) for f in failures)
    for message in sorted({m for f in failures for m in f}):
        print(f"bench: FAILED {message}", file=sys.stderr)
    self_ok = extra.get("self_check", "ok") == "ok"
    if not self_ok:
        print(f"bench: self-check failed: {extra['self_check']}",
              file=sys.stderr)
    record.update(extra)
    record["metrics"] = {k: {"value": v, "unit": u}
                         for k, (v, u) in metrics.items()}
    record["attempted"], record["failed"] = attempted, failed
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}.trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}"
          f"{'' if workload.uses_seed else ' (ignored: deterministic)'}  "
          f"commit {record['commit'][:12]}  nproc {record['nproc']}  "
          f"python {record['python']}  numpy {record['numpy']}  "
          f"scipy {record['scipy']}  blas_env {record['blas_env']}  "
          f"src_lines {record['src_lines']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<46} {value:>14.6g} {unit}")
    print(f"  failed_ratio {failed}/{attempted} operations")
    if "wall_s" in extra:
        print(f"  {'wall_s (not gated)':<46} {extra['wall_s']:>14.6g} s")
        print(f"  {'items_per_s (not gated)':<46} "
              f"{extra['items_per_s']:>14.6g} 1/s  ({workload.item} per second)")
    for key in ("figures.csv_identical", "mc.points_outside_criterion8_band",
                "self_check"):
        if key in extra and key not in metrics:
            print(f"  {key} {extra[key]}")
    print(json.dumps({
        "correct": failed == 0 and self_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
