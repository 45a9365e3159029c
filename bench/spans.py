"""Span tracer that wraps neqbath's public functions from outside.

Every wrapped call records a span (name, start, end, parent span,
operation id) in memory, and counts such as calls, points and panels
are taken at the same boundary from the call's arguments and result.
A function imported by name into another module is looked up there by
its callers, so each target is patched at every module attribute that
holds it, not only in the module that defines it.  The wrappers pass
arguments and results through unchanged; the benchmark checks that
traced outputs are byte-identical to untraced ones.

Per-layer metrics, and the end-to-end metric each one should move
(gp-closed and gp-quadratic run only when named, see workloads.py):

  numerics.integrate_semi_infinite.{calls,panels,self_s,panel_yield},
  dephasing.beta_integrand.{points,self_s},
  bath.SpectralDensity.{points,s}, bath.PhaseProfile.{points,s}
      -> wall_rel on figures (and gp-quadratic), no move on mc
  dephasing.beta_quadrature.{calls,s,distinct_ratio},
  geomphase.beta_quadrature_calls
      -> GP points per second on gp-quadratic
  numerics.integrate_finite.{calls,panels,self_s},
  geomphase.geometric_phase.{calls,s}, geomphase.bloch_angle.{points,s},
  dephasing.beta_closed.{points,s}
      -> GP points per second on gp-closed; about 6% of figures
  montecarlo.endpoint_phase.{calls,s},
  montecarlo.mc_decoherence_factor.self_s, montecarlo.discretize_bath.s
      -> wall_rel and peak_rss_mb on mc, no move on figures
  cli.write_table.{calls,s}, dephasing.decoherence_factor.s
      -> wall_rel on figures; write_table also on gp-closed, which
         writes 10k rows (gp goes through geometric_phase, not
         decoherence_factor)

`.s` is inclusive time and `.self_s` excludes the time of child spans.
panel_yield is final panels over panels evaluated (integrand points /
15, the Gauss-Kronrod order); distinct_ratio is distinct (t, config,
profile, tol, omega_max) keys over calls, the share a cache could not
save.
"""

from __future__ import annotations

import contextlib
import inspect
import time
from collections import defaultdict

import numpy as np

import neqbath
from neqbath import bath, cli, dephasing, geomphase, montecarlo, numerics

_MODULES = (neqbath, bath, cli, dephasing, geomphase, montecarlo, numerics)
_KRONROD_POINTS = 15


def _points(position):
    """Counter: number of elements in positional argument `position`."""
    def count(tracer, name, args, kwargs, result):
        tracer.counts[name]["points"] += np.size(args[position])
    return count


def _panels(tracer, name, args, kwargs, result):
    tracer.counts[name]["panels"] += result.subdivisions


def _count_integrand_points(tracer, name, args, kwargs):
    """Wrap the integrand of integrate_semi_infinite to count its points."""
    f = args[0]

    def counted(w):
        tracer.counts[name]["evaluated_points"] += np.size(w)
        return f(w)

    return (counted, *args[1:]), kwargs


def _beta_quadrature_key(tracer, name, args, kwargs, result):
    if tracer.beta_signature is None:
        tracer.beta_signature = inspect.signature(dephasing.beta_quadrature)
    bound = tracer.beta_signature.bind(*args, **kwargs)
    bound.apply_defaults()
    p = bound.arguments
    profile = p["profile"]
    profile_key = None if profile is None else (
        profile.kind, profile.lam, id(profile.func))
    tracer.beta_keys.add((float(p["t"]), p["config"], profile_key,
                          p["tol"], p["omega_max"]))


# (span name, owner, attribute, counter after the call, argument rewrite)
_TARGETS = (
    ("cli.write_table", "cli", "write_table", None, None),
    ("dephasing.decoherence_factor", "dephasing", "decoherence_factor",
     None, None),
    ("dephasing.beta_quadrature", "dephasing", "beta_quadrature",
     _beta_quadrature_key, None),
    ("dephasing.beta_integrand", "dephasing", "beta_integrand",
     _points(0), None),
    ("dephasing.beta_closed", "dephasing", "beta_closed", _points(0), None),
    ("numerics.integrate_semi_infinite", "numerics",
     "integrate_semi_infinite", _panels, _count_integrand_points),
    ("numerics.integrate_finite", "numerics", "integrate_finite",
     _panels, None),
    ("geomphase.geometric_phase", "geomphase", "geometric_phase",
     None, None),
    ("geomphase.bloch_angle", "geomphase", "bloch_angle", _points(0), None),
    ("montecarlo.mc_decoherence_factor", "montecarlo",
     "mc_decoherence_factor", None, None),
    ("montecarlo.endpoint_phase", "montecarlo", "endpoint_phase",
     None, None),
    ("montecarlo.discretize_bath", "montecarlo", "discretize_bath",
     None, None),
    # methods: args[0] is the instance, so omega is args[1]
    ("bath.SpectralDensity", "bath.SpectralDensity", "__call__",
     _points(1), None),
    ("bath.PhaseProfile", "bath.PhaseProfile", "__call__", _points(1), None),
)

# per_layer metric name -> (unit, better); the order is the report order
PER_LAYER = {
    "numerics.integrate_semi_infinite.calls": ("count", "lower"),
    "numerics.integrate_semi_infinite.panels": ("count", "lower"),
    "numerics.integrate_semi_infinite.self_s": ("s", "lower"),
    "numerics.integrate_semi_infinite.panel_yield": ("ratio", "higher"),
    "dephasing.beta_integrand.points": ("count", "lower"),
    "dephasing.beta_integrand.self_s": ("s", "lower"),
    "bath.SpectralDensity.points": ("count", "lower"),
    "bath.SpectralDensity.s": ("s", "lower"),
    "bath.PhaseProfile.points": ("count", "lower"),
    "bath.PhaseProfile.s": ("s", "lower"),
    "dephasing.beta_quadrature.calls": ("count", "lower"),
    "dephasing.beta_quadrature.s": ("s", "lower"),
    "dephasing.beta_quadrature.distinct_ratio": ("ratio", "higher"),
    "geomphase.beta_quadrature_calls": ("count", "lower"),
    "numerics.integrate_finite.calls": ("count", "lower"),
    "numerics.integrate_finite.panels": ("count", "lower"),
    "numerics.integrate_finite.self_s": ("s", "lower"),
    "geomphase.geometric_phase.calls": ("count", "lower"),
    "geomphase.geometric_phase.s": ("s", "lower"),
    "geomphase.bloch_angle.points": ("count", "lower"),
    "geomphase.bloch_angle.s": ("s", "lower"),
    "dephasing.beta_closed.points": ("count", "lower"),
    "dephasing.beta_closed.s": ("s", "lower"),
    "montecarlo.endpoint_phase.calls": ("count", "lower"),
    "montecarlo.endpoint_phase.s": ("s", "lower"),
    "montecarlo.mc_decoherence_factor.self_s": ("s", "lower"),
    "montecarlo.discretize_bath.s": ("s", "lower"),
    "cli.write_table.calls": ("count", "lower"),
    "cli.write_table.s": ("s", "lower"),
    "dephasing.decoherence_factor.s": ("s", "lower"),
}


class Tracer:
    """Spans and counts of one traced pass, kept in memory."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.outermost: list[bool] = []
        self.op = -1
        self.counts = defaultdict(lambda: defaultdict(float))
        self.beta_keys: set = set()
        self.beta_signature = None
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._depth = defaultdict(int)

    @contextlib.contextmanager
    def root(self, name: str, op: int):
        """Span of one whole operation; the spans inside carry its id."""
        self.op = op
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op)
        self.outermost.append(self._depth[name] == 0)
        self._depth[name] += 1
        self._stack.append(index)
        self.ends.append(0.0)
        self.starts.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()
        self._depth[self.names[index]] -= 1

    def _wrap(self, name, via, original, after, rewrite):
        def wrapper(*args, **kwargs):
            if rewrite is not None:
                args, kwargs = rewrite(self, name, args, kwargs)
            index = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(index)
            counts = self.counts[name]
            counts["calls"] += 1
            counts["calls_via_" + via] += 1
            if after is not None:
                after(self, name, args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every target at each place it is looked up, then restore."""
        saved = []
        try:
            for name, owner_path, attr, after, rewrite in _TARGETS:
                owner = _resolve(owner_path)
                original = getattr(owner, attr, None) if owner else None
                if original is None:
                    self.missing.append(name)
                    continue
                if isinstance(owner, type):
                    sites = [(owner, attr)]
                else:
                    sites = [(m, a) for m in _MODULES
                             for a, v in vars(m).items() if v is original]
                for site, site_attr in sites:
                    via = getattr(site, "__name__", "?").rsplit(".", 1)[-1]
                    saved.append((site, site_attr, original))
                    setattr(site, site_attr,
                            self._wrap(name, via, original, after, rewrite))
            yield self
        finally:
            for site, site_attr, original in reversed(saved):
                setattr(site, site_attr, original)

    def fired(self) -> set:
        return {n for n, c in self.counts.items() if c.get("calls", 0) > 0}

    def span_times(self):
        """(inclusive seconds, self seconds) per span name."""
        n = len(self.names)
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        inclusive = defaultdict(float)
        own = defaultdict(float)
        for i in range(n):
            duration = self.ends[i] - self.starts[i]
            if self.outermost[i]:
                inclusive[self.names[i]] += duration
            own[self.names[i]] += duration - child[i]
        return inclusive, own

    def metrics(self) -> dict:
        """Every PER_LAYER metric; a layer the pass never reached reads 0."""
        inclusive, own = self.span_times()
        c = self.counts
        out = {}
        for metric in PER_LAYER:
            span, _, field = metric.rpartition(".")
            if field == "s":
                out[metric] = inclusive.get(span, 0.0)
            elif field == "self_s":
                out[metric] = own.get(span, 0.0)
            elif field in ("calls", "points", "panels"):
                out[metric] = int(c[span][field]) if span in c else 0
        semi = c["numerics.integrate_semi_infinite"]
        evaluated = semi["evaluated_points"] / _KRONROD_POINTS
        out["numerics.integrate_semi_infinite.panel_yield"] = (
            semi["panels"] / evaluated if evaluated else 0.0)
        quad_calls = c["dephasing.beta_quadrature"]["calls"]
        out["dephasing.beta_quadrature.distinct_ratio"] = (
            len(self.beta_keys) / quad_calls if quad_calls else 0.0)
        out["geomphase.beta_quadrature_calls"] = int(
            c["dephasing.beta_quadrature"]["calls_via_geomphase"])
        return out

    def write_spans(self, path) -> None:
        """Write every span as CSV: op, index, parent, name, start, end."""
        with open(path, "w") as fh:
            fh.write("op,index,parent,name,start_s,end_s\n")
            for i, name in enumerate(self.names):
                fh.write(f"{self.ops[i]},{i},{self.parents[i]},{name},"
                         f"{self.starts[i] - self.origin:.9f},"
                         f"{self.ends[i] - self.origin:.9f}\n")


def _resolve(path: str):
    obj = {"bath": bath, "cli": cli, "dephasing": dephasing,
           "geomphase": geomphase, "montecarlo": montecarlo,
           "numerics": numerics}[path.split(".")[0]]
    for part in path.split(".")[1:]:
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj
