"""Per-layer tracing of the tiltbench verifier, installed from outside.

``Tracer.install()`` wraps the public functions of the program's layer
modules in every ``tiltbench`` namespace that holds a reference to them,
plus the methods that carry a layer's work: ``IntMatrix.__mul__``,
``PreparedSolver`` (construction diagonalises, ``solve`` back-substitutes)
and ``FpMorphism.__init__`` (the witness check).  ``uninstall()`` puts every
original back, so untraced rounds run the program untouched.

Each span records calls, inclusive time (counted once when a span nests in
itself) and self time (inclusive time minus the time of wrapped spans it
called).  ``rings.is_zero`` is counted but not timed: it runs millions of
times, and a timer around each call would swamp the run.  References the
program captured before installation (closures, default arguments) stay
unwrapped; their time lands in the caller's self time.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array

# modules whose public functions become spans; samplers and serialize are
# reported as one span each
LAYER_MODULES = ("matrices", "modules", "complexes", "exactness",
                 "tstructures", "freyd", "samplers", "serialize")
GROUPED = ("samplers", "serialize")
SNF_ENTRY_POINTS = ("smith_normal_form", "kernel_matrix")
# SNF size buckets by rows x cols of the input: (name, largest cell count)
SNF_BUCKETS = (("small", 64), ("mid", 1000), ("large", None))

SPAN_METRICS = {
    "matrices.mul": ("calls", "self_s"),
    "matrices.kron": ("calls", "self_s"),
    "matrices.determinant": ("calls", "self_s"),
    "modules.factor": ("calls", "self_s", "total_s"),
    "modules.cofactor": ("calls", "self_s", "total_s"),
    "modules.hom_group": ("calls", "total_s"),
    "modules.morphism_init": ("calls", "self_s", "total_s"),
    "modules.kernel": ("calls", "total_s"),
    "modules.cokernel": ("calls", "total_s"),
    "modules.direct_sum": ("calls", "total_s"),
    "complexes.cohomology": ("calls", "total_s"),
    "complexes.is_nullhomotopic": ("calls", "total_s"),
    "complexes.cone": ("calls", "total_s"),
    "exactness.is_deflation": ("calls", "total_s"),
    "exactness.is_inflation": ("calls", "total_s"),
    "exactness.is_acyclic_wrt": ("calls", "total_s"),
    "tstructures.truncate_le": ("calls", "total_s"),
    "tstructures.truncate_ge": ("calls", "total_s"),
    "tstructures.in_aisle": ("calls", "total_s"),
    "tstructures.triangle_is_distinguished": ("calls", "total_s"),
    "freyd.freyd_kernel": ("calls", "total_s"),
    "freyd.evaluate": ("calls", "total_s"),
    "freyd.evaluate_map": ("calls", "total_s"),
    "freyd.is_effaceable": ("calls", "total_s"),
    "samplers": ("calls", "self_s"),
    "serialize": ("calls", "self_s"),
}
UNITS = {"calls": "count", "self_s": "s", "total_s": "s"}


class _Span:
    __slots__ = ("calls", "total", "self", "depth")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.depth = 0


def _quantile(sorted_values, q):
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


class Tracer:
    """Counters and spans for one traced run; install around each round."""

    def __init__(self):
        self.spans: dict[str, _Span] = {}
        self._children: list[float] = []   # per open span: time in child spans
        self._cells: list[int] = []        # per open factor/cofactor: SNF cells
        self.is_zero_calls = 0
        self.snf_us = array("d")
        self.snf_bucket = {name: [0, 0.0] for name, _ in SNF_BUCKETS}
        self.snf_max_cells = 0
        self.snf_repeats = 0
        self._snf_seen: set = set()
        self.unsolvable = 0
        self.system_cells = {"modules.factor": 0, "modules.cofactor": 0}
        self.suite_s: dict[str, float] = {}
        self.sample_ms = array("d")
        self.slowest = None                # (ms, suite, index, seed)
        self._suite = None
        self._sample = None                # (start, suite, index, seed)
        self._restore: list = []

    # -- spans -----------------------------------------------------------------

    def _span(self, name, fn, on_call=None, on_return=None):
        """Wrap fn in a span; on_call(args) -> token, on_return(token, result, dt)."""
        span = self.spans.setdefault(name, _Span())
        children = self._children
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            token = on_call(args) if on_call is not None else None
            children.append(0.0)
            span.depth += 1
            start = perf()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = perf() - start
                inner = children.pop()
                span.depth -= 1
                span.calls += 1
                span.self += elapsed - inner
                if span.depth == 0:
                    span.total += elapsed
                if children:
                    children[-1] += elapsed
                if on_return is not None:
                    on_return(token, result, elapsed - inner)

        return wrapper

    def _snf_span(self, fn, kind, matrix_arg):
        def on_call(args):
            m = args[matrix_arg]
            cells = m.rows * m.cols
            key = (kind, hash(m))
            if key in self._snf_seen:
                self.snf_repeats += 1
            else:
                self._snf_seen.add(key)
            if self._cells:
                self._cells[-1] += cells
            return cells

        def on_return(cells, _result, self_s):
            self.snf_us.append(self_s * 1e6)
            self.snf_max_cells = max(self.snf_max_cells, cells)
            for bucket, limit in SNF_BUCKETS:
                if limit is None or cells <= limit:
                    entry = self.snf_bucket[bucket]
                    entry[0] += 1
                    entry[1] += self_s
                    break

        return self._span("matrices.snf", fn, on_call, on_return)

    def _factor_span(self, name, fn):
        def on_call(_args):
            self._cells.append(0)

        def on_return(_token, _result, _self_s):
            self.system_cells[name] += self._cells.pop()

        return self._span(name, fn, on_call, on_return)

    def _solve_span(self, fn):
        def on_return(_token, result, _self_s):
            if result is None:
                self.unsolvable += 1

        return self._span("matrices.solve", fn, on_return=on_return)

    def _rng_span(self, fn):
        def on_call(args):
            self._close_sample()
            self._sample = (time.perf_counter(), self._suite, args[-1], args[0])

        return self._span("samplers", fn, on_call)

    def _count_is_zero(self, fn):
        def is_zero(ring, a):
            self.is_zero_calls += 1
            return fn(ring, a)

        return is_zero

    # -- samples and suites ---------------------------------------------------------

    def _close_sample(self):
        if self._sample is None:
            return
        start, suite, index, seed = self._sample
        ms = (time.perf_counter() - start) * 1e3
        self.sample_ms.append(ms)
        if self.slowest is None or ms > self.slowest[0]:
            self.slowest = (ms, suite, index, seed)
        self._sample = None

    def _suite_run(self, name, fn):
        def run(*args, **kwargs):
            self._suite = name
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close_sample()
                self.suite_s[name] = self.suite_s.get(name, 0.0) + (
                    time.perf_counter() - start)
                self._suite = None

        return run

    # -- installation ---------------------------------------------------------------

    def _wrapper_for(self, layer, attr, fn):
        if layer == "matrices" and attr in SNF_ENTRY_POINTS:
            return self._snf_span(fn, attr, 0)
        if layer == "modules" and attr in ("factor", "cofactor"):
            return self._factor_span(f"modules.{attr}", fn)
        if layer == "samplers" and attr == "rng_for":
            return self._rng_span(fn)
        return self._span(layer if layer in GROUPED else f"{layer}.{attr}", fn)

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every layer function in every tiltbench namespace."""
        from tiltbench import matrices, modules, rings
        from tiltbench.suites import REGISTRY

        wrappers = {rings.is_zero: self._count_is_zero(rings.is_zero)}
        for layer in LAYER_MODULES:
            mod = sys.modules[f"tiltbench.{layer}"]
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != mod.__name__:
                    continue
                wrappers[fn] = self._wrapper_for(layer, attr, fn)
        for name, ns in list(sys.modules.items()):
            if ns is None or not (name == "tiltbench" or name.startswith("tiltbench.")):
                continue
            for attr, value in list(vars(ns).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._set(ns, attr, wrappers[value])

        solver = matrices.PreparedSolver
        self._set(matrices.IntMatrix, "__mul__",
                  self._span("matrices.mul", matrices.IntMatrix.__mul__))
        self._set(solver, "__init__",
                  self._snf_span(solver.__init__, "PreparedSolver", 1))
        self._set(solver, "solve", self._solve_span(solver.solve))
        self._set(modules.FpMorphism, "__init__",
                  self._span("modules.morphism_init", modules.FpMorphism.__init__))
        for name, suite in REGISTRY.items():
            self._set(suite, "run", self._suite_run(name, suite.run))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------------------

    def metrics(self, suite_names) -> dict:
        """Every per-layer metric by name, as {"value": ..., "unit": ...}."""
        out = {"rings.is_zero.calls": (self.is_zero_calls, "count")}
        for name, fields in SPAN_METRICS.items():
            span = self.spans.get(name, _Span())
            values = {"calls": span.calls, "self_s": span.self, "total_s": span.total}
            for f in fields:
                out[f"{name}.{f}"] = (values[f], UNITS[f])
        for name in ("modules.factor", "modules.cofactor"):
            out[f"{name}.system_cells"] = (self.system_cells[name], "cells")

        snf = self.spans.get("matrices.snf", _Span())
        durations = sorted(self.snf_us)
        out["matrices.snf.calls"] = (snf.calls, "count")
        out["matrices.snf.self_s"] = (snf.self, "s")
        out["matrices.snf.p50_us"] = (_quantile(durations, 0.50), "us")
        out["matrices.snf.p99_us"] = (_quantile(durations, 0.99), "us")
        out["matrices.snf.max_cells"] = (self.snf_max_cells, "cells")
        out["matrices.snf.repeat_ratio"] = (
            self.snf_repeats / snf.calls if snf.calls else 0.0, "ratio")
        for bucket, (calls, self_s) in self.snf_bucket.items():
            out[f"matrices.snf.{bucket}.calls"] = (calls, "count")
            out[f"matrices.snf.{bucket}.self_s"] = (self_s, "s")
        solve = self.spans.get("matrices.solve", _Span())
        out["matrices.solve.calls"] = (solve.calls, "count")
        out["matrices.solve.self_s"] = (solve.self, "s")
        out["matrices.solve.unsolvable_ratio"] = (
            self.unsolvable / solve.calls if solve.calls else 0.0, "ratio")

        for name in suite_names:
            out[f"suites.{name}.s"] = (self.suite_s.get(name, 0.0), "s")
        samples = sorted(self.sample_ms)
        out["suites.sample_count"] = (len(samples), "count")
        out["suites.sample_p50_ms"] = (_quantile(samples, 0.50), "ms")
        out["suites.sample_p99_ms"] = (_quantile(samples, 0.99), "ms")
        out["suites.slowest_sample_ms"] = (samples[-1] if samples else 0.0, "ms")
        return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}
