"""Outside-in tracer for the benchmark's traced run.

The tracer does not edit the program.  `install()` swaps the module-level
bindings through which one bcsbec module calls into the next layer (for
example `bcsbec.gap.radial_integral`, the name the gap solver looks up at
call time) for wrappers that record a span; `restore()` puts the original
objects back.  The untraced run never creates a Tracer, so it runs the
program exactly as shipped.

A span carries its layer name, start, end, the index of its parent span and
a few counters taken from the call's arguments and result.  Spans stay in
memory until the benchmark takes them after a pass.  A layer's self time is
the sum over its spans of duration minus the durations of their children.
"""

from __future__ import annotations

import importlib
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps

__all__ = ["Span", "Tracer", "TARGETS", "LAYER_METRICS", "PEGG_BARNETT_RUNGS",
           "CHECK_NAMES", "points_by_call", "summarize"]

QUAD = "quadrature"
SOLVE = "gap.solve"
BOUND = "gap.bound_state"
PHASE_LOCK = "coherent.phase_lock"
PEGG = "coherent.pegg_barnett"
CLI = "cli"

PEGG_BARNETT_RUNGS = (64, 128, 256, 512, 1024)
CHECK_NAMES = ("overlap-decay", "eta-oracle", "number-phase", "pegg-barnett",
               "phase-lock", "oscillator-oracle", "odlro-slope")


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


# ---- per-layer hooks: counters from arguments and results ------------------


def _count_integrand(span, args, kwargs):
    """Wrap the integrand handed to radial_integral to count its points."""
    f = args[0]
    attrs = span.attrs
    attrs["points"] = 0
    attrs["evals"] = 0

    def counted(k):
        attrs["points"] += len(k)
        attrs["evals"] += 1
        return f(k)

    return (counted, *args[1:]), kwargs


def _solve_kind(span, args, kwargs):
    # initial_guess is the eighth parameter of solve_self_consistent
    guess = kwargs["initial_guess"] if "initial_guess" in kwargs else (
        args[7] if len(args) > 7 else None)
    span.attrs["warm"] = guess is not None
    return args, kwargs


def _solve_result(span, result):
    span.attrs["iterations"] = result.iterations
    span.attrs["converged"] = bool(result.converged)


def _pegg_size(span, args, kwargs):
    span.attrs["s"] = kwargs["s"] if "s" in kwargs else args[0]
    return args, kwargs


def _steps(span, result):
    span.attrs["steps"] = result.steps


def _cells(span, result):
    if isinstance(result, list):
        span.attrs["cells"] = len(result)


def _passed(span, result):
    span.attrs["passed"] = bool(result.passed)


def _csv_written(span, result):
    span.attrs["bytes"] = result.stat().st_size


def _check_target(name):
    return ("bcsbec.checks", "check_" + name.replace("-", "_"), "checks." + name,
            None, _passed)


# (module, binding, span name, argument hook, result hook); a binding is
# listed once per module that imported it, because each caller looks the
# name up in its own module
TARGETS = (
    ("bcsbec.gap", "radial_integral", QUAD, _count_integrand, None),
    ("bcsbec.gap", "solve_self_consistent", SOLVE, _solve_kind, _solve_result),
    ("bcsbec.gap", "bound_state_energy", BOUND, None, None),
    ("bcsbec.diagram", "solve_self_consistent", SOLVE, _solve_kind, _solve_result),
    ("bcsbec.cli", "solve_self_consistent", SOLVE, _solve_kind, _solve_result),
    ("bcsbec.cli", "bound_state_energy", BOUND, None, None),
    ("bcsbec.cli", "sweep_diagram", "diagram", None, _cells),
    ("bcsbec.cli", "critical_hopping", "diagram", None, None),
    ("bcsbec.cli", "refine_hopping_boundary", "diagram", None, None),
    ("bcsbec.cli", "pegg_barnett", PEGG, _pegg_size, None),
    ("bcsbec.cli", "variational_phase_lock", PHASE_LOCK, None, _steps),
    ("bcsbec.cli", "build_fock_oracle", "coherent.fock", None, None),
    ("bcsbec.cli", "number_phase_derivative_check", "coherent.fock", None, None),
    ("bcsbec.cli", "oscillator_oracle", "chain.oscillator", None, None),
    ("bcsbec.cli", "write_csv", "runio", None, _csv_written),
    ("bcsbec.cli", "write_meta", "runio", None, None),
    ("bcsbec.checks", "pegg_barnett", PEGG, _pegg_size, None),
    ("bcsbec.checks", "variational_phase_lock", PHASE_LOCK, None, _steps),
    ("bcsbec.checks", "build_fock_oracle", "coherent.fock", None, None),
    ("bcsbec.checks", "number_phase_derivative_check", "coherent.fock", None, None),
    ("bcsbec.checks", "oscillator_oracle", "chain.oscillator", None, None),
    *(_check_target(name) for name in CHECK_NAMES),
)


class Tracer:
    """Records spans at the layer boundaries listed in TARGETS."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    # -- installation --------------------------------------------------------

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        try:
            for module_name, binding, name, before, after in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, binding)
                setattr(module, binding, self._wrap(original, name, before, after))
                self._saved.append((module, binding, original))
        except BaseException:
            self.restore()
            raise

    def restore(self):
        while self._saved:
            module, binding, original = self._saved.pop()
            setattr(module, binding, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- spans ---------------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), parent)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, e.g. around cli.main."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, fn, name, before, after):
        @wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                if before is not None:
                    args, kwargs = before(span, args, kwargs)
                result = fn(*args, **kwargs)
            except BaseException:
                span.attrs["error"] = True
                raise
            finally:
                self._close(span)
            if after is not None:
                after(span, result)
            return result

        traced.perfbench_traced = True
        return traced

    def take(self) -> list:
        """Hand over the spans recorded so far and start a fresh list."""
        if self._stack:
            raise RuntimeError("spans still open")
        spans, self.spans = self.spans, []
        return spans


# ---- per-layer metrics -----------------------------------------------------

# name -> (unit, kind); "count" metrics repeat exactly from pass to pass and
# are reported from the first traced pass, "time" metrics are medians over
# the traced passes
LAYER_METRICS = {
    "quadrature.calls": ("count", "count"),
    "quadrature.points": ("count", "count"),
    "quadrature.evals": ("count", "count"),
    "quadrature.errors": ("count", "count"),
    "quadrature.self_s": ("s", "time"),
    "quadrature.ns_per_point": ("ns", "time"),
    "gap.solve.calls": ("count", "count"),
    "gap.solve.iterations": ("count", "count"),
    "gap.solve.unconverged": ("count", "count"),
    "gap.solve.self_s": ("s", "time"),
    "gap.warm.quad_calls_per_solve": ("count", "count"),
    "gap.cold.quad_calls_per_solve": ("count", "count"),
    "gap.bound_state.calls": ("count", "count"),
    "gap.bound_state.quad_calls": ("count", "count"),
    "gap.bound_state.self_s": ("s", "time"),
    "diagram.cells": ("count", "count"),
    "diagram.self_s": ("s", "time"),
    "coherent.phase_lock.calls": ("count", "count"),
    "coherent.phase_lock.steps": ("count", "count"),
    "coherent.phase_lock.self_s": ("s", "time"),
    "coherent.phase_lock.us_per_step": ("us", "time"),
    **{f"coherent.pegg_barnett.s{s}_ms": ("ms", "time") for s in PEGG_BARNETT_RUNGS},
    "coherent.pegg_barnett.flops_computed": ("flop", "count"),
    "coherent.pegg_barnett.self_s": ("s", "time"),
    "coherent.fock.self_s": ("s", "time"),
    "chain.oscillator.self_s": ("s", "time"),
    **{f"checks.{name}_s": ("s", "time") for name in CHECK_NAMES},
    "checks.failed": ("count", "count"),
    "runio.files": ("count", "count"),
    # CSV bytes only: the JSON sidecar holds the wall clock, so its size varies
    "runio.csv_bytes": ("B", "count"),
    "runio.self_s": ("s", "time"),
    "cli.calls": ("count", "count"),
    "cli.exit_nonzero": ("count", "count"),
    "cli.self_s": ("s", "time"),
    "trace.self_sum_s": ("s", "time"),
}

_SELF_TIME_LAYERS = {
    "quadrature.self_s": QUAD,
    "gap.solve.self_s": SOLVE,
    "gap.bound_state.self_s": BOUND,
    "diagram.self_s": "diagram",
    "coherent.phase_lock.self_s": PHASE_LOCK,
    "coherent.pegg_barnett.self_s": PEGG,
    "coherent.fock.self_s": "coherent.fock",
    "chain.oscillator.self_s": "chain.oscillator",
    "runio.self_s": "runio",
    "cli.self_s": CLI,
}


def _nearest(spans, name):
    """For each span, the index of its nearest enclosing span called `name`."""
    found = []
    for i, span in enumerate(spans):
        if span.name == name:
            found.append(i)
        else:
            found.append(found[span.parent] if span.parent is not None else None)
    return found


def _ratio(num, den):
    return num / den if den else 0.0


def points_by_call(spans) -> list:
    """Integrand points under each root span, in call order."""
    root = []
    points = []
    for span in spans:
        if span.parent is None:
            root.append(len(points))
            points.append(0)
        else:
            root.append(root[span.parent])
            if span.name == QUAD:
                points[root[-1]] += span.attrs["points"]
    return points


def summarize(spans) -> dict:
    """Per-layer metrics of one traced pass, keyed as in LAYER_METRICS."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.duration
    self_time = defaultdict(float)
    total = defaultdict(float)
    by_name = defaultdict(list)
    for i, span in enumerate(spans):
        self_time[span.name] += span.duration - child_time[i]
        total[span.name] += span.duration
        by_name[span.name].append(span)

    quad = by_name[QUAD]
    solves = by_name[SOLVE]
    phase_locks = by_name[PHASE_LOCK]
    peggs = by_name[PEGG]
    points = sum(s.attrs["points"] for s in quad)

    solve_of = _nearest(spans, SOLVE)
    bound_of = _nearest(spans, BOUND)
    warm_quad = cold_quad = bound_quad = 0
    for i, span in enumerate(spans):
        if span.name != QUAD:
            continue
        if bound_of[i] is not None:
            bound_quad += 1
        if solve_of[i] is not None:
            if spans[solve_of[i]].attrs["warm"]:
                warm_quad += 1
            else:
                cold_quad += 1
    warm_solves = sum(1 for s in solves if s.attrs["warm"])
    cold_solves = len(solves) - warm_solves

    steps = sum(s.attrs["steps"] for s in phase_locks)
    out = {
        "quadrature.calls": len(quad),
        "quadrature.points": points,
        "quadrature.evals": sum(s.attrs["evals"] for s in quad),
        "quadrature.errors": sum(1 for s in quad if s.attrs.get("error")),
        "quadrature.ns_per_point": _ratio(self_time[QUAD], points) * 1e9,
        "gap.solve.calls": len(solves),
        "gap.solve.iterations": sum(s.attrs.get("iterations", 0) for s in solves),
        "gap.solve.unconverged": sum(1 for s in solves if not s.attrs.get("converged")),
        "gap.warm.quad_calls_per_solve": _ratio(warm_quad, warm_solves),
        "gap.cold.quad_calls_per_solve": _ratio(cold_quad, cold_solves),
        "gap.bound_state.calls": len(by_name[BOUND]),
        "gap.bound_state.quad_calls": bound_quad,
        "diagram.cells": sum(s.attrs.get("cells", 0) for s in by_name["diagram"]),
        "coherent.phase_lock.calls": len(phase_locks),
        "coherent.phase_lock.steps": steps,
        "coherent.phase_lock.us_per_step": _ratio(self_time[PHASE_LOCK], steps) * 1e6,
        # the dense build does 4 complex (s+1)^3 matrix products, 8 flops
        # per complex multiply-add; computed from s, not counted
        "coherent.pegg_barnett.flops_computed": sum(
            4 * 8 * (s.attrs["s"] + 1) ** 3 for s in peggs),
        "checks.failed": sum(
            1 for name in CHECK_NAMES for s in by_name["checks." + name]
            if not s.attrs.get("passed")),
        "runio.files": len(by_name["runio"]),
        "runio.csv_bytes": sum(s.attrs.get("bytes", 0) for s in by_name["runio"]),
        "cli.calls": len(by_name[CLI]),
        "cli.exit_nonzero": sum(1 for s in by_name[CLI] if s.attrs.get("exit")),
        "trace.self_sum_s": sum(self_time.values()),
    }
    for metric, layer in _SELF_TIME_LAYERS.items():
        out[metric] = self_time[layer]
    for s in PEGG_BARNETT_RUNGS:
        rung = [p.duration for p in peggs if p.attrs["s"] == s]
        out[f"coherent.pegg_barnett.s{s}_ms"] = statistics.median(rung) * 1e3 if rung else 0.0
    for name in CHECK_NAMES:
        out[f"checks.{name}_s"] = total["checks." + name]
    return out
