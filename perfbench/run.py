#!/usr/bin/env python3
"""Benchmark of the bcsbec command line, run from the root of a checkout.

    python3 perfbench/run.py --workload crossover-sweep --seed 1 --seconds 30 --trace 0

The benchmark builds one pass of seeded CLI invocations (workloads.py) and
calls `bcsbec.cli.main(argv)` for each, in this process, writing into a
temporary directory inside the checkout.  It repeats the pass while
another pass is expected to end within `--seconds`, checks every output of
every pass (verify.py) and
prints one line per metric, an environment record, and as its last line a
JSON result.

Every timing is calibrated (calibrate.py): a fixed probe that does not call
bcsbec runs between consecutive timed steps, and each step's wall time is
scaled by the probe's reference time over the mean of the probes around it.
This cancels the drift of a shared host's speed; the raw times go to the
record line.

--trace 0 reports the end-to-end metrics:

    setup_s      median calibrated time of `import bcsbec.cli` in a fresh
                 interpreter
    wall_s       median over passes of the summed calibrated latencies
    op_p50_ms    median calibrated latency of one CLI invocation, over every
                 pass
    op_tail_ms   calibrated latency with exactly ten invocations slower than
                 it (the fastest, with fewer than eleven); the percentile and
                 the sample count go to the record line
    peak_rss_mb  peak resident memory of this process

--trace 1 alternates untraced and traced passes (tracer.py) and reports the
per-layer metrics, the import breakdown from `python -X importtime`, and the
tracing overhead.

The program is imported from `src/` next to this directory; without it the
benchmark exits with code 2 before printing a result.
"""

from __future__ import annotations

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
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP_DIR = ROOT / ".perfbench_tmp"
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import tracer as tracing  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
IMPORTTIME_MODULES = ("bcsbec.core", "bcsbec.gap", "bcsbec.chain", "bcsbec.cli")
TAIL_BEYOND = 10
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
TRACE_METRICS = {
    "trace.overhead_ratio": "ratio",
    "calibration.probe_ms": "ms",
    "trace.self_sum_ratio": "ratio",
    "gap.solves_per_s": "1/s",
    "verify.fail_ratio": "ratio",
    **{f"setup.import.{m}_s": "s" for m in IMPORTTIME_MODULES},
}


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked (no program sources)."""


# ---- set-up ------------------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    paths = [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _python(*args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=_child_env(),
                          capture_output=True, text=True, timeout=120, check=True)


def measure_setup(repeats: int = SETUP_REPEATS) -> tuple:
    """Median calibrated and raw wall time of `import bcsbec.cli` in a fresh
    interpreter."""
    _python("-c", "import bcsbec.cli")  # writes the bytecode cache; not timed
    times, probes = [], [calibrate.probe()]
    for _ in range(repeats):
        start = time.perf_counter()
        _python("-c", "import bcsbec.cli")
        times.append(time.perf_counter() - start)
        probes.append(calibrate.probe())
    scaled = [t * k for t, k in zip(times, calibrate.scales(probes))]
    return statistics.median(scaled), statistics.median(times)


def import_breakdown(repeats: int = IMPORTTIME_REPEATS) -> dict:
    """Median cumulative import time of each module in IMPORTTIME_MODULES."""
    samples = {m: [] for m in IMPORTTIME_MODULES}
    for _ in range(repeats):
        # lines read "import time: <self us> | <cumulative us> | <module>"
        for line in _python("-X", "importtime", "-c", "import bcsbec.cli").stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in samples:
                samples[parts[2].strip()].append(int(parts[1]) * 1e-6)
    return {m: statistics.median(v) if v else 0.0 for m, v in samples.items()}


def load_cli():
    """Import bcsbec.cli from this checkout's src/, never from elsewhere."""
    package = SRC / "bcsbec"
    if not (package / "cli.py").is_file():
        raise SetupError(f"no program sources at {package}")
    sys.path.insert(0, str(SRC))
    import bcsbec.cli

    if Path(bcsbec.cli.__file__).resolve().parent != package.resolve():
        raise SetupError(f"bcsbec imported from {bcsbec.cli.__file__}, not {package}")
    return bcsbec.cli


# ---- passes ------------------------------------------------------------------


@dataclass
class PassResult:
    latencies: list  # raw wall time of each invocation
    scaled: list     # the same, calibrated
    probes: list     # probe times, one before each invocation and one after the last
    failures: list
    spans: list | None = None

    @property
    def wall_s(self) -> float:
        return sum(self.latencies)

    @property
    def scaled_wall_s(self) -> float:
        return sum(self.scaled)


def run_pass(cli, invocations, out_root: Path, reference: dict, tracer=None) -> PassResult:
    """Run every invocation once, with a calibration probe before each and
    after the last, then check all outputs (not timed)."""
    shutil.rmtree(out_root, ignore_errors=True)
    out_root.mkdir(parents=True)
    outdirs = [out_root / f"{i:03d}" for i in range(len(invocations))]
    latencies, codes, logs = [], [], []
    probes = [calibrate.probe()]
    for inv, outdir in zip(invocations, outdirs):
        argv = [*inv.argv, "--out", str(outdir)]
        log = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            if tracer is None:
                code = cli.main(argv)
            else:
                with tracer.span(tracing.CLI) as span:
                    code = cli.main(argv)
                    span.attrs["exit"] = code
        latencies.append(time.perf_counter() - t0)
        probes.append(calibrate.probe())
        codes.append(code)
        logs.append(log.getvalue())
    spans = tracer.take() if tracer is not None else None
    failures = []
    for inv, code, outdir, log in zip(invocations, codes, outdirs, logs):
        problems = verify.check_invocation(inv, code, outdir, reference)
        if problems:
            failures.append({"argv": list(inv.argv), "problems": problems[:5],
                             "output": log[-500:]})
    scaled = [t * k for t, k in zip(latencies, calibrate.scales(probes))]
    return PassResult(latencies, scaled, probes, failures, spans)


def run_for(seconds: float, run_one) -> list:
    """Call run_one() while another call is expected to end within `seconds`.

    Returns the results of every call, at least one.
    """
    start = time.perf_counter()
    results = [run_one()]
    while True:
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(results) > seconds:
            return results
        results.append(run_one())


# ---- metrics -----------------------------------------------------------------


def tail_latency(latencies) -> tuple:
    """(value, percentile) of the latency with TAIL_BEYOND samples above it."""
    ordered = sorted(latencies)
    index = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pass_wall(passes) -> float:
    """Median calibrated wall time of a pass."""
    return statistics.median(p.scaled_wall_s for p in passes)


def probe_ms(passes) -> float:
    return statistics.median(t for p in passes for t in p.probes) * 1e3


def end_to_end_metrics(passes, setup_s: float) -> tuple:
    latencies = [t for p in passes for t in p.scaled]
    tail, percentile = tail_latency(latencies)
    metrics = {
        "setup_s": setup_s,
        "wall_s": pass_wall(passes),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail * 1e3,
        "peak_rss_mb": peak_rss_mb(),
    }
    tail_info = {"percentile": percentile, "samples": len(latencies),
                 "beyond": min(TAIL_BEYOND, len(latencies) - 1)}
    return metrics, tail_info


def layer_metrics(untraced, traced, imports: dict) -> tuple:
    """Per-layer metrics, and the names of counts that differed between passes."""
    summaries = [tracing.summarize(p.spans) for p in traced]
    metrics = {}
    drift = []
    for name, (_, kind) in tracing.LAYER_METRICS.items():
        values = [s[name] for s in summaries]
        metrics[name] = values[0] if kind == "count" else statistics.median(values)
        if kind == "count" and len(set(values)) > 1:
            drift.append(name)
    traced_wall = pass_wall(traced)
    untraced_wall = pass_wall(untraced)
    solved = metrics["gap.solve.calls"] - metrics["gap.solve.unconverged"]
    attempted = sum(len(p.latencies) for p in (*untraced, *traced))
    failed = sum(len(p.failures) for p in (*untraced, *traced))
    metrics.update({
        "trace.overhead_ratio": traced_wall / untraced_wall - 1.0,
        "calibration.probe_ms": probe_ms((*untraced, *traced)),
        "trace.self_sum_ratio": statistics.median(
            s["trace.self_sum_s"] / p.wall_s for s, p in zip(summaries, traced)),
        "gap.solves_per_s": solved / untraced_wall,
        "verify.fail_ratio": failed / attempted,
        **{f"setup.import.{m}_s": t for m, t in imports.items()},
    })
    return metrics, drift


# ---- record ------------------------------------------------------------------


def _git_revision() -> str:
    """HEAD read from .git without running git; 'unknown' outside a clone."""
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


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown", "version": "unknown"}
    return {
        "git_revision": _git_revision(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARIABLES},
    }


# ---- main --------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="bcsbec CLI benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _metric_lines(metrics: dict, units: dict) -> list:
    return [f"  {name:<40} {value:>16.6g} {units[name]}" for name, value in metrics.items()]


def main(argv=None) -> int:
    args = parse_args(argv)
    invocations = workloads.build(args.workload, args.seed)
    try:
        cli = load_cli()
        reference = verify.load_reference(args.workload)
        if args.trace:
            imports = import_breakdown()
        else:
            setup_s, setup_raw_s = measure_setup()
    except (SetupError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: cannot set up: {exc}", file=sys.stderr)
        return 2

    TMP_DIR.mkdir(exist_ok=True)
    out_root = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP_DIR))
    try:
        if args.trace:
            tracer = tracing.Tracer()
            untraced, traced = [], []

            def traced_pass():
                with tracer:
                    traced.append(run_pass(cli, invocations, out_root, reference, tracer))

            def one_pair():
                # alternate which side goes first, so the first pass of the
                # process, which pays for lazy set-up, falls on both sides
                first_untraced = len(untraced) % 2 == 0
                if not first_untraced:
                    traced_pass()
                untraced.append(run_pass(cli, invocations, out_root, reference))
                if first_untraced:
                    traced_pass()

            run_for(args.seconds, one_pair)
            passes = untraced + traced
            metrics, drift = layer_metrics(untraced, traced, imports)
            units = {name: unit for name, (unit, _) in tracing.LAYER_METRICS.items()}
            units.update(TRACE_METRICS)
            extra = {"untraced_passes": len(untraced), "traced_passes": len(traced),
                     "count_drift": drift,
                     "quadrature_points_by_call": tracing.points_by_call(traced[0].spans)}
        else:
            passes = run_for(args.seconds,
                             lambda: run_pass(cli, invocations, out_root, reference))
            metrics, tail_info = end_to_end_metrics(passes, setup_s)
            units = END_TO_END
            extra = {"passes": len(passes), "op_tail": tail_info,
                     "setup_raw_s": round(setup_raw_s, 4),
                     "raw_wall_s": round(statistics.median(p.wall_s for p in passes), 4),
                     "raw_op_p50_ms": round(statistics.median(
                         t for p in passes for t in p.latencies) * 1e3, 3),
                     "probe_ms": round(probe_ms(passes), 3),
                     "pass_wall_s": [round(p.scaled_wall_s, 4) for p in passes]}
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
        with contextlib.suppress(OSError):
            TMP_DIR.rmdir()

    attempted = sum(len(p.latencies) for p in passes)
    failures = [f for p in passes for f in p.failures]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(passes)} passes of {len(invocations)} invocations, "
          f"{len(failures)} of {attempted} failed")
    print("\n".join(_metric_lines(metrics, units)))
    for failure in failures[:5]:
        print(f"FAILED {' '.join(failure['argv'])}: {failure['problems']}\n{failure['output']}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "invocations": len(invocations),
        "argv_sha256": workloads.argv_digest(invocations),
        "verify": {"rtol": verify.RTOL, "atol": verify.ATOL},
        **extra,
        "environment": environment(),
    }
    print("record " + json.dumps(record, sort_keys=True))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
