"""Self-tests of the benchmark.  Run with `python3 -m pytest perfbench`."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402

cli = run.load_cli()


def _bindings():
    modules = {m: sys.modules[m] for m, *_ in tracing.TARGETS}
    return {(m, b): getattr(modules[m], b) for m, b, *_ in tracing.TARGETS}


# a two-invocation pass that touches the quadrature, gap and runio layers
SMALL = [workloads.cold_solve(workloads.U_GRID[20], workloads.COLD_DENSITIES[6]),
         workloads.bound_state(workloads.U_GRID[10])]


@pytest.fixture
def reference():
    ref = verify.load_reference("cold-solve")
    return {inv.key: ref[inv.key] for inv in SMALL}


@pytest.fixture
def out_root(tmp_path):
    return tmp_path / "out"


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_argv(workload):
    first = workloads.build(workload, 7)
    assert first == workloads.build(workload, 7)
    assert workloads.argv_digest(first) == workloads.argv_digest(workloads.build(workload, 7))
    if workload != "coherent-checks":  # its seeded draws come from small sets
        assert first != workloads.build(workload, 8)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_generated_input_has_a_reference(workload):
    reference = verify.load_reference(workload)
    for seed in range(20):
        for inv in workloads.build(workload, seed):
            assert inv.key in reference, inv.key


def test_untraced_pass_installs_no_wrapper(monkeypatch, out_root, reference):
    before = _bindings()

    def refuse(self):
        raise AssertionError("untraced run installed the tracer")

    monkeypatch.setattr(tracing.Tracer, "install", refuse)
    seen = []
    real_main = cli.main

    def spying_main(argv):
        seen.append(_bindings() == before)
        return real_main(argv)

    monkeypatch.setattr(cli, "main", spying_main)
    result = run.run_pass(cli, SMALL, out_root, reference)
    assert result.failures == []
    assert result.spans is None
    assert seen == [True] * len(SMALL)
    assert _bindings() == before


def test_calibration_scales_each_invocation_by_the_probes_around_it(out_root, reference):
    ref = calibrate.REFERENCE_PROBE_S
    assert calibrate.scales([ref, ref, 3 * ref]) == pytest.approx([1.0, 0.5])
    result = run.run_pass(cli, SMALL, out_root, reference)
    assert len(result.probes) == len(SMALL) + 1
    factors = calibrate.scales(result.probes)
    assert result.scaled == pytest.approx([t * k for t, k in zip(result.latencies, factors)])


def test_wrappers_are_restored(out_root, reference):
    before = _bindings()
    tracer = tracing.Tracer()
    with tracer:
        during = _bindings()
        assert all(getattr(during[key], "perfbench_traced", False) for key in before)
        result = run.run_pass(cli, SMALL, out_root, reference, tracer)
    assert _bindings() == before
    assert result.failures == []
    assert {s.name for s in result.spans} >= {"cli", "quadrature", "gap.solve",
                                              "gap.bound_state", "runio"}


def test_wrappers_are_restored_after_an_error():
    before = _bindings()
    with pytest.raises(ZeroDivisionError):
        with tracing.Tracer():
            1 / 0
    assert _bindings() == before


def test_traced_counts_repeat_and_self_times_add_up(out_root, reference):
    summaries = []
    for _ in range(2):
        with tracing.Tracer() as tracer:
            result = run.run_pass(cli, SMALL, out_root, reference, tracer)
        summaries.append(tracing.summarize(result.spans))
        roots = sum(s.duration for s in result.spans if s.parent is None)
        assert summaries[-1]["trace.self_sum_s"] == pytest.approx(roots, rel=1e-9)
    for name, (_, kind) in tracing.LAYER_METRICS.items():
        if kind == "count":
            assert summaries[0][name] == summaries[1][name], name
    assert summaries[0]["quadrature.points"] > 0
    assert summaries[0]["gap.bound_state.calls"] == 2


def test_verification_flags_a_wrong_value(reference):
    key = SMALL[0].key
    text = reference[key]["gap_sweep.csv"]
    header, row = text.splitlines()
    cells = row.split(",")
    cells[1] = repr(float(cells[1]) * (1.0 + 10 * verify.RTOL))
    problems = verify.compare_csv("gap_sweep.csv", f"{header}\n{','.join(cells)}\n", text)
    assert len(problems) == 1 and "mu_over_epsF" in problems[0]


def test_benchmark_json_names_every_printed_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    per_layer = {**{n: u for n, (u, _) in tracing.LAYER_METRICS.items()}, **run.TRACE_METRICS}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
