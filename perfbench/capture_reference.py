#!/usr/bin/env python3
"""Capture the reference outputs that verify.py compares against.

    python3 perfbench/capture_reference.py [--workload NAME]

Runs the CLI once for every input a workload can draw (the grids in
workloads.py) and stores each invocation's CSV text under its key in
perfbench/reference/<workload>.json.  The stored files were captured at the
commit that introduced the benchmark; recapturing after a deliberate change
of the numerics replaces the baseline, so say so in the change log.

Also prints how far the warm-started default sweep and cold single-point
solves at the same couplings disagree, the figure verify.RTOL is chosen
against.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
import verify
import workloads as wl


def candidates(workload: str) -> list:
    """Every invocation `workload` can generate, one per reference key."""
    if workload == "crossover-sweep":
        return ([wl.gap_sweep(wl.DEFAULT_DENSITY)]
                + [wl.gap_sweep(n) for n in wl.SWEEP_DENSITIES]
                + [wl.phase_diagram("dimensionless"), wl.phase_diagram("physical")])
    if workload == "cold-solve":
        return ([wl.cold_solve(u, n) for u in wl.U_GRID for n in wl.COLD_DENSITIES]
                + [wl.bound_state(u) for u in wl.U_GRID])
    return ([wl.checks(seed) for seed in wl.CHECK_SEEDS]
            + [wl.pegg_barnett()]
            + [wl.oracle(seed, 1.0) for seed in wl.ORACLE_SEEDS]
            + [wl.phase_lock(seed) for seed in wl.LOCKING_SEEDS]
            + [wl.chain()])


def capture(cli, workload: str, scratch: Path) -> dict:
    reference = {}
    for inv in candidates(workload):
        outdir = scratch / "out"
        shutil.rmtree(outdir, ignore_errors=True)
        log = io.StringIO()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            code = cli.main([*inv.argv, "--out", str(outdir)])
        if code != 0:
            raise SystemExit(f"{' '.join(inv.argv)} exited {code}:\n{log.getvalue()}")
        if inv.command == "checks":
            results = json.loads((outdir / "checks.meta.json").read_text())["results"]
            failed = [name for name, r in results.items() if not r["passed"]]
            if failed:
                raise SystemExit(f"{' '.join(inv.argv)}: checks failed {failed}")
            reference[inv.key] = {"check_names": sorted(results)}
            continue
        entry = {name: (outdir / name).read_text(encoding="utf-8")
                 for name in verify.OUTPUTS[inv.command]}
        for name, text in entry.items():
            # the reference must itself pass every rule but the comparison
            problems = verify.compare_csv(name, text, text)
            if problems:
                raise SystemExit(f"{' '.join(inv.argv)}: {problems[:3]}")
        reference[inv.key] = entry
    return reference


def warm_cold_disagreement(cli, sweep_csv: str, n: float, scratch: Path) -> float:
    """Largest relative gap between sweep rows and cold solves at the same point."""
    worst = 0.0
    outdir = scratch / "calibrate"
    for row in list(csv.DictReader(io.StringIO(sweep_csv)))[::7]:
        u = row["U_over_Uc"]
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["gap-sweep", "--points", "1", "--u-min", u, "--u-max", u,
                      "--n", repr(n), "--out", str(outdir)])
        cold = next(csv.DictReader(io.StringIO((outdir / "gap_sweep.csv").read_text())))
        for c in ("mu_over_epsF", "Delta0_over_epsF"):
            a, b = float(row[c]), float(cold[c])
            worst = max(worst, abs(a - b) / abs(b))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, action="append")
    args = parser.parse_args(argv)
    cli = run.load_cli()
    verify.REFERENCE_DIR.mkdir(exist_ok=True)
    run.TMP_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="capture-", dir=run.TMP_DIR))
    try:
        captured = {}
        for workload in args.workload or wl.WORKLOADS:
            captured[workload] = capture(cli, workload, scratch)
            path = verify.REFERENCE_DIR / f"{workload}.json"
            path.write_text(json.dumps(captured[workload], indent=0, sort_keys=True) + "\n",
                            encoding="utf-8")
            print(f"{workload}: {len(captured[workload])} entries -> {path}")
        if "crossover-sweep" in captured:
            sweep = captured["crossover-sweep"][wl.gap_sweep(wl.DEFAULT_DENSITY).key]
            worst = warm_cold_disagreement(cli, sweep["gap_sweep.csv"],
                                           wl.DEFAULT_DENSITY, scratch)
            print(f"warm sweep vs cold solve, largest relative gap: {worst:.3g}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            run.TMP_DIR.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
