"""Checks every CLI output of a benchmark pass.

An invocation fails when any of these holds:

- its exit code is not 0;
- a CSV row is unconverged, or a residual exceeds the solver tolerance
  (`tol_gap` = 1e-10, `tol_number` = 1e-8, the CLI defaults the workloads use);
- a self-check of `checks` did not pass, or a check present in the
  reference inventory did not run;
- a CSV value differs from the reference value captured at the commit that
  introduced the benchmark by more than RTOL * |reference| + ATOL.

RTOL is 1e-7.  At the default tolerances a warm-started sweep and cold
solves at the same couplings agree to 1.5e-11 relative (capture_reference.py
prints the figure), and the number residual may reach 1e-8, so a solver that
meets its tolerances by another route stays inside RTOL, while a wrong root
or a wrong unit does not.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

__all__ = ["RTOL", "ATOL", "OUTPUTS", "load_reference", "check_invocation", "compare_csv"]

RTOL = 1e-7
ATOL = 1e-10
TOL_GAP = 1e-10
TOL_NUMBER = 1e-8
# analytic pair algebra vs the exact Fock oracle in oracle.csv
ORACLE_AGREEMENT = 1e-10

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

OUTPUTS = {
    "gap-sweep": ("gap_sweep.csv",),
    "bound-state": ("bound_state.csv",),
    "phase-diagram": ("phase_diagram.csv", "boundary.csv"),
    "pegg-barnett": ("pegg_barnett.csv",),
    "oracle": ("oracle.csv",),
    "phase-lock": ("phase_lock.csv",),
    "chain": ("chain.csv",),
    "checks": (),
}

# per CSV: columns compared with the reference numerically ("values") or as
# text ("same"), columns that must hold a fixed text ("require"), columns
# bounded in absolute value ("limits") and column pairs that must agree
RULES = {
    "gap_sweep.csv": {
        "values": ("U_over_Uc", "mu_over_epsF", "Delta0_over_epsF", "Delta0_over_eps0"),
        "require": {"converged": "1"},
        "limits": {"residual_gap": TOL_GAP, "residual_number": TOL_NUMBER},
    },
    "bound_state.csv": {
        "values": ("U_over_Uc", "E_b_over_eps0"),
        "same": ("has_bound_state",),
    },
    "phase_diagram.csv": {
        "values": ("U_over_Uc", "mu", "Delta0", "E_c", "G", "E_J", "sigma_phi2"),
        "same": ("pairing", "coherence"),
        "require": {"converged": "1"},
    },
    "boundary.csv": {
        "values": ("U_over_Uc", "mu", "G_star", "G_star_bisect"),
    },
    "pegg_barnett.csv": {
        "values": ("s", "comm_re", "comm_im", "deviation", "truncation_error"),
        "same": ("warned",),
    },
    "oracle.csv": {
        "values": ("modes", "eta_mean_analytic", "eta_mean_oracle",
                   "eta_var_analytic", "eta_var_oracle"),
        "limits": {"overlap_abs_dev": ORACLE_AGREEMENT, "number_phase_dev": 1e-5},
        "pairs": (("eta_mean_analytic", "eta_mean_oracle"),
                  ("eta_var_analytic", "eta_var_oracle")),
    },
    "phase_lock.csv": {
        "values": ("mode", "phase", "amplitude"),
    },
    "chain.csv": {
        "values": ("separation", "rho"),
    },
}


def load_reference(workload: str) -> dict:
    """Reference outputs of every input a workload can draw, by key."""
    path = REFERENCE_DIR / f"{workload}.json"
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _close(value: str, ref: str) -> bool:
    if value == "" or ref == "":
        return value == ref
    a, b = float(value), float(ref)
    if a == b:
        return True
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= RTOL * abs(b) + ATOL


def _parse(text: str):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def compare_csv(name: str, text: str, ref_text: str) -> list:
    """Problems found comparing one CSV with its reference text."""
    rule = RULES[name]
    header, rows = _parse(text)
    ref_header, ref_rows = _parse(ref_text)
    if header != ref_header:
        return [f"{name}: header {header} differs from reference {ref_header}"]
    if len(rows) != len(ref_rows):
        return [f"{name}: {len(rows)} rows, reference has {len(ref_rows)}"]
    col = {h: i for i, h in enumerate(header)}
    problems = []
    for r, (row, ref) in enumerate(zip(rows, ref_rows)):
        for c in rule.get("values", ()):
            if not _close(row[col[c]], ref[col[c]]):
                problems.append(f"{name} row {r} {c}: {row[col[c]]} vs reference {ref[col[c]]}")
        for c in rule.get("same", ()):
            if row[col[c]] != ref[col[c]]:
                problems.append(f"{name} row {r} {c}: {row[col[c]]!r} vs reference {ref[col[c]]!r}")
        for c, text_value in rule.get("require", {}).items():
            if row[col[c]] != text_value:
                problems.append(f"{name} row {r} {c}: {row[col[c]]!r}, expected {text_value!r}")
        for c, limit in rule.get("limits", {}).items():
            if not abs(float(row[col[c]])) <= limit:
                problems.append(f"{name} row {r} {c}: {row[col[c]]} exceeds {limit:g}")
        for a, b in rule.get("pairs", ()):
            if not abs(float(row[col[a]]) - float(row[col[b]])) <= ORACLE_AGREEMENT:
                problems.append(f"{name} row {r}: {a} {row[col[a]]} vs {b} {row[col[b]]}")
    return problems


def _check_results(outdir: Path, names) -> list:
    path = outdir / "checks.meta.json"
    if not path.is_file():
        return ["checks.meta.json missing"]
    results = json.loads(path.read_text(encoding="utf-8")).get("results", {})
    problems = [f"check {name} did not run" for name in names if name not in results]
    problems += [f"check {name} failed" for name, r in results.items() if not r.get("passed")]
    return problems


def check_invocation(inv, exit_code: int, outdir, reference: dict) -> list:
    """Every problem with one invocation's exit code and outputs."""
    outdir = Path(outdir)
    problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
    entry = reference.get(inv.key)
    if entry is None:
        return problems + [f"no reference for {inv.key!r}"]
    if inv.command == "checks":
        problems += _check_results(outdir, entry["check_names"])
    for name in OUTPUTS[inv.command]:
        path = outdir / name
        if not path.is_file():
            problems.append(f"{name} missing")
            continue
        problems += compare_csv(name, path.read_text(encoding="utf-8"), entry[name])
    return problems
