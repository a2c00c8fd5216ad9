"""Seeded CLI workloads of the bcsbec benchmark.

A workload is a list of CLI invocations ("one pass").  The benchmark seed
picks the inputs; the program only ever sees the generated argv.  Every
seeded input is drawn from a fixed finite grid, so that each invocation has
a reference output captured once (see capture_reference.py), and draws are
stratified over the grid so that the work in one pass barely depends on the
seed.

This module imports nothing from bcsbec.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass

__all__ = ["WORKLOADS", "Invocation", "build", "argv_digest"]

WORKLOADS = ("crossover-sweep", "cold-solve", "coherent-checks")

# couplings U/U_c for single-point solves and bound states: 41 points on
# [0.5, 4], none of them exactly at the threshold U/U_c = 1
U_GRID = tuple(round(0.5 + 0.0875 * i, 6) for i in range(41))
# densities in k0^3 for single-point solves: 10^[-2.5, -1], 8 per decade
COLD_DENSITIES = tuple(float(f"{10.0 ** (-2.5 + 0.125 * i):.6g}") for i in range(13))
# densities in k0^3 for 50-point sweeps: 16 log-spaced points on [0.003, 0.1]
SWEEP_DENSITIES = tuple(
    float(f"{0.003 * (0.1 / 0.003) ** (i / 15.0):.6g}") for i in range(16)
)
DEFAULT_DENSITY = 0.02
CHECK_SEEDS = tuple(range(1234, 1250))
ORACLE_SEEDS = tuple(range(16))
# bcsbec.checks.LOCKING_SEEDS: descents from these seeds end equal-phase locked
LOCKING_SEEDS = (6, 7, 13, 20, 21)

COLD_SOLVES = 41
BOUND_STATES_PER_SIDE = 3


@dataclass(frozen=True)
class Invocation:
    """One CLI call: its argv (without --out) and its reference entry."""

    argv: tuple
    key: str

    @property
    def command(self) -> str:
        return self.argv[0]


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def gap_sweep(n: float) -> Invocation:
    return Invocation(("gap-sweep", "--n", _fmt(n)), f"gap-sweep n={_fmt(n)}")


def cold_solve(u: float, n: float) -> Invocation:
    return Invocation(
        ("gap-sweep", "--points", "1", "--u-min", _fmt(u), "--u-max", _fmt(u),
         "--n", _fmt(n)),
        f"gap-sweep u={_fmt(u)} n={_fmt(n)}",
    )


def bound_state(u: float) -> Invocation:
    return Invocation(("bound-state", "--u", _fmt(u)), f"bound-state u={_fmt(u)}")


def phase_diagram(units: str) -> Invocation:
    return Invocation(("phase-diagram", "--units", units), f"phase-diagram units={units}")


def checks(seed: int) -> Invocation:
    return Invocation(("checks", "--seed", str(seed)), "checks")


def pegg_barnett() -> Invocation:
    return Invocation(("pegg-barnett", "--s", "64", "--rungs", "5"), "pegg-barnett")


def oracle(seed: int, dphi: float) -> Invocation:
    return Invocation(
        ("oracle", "--modes", "12", "--seed", str(seed), "--dphi", _fmt(dphi)),
        f"oracle seed={seed}",
    )


def phase_lock(seed: int) -> Invocation:
    return Invocation(("phase-lock", "--modes", "3", "--seed", str(seed)),
                      f"phase-lock seed={seed}")


def chain() -> Invocation:
    return Invocation(("chain", "--ec", "1", "--ej", "4"), "chain")


def _strata(values, count):
    """Split `values` into `count` contiguous groups of near-equal size."""
    bounds = [round(i * len(values) / count) for i in range(count + 1)]
    return [values[bounds[i]:bounds[i + 1]] for i in range(count)]


def _crossover_sweep(rng):
    sweeps = [gap_sweep(rng.choice(stratum)) for stratum in _strata(SWEEP_DENSITIES, 3)]
    return [gap_sweep(DEFAULT_DENSITY), *sweeps,
            phase_diagram("dimensionless"), phase_diagram("physical")]


def _cold_solve(rng):
    # every coupling once; each run of len(COLD_DENSITIES) neighbouring
    # couplings gets every density once, so a pass spans the whole (u, n)
    # range whatever the seed
    ns = []
    while len(ns) < COLD_SOLVES:
        block = list(COLD_DENSITIES)
        rng.shuffle(block)
        ns += block
    out = [cold_solve(u, n) for u, n in zip(U_GRID, ns)]
    rng.shuffle(out)
    below = [u for u in U_GRID if u < 1.0]
    above = [u for u in U_GRID if u > 1.0]
    out += [bound_state(u) for u in sorted(rng.sample(below, BOUND_STATES_PER_SIDE))]
    out += [bound_state(u) for u in sorted(rng.sample(above, BOUND_STATES_PER_SIDE))]
    return out


def _coherent_checks(rng):
    return [
        checks(rng.choice(CHECK_SEEDS)),
        pegg_barnett(),
        oracle(rng.choice(ORACLE_SEEDS), round(rng.uniform(0.1, 2.0 * math.pi - 0.1), 4)),
        *[phase_lock(seed) for seed in LOCKING_SEEDS],
        chain(),
    ]


_BUILDERS = {
    "crossover-sweep": _crossover_sweep,
    "cold-solve": _cold_solve,
    "coherent-checks": _coherent_checks,
}


def build(workload: str, seed: int) -> list:
    """The invocations of one pass of `workload` for benchmark seed `seed`."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    # string seeds hash with sha512, so draws do not depend on PYTHONHASHSEED
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))


def argv_digest(invocations) -> str:
    """sha256 of the generated argv lists, in order."""
    payload = json.dumps([list(inv.argv) for inv in invocations])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
