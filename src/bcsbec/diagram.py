"""Regime classification over the (mu, E_c, G) parameter space.

Each point of the diagram is classified along two independent axes:

    pairing   BCS for mu > 0, BEC for mu < 0 (boundary at mu = 0), with
              mu taken from the converged gap/number solution at (U, n);
    coherence global for E_J > 2 E_c, local below, boundary at equality,
              with E_J = G^2 Delta0 / 2 for equal segments (Delta0 the
              energy gap).

The coherence boundary is an exact curve: E_J(G*) = 2 E_c gives
G* = sqrt(4 E_c / Delta0), so G* falls monotonically as the gap grows
along the coupling sweep (equivalently, as mu decreases).  The sweep
solves the gap equations once per U, reuses that solution across the
(E_c, G) plane, and emits cells in deterministic row-major order
(U outermost, then E_c, then G).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import coherence_classify, josephson_energy, sigma_phi2
from .core import PhysicalParams
from .gap import GapSolution, _warm_start, solve_self_consistent

__all__ = [
    "RegimeLabel",
    "DiagramCell",
    "classify_point",
    "critical_hopping",
    "refine_hopping_boundary",
    "sweep_diagram",
]

# Delta0 below this fraction of eps0 cannot support a finite boundary G*
_DELTA_RESOLUTION_REL = 1e-12
# |mu| at or below this fraction of eps0 is labeled the pairing boundary
_MU_RTOL = 1e-9


@dataclass(frozen=True)
class RegimeLabel:
    """Pairing regime crossed with coherence regime."""

    pairing: str
    coherence: str


@dataclass
class DiagramCell:
    """One classified point: inputs, solved values, derived energies."""

    U: float
    n: float
    E_c: float
    G: float
    mu: float | None = None
    Delta0: float | None = None
    E_J: float | None = None
    sigma2: float | None = None
    label: RegimeLabel | None = None
    converged: bool = False
    note: str = ""
    solution: GapSolution | None = None   # None when the solve failed


def _pairing_label(mu: float, energy_scale: float) -> str:
    if abs(mu) <= _MU_RTOL * energy_scale:
        return "boundary"
    return "BCS" if mu > 0.0 else "BEC"


def _equal_segment_ej(G: float, U: float, Delta0: float) -> float:
    """E_J = G^2 Delta0 / 2 via the junction formula at equal segments."""
    if G == 0.0 or Delta0 == 0.0:
        return 0.0
    return josephson_energy(G, U, Delta0 / U, Delta0 / U)


def classify_point(solution: GapSolution, E_c: float, G: float,
                   params: PhysicalParams) -> DiagramCell:
    """Label the cell (E_c, G) at the coupling and density of `solution`.

    One solve is reused across many (E_c, G) cells; the cell keeps the
    solution it was classified from.  An unconverged solution comes back
    as an unlabeled cell carrying the solver's note.
    """
    if E_c <= 0.0:
        raise ValueError("E_c must be positive")
    if G < 0.0:
        raise ValueError("G must be >= 0")
    U = solution.U
    cell = DiagramCell(U=U, n=solution.n, E_c=E_c, G=G, mu=solution.mu,
                       Delta0=solution.Delta0, converged=solution.converged,
                       solution=solution)
    if not solution.converged:
        cell.note = solution.note or "solver did not converge"
        return cell
    cell.E_J = _equal_segment_ej(G, U, solution.Delta0)
    cell.sigma2 = sigma_phi2(E_c, cell.E_J)
    cell.label = RegimeLabel(
        pairing=_pairing_label(solution.mu, params.eps0),
        coherence=coherence_classify(E_c, cell.E_J),
    )
    cell.note = solution.note
    return cell


def critical_hopping(solution: GapSolution, E_c: float, params: PhysicalParams) -> float:
    """Hopping G* with E_J(G*) = 2 E_c exactly: G* = sqrt(4 E_c/Delta0).

    Requires a converged solution with a resolved gap; a gap at or below
    the solver's resolution admits no finite G* at tolerance.  Raises
    ValueError when G* is not representable.
    """
    if E_c <= 0.0:
        raise ValueError("E_c must be positive")
    if not solution.converged:
        raise ValueError("no converged gap solution at this point")
    if solution.Delta0 <= _DELTA_RESOLUTION_REL * params.eps0:
        raise ValueError("no finite G* at tolerance: gap below resolution")
    g_star = 2.0 * math.sqrt(float(E_c) / float(solution.Delta0))
    if not math.isfinite(g_star):
        raise ValueError(f"G* = sqrt(4 E_c/Delta0) is not representable at E_c = {E_c:g}")
    return g_star


def refine_hopping_boundary(
    Delta0: float,
    E_c: float,
    U: float,
    rtol: float = 1e-9,
) -> float:
    """Localize E_J(G) = 2 E_c by bisection on G to relative width rtol.

    Independent of the closed form: brackets by doubling, then bisects on
    the sign of E_J(G) - 2 E_c.  Agrees with critical_hopping to the
    bisection tolerance.  Raises ValueError when E_J overflows before the
    bracket closes, since G* then cannot be localized in floating point.
    """
    if Delta0 <= 0.0 or E_c <= 0.0:
        raise ValueError("Delta0 and E_c must be positive")
    lo, hi = 0.0, 1.0
    while (e_j := _equal_segment_ej(hi, U, Delta0)) < 2.0 * E_c:
        hi *= 2.0
    if not (math.isfinite(hi) and math.isfinite(e_j)):
        raise ValueError(f"E_J overflows before reaching 2 E_c at E_c = {E_c:g}")
    while (hi - lo) > rtol * max(hi, 1e-300):
        mid = 0.5 * (lo + hi)
        if _equal_segment_ej(mid, U, Delta0) < 2.0 * E_c:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _validated_grid(values, name: str) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(values, dtype=float))
    if arr.size == 0:
        raise ValueError(f"{name} grid is empty")
    if np.any(np.diff(arr) < 0.0):
        raise ValueError(f"{name} grid must be sorted ascending")
    return arr


def sweep_diagram(
    U_grid,
    E_c_grid,
    G_grid,
    n: float,
    params: PhysicalParams,
) -> list:
    """Classify the full grid, solving the gap equations once per U.

    Cells come back row-major (U outermost, then E_c, then G); per-cell
    failures are inlined as unlabeled cells.  Successive gap solves are
    warm-started along the U grid from the tangent prediction of the last
    converged solve.
    """
    U_grid = _validated_grid(U_grid, "U")
    E_c_grid = _validated_grid(E_c_grid, "E_c")
    G_grid = _validated_grid(G_grid, "G")

    cells = []
    last = None
    for U in U_grid:
        try:
            solution = solve_self_consistent(float(U), n, params,
                                             initial_guess=_warm_start(last, float(U)))
            if solution.converged:
                last = solution
        except (RuntimeError, ValueError) as exc:
            solution = None
            note = f"solver failed: {exc}"
        for E_c in E_c_grid:
            for G in G_grid:
                if solution is None:
                    cells.append(
                        DiagramCell(U=float(U), n=n, E_c=float(E_c), G=float(G), note=note)
                    )
                else:
                    cells.append(classify_point(solution, float(E_c), float(G), params))
    return cells
