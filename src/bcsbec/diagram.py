"""Regime classification over the (mu, E_c, G) parameter space.

Each point of the diagram is classified along two independent axes:

    pairing   BCS for mu > 0, BEC for mu < 0 (boundary at mu = 0), with
              mu taken from the converged gap/number solution at (U, n);
    coherence global for E_J > 2 E_c, local below, boundary at equality,
              with E_J = G^2 Delta0 / 2 for equal segments (Delta0 the
              energy gap).

The coherence boundary is an exact curve: E_J(G*) = 2 E_c gives
G* = sqrt(4 E_c / Delta0), so G* falls monotonically as the gap grows
along the coupling sweep (equivalently, as mu decreases).  sweep_coupling
is the one warm-started walk along a coupling grid; sweep_diagram
classifies its solutions at one charging energy E_c, reusing each across
the G grid, and emits cells in deterministic row-major order (U outer, G
inner).  Every cell carries the GapSolution it was classified from, a
failed solve included.  Energies are in eps0 and U in eps0/k0^3, the
natural units of bcsbec.gap; G is a dimensionless hopping amplitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import coherence_classify, josephson_energy, sigma_phi2
from .gap import GapSolution, _warm_start, solve_self_consistent

__all__ = [
    "RegimeLabel",
    "DiagramCell",
    "classify_point",
    "critical_hopping",
    "refine_hopping_boundary",
    "sweep_coupling",
    "sweep_diagram",
]

# |mu| at or below this many eps0 is labeled the pairing boundary
_MU_RTOL = 1e-9


@dataclass(frozen=True)
class RegimeLabel:
    """Pairing regime crossed with coherence regime."""

    pairing: str
    coherence: str


@dataclass
class DiagramCell:
    """One classified point: the gap solution at its (U, n), E_c, G, derived energies.

    E_J, sigma2 and label stay None when the solution is unconverged.
    """

    solution: GapSolution
    E_c: float
    G: float
    E_J: float | None = None
    sigma2: float | None = None
    label: RegimeLabel | None = None


def _pairing_label(mu: float) -> str:
    if abs(mu) <= _MU_RTOL:
        return "boundary"
    return "BCS" if mu > 0.0 else "BEC"


def _equal_segment_ej(G: float, U: float, Delta0: float) -> float:
    """E_J = G^2 Delta0 / 2 via the junction formula at equal segments."""
    if G == 0.0 or Delta0 == 0.0:
        return 0.0
    return josephson_energy(G, U, Delta0 / U, Delta0 / U)


def classify_point(solution: GapSolution, E_c: float, G: float) -> DiagramCell:
    """Label the cell (E_c, G) at the coupling and density of `solution`.

    One solve is reused across many (E_c, G) cells; the cell keeps the
    solution it was classified from.  An unconverged solution comes back
    as an unlabeled cell.
    """
    if E_c <= 0.0:
        raise ValueError("E_c must be positive")
    if G < 0.0:
        raise ValueError("G must be >= 0")
    cell = DiagramCell(solution=solution, E_c=E_c, G=G)
    if not solution.converged:
        return cell
    cell.E_J = _equal_segment_ej(G, solution.U, solution.Delta0)
    cell.sigma2 = sigma_phi2(E_c, cell.E_J)
    cell.label = RegimeLabel(
        pairing=_pairing_label(solution.mu),
        coherence=coherence_classify(E_c, cell.E_J),
    )
    return cell


def critical_hopping(solution: GapSolution, E_c: float) -> float:
    """Hopping G* with E_J(G*) = 2 E_c exactly: G* = sqrt(4 E_c/Delta0).

    Requires a converged solution with a resolved gap: the solver reports a
    gap below its resolution as Delta0 = 0, which admits no finite G*.  G*
    is formed as 2 sqrt(E_c)/sqrt(Delta0), so no quotient overflows on the
    way.  Raises ValueError when G* is not representable.
    """
    if E_c <= 0.0:
        raise ValueError("E_c must be positive")
    if not solution.converged:
        raise ValueError("no converged gap solution at this point")
    if not solution.Delta0 > 0.0:
        raise ValueError("no finite G*: gap below resolution")
    g_star = 2.0 * math.sqrt(E_c) / math.sqrt(solution.Delta0)
    if not math.isfinite(g_star):
        raise ValueError("G* = sqrt(4 E_c/Delta0) is not representable")
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
    It runs on Python floats, whose overflow to inf raises no warning.
    """
    if Delta0 <= 0.0 or E_c <= 0.0:
        raise ValueError("Delta0 and E_c must be positive")
    Delta0, E_c, U = float(Delta0), float(E_c), float(U)
    lo, hi = 0.0, 1.0
    while (e_j := _equal_segment_ej(hi, U, Delta0)) < 2.0 * E_c:
        hi *= 2.0
    if not (math.isfinite(hi) and math.isfinite(e_j)):
        raise ValueError("G* is not representable: E_J overflows before reaching 2 E_c")
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


def sweep_coupling(U_grid, n: float, tol_gap: float = 1e-10,
                   tol_number: float = 1e-8) -> list[GapSolution]:
    """Solve along a coupling grid, warm-starting each point from the last.

    Each warm start is predicted from the last two converged points with a
    resolved gap, by the cubic Hermite curve through their values and
    tangents, or from the last one alone by its tangent line (see
    gap._warm_start); a warm point then typically takes two or three
    integrals, the last of which only confirms convergence.  Failed points,
    including numeric failures
    (RuntimeError, ValueError), are recorded inline (converged = False, mu
    and Delta0 NaN) without aborting the sweep.
    """
    out = []
    last = before = None
    for U in np.asarray(U_grid, dtype=float).tolist():
        try:
            sol = solve_self_consistent(U, n, tol_gap=tol_gap, tol_number=tol_number,
                                        initial_guess=_warm_start(last, U, before))
        except (RuntimeError, ValueError) as exc:  # QuadratureError is a RuntimeError
            sol = GapSolution(U, n, np.nan, np.nan, np.nan, np.nan, 0, False,
                              f"solver error: {exc}")
        out.append(sol)
        if sol.converged and sol.Delta0 > 0:
            before, last = last, sol
    return out


def sweep_diagram(U_grid, E_c: float, G_grid, n: float, tol_gap: float = 1e-10,
                  tol_number: float = 1e-8) -> list[DiagramCell]:
    """Classify the (U, G) grid at charging energy E_c, solving once per U.

    The solutions are those of sweep_coupling along the U grid, so a solve
    that raised a numeric failure comes back as unlabeled cells.  Cells come
    back row-major (U outer, G inner).
    """
    U_grid = _validated_grid(U_grid, "U")
    G_grid = _validated_grid(G_grid, "G")
    return [classify_point(solution, float(E_c), float(G))
            for solution in sweep_coupling(U_grid, n, tol_gap, tol_number)
            for G in G_grid]
