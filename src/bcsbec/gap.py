"""Zero-temperature gap/number self-consistency and the two-body bound state.

The pairing state of the separable-interaction Fermi gas is fixed by two
coupled conditions on the energy gap Delta0 and the chemical potential mu:

    1 = (U/2) Integral d^3k/(2 pi)^3  Gamma^2(k) / xi_k            (gap)
    n =       Integral d^3k/(2 pi)^3  [1 - (eps_k - mu)/xi_k]      (number)

with xi_k = sqrt((eps_k - mu)^2 + Delta0^2 Gamma^2(k)).  The attraction is
carried as U > 0 with the integrand written positive definite; Delta0 is the
energy gap (the quantity whose product with Gamma(k) enters xi_k).  The
occupancy 1 - eps/xi counts both spin projections, so a vanishing gap at
mu = eps_F reproduces the free-gas density k_F^3/(3 pi^2).

Every root-find on the gap side is one safeguarded Newton iteration,
_safe_newton: Newton steps kept inside a sign bracket, bisecting when a
step leaves it (rtsafe; Press et al., Numerical Recipes, 3rd ed., sec.
9.4).  The slopes come from closed-form derivative integrands that ride on
the panels of the residual integrands, so a slope costs no extra integral.

A cold solve nests two: the gap residual is monotone in x = log Delta0 at
fixed mu, and the density excess n(mu) - n is monotone in mu on (-E_b/2,
inf), whose lower end, the dissociation edge, costs no integral (gap and
density vanish there).  One integral at the gap root gives the density and
dn/dmu = d occ/dmu - d occ/dDelta0 (dgap/dmu)/(dgap/dDelta0), and each gap
solve starts from the previous root moved along dDelta0/dmu.  A 2D Newton
polish then drives both residuals to tolerance, one integral per step,
with the same analytic Jacobian.

This module alone decides when a gap is unresolved: a gap at fixed mu
within a factor 2 of _GAP_FLOOR_REL eps0 counts as Delta0 = 0.  Deep in
the BCS regime the mean-field gap falls as (8/e^2) eps_F
exp(-pi/(2 k_F |a|)) (Leggett 1980) and soon drops below that floor.  When the search's last
probe has no resolved gap, the answer is the free gas in closed form:
mu = eps_F, Delta0 = 0, a number residual of 0, and a gap residual of NaN,
because the gap integral diverges at Delta0 = 0 for mu > 0.

Along a coupling sweep each point is warm-started from a first-order
tangent prediction (Allgower & Georg, Numerical Continuation Methods,
1990).  Since the gap residual depends on U only through -U I_gap/2, the
tangent (dmu/dU, dDelta0/dU) solves J t = (I_gap/2, 0) with the Jacobian
of the converged point, at no extra integral.  locate_mu_zero runs the same
safeguarded Newton on mu(U), with dmu/dU from the tangent as the slope.

The two-body bound state solves 1 = U Integral Gamma^2/(2 eps_k + E_b); it
exists above the threshold coupling U_c and, for the separable form factor,
obeys the closed form E_b = (hbar^2 k0^2/m) (U/U_c - 1)^2 = 2 eps0 (U/U_c - 1)^2.
bound_state_energy returns that closed form; the tests check it against an
independent numerical root-find of the integral equation.  At zero gap and
mu < 0 the gap equation is the bound-state equation with E_b = -2 mu, so
for mu <= 0 it has a positive root exactly when mu > -E_b/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import PhysicalParams, critical_coupling
from .quadrature import QuadratureError, radial_integral

__all__ = [
    "GapSolution",
    "gap_residual",
    "number_residual",
    "solve_self_consistent",
    "bound_state_energy",
    "sweep_coupling",
    "locate_mu_zero",
]

# Delta0 below this fraction of the energy scale is treated as unresolved
_GAP_FLOOR_REL = 1e-13
# budget of a cold solve's search in integrals, and of any safeguarded Newton
_MAX_ITER = 500
# step budget of one Newton polish
_NEWTON_STEPS = 25
# the gap at fixed mu: Newton in log Delta0 stops at a bracket _LOG_GAP_XTOL
# wide, steps at most _LOG_GAP_CAP toward an open end, and counts a root
# within a factor 2 (_LOG2) of the floor or a quadrature failure unresolved
_LOG_GAP_XTOL = 1e-6
_LOG_GAP_CAP = 2.0
_LOG2 = math.log(2.0)


@dataclass
class GapSolution:
    """Self-consistent solution of the gap and number equations."""

    U: float
    n: float
    mu: float
    Delta0: float               # energy gap
    residual_gap: float
    residual_number: float      # relative, (n - computed)/n
    iterations: int
    converged: bool
    note: str = ""
    # (dmu/dU, dDelta0/dU) along the solution branch at this point; None for
    # an unconverged solve, a gap below resolution or a singular Jacobian
    tangent: tuple[float, float] | None = None


def _pair_integrand(mu, Delta0, params: PhysicalParams, column=None):
    """Integrand without the radial weight: six columns, or only `column`.

    The columns are the gap g2/xi, the occupancy, and the closed-form
    derivatives d(g2/xi)/dmu = g2 eps/xi^3, d(g2/xi)/dDelta0 =
    -Delta0 g2^2/xi^3, d occ/dmu = y2/xi^3 and d occ/dDelta0 =
    eps Delta0 g2/xi^3 (eps = eps_k - mu, y2 = Delta0^2 g2).
    """
    h2m = params.half_hbar2_over_m
    k0 = params.k0

    def f(k):
        eps = h2m * k * k - mu
        g2 = 1.0 / (1.0 + (k / k0) ** 2)
        y2 = Delta0 * Delta0 * g2
        xi = np.sqrt(eps * eps + y2)
        if column == 0:
            return g2 / xi
        # occupancy 1 - eps/xi in a cancellation-free form for eps > 0
        with np.errstate(invalid="ignore", divide="ignore"):
            occ = np.where(eps > 0.0, y2 / (xi * (xi + eps)), 1.0 - eps / np.maximum(xi, 1e-300))
        if column == 1:
            return occ
        xi3 = xi * xi * xi
        return np.stack([g2 / xi, occ, g2 * eps / xi3, -Delta0 * g2 * g2 / xi3,
                         y2 / xi3, eps * Delta0 * g2 / xi3], axis=1)

    return f


def _breakpoints(mu, Delta0, params: PhysicalParams):
    """Panel seeds: the form-factor knee plus the near-Fermi-surface peak."""
    k0 = params.k0
    h2m = params.half_hbar2_over_m
    pts = [0.3 * k0, k0, 3.0 * k0, 10.0 * k0]
    if mu > 0:
        kmu = np.sqrt(mu / h2m)
        pts.append(kmu)
        local_gap = Delta0 / np.sqrt(1.0 + (kmu / k0) ** 2)
        if local_gap > 0:
            dk = local_gap / (2.0 * h2m * kmu)
            for c in (1.0, 3.0, 10.0, 30.0, 100.0):
                pts.extend([kmu - c * dk, kmu + c * dk])
    return [p for p in pts if p > 0]


def _pair_integral(mu, Delta0, params, steer=None, column=None):
    """Radial integral of _pair_integrand(mu, Delta0, params, column).

    The first `steer` columns steer the refinement and the rest ride on
    their panels.  A single column is integrated on its own: adaptive
    refinement follows every column that steers it, so slicing a wider
    result would refine different panels and cost more integrand points,
    and the gap column diverges at Delta0 = 0, where the occupancy alone
    still has a finite integral.
    """
    return radial_integral(_pair_integrand(mu, Delta0, params, column), k0=params.k0,
                           breakpoints=_breakpoints(mu, Delta0, params), steer=steer)


def _residuals_and_jacobian(mu, Delta0, U, n, params):
    """Residuals (r_gap, r_number), their Jacobian in (mu, Delta0), and I_gap.

    One radial integral: the four derivative integrands ride on the panels
    that the gap and occupancy integrands choose (steer=2), so the residuals
    are bit-identical to those of a (gap, occupancy) integral alone.
    """
    gap, density, dgap_mu, dgap_d, docc_mu, docc_d = _pair_integral(mu, Delta0, params, steer=2)
    r = np.array([1.0 - 0.5 * U * gap, (n - density) / n])
    J = np.array([[-0.5 * U * dgap_mu, -0.5 * U * dgap_d],
                  [-docc_mu / n, -docc_d / n]])
    return r, J, gap


def gap_residual(Delta0: float, mu: float, U: float, params: PhysicalParams) -> float:
    """1 - (U/2) * gap integral; zero at self-consistency.

    Diverges (negative, via the log singularity at the Fermi surface) as
    Delta0 -> 0 with mu > 0; the quadrature reports non-convergence there.
    """
    if Delta0 < 0:
        raise ValueError("Delta0 must be nonnegative")
    if U <= 0:
        raise ValueError("U must be positive")
    return 1.0 - 0.5 * U * float(_pair_integral(mu, Delta0, params, column=0)[0])


def number_residual(Delta0: float, mu: float, n: float, params: PhysicalParams) -> float:
    """(n - computed density)/n; equals 1 exactly for an empty state."""
    if Delta0 < 0:
        raise ValueError("Delta0 must be nonnegative")
    if n <= 0:
        raise ValueError("density must be positive")
    return (n - float(_pair_integral(mu, Delta0, params, column=1)[0])) / n


def _safe_newton(f, x, lo, hi, xtol, budget, cap=math.inf):
    """Root of an increasing f, (value, slope) = f(x), in the sign bracket (lo, hi).

    rtsafe (Press et al., Numerical Recipes, 3rd ed., 2007, sec. 9.4): each
    evaluation moves the end of its sign to x, and a Newton step that
    leaves the bracket, or has a zero or NaN slope, becomes a bisection.
    An end may be infinite (open); steps toward it are at most `cap` long.
    Steps shorter than xtol/2 are lengthened to xtol/2, so the bracket
    closes.  Returns (root, evaluations) once the bracket is no wider than
    xtol, the root being the next iterate; raises RuntimeError after
    `budget` evaluations.
    """
    for evals in range(1, budget + 1):
        fx, slope = f(x)
        if fx == 0.0:
            return x, evals
        if fx < 0.0:
            lo = x
        else:
            hi = x
        new = x - fx / slope if slope else math.nan
        if not lo < new < hi:
            new = 0.5 * (lo + hi)  # +-inf toward an open end, capped below
        if math.isinf(lo) or math.isinf(hi):
            new = min(max(new, x - cap), x + cap)
        if hi - lo <= xtol:
            return new, evals
        if abs(new - x) < 0.5 * xtol:
            new = x + math.copysign(0.5 * xtol, -fx)
        x = new
    raise RuntimeError(f"no root within {budget} evaluations")


def _gap_at_mu(mu, U, params, guess=None):
    """Solve the gap equation at fixed mu; returns (Delta0, integrals).

    Safeguarded Newton in x = log Delta0 from `guess` (default eps0), on
    r_gap and dr_gap/dx from one integral with the gap column steering
    (steer=1).  For mu > 0 r_gap -> -inf as Delta0 -> 0+ (log singularity
    at the Fermi surface), and a quadrature failure below 1e-4 eps0 counts
    as r_gap = -inf.  Delta0 = 0: no root a factor 2 above the floor
    _GAP_FLOOR_REL eps0 and every failure, because none exists (mu at or
    below -E_b/2) or it is below resolution; a positive residual that
    close ends the solve.
    """
    floor = _GAP_FLOOR_REL * params.eps0
    edge = math.log(floor)  # the floor, then the highest failure
    top = math.inf  # the lowest x with r_gap > 0
    integrals = 0

    def r(x):
        nonlocal integrals, edge, top
        D = math.exp(x)
        integrals += 1
        try:
            vals = _pair_integral(mu, D, params, steer=1)
        except QuadratureError:
            if mu <= 0 or D >= 1e-4 * params.eps0:
                raise
            edge, value, slope = x, -math.inf, math.nan
        else:
            value, slope = 1.0 - 0.5 * U * vals[0], -0.5 * U * D * vals[3]
            if value > 0.0:
                top = min(top, x)
        # a zero stops the iteration at x, within a factor 2 of the edge
        return (0.0, math.nan) if top - edge < _LOG2 else (value, slope)

    x0 = math.log(guess if guess is not None and guess > floor else params.eps0)
    x, _ = _safe_newton(r, x0, edge, math.inf, _LOG_GAP_XTOL, _MAX_ITER, cap=_LOG_GAP_CAP)
    return (0.0 if x - edge < _LOG2 else math.exp(x)), integrals


def _newton_polish(mu, Delta0, U, n, params, tol_gap, tol_number):
    """2D Newton on (mu, Delta0) with the analytic Jacobian.

    Each step costs one radial integral, which yields the residuals and
    their Jacobian together (`_residuals_and_jacobian`).  Stops once
    |r_gap| <= 0.05 tol_gap and |r_number| <= 0.05 tol_number, after
    _NEWTON_STEPS steps, on a singular Jacobian, or when halving the step
    30 times cannot keep Delta0 positive.  Returns (mu, Delta0, r_gap,
    r_number, steps, tangent).  tangent = (dmu/dU, dDelta0/dU) at the final
    point solves J t = (I_gap/2, 0), because dr_gap/dU = -I_gap/2; it costs
    no integral, and it is None when J is singular there.
    """
    it = 0
    r, J, gap = _residuals_and_jacobian(mu, Delta0, U, n, params)
    for _ in range(_NEWTON_STEPS):
        it += 1
        if abs(r[0]) <= 0.05 * tol_gap and abs(r[1]) <= 0.05 * tol_number:
            break
        try:
            step = np.linalg.solve(J, -r)
        except np.linalg.LinAlgError:
            break
        new_mu, new_D = mu + step[0], Delta0 + step[1]
        shrink = 0
        while new_D <= 0 and shrink < 30:
            step *= 0.5
            new_mu, new_D = mu + step[0], Delta0 + step[1]
            shrink += 1
        if new_D <= 0:
            break
        mu, Delta0 = new_mu, new_D
        r, J, gap = _residuals_and_jacobian(mu, Delta0, U, n, params)
    try:
        tangent = tuple(np.linalg.solve(J, [0.5 * gap, 0.0]))
    except np.linalg.LinAlgError:
        tangent = None
    return mu, Delta0, r[0], r[1], it, tangent


def _failed_solve(U: float, n: float, exc: Exception) -> GapSolution:
    """The unconverged record a sweep keeps for a solve that raised `exc`."""
    return GapSolution(float(U), n, np.nan, np.nan, np.nan, np.nan, 0, False,
                       f"solver error: {exc}")


def _warm_start(prev: GapSolution | None, U: float):
    """Warm start (mu, Delta0) for coupling U from the solution `prev`.

    The first-order tangent prediction (mu, Delta0) + (U - prev.U) prev.tangent,
    or prev's own (mu, Delta0) when prev has no tangent or the prediction
    leaves the linear regime: a predicted Delta0 outside (0.5, 2) x
    prev.Delta0, or a non-finite mu (far steps such as U -> 1e300 U_c would
    otherwise overflow the integrand).  None when prev is None.
    """
    if prev is None:
        return None
    if prev.tangent is not None:
        dU = U - prev.U
        mu = prev.mu + dU * prev.tangent[0]
        D = prev.Delta0 + dU * prev.tangent[1]
        if math.isfinite(mu) and 0.5 * prev.Delta0 < D < 2.0 * prev.Delta0:
            return mu, D
    return prev.mu, prev.Delta0


def solve_self_consistent(U: float, n: float, params: PhysicalParams, *,
                          tol_gap: float = 1e-10, tol_number: float = 1e-8,
                          initial_guess: tuple[float, float] | None = None) -> GapSolution:
    """Solve both equations for (mu, Delta0) at coupling U and density n.

    initial_guess (mu, Delta0) goes straight to the Newton polish, which
    sweeps exploit point to point; should the polish miss, the guess seeds
    a cold solve.  A cold solve runs the safeguarded Newton of _safe_newton
    on the density excess over the mu bracket (-E_b/2, inf), with lower end
    0 below U_c: the gap equation loses its positive solution exactly at
    mu = -E_b/2 (the two-body dissociation edge).  It starts at
    mu = -E_b/2 + eps_F (eps_F = params.fermi_energy(n)), steps toward the
    open upper end by at most half of scale = max(eps_F, eps0), and stops
    at a bracket 1e-6 scale wide.  Each probe solves the gap at fixed mu
    (_gap_at_mu) from the previous probe's gap moved along dDelta0/dmu, and
    one integral at that root gives the density and the slope dn/dmu.  The
    Newton polish starts from the search's root.  When the last probe found
    no resolved gap, the answer is instead the free gas (mu = eps_F,
    Delta0 = 0, residual_gap NaN), converged, with the note "gap below
    resolution".  A search that runs past _MAX_ITER iterations returns its
    last resolved probe, unconverged, with a note.  A converged solution
    with a resolved gap carries the tangent (dmu/dU, dDelta0/dU) of the
    solution branch, from which sweeps predict the next start.
    """
    if U <= 0 or n <= 0:
        raise ValueError("U and n must be positive")
    eps_F = params.fermi_energy(n)
    scale = max(eps_F, params.eps0)
    iterations = 0
    last = None  # (mu, Delta0, dDelta0/dmu) of the last probe with a resolved gap
    free = False  # whether the last probe found no resolved gap

    if initial_guess is not None:
        mu0, D0 = initial_guess
        if D0 > 0:
            mu, D, rg, rn, it, tangent = _newton_polish(mu0, D0, U, n, params, tol_gap,
                                                        tol_number)
            iterations += it
            if abs(rg) <= tol_gap and abs(rn) <= tol_number:
                return GapSolution(U, n, mu, D, rg, rn, iterations, True, tangent=tangent)
            last = (mu0, D0, 0.0)

    Eb = bound_state_energy(U, params)
    mu_lo = -0.5 * Eb * (1.0 - 1e-12) if Eb else 0.0

    def gap_near(mu):  # Delta0 at mu predicted from `last`, or None
        if last is None:
            return None
        D = last[1] + last[2] * (mu - last[0])
        return D if D > 0.0 else last[1]

    def excess(mu):
        """n(mu) - n at the gap of mu, and its total derivative dn/dmu."""
        nonlocal iterations, last, free
        if iterations > _MAX_ITER:
            raise RuntimeError("mu search exhausted the budget")
        D, its = _gap_at_mu(mu, U, params, gap_near(mu))
        iterations += its
        free = D == 0.0
        if free:  # the free gas: n = k_mu^3/(3 pi^2) with k_mu^2 = mu/(hbar^2/2m)
            k = math.sqrt(max(mu, 0.0) / params.half_hbar2_over_m)
            return k**3 / (3.0 * math.pi**2) - n, k / (2.0 * math.pi**2 * params.half_hbar2_over_m)
        iterations += 1
        r, J, _ = _residuals_and_jacobian(mu, D, U, n, params)
        # along the gap root dDelta0/dmu = -dr_gap/dmu / dr_gap/dDelta0, and
        # J[1] = -(d occ/dmu, d occ/dDelta0)/n
        last = (mu, D, -J[0, 0] / J[0, 1])
        return -n * r[1], -n * (J[1, 0] + J[1, 1] * last[2])

    try:
        mu, _ = _safe_newton(excess, mu_lo + eps_F, mu_lo, math.inf, 1e-6 * scale, _MAX_ITER,
                             cap=0.5 * scale)
    except QuadratureError:
        raise
    except RuntimeError:  # a budget of the search ran out: hand back its last gap
        mu, D = last[:2] if last else (mu_lo + eps_F, 0.0)
        return GapSolution(U, n, mu, D, np.nan, number_residual(D, mu, n, params), iterations,
                           False, "mu search exhausted the budget")
    if free:  # the free gas: the gap integral diverges at Delta0 = 0, mu > 0
        return GapSolution(U, n, eps_F, 0.0, np.nan, 0.0, iterations, True,
                           "gap below resolution")
    mu, D, rg, rn, it, tangent = _newton_polish(mu, gap_near(mu), U, n, params, tol_gap,
                                                tol_number)
    iterations += it
    conv = abs(rg) <= tol_gap and abs(rn) <= tol_number
    note = "" if conv else "tolerances not met within budget"
    return GapSolution(U, n, mu, D, rg, rn, iterations, conv, note,
                       tangent if conv else None)


def bound_state_energy(U: float, params: PhysicalParams) -> float | None:
    """Binding energy E_b >= 0 of the two-body problem, or None below threshold.

    E_b solves 1 = U * Integral d^3k/(2 pi)^3 Gamma^2/(2 eps_k + E_b), whose
    solution for the separable form factor is E_b = 2 eps0 (U/U_c - 1)^2 with
    U_c = critical_coupling(params).  Returns None for U < U_c, exactly 0.0
    at U = U_c (threshold) and the closed form above it.  Raises ValueError
    when E_b overflows the float range.
    """
    if not 0 < U < np.inf:
        raise ValueError("U must be positive and finite")
    Uc = critical_coupling(params)
    if U < Uc:
        return None
    with np.errstate(over="ignore"):
        try:
            Eb = 2.0 * params.eps0 * (U / Uc - 1.0) ** 2
        except OverflowError:  # Python floats raise where numpy scalars give inf
            Eb = np.inf
    if Eb == np.inf:
        raise ValueError(f"E_b is not representable at U/U_c = {U / Uc:g}")
    return Eb


def sweep_coupling(U_grid, n: float, params: PhysicalParams,
                   tol_gap: float = 1e-10, tol_number: float = 1e-8) -> list[GapSolution]:
    """Solve along a coupling grid, warm-starting each point from the last.

    Each warm start is the tangent prediction from the last converged point
    with a resolved gap (see _warm_start), so a warm point typically needs
    two or three Newton steps.  Failed points, including numeric failures
    (RuntimeError, ValueError), are recorded inline (converged = False)
    without aborting the sweep.
    """
    out = []
    last = None
    for U in np.asarray(U_grid, dtype=float):
        try:
            sol = solve_self_consistent(U, n, params, tol_gap=tol_gap, tol_number=tol_number,
                                        initial_guess=_warm_start(last, U))
        except (RuntimeError, ValueError) as exc:  # QuadratureError is a RuntimeError
            sol = _failed_solve(U, n, exc)
        out.append(sol)
        if sol.converged and sol.Delta0 > 0:
            last = sol
    return out


def locate_mu_zero(n: float, params: PhysicalParams,
                   tol_rel: float = 1e-6) -> tuple[float, GapSolution]:
    """The coupling in [0.5, 4] U_c at which mu changes sign, and the last solve.

    Safeguarded Newton on mu(U), with the tangent dmu/dU of each solve as
    the slope, from U = 2.25 U_c.  Each probe is a full self-consistent
    solve, warm-started from the tangent prediction of the previous one.
    Returns the midpoint of a bracket no wider than tol_rel U_c whose ends
    are solves with mu >= 0 below and mu <= 0 above; raises ValueError when
    no such bracket forms in [0.5, 4] U_c.
    """
    Uc = critical_coupling(params)
    last = None
    below, above = -math.inf, math.inf  # couplings solved with mu >= 0 and mu <= 0

    def minus_mu(U):
        nonlocal last, below, above
        sol = solve_self_consistent(U, n, params, initial_guess=_warm_start(last, U))
        if not sol.converged:
            raise RuntimeError(f"no converged solution at U/U_c = {U / Uc}")
        last = sol
        if sol.mu >= 0.0:
            below = max(below, U)
        if sol.mu <= 0.0:
            above = min(above, U)
        return -sol.mu, -sol.tangent[0] if sol.tangent else math.nan

    _safe_newton(minus_mu, 2.25 * Uc, 0.5 * Uc, 4.0 * Uc, tol_rel * Uc, _MAX_ITER)
    if above - below > tol_rel * Uc:
        raise ValueError("mu does not change sign on [0.5, 4] U_c")
    return 0.5 * (below + above), last
