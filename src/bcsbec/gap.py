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

Everything here is in natural units (eps0 = k0 = 1, so eps_k = k^2 and
U_c = 8 pi; see bcsbec.core): U in eps0/k0^3, n in k0^3, energies in eps0.

This module alone decides when a gap is unresolved: a gap at fixed mu
within a factor 2 of _GAP_FLOOR_REL eps0 counts as Delta0 = 0.  Deep in
the BCS regime the mean-field gap falls as (8/e^2) eps_F
exp(-pi/(2 k_F |a|)) (Leggett 1980) and soon drops below that floor.  When the search's last
probe has no resolved gap, the answer is the free gas in closed form:
mu = eps_F, Delta0 = 0, a number residual of 0, and a gap residual of NaN,
because the gap integral diverges at Delta0 = 0 for mu > 0.

Along a coupling sweep (bcsbec.diagram.sweep_coupling) each point is
warm-started from a first-order tangent prediction (Allgower & Georg,
Numerical Continuation Methods, 1990).  Since the gap residual depends on
U only through -U I_gap/2, the tangent (dmu/dU, dDelta0/dU) solves J t =
(I_gap/2, 0) with the Jacobian of the converged point, at no extra
integral.  locate_mu_zero runs the same safeguarded Newton on mu(U), with
dmu/dU from the tangent as the slope.

The two-body bound state solves 1 = U Integral Gamma^2/(2 eps_k + E_b); it
exists above the threshold coupling U_c and, for the separable form factor,
obeys the closed form E_b = (hbar^2 k0^2/m) (U/U_c - 1)^2 = 2 (U/U_c - 1)^2 eps0.
bound_state_energy returns that closed form; the tests check it against an
independent numerical root-find of the integral equation.  At zero gap and
mu < 0 the gap equation is the bound-state equation with E_b = -2 mu, so
for mu <= 0 it has a positive root exactly when mu > -E_b/2.

The BEC end has a closed form (the molecular limit of Leggett 1980 and
Nozieres & Schmitt-Rink 1985).  Let b = U/U_c - 1,
so E_b/2 = b^2, and nu = mu + E_b/2; then eps_k - mu = k^2 + b^2 - nu.
To first order in Delta0^2 and nu the occupancy is 1 - eps/xi =
Delta0^2 Gamma^2/(2 (k^2 + b^2)^2), and 1/xi = 1/(k^2 + b^2) + nu/(k^2 +
b^2)^2 - Delta0^2 Gamma^2/(2 (k^2 + b^2)^3).  The zeroth order of the gap
equation is the bound-state equation, so the two equations read

    n  = (Delta0^2/2) I2,      nu = (Delta0^2/2) I4/I2,

with I_p = Integral d^3k/(2 pi)^3 Gamma^p/(k^2 + b^2)^(p/2+1).  Both are
rational: from Integral_0^inf k^2 dk/((k^2 + 1)(k^2 + b^2)) = pi/(2(1+b))
and its derivatives in b^2, I2 = 1/(8 pi b (1+b)^2) and I4 = (1 + 4b)/(32
pi b^3 (1+b)^4).  Hence, as n -> 0

    Delta0 = sqrt(16 pi b (1+b)^2 n),   mu = -E_b/2 + 2 pi (1+4b) n/b,

and the solver's Delta0 and nu approach both forms with relative errors
linear in n.  A cold solve above U_c hands this pair to the Newton polish
as its first guess (_bec_seed) when that mu lies below eps_F, which no
mean-field mu exceeds; near the threshold or at high density, where the
expansion fails, the gate sends the solve straight to the search.  Deep on
the BEC side the polish returns the seed unchanged: there nu falls below
the rounding of mu, and the gap can fall below the resolution floor, so
the search, which brackets mu in absolute terms, cannot reach the root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import U_C, fermi_energy
from .quadrature import QuadratureError, radial_integral

__all__ = [
    "GapSolution",
    "gap_residual",
    "number_residual",
    "solve_self_consistent",
    "bound_state_energy",
    "locate_mu_zero",
]

# Delta0 below this many eps0 is treated as unresolved
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


def _pair_integrand(mu, Delta0, column=None):
    """Integrand without the radial weight: six columns, or only `column`.

    The columns are the gap g2/xi, the occupancy, and the closed-form
    derivatives d(g2/xi)/dmu = g2 eps/xi^3, d(g2/xi)/dDelta0 =
    -Delta0 g2^2/xi^3, d occ/dmu = y2/xi^3 and d occ/dDelta0 =
    eps Delta0 g2/xi^3 (eps = eps_k - mu, y2 = Delta0^2 g2).  The six
    columns are written into one (6, npts) buffer and returned as its
    transpose, so each column is contiguous.
    """
    D2 = Delta0 * Delta0

    def f(k):
        k2 = k**2
        eps = k2 - mu
        g2 = 1.0 / (1.0 + k2)
        y2 = D2 * g2
        xi = np.sqrt(eps * eps + y2)
        if column == 0:
            return g2 / xi
        out = np.empty((6, k.size))
        # occupancy 1 - eps/xi, in the cancellation-free form y2/(xi (xi +
        # eps)) where eps > 0; the floor on xi only matters at Delta0 = 0
        occ = out[1]
        np.maximum(xi, 1e-300, out=occ)
        np.divide(eps, occ, out=occ)
        np.subtract(1.0, occ, out=occ)
        np.divide(y2, xi * (xi + eps), out=occ, where=eps > 0.0)
        if column == 1:
            return occ
        np.divide(g2, xi, out=out[0])
        xi3 = xi * xi * xi
        np.multiply(g2, eps, out=out[2])
        np.multiply(g2, -Delta0, out=out[3])
        out[3] *= g2
        np.divide(y2, xi3, out=out[4])
        np.multiply(eps, Delta0, out=out[5])
        out[5] *= g2
        out[2:4] /= xi3
        out[5] /= xi3
        return out.T

    return f


_KNEES = (0.3, 1.0, 3.0, 10.0)
_PEAK_WIDTHS = (1.0, 3.0, 10.0, 30.0, 100.0)


def _breakpoints(mu, Delta0):
    """Panel seeds: the form-factor knee plus the near-Fermi-surface peak."""
    if not mu > 0:
        return _KNEES
    kmu = math.sqrt(mu)
    pts = [*_KNEES, kmu]
    local_gap = Delta0 / math.sqrt(1.0 + kmu**2)
    if local_gap > 0:
        dk = local_gap / (2.0 * kmu)
        for c in _PEAK_WIDTHS:
            pts += (kmu - c * dk, kmu + c * dk)
    return [p for p in pts if p > 0]


def _pair_integral(mu, Delta0, steer=None, column=None):
    """Radial integral of _pair_integrand(mu, Delta0, column).

    The first `steer` columns steer the refinement and the rest ride on
    their panels.  A single column is integrated on its own: adaptive
    refinement follows every column that steers it, so slicing a wider
    result would refine different panels and cost more integrand points,
    and the gap column diverges at Delta0 = 0, where the occupancy alone
    still has a finite integral.
    """
    return radial_integral(_pair_integrand(mu, Delta0, column),
                           breakpoints=_breakpoints(mu, Delta0), steer=steer)


def _residuals_and_jacobian(mu, Delta0, U, n):
    """Residuals (r_gap, r_number), their Jacobian in (mu, Delta0), and I_gap.

    One radial integral: the four derivative integrands ride on the panels
    that the gap and occupancy integrands choose (steer=2), so the residuals
    are bit-identical to those of a (gap, occupancy) integral alone.
    """
    gap, density, dgap_mu, dgap_d, docc_mu, docc_d = _pair_integral(mu, Delta0, steer=2)
    r = np.array([1.0 - 0.5 * U * gap, (n - density) / n])
    J = np.array([[-0.5 * U * dgap_mu, -0.5 * U * dgap_d],
                  [-docc_mu / n, -docc_d / n]])
    return r, J, gap


def gap_residual(Delta0: float, mu: float, U: float) -> float:
    """1 - (U/2) * gap integral; zero at self-consistency.

    Diverges (negative, via the log singularity at the Fermi surface) as
    Delta0 -> 0 with mu > 0; the quadrature reports non-convergence there.
    """
    if Delta0 < 0:
        raise ValueError("Delta0 must be nonnegative")
    if U <= 0:
        raise ValueError("U must be positive")
    return 1.0 - 0.5 * U * float(_pair_integral(mu, Delta0, column=0)[0])


def number_residual(Delta0: float, mu: float, n: float) -> float:
    """(n - computed density)/n; equals 1 exactly for an empty state."""
    if Delta0 < 0:
        raise ValueError("Delta0 must be nonnegative")
    if n <= 0:
        raise ValueError("density must be positive")
    return (n - float(_pair_integral(mu, Delta0, column=1)[0])) / n


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


def _gap_at_mu(mu, U, guess=None):
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
    floor = _GAP_FLOOR_REL
    edge = math.log(floor)  # the floor, then the highest failure
    top = math.inf  # the lowest x with r_gap > 0
    integrals = 0

    def r(x):
        nonlocal integrals, edge, top
        D = math.exp(x)
        integrals += 1
        try:
            vals = _pair_integral(mu, D, steer=1)
        except QuadratureError:
            if mu <= 0 or D >= 1e-4:
                raise
            edge, value, slope = x, -math.inf, math.nan
        else:
            value, slope = 1.0 - 0.5 * U * vals[0], -0.5 * U * D * vals[3]
            if value > 0.0:
                top = min(top, x)
        # a zero stops the iteration at x, within a factor 2 of the edge
        return (0.0, math.nan) if top - edge < _LOG2 else (value, slope)

    x0 = math.log(guess if guess is not None and guess > floor else 1.0)
    x, _ = _safe_newton(r, x0, edge, math.inf, _LOG_GAP_XTOL, _MAX_ITER, cap=_LOG_GAP_CAP)
    return (0.0 if x - edge < _LOG2 else math.exp(x)), integrals


def _newton_polish(mu, Delta0, U, n, tol_gap, tol_number):
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
    r, J, gap = _residuals_and_jacobian(mu, Delta0, U, n)
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
        r, J, gap = _residuals_and_jacobian(mu, Delta0, U, n)
    try:
        tangent = tuple(np.linalg.solve(J, [0.5 * gap, 0.0]))
    except np.linalg.LinAlgError:
        tangent = None
    return mu, Delta0, r[0], r[1], it, tangent


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


def _bec_seed(Eb, n, eps_F):
    """The molecular-limit (mu, Delta0) at binding energy Eb, or None.

    With b = sqrt(Eb/2) = U/U_c - 1, the closed forms mu = -Eb/2 + 2 pi
    (1 + 4b) n/b and Delta0 = sqrt(16 pi b n) (1 + b), exact as n -> 0
    (see the module docstring).  None below or at the threshold (Eb None
    or 0), and when the seed's mu is not below eps_F, which no mean-field
    solution exceeds.
    """
    if not Eb:
        return None
    b = math.sqrt(0.5 * Eb)
    mu = -0.5 * Eb + 2.0 * math.pi * (1.0 + 4.0 * b) * (n / b)
    if not mu < eps_F:
        return None
    return mu, math.sqrt(16.0 * math.pi * b * n) * (1.0 + b)


def solve_self_consistent(U: float, n: float, *,
                          tol_gap: float = 1e-10, tol_number: float = 1e-8,
                          initial_guess: tuple[float, float] | None = None) -> GapSolution:
    """Solve both equations for (mu, Delta0) at coupling U and density n.

    U is in eps0/k0^3 (U_c = core.U_C), n in k0^3; mu and Delta0 come back
    in eps0.  initial_guess (mu, Delta0) goes straight to the Newton
    polish, which sweeps exploit point to point; should the polish miss,
    the guess seeds a cold solve.  Without one, a solve above U_c takes the
    molecular limit as its guess, Delta0 = sqrt(16 pi b (1+b)^2 n) and mu
    = -E_b/2 + 2 pi (1+4b) n/b with b = U/U_c - 1, the first order of n =
    (Delta0^2/2) I2 and mu + E_b/2 = (Delta0^2/2) I4/I2 (see the module
    docstring), provided that mu lies below eps_F, which no mean-field mu
    exceeds; should its polish miss, it seeds the search just as a missed
    initial_guess does.  A cold solve runs the safeguarded Newton of
    _safe_newton on the density excess over the mu bracket (-E_b/2, inf),
    with lower end 0 below U_c: the gap equation loses its positive
    solution exactly at mu = -E_b/2 (the two-body dissociation edge).  It
    starts at mu = -E_b/2 + eps_F (eps_F = fermi_energy(n)), steps toward
    the open upper end by at most half of scale = max(eps_F, eps0), and
    stops at a bracket 1e-6 scale wide.  Each probe solves the gap at fixed
    mu (_gap_at_mu) from the previous probe's gap moved along dDelta0/dmu, and
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
    eps_F = fermi_energy(n)
    scale = max(eps_F, 1.0)
    iterations = 0
    last = None  # (mu, Delta0, dDelta0/dmu) of the last probe with a resolved gap
    free = False  # whether the last probe found no resolved gap

    Eb = bound_state_energy(U)
    if initial_guess is None:
        initial_guess = _bec_seed(Eb, n, eps_F)
    if initial_guess is not None:
        mu0, D0 = initial_guess
        if D0 > 0:
            mu, D, rg, rn, it, tangent = _newton_polish(mu0, D0, U, n, tol_gap, tol_number)
            iterations += it
            if abs(rg) <= tol_gap and abs(rn) <= tol_number:
                return GapSolution(U, n, mu, D, rg, rn, iterations, True, tangent=tangent)
            last = (mu0, D0, 0.0)

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
        D, its = _gap_at_mu(mu, U, gap_near(mu))
        iterations += its
        free = D == 0.0
        if free:  # the free gas: n = k_mu^3/(3 pi^2) with k_mu^2 = mu
            k = math.sqrt(max(mu, 0.0))
            return k**3 / (3.0 * math.pi**2) - n, k / (2.0 * math.pi**2)
        iterations += 1
        r, J, _ = _residuals_and_jacobian(mu, D, U, n)
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
        return GapSolution(U, n, mu, D, np.nan, number_residual(D, mu, n), iterations,
                           False, "mu search exhausted the budget")
    if free:  # the free gas: the gap integral diverges at Delta0 = 0, mu > 0
        return GapSolution(U, n, eps_F, 0.0, np.nan, 0.0, iterations, True,
                           "gap below resolution")
    mu, D, rg, rn, it, tangent = _newton_polish(mu, gap_near(mu), U, n, tol_gap, tol_number)
    iterations += it
    conv = abs(rg) <= tol_gap and abs(rn) <= tol_number
    note = "" if conv else "tolerances not met within budget"
    return GapSolution(U, n, mu, D, rg, rn, iterations, conv, note,
                       tangent if conv else None)


def bound_state_energy(U: float) -> float | None:
    """Binding energy E_b >= 0 of the two-body problem, or None below threshold.

    E_b solves 1 = U * Integral d^3k/(2 pi)^3 Gamma^2/(2 eps_k + E_b), whose
    solution for the separable form factor is E_b = 2 (U/U_c - 1)^2 with
    U_c = core.U_C.  Returns None for U < U_c, exactly 0.0
    at U = U_c (threshold) and the closed form above it.  Raises ValueError
    when E_b overflows the float range.
    """
    if not 0 < U < np.inf:
        raise ValueError("U must be positive and finite")
    if U < U_C:
        return None
    with np.errstate(over="ignore"):
        try:
            Eb = 2.0 * (U / U_C - 1.0) ** 2
        except OverflowError:  # Python floats raise where numpy scalars give inf
            Eb = np.inf
    if Eb == np.inf:
        raise ValueError(f"E_b is not representable at U/U_c = {U / U_C:g}")
    return Eb


def locate_mu_zero(n: float, tol_rel: float = 1e-6) -> tuple[float, GapSolution]:
    """The coupling in [0.5, 4] U_c at which mu changes sign, and the last solve.

    Safeguarded Newton on mu(U), with the tangent dmu/dU of each solve as
    the slope, from U = 2.25 U_c.  Each probe is a full self-consistent
    solve, warm-started from the tangent prediction of the previous one.
    Returns the midpoint of a bracket no wider than tol_rel U_c whose ends
    are solves with mu >= 0 below and mu <= 0 above; raises ValueError when
    no such bracket forms in [0.5, 4] U_c.
    """
    last = None
    below, above = -math.inf, math.inf  # couplings solved with mu >= 0 and mu <= 0

    def minus_mu(U):
        nonlocal last, below, above
        sol = solve_self_consistent(U, n, initial_guess=_warm_start(last, U))
        if not sol.converged:
            raise RuntimeError(f"no converged solution at U/U_c = {U / U_C}")
        last = sol
        if sol.mu >= 0.0:
            below = max(below, U)
        if sol.mu <= 0.0:
            above = min(above, U)
        return -sol.mu, -sol.tangent[0] if sol.tangent else math.nan

    _safe_newton(minus_mu, 2.25 * U_C, 0.5 * U_C, 4.0 * U_C, tol_rel * U_C, _MAX_ITER)
    if above - below > tol_rel * U_C:
        raise ValueError("mu does not change sign on [0.5, 4] U_c")
    return 0.5 * (below + above), last
