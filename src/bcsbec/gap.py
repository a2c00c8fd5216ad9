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

The density excess n(mu) - n is monotone in mu, so a cold solve finds its
root by Brent's method on the bracket (-E_b/2, mu_hi].  The lower end costs
no integral: at the dissociation edge the gap and the density vanish, so the
excess there is exactly -n.  Each probe solves the gap equation at fixed mu
by damped fixed-point steps (damping 0.5) that bracket the root of the
monotone gap residual, finished by Brent, seeded from the nearest earlier
probe with a resolved gap.  A 2D Newton polish with finite-difference
Jacobian, started from the probe whose density is nearest the target, then
drives both residuals to tolerance simultaneously.

The two-body bound state solves 1 = U Integral Gamma^2/(2 eps_k + E_b); it
exists above the threshold coupling U_c and, for the separable form factor,
obeys the closed form E_b = (hbar^2 k0^2/m) (U/U_c - 1)^2 = 2 eps0 (U/U_c - 1)^2.
bound_state_energy returns that closed form; the tests check it against an
independent numerical root-find of the integral equation.  The negative-mu
edge of the gap equation sits exactly at mu = -E_b/2, which supplies the
lower end of the mu bracket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import PhysicalParams, critical_coupling
from .quadrature import QuadratureSpec, QuadratureError, radial_integral

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
# every radial integral of the solver uses the default adaptive rule
_QUAD = QuadratureSpec()
# outer-search budget of a cold solve, counted in solver iterations
_MAX_ITER = 500


class _BudgetExhausted(Exception):
    """The mu search of a cold solve ran past _MAX_ITER iterations."""


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


def _pair_integrand(mu, Delta0, params: PhysicalParams, column=None):
    """Integrand (gap, occupancy) without the radial weight, or only `column`."""
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
        return np.stack([g2 / xi, occ], axis=1)

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


def _integrals(mu, Delta0, params, column=None):
    """Gap and occupancy integrals, or only the one picked by `column`.

    A single column is integrated on its own: adaptive refinement follows
    every component it is given, so slicing a two-column result would
    refine different panels and cost more integrand points.
    """
    vals, _, _ = radial_integral(
        _pair_integrand(mu, Delta0, params, column), _QUAD, k0=params.k0,
        breakpoints=_breakpoints(mu, Delta0, params),
    )
    return vals if column is None else float(vals[0])


def gap_residual(Delta0: float, mu: float, U: float, params: PhysicalParams) -> float:
    """1 - (U/2) * gap integral; zero at self-consistency.

    Diverges (negative, via the log singularity at the Fermi surface) as
    Delta0 -> 0 with mu > 0; the quadrature reports non-convergence there.
    """
    if Delta0 < 0:
        raise ValueError("Delta0 must be nonnegative")
    if U <= 0:
        raise ValueError("U must be positive")
    return 1.0 - 0.5 * U * _integrals(mu, Delta0, params, 0)


def number_residual(Delta0: float, mu: float, n: float, params: PhysicalParams) -> float:
    """(n - computed density)/n; equals 1 exactly for an empty state."""
    if Delta0 < 0:
        raise ValueError("Delta0 must be nonnegative")
    if n <= 0:
        raise ValueError("density must be positive")
    return (n - _integrals(mu, Delta0, params, 1)) / n


def _brentq(f, xa, xb, xtol, rtol, maxiter):
    """Root of f on [xa, xb] by Brent's method; returns (root, iterations).

    A step-for-step port of scipy.optimize.brentq (its brentq.c; Brent,
    Algorithms for Minimization without Derivatives, 1973, ch. 4), so the
    root and the iteration count are bit-equal to scipy's.  It stops once
    the bracket is narrower than xtol + rtol |root|.  Raises ValueError when
    f(xa) and f(xb) have the same sign or f returns NaN, and RuntimeError
    when maxiter steps do not converge.
    """
    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x!r} is NaN; Brent cannot continue")
        return fx

    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre, 0
    if fcur == 0.0:
        return xcur, 0
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    for iterations in range(1, maxiter + 1):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur, iterations

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"Brent's method did not converge in {maxiter} iterations")


def _delta_at_mu(mu, U, params, guess=None):
    """Solve the gap equation at fixed mu.

    Returns (Delta0, iterations).  Delta0 = 0 means no positive solution at
    this mu (at or below the pair-dissociation edge, where the residual at
    zero gap is already nonnegative) or a gap below the resolution floor.

    For mu > 0 the residual diverges to -inf as Delta0 -> 0+ (log
    singularity at the Fermi surface), so a positive root always exists and
    zero-gap probes are never attempted.  Damped fixed-point steps (map
    m(D) = D*(U/2)*I = D*(1 - r), damping 0.5) walk toward the root; once
    two iterates are available a secant step in log(D) accelerates the walk,
    and the first sign change hands a bracket to Brent.
    """
    scale = params.eps0
    floor = _GAP_FLOOR_REL * scale
    iters = 0

    def r(D):
        return gap_residual(D, mu, U, params)

    lo_pt = hi_pt = None
    if mu <= 0:
        r0 = r(0.0)
        iters += 1
        if r0 >= 0.0:
            return 0.0, iters
        lo_pt = (0.0, r0)

    if guess is not None and guess <= floor:
        guess = None
    D = scale if guess is None else guess
    prev = None
    for _ in range(80):
        try:
            rD = r(D)
        except QuadratureError:
            if mu > 0 and D < 1e-4 * scale:
                if guess is not None:
                    # a tiny seed can start below a gap of order eps0: walk
                    # once more from D = eps0 before calling it unresolved
                    D, its = _delta_at_mu(mu, U, params)
                    return D, iters + its
                # unresolvable Fermi-surface peak: gap below resolution
                return 0.0, iters
            raise
        iters += 1
        if abs(rD) <= 1e-13:
            # at the root to quadrature precision; Newton polish refines later
            return D, iters
        if rD > 0.0:
            if hi_pt is None or D < hi_pt[0]:
                hi_pt = (D, rD)
        else:
            if lo_pt is None or D > lo_pt[0]:
                lo_pt = (D, rD)
        if lo_pt is not None and hi_pt is not None and lo_pt[0] < hi_pt[0]:
            break
        if prev is not None and abs(D - prev[0]) <= 1e-14 * D:
            # one-sided convergence without a sign change
            return D, iters
        if prev is not None and prev[1] != rD and prev[0] > 0 and D > 0:
            x1, x2 = np.log(prev[0]), np.log(D)
            x3 = x2 - rD * (x2 - x1) / (rD - prev[1])
            Dn = np.exp(np.clip(x3, x2 - 5.0, x2 + 5.0))
        else:
            Dn = np.clip(D * (1.0 - 0.5 * rD), 0.25 * D, 4.0 * D)
        prev = (D, rD)
        D = max(Dn, floor)
        if mu > 0 and D <= floor:
            return 0.0, iters
    if lo_pt is None or hi_pt is None:
        raise RuntimeError("gap-equation bracketing failed at mu = %r" % mu)
    root, its = _brentq(r, lo_pt[0], hi_pt[0], xtol=floor * 1e-3, rtol=8.9e-16, maxiter=200)
    return root, iters + its


def _newton_polish(mu, Delta0, U, n, params, tol_gap, tol_number, max_steps=25):
    """2D Newton with finite-difference Jacobian on (mu, Delta0)."""
    scale = max(abs(mu), params.eps0)
    dscale = max(Delta0, 1e-3 * params.eps0)
    it = 0

    def residuals(mu, Delta0):
        gap, density = _integrals(mu, Delta0, params)
        return 1.0 - 0.5 * U * gap, (n - density) / n

    rg, rn = residuals(mu, Delta0)
    for _ in range(max_steps):
        it += 1
        if abs(rg) <= 0.05 * tol_gap and abs(rn) <= 0.05 * tol_number:
            break
        hm = 1e-6 * scale
        hd = 1e-6 * dscale
        rg_m, rn_m = residuals(mu + hm, Delta0)
        rg_d, rn_d = residuals(mu, Delta0 + hd)
        J = np.array([[(rg_m - rg) / hm, (rg_d - rg) / hd],
                      [(rn_m - rn) / hm, (rn_d - rn) / hd]])
        try:
            step = np.linalg.solve(J, -np.array([rg, rn]))
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
        rg, rn = residuals(mu, Delta0)
        scale = max(abs(mu), params.eps0)
        dscale = max(Delta0, 1e-3 * params.eps0)
    return mu, Delta0, rg, rn, it


def solve_self_consistent(U: float, n: float, params: PhysicalParams, *,
                          tol_gap: float = 1e-10, tol_number: float = 1e-8,
                          initial_guess: tuple[float, float] | None = None) -> GapSolution:
    """Solve both equations for (mu, Delta0) at coupling U and density n.

    The mu bracket is (-E_b/2, eps_F], with lower end 0 below U_c: the gap
    equation loses its positive solution exactly at mu = -E_b/2 (the
    two-body dissociation edge), and at mu = eps_F pairing overshoots the
    target density (should it not, the upper end moves up by half of
    scale = max(eps_F, eps0) until it does).  Brent's method on the density
    excess narrows the bracket to 1e-6 scale.  The excess at the lower end
    is -n in closed form; every probe is kept, each gap solve is seeded
    from the nearest probed mu with a resolved gap, and the Newton polish
    starts from the probe with the smallest |excess| among those with
    Delta0 > 0.  A search that runs past _MAX_ITER iterations returns an
    unconverged solution with a note.  initial_guess (mu, Delta0)
    short-circuits straight to the Newton polish when it already lies in the
    basin, which sweeps exploit point to point.
    """
    if U <= 0 or n <= 0:
        raise ValueError("U and n must be positive")
    eps_F = params.half_hbar2_over_m * (3.0 * np.pi**2 * n) ** (2.0 / 3.0)
    scale = max(eps_F, params.eps0)
    iterations = 0

    if initial_guess is not None:
        mu0, D0 = initial_guess
        if D0 > 0:
            mu, D, rg, rn, it = _newton_polish(mu0, D0, U, n, params, tol_gap, tol_number)
            iterations += it
            if abs(rg) <= tol_gap and abs(rn) <= tol_number:
                return GapSolution(U, n, mu, D, rg, rn, iterations, True)

    Eb = bound_state_energy(U, params)
    mu_lo = -0.5 * Eb * (1.0 - 1e-12) if Eb else 0.0
    # mu -> (density excess, Delta0).  At the dissociation edge mu_lo the gap
    # and the density vanish, so the excess there is -n without a probe.
    probes = {mu_lo: (-n, 0.0)}

    def excess(mu):
        nonlocal iterations
        if mu not in probes:
            if iterations > _MAX_ITER:
                raise _BudgetExhausted
            resolved = [m for m, (_, D) in probes.items() if D > 0]
            if resolved:  # seed from the nearest probe with a resolved gap
                seed = probes[min(resolved, key=lambda m: abs(m - mu))][1]
            else:
                seed = initial_guess[1] if initial_guess else None
            D, its = _delta_at_mu(mu, U, params, guess=seed)
            probes[mu] = (_integrals(mu, D, params, 1) - n, D)
            iterations += its + 1
        return probes[mu][0]

    mu_hi = eps_F
    try:
        while excess(mu_hi) < 0.0:
            mu_hi += 0.5 * scale
        root, _ = _brentq(excess, mu_lo, mu_hi, xtol=1e-6 * scale, rtol=8.9e-16,
                          maxiter=_MAX_ITER)
    except _BudgetExhausted:
        root = None
    # hand on the probe nearest the target density among those with a gap
    resolved = [(abs(e), m) for m, (e, D) in probes.items() if D > 0]
    if resolved:
        mu0 = min(resolved)[1]
    else:
        mu0 = mu_hi if root is None else root
    e0, D0 = probes[mu0]
    if root is None:
        return GapSolution(U, n, mu0, D0, np.nan, -e0 / n, iterations, False,
                           "mu search exhausted the budget")
    mu, D, rg, rn, it = _newton_polish(mu0, D0 or params.eps0, U, n, params, tol_gap,
                                       tol_number)
    iterations += it

    if D < _GAP_FLOOR_REL * params.eps0 * 10:
        conv = abs(rn) <= tol_number
        return GapSolution(U, n, mu, D, rg, rn, iterations, conv,
                           "gap below resolution")
    conv = abs(rg) <= tol_gap and abs(rn) <= tol_number
    note = "" if conv else "tolerances not met within budget"
    return GapSolution(U, n, mu, D, rg, rn, iterations, conv, note)


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

    Failed points, including numeric failures (RuntimeError, ValueError),
    are recorded inline (converged = False) without aborting the sweep.
    """
    out = []
    guess = None
    for U in np.asarray(U_grid, dtype=float):
        try:
            sol = solve_self_consistent(U, n, params, tol_gap=tol_gap,
                                        tol_number=tol_number, initial_guess=guess)
        except (RuntimeError, ValueError) as exc:  # QuadratureError is a RuntimeError
            sol = GapSolution(float(U), n, np.nan, np.nan, np.nan, np.nan, 0,
                              False, f"solver error: {exc}")
        out.append(sol)
        if sol.converged and sol.Delta0 > 0:
            guess = (sol.mu, sol.Delta0)
    return out


def locate_mu_zero(n: float, params: PhysicalParams,
                   tol_rel: float = 1e-6) -> tuple[float, GapSolution]:
    """Bisect the coupling in [0.5, 4] U_c at which mu changes sign.

    tol_rel is relative to U_c.  Each probe is a full self-consistent solve,
    warm-started from the previous one.
    """
    Uc = critical_coupling(params)
    lo, hi = 0.5 * Uc, 4.0 * Uc
    guess = None

    def mu_at(U):
        nonlocal guess
        sol = solve_self_consistent(U, n, params, initial_guess=guess)
        if not sol.converged:
            raise RuntimeError(f"no converged solution at U/U_c = {U / Uc}")
        guess = (sol.mu, sol.Delta0)
        return sol

    s_lo = mu_at(lo)
    s_hi = mu_at(hi)
    if s_lo.mu <= 0 or s_hi.mu >= 0:
        raise ValueError("mu does not change sign on [0.5, 4] U_c")
    sol_mid = s_hi
    while hi - lo > tol_rel * Uc:
        mid = 0.5 * (lo + hi)
        sol_mid = mu_at(mid)
        if sol_mid.mu > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), sol_mid
