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

Every cold solve is one 2D Newton polish in (mu, x = log Delta0) from a
closed-form seed, one integral per step: the residuals and their analytic
Jacobian come from three closed-form integrands that ride on the
panels of the residual integrands, so a slope costs no extra integral.
The seed is the molecular limit on the BEC side and the universal
crossover everywhere else (both below).  One-dimensional roots, the
crossover seed's and locate_mu_zero's, are found by one safeguarded
Newton iteration, _safe_newton: Newton steps kept inside a sign bracket,
bisecting when a step leaves it (rtsafe; Press et al., Numerical Recipes,
3rd ed., sec. 9.4).

Everything here is in natural units (eps0 = k0 = 1, so eps_k = k^2 and
U_c = 8 pi; see bcsbec.core): U in eps0/k0^3, n in k0^3, energies in eps0.

Every integral maps the quadrature at the integrand's one scale
(_pair_integral): k = k_mu + w sinh(s) at the Fermi surface for mu > 0,
with w the half width of the peak of 1/xi, and k = w sinh(s) with w =
sqrt(Delta0 - mu) for mu <= 0.  Gaps down to the floor below therefore
resolve at any mu > 0, and the deep BEC side integrates at its own scale,
near b k0 with b = U/U_c - 1.

This module alone decides when a gap is unresolved: a gap within a
factor 2 of _GAP_FLOOR_REL eps0 counts as Delta0 = 0.  Deep in the BCS
regime the mean-field gap falls as (8/e^2) eps_F exp(-pi/(2 k_F |a|))
(Leggett 1980) and soon drops below that floor.  The polish never steps
below it, and when no polish converges, one gap integral at mu = eps_F
and Delta0 = 2 _GAP_FLOOR_REL decides: r_gap >= 0 there puts the root
below the floor, and the answer is the free gas in closed form: mu =
eps_F, Delta0 = 0, a number residual of 0, and a gap residual of NaN,
because the gap integral diverges at Delta0 = 0 for mu > 0.

Along a coupling sweep (bcsbec.diagram.sweep_coupling) each point is
warm-started from a predictor (Allgower & Georg, Numerical Continuation
Methods, 1990).  Since the gap residual depends on U only through -U
I_gap/2, the tangent (dmu/dU, dDelta0/dU) solves J t = (I_gap/2, 0) with
the Jacobian of the converged point, at no extra integral.  Once two
converged points carry tangents, the prediction is the cubic Hermite
curve through both, at their actual U spacing; before that, or when the
cubic step fails the guard of _warm_start, it is the tangent line of the
last point.  locate_mu_zero runs the same safeguarded Newton on mu(U),
with dmu/dU from the tangent as the slope, and warm-starts each probe
from the tangent line of the last.

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
as its seed (_bec_seed) when that mu lies below eps_F; near the threshold
or at high density, where the expansion fails, the gate passes the solve
to the crossover seed.  The gate is a heuristic, not a bound: the
mean-field mu itself can exceed eps_F, by mu/eps_F - 1 = +8.7e-5 at
n = 0.2116, U = 0.677 U_c, with both residuals near 1e-14 (the tests pin
it); a probe of n in [0.01, 30] and U in [0.2, 4] U_c found mu > eps_F
at 1,091 of 3,080 points, none at k_F below 0.88 k0.  For k_F in
[0.31, 0.84] k0 and U in [0.5, 6] U_c, mu falls as U rises; for n in
[1e-3, 0.3] and U in [0.3, 6] U_c, Delta0 rises with U (both are
property tests).  At weaker gaps mu - eps_F is of order Delta0^2/eps_F,
below what the number tolerance resolves (mu reads 2.6e-11 eps_F above
eps_F at n = 3e-4, 0.375 U_c, with a number residual of 5e-11), and near
the gap floor below the rounding of mu, so the free-gas verdict's probe
at mu = eps_F does not lean on any bound.  Deep
on the BEC side the polish returns the seed unchanged: there nu falls
below the rounding of mu, and the seed's gap, exact there, can lie below
the resolution floor.

Every other cold solve takes its seed from the universal crossover
(_crossover_seed): the mean-field solution of the contact model, which
the separable model approaches as k_F -> 0, at the same 1/(k_F a) = (1 -
U_c/U)/k_F (Marini, Pistolesi & Strinati, Eur. Phys. J. B 1, 151
(1998)).  With x0 = mu/Delta it reads

    1/(k_F a) = -(2/pi) I1(x0) (2/(3 I2(x0)))^(1/3),
    Delta/eps_F = (2/(3 I2(x0)))^(2/3),

where I1 and I2 are closed forms in the complete elliptic integrals K
and E (_crossover_integrals), evaluated by the arithmetic-geometric mean
at no integral cost.  The first side falls monotonically in x0, so one
safeguarded root-find gives x0, and the seed is mu = x0 Delta, Delta0 =
Delta sqrt(1 + k_F^2).  Its distance from the model's root grows with
k_F, but on the benchmark grid, up to k_F = 1.4 k0, the polish from it
converges within 6 integrals.  The molecular seed stays wherever its gate
passes: deep on the BEC side the contact binding energy 2 (b/(1+b))^2
departs from the model's 2 b^2.  A root beyond the seed's bracket (x0
above sinh 40 = 1.2e17), or a seed gap within a factor 2 of the floor,
leaves the solve without a seed, and the free-gas integral decides it.
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
# evaluation budget of any safeguarded Newton
_MAX_ITER = 500
# step budget of one Newton polish, and the longest step it takes in log Delta0
_NEWTON_STEPS = 25
_LOG_GAP_CAP = 2.0
# the crossover seed: its root in t = asinh(mu/Delta) is sought in _SEED_T
# to a bracket _SEED_T_XTOL wide.  At the upper end Delta/mu is 8.5e-18,
# so a root above it leaves a gap below the floor unless eps_F exceeds 2e4
# eps0; such a root, like a seed Delta0 within a factor 2 of the floor,
# gives the solve no seed.
_SEED_T = (-20.0, 40.0)
_SEED_T_XTOL = 1e-10
# step cap of the arithmetic-geometric mean
_AGM_STEPS = 32


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
    # (dmu/dU, dDelta0/dU) along the solution branch at this point, solved
    # in closed form from the final Jacobian (gap._solve_2x2); None for an
    # unconverged solve, a gap below resolution or a Jacobian whose
    # determinant is 0 or not finite
    tangent: tuple[float, float] | None = None


def _pair_integrand(mu, Delta0, column=None, centre=0.0):
    """Integrand without the radial weight: five columns, or only `column`.

    The integrand takes offsets t = k - centre and forms eps_k - mu as t (t
    + 2 centre) + (centre^2 - mu), which carries no cancellation near the
    Fermi surface when centre = sqrt(mu).  The columns are the gap g2/xi,
    the occupancy, and three riders A = g2 eps/xi^3, B = g2^2/xi^3 and C =
    g2/xi^3 (eps = eps_k - mu), from which the closed-form derivatives
    follow by constant factors: d(g2/xi)/dmu = A, d(g2/xi)/dDelta0 =
    -Delta0 B, d occ/dmu = Delta0^2 C and d occ/dDelta0 = Delta0 A
    (`_residuals_and_jacobian`).  C is formed as (g2/xi) (1/xi)^2, from the
    gap column, and A and B as C eps and C g2; (1/xi)^2 underflows where
    xi^3 would overflow.  The five columns are written into one (5, npts)
    buffer and returned as its transpose, so each column is contiguous.
    """
    D2 = Delta0 * Delta0
    shift = centre * centre - mu

    def f(t):
        p = t * (t + 2.0 * centre)
        eps = p + shift
        g2 = 1.0 / (p + (1.0 + centre * centre))
        y2 = D2 * g2
        xi = np.sqrt(eps * eps + y2)
        if column == 0:
            return g2 / xi
        out = np.empty((5, t.size))
        # occupancy 1 - eps/xi, in the cancellation-free form y2/(xi (xi +
        # eps)) where eps > 0; the floor on xi only matters at Delta0 = 0
        occ = out[1]
        np.maximum(xi, 1e-300, out=occ)
        np.divide(eps, occ, out=occ)
        np.subtract(1.0, occ, out=occ)
        np.divide(y2, xi * (xi + eps), out=occ, where=eps > 0.0)
        if column == 1:
            return occ
        gap = np.divide(g2, xi, out=out[0])
        inv2 = np.reciprocal(xi, out=xi)
        inv2 *= inv2
        C = np.multiply(gap, inv2, out=out[4])
        np.multiply(C, eps, out=out[2])
        np.multiply(C, g2, out=out[3])
        return out.T

    return f


def _pair_integral(mu, Delta0, steer=None, column=None):
    """Radial integral of _pair_integrand(mu, Delta0, column).

    The quadrature maps the direct region onto k = c + w sinh(s) at the
    integrand's one scale.  For mu > 0 that is the Fermi surface: c =
    sqrt(mu) = k_mu and w = Delta0 Gamma(k_mu)/(2 k_mu), the half width of
    the peak of 1/xi, or w = k_mu at Delta0 = 0, where the occupancy steps
    at k_mu.  For mu <= 0 it is c = 0 and w = sqrt(Delta0 - mu) (1 when
    both vanish), about the momentum where k^2 overtakes -mu and Delta0
    and the integrands turn over.  The first
    `steer` columns steer the refinement and the rest ride on their
    panels.  A single column is integrated on its own: adaptive refinement
    follows every column that steers it, so slicing a wider result would
    refine different panels and cost more integrand points, and the gap
    column diverges at Delta0 = 0, where the occupancy alone still has a
    finite integral.
    """
    if mu > 0:
        centre = math.sqrt(mu)
        width = Delta0 / (2.0 * centre * math.sqrt(1.0 + mu)) if Delta0 > 0 else centre
    else:
        centre, width = 0.0, math.sqrt(Delta0 - mu) or 1.0
    return radial_integral(_pair_integrand(mu, Delta0, column, centre),
                           peak=(centre, width), steer=steer)


def _residuals_and_jacobian(mu, Delta0, U, n):
    """Residuals r = (r_gap, r_number), their Jacobian J in (mu, Delta0), and I_gap.

    One radial integral: the three rider integrands A, B and C of
    `_pair_integrand` ride on the panels that the gap and occupancy
    integrands choose (steer=2), so the residuals are bit-identical to
    those of a (gap, occupancy) integral alone.  J = ((-U A/2, U Delta0
    B/2), (-Delta0^2 C/n, -Delta0 A/n)), the four derivatives of the
    residuals from three integrals.  r is a 2-tuple and J a nested 2x2
    tuple of Python floats, ready for `_solve_2x2`.
    """
    gap, density, A, B, C = _pair_integral(mu, Delta0, steer=2).tolist()
    r = (1.0 - 0.5 * U * gap, (n - density) / n)
    J = ((-0.5 * U * A, 0.5 * U * Delta0 * B),
         (-Delta0 * Delta0 * C / n, -Delta0 * A / n))
    return r, J, gap


def _solve_2x2(J, rhs):
    """The solution of J x = rhs for a nested 2x2 J, by Cramer's rule, or None.

    x = ((e d - b f)/det, (a f - e c)/det) for J = ((a, b), (c, d)), rhs
    = (e, f) and det = a d - b c.  For n = 2 Cramer's rule is forward
    stable (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    ed., 2002, sec. 1.10.1): its error is of the size that the backward
    stable LU solve of numpy.linalg.solve makes.  None where det is 0 or
    not finite, which covers every J at which numpy.linalg.solve raises
    LinAlgError.  det is formed unscaled, so a J whose products a d and b
    c both underflow reads as singular too.
    """
    (a, b), (c, d) = J
    e, f = rhs
    det = a * d - b * c
    if not (det != 0.0 and math.isfinite(det)):
        return None
    return (e * d - b * f) / det, (a * f - e * c) / det


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


def _safe_newton(f, x, lo, hi, xtol, budget):
    """Root of an increasing f, (value, slope) = f(x), in the sign bracket (lo, hi).

    rtsafe (Press et al., Numerical Recipes, 3rd ed., 2007, sec. 9.4): each
    evaluation moves the end of its sign to x, and a Newton step that
    leaves the bracket, or has a zero or NaN slope, becomes a bisection.
    Both ends are finite.  Steps shorter than xtol/2 are lengthened to xtol/2, so the bracket
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
            new = 0.5 * (lo + hi)
        if hi - lo <= xtol:
            return new, evals
        if abs(new - x) < 0.5 * xtol:
            new = x + math.copysign(0.5 * xtol, -fx)
        x = new
    raise RuntimeError(f"no root within {budget} evaluations")


def _newton_polish(mu, Delta0, U, n, tol_gap, tol_number):
    """2D Newton on (mu, x = log Delta0) with the analytic Jacobian.

    Each step costs one radial integral, which yields the residuals and
    their Jacobian together (`_residuals_and_jacobian`).  The x column of
    the Jacobian is Delta0 times its Delta0 column, so the x step is the
    Delta0 step over Delta0.  On the BCS side r_gap is about a + b x,
    so the step in x lands near the root where a step in Delta0 would
    overshoot.  The x step is at most _LOG_GAP_CAP long.  Both the step
    and the tangent below are solved in closed form by Cramer's rule on
    Python floats (`_solve_2x2`), with no numpy call outside the integral.
    Stops once |r_gap| <= 0.05 tol_gap and |r_number| <= 0.05 tol_number,
    after _NEWTON_STEPS steps, on a singular Jacobian (`_solve_2x2`
    returns None: det is 0 or not finite), before a step to a gap within a
    factor 2 of the floor _GAP_FLOOR_REL or to a mu that is not finite,
    or when the integral after a step fails; it then returns the point
    before that step.  Returns (mu, Delta0, r_gap, r_number, integrals,
    tangent), where integrals counts every integral taken, a failed one
    too.  tangent = (dmu/dU, dDelta0/dU) at the final point solves J t =
    (I_gap/2, 0) in (mu, Delta0), because dr_gap/dU = -I_gap/2; it costs
    no integral, and it is None when J is singular there.
    """
    floor = math.log(2.0 * _GAP_FLOOR_REL)
    it = 1
    r, J, gap = _residuals_and_jacobian(mu, Delta0, U, n)
    for _ in range(_NEWTON_STEPS):
        if abs(r[0]) <= 0.05 * tol_gap and abs(r[1]) <= 0.05 * tol_number:
            break
        step = _solve_2x2(J, (-r[0], -r[1]))
        if step is None:
            break
        new_mu = mu + step[0]
        x = math.log(Delta0) + min(max(step[1] / Delta0, -_LOG_GAP_CAP), _LOG_GAP_CAP)
        if not (x >= floor and math.isfinite(new_mu)):
            break
        new_D = math.exp(x)
        it += 1
        try:
            r, J, gap = _residuals_and_jacobian(new_mu, new_D, U, n)
        except QuadratureError:
            break
        mu, Delta0 = new_mu, new_D
    return mu, Delta0, r[0], r[1], it, _solve_2x2(J, (0.5 * gap, 0.0))


def _hermite(before: GapSolution, last: GapSolution, U: float):
    """Cubic Hermite extrapolation of (mu, Delta0) to U through two solutions.

    With h = last.U - before.U and t = (U - before.U)/h, each of mu and
    Delta0 is h00 y_before + h10 h y'_before + h01 y_last + h11 h y'_last,
    the standard Hermite basis times the values and tangents of both
    points.  Runs on Python floats, which overflow to inf without a
    warning.
    """
    h = float(last.U) - float(before.U)
    t = (float(U) - float(before.U)) / h
    s = t - 1.0
    h00, h10, h01, h11 = (1.0 + 2.0 * t) * s * s, t * s * s, t * t * (1.0 - 2.0 * s), t * t * s
    return tuple(h00 * float(a) + h10 * h * float(da) + h01 * float(b) + h11 * h * float(db)
                 for a, da, b, db in zip((before.mu, before.Delta0), before.tangent,
                                         (last.mu, last.Delta0), last.tangent))


def _warm_start(last: GapSolution | None, U: float, before: GapSolution | None = None):
    """Warm start (mu, Delta0) for coupling U from the solution `last`.

    When `before`, an earlier solution at another coupling, and `last` both
    carry tangents, the cubic Hermite prediction through both (_hermite;
    Allgower & Georg, Numerical Continuation Methods, 1990); otherwise, or
    when that prediction fails the guard below, the first-order tangent
    prediction (mu, Delta0) + (U - last.U) last.tangent.  The guard rejects
    a predicted Delta0 outside (0.5, 2) x last.Delta0 and a non-finite mu
    (far steps such as U -> 1e300 U_c would otherwise overflow the
    integrand).  Falls back to last's own (mu, Delta0) when last has no
    tangent or neither prediction passes.  None when last is None.
    """
    if last is None:
        return None
    if last.tangent is None:
        return last.mu, last.Delta0
    predictions = [(last.mu + (U - last.U) * last.tangent[0],
                    last.Delta0 + (U - last.U) * last.tangent[1])]
    if before is not None and before.tangent is not None and before.U != last.U:
        predictions.insert(0, _hermite(before, last, U))
    for mu, D in predictions:
        if math.isfinite(mu) and 0.5 * last.Delta0 < D < 2.0 * last.Delta0:
            return mu, D
    return last.mu, last.Delta0


def _bec_seed(Eb, n, eps_F):
    """The molecular-limit (mu, Delta0) at binding energy Eb, or None.

    With b = sqrt(Eb/2) = U/U_c - 1, the closed forms mu = -Eb/2 + 2 pi
    (1 + 4b) n/b and Delta0 = sqrt(16 pi b n) (1 + b), exact as n -> 0
    (see the module docstring).  None below or at the threshold (Eb None
    or 0), and when the seed's mu is not below eps_F, where the expansion
    has failed; this gate is a heuristic, since a mean-field mu can
    exceed eps_F slightly (see the module docstring).
    """
    if not Eb:
        return None
    b = math.sqrt(0.5 * Eb)
    mu = -0.5 * Eb + 2.0 * math.pi * (1.0 + 4.0 * b) * (n / b)
    if not mu < eps_F:
        return None
    return mu, math.sqrt(16.0 * math.pi * b * n) * (1.0 + b)


def _elliptic_k_s(m, m1):
    """K(m) and s = 1 - E(m)/K(m) by the arithmetic-geometric mean.

    m1 = 1 - m comes separately, so that it keeps its precision as m -> 1.
    K = pi/(2 AGM(1, sqrt(m1))) and s = sum_j 2^(j-1) c_j^2 with c_0^2 = m
    (Abramowitz & Stegun 17.6).  The loop stops once c_j is below 1e-9
    a_j, where the next term is below rounding, and after _AGM_STEPS steps
    at most: a tighter test can miss forever when a_j and b_j settle a unit
    in the last place apart.  s carries no cancellation as m -> 0.
    """
    a, b = 1.0, math.sqrt(m1)
    s, w = 0.5 * m, 0.5
    for _ in range(_AGM_STEPS):
        c = 0.5 * (a - b)
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        w += w
        s += w * c * c
        if c <= 1e-9 * a:
            break
    return 0.5 * math.pi / a, s


def _crossover_integrals(x0):
    """I1 and I2 of the contact-model mean-field crossover at x0 = mu/Delta.

    I1 = Int_0^inf x^2 (1/sqrt((x^2 - x0)^2 + 1) - 1/x^2) dx and I2 =
    Int_0^inf x^2 (1 - (x^2 - x0)/sqrt((x^2 - x0)^2 + 1)) dx, in closed
    form (Marini, Pistolesi & Strinati, Eur. Phys. J. B 1, 151 (1998)):
    with r = sqrt(1 + x0^2) and m = (1 + x0/r)/2, I1 = r^(1/2) (K - 2E)
    and I2 = r^(1/2) ((r - x0) K + 2 x0 E)/3.  Written with s = 1 - E/K
    and r -/+ x0, whose product is 1, neither loses precision at large
    |x0|.
    """
    r = math.hypot(1.0, x0)
    below, above = (1.0 / (r + x0), r + x0) if x0 > 0 else (r - x0, 1.0 / (r - x0))
    K, s = _elliptic_k_s(0.5 * above / r, 0.5 * below / r)
    scale = math.sqrt(r) * K
    return scale * (2.0 * s - 1.0), scale * (below * s + above * (1.0 - s)) / 3.0


def _crossover_seed(U, n, eps_F):
    """The universal crossover's (mu, Delta0) at U and n, or None.

    The contact-model mean-field crossover at the same 1/(k_F a) = (1 -
    U_c/U)/k_F, k_F = sqrt(eps_F) (see the module docstring): x0 = mu/Delta
    solves -(2/pi) I1 (2/(3 I2))^(1/3) = 1/(k_F a) (_crossover_integrals),
    and Delta/eps_F = (2/(3 I2))^(2/3).  The seed is mu = x0 Delta and
    Delta0 = Delta sqrt(1 + k_F^2), which undoes the form factor at k_F.
    The left side falls monotonically in t = asinh x0, where a safeguarded
    secant (_safe_newton, with the slope through the last two evaluations)
    finds the root in _SEED_T.  None when the root lies outside _SEED_T or
    the seed's Delta0 is within a factor 2 of the floor _GAP_FLOOR_REL.
    """
    inverse_kfa = (1.0 - U_C / U) / math.sqrt(eps_F)
    last = []

    def excess(t):  # increasing in t
        I1, I2 = _crossover_integrals(math.sinh(t))
        value = inverse_kfa + 2.0 / math.pi * I1 * (2.0 / (3.0 * I2)) ** (1.0 / 3.0)
        slope = (value - last[1]) / (t - last[0]) if last else math.nan
        last[:] = t, value
        return value, slope

    lo, hi = _SEED_T
    if not excess(lo)[0] < 0.0 < excess(hi)[0]:
        return None
    t, _ = _safe_newton(excess, 0.0, lo, hi, _SEED_T_XTOL, _MAX_ITER)
    x0 = math.sinh(t)
    Delta = (2.0 / (3.0 * _crossover_integrals(x0)[1])) ** (2.0 / 3.0) * eps_F
    Delta0 = Delta * math.sqrt(1.0 + eps_F)
    if not Delta0 > 2.0 * _GAP_FLOOR_REL:
        return None
    return x0 * Delta, Delta0


def solve_self_consistent(U: float, n: float, *,
                          tol_gap: float = 1e-10, tol_number: float = 1e-8,
                          initial_guess: tuple[float, float] | None = None) -> GapSolution:
    """Solve both equations for (mu, Delta0) at coupling U and density n.

    U is in eps0/k0^3 (U_c = core.U_C), n in k0^3; mu and Delta0 come back
    in eps0.  Each guess (mu, Delta0) goes to the Newton polish: first
    initial_guess, which sweeps pass point to point, then the cold seed.
    A guess whose mu is not finite, or whose Delta0 is not finite and
    positive, is skipped.
    Above U_c that is the molecular limit, Delta0 = sqrt(16 pi b (1+b)^2
    n) and mu = -E_b/2 + 2 pi (1+4b) n/b with b = U/U_c - 1, the first
    order of n = (Delta0^2/2) I2 and mu + E_b/2 = (Delta0^2/2) I4/I2 (see
    the module docstring), provided that mu lies below eps_F (a heuristic
    gate: the mean-field mu can exceed eps_F, see the module docstring).
    Any other solve takes the universal crossover
    at 1/(k_F a) = (1 - U_c/U)/k_F (_crossover_seed), unless its gap lies
    within a factor 2 of the floor.  A converged solution with a resolved
    gap carries the tangent (dmu/dU, dDelta0/dU) of the solution branch,
    from which sweeps predict the next start.

    When every polish misses, one gap integral at mu = eps_F (eps_F =
    fermi_energy(n)) and Delta0 = 2 _GAP_FLOOR_REL decides.  For mu > 0
    r_gap rises with Delta0, so r_gap >= 0 there puts any root below the
    floor: the answer is the free gas (mu = eps_F, Delta0 = 0, residual_gap
    NaN), converged, with the note "gap below resolution".  Otherwise the
    last polish point comes back unconverged, with the note "tolerances
    not met within budget".
    """
    if U <= 0 or n <= 0:
        raise ValueError("U and n must be positive")
    eps_F = fermi_energy(n)
    Eb = bound_state_energy(U)
    iterations = 0
    # handed back, unconverged, should no guess reach the polish
    mu, D, rg, rn = eps_F, 2.0 * _GAP_FLOOR_REL, np.nan, np.nan

    def guesses():  # the cold seed only once the warm guess has missed
        yield initial_guess
        yield _bec_seed(Eb, n, eps_F) or _crossover_seed(U, n, eps_F)

    for guess in guesses():
        if guess is None or not (math.isfinite(guess[0]) and 0.0 < guess[1] < math.inf):
            continue
        mu, D, rg, rn, it, tangent = _newton_polish(*guess, U, n, tol_gap, tol_number)
        iterations += it
        if abs(rg) <= tol_gap and abs(rn) <= tol_number:
            return GapSolution(U, n, mu, D, rg, rn, iterations, True, tangent=tangent)
    iterations += 1
    if gap_residual(2.0 * _GAP_FLOOR_REL, eps_F, U) >= 0.0:
        # the free gas: the gap integral diverges at Delta0 = 0, mu > 0
        return GapSolution(U, n, eps_F, 0.0, np.nan, 0.0, iterations, True,
                           "gap below resolution")
    return GapSolution(U, n, mu, D, rg, rn, iterations, False, "tolerances not met within budget")


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
