"""Gap/number self-consistency against an independent dense-grid oracle.

The oracle discretizes the radial integrals with Simpson's rule on the
compactified variable u = k/(1+k), entirely separate from the adaptive
Gauss-Legendre machinery under test.  The u -> 1 endpoint of the gap
integrand tends to 1/(2 pi^2) (k^2 * Gamma^2/xi * (1+k)^2 -> 1), not zero;
the occupancy integrand does vanish there (it falls off as Delta^2/(2k^6)).
The same grid, with a Brent root-find, solves the two-body bound-state
equation as the oracle for the closed form that bound_state_energy returns.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, simpson
from scipy.optimize import brentq
from scipy.special import ellipe, ellipk, ellipkm1

import bcsbec.gap
from bcsbec.core import U_C, fermi_energy
from bcsbec.gap import (
    GapSolution,
    _bec_seed,
    _crossover_integrals,
    _crossover_seed,
    _elliptic_k_s,
    _hermite,
    _newton_polish,
    _pair_integral,
    _pair_integrand,
    _residuals_and_jacobian,
    _safe_newton,
    _solve_2x2,
    _warm_start,
    bound_state_energy,
    gap_residual,
    locate_mu_zero,
    number_residual,
    solve_self_consistent,
)
from bcsbec.cli import main as cli_main
from bcsbec.diagram import sweep_coupling
from bcsbec.quadrature import QuadratureError

# Self-consistent point at U = 2 U_c, n = 2e-2 (dimensionless units),
# solved independently on the Simpson grid below.
FROZEN_MU = -0.457351139644298
FROZEN_DELTA0 = 2.019237938536957
REFERENCE_N = 2e-2


def simpson_residuals(mu, Delta0, U, n, intervals=2**20):
    """(gap, number) residuals on a dense compactified Simpson grid."""
    u = np.linspace(0.0, 1.0, intervals + 1)
    uu = u[:-1]
    k = uu / (1.0 - uu)
    jac = 1.0 / (1.0 - uu) ** 2
    eps = k * k - mu
    g2 = 1.0 / (1.0 + k * k)
    y2 = Delta0 * Delta0 * g2
    xi = np.sqrt(eps * eps + y2)

    gap = np.empty(intervals + 1)
    gap[:-1] = k * k * (g2 / xi) * jac
    gap[-1] = 1.0  # analytic u -> 1 limit
    with np.errstate(invalid="ignore", divide="ignore"):
        occ = np.where(eps > 0.0, y2 / (xi * (xi + eps)), 1.0 - eps / np.maximum(xi, 1e-300))
    num = np.empty(intervals + 1)
    num[:-1] = k * k * occ * jac
    num[-1] = 0.0

    h = 1.0 / intervals
    gap_integral = simpson(gap, dx=h) / (2.0 * np.pi**2)
    num_integral = simpson(num, dx=h) / (2.0 * np.pi**2)
    return 1.0 - 0.5 * U * gap_integral, (n - num_integral) / n


def simpson_bound_state(U, intervals=2**14):
    """Root E_b of 1 = U Integral d^3k/(2 pi)^3 Gamma^2/(2 eps_k + E_b).

    The integral runs on the compactified grid k = u/(1-u); the u -> 1
    endpoint of the integrand tends to 1/2.
    """
    u = np.linspace(0.0, 1.0, intervals + 1)[:-1]
    k = u / (1.0 - u)
    weight = k * k / (1.0 + k * k) / (1.0 - u) ** 2

    def resid(E_b):
        f = np.append(weight / (2.0 * k * k + E_b), 0.5)
        return 1.0 - U * simpson(f, dx=1.0 / intervals) / (2.0 * np.pi**2)

    lo = hi = 1.0
    while resid(lo) > 0.0:
        lo *= 0.25
    while resid(hi) < 0.0:
        hi *= 4.0
    return brentq(resid, lo, hi, xtol=1e-15, rtol=4 * np.finfo(float).eps)


@pytest.fixture(scope="module")
def reference_solution():
    return solve_self_consistent(2.0 * U_C, REFERENCE_N)


def test_solver_matches_frozen_oracle_values(reference_solution):
    sol = reference_solution
    assert sol.converged
    assert abs(sol.mu - FROZEN_MU) <= 1e-10
    assert abs(sol.Delta0 - FROZEN_DELTA0) <= 1e-10


def test_dense_grid_residuals_at_solution(reference_solution):
    sol = reference_solution
    U = 2.0 * U_C
    r_gap, r_num = simpson_residuals(sol.mu, sol.Delta0, U, REFERENCE_N)
    assert abs(r_gap) <= 1e-10
    assert abs(r_num) <= 1e-10


def test_reported_residuals_meet_tolerances(reference_solution):
    sol = reference_solution
    assert abs(sol.residual_gap) <= 1e-10
    assert abs(sol.residual_number) <= 1e-8


def test_bound_state_closed_form():
    # the closed form E_b = 2 eps0 (U/U_c - 1)^2 solves the bound-state equation
    for ratio in (1.5, 2.0, 3.0):
        eb = bound_state_energy(ratio * U_C)
        assert eb == pytest.approx(simpson_bound_state(ratio * U_C), rel=1e-10)


def test_bound_state_threshold():
    # the threshold is exact, not a rounding residue
    assert bound_state_energy(U_C) == 0.0
    assert bound_state_energy(0.5 * U_C) is None
    with pytest.raises(ValueError):
        bound_state_energy(-1.0)


def test_mu_sits_above_the_pair_dissociation_edge(reference_solution):
    # the many-body mu lies between -E_b/2 (where the gap equation loses
    # its solution) and zero on the molecular side
    sol = reference_solution
    eb = bound_state_energy(sol.U)
    assert sol.mu < 0.0
    assert sol.mu > -0.5 * eb


def test_sweep_monotone():
    ratios = np.linspace(0.5, 4.0, 8)
    sols = sweep_coupling(ratios * U_C, REFERENCE_N)
    assert all(s.converged for s in sols)
    deltas = [s.Delta0 for s in sols]
    mus = [s.mu for s in sols]
    assert all(b > a for a, b in zip(deltas, deltas[1:]))
    assert all(b < a for a, b in zip(mus, mus[1:]))


def test_mean_field_mu_can_exceed_eps_F():
    # the mean-field mu is not bounded by eps_F: here mu/eps_F - 1 = +8.7e-5,
    # far above what the residuals allow, and at 0.474 U_c it is +2.3e-6
    n = 0.2116
    sol = solve_self_consistent(0.677 * U_C, n)
    assert sol.converged and sol.note == ""
    assert 8.5e-5 < sol.mu / fermi_energy(n) - 1.0 < 9.0e-5
    # both equations hold at that (mu, Delta0) on the independent grid too
    gap, number = simpson_residuals(sol.mu, sol.Delta0, sol.U, n)
    assert abs(gap) < 1e-9 and abs(number) < 1e-9
    assert solve_self_consistent(0.474 * U_C, n).mu > fermi_energy(n)


# The dilute domain: k_F = (3 pi^2 n)^(1/3) in [0.31, 0.84] k0, below the
# 0.88 k0 where a probe first found mu above eps_F.  Weaker gaps (below
# U = 0.5 U_c at n = 1e-3) are left out: there the fall of mu over a 1% step
# in U nears what the number tolerance resolves in mu.
@settings(max_examples=60, deadline=None)
@given(log_n=st.floats(-3.0, math.log10(0.02)), ratio=st.floats(0.5, 6.0),
       log_step=st.floats(-2.0, 0.0))
@example(log_n=-3.0, ratio=0.5, log_step=-2.0)
@example(log_n=math.log10(0.02), ratio=0.5, log_step=-2.0)
def test_mu_falls_as_the_coupling_rises_in_the_dilute_gas(log_n, ratio, log_step):
    n = 10.0**log_n
    weak = solve_self_consistent(ratio * U_C, n)
    strong = solve_self_consistent(ratio * (1.0 + 10.0**log_step) * U_C, n)
    assert weak.converged and strong.converged
    assert strong.mu < weak.mu


@settings(max_examples=60, deadline=None)
@given(log_n=st.floats(-3.0, math.log10(0.3)), ratio=st.floats(0.3, 6.0),
       log_step=st.floats(-3.0, 0.0))
@example(log_n=-3.0, ratio=0.3, log_step=-3.0)
@example(log_n=math.log10(0.2116), ratio=0.474, log_step=math.log10(0.677 / 0.474 - 1.0))
def test_gap_rises_with_the_coupling(log_n, ratio, log_step):
    n = 10.0**log_n
    weak = solve_self_consistent(ratio * U_C, n)
    strong = solve_self_consistent(ratio * (1.0 + 10.0**log_step) * U_C, n)
    assert weak.converged and strong.converged
    assert strong.Delta0 > weak.Delta0 > 0.0


def test_locate_mu_zero():
    u_star, sol = locate_mu_zero(REFERENCE_N, tol_rel=1e-4)
    assert abs(u_star / U_C - 1.74445063) <= 5e-4
    assert sol.converged
    # at n = 1 mu stays positive up to 4 U_c: no bracket forms
    with pytest.raises(ValueError, match="does not change sign"):
        locate_mu_zero(1.0)


def test_free_gas_density_at_zero_gap():
    # Delta0 = 0, mu = eps_F reproduces the free-gas density exactly: the
    # occupancy steps at k_mu, which is a panel edge
    for n in (1e-4, REFERENCE_N):
        assert abs(number_residual(0.0, fermi_energy(n), n)) <= 1e-15


def test_gap_residual_monotone_in_delta(reference_solution):
    sol = reference_solution
    low = gap_residual(0.5 * sol.Delta0, sol.mu, sol.U)
    high = gap_residual(2.0 * sol.Delta0, sol.mu, sol.U)
    assert low < 0.0 < high


def test_warm_start_short_circuit(reference_solution):
    sol = reference_solution
    again = solve_self_consistent(
        sol.U, REFERENCE_N, initial_guess=(sol.mu, sol.Delta0)
    )
    assert again.converged
    assert again.iterations <= 10
    assert again.mu == pytest.approx(sol.mu, abs=1e-10)


@settings(max_examples=15, deadline=None)
@given(ratio=st.floats(0.5, 4.0), n=st.floats(0.003, 0.1))
def test_warm_start_equals_cold_start(ratio, n):
    # the warm solve at U starts from the cold solution at 1.02 U
    U = ratio * U_C
    near = solve_self_consistent(1.02 * U, n)
    warm = solve_self_consistent(U, n, initial_guess=(near.mu, near.Delta0))
    cold = solve_self_consistent(U, n)
    assert near.converged and warm.converged and cold.converged
    eps_f = fermi_energy(n)
    assert abs(warm.mu - cold.mu) <= 1e-8 * eps_f
    assert abs(warm.Delta0 - cold.Delta0) <= 1e-8 * cold.Delta0


def _close(sol, ref):
    """Whether sol matches ref: mu within 1e-8 max(|mu|, eps_F), Delta0 within 1e-8."""
    return (abs(sol.mu - ref.mu) <= 1e-8 * max(abs(ref.mu), fermi_energy(ref.n))
            and abs(sol.Delta0 - ref.Delta0) <= 1e-8 * ref.Delta0)


@pytest.mark.parametrize("ratios, n", [
    (np.linspace(0.5, 4.0, 30), 0.003),
    (np.linspace(0.5, 4.0, 30), 0.02),
    (np.linspace(0.5, 4.0, 30), 0.1),
    # non-uniform spacing: the Hermite prediction uses the actual U steps
    (0.5 + 3.5 * np.linspace(0.0, 1.0, 25) ** 2, 0.02),
    (np.sort(np.concatenate([np.geomspace(0.5, 4.0, 12), [0.97, 1.0, 1.03, 2.9, 2.95]])), 0.1),
    # deep BCS from 0.1 U_c: the first points have no resolved gap
    (np.linspace(0.1, 4.0, 50), 1e-4),
])
def test_sweep_equals_per_point_cold_solves(ratios, n):
    sweep = sweep_coupling(ratios * U_C, n)
    for sol in sweep:
        cold = solve_self_consistent(sol.U, n)
        assert sol.converged and cold.converged
        assert sol.note == cold.note
        assert _close(sol, cold), (sol.U / U_C, sol.mu, cold.mu, sol.Delta0, cold.Delta0)
    if n == 1e-4:
        assert sweep[0].Delta0 == 0.0 and sweep[-1].Delta0 > 0.0


def test_hermite_prediction_is_exact_for_a_cubic():
    # a cubic branch is reproduced exactly from two points, their slopes and
    # an uneven spacing, inside and outside the pair
    def branch(U):
        return (2.0 - U + 0.3 * U**2 - 0.05 * U**3, 1.0 + 0.2 * U**3)

    def slope(U):
        return (-1.0 + 0.6 * U - 0.15 * U**2, 0.6 * U**2)

    before, last = (GapSolution(U, 0.02, *branch(U), 0.0, 0.0, 1, True, tangent=slope(U))
                    for U in (1.0, 1.7))
    for U in (1.2, 2.1, 2.6):
        assert _hermite(before, last, U) == pytest.approx(branch(U), rel=1e-13)


def test_warm_start_falls_back_to_the_linear_prediction():
    # a Hermite step that would take Delta0 out of (0.5, 2) x last.Delta0 is
    # replaced by the tangent step, and a failing tangent step by the point
    before = GapSolution(1.0, 0.02, 0.5, 1.0, 0.0, 0.0, 1, True, tangent=(0.0, 10.0))
    last = GapSolution(1.1, 0.02, 0.5, 1.0, 0.0, 0.0, 1, True, tangent=(0.1, 0.5))
    assert not 0.5 < _hermite(before, last, 1.3)[1] < 2.0
    assert _warm_start(last, 1.3, before) == pytest.approx((0.52, 1.1))
    assert _warm_start(last, 5.0, before) == (0.5, 1.0)
    assert _warm_start(last, 1.3) == pytest.approx((0.52, 1.1))
    # two points at one coupling give no Hermite step
    assert _warm_start(last, 1.3, last) == pytest.approx((0.52, 1.1))
    assert _warm_start(None, 1.3, before) is None


def bisect_gap(mu, U, start):
    """Delta0 with gap_residual = 0 at mu by geometric bisection, from `start`.

    0.0 when there is no positive root (mu at or below the dissociation
    edge) or the quadrature cannot resolve the Fermi-surface peak on the
    way down (a gap below resolution).  The bracket is widened by factors
    of 4, then halved in log Delta0 to 1e-8 relative.
    """
    if mu <= 0 and gap_residual(0.0, mu, U) >= 0.0:
        return 0.0
    lo = hi = start
    try:
        while gap_residual(lo, mu, U) > 0.0:
            lo /= 4.0
    except QuadratureError:
        return 0.0
    while gap_residual(hi, mu, U) < 0.0:
        hi *= 4.0
    while hi > lo * (1.0 + 1e-8):
        mid = math.sqrt(lo * hi)
        lo, hi = (mid, hi) if gap_residual(mid, mu, U) < 0.0 else (lo, mid)
    return math.sqrt(lo * hi)


def bisection_solve(U, n, tol_gap=1e-10, tol_number=1e-8):
    """(mu, Delta0) from bisection in mu, then the solver's Newton polish.

    Bisects the number excess on (mu_lo, mu_hi] down to 1e-6 x scale, with
    every gap solved by bisect_gap from the last resolved gap, then hands
    the midpoint to the same Newton polish as the solver.
    """
    eps_F = fermi_energy(n)
    scale = max(eps_F, 1.0)
    Eb = bound_state_energy(U)
    guess = 1.0

    def excess(mu):
        nonlocal guess
        D = bisect_gap(mu, U, guess)
        if D > 0:
            guess = D
        return -n * number_residual(D, mu, n), D

    mu_hi = eps_F
    e_hi, D_hi = excess(mu_hi)
    while e_hi < 0.0:
        mu_hi += 0.5 * scale
        e_hi, D_hi = excess(mu_hi)
    lo, hi = (-0.5 * Eb * (1.0 - 1e-12) if Eb else 0.0), mu_hi
    D_mid = D_hi if D_hi > 0 else 1.0
    while hi - lo > 1e-6 * scale:
        mid = 0.5 * (lo + hi)
        e, D = excess(mid)
        if D > 0:
            D_mid = D
        lo, hi = (lo, mid) if e > 0.0 else (mid, hi)
    mu, D, *_ = _newton_polish(0.5 * (lo + hi), D_mid, U, n, tol_gap, tol_number)
    return mu, D


@settings(max_examples=20, deadline=None)
@given(ratio=st.floats(0.5, 6.0), n=st.floats(1e-4, 0.3))
@example(ratio=1.0, n=0.02)
@example(ratio=1.0, n=0.003)
def test_mu_search_matches_bisection(ratio, n):
    U = ratio * U_C
    sol = solve_self_consistent(U, n)
    assert sol.converged
    assert abs(sol.residual_gap) <= 1e-10 and abs(sol.residual_number) <= 1e-8
    mu, D = bisection_solve(U, n)
    eps_F = fermi_energy(n)
    assert abs(sol.mu - mu) <= 1e-8 * max(abs(mu), eps_F)
    assert abs(sol.Delta0 - D) <= 1e-8 * D


@settings(max_examples=20, deadline=None)
@given(ratio=st.floats(0.5, 6.0), n=st.floats(1e-4, 0.3),
       dmu=st.floats(-1.0, 1.0), dD=st.floats(-1.0, 1.0))
@example(ratio=0.5, n=1e-4, dmu=0.0, dD=0.0)
@example(ratio=6.0, n=0.3, dmu=1.0, dD=-1.0)
@example(ratio=0.88671875, n=0.2890625, dmu=0.0, dD=0.0)
def test_analytic_jacobian_matches_central_differences(ratio, n, dmu, dD):
    # at the solution and up to 1% of the mu scale and 5% of Delta0 away from it
    U = ratio * U_C
    sol = solve_self_consistent(U, n)
    eps_F = fermi_energy(n)
    mu = sol.mu + 0.01 * dmu * max(abs(sol.mu), eps_F)
    D = sol.Delta0 * (1.0 + 0.05 * dD)
    _, J, _ = _residuals_and_jacobian(mu, D, U, n)
    hm, hd = 1e-4 * max(abs(mu), eps_F), 1e-4 * D

    def central(r, *args, s=1.0):
        return [(r(D, mu + s * hm, *args) - r(D, mu - s * hm, *args)) / (2.0 * s * hm),
                (r(D + s * hd, mu, *args) - r(D - s * hd, mu, *args)) / (2.0 * s * hd)]

    def richardson(r, *args):
        # (4 D(h/2) - D(h))/3 cancels the stencil's O(h^2) truncation
        return (4.0 * np.array(central(r, *args, s=0.5)) - np.array(central(r, *args))) / 3.0

    fd = np.array([richardson(gap_residual, U), richardson(number_residual, n)])
    # 1e-6 relative, plus the round-off floor: 1e-15/h for one stencil of
    # step h, so (4 x 2 + 1)/3 x 1e-15/h = 3e-15/h for the Richardson value.
    # Deep in BCS, dr_number/dDelta0 moves r_number by only ~3e-13 across
    # the stencil
    np.testing.assert_array_less(np.abs(J - fd), 1e-6 * np.abs(fd) + 3e-15 / np.array([hm, hd]))


def _six_column_integrand(mu, Delta0, centre=0.0):
    """The pair integrand with the four Jacobian integrands as columns of their own.

    Columns: g2/xi, the occupancy, d(g2/xi)/dmu = g2 eps/xi^3,
    d(g2/xi)/dDelta0 = -Delta0 g2^2/xi^3, d occ/dmu = y2/xi^3 and d
    occ/dDelta0 = eps Delta0 g2/xi^3, each formed directly, as the oracle
    for the five-column integrand and its Jacobian assembly.
    """
    def f(t):
        p = t * (t + 2.0 * centre)
        eps = p + (centre * centre - mu)
        g2 = 1.0 / (p + (1.0 + centre * centre))
        y2 = Delta0 * Delta0 * g2
        xi = np.sqrt(eps * eps + y2)
        inv3 = (1.0 / xi) ** 3
        with np.errstate(divide="ignore", invalid="ignore"):
            occ = np.where(eps > 0.0, y2 / (xi * (xi + eps)), 1.0 - eps / np.maximum(xi, 1e-300))
        return np.column_stack([g2 / xi, occ, g2 * eps * inv3, -Delta0 * g2 * g2 * inv3,
                                y2 * inv3, eps * Delta0 * g2 * inv3])

    return f


def test_jacobian_integrand_columns():
    # the five columns give the six-column oracle's Jacobian, pointwise
    # within 1e-14 relative and integrated on the same panels within 1e-14
    # of each entry's scale (below); the first two columns are the
    # single-column gap and occupancy integrands bit for bit.  At solutions
    # deep in BCS, near and at unitarity, and on the BEC side
    for ratio, n in ((0.5, 1e-4), (0.8, 0.02), (1.0, 0.02), (3.0, 0.1)):
        _check_jacobian_columns(ratio * U_C, n)


def _check_jacobian_columns(U, n):
    sol = solve_self_consistent(U, n)
    mu, D = sol.mu, sol.Delta0
    centre = math.sqrt(mu) if mu > 0 else 0.0
    width = D / (2.0 * centre * math.sqrt(1.0 + mu)) if mu > 0 else math.sqrt(D - mu)
    t = np.concatenate([np.linspace(-centre, 50.0, 4001), np.linspace(-20.0, 20.0, 801) * width])
    t = t[t >= -centre]
    cols = _pair_integrand(mu, D, centre=centre)(t)
    assert cols.shape == (t.size, 5)
    assert np.array_equal(cols[:, 0], _pair_integrand(mu, D, 0, centre)(t))
    assert np.array_equal(cols[:, 1], _pair_integrand(mu, D, 1, centre)(t))
    oracle = _six_column_integrand(mu, D, centre)(t)
    assert np.array_equal(cols[:, :2], oracle[:, :2])
    A, B, C = cols[:, 2], cols[:, 3], cols[:, 4]
    derivatives = np.column_stack([A, -D * B, D * D * C, D * A])
    np.testing.assert_allclose(derivatives, oracle[:, 2:], rtol=1e-14, atol=0.0)
    # integrated, the oracle's columns steer the same panels, so its riders
    # sum the points that the five columns do.  Each entry of J is gated
    # relative to the integral of its integrand's modulus, which rides
    # along too: deep in BCS the derivatives in mu of the gap and in Delta0
    # of the occupancy cancel to 8e-5 of that modulus (0.5 U_c, n = 1e-4),
    # and a cancelling sum keeps its pointwise rounding on that scale only
    # (J[1][1] differs by 9e-13 of itself there, 7e-17 of the modulus)
    six = _six_column_integrand(mu, D, centre)

    def with_moduli(t):
        v = six(t)
        return np.hstack([v, np.abs(v[:, 2:])])

    values = bcsbec.gap.radial_integral(with_moduli, peak=(centre, width), steer=2)
    _, J, gap_integral = _residuals_and_jacobian(mu, D, U, n)
    assert values[0] == gap_integral
    factors = np.array([[-0.5 * U, -0.5 * U], [-1.0 / n, -1.0 / n]])
    oracle_J, scale = factors * values[2:6].reshape(2, 2), np.abs(factors) * values[6:].reshape(2, 2)
    np.testing.assert_array_less(np.abs(np.array(J) - oracle_J), 1e-14 * scale)


def test_jacobian_riders_leave_the_residuals_unchanged():
    # one pass with the derivative columns gives the residuals of a (gap,
    # occupancy) integral alone bit for bit, deep in BCS where the 1/xi^3
    # peaks are sharpest
    U, n = 0.5 * U_C, 1e-4
    sol = solve_self_consistent(U, n)
    r, _, gap = _residuals_and_jacobian(sol.mu, sol.Delta0, U, n)
    kmu = math.sqrt(sol.mu)
    f = _pair_integrand(sol.mu, sol.Delta0, centre=kmu)
    plain_gap, density = bcsbec.gap.radial_integral(
        lambda t: f(t)[:, :2], peak=(kmu, sol.Delta0 / (2.0 * kmu * math.sqrt(1.0 + sol.mu))))
    assert gap == plain_gap
    assert list(r) == [1.0 - 0.5 * U * plain_gap, (n - density) / n]


@pytest.mark.parametrize("ratio, n", [(0.6, 0.02), (1.7, 0.003), (3.0, 0.1), (1.0, 1e-4)])
def test_tangent_matches_central_difference_of_cold_solves(ratio, n):
    U = ratio * U_C
    sol = solve_self_consistent(U, n)
    h = 1e-4 * U
    up, down = (solve_self_consistent(U + s, n) for s in (h, -h))
    assert sol.converged and up.converged and down.converged
    fd = [(up.mu - down.mu) / (2.0 * h), (up.Delta0 - down.Delta0) / (2.0 * h)]
    np.testing.assert_allclose(sol.tangent, fd, rtol=1e-4, atol=0.0)


@pytest.mark.parametrize("Delta0, expected", [(1e-8, 0.1823356984589556316),
                                              (1e-13, 0.26439586090818909787)])
def test_deep_bcs_gap_integral_matches_mpmath(Delta0, expected):
    # Integral d^3k/(2 pi)^3 Gamma^2/xi at n = 1e-4, mu = eps_F against
    # 30-digit mpmath values: a gap down to the floor resolves at the Fermi
    # surface
    value = _pair_integral(fermi_energy(1e-4), Delta0, column=0)[0]
    assert value == pytest.approx(expected, rel=1e-14, abs=0.0)


def test_bcs_end_approaches_leggetts_gap():
    # Leggett 1980: Delta -> (8/e^2) eps_F exp(pi/(2 k_F a)) as 1/(k_F a) ->
    # -inf, with 1/(k_F a) = (1 - U_c/U)/k_F here.  At U = 0.9 U_c the ratio
    # Delta0 Gamma(k_F) over it reads 0.882, 0.923, 0.948, 0.964 and 0.975
    # from n = 1e-5 to 1e-7: the shortfall is the effective-range
    # correction, (1 - ratio)/k_F between 1.68 and 1.78
    U = 0.9 * U_C
    shortfalls = []
    for n in 10.0 ** np.arange(-5.0, -7.5, -0.5):
        sol = solve_self_consistent(U, n)
        k_f = (3.0 * math.pi**2 * n) ** (1.0 / 3.0)
        assert sol.converged and sol.Delta0 >= 1e4 * bcsbec.gap._GAP_FLOOR_REL
        leggett = 8.0 / math.e**2 * fermi_energy(n) * math.exp(
            0.5 * math.pi * (1.0 - U_C / U) / k_f)
        shortfall = 1.0 - sol.Delta0 / math.sqrt(1.0 + k_f * k_f) / leggett
        assert 1.65 < shortfall / k_f < 1.8
        shortfalls.append(shortfall)
    assert all(a > b > 0.0 for a, b in zip(shortfalls, shortfalls[1:]))


@pytest.fixture
def integral_count(monkeypatch):
    """A callable giving the radial integrals the gap solver has taken so far."""
    calls = 0
    radial_integral = bcsbec.gap.radial_integral

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return radial_integral(*args, **kwargs)

    monkeypatch.setattr(bcsbec.gap, "radial_integral", counting)
    return lambda: calls


def test_cold_solve_quadrature_budget(integral_count):
    # exact counts: every cold solve on this grid takes at most 6 integrals,
    # whether seeded from the molecular limit or from the crossover
    for ratio in (0.6, 1.0, 1.2, 2.0, 4.0):
        for n in (0.003, 0.02, 0.1):
            U = ratio * U_C
            seeded = _bec_seed(bound_state_energy(U), n, fermi_energy(n)) is not None
            before = integral_count()
            sol = solve_self_consistent(U, n)
            assert sol.converged
            used = integral_count() - before
            assert used <= 6, (ratio, n, seeded, used)


@pytest.mark.parametrize("b", [0.05, 0.2, 1.0, 3.0, 10.0])
def test_molecular_limit_seed_solves_its_integral_equations(b):
    # n = (Delta0^2/2) I2 and mu + E_b/2 = (Delta0^2/2) I4/I2, with
    # I_p = Integral d^3k/(2 pi)^3 Gamma^p/(k^2 + b^2)^(p/2+1) by scipy quad
    def integral(p):
        def f(k):
            return k * k / (1.0 + k * k) ** (p / 2) / (k * k + b * b) ** (p / 2 + 1)

        value, _ = quad(f, 0.0, math.inf, epsabs=0.0, epsrel=1e-13)
        return value / (2.0 * math.pi**2)

    i2, i4 = integral(2), integral(4)
    n = 1e-6
    mu, D = _bec_seed(2.0 * b * b, n, fermi_energy(n))
    assert 0.5 * D * D * i2 == pytest.approx(n, rel=1e-12)
    # mu + b^2 cancels about 1e-16 b^2/(mu + b^2) of its relative precision
    assert mu + b * b == pytest.approx(0.5 * D * D * i4 / i2, rel=1e-9)


def _crossover_oracle(x0):
    """I1 and I2 by scipy quad, in cancellation-free forms, split at sqrt(x0)."""
    def i1(x):
        root = math.hypot(x * x - x0, 1.0)
        return (2.0 * x0 * x * x - x0 * x0 - 1.0) / (root * (x * x + root))

    def i2(x):
        e = x * x - x0
        root = math.hypot(e, 1.0)
        return x * x * (1.0 / (root * (root + e)) if e > 0.0 else 1.0 - e / root)

    cut = math.sqrt(x0) if x0 > 0.0 else 1.0
    return [quad(f, 0.0, cut, epsabs=0.0, epsrel=1e-13, limit=200)[0]
            + quad(f, cut, math.inf, epsabs=0.0, epsrel=1e-13, limit=200)[0] for f in (i1, i2)]


@pytest.mark.parametrize("x0", [-3.0, 0.0, 0.86, 2.0, 10.0])
def test_crossover_integrals_match_quadrature(x0):
    # 0.86 sits near unitarity, where I1 nearly vanishes: compare absolutely
    i1, i2 = _crossover_integrals(x0)
    q1, q2 = _crossover_oracle(x0)
    assert i1 == pytest.approx(q1, rel=1e-12, abs=1e-13)
    assert i2 == pytest.approx(q2, rel=1e-12)


@pytest.mark.parametrize("m", [0.0, 1e-300, 1e-12, 0.3, 0.5, 0.9, 1.0 - 1e-9])
def test_elliptic_integrals_match_scipy(m):
    K, s = _elliptic_k_s(m, 1.0 - m)
    assert K == pytest.approx(ellipk(m), rel=1e-14)
    assert K * (1.0 - s) == pytest.approx(ellipe(m), rel=1e-14)


def test_elliptic_integrals_stay_finite_at_the_ends():
    # m = 0 ends after one step; m1 = 1 - m = 1e-16 still resolves
    # K = ln(4/sqrt(m1)) + O(m1 ln m1) and E = 1 + O(m1 ln m1)
    assert _elliptic_k_s(0.0, 1.0) == (0.5 * math.pi, 0.0)
    K, s = _elliptic_k_s(1.0 - 1e-16, 1e-16)
    assert math.isfinite(K) and math.isfinite(s)
    assert K == pytest.approx(ellipkm1(1e-16), rel=1e-14)
    assert K * (1.0 - s) == pytest.approx(1.0, abs=1e-13)


@pytest.mark.parametrize("inverse_kfa, mu, Delta", [
    (-1.0, 0.9540, 0.2084), (0.0, 0.5906, 0.6864), (1.0, -0.8010, 1.3319)])
def test_crossover_seed_gives_the_universal_curve(inverse_kfa, mu, Delta):
    # (mu, Delta)/eps_F of the contact-model mean-field crossover (Marini,
    # Pistolesi & Strinati 1998) at U = U_c/(1 - k_F/(k_F a))
    n = 1e-3
    eps_F = fermi_energy(n)
    U = U_C / (1.0 - inverse_kfa * math.sqrt(eps_F))
    seed_mu, seed_D0 = _crossover_seed(U, n, eps_F)
    assert seed_mu / eps_F == pytest.approx(mu, abs=1e-4)
    assert seed_D0 / math.sqrt(1.0 + eps_F) / eps_F == pytest.approx(Delta, abs=1e-4)


def test_crossover_seed_declines_unresolvable_gaps():
    # deep in BCS the seed's gap lies below the floor: the free-gas test answers
    n = 1e-4
    assert _crossover_seed(0.1 * U_C, n, fermi_energy(n)) is None
    assert _crossover_seed(0.3 * U_C, 1e-12, fermi_energy(1e-12)) is None


@settings(max_examples=20, deadline=None)
@given(ratio=st.floats(0.3, 1.5), n=st.floats(1e-4, 0.3))
@example(ratio=0.8, n=0.02)
@example(ratio=1.0, n=1e-4)
def test_crossover_seeded_solve_matches_the_search(ratio, n):
    # the seeded polish finds the root of the test-side bisection search on
    # mu, and it answers the free gas exactly where that search's gap at
    # mu = eps_F lies within a factor 2 of the floor
    U = ratio * U_C
    eps_F = fermi_energy(n)
    if _bec_seed(bound_state_energy(U), n, eps_F) is not None:
        return
    seeded = solve_self_consistent(U, n)
    assert seeded.converged
    if seeded.Delta0 == 0.0:
        assert seeded.note == "gap below resolution" and seeded.mu == eps_F
        assert bisect_gap(eps_F, U, 1.0) <= 2.0 * bcsbec.gap._GAP_FLOOR_REL
    else:
        assert bisect_gap(eps_F, U, 1.0) > 2.0 * bcsbec.gap._GAP_FLOOR_REL
        mu, D = bisection_solve(U, n)
        assert abs(seeded.mu - mu) <= 1e-8 * max(abs(mu), eps_F)
        assert abs(seeded.Delta0 - D) <= 1e-8 * D


@pytest.mark.parametrize("ratio", [1.2, 2.0, 4.0])
def test_solves_approach_the_molecular_limit_linearly_in_n(ratio):
    # at these densities the polish moves the seed; the converged Delta0
    # differs from the closed form by O(n), the same multiple of n at both
    U = ratio * U_C
    Eb = bound_state_energy(U)
    slopes = []
    for n in (1e-8, 1e-6):
        mu0, D0 = _bec_seed(Eb, n, fermi_energy(n))
        sol = solve_self_consistent(U, n)
        assert sol.converged and sol.iterations >= 2
        slopes.append((sol.Delta0 / D0 - 1.0) / n)
    assert slopes[0] == pytest.approx(slopes[1], rel=1e-2)
    # mu + E_b/2 has its first order right too: at n = 1e-6 it is within 300 n
    assert abs((sol.mu + 0.5 * Eb) / (mu0 + 0.5 * Eb) - 1.0) <= 300.0 * n


@settings(max_examples=30, deadline=None)
@given(ratio=st.floats(1.05, 6.0), log_n=st.floats(-300.0, -14.0))
@example(ratio=2.0, log_n=-30.0)
@example(ratio=2.0, log_n=-20.0)
@example(ratio=1.05, log_n=-300.0)
def test_deep_bec_solves_converge_above_the_dissociation_edge(ratio, log_n):
    # n = 10^log_n k0^3: the gap sits near or below the resolution floor and
    # mu + E_b/2 below the rounding of mu, yet every solve converges, with
    # mu not below -E_b/2 and residuals recomputed within tolerance
    U, n = ratio * U_C, 10.0**log_n
    sol = solve_self_consistent(U, n)
    assert sol.converged
    assert sol.mu >= -0.5 * bound_state_energy(U)
    assert abs(gap_residual(sol.Delta0, sol.mu, U)) <= 1e-10
    assert abs(number_residual(sol.Delta0, sol.mu, n)) <= 1e-8


def test_gap_below_resolution_is_the_free_gas(integral_count):
    # at 0.1 U_c, n = 1e-4 the gap lies far below resolution: the solve
    # returns the free gas in closed form, in a few integrals
    n = 1e-4
    sol = solve_self_consistent(0.1 * U_C, n)
    assert integral_count() <= 20
    assert sol.converged and sol.note == "gap below resolution"
    assert sol.Delta0 == 0.0 and sol.mu == fermi_energy(n)
    assert sol.residual_number == 0.0 and math.isnan(sol.residual_gap)
    assert sol.tangent is None


@settings(max_examples=40, deadline=None)
@given(ratio=st.floats(0.05, 8.0), log_n=st.floats(-10.0, math.log10(0.5)))
@example(ratio=0.1, log_n=math.log10(0.0915))
@example(ratio=0.1, log_n=math.log10(0.166))
@example(ratio=0.1, log_n=math.log10(0.3))
def test_cold_solves_keep_their_gap_above_the_floor(ratio, log_n):
    # one path, one floor: a converged cold solve is either the free gas or
    # a gap more than a factor 2 above _GAP_FLOOR_REL
    sol = solve_self_consistent(ratio * U_C, 10.0**log_n)
    assert sol.converged
    if sol.Delta0 == 0.0:
        assert sol.note == "gap below resolution"
    else:
        assert sol.Delta0 > 2.0 * bcsbec.gap._GAP_FLOOR_REL and sol.note == ""


def test_warm_guess_that_misses_falls_back_to_the_cold_seed(monkeypatch):
    # from Delta0 at 1e-3 of the root the polish converges in 8 integrals
    # and from the cold seed in 6; with 5 steps the warm polish misses, and
    # the cold seed's polish still lands on the cold root
    U, n = 0.8 * U_C, REFERENCE_N
    cold = solve_self_consistent(U, n)
    guess = (cold.mu, 1e-3 * cold.Delta0)
    far = solve_self_consistent(U, n, initial_guess=guess)
    assert far.converged and far.iterations == 8 and _close(far, cold)
    monkeypatch.setattr(bcsbec.gap, "_NEWTON_STEPS", 5)
    assert solve_self_consistent(U, n).iterations == 6
    fallback = solve_self_consistent(U, n, initial_guess=guess)
    assert fallback.converged and fallback.iterations == 6 + 6
    assert _close(fallback, cold)
    assert abs(fallback.residual_gap) <= 1e-10 and abs(fallback.residual_number) <= 1e-8


def test_locate_mu_zero_quadrature_budget(integral_count):
    # an exact count: the crossing at n = 0.02, to 1e-6 U_c, takes at most 50 integrals
    locate_mu_zero(REFERENCE_N)
    assert integral_count() <= 50


def test_cold_solve_reports_unmet_tolerances(monkeypatch, tmp_path):
    # below U_c the crossover seed's polish converges in 6 integrals; with a
    # 2-step budget it misses after 3, the free-gas test's one integral finds
    # a gap above the floor, and the solve hands back the polish's last
    # point, unconverged
    monkeypatch.setattr(bcsbec.gap, "_NEWTON_STEPS", 2)
    sol = solve_self_consistent(0.8 * U_C, REFERENCE_N)
    assert not sol.converged
    assert sol.note == "tolerances not met within budget"
    assert sol.iterations == 4 and sol.Delta0 > 0 and sol.tangent is None
    assert sol.residual_number == pytest.approx(
        number_residual(sol.Delta0, sol.mu, REFERENCE_N), rel=1e-12)
    argv = ["gap-sweep", "--points", "1", "--u-min", "0.8", "--u-max", "0.8",
            "--n", str(REFERENCE_N), "--out", str(tmp_path)]
    assert cli_main(argv) == 2


def test_polish_counts_every_integral(integral_count, monkeypatch):
    # a polish that runs out of steps took the first integral and one per
    # step, and one whose integral fails counts the failure
    monkeypatch.setattr(bcsbec.gap, "_NEWTON_STEPS", 2)
    *_, integrals, _ = _newton_polish(0.69, 0.17, 0.8 * U_C, REFERENCE_N, 1e-10, 1e-8)
    assert integrals == integral_count() == 3
    # from the crossover seed at 0.2 U_c, n = 0.0178 (root 9.2e-7) the
    # fourth integral is at Delta0 = 9.2e-7; made to fail there, after it is
    # taken, it stops the polish, which hands back the point before that step
    monkeypatch.setattr(bcsbec.gap, "_NEWTON_STEPS", 25)
    pair_integral = bcsbec.gap._pair_integral

    def failing_below_1e_6(mu, Delta0, **kwargs):
        vals = pair_integral(mu, Delta0, **kwargs)
        if Delta0 < 1e-6:
            raise QuadratureError("panel budget exhausted")
        return vals

    monkeypatch.setattr(bcsbec.gap, "_pair_integral", failing_below_1e_6)
    _, D, _, _, integrals, _ = _newton_polish(0.652049308377974, 3.788914032938654e-4,
                                              0.2 * U_C, 0.01778279410038923, 1e-10, 1e-8)
    assert integrals == integral_count() - 3 == 4
    assert D == pytest.approx(6.939638120776179e-06, rel=1e-6)


@settings(max_examples=50, deadline=None)
@given(entries=st.lists(st.just(0.0) | st.floats(1e-3, 1e3) | st.floats(-1e3, -1e-3),
                        min_size=6, max_size=6))
def test_closed_form_2x2_solve_matches_numpy(entries):
    # entries far from underflow, where Cramer's unscaled determinant holds
    a, b, c, d, e, f = entries
    J = ((a, b), (c, d))
    cond = np.linalg.cond(J)
    assume(cond < 1e8)
    x = np.linalg.solve(J, [e, f])
    # both solves are forward stable: errors of order cond * eps * |x|
    np.testing.assert_allclose(_solve_2x2(J, (e, f)), x, rtol=0.0,
                               atol=10.0 * cond * np.finfo(float).eps * np.abs(x).max() + 1e-300)


def test_closed_form_2x2_solve_of_a_singular_jacobian_is_none():
    for J in (((1.0, 2.0), (2.0, 4.0)), ((0.0, 0.0), (0.0, 0.0))):
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(J, [1.0, 0.0])
        assert _solve_2x2(J, (1.0, 0.0)) is None
    # a determinant that is not finite counts as singular too
    assert _solve_2x2(((1e200, 1.0), (1.0, 1e200)), (1.0, 0.0)) is None
    assert _solve_2x2(((math.nan, 1.0), (1.0, 1.0)), (1.0, 0.0)) is None


def test_polish_from_a_singular_jacobian_stops_without_a_tangent(monkeypatch):
    calls = []

    def singular(*args):
        calls.append(args)
        return (0.5, 0.5), ((1.0, 2.0), (2.0, 4.0)), 1.0

    monkeypatch.setattr(bcsbec.gap, "_residuals_and_jacobian", singular)
    result = _newton_polish(0.3, 0.1, U_C, REFERENCE_N, 1e-10, 1e-8)
    assert result == (0.3, 0.1, 0.5, 0.5, 1, None) and len(calls) == 1


def test_polish_stops_before_a_step_to_a_non_finite_mu(monkeypatch):
    # a Jacobian with a finite, nonzero determinant whose step in mu
    # overflows: the polish stops at its start instead of integrating at
    # mu = -inf, where the quadrature would raise ValueError for the peak
    residuals_and_jacobian = bcsbec.gap._residuals_and_jacobian
    calls = []

    def overflowing(mu, Delta0, U, n):
        calls.append(mu)
        if len(calls) > 1:
            return residuals_and_jacobian(mu, Delta0, U, n)
        return (1e10, 0.0), ((1e-300, 0.0), (0.0, 1.0)), 1.0

    monkeypatch.setattr(bcsbec.gap, "_residuals_and_jacobian", overflowing)
    mu, D, r_gap, r_number, integrals, tangent = _newton_polish(0.3, 0.1, U_C, REFERENCE_N,
                                                                1e-10, 1e-8)
    assert calls == [0.3] and (mu, D, r_gap, integrals) == (0.3, 0.1, 1e10, 1)
    assert tangent == (0.5 / 1e-300, 0.0)


@pytest.mark.parametrize("guess", [(math.inf, 0.1), (math.nan, 0.1), (0.3, math.inf)])
def test_non_finite_initial_guess_falls_back_to_the_cold_seed(guess):
    cold = solve_self_consistent(0.8 * U_C, REFERENCE_N)
    sol = solve_self_consistent(0.8 * U_C, REFERENCE_N, initial_guess=guess)
    assert sol.converged and (sol.mu, sol.Delta0, sol.iterations) == (
        cold.mu, cold.Delta0, cold.iterations)


def test_validation_errors():
    with pytest.raises(ValueError):
        solve_self_consistent(-1.0, REFERENCE_N)
    with pytest.raises(ValueError):
        solve_self_consistent(1.0, -1.0)
    with pytest.raises(ValueError):
        gap_residual(-0.1, 0.0, 1.0)
    with pytest.raises(ValueError):
        number_residual(-0.1, 0.0, REFERENCE_N)
    with pytest.raises(ValueError):
        number_residual(0.1, 0.0, 0.0)
    # 1e300 U_c is finite but its E_b = 2 eps0 (U/U_c - 1)^2 overflows
    for U in (0.0, math.nan, math.inf, 1e300 * U_C):
        with pytest.raises(ValueError):
            bound_state_energy(U)


def test_sweep_records_failures_inline():
    # an absurd tolerance cannot be met; the sweep must not raise
    sols = sweep_coupling(
        [2.0 * U_C], REFERENCE_N, tol_gap=1e-17,
        tol_number=1e-17,
    )
    assert len(sols) == 1
    assert isinstance(sols[0], GapSolution)


# ---- the safeguarded Newton iteration ---------------------------------------

MONOTONE_FUNCTIONS = {
    # name -> (f(x; root, c), f'(x; root, c)), increasing through `root` for c >= 0
    "cubic": (lambda x, root, c: (x - root) ** 3 + c * (x - root),
              lambda x, root, c: 3.0 * (x - root) ** 2 + c),
    "exp": (lambda x, root, c: math.exp(x) - math.exp(root),
            lambda x, root, c: math.exp(x)),
    "atan": (lambda x, root, c: math.atan((1.0 + c) * (x - root)) + 1e-3 * (x - root),
             lambda x, root, c: (1.0 + c) / (1.0 + ((1.0 + c) * (x - root)) ** 2) + 1e-3),
}


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(sorted(MONOTONE_FUNCTIONS)),
    root=st.floats(-5.0, 5.0),
    c=st.floats(0.0, 100.0),
    below=st.floats(1e-6, 10.0),
    above=st.floats(1e-6, 10.0),
    start=st.floats(0.0, 1.0),
    slope=st.sampled_from(["exact", "zero", "nan", "wrong sign"]),
    log_xtol=st.floats(-12.0, -2.0),
)
def test_safe_newton_keeps_its_bracket(kind, root, c, below, above, start, slope, log_xtol):
    g, dg = MONOTONE_FUNCTIONS[kind]
    lo, hi = root - below, root + above
    x0 = lo + start * (hi - lo)
    if not lo < x0 < hi:
        x0 = 0.5 * (lo + hi)
    xtol = 10.0**log_xtol
    bad = {"exact": None, "zero": lambda x: 0.0, "nan": lambda x: math.nan,
           "wrong sign": lambda x: -dg(x, root, c)}[slope]
    iterates = []

    def f(x):
        iterates.append(x)
        return g(x, root, c), (bad or (lambda x: dg(x, root, c)))(x)

    x, evals = _safe_newton(f, x0, lo, hi, xtol, 200)
    assert evals == len(iterates)
    assert abs(x - root) <= xtol
    # every iterate lies inside the bracket its predecessors left; with a bad
    # slope each step is a bisection
    a, b = lo, hi
    for prev, nxt in zip(iterates, iterates[1:] + [None]):
        assert a < prev < b
        fx = g(prev, root, c)
        a, b = (prev, b) if fx < 0.0 else (a, prev)
        if bad and nxt is not None:
            assert nxt == 0.5 * (a + b)
    # the same run with one evaluation fewer runs out of budget
    if evals > 1:
        iterates.clear()
        with pytest.raises(RuntimeError, match="no root within"):
            _safe_newton(f, x0, lo, hi, xtol, evals - 1)
