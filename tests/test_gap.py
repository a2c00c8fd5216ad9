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
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson
from scipy.optimize import brentq

import bcsbec.gap
from bcsbec.core import PhysicalParams, critical_coupling
from bcsbec.gap import (
    GapSolution,
    _breakpoints,
    _gap_at_mu,
    _newton_polish,
    _pair_integrand,
    _residuals_and_jacobian,
    _safe_newton,
    bound_state_energy,
    gap_residual,
    locate_mu_zero,
    number_residual,
    solve_self_consistent,
    sweep_coupling,
)
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


def simpson_bound_state(U, params, intervals=2**14):
    """Root E_b of 1 = U Integral d^3k/(2 pi)^3 Gamma^2/(2 eps_k + E_b).

    The integral runs on the compactified grid k = k0 u/(1-u); the u -> 1
    endpoint of the integrand tends to k0/(2 hbar^2/(2m)).
    """
    k0, h2m = params.k0, params.half_hbar2_over_m
    u = np.linspace(0.0, 1.0, intervals + 1)[:-1]
    k = k0 * u / (1.0 - u)
    weight = k * k / (1.0 + (k / k0) ** 2) * k0 / (1.0 - u) ** 2

    def resid(E_b):
        f = np.append(weight / (2.0 * h2m * k * k + E_b), 0.5 * k0 / h2m)
        return 1.0 - U * simpson(f, dx=1.0 / intervals) / (2.0 * np.pi**2)

    lo = hi = params.eps0
    while resid(lo) > 0.0:
        lo *= 0.25
    while resid(hi) < 0.0:
        hi *= 4.0
    return brentq(resid, lo, hi, xtol=1e-15 * params.eps0, rtol=4 * np.finfo(float).eps)


@pytest.fixture(scope="module")
def params():
    return PhysicalParams.dimensionless()


@pytest.fixture(scope="module")
def reference_solution(params):
    U = 2.0 * critical_coupling(params)
    return solve_self_consistent(U, REFERENCE_N, params)


def test_solver_matches_frozen_oracle_values(reference_solution):
    sol = reference_solution
    assert sol.converged
    assert abs(sol.mu - FROZEN_MU) <= 1e-10
    assert abs(sol.Delta0 - FROZEN_DELTA0) <= 1e-10


def test_dense_grid_residuals_at_solution(params, reference_solution):
    sol = reference_solution
    U = 2.0 * critical_coupling(params)
    r_gap, r_num = simpson_residuals(sol.mu, sol.Delta0, U, REFERENCE_N)
    assert abs(r_gap) <= 1e-10
    assert abs(r_num) <= 1e-10


def test_reported_residuals_meet_tolerances(reference_solution):
    sol = reference_solution
    assert abs(sol.residual_gap) <= 1e-10
    assert abs(sol.residual_number) <= 1e-8


def test_bound_state_closed_form(params):
    # the closed form E_b = 2 eps0 (U/U_c - 1)^2 solves the bound-state equation
    Uc = critical_coupling(params)
    for ratio in (1.5, 2.0, 3.0):
        eb = bound_state_energy(ratio * Uc, params)
        assert eb == pytest.approx(simpson_bound_state(ratio * Uc, params), rel=1e-10)


def test_bound_state_threshold():
    # the threshold is exact in both unit modes, not a rounding residue
    for params in (PhysicalParams.dimensionless(), PhysicalParams.free_electron(k0=1.41)):
        Uc = critical_coupling(params)
        assert bound_state_energy(Uc, params) == 0.0
        assert bound_state_energy(0.5 * Uc, params) is None
        with pytest.raises(ValueError):
            bound_state_energy(-1.0, params)


def test_mu_sits_above_the_pair_dissociation_edge(params, reference_solution):
    # the many-body mu lies between -E_b/2 (where the gap equation loses
    # its solution) and zero on the molecular side
    sol = reference_solution
    eb = bound_state_energy(sol.U, params)
    assert sol.mu < 0.0
    assert sol.mu > -0.5 * eb


def test_sweep_monotone(params):
    Uc = critical_coupling(params)
    ratios = np.linspace(0.5, 4.0, 8)
    sols = sweep_coupling(ratios * Uc, REFERENCE_N, params)
    assert all(s.converged for s in sols)
    deltas = [s.Delta0 for s in sols]
    mus = [s.mu for s in sols]
    assert all(b > a for a, b in zip(deltas, deltas[1:]))
    assert all(b < a for a, b in zip(mus, mus[1:]))


def test_locate_mu_zero(params):
    Uc = critical_coupling(params)
    u_star, sol = locate_mu_zero(REFERENCE_N, params, tol_rel=1e-4)
    assert abs(u_star / Uc - 1.74445063) <= 5e-4
    assert sol.converged
    # at n = 1 mu stays positive up to 4 U_c: no bracket forms
    with pytest.raises(ValueError, match="does not change sign"):
        locate_mu_zero(1.0, params)


def test_free_gas_density_at_zero_gap(params):
    # Delta0 = 0, mu = eps_F reproduces the free-gas density exactly
    r = number_residual(0.0, params.fermi_energy(REFERENCE_N), REFERENCE_N, params)
    assert abs(r) <= 1e-10


def test_gap_residual_monotone_in_delta(params, reference_solution):
    sol = reference_solution
    low = gap_residual(0.5 * sol.Delta0, sol.mu, sol.U, params)
    high = gap_residual(2.0 * sol.Delta0, sol.mu, sol.U, params)
    assert low < 0.0 < high


def test_warm_start_short_circuit(params, reference_solution):
    sol = reference_solution
    again = solve_self_consistent(
        sol.U, REFERENCE_N, params, initial_guess=(sol.mu, sol.Delta0)
    )
    assert again.converged
    assert again.iterations <= 10
    assert again.mu == pytest.approx(sol.mu, abs=1e-10)


@settings(max_examples=15, deadline=None)
@given(ratio=st.floats(0.5, 4.0), n=st.floats(0.003, 0.1))
def test_warm_start_equals_cold_start(ratio, n):
    # the warm solve at U starts from the cold solution at 1.02 U
    params = PhysicalParams.dimensionless()
    U = ratio * critical_coupling(params)
    near = solve_self_consistent(1.02 * U, n, params)
    warm = solve_self_consistent(U, n, params, initial_guess=(near.mu, near.Delta0))
    cold = solve_self_consistent(U, n, params)
    assert near.converged and warm.converged and cold.converged
    eps_f = params.fermi_energy(n)
    assert abs(warm.mu - cold.mu) <= 1e-8 * eps_f
    assert abs(warm.Delta0 - cold.Delta0) <= 1e-8 * cold.Delta0


def bisect_gap(mu, U, params, start):
    """Delta0 with gap_residual = 0 at mu by geometric bisection, from `start`.

    0.0 when there is no positive root (mu at or below the dissociation
    edge) or the quadrature cannot resolve the Fermi-surface peak on the
    way down (a gap below resolution).  The bracket is widened by factors
    of 4, then halved in log Delta0 to 1e-8 relative.
    """
    if mu <= 0 and gap_residual(0.0, mu, U, params) >= 0.0:
        return 0.0
    lo = hi = start
    try:
        while gap_residual(lo, mu, U, params) > 0.0:
            lo /= 4.0
    except QuadratureError:
        return 0.0
    while gap_residual(hi, mu, U, params) < 0.0:
        hi *= 4.0
    while hi > lo * (1.0 + 1e-8):
        mid = math.sqrt(lo * hi)
        lo, hi = (mid, hi) if gap_residual(mid, mu, U, params) < 0.0 else (lo, mid)
    return math.sqrt(lo * hi)


def bisection_solve(U, n, params, tol_gap=1e-10, tol_number=1e-8):
    """(mu, Delta0) from bisection in mu, then the solver's Newton polish.

    Bisects the number excess on (mu_lo, mu_hi] down to 1e-6 x scale, with
    every gap solved by bisect_gap from the last resolved gap, then hands
    the midpoint to the same Newton polish as the solver.
    """
    eps_F = params.fermi_energy(n)
    scale = max(eps_F, params.eps0)
    Eb = bound_state_energy(U, params)
    guess = params.eps0

    def excess(mu):
        nonlocal guess
        D = bisect_gap(mu, U, params, guess)
        if D > 0:
            guess = D
        return -n * number_residual(D, mu, n, params), D

    mu_hi = eps_F
    e_hi, D_hi = excess(mu_hi)
    while e_hi < 0.0:
        mu_hi += 0.5 * scale
        e_hi, D_hi = excess(mu_hi)
    lo, hi = (-0.5 * Eb * (1.0 - 1e-12) if Eb else 0.0), mu_hi
    D_mid = D_hi if D_hi > 0 else params.eps0
    while hi - lo > 1e-6 * scale:
        mid = 0.5 * (lo + hi)
        e, D = excess(mid)
        if D > 0:
            D_mid = D
        lo, hi = (lo, mid) if e > 0.0 else (mid, hi)
    mu, D, *_ = _newton_polish(0.5 * (lo + hi), D_mid, U, n, params, tol_gap, tol_number)
    return mu, D


@settings(max_examples=20, deadline=None)
@given(ratio=st.floats(0.5, 6.0), n=st.floats(1e-4, 0.3),
       units=st.sampled_from(["dimensionless", "physical"]))
@example(ratio=1.0, n=0.02, units="dimensionless")
@example(ratio=1.0, n=0.003, units="physical")
def test_mu_search_matches_bisection(ratio, n, units):
    # n is in units of k0^3, as on the command line
    params = (PhysicalParams.dimensionless() if units == "dimensionless"
              else PhysicalParams.free_electron(k0=1.41))
    U, n = ratio * critical_coupling(params), n * params.k0**3
    sol = solve_self_consistent(U, n, params)
    assert sol.converged
    assert abs(sol.residual_gap) <= 1e-10 and abs(sol.residual_number) <= 1e-8
    mu, D = bisection_solve(U, n, params)
    eps_F = params.fermi_energy(n)
    assert abs(sol.mu - mu) <= 1e-8 * max(abs(mu), eps_F)
    assert abs(sol.Delta0 - D) <= 1e-8 * D


def _params(units):
    return (PhysicalParams.dimensionless() if units == "dimensionless"
            else PhysicalParams.free_electron(k0=1.41))


@settings(max_examples=20, deadline=None)
@given(ratio=st.floats(0.5, 6.0), n=st.floats(1e-4, 0.3),
       units=st.sampled_from(["dimensionless", "physical"]),
       dmu=st.floats(-1.0, 1.0), dD=st.floats(-1.0, 1.0))
@example(ratio=0.5, n=1e-4, units="dimensionless", dmu=0.0, dD=0.0)
@example(ratio=6.0, n=0.3, units="physical", dmu=1.0, dD=-1.0)
@example(ratio=0.88671875, n=0.2890625, units="dimensionless", dmu=0.0, dD=0.0)
def test_analytic_jacobian_matches_central_differences(ratio, n, units, dmu, dD):
    # at the solution and up to 1% of the mu scale and 5% of Delta0 away from it
    params = _params(units)
    U, n = ratio * critical_coupling(params), n * params.k0**3
    sol = solve_self_consistent(U, n, params)
    eps_F = params.fermi_energy(n)
    mu = sol.mu + 0.01 * dmu * max(abs(sol.mu), eps_F)
    D = sol.Delta0 * (1.0 + 0.05 * dD)
    _, J, _ = _residuals_and_jacobian(mu, D, U, n, params)
    hm, hd = 1e-4 * max(abs(mu), eps_F), 1e-4 * D

    def central(r, *args, s=1.0):
        return [(r(D, mu + s * hm, *args) - r(D, mu - s * hm, *args)) / (2.0 * s * hm),
                (r(D + s * hd, mu, *args) - r(D - s * hd, mu, *args)) / (2.0 * s * hd)]

    def richardson(r, *args):
        # (4 D(h/2) - D(h))/3 cancels the stencil's O(h^2) truncation
        return (4.0 * np.array(central(r, *args, s=0.5)) - np.array(central(r, *args))) / 3.0

    fd = np.array([richardson(gap_residual, U, params), richardson(number_residual, n, params)])
    # 1e-6 relative, plus the round-off floor: 1e-15/h for one stencil of
    # step h, so (4 x 2 + 1)/3 x 1e-15/h = 3e-15/h for the Richardson value.
    # Deep in BCS, dr_number/dDelta0 moves r_number by only ~3e-13 across
    # the stencil
    np.testing.assert_array_less(np.abs(J - fd), 1e-6 * np.abs(fd) + 3e-15 / np.array([hm, hd]))


def test_jacobian_integrand_columns(params):
    # d occ/dDelta0 = Delta0 d(g2/xi)/dmu pointwise, and the first two
    # columns are the single-column gap and occupancy integrands bit for bit
    mu, D = 0.35, 0.02
    kmu = math.sqrt(mu)
    k = np.concatenate([np.linspace(1e-3, 50.0, 4001), kmu + np.linspace(-0.1, 0.1, 401)])
    cols = _pair_integrand(mu, D, params)(k)
    assert np.array_equal(cols[:, 0], _pair_integrand(mu, D, params, 0)(k))
    assert np.array_equal(cols[:, 1], _pair_integrand(mu, D, params, 1)(k))
    np.testing.assert_allclose(cols[:, 5], D * cols[:, 2], rtol=1e-15, atol=0.0)


def test_jacobian_riders_leave_the_residuals_unchanged(params):
    # one pass with the derivative columns gives the residuals of a (gap,
    # occupancy) integral alone bit for bit, deep in BCS where the 1/xi^3
    # peaks are sharpest
    U, n = 0.5 * critical_coupling(params), 1e-4
    sol = solve_self_consistent(U, n, params)
    r, _, gap = _residuals_and_jacobian(sol.mu, sol.Delta0, U, n, params)
    f = _pair_integrand(sol.mu, sol.Delta0, params)
    plain_gap, density = bcsbec.gap.radial_integral(
        lambda k: f(k)[:, :2], k0=params.k0,
        breakpoints=_breakpoints(sol.mu, sol.Delta0, params))
    assert gap == plain_gap
    assert list(r) == [1.0 - 0.5 * U * plain_gap, (n - density) / n]


@pytest.mark.parametrize("ratio, n, units", [(0.6, 0.02, "dimensionless"),
                                             (1.7, 0.003, "physical"),
                                             (3.0, 0.1, "dimensionless"),
                                             (1.0, 1e-4, "physical")])
def test_tangent_matches_central_difference_of_cold_solves(ratio, n, units):
    params = _params(units)
    U, n = ratio * critical_coupling(params), n * params.k0**3
    sol = solve_self_consistent(U, n, params)
    h = 1e-4 * U
    up, down = (solve_self_consistent(U + s, n, params) for s in (h, -h))
    assert sol.converged and up.converged and down.converged
    fd = [(up.mu - down.mu) / (2.0 * h), (up.Delta0 - down.Delta0) / (2.0 * h)]
    np.testing.assert_allclose(sol.tangent, fd, rtol=1e-4, atol=0.0)


@pytest.mark.parametrize("ratio, n", [(1.0, 0.02), (1.6375, 0.0422), (0.6, 0.02),
                                      (1.025, 0.02), (2.0, 0.02)])
def test_gap_at_mu_does_not_depend_on_a_tiny_seed(params, ratio, n):
    # at mu = eps_F the gap is of order eps0; a seed far below it must not
    # end in the "gap below resolution" answer Delta0 = 0
    U = ratio * critical_coupling(params)
    mu = params.fermi_energy(n)
    root, _ = _gap_at_mu(mu, U, params)
    assert root > 0.01 * params.eps0
    for seed in (1e-3, 1e-6, 1e-9):
        D, _ = _gap_at_mu(mu, U, params, guess=seed)
        assert D == pytest.approx(root, rel=1e-10)


def test_gap_at_mu_reports_no_resolvable_root_as_zero(params):
    # no root below the dissociation edge -E_b/2, and at U = 0.1 U_c the gap
    # at mu = eps_F lies below resolution: each answer takes a few integrals,
    # not a bisection down to the floor or to the first quadrature failure
    U = 2.0 * critical_coupling(params)
    D, integrals = _gap_at_mu(-bound_state_energy(U, params), U, params)
    assert D == 0.0 and integrals <= 10
    mu = params.fermi_energy(1e-4)
    for seed in (None, 1e-6):
        D, integrals = _gap_at_mu(mu, 0.1 * critical_coupling(params), params, guess=seed)
        assert D == 0.0 and integrals <= 10


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


def test_cold_solve_quadrature_budget(params, integral_count):
    # an exact count: every cold solve on this grid takes at most 50 integrals
    Uc = critical_coupling(params)
    for ratio in (0.6, 1.0, 1.2, 2.0, 4.0):
        for n in (0.003, 0.02, 0.1):
            before = integral_count()
            sol = solve_self_consistent(ratio * Uc, n, params)
            assert sol.converged
            assert integral_count() - before <= 50, (ratio, n, integral_count() - before)


@pytest.mark.parametrize("units", ["dimensionless", "physical"])
def test_gap_below_resolution_is_the_free_gas(units, integral_count):
    # at 0.1 U_c, n = 1e-4 the gap lies far below resolution: the solve
    # returns the free gas in closed form, in a few integrals
    params = _params(units)
    n = 1e-4 * params.k0**3
    sol = solve_self_consistent(0.1 * critical_coupling(params), n, params)
    assert integral_count() <= 20
    assert sol.converged and sol.note == "gap below resolution"
    assert sol.Delta0 == 0.0 and sol.mu == params.fermi_energy(n)
    assert sol.residual_number == 0.0 and math.isnan(sol.residual_gap)
    assert sol.tangent is None


def test_locate_mu_zero_quadrature_budget(params, integral_count):
    # an exact count: the crossing at n = 0.02, to 1e-6 U_c, takes at most 50 integrals
    locate_mu_zero(REFERENCE_N, params)
    assert integral_count() <= 50


def test_cold_solve_reports_an_exhausted_budget(params, monkeypatch):
    # past _MAX_ITER the mu search stops and hands back its best probe, unconverged
    monkeypatch.setattr(bcsbec.gap, "_MAX_ITER", 10)
    sol = solve_self_consistent(2.0 * critical_coupling(params), REFERENCE_N, params)
    assert not sol.converged
    assert sol.note == "mu search exhausted the budget"
    assert sol.iterations > 10 and sol.Delta0 > 0
    assert sol.residual_number == pytest.approx(
        number_residual(sol.Delta0, sol.mu, REFERENCE_N, params), rel=1e-12)


def test_validation_errors(params):
    with pytest.raises(ValueError):
        solve_self_consistent(-1.0, REFERENCE_N, params)
    with pytest.raises(ValueError):
        solve_self_consistent(1.0, -1.0, params)
    with pytest.raises(ValueError):
        gap_residual(-0.1, 0.0, 1.0, params)
    with pytest.raises(ValueError):
        number_residual(-0.1, 0.0, REFERENCE_N, params)
    with pytest.raises(ValueError):
        number_residual(0.1, 0.0, 0.0, params)
    # 1e300 U_c is finite but its E_b = 2 eps0 (U/U_c - 1)^2 overflows
    for U in (0.0, math.nan, math.inf, 1e300 * critical_coupling(params)):
        with pytest.raises(ValueError):
            bound_state_energy(U, params)


def test_sweep_records_failures_inline(params):
    # an absurd tolerance cannot be met; the sweep must not raise
    sols = sweep_coupling(
        [2.0 * critical_coupling(params)], REFERENCE_N, params, tol_gap=1e-17,
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
    open_end=st.sampled_from([None, "lo", "hi"]),
    slope=st.sampled_from(["exact", "zero", "nan", "wrong sign"]),
    log_xtol=st.floats(-12.0, -2.0),
)
def test_safe_newton_keeps_its_bracket(kind, root, c, below, above, start, open_end, slope,
                                       log_xtol):
    g, dg = MONOTONE_FUNCTIONS[kind]
    lo, hi = root - below, root + above
    x0 = lo + start * (hi - lo)
    if not lo < x0 < hi:
        x0 = 0.5 * (lo + hi)
    if open_end == "lo":
        lo = -math.inf
    elif open_end == "hi":
        hi = math.inf
    xtol, cap = 10.0**log_xtol, 1.0
    bad = {"exact": None, "zero": lambda x: 0.0, "nan": lambda x: math.nan,
           "wrong sign": lambda x: -dg(x, root, c)}[slope]
    iterates = []

    def f(x):
        iterates.append(x)
        return g(x, root, c), (bad or (lambda x: dg(x, root, c)))(x)

    x, evals = _safe_newton(f, x0, lo, hi, xtol, 200, cap)
    assert evals == len(iterates)
    assert abs(x - root) <= xtol
    # every iterate lies inside the bracket its predecessors left; with a bad
    # slope each step is a bisection, or a step of cap toward an open end
    a, b = lo, hi
    for prev, nxt in zip(iterates, iterates[1:] + [None]):
        assert a < prev < b
        fx = g(prev, root, c)
        a, b = (prev, b) if fx < 0.0 else (a, prev)
        if bad and nxt is not None:
            expected = 0.5 * (a + b)
            if math.isinf(expected):
                expected = prev + math.copysign(cap, -fx)
            assert nxt == expected
    # the same run with one evaluation fewer runs out of budget
    if evals > 1:
        iterates.clear()
        with pytest.raises(RuntimeError, match="no root within"):
            _safe_newton(f, x0, lo, hi, xtol, evals - 1, cap)
