"""Regime classification over coupling, charging energy, and hopping."""

import numpy as np
import pytest

from bcsbec.core import PhysicalParams, critical_coupling
from bcsbec.diagram import (
    classify_point,
    critical_hopping,
    refine_hopping_boundary,
    sweep_diagram,
)
from bcsbec.gap import GapSolution, solve_self_consistent
from bcsbec.quadrature import QuadratureError

N_REF = 2e-2


@pytest.fixture(scope="module")
def params():
    return PhysicalParams.dimensionless()


@pytest.fixture(scope="module")
def solved(params):
    u = 2.0 * critical_coupling(params)
    return u, solve_self_consistent(u, N_REF, params)


def test_classify_point_reuses_solution(params, solved):
    u, sol = solved
    cell = classify_point(sol, 1e-5, 1e-2, params)
    assert (cell.U, cell.n, cell.solution) == (u, N_REF, sol)
    assert cell.converged
    assert cell.label.pairing == "BEC"  # mu < 0 at U = 2 U_c
    assert cell.mu == sol.mu
    assert cell.E_J == pytest.approx(0.5 * 1e-2**2 * sol.Delta0, rel=1e-12)


def test_zero_hopping_is_local(params, solved):
    _, sol = solved
    cell = classify_point(sol, 1e-5, 0.0, params)
    assert cell.label.coherence == "local"
    assert cell.sigma2 == np.inf


def test_label_consistency(params, solved):
    _, sol = solved
    e_c = 1e-5
    g_star = critical_hopping(sol, e_c, params)
    for g in (0.5 * g_star, 2.0 * g_star):
        cell = classify_point(sol, e_c, g, params)
        expected = "global" if g > g_star else "local"
        assert cell.label.coherence == expected
    at_boundary = classify_point(sol, e_c, g_star, params)
    assert at_boundary.label.coherence == "boundary"


def test_pairing_label_tracks_mu_sign(params):
    weak = solve_self_consistent(0.5 * critical_coupling(params), N_REF, params)
    cell = classify_point(weak, 1e-5, 1e-2, params)
    assert cell.label.pairing == "BCS"


def test_critical_hopping_closed_form_vs_bisection(params, solved):
    u, sol = solved
    e_c = 1e-5
    g_star = critical_hopping(sol, e_c, params)
    assert g_star == pytest.approx(np.sqrt(4.0 * e_c / sol.Delta0), rel=1e-14)
    g_bis = refine_hopping_boundary(sol.Delta0, e_c, u)
    assert abs(g_bis - g_star) <= 2e-9 * g_star
    # the boundary condition itself holds to machine precision
    ej = 0.5 * g_star**2 * sol.Delta0
    assert abs(ej - 2.0 * e_c) <= 1e-12 * (2.0 * e_c)


def test_critical_hopping_rejects_unresolved_gap(params):
    fake = GapSolution(U=1.0, n=N_REF, mu=0.5, Delta0=0.0, residual_gap=0.0,
                       residual_number=0.0, iterations=1, converged=True)
    with pytest.raises(ValueError):
        critical_hopping(fake, 1e-5, params)


def test_unrepresentable_boundary_raises(params):
    # at E_c = 1e300, Delta0 = 1e-10 the closed form's quotient E_c/Delta0
    # overflows; the bisection still finds G* = 2e155, where E_J = 2e300
    sol = GapSolution(U=1.0, n=N_REF, mu=0.5, Delta0=1e-10, residual_gap=0.0,
                      residual_number=0.0, iterations=1, converged=True)
    with pytest.raises(ValueError, match="not representable"):
        critical_hopping(sol, 1e300, params)
    assert refine_hopping_boundary(1e-10, 1e300, 1.0) == pytest.approx(2e155, rel=1e-9)
    # at E_c = 1e308 the target E_J = 2 E_c is itself not representable; an
    # uncapped doubling would stop at an overflowed E_J
    with pytest.raises(ValueError, match="overflows"):
        refine_hopping_boundary(1e-10, 1e308, 1.0)


def test_unconverged_solution_gives_unlabeled_cell(params):
    bad = GapSolution(U=1.0, n=N_REF, mu=np.nan, Delta0=np.nan, residual_gap=np.nan,
                      residual_number=np.nan, iterations=0, converged=False)
    cell = classify_point(bad, 1e-5, 1e-2, params)
    assert not cell.converged
    assert cell.label is None


def test_sweep_shapes_and_order(params):
    uc = critical_coupling(params)
    u_grid = np.array([1.5, 2.5]) * uc
    ec_grid = np.array([1e-5])
    g_grid = np.array([1e-3, 1e-2, 5e-2])
    cells = sweep_diagram(u_grid, ec_grid, g_grid, N_REF, params=params)
    assert len(cells) == 6
    # row-major: U outermost, G innermost
    assert [c.U for c in cells] == pytest.approx(
        list(np.repeat(u_grid, 3)), rel=1e-15
    )
    assert [c.G for c in cells[:3]] == pytest.approx(list(g_grid), rel=1e-15)
    assert all(c.converged for c in cells)
    # each cell carries the real solution it was classified from
    for c in cells:
        assert c.solution.converged
        assert c.solution.iterations > 0
        assert (c.solution.mu, c.solution.Delta0) == (c.mu, c.Delta0)
    # a 1x1x1 sweep reduces to classify_point
    single = sweep_diagram(u_grid[:1], ec_grid, g_grid[:1], N_REF, params=params)[0]
    sol = solve_self_consistent(u_grid[0], N_REF, params)
    direct = classify_point(sol, ec_grid[0], g_grid[0], params)
    assert single.label == direct.label
    assert single.mu == pytest.approx(direct.mu, abs=1e-10)


def test_numeric_solver_failure_gives_unlabeled_cells(params, monkeypatch):
    def fail(*args, **kwargs):
        raise QuadratureError("panel budget exhausted")

    monkeypatch.setattr("bcsbec.diagram.solve_self_consistent", fail)
    cells = sweep_diagram([1.0, 2.0], [1e-5], [1e-3, 1e-2], N_REF, params=params)
    assert len(cells) == 4
    for cell in cells:
        assert cell.label is None and not cell.converged and cell.solution is None
        assert cell.note == "solver failed: panel budget exhausted"


def test_solver_bug_propagates(params, monkeypatch):
    def bug(*args, **kwargs):
        raise TypeError("solver bug")

    monkeypatch.setattr("bcsbec.diagram.solve_self_consistent", bug)
    # the match rules out a TypeError raised by the call itself
    with pytest.raises(TypeError, match="^solver bug$"):
        sweep_diagram([1.0], [1e-5], [1e-2], N_REF, params=params)


def test_boundary_monotone_in_coupling(params):
    uc = critical_coupling(params)
    stars = []
    guess = None
    for ratio in (1.0, 2.0, 3.0):
        sol = solve_self_consistent(ratio * uc, N_REF, params, initial_guess=guess)
        guess = (sol.mu, sol.Delta0)
        stars.append(critical_hopping(sol, 1e-5, params))
    # Delta0 grows with U, so the boundary hopping falls
    assert stars[0] > stars[1] > stars[2]


def test_grid_validation(params, solved):
    with pytest.raises(ValueError):
        sweep_diagram([], [1e-5], [1e-2], N_REF, params=params)
    with pytest.raises(ValueError):
        sweep_diagram([2.0, 1.0], [1e-5], [1e-2], N_REF, params=params)
    _, sol = solved
    with pytest.raises(ValueError):
        classify_point(sol, -1.0, 1e-2, params)
    with pytest.raises(ValueError):
        classify_point(sol, 1e-5, -1e-2, params)
