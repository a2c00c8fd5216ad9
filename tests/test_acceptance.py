"""Acceptance gate: eleven end-to-end criteria, one reported line each.

Each test measures its figure of merit, records a PASS/FAIL line through
the session reporter (replayed in the terminal summary), then asserts.
Frozen reference numbers come from independent oracles: dense Simpson
grids for the gap equations, exact 2^M Fock enumeration for the pair
algebra, grid diagonalization for the oscillator, closed forms elsewhere.
"""

import math
import time

import numpy as np
import pytest

from bcsbec.chain import ChainGroundState, josephson_energy
from bcsbec.checks import (
    check_eta_oracle,
    check_number_phase,
    check_odlro_slope,
    check_oscillator_oracle,
    check_overlap_decay,
    check_pegg_barnett,
    check_phase_lock,
)
from bcsbec.cli import main as cli_main
from bcsbec.core import PhysicalParams, critical_coupling
from bcsbec.diagram import critical_hopping, refine_hopping_boundary, sweep_diagram
from bcsbec.gap import bound_state_energy, locate_mu_zero, sweep_coupling
from bcsbec.quadrature import radial_integral

DENSITY = 2e-2
U_CROSSING_REF = 1.74445063  # located once at coarse tolerance, frozen


@pytest.fixture(scope="module")
def dimless():
    return PhysicalParams.dimensionless()


@pytest.fixture(scope="module")
def sweep50(dimless):
    """Fifty-point coupling sweep at fixed density (criteria 2 and 3)."""
    t0 = time.monotonic()
    u_c = critical_coupling(dimless)
    ratios = np.linspace(0.5, 4.0, 50)
    solutions = sweep_coupling(ratios * u_c, DENSITY, dimless)
    return ratios, solutions, u_c, time.monotonic() - t0


@pytest.fixture(scope="module")
def diagram_ec50():
    """Physical-units diagram cross-section at fixed charging energy."""
    t0 = time.monotonic()
    params = PhysicalParams.free_electron(k0=1.41)
    n = DENSITY * params.k0**3
    e_c = 50e-6  # eV
    u_c = critical_coupling(params)
    ratios = np.linspace(0.5, 4.0, 12)
    g_grid = np.linspace(1e-3, 5e-2, 12)
    cells = sweep_diagram(ratios * u_c, e_c, g_grid, n, params)
    return params, n, e_c, u_c, ratios, g_grid, cells, time.monotonic() - t0


def test_01_pairing_threshold(dimless, acceptance_report):
    t0 = time.monotonic()
    u_c = critical_coupling(dimless)
    e_b = bound_state_energy(u_c, dimless)
    kernel = radial_integral(lambda k: 1.0 / ((1.0 + k**2) * 2.0 * k**2))
    identity_dev = abs(u_c * float(kernel[0]) - 1.0)
    elapsed = time.monotonic() - t0
    ok = (
        e_b is not None
        and abs(e_b) <= 1e-8 * dimless.eps0
        and identity_dev <= 1e-10
        and elapsed < 1.0
    )
    acceptance_report(
        f"[acceptance 01] {'PASS' if ok else 'FAIL'} threshold coupling: "
        f"|E_b| = {abs(e_b if e_b is not None else math.nan):.1e} "
        f"(tol 1e-8 eps0), kernel identity dev {identity_dev:.1e} "
        f"(tol 1e-10), {elapsed:.2f}s"
    )
    assert ok


def test_02_coupling_sweep(dimless, sweep50, acceptance_report):
    ratios, solutions, u_c, elapsed = sweep50
    t0 = time.monotonic()
    mus = np.array([s.mu for s in solutions])
    gaps = np.array([s.Delta0 for s in solutions])
    converged = all(s.converged for s in solutions)
    gap_up = bool(np.all(np.diff(gaps) > 0.0))
    mu_down = bool(np.all(np.diff(mus) < 0.0))
    crossings = int(np.sum((mus[:-1] > 0.0) & (mus[1:] < 0.0)))
    max_rg = max(abs(s.residual_gap) for s in solutions)
    max_rn = max(abs(s.residual_number) for s in solutions)

    u_star, sol_star = locate_mu_zero(DENSITY, dimless, tol_rel=1e-6)
    u_star_fine, _ = locate_mu_zero(DENSITY, dimless, tol_rel=1e-7)
    located = abs(u_star - u_star_fine) <= 1.2e-6 * u_star
    idx = int(np.searchsorted(ratios, u_star / u_c)) - 1
    bracketed = mus[idx] > 0.0 > mus[idx + 1]
    sane = abs(u_star / u_c - U_CROSSING_REF) < 5e-4
    eps_f = (3.0 * math.pi**2 * DENSITY) ** (2.0 / 3.0) * dimless.half_hbar2_over_m
    elapsed += time.monotonic() - t0

    ok = (
        converged
        and gap_up
        and mu_down
        and crossings == 1
        and located
        and bracketed
        and sane
        and abs(sol_star.mu) <= 1e-4 * eps_f
        and max_rg <= 1e-10
        and max_rn <= 1e-8
        and elapsed < 30.0
    )
    acceptance_report(
        f"[acceptance 02] {'PASS' if ok else 'FAIL'} coupling sweep: "
        f"50 points converged={converged}, gap increasing={gap_up}, "
        f"mu decreasing={mu_down}, sign changes={crossings}, "
        f"crossing U/U_c = {u_star / u_c:.8f} (located to 1e-6), "
        f"residuals ({max_rg:.1e}, {max_rn:.1e}), {elapsed:.1f}s"
    )
    assert ok


def test_03_strong_coupling_edge(dimless, sweep50, acceptance_report):
    ratios, solutions, u_c, _ = sweep50
    t0 = time.monotonic()
    assert ratios[-1] == 4.0
    sol = solutions[-1]
    e_b = bound_state_energy(4.0 * u_c, dimless)
    rel = abs(sol.mu + 0.5 * e_b) / abs(sol.mu)
    elapsed = time.monotonic() - t0
    ok = rel <= 0.10 and elapsed < 5.0
    acceptance_report(
        f"[acceptance 03] {'PASS' if ok else 'FAIL'} strong-coupling edge: "
        f"|mu + E_b/2| / |mu| = {rel:.4f} at U/U_c = 4 (tol 0.10), "
        f"{elapsed:.2f}s"
    )
    assert ok


def test_04_eta_statistics_oracle(acceptance_report):
    t0 = time.monotonic()
    result = check_eta_oracle(seed=1234)
    elapsed = time.monotonic() - t0
    ok = result.passed and elapsed < 10.0
    acceptance_report(
        f"[acceptance 04] {'PASS' if ok else 'FAIL'} eta vs Fock oracle: "
        f"{result.detail}, {elapsed:.1f}s"
    )
    assert ok


def test_05_overlap_decay_rate(acceptance_report):
    t0 = time.monotonic()
    result = check_overlap_decay()
    elapsed = time.monotonic() - t0
    ok = result.passed and elapsed < 1.0
    acceptance_report(
        f"[acceptance 05] {'PASS' if ok else 'FAIL'} overlap decay: "
        f"{result.detail}, {elapsed:.2f}s"
    )
    assert ok


def test_06_phase_operator_ladder(acceptance_report):
    t0 = time.monotonic()
    result = check_pegg_barnett()
    elapsed = time.monotonic() - t0
    ok = result.passed and elapsed < 10.0
    acceptance_report(
        f"[acceptance 06] {'PASS' if ok else 'FAIL'} phase-operator ladder: "
        f"{result.detail}, {elapsed:.1f}s"
    )
    assert ok


def test_07_number_phase_derivative(acceptance_report):
    t0 = time.monotonic()
    result = check_number_phase()
    elapsed = time.monotonic() - t0
    ok = result.passed and elapsed < 5.0
    acceptance_report(
        f"[acceptance 07] {'PASS' if ok else 'FAIL'} number-phase derivative: "
        f"{result.detail}, {elapsed:.1f}s"
    )
    assert ok


def test_08_phase_locking(acceptance_report):
    t0 = time.monotonic()
    result = check_phase_lock()
    elapsed = time.monotonic() - t0
    ok = result.passed and elapsed < 30.0
    acceptance_report(
        f"[acceptance 08] {'PASS' if ok else 'FAIL'} phase locking: "
        f"{result.detail}, {elapsed:.1f}s"
    )
    assert ok


def test_09_chain_variances_and_odlro(acceptance_report):
    t0 = time.monotonic()
    slope = check_odlro_slope()
    osc = check_oscillator_oracle()
    ground = ChainGroundState.for_chain(1.0, 2.0)
    conventions = (
        ground.sigma2 == pytest.approx(1.0, rel=1e-12)
        and ground.variance_oscillator == pytest.approx(2.0, rel=1e-12)
        and ground.variance_gaussian_form == pytest.approx(0.5, rel=1e-12)
        and ground.factor_discrepancy is True
    )
    elapsed = time.monotonic() - t0
    ok = slope.passed and osc.passed and conventions and elapsed < 5.0
    acceptance_report(
        f"[acceptance 09] {'PASS' if ok else 'FAIL'} chain coherence: "
        f"{slope.detail}; {osc.detail}; both variance conventions "
        f"reported with discrepancy flag={ground.factor_discrepancy}, "
        f"{elapsed:.1f}s"
    )
    assert ok


def test_10_diagram_cross_section(diagram_ec50, acceptance_report):
    params, n, e_c, u_c, ratios, g_grid, cells, elapsed = diagram_ec50
    t0 = time.monotonic()
    converged = all(c.solution.converged for c in cells)
    labels = {(c.label.pairing, c.label.coherence) for c in cells if c.label}
    four = {
        ("BCS", "global"),
        ("BCS", "local"),
        ("BEC", "global"),
        ("BEC", "local"),
    }
    all_four = four <= labels

    n_g = len(g_grid)
    mus, g_stars = [], []
    max_ej_dev = 0.0
    max_bisect_dev = 0.0
    single_transition = True
    for i in range(len(ratios)):
        column = cells[i * n_g : (i + 1) * n_g]
        ref = column[0].solution
        g_star = critical_hopping(ref, e_c)
        g_bis = refine_hopping_boundary(ref.Delta0, e_c, ref.U, rtol=1e-12)
        max_bisect_dev = max(max_bisect_dev, abs(g_star - g_bis) / g_star)
        e_j_star = josephson_energy(
            g_star, ref.U, ref.Delta0 / ref.U, ref.Delta0 / ref.U
        )
        max_ej_dev = max(max_ej_dev, abs(e_j_star - 2.0 * e_c) / (2.0 * e_c))
        mus.append(ref.mu)
        g_stars.append(g_star)

        coherence = [c.label.coherence for c in column]
        split = next(
            (j for j, lab in enumerate(coherence) if lab == "global"), n_g
        )
        clean = all(lab == "local" for lab in coherence[:split]) and all(
            lab == "global" for lab in coherence[split:]
        )
        inside = 0 < split < n_g
        bracket_ok = inside and g_grid[split - 1] < g_star <= g_grid[split]
        single_transition = single_transition and clean and (
            bracket_ok or not inside
        )

    monotone = bool(
        np.all(np.diff(mus) < 0.0) and np.all(np.diff(g_stars) < 0.0)
    )
    elapsed += time.monotonic() - t0
    ok = (
        converged
        and all_four
        and monotone
        and single_transition
        and max_ej_dev <= 1e-9
        and max_bisect_dev <= 1e-9
        and elapsed < 60.0
    )
    acceptance_report(
        f"[acceptance 10] {'PASS' if ok else 'FAIL'} diagram cross-section: "
        f"{len(cells)} cells converged={converged}, regimes={sorted(labels)}, "
        f"boundary monotone={monotone}, single transition per column="
        f"{single_transition}, |E_J(G*) - 2E_c| rel {max_ej_dev:.1e} "
        f"(tol 1e-9), closed form vs bisection {max_bisect_dev:.1e}, "
        f"{elapsed:.1f}s"
    )
    assert ok


def test_11_deterministic_output(tmp_path, acceptance_report):
    t0 = time.monotonic()
    identical = True
    for argv, filename in (
        (["gap-sweep", "--points", "4", "--u-min", "1.0", "--u-max", "2.5"],
         "gap_sweep.csv"),
        (["oracle", "--modes", "5", "--seed", "42"], "oracle.csv"),
    ):
        paths = []
        for tag in ("first", "second"):
            out = tmp_path / f"{filename}.{tag}"
            code = cli_main(argv + ["--out", str(out)])
            assert code == 0
            paths.append(out / filename)
        identical = identical and (
            paths[0].read_bytes() == paths[1].read_bytes()
        )
    elapsed = time.monotonic() - t0
    ok = identical and elapsed < 30.0
    acceptance_report(
        f"[acceptance 11] {'PASS' if ok else 'FAIL'} determinism: repeated "
        f"runs byte-identical={identical}, {elapsed:.1f}s"
    )
    assert ok
