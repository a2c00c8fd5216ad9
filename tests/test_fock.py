"""Exact 2^M Fock-space oracle: operators, states, and defining identities."""

import numpy as np
import pytest

from bcsbec.coherent import (
    bcs_overlap,
    build_fock_oracle,
    eta_statistics,
    number_phase_derivative_check,
    random_pair_ensemble,
)
from bcsbec.coherent.fock import FockOracle


def test_mode_cap():
    with pytest.raises(ValueError):
        FockOracle(theta=np.full(13, 0.3))
    with pytest.raises(ValueError):
        FockOracle(theta=np.array([]))


def test_pair_operators_single_mode():
    orc = FockOracle(theta=np.array([0.7]), phi=0.0)
    s_minus = orc.s_minus(0).toarray()
    assert np.array_equal(s_minus, np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_pair_raising_squares_to_zero():
    orc = FockOracle(theta=np.array([0.3, 0.9, 1.2]))
    for k in range(3):
        sp = orc.s_minus(k).T
        assert abs(sp @ sp).max() == 0.0


def test_b_is_the_weighted_mode_sum():
    theta = np.array([0.4, 1.0])
    orc = FockOracle(theta=theta)
    manual = sum(
        theta[k] * orc.s_minus(k) for k in range(2)
    ) / np.sqrt(np.sum(theta**2))
    assert abs((orc.b - manual)).max() < 1e-15


def test_single_mode_commutator_and_eta():
    theta = 0.7
    orc = FockOracle(theta=np.array([theta]), phi=0.2)
    # Omega = theta^2, so [b, b+] = diag(1, -1) and eta = I - [b,b+] = diag(0, 2)
    comm = orc.commutator_b.toarray()
    assert np.allclose(comm, np.diag([1.0, -1.0]), atol=1e-15)
    eta = orc.eta_op.toarray()
    assert np.allclose(eta, np.diag([0.0, 2.0]), atol=1e-15)
    moments = orc.eta_moments()
    assert moments["mean"] == pytest.approx(2.0 * np.sin(theta) ** 2, rel=1e-14)


def test_single_mode_eta_matches_occupancy_identity():
    # for a consistent ensemble, <eta> on one mode equals 1 - eps/xi exactly
    ens = random_pair_ensemble(1, np.random.default_rng(3))
    orc = build_fock_oracle(ens)
    occupancy = 1.0 - ens.eps[0] / ens.xi()[0]
    assert orc.eta_moments()["mean"] == pytest.approx(occupancy, abs=1e-14)


def test_state_normalization_and_amplitudes():
    rng = np.random.default_rng(11)
    ens = random_pair_ensemble(6, rng, phi=0.45)
    orc = build_fock_oracle(ens)
    psi = orc.state(ens.phi)
    assert np.vdot(psi, psi).real == pytest.approx(1.0, abs=1e-14)
    # the vacuum component is the product of cosines
    assert psi[0] == pytest.approx(np.prod(np.cos(ens.theta)), abs=1e-14)
    # the fully paired component carries e^{i M phi} times the sine product
    full = (1 << 6) - 1
    expected = np.exp(1j * 6 * ens.phi) * np.prod(np.sin(ens.theta))
    assert psi[full] == pytest.approx(expected, abs=1e-14)


def test_overlap_matches_closed_form():
    rng = np.random.default_rng(21)
    ens = random_pair_ensemble(7, rng)
    orc = build_fock_oracle(ens)
    for dphi in (0.3, 1.7, -2.2):
        exact = orc.overlap(ens.phi, ens.phi + dphi)
        closed = bcs_overlap(ens.theta, dphi)
        assert abs(exact - closed) < 1e-13


def test_eta_moments_match_analytic_statistics():
    for seed in (1, 5, 9):
        ens = random_pair_ensemble(8, np.random.default_rng(seed))
        orc = build_fock_oracle(ens)
        stats = eta_statistics(ens)
        moments = orc.eta_moments()
        assert abs(stats["mean"] - moments["mean"]) < 1e-12
        assert abs(stats["variance"] - moments["variance"]) < 1e-12


def test_number_phase_derivative():
    ens = random_pair_ensemble(4, np.random.default_rng(7))
    orc = build_fock_oracle(ens)
    h = 1e-3
    grid = 0.3 + h * np.arange(-3, 4)
    dev = number_phase_derivative_check(orc, 4, grid)
    assert dev <= 1e-5
    fine = 0.3 + 0.5 * h * np.arange(-3, 4)
    dev_fine = number_phase_derivative_check(orc, 4, fine)
    assert 3.5 <= dev / dev_fine <= 4.5
    # odd particle numbers have no support in the pair space
    assert number_phase_derivative_check(orc, 3, grid) == 0.0


def test_number_phase_grid_validation():
    ens = random_pair_ensemble(3, np.random.default_rng(1))
    orc = build_fock_oracle(ens)
    with pytest.raises(ValueError):
        number_phase_derivative_check(orc, 2, np.array([0.0, 0.1, 0.2]))
    with pytest.raises(ValueError):
        number_phase_derivative_check(orc, 2, np.array([0.0, 0.1, 0.15, 0.3, 0.4]))
    with pytest.raises(ValueError):
        number_phase_derivative_check(orc, -2, np.linspace(0.0, 0.4, 5))
