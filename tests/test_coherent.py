"""Pair ensembles and the closed-form overlap and eta statistics."""

import math

import numpy as np
import pytest

from bcsbec.coherent import (
    PairEnsemble,
    bcs_overlap,
    bec_overlap,
    eta_statistics,
    random_pair_ensemble,
)
from bcsbec.gap import GapSolution


def _solution(mu, Delta0):
    return GapSolution(U=2.0, n=1e-2, mu=mu, Delta0=Delta0, residual_gap=0.0,
                       residual_number=0.0, iterations=1, converged=True)


def test_pair_ensemble_validation():
    with pytest.raises(ValueError):
        PairEnsemble(k=np.array([]), eps=np.array([]), theta=np.array([]))
    with pytest.raises(ValueError):
        PairEnsemble(k=np.array([1.0]), eps=np.array([0.5]), theta=np.array([2.0]))


def test_pair_ensemble_omega_defaults_to_theta_norm():
    theta = np.array([0.3, 0.7, 1.1])
    ens = PairEnsemble(k=np.arange(1.0, 4.0), eps=np.zeros(3), theta=theta)
    assert ens.Omega == pytest.approx(float(np.sum(theta**2)), rel=1e-14)
    assert ens.n_modes == 3


def test_from_gap_solution_half_angle_vs_literal():
    sol = _solution(mu=0.5, Delta0=1.0)
    # grid straddling the Fermi point k^2 = mu, including it exactly
    k = np.array([0.2, np.sqrt(0.5), 1.5])
    half = PairEnsemble.from_gap_solution(sol, k)
    literal = PairEnsemble.from_gap_solution(sol, k, convention="literal")
    y = sol.Delta0 / np.sqrt(1.0 + k**2)
    eps = k**2 - sol.mu
    assert np.allclose(half.theta, 0.5 * np.arctan2(y, eps))
    # at eps = 0 the half-angle is pi/4 while the literal angle jumps to pi/2
    assert half.theta[1] == pytest.approx(np.pi / 4.0, rel=1e-12)
    assert literal.theta[1] == pytest.approx(np.pi / 2.0, rel=1e-12)
    # below the Fermi point the conventions genuinely differ
    assert abs(half.theta[0] - literal.theta[0]) > 0.1
    with pytest.raises(ValueError):
        PairEnsemble.from_gap_solution(sol, k, convention="other")


def test_xi_method():
    sol = _solution(mu=-0.4, Delta0=2.0)
    k = np.linspace(0.1, 3.0, 7)
    ens = PairEnsemble.from_gap_solution(sol, k)
    expected = np.hypot(k**2 - sol.mu, sol.Delta0 / np.sqrt(1.0 + k**2))
    assert np.allclose(ens.xi(), expected, rtol=1e-14)


def test_random_pair_ensemble_reproducible():
    a = random_pair_ensemble(6, np.random.default_rng(42))
    b = random_pair_ensemble(6, np.random.default_rng(42))
    assert np.array_equal(a.theta, b.theta)
    assert np.array_equal(a.k, b.k)
    assert a.phi == b.phi
    assert np.all(a.theta > 0.0) and np.all(a.theta < 0.5 * np.pi)
    assert np.all(np.diff(a.k) >= 0.0)


def test_bcs_overlap_basics():
    assert bcs_overlap(np.array([0.3, 1.1]), 0.0) == pytest.approx(1.0, abs=1e-15)
    value = bcs_overlap(np.array([np.pi / 4.0]), np.pi / 2.0)
    assert value == pytest.approx(0.5 + 0.5j, abs=1e-15)
    assert bcs_overlap([], 1.0) == 1.0
    with pytest.raises(ValueError):
        bcs_overlap(np.array([2.0]), 0.3)


def test_bcs_overlap_is_the_python_product_of_its_factors():
    rng = np.random.default_rng(8)
    for m in (1, 2, 7, 12, 100, 200):
        theta = rng.uniform(0.0, 0.5 * np.pi, m)
        for dphi in (0.0, 0.5 * np.pi, float(rng.uniform(-7.0, 7.0))):
            phase = complex(math.cos(dphi), math.sin(dphi))
            product = 1.0
            for c, s in zip(np.cos(theta).tolist(), np.sin(theta).tolist()):
                product *= c * c + phase * (s * s)
            value = bcs_overlap(theta, dphi)
            assert (value.real, value.imag) == (product.real, product.imag)


def test_bcs_overlap_multiplicative_and_conjugate():
    rng = np.random.default_rng(5)
    a = rng.uniform(0.0, 0.5 * np.pi, 4)
    b = rng.uniform(0.0, 0.5 * np.pi, 3)
    dphi = 0.8
    combined = bcs_overlap(np.concatenate([a, b]), dphi)
    assert combined == pytest.approx(bcs_overlap(a, dphi) * bcs_overlap(b, dphi), rel=1e-14)
    assert bcs_overlap(a, -dphi) == pytest.approx(np.conj(bcs_overlap(a, dphi)), rel=1e-14)


def test_bec_overlap_closed_form():
    # M identical modes: |overlap| = exp(-M alpha^2 (1 - cos dphi))
    m, alpha, dphi = 200, 0.3, 0.5 * np.pi
    value = bec_overlap(np.full(m, alpha), dphi)
    assert abs(value) == pytest.approx(np.exp(-m * alpha**2), rel=1e-12)
    assert np.angle(value) == pytest.approx(
        np.angle(np.exp(m * alpha**2 * (np.exp(1j * dphi) - 1.0))), abs=1e-12
    )


def test_bec_overlap_underflows_gracefully():
    value = bec_overlap(np.full(5000, 1.0), np.pi)
    assert value == 0.0  # exp(-10000), far below double range, no warning


def test_bec_overlap_with_itself_is_one_at_any_amplitude():
    # sum alpha^2 overflows at 1e200: the zero rotation still gives exactly 1,
    # and any other rotation the limit 0, with no RuntimeWarning
    assert bec_overlap([1e200], 0.0) == 1.0
    assert bec_overlap([1e200, 1e200], -1.0) == 0.0
    assert bec_overlap([1e200], 1e-10) == 0.0


def test_bec_overlap_keeps_a_tiny_rotation():
    # 1 - cos(1e-9) rounds to 0; 2 sin^2(dphi/2) keeps the modulus
    # exp(-alpha^2 dphi^2 / 2) = exp(-50)
    value = bec_overlap([1e10], 1e-9)
    assert abs(value) == pytest.approx(np.exp(-50.0), rel=1e-12)


def test_bec_overlap_validation():
    with pytest.raises(ValueError):
        bec_overlap(np.array([-0.1]), 0.5)
    assert bec_overlap(np.array([]), 0.5) == 1.0


def test_eta_statistics_requires_gap_context():
    ens = PairEnsemble(k=np.array([1.0]), eps=np.array([0.5]), theta=np.array([0.4]))
    with pytest.raises(ValueError):
        eta_statistics(ens)


def test_eta_statistics_requires_a_paired_mode():
    # Omega = 0 (a free gas, no mode below eps_F): b = Omega^{-1/2} sum theta S-
    # does not exist, so there is no eta to average
    ens = PairEnsemble(k=np.array([1.0, 2.0]), eps=np.array([0.5, 3.5]),
                       theta=np.zeros(2), Delta0=0.0)
    assert ens.Omega == 0.0
    with pytest.raises(ValueError, match="Omega = 0"):
        eta_statistics(ens)


def test_eta_statistics_far_above_fermi():
    sol = _solution(mu=0.1, Delta0=0.05)
    ens = PairEnsemble.from_gap_solution(sol, np.linspace(20.0, 30.0, 5))
    stats = eta_statistics(ens)
    assert 0.0 <= stats["mean"] < 1e-4
    assert 0.0 <= stats["variance"] < 1e-8


def test_eta_mean_range():
    # the occupancy counts both spins, so the weighted mean stays in [0, 2]
    for seed in range(10):
        ens = random_pair_ensemble(8, np.random.default_rng(seed))
        stats = eta_statistics(ens)
        assert 0.0 <= stats["mean"] <= 2.0
        assert stats["variance"] >= 0.0
