"""Exact 2^M Fock-space oracle: operators, states, and defining identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def dense_s_minus(n_modes, k):
    """S-^(k) as a dense 2^M matrix: 1 at (i - 2^k, i) for every pattern i with bit k set."""
    dim, bit = 1 << n_modes, 1 << k
    cols = np.array([i for i in range(dim) if i & bit], dtype=int)
    mat = np.zeros((dim, dim))
    mat[cols ^ bit, cols] = 1.0
    return mat


def dense_b(theta):
    """b = Omega^{-1/2} sum_k theta_k S-^(k) as a dense matrix."""
    return sum(t * dense_s_minus(theta.size, k) for k, t in enumerate(theta)) / np.sqrt(
        np.sum(theta**2)
    )


def as_matrix(op, dim):
    """Dense matrix of a linear map, column j being op applied to basis vector j."""
    return np.column_stack([op(e) for e in np.eye(dim)])


def test_pair_operators_single_mode():
    # a single nonzero angle makes b the pair annihilator of that mode
    for k in range(3):
        theta = np.zeros(3)
        theta[k] = 0.75
        orc = FockOracle(theta=theta)
        assert np.array_equal(as_matrix(orc.b, 8), dense_s_minus(3, k))
    orc = FockOracle(theta=np.array([0.75]), phi=0.0)
    assert np.array_equal(as_matrix(orc.b, 2), np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_pair_raising_squares_to_zero():
    psi = np.random.default_rng(4).normal(size=8)
    for k in range(3):
        theta = np.zeros(3)
        theta[k] = 0.9
        orc = FockOracle(theta=theta)
        assert np.abs(orc.b_dagger(orc.b_dagger(psi))).max() == 0.0


def test_b_is_the_weighted_mode_sum():
    theta = np.array([0.4, 1.0])
    orc = FockOracle(theta=theta)
    assert np.abs(as_matrix(orc.b, 4) - dense_b(theta)).max() < 1e-15


def test_single_mode_commutator_and_eta():
    theta = 0.7
    orc = FockOracle(theta=np.array([theta]), phi=0.2)
    # Omega = theta^2, so [b, b+] = diag(1, -1) and eta = I - [b,b+] = diag(0, 2)
    comm = as_matrix(orc.commutator_b, 2)
    assert np.allclose(comm, np.diag([1.0, -1.0]), atol=1e-15)
    eta = as_matrix(orc.eta, 2)
    assert np.allclose(eta, np.diag([0.0, 2.0]), atol=1e-15)
    moments = orc.eta_moments()
    assert moments["mean"] == pytest.approx(2.0 * np.sin(theta) ** 2, rel=1e-14)


@settings(max_examples=40, deadline=None)
@given(theta=st.lists(st.floats(0.01, 1.56), min_size=1, max_size=6),
       seed=st.integers(0, 2**32 - 1))
def test_operators_match_dense_matrices(theta, seed):
    theta = np.array(theta)
    orc = FockOracle(theta=theta)
    rng = np.random.default_rng(seed)
    x, y = rng.normal(size=(2, orc.dim)) + 1j * rng.normal(size=(2, orc.dim))
    b = dense_b(theta)
    assert np.abs(orc.b(y) - b @ y).max() <= 1e-14
    assert np.abs(orc.b_dagger(y) - b.T @ y).max() <= 1e-14
    # b+ is the adjoint of b
    scale = np.linalg.norm(x) * np.linalg.norm(y)
    assert abs(np.vdot(x, orc.b(y)) - np.vdot(orc.b_dagger(x), y)) <= 1e-14 * scale
    # each off-diagonal entry of [b, b+] is one product w_k w_k' taken twice
    comm = as_matrix(orc.commutator_b, orc.dim)
    assert np.array_equal(comm, np.diag(np.diag(comm)))


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


@pytest.mark.parametrize("n_modes", range(1, 13))
def test_state_is_the_kronecker_product_bit_for_bit(n_modes):
    # modes M-1 down to 0 as the Kronecker factors, bit k = mode k
    rng = np.random.default_rng(100 + n_modes)
    theta = rng.uniform(0.0, 0.5 * np.pi, n_modes)
    theta[-1] = 0.5 * np.pi
    if n_modes > 1:
        theta[0] = 0.0
    orc = FockOracle(theta)
    for phi in (0.0, 0.45, -2.7):
        psi = np.ones(1, dtype=complex)
        for t in theta[::-1]:
            psi = np.kron(psi, np.array([np.cos(t), np.exp(1j * phi) * np.sin(t)]))
        assert orc.state(phi).tobytes() == psi.tobytes()


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
