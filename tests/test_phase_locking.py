"""Quartic free-energy landscape: mode tensor, stationarity, descent locking.

The library computes every gradient from one mat-vec on z (x) z.  The real
(alpha, phi) tensor formulas it replaced are kept here as the oracle:
`tensor_gradients` builds the M^4 phase and amplitude-product tensors,
and `oracle_descent` is the descent loop on top of them.
"""

import math
from itertools import permutations

import numpy as np
import pytest

from bcsbec.coherent import (
    box_mode_tensor,
    equal_phase_residual,
    phase_gradient,
    variational_phase_lock,
)
from bcsbec.coherent.phase_locking import _gradients, box_mode_energies, free_energy

# step counts of the M = 3 attractive descent for the seeds whose
# basin is the equal-phase lock (bcsbec.checks.LOCKING_SEEDS)
LOCKING_STEPS = {6: 2634, 7: 2653, 13: 2571, 20: 8263, 21: 2615}


def random_symmetric_tensor(m, rng):
    g = rng.normal(size=(m, m, m, m))
    total = np.zeros_like(g)
    for perm in permutations(range(4)):
        total += np.transpose(g, perm)
    return total / 24.0


def tensor_gradients(phases, amplitudes, g, energies):
    """(dF/dphi, dF/dalpha) from the M^4 phase and amplitude-product tensors.

    With P[n,m,t,s] = phi_t + phi_s - phi_n - phi_m, differentiating
    cos(P) gives -sin(P) times +1 for each appearance of phi_r in the t or
    s slot and -1 for the n or m slots.
    """
    p, a = phases, amplitudes
    P = (
        -p[:, None, None, None] - p[None, :, None, None]
        + p[None, None, :, None] + p[None, None, None, :]
    )
    aa = (
        a[:, None, None, None] * a[None, :, None, None]
        * a[None, None, :, None] * a[None, None, None, :]
    )
    GS = g * aa * np.sin(P)
    dphi = 0.5 * (
        -(GS.sum(axis=(0, 1, 3)) + GS.sum(axis=(0, 1, 2)))
        + GS.sum(axis=(1, 2, 3))
        + GS.sum(axis=(0, 2, 3))
    )
    CC = g * np.cos(P)
    damp = 2.0 * energies * a + 0.5 * (
        np.einsum("rmts,m,t,s->r", CC, a, a, a)
        + np.einsum("nrts,n,t,s->r", CC, a, a, a)
        + np.einsum("nmrs,n,m,s->r", CC, a, a, a)
        + np.einsum("nmtr,n,m,t->r", CC, a, a, a)
    )
    return dphi, damp


def oracle_descent(M, seed, step=1e-2, tol=1e-10, max_steps=100_000):
    """The seeded box-mode descent of variational_phase_lock on tensor_gradients."""
    g = -box_mode_tensor(M, 10.0)
    energies = box_mode_energies(M, 10.0)
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0.0, 2.0 * np.pi, M)
    amplitudes = rng.uniform(0.5, 1.5, M)
    amplitudes *= np.sqrt(M / np.sum(amplitudes**2))
    for steps in range(1, max_steps + 1):
        dphi, damp = tensor_gradients(phases, amplitudes, g, energies)
        damp_t = damp - amplitudes * np.dot(damp, amplitudes) / M
        if np.sqrt(np.sum(dphi**2) + np.sum(damp_t**2)) < tol:
            break
        phases = phases - step * dphi
        amplitudes = np.abs(amplitudes - step * damp_t)
        amplitudes *= np.sqrt(M / np.sum(amplitudes**2))
    return phases, amplitudes, steps


def test_box_energies():
    length = 10.0
    e = box_mode_energies(4, length)
    expected = 0.5 * (np.arange(1, 5) * np.pi / length) ** 2
    assert np.allclose(e, expected, rtol=1e-14)


def test_box_tensor_is_fully_symmetric():
    # entries for a repeated index multiset come from independently
    # accumulated quadratures, so symmetry holds to rounding, not bit-exactly
    g = box_mode_tensor(3)
    scale = np.abs(g).max()
    for perm in permutations(range(4)):
        assert np.abs(g - np.transpose(g, perm)).max() <= 1e-14 * scale


def test_box_tensor_parity_selection_rule():
    g = box_mode_tensor(4)
    scale = np.abs(g).max()
    for idx in np.ndindex(4, 4, 4, 4):
        if sum(idx) % 2 == 1:
            assert abs(g[idx]) <= 1e-13 * scale


def test_equal_phases_are_stationary_for_any_symmetric_tensor():
    rng = np.random.default_rng(99)
    for _ in range(5):
        m = int(rng.integers(2, 6))
        g = random_symmetric_tensor(m, rng)
        amps = rng.uniform(0.5, 1.5, m)
        assert equal_phase_residual(amps, g) <= 1e-12


def test_pi_twin_degeneracy():
    # adding pi to every odd-quantum-number mode leaves the free energy
    # unchanged: the parity selection rule only keeps even index sums
    g = box_mode_tensor(4)
    energies = box_mode_energies(4, 10.0)
    rng = np.random.default_rng(2)
    phases = rng.uniform(0.0, 2.0 * np.pi, 4)
    amps = rng.uniform(0.5, 1.5, 4)
    twin = phases + np.pi * (np.arange(1, 5) % 2)
    f = free_energy(phases, amps, g, energies)
    assert free_energy(twin, amps, g, energies) == pytest.approx(f, rel=1e-14)
    # a generic shift does move the free energy
    shifted = phases + np.pi * np.array([1.0, 0.0, 0.0, 0.0])
    assert abs(free_energy(shifted, amps, g, energies) - f) > 1e-6


def test_gradients_match_tensor_oracle():
    rng = np.random.default_rng(5)
    for m in range(2, 7):
        g = random_symmetric_tensor(m, rng)
        energies = rng.uniform(0.0, 1.0, m)
        phases = rng.uniform(0.0, 2.0 * np.pi, m)
        amps = rng.uniform(0.5, 1.5, m)
        dphi, damp = tensor_gradients(phases, amps, g, energies)
        new_dphi, new_damp, _ = _gradients(phases, amps, g.reshape(m * m, m * m), energies)
        assert np.abs(new_dphi - dphi).max() <= 1e-13
        assert np.abs(new_damp - damp).max() <= 1e-13
        assert np.array_equal(phase_gradient(phases, amps, g), new_dphi)


def test_gradient_matches_finite_differences():
    g = box_mode_tensor(3)
    rng = np.random.default_rng(8)
    phases = rng.uniform(0.0, 2.0 * np.pi, 3)
    amps = rng.uniform(0.5, 1.5, 3)
    grad = phase_gradient(phases, amps, g)
    h = 1e-6
    for r in range(3):
        bump = np.zeros(3)
        bump[r] = h
        numeric = (
            free_energy(phases + bump, amps, g) - free_energy(phases - bump, amps, g)
        ) / (2.0 * h)
        assert grad[r] == pytest.approx(numeric, abs=1e-7)


def test_amplitude_gradient_matches_finite_differences():
    g = box_mode_tensor(3)
    energies = box_mode_energies(3, 10.0)
    rng = np.random.default_rng(8)
    phases = rng.uniform(0.0, 2.0 * np.pi, 3)
    amps = rng.uniform(0.5, 1.5, 3)
    _, grad, _ = _gradients(phases, amps, g.reshape(9, 9), energies)
    h = 1e-6
    for r in range(3):
        bump = np.zeros(3)
        bump[r] = h
        numeric = (
            free_energy(phases, amps + bump, g, energies)
            - free_energy(phases, amps - bump, g, energies)
        ) / (2.0 * h)
        assert grad[r] == pytest.approx(numeric, abs=1e-7)


def test_descent_locks_from_a_pinned_seed():
    result = variational_phase_lock(3, seed=7)
    assert result.converged
    assert result.phase_spread < 1e-4
    assert result.equal_phase_residual == 0.0
    assert result.min_amplitude > 1e-3
    assert result.g_sign == -1.0
    # the amplitude normalization sum alpha^2 = M survives the descent
    assert float(np.sum(result.amplitudes**2)) == pytest.approx(3.0, rel=1e-9)


def test_locking_seeds_keep_their_step_counts():
    for seed, steps in LOCKING_STEPS.items():
        result = variational_phase_lock(3, seed=seed)
        assert result.converged
        assert result.steps == steps


def test_descent_matches_tensor_oracle_descent():
    result = variational_phase_lock(3, seed=6)
    phases, amplitudes, steps = oracle_descent(3, seed=6)
    assert result.steps == steps
    assert np.abs(result.phases - phases).max() <= 1e-12
    assert np.abs(result.amplitudes - amplitudes).max() <= 1e-12


def test_descent_budget_reports_non_convergence():
    result = variational_phase_lock(3, seed=0, max_steps=10)
    assert not result.converged
    assert result.steps == 10


def test_validation():
    with pytest.raises(ValueError):
        variational_phase_lock(1)
    with pytest.raises(ValueError):
        variational_phase_lock(7)
    with pytest.raises(ValueError):
        variational_phase_lock(3, g_sign=0.5)
    for length in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            variational_phase_lock(3, length=length)
        with pytest.raises(ValueError):
            box_mode_tensor(3, length)
    for bad in ({"step": math.nan}, {"step": -1.0}, {"tol": math.nan}, {"tol": -1.0},
                {"max_steps": 0}):
        with pytest.raises(ValueError):
            variational_phase_lock(3, **bad)
