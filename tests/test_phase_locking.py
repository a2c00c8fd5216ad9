"""Quartic free-energy landscape: mode tensor, descent locking, Newton finish.

The library computes every derivative from the pair matrix B of one mat-vec
on z (x) z.  The real (alpha, phi) tensor formulas it replaced are kept
here as the oracle: `free_energy` sums the M^4 tensor against
conj(z) conj(z) z z, `tensor_gradients` builds the M^4 phase and
amplitude-product tensors, `kernel_gradients` reads the same two
gradients off the library's Wirtinger gradient, and `oracle_descent` is
the same adaptive descent on z on top of the tensors.  The
closed-form box tensor has its quadrature oracle here too,
`simpson_box_tensor`, and the analytic Hessian of the Newton finish in
x = (Re z, Im z) has a central-difference oracle on the einsum gradient of
the M^4 tensor, `finite_difference_hessian`.
"""

import math
import warnings
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcsbec import checks
from bcsbec.coherent import box_mode_tensor, variational_phase_lock
from bcsbec.coherent import phase_locking
from bcsbec.coherent.phase_locking import (
    _end_state,
    _hessian,
    _newton_step,
    _output_phases,
    _tangent_gradient,
    box_mode_energies,
)

# (steps, Newton steps) of the M = 3 attractive run for the seeds whose
# basin is the equal-phase lock (bcsbec.checks.LOCKING_SEEDS); steps
# counts the gradient evaluations and the Newton steps together
LOCKING_STEPS = {6: (43, 3), 7: (48, 3), 13: (45, 3), 20: (52, 3), 21: (45, 3)}

# (M, seed) of every converged attractive run of the M = 2-4 x seeds 0-24
# survey (budget 12,000 steps) that ends with a dead mode.  A dead mode is an
# ordinary point in x = (Re z, Im z), so the Newton finish ends them too.
DEAD_MODE_RUNS = ((3, 0), (3, 1), (3, 2), (3, 3), (3, 5), (3, 11), (3, 23))

# Repulsive M = 2 seeds that end with a dead mode after a long linear tail of
# the plain descent: 19,625, 20,020 and 17,923 steps
REPULSIVE_DEAD_SEEDS = (2, 4, 5)

# (M, seed) of the survey runs that a (phi, alpha) descent ended with a dead
# mode, and that the descent on z ends locked with every mode live, at a
# lower free energy
RELOCKED_RUNS = ((2, 7), (2, 10), (4, 0), (4, 1), (4, 2), (4, 16))

# Phases and amplitudes where a (phi, alpha) descent of the M = 3 seed-20 run
# first falls below the Newton switch, after 361 steps: mode 3 is nearly dead
# and 1.4 rad off the lock, close to a saddle of the free energy.
NEAR_SADDLE = (np.array([2.2759834436869486, 2.277408898361858, 0.868634446721955]),
               np.array([1.4073643674990572, 1.0094057401647059, 0.020629804083432075]))


def random_symmetric_tensor(m, rng):
    g = rng.normal(size=(m, m, m, m))
    total = np.zeros_like(g)
    for perm in permutations(range(4)):
        total += np.transpose(g, perm)
    return total / 24.0


def simpson_box_tensor(M, length, points=2049):
    """int u_n u_m u_t u_s dx by composite Simpson, symmetrized over the 24 index orders."""
    x = np.linspace(0.0, length, points)
    u = np.array([np.sqrt(2.0 / length) * np.sin(n * np.pi * x / length)
                  for n in range(1, M + 1)])
    w = np.ones(points)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= (x[1] - x[0]) / 3.0
    g = np.einsum("nx,mx,tx,sx,x->nmts", u, u, u, u, w)
    return sum(np.transpose(g, perm) for perm in permutations(range(4))) / 24.0


def cartesian_gradient(z, g, energies):
    """dF/dRe(z) + i dF/dIm(z) = 2 (E z + sum_mts g_rmts conj(z_m) z_t z_s), by einsum."""
    return 2.0 * (energies * z + np.einsum("rmts,m,t,s->r", g, z.conj(), z, z))


def finite_difference_hessian(z, g, energies, h=1e-6):
    """Central differences of the Cartesian gradient in x = (Re z, Im z)."""
    M = z.size
    hess = np.empty((2 * M, 2 * M))
    for j in range(2 * M):
        bump = np.zeros(M, dtype=complex)
        bump[j % M] = h if j < M else 1j * h
        diff = cartesian_gradient(z + bump, g, energies) - cartesian_gradient(z - bump, g, energies)
        hess[:, j] = np.concatenate([diff.real, diff.imag]) / (2.0 * h)
    return hess


def relative_live_phases(phases, amplitudes):
    """Phases of the live modes relative to the first live one, in (-pi, pi]."""
    live = amplitudes >= phase_locking._DEAD_AMPLITUDE
    return np.angle(np.exp(1j * (phases - phases[np.argmax(live)])))[live]


def free_energy(phases, amplitudes, g, energies=0.0):
    """F = sum E alpha^2 + (1/2) sum g alpha^4 cos(phi_t + phi_s - phi_n - phi_m), by einsum.

    conj(z_n) conj(z_m) z_t z_s at z = alpha e^{i phi} carries the cosine as
    its real part; the quartic term alone by default.
    """
    z = np.asarray(amplitudes, dtype=float) * np.exp(1j * np.asarray(phases, dtype=float))
    quartic = np.einsum("nmts,n,m,t,s->", g, z.conj(), z.conj(), z, z).real
    return float(np.sum(energies * np.abs(z) ** 2) + 0.5 * quartic)


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


def kernel_gradients(phases, amplitudes, g, energies):
    """(dF/dphi, dF/dalpha) from the library's Wirtinger gradient g at z = alpha e^{i phi}.

    conj(z) g = alpha dF/dalpha + i dF/dphi.
    """
    z = amplitudes * np.exp(1j * phases)
    m = z.size
    grad, _ = _hessian(z, g.reshape(m * m, m * m), energies)
    along = z.conj() * grad
    return along.imag, along.real / amplitudes


def oracle_descent(M, seed, step=1e-2, tol=1e-10, max_steps=100_000):
    """The seeded box-mode descent of variational_phase_lock on tensor_gradients.

    The same Heun steps on z = alpha e^{i phi} under the same step control
    (accept when 0.5 |g(z_Euler) - g(z)| <= 0.2 |g(z)|, grow h by
    min(5, 0.9 / sqrt(error / tolerance))), with the gradient
    g = e^{i phi} (dF/dalpha + i (dF/dphi) / alpha) projected onto the
    sphere, and the same output gauge: phases relative to the first live
    mode, summing to the seeded sum.
    """
    g = -box_mode_tensor(M, 10.0)
    energies = box_mode_energies(M, 10.0)

    def gradient(z):
        alpha = np.abs(z)
        dphi, damp = tensor_gradients(np.angle(z), alpha, g, energies)
        grad = z / alpha * (damp + 1j * dphi / alpha)
        grad -= z * np.real(np.vdot(z, grad)) / M
        damp_t = damp - alpha * np.dot(damp, alpha) / M
        return grad, np.sqrt(np.sum(dphi**2) + np.sum(damp_t**2))

    def on_sphere(z):
        return z * np.sqrt(M / np.sum(np.abs(z) ** 2))

    rng = np.random.default_rng(seed)
    phases = rng.uniform(0.0, 2.0 * np.pi, M)
    amplitudes = rng.uniform(0.5, 1.5, M)
    amplitudes *= np.sqrt(M / np.sum(amplitudes**2))
    z = amplitudes * np.exp(1j * phases)
    grad, norm = gradient(z)
    steps = 1
    while norm >= tol and steps < max_steps:
        trial_grad, _ = gradient(on_sphere(z - step * grad))
        steps += 1
        ratio = 0.5 * np.linalg.norm(trial_grad - grad) / (0.2 * np.linalg.norm(grad))
        if ratio <= 1.0 and steps < max_steps:
            z = on_sphere(z - 0.5 * step * (grad + trial_grad))
            grad, norm = gradient(z)
            steps += 1
        step *= min(5.0, 0.9 / np.sqrt(ratio))
    alpha = np.abs(z)
    relative = np.angle(z / z[np.argmax(alpha >= phase_locking._DEAD_AMPLITUDE)])
    return relative + (phases.sum() - relative.sum()) / M, alpha, steps


def test_box_energies():
    length = 10.0
    e = box_mode_energies(4, length)
    expected = 0.5 * (np.arange(1, 5) * np.pi / length) ** 2
    assert np.allclose(e, expected, rtol=1e-14)


def test_box_tensor_matches_simpson_oracle():
    # the closed form is exact; the 2049-point Simpson rule is good to rounding
    for M in range(1, 7):
        for length in (1.0, 10.0):
            g = box_mode_tensor(M, length)
            assert np.abs(g - simpson_box_tensor(M, length)).max() <= 1e-14 / length


def test_box_tensor_is_fully_symmetric():
    # each entry is an integer count over 2L, the same for every index order
    g = box_mode_tensor(4)
    for perm in permutations(range(4)):
        assert np.array_equal(g, np.transpose(g, perm))


def test_box_tensor_parity_selection_rule():
    g = box_mode_tensor(4)
    for idx in np.ndindex(4, 4, 4, 4):
        if sum(idx) % 2 == 1:
            assert g[idx] == 0.0


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
        new_dphi, new_damp = kernel_gradients(phases, amps, g, energies)
        assert np.abs(new_dphi - dphi).max() <= 1e-13
        assert np.abs(new_damp - damp).max() <= 1e-13


def test_gradient_matches_finite_differences():
    g = box_mode_tensor(3)
    rng = np.random.default_rng(8)
    phases = rng.uniform(0.0, 2.0 * np.pi, 3)
    amps = rng.uniform(0.5, 1.5, 3)
    grad, _ = kernel_gradients(phases, amps, g, np.zeros(3))
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
    _, grad = kernel_gradients(phases, amps, g, energies)
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
    assert result.min_amplitude > 1e-3
    # the amplitude normalization sum alpha^2 = M survives the descent
    assert float(np.sum(result.amplitudes**2)) == pytest.approx(3.0, rel=1e-9)


def test_locking_seeds_keep_their_step_counts():
    for seed, (steps, newton_steps) in LOCKING_STEPS.items():
        result = variational_phase_lock(3, seed=seed)
        assert result.converged
        assert (result.steps, result.newton_steps) == (steps, newton_steps)
        assert (result.end_state, result.sign_pattern) == ("locked", "+++")


def test_first_step_does_not_matter():
    # the step control forgets its first step within a few evaluations: a
    # fixed step of 1e-4 took 44,645 steps here, and one of 10 exhausted
    # a budget of 100,000
    default = variational_phase_lock(3, seed=6)
    for step in (1e-4, 1e-2, 1.0, 10.0):
        result = variational_phase_lock(3, seed=6, step=step)
        assert (result.end_state, result.sign_pattern) == ("locked", "+++")
        assert result.steps <= 50
        assert np.abs(result.amplitudes - default.amplitudes).max() <= 1e-12
    # a first step so long that |z - h g|^2 would overflow is cut to
    # sqrt(M)/|g| before its first trial, without a numpy warning on the way
    for step in (1e160, 1e300):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = variational_phase_lock(3, seed=6, step=step)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert (result.end_state, result.sign_pattern) == ("locked", "+++")
        assert result.steps <= 50
        assert np.abs(result.amplitudes - default.amplitudes).max() <= 1e-15


def test_descent_matches_tensor_oracle_descent():
    # the descent part: both runs stop at the first gradient norm below the switch
    switch = phase_locking._NEWTON_SWITCH
    result = variational_phase_lock(3, seed=6, tol=switch)
    phases, amplitudes, steps = oracle_descent(3, seed=6, tol=switch)
    assert result.newton_steps == 0
    assert result.steps == steps
    assert np.abs(result.phases - phases).max() <= 1e-12
    assert np.abs(result.amplitudes - amplitudes).max() <= 1e-12
    # the Newton finish from there lands on the plain descent's end point
    result = variational_phase_lock(3, seed=6)
    phases, amplitudes, _ = oracle_descent(3, seed=6)
    assert result.newton_steps > 0
    assert result.gradient_norm <= 1e-12
    assert np.abs(result.phases - phases).max() <= 1e-9
    assert np.abs(result.amplitudes - amplitudes).max() <= 1e-9


def test_hessian_matches_finite_differences():
    # central differences of the Cartesian gradient with h = 1e-6 are off by
    # at most 5.3e-10 of the largest entry here; the bound leaves a factor 18
    rng = np.random.default_rng(17)
    for m in range(2, 7):
        g = random_symmetric_tensor(m, rng)
        energies = rng.uniform(0.0, 1.0, m)
        z = rng.uniform(0.5, 1.5, m) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, m))
        grad, hess = _hessian(z, g.reshape(m * m, m * m), energies)
        oracle = finite_difference_hessian(z, g, energies)
        assert np.abs(hess - oracle).max() <= 1e-8 * np.abs(hess).max()
        assert np.abs(grad - cartesian_gradient(z, g, energies)).max() <= 1e-13 * np.abs(grad).max()


def test_unguarded_newton_stops_at_the_saddle(monkeypatch):
    # below the switch but far from the lock, plain Newton iterates
    # converge to a stationary point that is a saddle
    G2 = -box_mode_tensor(3).reshape(9, 9)
    energies = box_mode_energies(3, 10.0)
    start = NEAR_SADDLE[1] * np.exp(1j * NEAR_SADDLE[0])
    _, start_norm = _tangent_gradient(start, G2, energies)
    assert start_norm < phase_locking._NEWTON_SWITCH
    z = start
    monkeypatch.setattr(phase_locking, "_EIGEN_FLOOR", -np.inf)
    for _ in range(8):
        z = _newton_step(z, G2, energies)
    monkeypatch.undo()
    _, gradient_norm = _tangent_gradient(z, G2, energies)
    assert gradient_norm <= 1e-12
    phases = np.angle(z)
    diffs = np.angle(np.exp(1j * (phases[:, None] - phases[None, :])))
    assert np.abs(diffs).max() > 1.0
    # the guard rejects a step there, and the guarded finish rejects the try
    assert _newton_step(z, G2, energies) is None
    assert phase_locking._newton_finish(start, start_norm, G2, energies, 1e-10, 100) is None
    # it is a saddle: the Lagrangian Hessian on the tangent space, the
    # complement of x = (Re z, Im z) and i x, has the eigenvalue -0.56
    grad, hess = _hessian(z, G2, energies)
    x, ix = np.concatenate([z.real, z.imag]), np.concatenate([-z.imag, z.real])
    tangent = np.eye(6) - (np.outer(x, x) + np.outer(ix, ix)) / 3.0
    lagrangian = hess - np.eye(6) * np.vdot(z, grad).real / 3.0
    assert np.linalg.eigvalsh(tangent @ lagrangian @ tangent)[0] < -0.5
    # seed 20 ends locked, at F = -0.779 against the saddle's -0.668
    result = variational_phase_lock(3, seed=20)
    assert (result.end_state, result.sign_pattern) == ("locked", "+++")
    g = -box_mode_tensor(3)
    assert free_energy(np.angle(z), np.abs(z), g, energies) > free_energy(
        result.phases, result.amplitudes, g, energies) + 0.1


@pytest.mark.parametrize("M, g_sign, seed", [
    *(pytest.param(M, -1.0, seed, id=f"{M}-{seed}")
      for M, seed in (*((3, seed) for seed in LOCKING_STEPS), *DEAD_MODE_RUNS, *RELOCKED_RUNS)),
    *(pytest.param(2, 1.0, seed, id=f"2-repulsive-{seed}") for seed in REPULSIVE_DEAD_SEEDS),
])
def test_newton_finish_matches_plain_descent(monkeypatch, M, g_sign, seed):
    result = variational_phase_lock(M, g_sign, seed=seed, max_steps=30_000)
    # the plain descent stops two decades tighter: a dead mode's amplitude is
    # off by about the stop over its curvature, 1e-9 at tol = 1e-10 (repulsive)
    monkeypatch.setattr(phase_locking, "_NEWTON_SWITCH", 0.0)
    plain = variational_phase_lock(M, g_sign, seed=seed, tol=1e-12, max_steps=30_000)
    assert result.converged and plain.converged
    assert result.newton_steps >= 1 and plain.newton_steps == 0
    assert result.end_state == plain.end_state
    dead = g_sign > 0 or (M, seed) in DEAD_MODE_RUNS
    assert (result.end_state == "locked") == (not dead)
    assert result.sign_pattern == plain.sign_pattern
    assert np.abs(result.amplitudes - plain.amplitudes).max() <= 1e-9
    relative = relative_live_phases(result.phases, result.amplitudes)
    plain_relative = relative_live_phases(plain.phases, plain.amplitudes)
    assert np.abs(np.angle(np.exp(1j * (relative - plain_relative)))).max() <= 1e-9
    if g_sign > 0:
        # the Newton finish cuts the plain descent's linear tail
        assert result.steps <= 3000


def test_tries_that_stop_lowering_the_norm_are_rejected(monkeypatch):
    # below rounding no Newton iterate can reach the stop, so every try ends
    # in an iterate whose norm does not fall, and the run is the plain descent
    result = variational_phase_lock(3, seed=6, tol=1e-20, max_steps=3000)
    monkeypatch.setattr(phase_locking, "_NEWTON_SWITCH", 0.0)
    plain = variational_phase_lock(3, seed=6, tol=1e-20, max_steps=3000)
    assert not result.converged
    assert result.newton_steps == 0
    assert np.array_equal(result.phases, plain.phases)
    assert np.array_equal(result.amplitudes, plain.amplitudes)


def test_newton_steps_count_against_the_budget():
    # seed 6 tries Newton at its 40th gradient evaluation and needs three Newton steps
    for max_steps in (41, 42):
        result = variational_phase_lock(3, seed=6, max_steps=max_steps)
        assert not result.converged
        assert (result.steps, result.newton_steps) == (max_steps, max_steps - 40)
        assert result.end_state == "budget exhausted"
    assert variational_phase_lock(3, seed=6, max_steps=43).converged


def test_end_states():
    dead = variational_phase_lock(3, seed=1)
    assert dead.converged
    assert dead.newton_steps == 3
    assert (dead.end_state, dead.sign_pattern) == ("locked, dead modes", "+0-")
    assert dead.min_amplitude < phase_locking._DEAD_AMPLITUDE
    twin = variational_phase_lock(3, seed=4)
    assert (twin.end_state, twin.sign_pattern) == ("locked", "+-+")
    ones = np.ones(3)
    assert _end_state(np.array([0.3, 0.3 + np.pi, 0.3]), ones, True) == ("locked", "+-+")
    assert _end_state(np.array([0.0, 1.0, 0.0]), ones, True) == ("stationary, unlocked", "")
    assert _end_state(np.zeros(3), ones, False) == ("budget exhausted", "")


@settings(max_examples=30, deadline=None)
@given(M=st.integers(2, 6), g_sign=st.sampled_from((-1.0, 1.0)),
       seed=st.integers(0, 2**32 - 1), max_steps=st.integers(1, 200))
def test_output_keeps_the_seeded_gauge_and_norm(M, g_sign, seed, max_steps):
    # the live modes' phases sum to the seeded phases' sum, which fixes the
    # global phase; the norm is fixed by M
    result = variational_phase_lock(M, g_sign=g_sign, seed=seed, max_steps=max_steps)
    seeded = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, M)
    live = result.amplitudes >= phase_locking._DEAD_AMPLITUDE
    assert abs(result.phases[live].sum() - seeded.sum()) <= 1e-12 * M
    assert abs(np.sum(result.amplitudes**2) - M) <= 1e-12
    # an accepted Heun step costs two gradient evaluations, yet the budget holds
    assert result.steps <= max_steps
    assert result.converged or result.steps == max_steps


@pytest.mark.parametrize("M, seed", [(3, 8), (4, 19)])
def test_output_phases_do_not_depend_on_the_stop(M, seed):
    # both runs end in pi-twins whose sign from np.angle flipped between the
    # two stops, which moved every phase by 2 pi/M per twin before the fold
    loose, tight = (variational_phase_lock(M, seed=seed, tol=tol) for tol in (1e-10, 1e-12))
    assert loose.converged and tight.converged
    assert loose.sign_pattern == tight.sign_pattern
    np.testing.assert_allclose(tight.phases, loose.phases, rtol=0.0, atol=1e-9)


def test_dead_phase_does_not_move_the_live_phases():
    # seed 1 ends '+0-': turning the dead mode's dangling phase changes no
    # live output phase
    result = variational_phase_lock(3, seed=1)
    seeded_sum = np.random.default_rng(1).uniform(0.0, 2.0 * np.pi, 3).sum()
    z = result.amplitudes * np.exp(1j * result.phases)
    live = result.amplitudes >= phase_locking._DEAD_AMPLITUDE
    assert list(live) == [True, False, True]
    for turn in (0.0, 0.37, 2.0, -3.0):
        phases = _output_phases(z * np.exp(1j * turn * ~live), seeded_sum)
        assert np.abs(phases[live] - result.phases[live]).max() <= 1e-12


def test_phase_spread_is_taken_over_the_live_modes():
    # seed 1 ends '+0-': the two live modes are pi apart, and the dead
    # mode's dangling phase does not enter the spread
    result = variational_phase_lock(3, seed=1)
    assert result.sign_pattern == "+0-"
    assert result.phase_spread == pytest.approx(np.pi, abs=1e-9)


@pytest.mark.parametrize("seed, pattern", [(4, "+-+"), (1, "+0-")])
def test_phase_lock_check_fails_off_the_equal_phase_lock(monkeypatch, seed, pattern):
    # the check fails once one of its seeds ends in a pi-twin or with a dead mode
    monkeypatch.setattr(checks, "LOCKING_SEEDS", (*checks.LOCKING_SEEDS, seed))
    result = checks.check_phase_lock()
    assert not result.passed
    assert result.measured["sign_patterns"][seed] == pattern


def test_tangent_gradient_at_an_exact_zero_amplitude():
    # z_n = 0 takes angle z_n = 0: the norm is the (phi, alpha) one there,
    # finite and free of a 0/0 (whose RuntimeWarning fails the run)
    rng = np.random.default_rng(11)
    g = random_symmetric_tensor(3, rng)
    energies = rng.uniform(0.0, 1.0, 3)
    amplitudes = np.array([1.3, 0.0, 0.9])
    amplitudes *= np.sqrt(3.0 / (amplitudes @ amplitudes))
    z = amplitudes * np.exp(1j * np.array([0.4, 2.0, -1.1]))
    assert z[1] == 0.0
    grad, norm = _tangent_gradient(z, g.reshape(9, 9), energies)
    dphi, damp = tensor_gradients(np.angle(z), amplitudes, g, energies)
    damp_t = damp - amplitudes * (damp @ amplitudes) / 3.0
    assert np.isfinite(norm) and np.all(np.isfinite(grad)) and grad[1] != 0.0
    assert norm == pytest.approx(np.sqrt(dphi @ dphi + damp_t @ damp_t), rel=1e-13)


def test_descent_budget_reports_non_convergence():
    result = variational_phase_lock(3, seed=0, max_steps=10)
    assert not result.converged
    assert result.steps == 10
    assert result.newton_steps == 0
    assert (result.end_state, result.sign_pattern) == ("budget exhausted", "")


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
