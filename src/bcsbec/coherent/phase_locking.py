"""Stationarity and descent for the quartic multimode free energy.

The variational energy of a multimode condensate with mode amplitudes
alpha_n >= 0 and phases phi_n is

    F = sum_n E_n alpha_n^2
      + (1/2) sum_{nmts} g_{nmts} alpha_n alpha_m alpha_t alpha_s
                          cos(phi_t + phi_s - phi_n - phi_m),

with a fully symmetric coupling tensor g.  Every phase difference enters
through that cosine, so the configuration with all phases equal is a
stationary point of the phase sector for any symmetric tensor: each sine
term vanishes identically.  Whether it is a minimum depends on the sign of
g (attractive g < 0 lowers F at equal phases; for g > 0 minimality is not
asserted here, only stationarity).

In complex amplitudes z_n = alpha_n e^{i phi_n} the quartic term is
(1/2) Re(conj(z (x) z) . G2 (z (x) z)), with g reshaped to the M^2 x M^2
matrix G2[(n m), (t s)], and one mat-vec gives every derivative: with

    h = (G2 (z (x) z)).reshape(M, M) conj(z),   q = e^{-i phi} h,

dF/dphi = 2 alpha Im q, dF/dalpha = 2 E alpha + 2 Re q, and the quartic
term equals (1/2) sum alpha Re q.  The real (alpha, phi) formulas with M^4
phase and amplitude-product tensors survive only as the oracle in the
tests.

For 1D box modes u_n(x) = sqrt(2/L) sin(n pi x / L) the quartic tensor
g_{nmts} = g0 int u_n u_m u_t u_s dx obeys a parity selection rule: the
integral vanishes unless n+m+t+s is even.  The free energy is therefore
exactly invariant under shifting any even-parity subset of phases by pi,
and gradient descent can terminate at the equal-phase point, at one of its
degenerate pi-twins, or with a dead mode (alpha_n -> 0) whose phase
dangles.  Locking is thus seed dependent by the structure of the
landscape, not by numerical accident; callers who want the locked basin
must choose seeds that land in it.

Descent runs on phases and amplitudes jointly; the amplitude gradient is
projected onto the sphere sum alpha^2 = M, which removes the chemical
potential from the problem (it only enforces that norm).  Given the step,
gradient-norm stop and budget (defaults 1e-2, 1e-10 and 1e5, which the CLI
sets), every trajectory is reproducible from its seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

__all__ = [
    "PhaseLockResult",
    "box_mode_tensor",
    "box_mode_energies",
    "free_energy",
    "phase_gradient",
    "equal_phase_residual",
    "variational_phase_lock",
]


def box_mode_tensor(M: int, length: float = 10.0, points: int = 2049) -> np.ndarray:
    """Quartic coupling tensor of the first M box modes on [0, L].

    Composite Simpson quadrature on a uniform grid (points must be odd);
    the result is symmetrized over all 24 index permutations to clean the
    last-digit asymmetry of the quadrature.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    if not 0.0 < length < np.inf:
        raise ValueError("length must be positive and finite")
    if points < 3 or points % 2 == 0:
        raise ValueError("points must be odd and >= 3")
    x = np.linspace(0.0, length, points)
    u = np.array(
        [np.sqrt(2.0 / length) * np.sin((n + 1) * np.pi * x / length) for n in range(M)]
    )
    w = np.ones(points)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= (x[1] - x[0]) / 3.0
    g = np.einsum("nx,mx,tx,sx,x->nmts", u, u, u, u, w)
    sym = np.zeros_like(g)
    for perm in permutations(range(4)):
        sym += np.transpose(g, perm)
    return sym / 24.0


def box_mode_energies(M: int, length: float = 10.0) -> np.ndarray:
    """Single-particle box levels (n pi / L)^2 / 2 for n = 1..M."""
    n = np.arange(1, M + 1)
    return (n * np.pi / length) ** 2 / 2.0


def _coupling_matrix(g, M: int) -> np.ndarray:
    """g reshaped to G2[(n m), (t s)], checked against the mode count."""
    g = np.asarray(g, dtype=float)
    if g.shape != (M, M, M, M):
        raise ValueError("coupling tensor shape does not match mode count")
    return g.reshape(M * M, M * M)


def _gradients(phases, amplitudes, G2, energies=0.0):
    """(dF/dphi, dF/dalpha, quartic term) from q; see the module docstring."""
    M = phases.size
    rotor = np.exp(1j * phases)
    z = amplitudes * rotor
    h = (G2 @ (z[:, None] * z).ravel()).reshape(M, M) @ z.conj()
    q = rotor.conj() * h
    return (
        2.0 * amplitudes * q.imag,
        2.0 * energies * amplitudes + 2.0 * q.real,
        0.5 * float(amplitudes @ q.real),
    )


def free_energy(phases, amplitudes, g, energies=None) -> float:
    """Quartic free energy at the given configuration."""
    phases = np.asarray(phases, dtype=float)
    amplitudes = np.asarray(amplitudes, dtype=float)
    _, _, quartic = _gradients(phases, amplitudes, _coupling_matrix(g, phases.size))
    if energies is None:
        return quartic
    return float(np.sum(np.asarray(energies) * amplitudes**2)) + quartic


def phase_gradient(phases, amplitudes, g) -> np.ndarray:
    """dF/dphi_r for the quartic term (the quadratic term is phase free)."""
    phases = np.asarray(phases, dtype=float)
    amplitudes = np.asarray(amplitudes, dtype=float)
    dphi, _, _ = _gradients(phases, amplitudes, _coupling_matrix(g, phases.size))
    return dphi


def equal_phase_residual(amplitudes, g) -> float:
    """Norm of the phase gradient at equal phases (zero to rounding).

    Holds for any real symmetric tensor: q is real when every phase is 0.
    """
    amplitudes = np.asarray(amplitudes, dtype=float)
    grad = phase_gradient(np.zeros(amplitudes.size), amplitudes, g)
    return float(np.linalg.norm(grad))


@dataclass
class PhaseLockResult:
    """Terminal configuration of the seeded gradient descent."""

    phases: np.ndarray
    amplitudes: np.ndarray
    gradient_norm: float
    steps: int
    converged: bool
    equal_phase_residual: float
    phase_spread: float
    min_amplitude: float
    g_sign: float
    seed: int


def variational_phase_lock(
    M: int,
    g_sign: float = -1.0,
    seed: int = 0,
    length: float = 10.0,
    step: float = 1e-2,
    tol: float = 1e-10,
    max_steps: int = 100_000,
) -> PhaseLockResult:
    """Seeded gradient descent of the quartic free energy (box basis).

    The seed fixes the whole trajectory: phases are drawn uniform on
    [0, 2 pi), amplitudes uniform on [0.5, 1.5] and renormalized to
    sum alpha^2 = M.  Descent updates phases and sphere-projected
    amplitudes with a fixed step until the joint gradient norm drops
    below tol or the budget runs out.  The result also carries the
    equal-phase stationarity residual evaluated with the seeded
    amplitudes, and the terminal phase spread (max pairwise difference
    mod 2 pi) so callers can see whether this seed's basin locked.
    """
    if not 2 <= M <= 6:
        raise ValueError("M must be between 2 and 6")
    if g_sign not in (-1.0, 1.0, -1, 1):
        raise ValueError("g_sign must be +1 (repulsive) or -1 (attractive)")
    if not (step > 0.0 and tol > 0.0 and max_steps >= 1):
        raise ValueError("step, tol, max_steps must be positive")

    g = float(g_sign) * box_mode_tensor(M, length)
    G2 = g.reshape(M * M, M * M)
    energies = box_mode_energies(M, length)

    rng = np.random.default_rng(seed)
    phases = rng.uniform(0.0, 2.0 * np.pi, M)
    amplitudes = rng.uniform(0.5, 1.5, M)
    norm_target = float(M)
    amplitudes *= np.sqrt(norm_target / np.sum(amplitudes**2))

    residual_at_equal = equal_phase_residual(amplitudes, g)

    gradient_norm = np.inf
    steps = 0
    converged = False
    for steps in range(1, max_steps + 1):
        dphi, damp, _ = _gradients(phases, amplitudes, G2, energies)
        damp_t = damp - amplitudes * (damp @ amplitudes) / norm_target
        gradient_norm = float(np.sqrt(dphi @ dphi + damp_t @ damp_t))
        if gradient_norm < tol:
            converged = True
            break
        phases = phases - step * dphi
        amplitudes = np.abs(amplitudes - step * damp_t)
        amplitudes *= np.sqrt(norm_target / (amplitudes @ amplitudes))

    diffs = np.angle(np.exp(1j * (phases[:, None] - phases[None, :])))
    return PhaseLockResult(
        phases=phases,
        amplitudes=amplitudes,
        gradient_norm=gradient_norm,
        steps=steps,
        converged=converged,
        equal_phase_residual=residual_at_equal,
        phase_spread=float(np.max(np.abs(diffs))),
        min_amplitude=float(np.min(amplitudes)),
        g_sign=float(g_sign),
        seed=int(seed),
    )
