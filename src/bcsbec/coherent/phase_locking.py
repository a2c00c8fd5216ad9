"""Descent and Newton finish for the quartic multimode free energy.

The variational energy of a multimode condensate with mode amplitudes
alpha_n >= 0 and phases phi_n is

    F = sum_n E_n alpha_n^2
      + (1/2) sum_{nmts} g_{nmts} alpha_n alpha_m alpha_t alpha_s
                          cos(phi_t + phi_s - phi_n - phi_m),

with a fully symmetric coupling tensor g.  Every phase difference enters
through that cosine, so at equal phases each sine term of dF/dphi vanishes
term by term, for any real tensor: equal-phase stationarity holds by
construction and is therefore not measured.  Whether that point is a
minimum depends on the sign of g and on the seed (below).

Everything is computed in complex amplitudes z_n = alpha_n e^{i phi_n}.
With g reshaped to the M^2 x M^2 matrix G2[(n m), (t s)], one mat-vec
gives the pair matrix B = (G2 (z (x) z)).reshape(M, M), and

    F = sum E |z|^2 + (1/2) Re(z^H B conj(z)),   g = 2 (E z + B conj(z))

is the Wirtinger gradient dF/dRe(z) + i dF/dIm(z).  The real
(alpha, phi) formulas with M^4 phase and amplitude-product tensors survive
only as the oracle in the tests.

For 1D box modes u_n(x) = sqrt(2/L) sin(n pi x / L) the quartic tensor
g_{nmts} = g0 int u_n u_m u_t u_s dx has a closed form (box_mode_tensor,
g0 = 1): the product-to-sum identity for four sines leaves seven
Kronecker deltas in the mode numbers.  It obeys a parity selection rule:
the integral vanishes, exactly, unless n+m+t+s is even.  The free energy
is therefore exactly invariant under shifting any even-parity subset of
phases by pi, and gradient descent can terminate at the equal-phase
point, at one of its degenerate pi-twins, or with a dead mode
(alpha_n -> 0) whose phase dangles.  Locking is thus seed dependent by the structure of the
landscape, not by numerical accident; callers who want the locked basin
must choose seeds that land in it.

Descent follows the Wirtinger gradient flow dz/dt = -g on z, with g
projected onto the sphere |z|^2 = M (the chemical potential only enforces
that norm), by Heun steps with the embedded Euler step as error estimate
(Hairer, Norsett & Wanner, Solving ODEs I, sec. II.4).  A step of length h
takes the Euler trial z - h g(z), rescaled onto the sphere, then the Heun
state z - (h/2) (g(z) + g(trial)), rescaled too; a mode crosses alpha = 0
with no reflection and no phase singularity (angle 0 is taken at z_n = 0).
The two states differ by (h/2) |g(trial) - g(z)|, which is measured
relative to the step's own length h |g(z)|: the step is accepted when that
ratio is at most _STEP_TOL = 0.2, and either way the next h is h times
_STEP_SAFETY / sqrt(ratio / _STEP_TOL), at most _STEP_GROWTH = 5 (with
_STEP_SAFETY = 0.9).  Near a minimum the ratio is about h/2 times the
curvature along g, so an accepted step keeps h times that curvature below
0.4, well inside Heun's stability limit of 2; an absolute tolerance on
|z_Heun - z_Euler| lets h hover at that limit, where the descent without
the Newton finish stalls.  Before each trial h is cut to at most
sqrt(M)/|grad|, with |grad| the joint norm below, so that no trial moves z
much farther than the sphere's radius sqrt(M).  A run forgets its first
step within a few evaluations, and a far too long one is cut at once:
seed 6 of three modes takes 40 evaluations from any first step between 10
and 1.7e308, 43 from the default.  The stop is the joint (phi, alpha)
gradient norm, from dF/dphi = Im(conj(z) g) and projected
dF/dalpha = Re(conj(z) g) / |z|, measured against the free energy's own
scale: on the sphere no gradient entry exceeds 2 sqrt(M) E_M + 3 M^3/L,
with E_M the top box level, and the run stops once the norm is below tol
times that scale over its value at L = 10.  tol is thus unit-free: it is
the absolute norm in the default box, whose trajectories it leaves as they
were, and a long box, whose gradients shrink as 1/L, no longer reads its
seed as converged (an absolute 1e-10 stopped M = 3, seed 1234 at
L = 1e12 after 1 evaluation, unlocked).  The first step is divided by the
same ratio, so it moves z as far in any box as in the default one, and a
long box spends no evaluations growing it: M = 3, seed 1234 at L = 1e12
locks after 37 evaluations, and from L = 1e6 on every count of the
locking seeds is independent of L.
The descent converges only linearly, so a Newton finish in the same
variables, x = (Re z, Im z), takes over near a minimum: the constrained
(KKT) step with the analytic Hessian minus the multiplier's 2 lambda,
reduced to the complement of x (the norm) and i x (the global phase).  A
dead mode, z_n = 0, is an ordinary point in x, so runs that end with one
finish by Newton too.  The finish is first tried at an accepted state
whose gradient norm is below _NEWTON_SWITCH = 1e-2, on the same relative
scale as the stop.  A try takes Newton
iterates until the norm is below the stop; it is rejected as soon as an
iterate fails the guard (the smallest reduced eigenvalue must exceed
_EIGEN_FLOOR = 1e-6 times the largest, so Newton cannot stop at a saddle)
or does not lower the norm.  A rejected try is thrown away, its steps
uncounted, and the descent resumes from the state before it, bit for bit;
the next try comes once the norm has fallen below _RETRY_FALL = 0.1 times
its value at the rejected one.  `steps` counts gradient evaluations (the
seed's, each trial's and each accepted state's) and Newton steps together
against the budget, which they never exceed: a trial that spends the last
evaluation is not accepted.  Given the first step, stop and budget
(defaults 1e-2, 1e-10 and 1e5, which the CLI sets), every trajectory is
reproducible from its seed.  Output phases are angle z relative to the
first live mode, with a pi-twin always on the +pi side, shifted so that
the live ones sum to the seeded sum.

A finished run is labelled with one end state.  'budget exhausted' means
it did not converge.  A converged run is 'locked' when z is real up to one
global phase: every live phase is 0 or pi from the first live mode's, within
_LOCK_TOL = 1e-6, and its sign pattern is recorded ('+' and '-' per mode,
so the equal-phase lock is '+++' and a pi-twin '+-+').  'locked, dead
modes' is the same with some amplitudes below _DEAD_AMPLITUDE = 1e-6,
marked '0' in the pattern; their phases dangle and are not compared.  Any
other stationary point is 'stationary, unlocked'.  The labels change
nothing about the run: a dead mode does not stop it early.  The phase
spread, like the sign pattern, is taken over the live modes only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PhaseLockResult",
    "box_mode_tensor",
    "box_mode_energies",
    "variational_phase_lock",
]

# The Newton finish's switch, retry fall and curvature guard, and the
# end-state labels' thresholds; see the module docstring.
_NEWTON_SWITCH = 1e-2
_RETRY_FALL = 0.1
_EIGEN_FLOOR = 1e-6
_DEAD_AMPLITUDE = 1e-6
_LOCK_TOL = 1e-6
# The descent's step control; see the module docstring.
_STEP_TOL = 0.2
_STEP_GROWTH = 5.0
_STEP_SAFETY = 0.9


def box_mode_tensor(M: int, length: float = 10.0) -> np.ndarray:
    """Quartic coupling tensor of the first M box modes on [0, L], in closed form.

    Writing the product of four sines as a sum of cosines, only those of
    zero frequency survive the integral over [0, L]:

        g_nmts = (1/2L) [d(n+m-t-s) + d(n-m+t-s) + d(n-m-t+s)
                         - d(n-m-t-s) - d(n-m+t+s) - d(n+m-t+s) - d(n+m+t-s)]

    for mode numbers 1..M, with d(j) = 1 if j = 0 else 0.  Each entry is an
    integer over 2L, so the tensor is exactly symmetric and exactly zero
    for odd n+m+t+s.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    if not 0.0 < length < np.inf:
        raise ValueError("length must be positive and finite")
    n, m, t, s = np.ix_(*[np.arange(1, M + 1)] * 4)
    count = ((n + m - t - s == 0).astype(int) + (n - m + t - s == 0) + (n - m - t + s == 0)
             - (n - m - t - s == 0) - (n - m + t + s == 0) - (n + m - t + s == 0)
             - (n + m + t - s == 0))
    return count / (2.0 * length)


def box_mode_energies(M: int, length: float = 10.0) -> np.ndarray:
    """Single-particle box levels (n pi / L)^2 / 2 for n = 1..M."""
    n = np.arange(1, M + 1)
    return (n * np.pi / length) ** 2 / 2.0


def _gradient_scale(M, length):
    """2 sqrt(M) E_M + 3 M^3/L, the bound on a gradient entry on |z|^2 = M.

    E_M is the top box level and 3/(2L) the largest tensor entry.
    """
    top = (M * math.pi / length) * (M * math.pi / length) / 2.0
    return 2.0 * math.sqrt(M) * top + 3.0 * M**3 / length


def _pair_matrix(z, G2):
    """B = (G2 (z (x) z)).reshape(M, M) = d2F/dconj(z)dconj(z); see the module docstring."""
    return (G2 @ (z[:, None] * z).ravel()).reshape(z.size, z.size)


def _on_sphere(z):
    """z rescaled onto |z|^2 = M.

    When |z|^2 overflows (a trial z - h g from a huge step h), z is first
    divided by its largest modulus.
    """
    norm2 = np.vdot(z, z).real
    if not math.isfinite(norm2):
        z = z / np.abs(z).max()
        norm2 = np.vdot(z, z).real
    return z * math.sqrt(z.size / norm2)


def _projected_gradient(z, G2, energies):
    """Wirtinger gradient projected onto |z|^2 = M."""
    grad = 2.0 * (energies * z + _pair_matrix(z, G2) @ z.conj())
    grad -= z * (np.vdot(z, grad).real / z.size)
    return grad


def _tangent_gradient(z, G2, energies):
    """Projected Wirtinger gradient and the joint (phi, alpha) norm."""
    grad = _projected_gradient(z, G2, energies)
    along = np.exp(-1j * np.angle(z)) * grad
    dphi, damp = np.abs(z) * along.imag, along.real
    return grad, math.sqrt(dphi @ dphi + damp @ damp)


def _norm(v):
    """Euclidean norm of a complex vector, by numpy's own formula for np.linalg.norm(v)."""
    re, im = v.real, v.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _hessian(z, G2, energies):
    """(g = 2 (E z + B conj(z)) = dF/dRe(z) + i dF/dIm(z), Hessian of F in (Re z, Im z)).

    With A = diag(E) + 2 conj(z) . (G2 z).reshape(M, M, M) = d2F/dconj(z)dz,
    dg = 2 (A dz + B conj(dz)) has the real form 2 [[Re(A+B), Im(B-A)], [Im(A+B), Re(A-B)]].
    """
    M = z.size
    B = _pair_matrix(z, G2)
    A = np.diag(energies) + 2.0 * (z.conj() @ (G2.reshape(M * M * M, M) @ z).reshape(M, M, M))
    total, diff = A + B, B - A
    hess = np.empty((2 * M, 2 * M))
    hess[:M, :M], hess[:M, M:] = total.real, diff.imag
    hess[M:, :M], hess[M:, M:] = total.imag, -diff.real  # Re(A - B) = -Re(B - A)
    hess *= 2.0
    return 2.0 * (energies * z + B @ z.conj()), hess


def _newton_step(z, G2, energies):
    """Trial z of one guarded Newton step in (Re z, Im z), or None if the guard fails."""
    M = z.size
    grad, hess = _hessian(z, G2, energies)
    hess -= (np.vdot(z, grad).real / M) * np.eye(2 * M)  # 2 lambda
    x, ix = np.concatenate([z.real, z.imag]), np.concatenate([-z.imag, z.real])
    # the last 2M - 2 columns of the QR of [x, i x, I] span the tangent space
    basis = np.linalg.qr(np.column_stack([x, ix, np.eye(2 * M)]))[0][:, 2:]
    eigenvalues, vectors = np.linalg.eigh(basis.T @ hess @ basis)
    if not eigenvalues[0] > _EIGEN_FLOOR * eigenvalues[-1]:
        return None
    tangent = vectors.T @ (basis.T @ np.concatenate([grad.real, grad.imag]))
    x = x - basis @ (vectors @ (tangent / eigenvalues))
    return _on_sphere(x[:M] + 1j * x[M:])


def _newton_finish(z, gradient_norm, G2, energies, tol, budget):
    """Guarded Newton iterates from a descent state, at most `budget` of them.

    Returns (z, gradient norm, Newton steps) once the norm is below tol or the
    budget is spent; None once an iterate fails the guard or does not lower it.
    """
    for newton_steps in range(1, budget + 1):
        z = _newton_step(z, G2, energies)
        if z is None:
            return None
        _, norm = _tangent_gradient(z, G2, energies)
        if not norm < gradient_norm:
            return None
        gradient_norm = norm
        if gradient_norm < tol:
            break
    return z, gradient_norm, newton_steps


def _output_phases(z, seeded_sum):
    """Phases of z relative to its first live mode, the live ones shifted to sum to seeded_sum.

    A pi-twin comes out of np.angle as +pi or as just above -pi by the sign
    of a rounding-level imaginary part; folding the latter onto +pi keeps
    that sign from moving every phase by 2 pi/(live modes) per twin through
    the shift.
    """
    live = np.abs(z) >= _DEAD_AMPLITUDE
    relative = np.angle(z * z[np.argmax(live)].conj())
    relative[relative < _LOCK_TOL - np.pi] += 2.0 * np.pi
    return relative + (seeded_sum - relative[live].sum()) / np.count_nonzero(live)


def _end_state(phases, amplitudes, converged):
    """(end state, sign pattern) of a finished run; see the module docstring."""
    if not converged:
        return "budget exhausted", ""
    live = amplitudes >= _DEAD_AMPLITUDE
    relative = np.angle(np.exp(1j * (phases - phases[np.argmax(live)])))
    plus = np.abs(relative) < _LOCK_TOL
    minus = np.abs(relative) > np.pi - _LOCK_TOL
    if not np.all(plus | minus | ~live):
        return "stationary, unlocked", ""
    pattern = "".join("0" if not alive else "+" if p else "-"
                      for alive, p in zip(live, plus))
    return ("locked" if live.all() else "locked, dead modes"), pattern


@dataclass
class PhaseLockResult:
    """Terminal configuration of the seeded descent and its Newton finish."""

    phases: np.ndarray
    amplitudes: np.ndarray
    gradient_norm: float
    steps: int
    converged: bool
    phase_spread: float
    min_amplitude: float
    newton_steps: int
    end_state: str
    sign_pattern: str


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
    sum alpha^2 = M.  Descent follows the sphere-projected gradient flow in
    z = alpha e^{i phi} by adaptive Heun steps, and guarded Newton tries
    finish it (see the module docstring), until the joint gradient norm
    drops below tol, relative to the gradient scale 2 sqrt(M) E_M + 3
    M^3/L over its value at L = 10, or max_steps gradient evaluations and
    Newton steps are spent.  The first step is step over that same ratio,
    so both step and tol read as in the default box.  The result also
    carries the terminal phase spread (max pairwise difference of the live
    phases mod 2 pi), the Newton step count and the end state with its
    sign pattern, so callers can see whether this seed's basin locked.
    ValueError is raised before the descent when the box is so short that
    a gradient norm on the sphere could overflow when squared.
    """
    if not 2 <= M <= 6:
        raise ValueError("M must be between 2 and 6")
    if g_sign not in (-1.0, 1.0, -1, 1):
        raise ValueError("g_sign must be +1 (repulsive) or -1 (attractive)")
    if not (step > 0.0 and tol > 0.0 and max_steps >= 1):
        raise ValueError("step, tol, max_steps must be positive")
    if not 0.0 < length < math.inf:
        raise ValueError("length must be positive and finite")
    # The norms the descent squares are at most sqrt(4 (M + 1) M) times the
    # gradient scale; the stop and the Newton switch are measured against
    # that scale, relative to its value in the default box L = 10.
    scale = _gradient_scale(M, length)
    bound = math.sqrt(4.0 * (M + 1) * M) * scale
    if not bound * bound < math.inf:
        top = (M * math.pi / length) * (M * math.pi / length) / 2.0
        raise ValueError(f"length {length:g}: the top box level {top:.3g} allows gradient "
                         f"norms up to {bound:.3g}, whose squares overflow")
    relative = scale / _gradient_scale(M, 10.0)
    stop = tol * relative
    # the first step in the same units: it moves z as far as `step` moves
    # it in the default box
    step = step / relative

    G2 = float(g_sign) * box_mode_tensor(M, length).reshape(M * M, M * M)
    energies = box_mode_energies(M, length)

    rng = np.random.default_rng(seed)
    phases = rng.uniform(0.0, 2.0 * np.pi, M)
    amplitudes = rng.uniform(0.5, 1.5, M)
    amplitudes *= math.sqrt(M / np.sum(amplitudes**2))

    z = amplitudes * np.exp(1j * phases)
    grad, gradient_norm = _tangent_gradient(z, G2, energies)
    steps, newton_steps = 1, 0
    switch = _NEWTON_SWITCH * relative
    while gradient_norm >= stop and steps < max_steps:
        if gradient_norm < switch:
            finish = _newton_finish(z, gradient_norm, G2, energies, stop, max_steps - steps)
            if finish is not None:
                z, gradient_norm, newton_steps = finish
                steps += newton_steps
                break
            switch = _RETRY_FALL * gradient_norm
        step = min(step, math.sqrt(M) / gradient_norm)
        trial = _on_sphere(z - step * grad)
        trial_grad = _projected_gradient(trial, G2, energies)
        steps += 1
        # Heun's error over the tolerance, both relative to the step h |g|
        ratio = 0.5 * _norm(trial_grad - grad) / (_STEP_TOL * _norm(grad))
        if ratio <= 1.0 and steps < max_steps:
            z = _on_sphere(z - 0.5 * step * (grad + trial_grad))
            grad, gradient_norm = _tangent_gradient(z, G2, energies)
            steps += 1
        step *= min(_STEP_GROWTH, _STEP_SAFETY / math.sqrt(ratio)) if ratio > 0 else _STEP_GROWTH

    converged = gradient_norm < stop
    amplitudes = np.abs(z)
    phases = _output_phases(z, phases.sum())
    live = phases[amplitudes >= _DEAD_AMPLITUDE]
    diffs = np.angle(np.exp(1j * (live[:, None] - live[None, :])))
    end_state, sign_pattern = _end_state(phases, amplitudes, converged)
    return PhaseLockResult(
        phases=phases,
        amplitudes=amplitudes,
        gradient_norm=gradient_norm,
        steps=steps,
        converged=converged,
        phase_spread=float(np.max(np.abs(diffs))),
        min_amplitude=float(np.min(amplitudes)),
        newton_steps=newton_steps,
        end_state=end_state,
        sign_pattern=sign_pattern,
    )
