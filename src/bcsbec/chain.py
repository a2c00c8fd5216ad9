"""Coupled superconducting segments: charging, tunneling, phase stiffness.

A chain of N paired segments is characterized by two energies per
junction: the electrostatic cost of moving a pair across it,

    E_c = e^2 / (2 C),   C = epsilon S / d   (parallel-plate form),

and the Josephson coupling gained by coherent pair tunneling,

    E_J = g U^2 Delta_j Delta_{j+1},   g = G^2 / (U [Delta_j + Delta_{j+1}]),

which for equal segments collapses to E_J = G^2 (U Delta) / 2 with
U Delta the energy gap.  The harmonic ground state of the relative-phase
Hamiltonian spreads each phase difference by sigma_phi^2 = sqrt(2 E_c/E_J)
(the convention used for classification throughout), and the segment-to-
segment pair correlation decays exponentially,

    rho_jl = 2 pi Delta_bar_j Delta_bar_l exp(-|j - l| sigma_phi^2),

so log rho is affine in the separation with slope -sigma_phi^2.  Phase
coherence is global when tunneling beats the charging cost, E_J > 2 E_c,
local when it loses, with the boundary at equality.

Factor conventions: the literal oscillator Hamiltonian per relative phase,

    H = -16 E_c d^2/dphi^2 + (E_J / 2) phi^2,

has mass 1/(32 E_c), frequency sqrt(32 E_c E_J), ground energy
sqrt(8 E_c E_J) and variance <phi^2> = sqrt(8 E_c/E_J).  That variance,
the classification convention sqrt(2 E_c/E_J), and the Gaussian-form value
sqrt(E_c/2 E_J) are mutually inconsistent normalizations in circulation;
ChainGroundState carries all three explicitly labeled, with a discrepancy
flag, and the grid oracle below adjudicates the literal Hamiltonian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import E_CHARGE

__all__ = [
    "charging_energy",
    "josephson_energy",
    "sigma_phi2",
    "odlro",
    "OscillatorResult",
    "oscillator_oracle",
    "coherence_classify",
    "ChainGroundState",
]

# relative width of E_J / (2 E_c) = 1 that coherence_classify labels 'boundary'
_BOUNDARY_RTOL = 1e-9
# inverse iterations oscillator_oracle may spend; 8,500 random grids and
# energy scales took at most 6
_INVERSE_ITERATIONS = 30


def charging_energy(epsilon: float, S: float, d: float) -> float:
    """Charging energy e^2/(2C) of a parallel-plate junction, in joules.

    epsilon [F/m], S [m^2], d [m]; C = epsilon S / d.  Callers working in
    electron-volts divide by bcsbec.core.E_CHARGE.
    """
    if epsilon <= 0.0 or S <= 0.0 or d <= 0.0:
        raise ValueError("epsilon, S, d must all be positive")
    capacitance = epsilon * S / d
    if capacitance == 0.0:
        raise ValueError("capacitance epsilon S / d underflows to 0")
    return E_CHARGE**2 / (2.0 * capacitance)


def josephson_energy(G: float, U: float, Delta_j: float, Delta_j1: float) -> float:
    """Josephson energy of one junction from its constituents.

    E_J = g U^2 Delta_j Delta_{j+1} with tunneling strength
    g = G^2/(U [Delta_j + Delta_{j+1}]); Delta are the dimensionless
    per-segment order-parameter magnitudes, U Delta the energy gap.
    Symmetric under segment swap.  G multiplies last, so that G^2 cannot
    overflow where E_J itself is representable.
    """
    if G < 0.0 or U <= 0.0 or Delta_j <= 0.0 or Delta_j1 <= 0.0:
        raise ValueError("G must be >= 0 and U, Delta_j, Delta_j1 positive")
    return U * Delta_j * Delta_j1 / (Delta_j + Delta_j1) * G * G


def sigma_phi2(E_c: float, E_J: float) -> float:
    """Relative-phase variance sqrt(2 E_c / E_J) (classification form).

    E_J = 0 is the fully incoherent limit: each segment keeps an
    independent phase and the variance is reported as infinite.  The root
    is taken factor by factor, on Python floats, so the result is finite
    whenever sqrt(2 E_c/E_J) is, even where 2 E_c/E_J overflows.
    """
    if E_c <= 0.0:
        raise ValueError("E_c must be positive")
    if E_J < 0.0:
        raise ValueError("E_J must be >= 0")
    if E_J == 0.0:
        return math.inf
    return math.sqrt(2.0) * math.sqrt(float(E_c)) / math.sqrt(float(E_J))


def odlro(j: int, l: int, Delta_bars, sigma2: float) -> float:
    """Segment-pair correlation 2 pi Dbar_j Dbar_l exp(-|j-l| sigma2).

    The 2 pi prefactor is kept as printed.  sigma2 = inf (E_J = 0, see
    sigma_phi2) leaves only the self-correlation, rho_jl = 0 for j != l.
    """
    bars = np.atleast_1d(np.asarray(Delta_bars, dtype=float))
    if not (0 <= j < bars.size and 0 <= l < bars.size):
        raise ValueError("segment indices outside the chain")
    if sigma2 < 0.0:
        raise ValueError("sigma2 must be >= 0")
    decay = 1.0 if j == l else math.exp(-abs(j - l) * sigma2)
    return float(2.0 * math.pi * bars[j] * bars[l] * decay)


@dataclass
class OscillatorResult:
    """Grid diagonalization output for one relative coordinate."""

    ground_energy: float
    variance: float


def oscillator_oracle(
    E_c: float,
    E_J: float,
    span: float | None = None,
    points: int = 12001,
) -> OscillatorResult:
    """Lowest eigenpair of H = -16 E_c d^2/dphi^2 + (E_J/2) phi^2 on a grid.

    Second-order finite differences on a uniform grid; the default span
    8.5 sigma_0 (sigma_0 = (32 E_c/E_J)^{1/4}) puts the Gaussian boundary
    amplitude near 1e-16 of the peak.  Grids whose boundary amplitude
    exceeds 1e-12 of the peak are rejected as non-converged.  Errors of
    the returned variance shrink at second order in the spacing, which
    the tests verify by Richardson doubling.

    The tridiagonal H is solved by shifted inverse iteration on LAPACK's
    LDL^T factorization (dpttrf/dpttrs) with Rayleigh-quotient shifts
    (Parlett, The Symmetric Eigenvalue Problem, SIAM 1998, ch. 4), from a
    vector of ones, never from the closed-form Gaussian.  H has negative
    off-diagonals, so its ground state is its one positive eigenvector,
    and it is positive definite, so the first shift is 0.  After each
    solve, the Rayleigh quotient lambda >= E_0 and the residual
    r = |H psi - lambda psi| give the next shift lambda - max(r, tol),
    adopted only if H minus it factors, which proves (up to rounding) that
    every eigenvalue lies above it.  The iteration stops at
    r <= tol = eps |H|_1, the absolute tolerance of LAPACK's bisection
    (stebz), once that factorization succeeds: the returned energy is then
    certified within tol of the grid's ground energy.  One more solve with
    that last shift, within tol of E_0, brings the vector to working
    accuracy for the variance.  ValueError is raised if the iteration
    takes more than _INVERSE_ITERATIONS solves, or if sigma_0, the span,
    the spacing or an entry of H is not finite and positive.
    """
    if not (E_c > 0.0 and E_J > 0.0):
        raise ValueError("E_c and E_J must be positive")
    if points < 3:
        raise ValueError("points must be >= 3")
    sigma0 = (32.0 * E_c / E_J) ** 0.25
    if not 0.0 < sigma0 < math.inf:
        raise ValueError(f"sigma_0 = (32 E_c/E_J)^(1/4) = {sigma0:.3g} is not finite and positive")
    if span is None:
        span = 8.5 * sigma0
    if not 0.0 < span < math.inf:
        raise ValueError("span must be positive and finite")
    h = 2.0 * span / (points - 1)
    if not 0.0 < h < math.inf:
        raise ValueError(f"grid spacing {h:.3g} is not finite and positive")
    # H / kinetic has diagonal 2 + curvature x^2 and off-diagonals -1, so
    # no norm in the iteration can overflow whatever the energy scale
    kinetic = 16.0 * E_c / h / h
    if not 0.0 < kinetic < math.inf:
        raise ValueError(f"matrix entry 16 E_c/h^2 = {kinetic:.3g} is not finite and positive")
    curvature = 0.5 * E_J / kinetic
    if not kinetic * (2.0 + curvature * span * span) < math.inf:
        raise ValueError("matrix entry 32 E_c/h^2 + E_J span^2/2 at the grid's edge overflows")
    # imported here so that only this oracle, not the package, loads scipy
    from scipy.linalg.lapack import dpttrf, dpttrs

    x = np.linspace(-span, span, points)
    diag = 2.0 + curvature * x * x
    off = np.full(points - 1, -1.0)
    tol = np.finfo(float).eps * (diag.max() + 2.0)
    factor = dpttrf(diag, off)[:2]  # diag >= 2 keeps every pivot >= 1
    psi = np.ones(points)
    for _ in range(_INVERSE_ITERATIONS):
        psi = dpttrs(*factor, psi)[0]
        psi /= math.sqrt(psi @ psi)
        h_psi = diag * psi
        h_psi[1:] -= psi[:-1]
        h_psi[:-1] -= psi[1:]
        energy = psi @ h_psi
        h_psi -= energy * psi
        residual = math.sqrt(h_psi @ h_psi)
        *shifted, info = dpttrf(diag - (energy - max(residual, tol)), off)
        if info == 0:
            factor = shifted
            if residual <= tol:
                break
    else:
        raise ValueError(
            f"inverse iteration did not converge in {_INVERSE_ITERATIONS} solves"
        )
    # the last shift lies within tol of E_0, so one more solve sharpens psi
    psi = dpttrs(*factor, psi)[0]
    peak = float(np.max(np.abs(psi)))
    boundary = float(max(abs(psi[0]), abs(psi[-1])) / peak)
    if boundary > 1e-12:
        raise ValueError(
            f"grid not converged: boundary amplitude {boundary:.2e} of peak "
            f"exceeds 1e-12 (span too small)"
        )
    weight = psi * psi
    variance = float(np.sum(weight * x * x) / np.sum(weight))
    return OscillatorResult(ground_energy=float(kinetic * energy), variance=variance)


def coherence_classify(E_c: float, E_J: float) -> str:
    """'global' when E_J > 2 E_c, 'local' below, 'boundary' at equality.

    The comparison is scale free (only E_J/E_c enters), so common
    rescaling of both energies cannot change the label.
    """
    if E_c <= 0.0:
        raise ValueError("E_c must be positive")
    if E_J < 0.0:
        raise ValueError("E_J must be >= 0")
    ratio = E_J / (2.0 * E_c)
    if abs(ratio - 1.0) <= _BOUNDARY_RTOL:
        return "boundary"
    return "global" if ratio > 1.0 else "local"


@dataclass
class ChainGroundState:
    """Harmonic ground-state summary with all three variance conventions.

    sigma2 is the classification convention sqrt(2 E_c/E_J); the literal
    oscillator Hamiltonian gives sqrt(8 E_c/E_J); the Gaussian form with
    width parameter sqrt(E_J/(8 E_c)) gives sqrt(E_c/(2 E_J)).  They
    differ by fixed factors, so factor_discrepancy is set whenever
    E_J > 0.
    """

    sigma2: float
    variance_oscillator: float
    variance_gaussian_form: float
    factor_discrepancy: bool

    @classmethod
    def for_chain(cls, E_c: float, E_J: float) -> "ChainGroundState":
        s2 = sigma_phi2(E_c, E_J)
        if E_J == 0.0:
            osc = math.inf
            gauss = math.inf
        else:
            osc = math.sqrt(8.0 * E_c / E_J)
            gauss = math.sqrt(E_c / (2.0 * E_J))
        return cls(
            sigma2=s2,
            variance_oscillator=osc,
            variance_gaussian_form=gauss,
            factor_discrepancy=bool(E_J > 0.0),
        )
