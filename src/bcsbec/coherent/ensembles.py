"""The pairing-mode ensemble of the coherent-state calculations.

A PairEnsemble is a finite sample of pairing modes: for each wavevector
magnitude k it stores the shifted single-particle energy eps = eps_k - mu
and the Bogoliubov angle theta_k, together with one common order-parameter
phase phi and the gap Delta0 needed to reconstruct xi_k = sqrt(eps^2 +
Delta0^2 Gamma_k^2).  Wavevectors are in k0 and energies in eps0, the
natural units of bcsbec.core.  The collective weight
Omega = sum theta_k^2 normalizes the pair mode built from these angles.

Two angle conventions circulate for theta_k.  The consistent one,

    theta_k = (1/2) atan2(Delta0 Gamma_k, eps),

makes cos(2 theta) = eps/xi and sin(2 theta) = Delta0 Gamma/xi, so the
mode occupancy 2 sin^2(theta) equals 1 - eps/xi and the exact
finite-mode oracle reproduces the analytic eta statistics.  The literal
full-angle form |arctan(Delta0 Gamma/eps)| is kept behind the
``convention`` argument of ``PairEnsemble.from_gap_solution`` for
comparison; it folds the below-Fermi-surface branch onto the wrong side
and breaks the single-mode identity, which is exactly why the consistent
convention is the default.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core import dispersion, nsr_form_factor

__all__ = ["PairEnsemble", "random_pair_ensemble"]

_HALF_PI = 0.5 * np.pi
# upper end of the wavevectors random_pair_ensemble draws
_RANDOM_K_MAX = 4.0


def _as_float_array(values, name: str) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(values, dtype=float))
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if arr.size == 0:
        raise ValueError(f"{name} must contain at least one mode")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


@dataclass
class PairEnsemble:
    """Finite set of pairing modes with a common phase and gap context.

    Fields
    ------
    k, eps, theta : arrays of equal length (k magnitudes, eps_k - mu,
        Bogoliubov angles in [0, pi/2]).
    phi : common order-parameter phase (radians).
    Delta0 : energy gap of the parent solution; needed by the eta
        statistics, optional for pure overlap work.
    Omega : sum of theta^2, computed from theta.
    """

    k: np.ndarray
    eps: np.ndarray
    theta: np.ndarray
    phi: float = 0.0
    Delta0: float | None = None
    Omega: float = field(init=False)

    def __post_init__(self):
        self.k = _as_float_array(self.k, "k")
        self.eps = _as_float_array(self.eps, "eps")
        self.theta = _as_float_array(self.theta, "theta")
        if not (self.k.size == self.eps.size == self.theta.size):
            raise ValueError("k, eps, theta must have equal length")
        # every entry is finite here, so one min and one max decide the ranges
        if self.k.min() < 0.0:
            raise ValueError("wavevector magnitudes must be >= 0")
        if self.theta.min() < -1e-15 or self.theta.max() > _HALF_PI + 1e-15:
            raise ValueError("theta must lie in [0, pi/2]")
        self.theta = np.clip(self.theta, 0.0, _HALF_PI)
        self.phi = float(self.phi)
        self.Omega = float(np.sum(self.theta**2))
        if self.Delta0 is not None and self.Delta0 < 0.0:
            raise ValueError("Delta0 must be >= 0")

    @property
    def n_modes(self) -> int:
        return self.theta.size

    def form_factor(self) -> np.ndarray:
        return nsr_form_factor(self.k)

    def xi(self) -> np.ndarray:
        """Quasiparticle energies sqrt(eps^2 + Delta0^2 Gamma^2)."""
        if self.Delta0 is None:
            raise ValueError("gap context (Delta0) not populated")
        y = self.Delta0 * self.form_factor()
        return np.hypot(self.eps, y)

    @classmethod
    def from_gap_solution(cls, solution, k, convention: str = "half-angle") -> "PairEnsemble":
        """Sample the pairing angles of a converged solution on a k grid.

        ``solution`` is a GapSolution (mu, Delta0); the grid is a finite
        stand-in for the continuum, so ensemble statistics carry the grid
        discretization, not quadrature weights.  The common phase phi
        keeps its default 0, which the eta statistics do not read.
        """
        k = _as_float_array(k, "k")
        eps = dispersion(k) - solution.mu
        gamma = nsr_form_factor(k)
        y = solution.Delta0 * gamma
        if convention == "half-angle":
            theta = 0.5 * np.arctan2(y, eps)
        elif convention == "literal":
            with np.errstate(divide="ignore"):
                theta = np.abs(np.arctan(np.where(eps != 0.0, y / eps, np.inf)))
        else:
            raise ValueError(f"unknown angle convention {convention!r}")
        return cls(k=k, eps=eps, theta=theta, Delta0=solution.Delta0)


def random_pair_ensemble(
    n_modes: int,
    rng: np.random.Generator,
    phi: float | None = None,
) -> PairEnsemble:
    """Draw a random but internally consistent PairEnsemble.

    Wavevectors, a chemical potential, and a gap are drawn first; the
    angles then follow the consistent half-angle convention, so the exact
    small-M oracle must agree with the analytic eta statistics on the
    result.  Used by the oracle-equivalence checks and tests.
    """
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    k = np.sort(rng.uniform(0.05, _RANDOM_K_MAX, n_modes))
    mu = rng.uniform(-0.5, 1.5)
    Delta0 = rng.uniform(0.2, 2.0)
    eps = dispersion(k) - mu
    theta = 0.5 * np.arctan2(Delta0 * nsr_form_factor(k), eps)
    if phi is None:
        phi = rng.uniform(0.0, 2.0 * np.pi)
    return PairEnsemble(k=k, eps=eps, theta=theta, phi=float(phi), Delta0=Delta0)
