"""Closed-form overlaps of multimode states and the eta statistics.

Two states that differ only by a rotation dphi of the common phase have
overlap

    coherent (bosonic):  prod_n exp[-alpha_n^2 (1 - e^{i dphi})]
    paired (fermionic):  prod_k [cos^2(theta_k) + e^{i dphi} sin^2(theta_k)]

Each factor has modulus <= 1, so both shrink exponentially with the number
of participating modes; the per-mode decay rate of the paired form is
-ln|cos^2 + e^{i dphi} sin^2| exactly.  The vanishing of these overlaps in
the many-mode limit is what lets the phase behave as a classical label.

The eta statistics quantify how far the pair mode built from angles
theta_k is from an exact boson: with [b, b+] = 1 - eta,

    <eta>   = (1/Omega) sum theta^2 (1 - eps/xi)
    var eta = (1/Omega^2) sum theta^4 (Delta0 Gamma / xi)^2

both of which the exact 2^M oracle reproduces digit for digit when the
angles follow the consistent half-angle convention.
"""

from __future__ import annotations

import numpy as np

from .ensembles import PairEnsemble

__all__ = ["bec_overlap", "bcs_overlap", "eta_statistics"]


def bec_overlap(amplitudes, dphi: float) -> complex:
    """Overlap of a multimode coherent state with its dphi-rotated twin.

    amplitudes may be any sequence of alpha_n >= 0; the return value is
    prod_n exp[-alpha_n^2 (1 - e^{i dphi})].  The exponents are
    accumulated before a single exponential, so the result underflows
    gracefully instead of losing precision factor by factor.
    """
    alpha = np.atleast_1d(np.asarray(amplitudes, dtype=float))
    if np.any(alpha < 0.0):
        raise ValueError("amplitudes must be >= 0")
    alpha2 = alpha**2
    exponent = -np.sum(alpha2) * (1.0 - np.exp(1j * float(dphi)))
    return complex(np.exp(exponent))


def bcs_overlap(thetas, dphi: float) -> complex:
    """Overlap of a paired product state with its dphi-rotated twin.

    thetas may be any sequence of angles in [0, pi/2]; the return value is
    prod_k (cos^2 theta_k + e^{i dphi} sin^2 theta_k).
    """
    theta = np.atleast_1d(np.asarray(thetas, dtype=float))
    if theta.size == 0:
        return complex(1.0)
    if np.any(theta < -1e-15) or np.any(theta > 0.5 * np.pi + 1e-15):
        raise ValueError("theta must lie in [0, pi/2]")
    c2 = np.cos(theta) ** 2
    s2 = np.sin(theta) ** 2
    factors = c2 + np.exp(1j * float(dphi)) * s2
    return complex(np.prod(factors))


def eta_statistics(ens: PairEnsemble) -> dict:
    """Mean and variance of eta = 1 - [b, b+] in the paired ground state.

    Requires the gap context (Delta0, k0) so that xi can be rebuilt from
    eps and the form factor.  The occupancy 1 - eps/xi is evaluated in the
    cancellation-free form y^2/(xi (xi + eps)) for eps > 0, mirroring the
    number-equation integrand.  The occupancy counts both spin projections,
    so the angle-weighted mean lies in [0, 2]; both statistics go to zero
    when every mode sits far above the Fermi surface.
    """
    if ens.Delta0 is None:
        raise ValueError("gap context (Delta0) not populated")
    if ens.n_modes == 0:
        raise ValueError("empty ensemble")
    y = ens.Delta0 * ens.form_factor()
    xi = np.hypot(ens.eps, y)
    with np.errstate(invalid="ignore", divide="ignore"):
        occ = np.where(
            ens.eps > 0.0,
            y * y / (xi * (xi + ens.eps)),
            1.0 - ens.eps / np.maximum(xi, 1e-300),
        )
        ratio2 = np.where(xi > 0.0, (y / np.maximum(xi, 1e-300)) ** 2, 0.0)
    t2 = ens.theta**2
    omega = ens.Omega
    mean = float(np.sum(t2 * occ) / omega)
    variance = float(np.sum(t2 * t2 * ratio2) / omega**2)
    return {"mean": mean, "variance": variance}
