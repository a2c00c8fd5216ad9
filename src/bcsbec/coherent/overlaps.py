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

import math

import numpy as np

from .ensembles import PairEnsemble

__all__ = ["bec_overlap", "bcs_overlap", "eta_statistics"]


def bec_overlap(amplitudes, dphi: float) -> complex:
    """Overlap of a multimode coherent state with its dphi-rotated twin.

    amplitudes may be any sequence of alpha_n >= 0; the return value is
    prod_n exp[-alpha_n^2 (1 - e^{i dphi})].  The exponents are
    accumulated before a single exponential, so the result underflows
    gracefully instead of losing precision factor by factor.  The factor
    1 - e^{i dphi} is formed as 2 sin^2(dphi/2) - i sin(dphi), whose real
    part keeps its relative precision for tiny dphi, where 1 - cos(dphi)
    would round to 0: the modulus is exp(-2 sum alpha_n^2 sin^2(dphi/2)).
    At dphi = 0 the twin is the state itself and the overlap is exactly 1;
    otherwise a sum of alpha_n^2 that overflows gives the limit 0.
    """
    alpha = np.atleast_1d(np.asarray(amplitudes, dtype=float))
    if np.any(alpha < 0.0):
        raise ValueError("amplitudes must be >= 0")
    dphi = float(dphi)
    if dphi == 0.0:
        return complex(1.0)
    half = math.sin(0.5 * dphi)
    factor = complex(2.0 * half * half, -math.sin(dphi))
    with np.errstate(over="ignore"):
        total = np.sum(alpha**2)
        if total == np.inf:
            return complex(0.0)
        return complex(np.exp(-total * factor))


def bcs_overlap(thetas, dphi: float) -> complex:
    """Overlap of a paired product state with its dphi-rotated twin.

    thetas may be any sequence of angles in [0, pi/2]; the return value is
    prod_k (cos^2 theta_k + e^{i dphi} sin^2 theta_k).  The phase factor
    e^{i dphi} is one Python complex, (cos dphi, sin dphi), and each square
    is taken in place, so a call allocates only the factor array.
    """
    theta = np.atleast_1d(np.asarray(thetas, dtype=float))
    if theta.size == 0:
        return complex(1.0)
    if theta.min() < -1e-15 or theta.max() > 0.5 * np.pi + 1e-15:
        raise ValueError("theta must lie in [0, pi/2]")
    dphi = float(dphi)
    c2 = np.cos(theta)
    c2 *= c2
    s2 = np.sin(theta)
    s2 *= s2
    factors = s2 * complex(math.cos(dphi), math.sin(dphi))
    factors += c2
    return complex(factors.prod())


def eta_statistics(ens: PairEnsemble) -> dict:
    """Mean and variance of eta = 1 - [b, b+] in the paired ground state.

    Requires the gap context Delta0 so that xi can be rebuilt from
    eps and the form factor.  The occupancy 1 - eps/xi is evaluated in the
    cancellation-free form y^2/(xi (xi + eps)) for eps > 0, mirroring the
    number-equation integrand.  The occupancy counts both spin projections,
    so the angle-weighted mean lies in [0, 2]; both statistics go to zero
    when every mode sits far above the Fermi surface.  With Omega = 0 (no
    sampled mode carries a pairing angle) the pair operator
    b = Omega^{-1/2} sum theta S- does not exist, and this raises.
    """
    xi = ens.xi()
    if ens.Omega == 0.0:
        raise ValueError("Omega = 0: no sampled mode is paired, eta is undefined")
    y = ens.Delta0 * ens.form_factor()
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
