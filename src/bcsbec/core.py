"""Natural units, single-particle ingredients and the threshold coupling.

The model is a three-dimensional attractive Fermi gas with a separable
interaction regularized by the form factor

    Gamma(k) = 1 / sqrt(1 + k^2/k0^2),

which renders all momentum integrals convergent and introduces a two-body
threshold coupling

    U_c = 4 pi hbar^2 / (m k0):

below U_c the two-body problem has no bound state, above it a bound pair
forms and the many-body ground state crosses over from overlapping Cooper
pairs to a condensate of tightly bound molecules.

Every solver works in natural units, hbar = k0 = eps0 = 1 with eps0 =
hbar^2 k0^2/(2m) (so m = 1/2): energies in eps0, momenta in k0, densities
in k0^3 and couplings in eps0/k0^3, so U_c = 8 pi.  With U in units of U_c
and n in units of k0^3 the model is scale covariant (every answer depends
on k_F a alone, Leggett 1980), so one solve serves every k0.  Physical
units are a presentation step: an energy in eps0 times eps0_ev(k0) is in
eV, for k0 in inverse Angstrom and the free-electron mass.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "HBAR",
    "M_E",
    "E_CHARGE",
    "EPSILON_0",
    "HBAR2_OVER_2ME_EV_A2",
    "U_C",
    "dispersion",
    "nsr_form_factor",
    "fermi_energy",
    "eps0_ev",
]

# SI constants, CODATA 2022 (the values scipy.constants 1.17 carries)
HBAR = 1.0545718176461565e-34    # reduced Planck constant, J s
M_E = 9.1093837139e-31           # electron mass, kg
E_CHARGE = 1.602176634e-19       # elementary charge, C (exact)
EPSILON_0 = 8.8541878188e-12     # vacuum permittivity, F/m

# hbar^2/(2 m_e) in eV * Angstrom^2; the only place SI constants enter the model.
HBAR2_OVER_2ME_EV_A2 = HBAR**2 / (2.0 * M_E) / E_CHARGE / 1e-20

# Two-body threshold U_c = 4 pi hbar^2/(m k0) in eps0/k0^3.  Satisfies
# U_c * Integral[d^3k/(2 pi)^3 Gamma^2/(2 eps_k)] = 1 exactly.
U_C = 8.0 * math.pi


def dispersion(k):
    """Single-particle kinetic energy eps_k = k^2 (in eps0) at momentum magnitude k (in k0)."""
    k = np.asarray(k, dtype=float)
    if np.any(k < 0):
        raise ValueError("negative momentum magnitude")
    return k**2


def nsr_form_factor(k):
    """Separable-interaction form factor Gamma(k) = 1/sqrt(1 + k^2), k in k0.

    Monotone decreasing, Gamma(0) = 1, Gamma ~ 1/k at large k.
    """
    k = np.asarray(k, dtype=float)
    if np.any(k < 0):
        raise ValueError("negative momentum magnitude")
    return 1.0 / np.sqrt(1.0 + k**2)


def fermi_energy(n: float) -> float:
    """eps_F = k_F^2 in eps0 at density n in k0^3, k_F^3 = 3 pi^2 n (both spins)."""
    return (3.0 * np.pi**2 * n) ** (2.0 / 3.0)


def eps0_ev(k0: float) -> float:
    """eps0 = hbar^2 k0^2/(2 m_e) in eV for k0 in inverse Angstrom."""
    return HBAR2_OVER_2ME_EV_A2 * k0 * k0
