"""Model parameters and single-particle ingredients.

The model is a three-dimensional attractive Fermi gas with a separable
interaction regularized by the form factor

    Gamma(k) = 1 / sqrt(1 + k^2/k0^2),

which renders all momentum integrals convergent and introduces a two-body
threshold coupling

    U_c = 4 pi hbar^2 / (m k0):

below U_c the two-body problem has no bound state, above it a bound pair
forms and the many-body ground state crosses over from overlapping Cooper
pairs to a condensate of tightly bound molecules.

Two unit modes are supported.  In dimensionless mode hbar = 1, k0 = 1 and
eps0 = hbar^2 k0^2 / (2m) = 1 (so m = 1/2); energies are quoted in eps0,
momenta in k0, densities in k0^3.  In physical mode energies are in eV and
lengths in Angstrom, with the free-electron mass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "HBAR",
    "M_E",
    "E_CHARGE",
    "EPSILON_0",
    "HBAR2_OVER_2ME_EV_A2",
    "PhysicalParams",
    "dispersion",
    "nsr_form_factor",
    "critical_coupling",
]

# SI constants, CODATA 2022 (the values scipy.constants 1.17 carries)
HBAR = 1.0545718176461565e-34    # reduced Planck constant, J s
M_E = 9.1093837139e-31           # electron mass, kg
E_CHARGE = 1.602176634e-19       # elementary charge, C (exact)
EPSILON_0 = 8.8541878188e-12     # vacuum permittivity, F/m

# hbar^2/(2 m_e) in eV * Angstrom^2; the only place SI constants enter the model.
HBAR2_OVER_2ME_EV_A2 = HBAR**2 / (2.0 * M_E) / E_CHARGE / 1e-20


@dataclass
class PhysicalParams:
    """Single-particle and interaction parameters in one coherent unit system.

    Energies and hbar^2/(2m) must be expressed in the same energy unit and
    lengths in the same length unit throughout one instance (eV and Angstrom
    in physical mode, eps0 and 1/k0 in dimensionless mode).
    """

    k0: float = 1.0            # form-factor momentum scale (inverse length)
    half_hbar2_over_m: float = 1.0   # hbar^2/(2m) in energy*length^2

    def __post_init__(self):
        if self.k0 <= 0:
            raise ValueError("k0 must be positive")
        if self.half_hbar2_over_m <= 0:
            raise ValueError("hbar^2/(2m) must be positive")

    @classmethod
    def dimensionless(cls) -> "PhysicalParams":
        """hbar = k0 = eps0 = 1 (hence m = 1/2)."""
        return cls(k0=1.0, half_hbar2_over_m=1.0)

    @classmethod
    def free_electron(cls, k0: float) -> "PhysicalParams":
        """Physical mode with the free-electron mass; eV and Angstrom units."""
        return cls(k0=k0, half_hbar2_over_m=HBAR2_OVER_2ME_EV_A2)

    @property
    def eps0(self) -> float:
        """Form-factor energy scale hbar^2 k0^2/(2m)."""
        return self.half_hbar2_over_m * self.k0**2

    def fermi_energy(self, n: float) -> float:
        """eps_F = hbar^2 k_F^2/(2m) at density n, k_F^3 = 3 pi^2 n (both spins)."""
        return self.half_hbar2_over_m * (3.0 * np.pi**2 * n) ** (2.0 / 3.0)


def dispersion(k, params: PhysicalParams):
    """Single-particle kinetic energy eps_k = hbar^2 k^2 / (2m) at momentum magnitude k."""
    k = np.asarray(k, dtype=float)
    if np.any(k < 0):
        raise ValueError("negative momentum magnitude")
    return params.half_hbar2_over_m * k**2


def nsr_form_factor(k, k0: float = 1.0):
    """Separable-interaction form factor Gamma(k) = 1/sqrt(1 + k^2/k0^2).

    Monotone decreasing, Gamma(0) = 1, Gamma ~ k0/k at large k.
    """
    if k0 <= 0:
        raise ValueError("k0 must be positive")
    k = np.asarray(k, dtype=float)
    if np.any(k < 0):
        raise ValueError("negative momentum magnitude")
    return 1.0 / np.sqrt(1.0 + (k / k0) ** 2)


def critical_coupling(params: PhysicalParams) -> float:
    """Two-body threshold U_c = 4 pi hbar^2/(m k0) = 8 pi * half_hbar2_over_m / k0.

    Satisfies U_c * Integral[d^3k/(2 pi)^3 Gamma^2/(2 eps_k)] = 1 exactly.
    """
    return 8.0 * np.pi * params.half_hbar2_over_m / params.k0
