"""Parameters in both unit modes, dispersion, and the threshold coupling."""

import numpy as np
import pytest
from scipy import constants

from bcsbec.core import (
    E_CHARGE,
    EPSILON_0,
    HBAR,
    HBAR2_OVER_2ME_EV_A2,
    M_E,
    PhysicalParams,
    critical_coupling,
    dispersion,
    nsr_form_factor,
)


def test_si_constants_equal_scipy_codata():
    assert (HBAR, M_E, E_CHARGE, EPSILON_0) == (
        constants.hbar, constants.m_e, constants.e, constants.epsilon_0)
    assert HBAR2_OVER_2ME_EV_A2 == constants.hbar**2 / (2.0 * constants.m_e) / constants.e / 1e-20


def test_dimensionless_scales():
    p = PhysicalParams.dimensionless()
    assert p.eps0 == 1.0
    assert critical_coupling(p) == pytest.approx(8.0 * np.pi, rel=1e-15)


def test_free_electron_constant():
    # hbar^2/(2 m_e) in eV A^2, standard CODATA value
    assert HBAR2_OVER_2ME_EV_A2 == pytest.approx(3.8099821, rel=1e-6)
    p = PhysicalParams.free_electron(k0=1.41)
    assert p.eps0 == pytest.approx(3.8099821 * 1.41**2, rel=1e-6)


def test_fermi_values_at_reference_density():
    # eps_F = k_F^2 with k_F = 0.839750617610591 at n = 2e-2
    assert PhysicalParams.dimensionless().fermi_energy(2e-2) == pytest.approx(
        0.705181099777369, rel=1e-14)


def test_validation():
    with pytest.raises(ValueError):
        PhysicalParams(k0=0.0)
    with pytest.raises(ValueError):
        PhysicalParams(k0=1.0, half_hbar2_over_m=-1.0)


def test_dispersion_continuum():
    p = PhysicalParams.dimensionless()
    k = np.array([0.0, 0.5, 2.0])
    assert np.allclose(dispersion(k, p), k**2)
    with pytest.raises(ValueError):
        dispersion(np.array([-1.0]), p)


def test_form_factor():
    assert nsr_form_factor(0.0) == 1.0
    k = np.linspace(0.0, 30.0, 200)
    g = nsr_form_factor(k, k0=2.0)
    assert np.all(np.diff(g) < 0.0)
    assert nsr_form_factor(200.0, k0=2.0) == pytest.approx(2.0 / 200.0, rel=1e-4)
    with pytest.raises(ValueError):
        nsr_form_factor(1.0, k0=0.0)
    with pytest.raises(ValueError):
        nsr_form_factor(-1.0)


def test_critical_coupling_scaling():
    p = PhysicalParams.free_electron(k0=1.41)
    assert critical_coupling(p) == pytest.approx(
        8.0 * np.pi * p.half_hbar2_over_m / 1.41, rel=1e-15
    )
