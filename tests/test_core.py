"""Natural units, the eV scale of eps0, dispersion, and the threshold coupling."""

import numpy as np
import pytest
from scipy import constants

from bcsbec.core import (
    E_CHARGE,
    EPSILON_0,
    HBAR,
    HBAR2_OVER_2ME_EV_A2,
    M_E,
    U_C,
    dispersion,
    eps0_ev,
    fermi_energy,
    nsr_form_factor,
)
from bcsbec.quadrature import radial_integral


def test_si_constants_equal_scipy_codata():
    assert (HBAR, M_E, E_CHARGE, EPSILON_0) == (
        constants.hbar, constants.m_e, constants.e, constants.epsilon_0)
    assert HBAR2_OVER_2ME_EV_A2 == constants.hbar**2 / (2.0 * constants.m_e) / constants.e / 1e-20


def test_dimensionless_scales():
    # U_c = 4 pi hbar^2/(m k0) = 8 pi at hbar = k0 = 1, m = 1/2, and it
    # meets the threshold identity U_c Integral Gamma^2/(2 eps_k) = 1
    assert U_C == 8.0 * np.pi
    kernel = radial_integral(lambda k: nsr_form_factor(k) ** 2 / (2.0 * dispersion(k)))
    assert U_C * kernel[0] == pytest.approx(1.0, rel=1e-13)


def test_free_electron_constant():
    # hbar^2/(2 m_e) in eV A^2, standard CODATA value
    assert HBAR2_OVER_2ME_EV_A2 == pytest.approx(3.8099821, rel=1e-6)
    assert eps0_ev(1.41) == pytest.approx(3.8099821 * 1.41**2, rel=1e-6)


def test_fermi_values_at_reference_density():
    # eps_F = k_F^2 with k_F = 0.839750617610591 at n = 2e-2
    assert fermi_energy(2e-2) == pytest.approx(0.705181099777369, rel=1e-14)


def test_validation():
    for f in (dispersion, nsr_form_factor):
        with pytest.raises(ValueError):
            f(np.array([0.5, -1.0]))


def test_dispersion_continuum():
    k = np.array([0.0, 0.5, 2.0])
    assert np.array_equal(dispersion(k), k * k)
    with pytest.raises(ValueError):
        dispersion(np.array([-1.0]))


def test_form_factor():
    assert nsr_form_factor(0.0) == 1.0
    k = np.linspace(0.0, 30.0, 200)
    g = nsr_form_factor(k)
    assert np.all(np.diff(g) < 0.0)
    assert nsr_form_factor(200.0) == pytest.approx(1.0 / 200.0, rel=1e-4)
    with pytest.raises(ValueError):
        nsr_form_factor(-1.0)


def test_critical_coupling_scaling():
    # U_c in eV A^3 is U_C eps0/k0^3 = 4 pi hbar^2/(m_e k0): it falls as 1/k0
    # while eps0 = hbar^2 k0^2/(2 m_e) grows as k0^2
    for k0 in (0.05, 1.41, 30.0):
        assert eps0_ev(k0) == pytest.approx(HBAR2_OVER_2ME_EV_A2 * k0**2, rel=1e-15)
        assert U_C * eps0_ev(k0) / k0**3 == pytest.approx(
            8.0 * np.pi * HBAR2_OVER_2ME_EV_A2 / k0, rel=1e-15)
    assert eps0_ev(2.0) == 4.0 * eps0_ev(1.0)
