"""Segment chains: junction energies, phase variances, ODLRO, oscillator."""

import math

import numpy as np
import pytest
from scipy import constants as const

from bcsbec.chain import (
    ChainGroundState,
    charging_energy,
    coherence_classify,
    josephson_energy,
    odlro,
    oscillator_oracle,
    sigma_phi2,
)


def test_charging_energy_reference_geometry():
    # vacuum permittivity, 1 um^2 area, 1 nm gap: E_c close to 9 micro-eV
    e_c = charging_energy(const.epsilon_0, 1e-12, 1e-9)
    assert e_c / const.e == pytest.approx(9.047564083732874e-06, rel=1e-12)


def test_charging_energy_scaling_and_validation():
    base = charging_energy(const.epsilon_0, 1e-12, 1e-9)
    assert charging_energy(const.epsilon_0, 1e-12, 2e-9) == pytest.approx(2.0 * base, rel=1e-12)
    assert charging_energy(2.0 * const.epsilon_0, 1e-12, 1e-9) == pytest.approx(0.5 * base, rel=1e-12)
    with pytest.raises(ValueError):
        charging_energy(const.epsilon_0, 0.0, 1e-9)
    with pytest.raises(ValueError):
        charging_energy(const.epsilon_0, 1e-12, -1e-9)
    # every factor is positive, but epsilon S / d underflows to 0
    with pytest.raises(ValueError, match="underflows"):
        charging_energy(1e-300 * const.epsilon_0, 1e-312, 1e291)


def test_josephson_energy_arithmetic():
    assert josephson_energy(2.0, 3.0, 1.0, 1.0) == pytest.approx(6.0, rel=1e-15)
    # equal segments reduce to G^2 Delta0 / 2 with Delta_j = Delta0/U
    g, u, delta0 = 0.3, 2.5, 1.7
    ej = josephson_energy(g, u, delta0 / u, delta0 / u)
    assert ej == pytest.approx(0.5 * g**2 * delta0, rel=1e-14)
    # symmetric under swapping the segments
    assert josephson_energy(0.4, 1.0, 0.8, 1.9) == pytest.approx(
        josephson_energy(0.4, 1.0, 1.9, 0.8), rel=1e-15
    )
    assert josephson_energy(0.0, 1.0, 1.0, 1.0) == 0.0
    with pytest.raises(ValueError):
        josephson_energy(-0.1, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        josephson_energy(0.1, 1.0, 0.0, 1.0)


def test_sigma_phi2():
    assert sigma_phi2(1.0, 2.0) == pytest.approx(1.0, rel=1e-15)
    assert sigma_phi2(2.0, 1.0) == pytest.approx(2.0, rel=1e-15)
    assert sigma_phi2(1.0, 0.0) == math.inf
    with pytest.raises(ValueError):
        sigma_phi2(0.0, 1.0)
    with pytest.raises(ValueError):
        sigma_phi2(1.0, -0.5)


def test_odlro_decay_slope():
    sigma2 = 0.7
    bars = np.full(9, 1.3)
    separations = np.arange(9)
    rho = np.array([odlro(0, r, bars, sigma2) for r in separations])
    slope = np.polyfit(separations, np.log(rho), 1)[0]
    assert abs(slope + sigma2) <= 1e-12
    # self-correlation keeps the stated 2 pi prefactor
    assert rho[0] == pytest.approx(2.0 * np.pi * 1.3**2, rel=1e-14)


def test_odlro_symmetry_and_validation():
    bars = np.array([1.0, 0.5, 2.0])
    assert odlro(0, 2, bars, 0.3) == pytest.approx(odlro(2, 0, bars, 0.3), rel=1e-15)
    # the incoherent limit sigma2 = inf keeps only the self-correlation
    assert odlro(0, 0, bars, math.inf) == 2.0 * math.pi
    assert odlro(0, 2, bars, math.inf) == 0.0
    with pytest.raises(ValueError):
        odlro(0, 3, bars, 0.3)
    with pytest.raises(ValueError):
        odlro(-1, 0, bars, 0.3)
    with pytest.raises(ValueError):
        odlro(0, 1, bars, -0.1)


def test_oscillator_matches_literal_closed_form():
    result = oscillator_oracle(1.0, 1.0)
    exact = math.sqrt(8.0)
    assert abs(result.variance - exact) / exact < 1e-6
    assert result.ground_energy == pytest.approx(math.sqrt(8.0), rel=1e-6)


def test_oscillator_second_order_convergence():
    coarse = oscillator_oracle(1.0, 1.0, span=20.0, points=4001)
    fine = oscillator_oracle(1.0, 1.0, span=20.0, points=8001)
    exact = math.sqrt(8.0)
    ratio = abs(coarse.variance - exact) / abs(fine.variance - exact)
    assert 3.5 <= ratio <= 4.5


def test_oscillator_rejects_clipping_box():
    with pytest.raises(ValueError):
        oscillator_oracle(1.0, 1.0, span=2.0)
    with pytest.raises(ValueError):
        oscillator_oracle(0.0, 1.0)


def test_coherence_classification():
    assert coherence_classify(1.0, 3.0) == "global"
    assert coherence_classify(1.0, 1.0) == "local"
    assert coherence_classify(1.0, 2.0) == "boundary"
    # scale free: rescaling both energies cannot change the label
    for factor in (1e-6, 1.0, 1e6):
        assert coherence_classify(1.0 * factor, 3.0 * factor) == "global"
        assert coherence_classify(1.0 * factor, 1.0 * factor) == "local"


def test_ground_state_reports_all_three_variance_conventions():
    gs = ChainGroundState.for_chain(1.0, 2.0)
    assert gs.sigma2 == pytest.approx(1.0, rel=1e-15)
    assert gs.variance_oscillator == pytest.approx(2.0, rel=1e-15)
    assert gs.variance_gaussian_form == pytest.approx(0.5, rel=1e-15)
    assert gs.factor_discrepancy
    incoherent = ChainGroundState.for_chain(1.0, 0.0)
    assert incoherent.sigma2 == math.inf
    assert incoherent.variance_oscillator == math.inf
    assert not incoherent.factor_discrepancy
