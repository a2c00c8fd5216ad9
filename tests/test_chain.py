"""Segment chains: junction energies, phase variances, ODLRO, oscillator."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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
from bcsbec.cli import main


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
    # G^2 U = 1.2e309 overflows, E_J = 6e300 does not
    assert josephson_energy(1e154, 12.0, 1e-8, 1e-8) == pytest.approx(6e300, rel=1e-15)
    with pytest.raises(ValueError):
        josephson_energy(-0.1, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        josephson_energy(0.1, 1.0, 0.0, 1.0)


def test_sigma_phi2():
    assert sigma_phi2(1.0, 2.0) == pytest.approx(1.0, rel=1e-15)
    assert sigma_phi2(2.0, 1.0) == pytest.approx(2.0, rel=1e-15)
    assert sigma_phi2(1.0, 0.0) == math.inf
    # 2 E_c/E_J = 2e310 overflows, its root does not (numpy scalars, as the diagram passes)
    assert sigma_phi2(np.float64(1e300), np.float64(1e-10)) == pytest.approx(
        math.sqrt(2.0) * 1e155, rel=1e-15)
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


def _dense_ground_state(E_c, E_J, points):
    """Lowest eigenpair of the oracle's default grid by dense numpy.linalg.eigh."""
    span = 8.5 * (32.0 * E_c / E_J) ** 0.25
    x = np.linspace(-span, span, points)
    h = x[1] - x[0]
    off = np.full(points - 1, -16.0 * E_c / h**2)
    matrix = np.diag(32.0 * E_c / h**2 + 0.5 * E_J * x**2) + np.diag(off, 1) + np.diag(off, -1)
    energies, vectors = np.linalg.eigh(matrix)
    weight = vectors[:, 0] ** 2
    return energies[0], np.sum(weight * x * x) / np.sum(weight)


@pytest.mark.parametrize("points", [101, 201, 401, 801])
@pytest.mark.parametrize("E_c, E_J", [(1.0, 1.0), (1.0, 4.0), (3.0, 0.2), (1e-3, 1e2)])
def test_oscillator_matches_dense_diagonalization(E_c, E_J, points):
    energy, variance = _dense_ground_state(E_c, E_J, points)
    result = oscillator_oracle(E_c, E_J, points=points)
    assert result.ground_energy == pytest.approx(energy, rel=1e-12)
    assert result.variance == pytest.approx(variance, rel=1e-10)


@settings(max_examples=30, deadline=None)
@given(E_c=st.floats(0.1, 10.0), E_J=st.floats(0.1, 10.0), exponent=st.floats(-6.0, 6.0))
def test_oscillator_scales_with_a_common_energy_factor(E_c, E_J, exponent):
    scale = 10.0**exponent
    base = oscillator_oracle(E_c, E_J)
    scaled = oscillator_oracle(scale * E_c, scale * E_J)
    assert scaled.ground_energy == pytest.approx(scale * base.ground_energy, rel=1e-12)
    assert scaled.variance == pytest.approx(base.variance, rel=1e-10)


@pytest.mark.filterwarnings("error")
def test_oscillator_rejects_non_finite_grids_without_a_warning():
    # sigma_0 = (32 E_c/E_J)^(1/4) overflows or underflows, so no grid can be laid out
    for E_c, E_J in ((1e300, 1e-300), (1.0, 1e-320), (1e-320, 1e300)):
        with pytest.raises(ValueError, match="sigma_0"):
            oscillator_oracle(E_c, E_J)
    for span in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="span"):
            oscillator_oracle(1.0, 1.0, span=span)
    with pytest.raises(ValueError, match="grid spacing"):
        oscillator_oracle(1.0, 1.0, span=1e-320)
    with pytest.raises(ValueError, match="16 E_c/h\\^2"):
        oscillator_oracle(1.0, 1.0, span=1e200)
    with pytest.raises(ValueError, match="edge overflows"):
        oscillator_oracle(1e300, 1e300, span=1e10)


@pytest.mark.filterwarnings("error")
def test_chain_reports_its_closed_forms_where_the_oscillator_oracle_has_no_grid(tmp_path):
    # the oracle's sigma_0 is not finite at either ratio; sigma2 is
    for ec, ej, sigma2 in (("1e300", "1e-300", math.sqrt(2.0) * 1e300),
                           ("1e-300", "1e300", math.sqrt(2.0) * 1e-300)):
        out = tmp_path / ec
        assert main(["chain", "--ec", ec, "--ej", ej, "--out", str(out)]) == 0
        results = json.loads((out / "chain.meta.json").read_text())["results"]
        assert results["sigma2"] == pytest.approx(sigma2, rel=1e-15)
        assert "oscillator_oracle" not in results


@settings(max_examples=100, deadline=None)
@given(log_c=st.floats(-300.0, 300.0), log_j=st.floats(-300.0, 300.0))
def test_variance_conventions_are_exact_multiples_of_sigma2(log_c, log_j):
    ground = ChainGroundState.for_chain(10.0**log_c, 10.0**log_j)
    assert 0.0 < ground.sigma2 < math.inf
    assert ground.variance_oscillator == 2.0 * ground.sigma2
    assert ground.variance_gaussian_form == 0.5 * ground.sigma2
    assert 0.0 < ground.variance_gaussian_form < ground.variance_oscillator < math.inf
    # the literal oscillator's sqrt(8 E_c/E_J), taken in logs so that it cannot overflow
    literal = 0.5 * (math.log(8.0) + log_c * math.log(10.0) - log_j * math.log(10.0))
    assert math.log(ground.variance_oscillator) == pytest.approx(literal, abs=1e-12)


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
