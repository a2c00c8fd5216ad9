"""Truncated phase operators: algebra, limits, and the commutator ladder.

The library evaluates the commutator expectation from the closed-form
matrix elements.  `dense_operators` is the spectral build it replaced,
kept here as the oracle: the operator algebra is checked on it, and the
closed form is checked against it.  `unflushed_report` is the Toeplitz sum
on the full probe, subnormal coefficients included, which the library's
flushed probe must match bit for bit.
"""

import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.special import gammaln

from bcsbec.coherent import pegg_barnett


def dense_operators(s, theta0=0.0):
    """(e^{i theta_hat}, theta_hat, N) as dense (s+1)^2 number-basis matrices."""
    dim = s + 1
    n = np.arange(dim)
    theta_m = theta0 + 2.0 * np.pi * n / dim
    # columns of V are the phase states in the number basis
    V = np.exp(1j * np.outer(n, theta_m)) / np.sqrt(dim)
    theta_op = (V * theta_m) @ V.conj().T
    exp_itheta = (V * np.exp(1j * theta_m)) @ V.conj().T
    return exp_itheta, theta_op, np.diag(n.astype(float))


def dense_commutator_expectation(s, theta0, omega, state_phase):
    """<psi|[theta_hat, N]|psi> on the renormalized truncated coherent state."""
    _, theta_op, number_op = dense_operators(s, theta0)
    n = np.arange(s + 1)
    log_weight = -0.5 * omega + 0.5 * n * np.log(omega) - 0.5 * gammaln(n + 1.0)
    coeff = np.exp(log_weight + 1j * n * state_phase)
    coeff /= np.linalg.norm(coeff)
    comm = theta_op @ number_op - number_op @ theta_op
    return complex(coeff.conj() @ comm @ coeff)


def unflushed_report(s, theta0, omega, state_phase):
    """(commutator, floor, truncation error, subnormal count) of the Toeplitz sum on the full probe."""
    dim = s + 1
    n = np.arange(dim)
    log_factorial = np.array([math.lgamma(k + 1.0) for k in range(dim)])
    log_weight = -0.5 * omega + 0.5 * n * np.log(omega) - 0.5 * log_factorial
    weight = np.exp(log_weight)
    subnormals = int(np.count_nonzero((weight > 0.0) & (weight < np.finfo(float).tiny)))
    coeff = weight * np.exp(1j * n * state_phase)
    truncation_error = float(1.0 - np.sum(np.abs(coeff) ** 2))
    coeff = coeff / np.linalg.norm(coeff)
    d = np.arange(-s, dim)
    d = d[d != 0]
    theta_d = (
        -1j * (np.pi / dim) * np.exp(1j * d * (theta0 - np.pi / dim))
        / np.sin(np.pi * d / dim)
    )
    R = np.correlate(coeff, coeff, "full")[::-1]
    value = complex(np.sum(theta_d * -d * R[d + s]))
    floor = float(abs(np.sum(coeff * np.exp(-1j * n * theta0))) ** 2)
    return value, floor, truncation_error, subnormals


def _quiet(s, theta0=0.0, omega=4.0, state_phase=None):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return pegg_barnett(s, theta0, omega, state_phase=state_phase)


def test_exponential_phase_operator_is_unitary():
    e, _, _ = dense_operators(64)
    eye = np.eye(e.shape[0])
    assert np.abs(e @ e.conj().T - eye).max() < 1e-12
    assert np.abs(e.conj().T @ e - eye).max() < 1e-12


def test_phase_operator_is_hermitian_with_branch_spectrum():
    theta0 = 0.6
    _, t, _ = dense_operators(32, theta0=theta0)
    assert np.abs(t - t.conj().T).max() < 1e-12
    eig = np.sort(np.linalg.eigvalsh(t))
    expected = np.sort(theta0 + 2.0 * np.pi * np.arange(33) / 33.0)
    assert np.allclose(eig, expected, atol=1e-9)


def test_two_level_exponential_is_the_flip():
    e, _, _ = dense_operators(1, theta0=0.0)
    assert np.allclose(e, np.array([[0.0, 1.0], [1.0, 0.0]]), atol=1e-14)


def test_number_operator_diagonal():
    _, _, number_op = dense_operators(16)
    assert np.allclose(number_op, np.diag(np.arange(17.0)), atol=1e-12)


@pytest.mark.parametrize("s", [1, 8, 64, 256])
def test_closed_form_matches_dense_oracle(s):
    for theta0, state_phase in ((0.0, None), (0.6, None), (-2.0, 1.3), (0.25, 0.0)):
        phase = theta0 + np.pi if state_phase is None else state_phase
        report = _quiet(s, theta0, 4.0, state_phase)
        dense = dense_commutator_expectation(s, theta0, 4.0, phase)
        assert abs(report.commutator_expectation - dense) <= 1e-12


@pytest.mark.parametrize("s", [512, 1024, 2048])
def test_flushed_probe_is_bit_identical_to_the_full_sum(s):
    # zeroing the probe weights below sqrt(tiny) moves no reported value
    subnormals = 0
    for omega in (1.0, 4.0, 16.0, 64.0):
        for theta0, state_phase in ((0.7, None), (-1.3, 2.1)):
            phase = theta0 + np.pi if state_phase is None else state_phase
            report = _quiet(s, theta0, omega, state_phase)
            value, floor, truncation_error, count = unflushed_report(s, theta0, omega, phase)
            assert report.commutator_expectation == value
            assert report.deviation_from_canonical == abs(value + 1j)
            assert report.floor == floor
            assert report.truncation_error == truncation_error
            subnormals += count
    # the full probe does carry subnormals at these sizes (16 at Omega = 4)
    assert subnormals > 0


def test_floor_is_the_branch_cut_weight():
    # (s+1)|<theta0|psi>|^2 through the dense phase state, at theta0 != 0
    s, theta0 = 64, 0.6
    report = _quiet(s, theta0)
    n = np.arange(s + 1)
    log_weight = -2.0 + 0.5 * n * np.log(4.0) - 0.5 * gammaln(n + 1.0)
    coeff = np.exp(log_weight + 1j * n * (theta0 + np.pi))
    coeff /= np.linalg.norm(coeff)
    bra = np.exp(1j * n * theta0) / np.sqrt(s + 1)
    assert report.floor == pytest.approx((s + 1) * abs(bra.conj() @ coeff) ** 2, rel=1e-12)
    assert report.floor == pytest.approx(1.1223066e-3, rel=1e-7)
    assert report.floor < report.deviation_from_canonical


def test_commutator_deviation_decreases_along_the_ladder():
    devs = []
    for s in (64, 128, 256):
        report = _quiet(s)
        devs.append(report.deviation_from_canonical)
    assert devs[0] <= 0.05
    assert devs[0] > devs[1] > devs[2]


def _limit_floor(omega):
    """|sum_n e^{-Omega/2} (-sqrt Omega)^n / sqrt(n!)|^2 at 40 digits, by mpmath.

    The s -> infinity floor of the antipodal probe; 200 terms leave a tail
    below 1e-40 for Omega <= 16.
    """
    with mpmath.workdps(40):
        root = -mpmath.sqrt(omega)
        total = mpmath.fsum(root**n / mpmath.sqrt(mpmath.factorial(n)) for n in range(200))
        return float((mpmath.exp(-mpmath.mpf(omega) / 2) * total) ** 2)


# relative miss of report.floor from the series, about 4x each measured miss
# (2.7e-14, 2.2e-13, 4.5e-11: the alternating sum cancels more as Omega grows)
_LIMIT_FLOOR_RTOL = {4.0: 1e-13, 8.0: 1e-12, 16.0: 2e-10}


def test_deviation_falls_to_the_thermodynamic_limit_with_omega():
    # [theta, N] -> -i as the probe's occupation grows: at s = 1024 >= 16
    # Omega the deviation sits just above the series floor (at most 2.36e-6
    # relative, at Omega = 4) and falls from 1.12e-3 to 1.01e-5 to 1.55e-9
    deviations = []
    for omega, rtol in _LIMIT_FLOOR_RTOL.items():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = pegg_barnett(1024, Omega=omega)
        limit = _limit_floor(omega)
        assert report.floor == pytest.approx(limit, rel=rtol, abs=0.0)
        excess = report.deviation_from_canonical / limit - 1.0
        assert 0.0 < excess < 2.5e-6
        deviations.append(report.deviation_from_canonical)
    assert deviations[0] > deviations[1] > deviations[2]


def test_truncation_warning_when_tail_not_contained():
    with pytest.warns(RuntimeWarning):
        report = pegg_barnett(8, 0.0, 4.0)
    assert report.truncation_warning
    # a well-contained state neither warns nor flags
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = pegg_barnett(64, 0.0, 4.0)
    assert not report.truncation_warning
    assert report.truncation_error < 1e-12


def test_state_phase_defaults_to_antipode():
    theta0 = 0.25
    report = _quiet(32, theta0=theta0)
    assert report.state_phase == pytest.approx(theta0 + np.pi, rel=1e-15)


def test_branch_cut_state_breaks_the_commutator():
    # a probe state centered on the branch cut sees the 2 pi jump; the
    # antipodal default avoids it
    on_cut = _quiet(64, state_phase=0.0)
    default = _quiet(64)
    assert on_cut.deviation_from_canonical > 100.0 * default.deviation_from_canonical


def test_validation():
    with pytest.raises(ValueError):
        pegg_barnett(0)
    with pytest.raises(ValueError):
        pegg_barnett(8, 0.0, 0.0)


def test_commutator_expectation_value_is_reported():
    report = _quiet(64)
    assert report.Omega == 4.0
    assert report.commutator_expectation.imag == pytest.approx(-1.0, abs=0.05)
    assert report.deviation_from_canonical == pytest.approx(
        abs(report.commutator_expectation + 1j), rel=1e-12
    )
