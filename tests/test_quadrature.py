"""Radial quadrature against closed-form integrals and its invariances."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bcsbec.gap
import bcsbec.quadrature
from bcsbec.core import PhysicalParams, critical_coupling
from bcsbec.gap import sweep_coupling
from bcsbec.quadrature import (
    QuadratureError,
    _initial_edges,
    radial_integral,
)


def reference_initial_edges(lo, hi, breakpoints, count):
    """The original array-insert edge builder, kept as the oracle."""
    pts = [lo, hi]
    if breakpoints is not None:
        pts += [p for p in np.atleast_1d(breakpoints) if lo < p < hi]
    edges = np.array(sorted(set(pts)))
    while edges.size - 1 < count:
        lengths = np.diff(edges)
        i = int(np.argmax(lengths))
        edges = np.insert(edges, i + 1, 0.5 * (edges[i] + edges[i + 1]))
    return edges


def test_exponential_moment():
    # int d^3k/(2pi)^3 e^{-k} = (1/2pi^2) * Gamma(3) = 1/pi^2
    vals = radial_integral(lambda k: np.exp(-k))
    assert vals[0] == pytest.approx(1.0 / np.pi**2, rel=1e-12)


def test_gaussian_moment():
    # int_0^inf k^2 e^{-k^2} dk = sqrt(pi)/4
    vals = radial_integral(lambda k: np.exp(-(k**2)))
    assert vals[0] == pytest.approx(np.sqrt(np.pi) / 4.0 / (2.0 * np.pi**2), rel=1e-12)


def test_slow_algebraic_tail():
    # int_0^inf k^2/(1+k^2)^2 dk = pi/4; the tail map must capture the k^-2 decay
    vals = radial_integral(lambda k: 1.0 / (1.0 + k**2) ** 2)
    assert vals[0] == pytest.approx(1.0 / (8.0 * np.pi), rel=1e-12)


def test_threshold_identity():
    # U_c * int d^3k/(2pi)^3 Gamma^2/(2 eps) = 1 exactly (dimensionless units)
    vals = radial_integral(
        lambda k: 1.0 / (1.0 + k**2) / (2.0 * k**2),
        breakpoints=[0.3, 1.0, 3.0, 10.0],
    )
    assert 8.0 * np.pi * vals[0] == pytest.approx(1.0, rel=1e-13)


def test_vector_valued_integrand():
    def f(k):
        return np.stack([np.exp(-k), np.exp(-(k**2))], axis=1)

    vals = radial_integral(f)
    assert vals[0] == pytest.approx(1.0 / np.pi**2, rel=1e-12)
    assert vals[1] == pytest.approx(np.sqrt(np.pi) / 4.0 / (2.0 * np.pi**2), rel=1e-12)


def test_rider_columns_leave_the_steered_columns_unchanged():
    # a sharp peak riding along on the panels of two broader ones, which
    # need refinement of their own: the broad ones come out bit-identical,
    # on exactly the same points
    def broad(k):
        return np.stack([np.exp(-k), np.exp(-k) / ((k - 2.1) ** 2 + 1e-2)], axis=1)

    def with_rider(k):
        return np.column_stack([broad(k), np.exp(-k) / ((k - 1.3) ** 2 + 1e-8)])

    points = []

    def counted(f):
        def g(k):
            points[-1] += len(k)
            return f(k)
        return g

    results = []
    for f, steer in ((broad, None), (with_rider, 2), (with_rider, None)):
        points.append(0)
        results.append(radial_integral(counted(f), steer=steer))
    v2, v3, v_all = results
    assert np.array_equal(v3[:2], v2)
    # resolving the peak takes more points, which only a steering peak gets
    assert points[1] == points[0] < points[2]
    assert v_all[2] == pytest.approx(1.3**2 * np.exp(-1.3) / (2e-4 * np.pi), rel=1e-3)


def test_panel_doubling_invariance(monkeypatch):
    f = lambda k: 1.0 / (1.0 + k**2) ** 2
    v1 = radial_integral(f)
    monkeypatch.setattr(bcsbec.quadrature, "_PANELS", 2 * bcsbec.quadrature._PANELS)
    v2 = radial_integral(f)
    assert abs(v1[0] - v2[0]) <= 1e-12 * abs(v1[0])


def test_breakpoints_do_not_move_converged_value():
    f = lambda k: np.exp(-k)
    v1 = radial_integral(f)
    v2 = radial_integral(f, breakpoints=[0.7, 1.9, 7.3])
    assert abs(v1[0] - v2[0]) <= 1e-12 * abs(v1[0])


def test_scale_covariance():
    # int k^2 e^{-k/s} dk = 2 s^3; pass k0 = s so panel layout tracks the scale
    for s in (0.2, 5.0):
        vals = radial_integral(lambda k: np.exp(-k / s), k0=s)
        assert vals[0] == pytest.approx(2.0 * s**3 / (2.0 * np.pi**2), rel=1e-12)


def test_budget_exhaustion_raises_with_diagnostics(monkeypatch):
    # a jump away from any panel edge defeats a tiny refinement budget
    f = lambda k: np.where(k < 1.3, 1.0, 0.0) * np.exp(-k)
    for name, value in (("_PANELS", 4), ("_MAX_PANELS", 6), ("_NODES", 4)):
        monkeypatch.setattr(bcsbec.quadrature, name, value)
    with pytest.raises(QuadratureError) as err:
        radial_integral(f)
    assert err.value.value is not None
    assert err.value.error is not None


def test_non_finite_integrand_raises():
    f = lambda k: np.where(k < 1.0, np.inf, 0.0)
    with pytest.raises(QuadratureError):
        radial_integral(f)


_point = st.one_of(
    st.floats(-10.0, 60.0, allow_nan=False),
    st.sampled_from([0.0, 1.0, 3.0, 10.0, 40.0, -0.5, 45.0]),
)


@settings(max_examples=300, deadline=None)
@given(
    hi=st.sampled_from([1.0, 12.5, 40.0]),
    breakpoints=st.one_of(st.none(), st.lists(_point, max_size=12).map(lambda p: p + p[:3])),
    count=st.integers(1, 40),
)
def test_initial_edges_match_array_insert_oracle(hi, breakpoints, count):
    # points outside (0, hi), duplicated points and ties between segment
    # lengths must all give exactly the oracle's edges
    edges = _initial_edges(0.0, hi, breakpoints, count)
    assert np.array_equal(edges, reference_initial_edges(0.0, hi, breakpoints, count))


def test_initial_edges_are_memoised_read_only():
    edges = _initial_edges(0.0, 40.0, [0.3, 1.0, 3.0, 10.0], 16)
    assert _initial_edges(0.0, 40.0, (10.0, 3.0, 1.0, 0.3, 50.0), 16) is edges
    with pytest.raises(ValueError):
        edges[1] = 0.5


def test_default_sweep_panel_set(monkeypatch):
    # the default 50-point sweep at n = 0.02 takes exactly this many
    # integrand points; a kernel change that moves the panels shows here
    points = calls = 0

    def counting(f, *args, **kwargs):
        nonlocal calls
        calls += 1

        def counted(k):
            nonlocal points
            points += len(k)
            return f(k)

        return radial_integral(counted, *args, **kwargs)

    monkeypatch.setattr(bcsbec.gap, "radial_integral", counting)
    params = PhysicalParams.dimensionless()
    sols = sweep_coupling(np.linspace(0.5, 4.0, 50) * critical_coupling(params), 0.02, params)
    assert all(s.converged for s in sols)
    assert points == 128_664
    # one integral per Newton step, and tangent-predicted warm starts
    assert calls <= 220
