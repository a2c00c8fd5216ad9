"""Radial quadrature against closed-form integrals and its invariances."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bcsbec.gap
import bcsbec.quadrature
from bcsbec.core import U_C
from bcsbec.diagram import sweep_coupling
from bcsbec.gap import solve_self_consistent
from bcsbec.quadrature import (
    QuadratureError,
    _initial_edges,
    _rule,
    _tail_table,
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
    # int k^2 e^{-k/s} dk = 2 s^3: integrands a few times narrower or wider
    # than the k0 = 1 the panels are laid out for still meet the tolerance
    for s in (0.2, 5.0):
        vals = radial_integral(lambda k: np.exp(-k / s))
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


def test_nan_seen_only_by_the_n_node_rule_raises():
    # each panel lays out its n nodes first, so the fourth point of the
    # first call is an n-node point of the first panel: the 2n-node
    # estimate stays finite and only the n-node one sees the NaN
    calls = 0

    def f(k):
        nonlocal calls
        calls += 1
        v = np.exp(-k)
        if calls == 1:
            v[3] = np.nan
        return v

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


def test_rule_tables_are_read_only_and_follow_the_constants(monkeypatch):
    quad = bcsbec.quadrature
    for table in (*_rule(quad._NODES), *_tail_table(quad._PANELS, quad._NODES, quad._K_MAX)):
        with pytest.raises(ValueError):
            table[0] = 0.5
    # patched rule constants get tables of their own: the first wave takes
    # 3 _NODES points on each of _PANELS direct and max(2, _PANELS // 4)
    # tail panels
    monkeypatch.setattr(quad, "_NODES", 4)
    monkeypatch.setattr(quad, "_PANELS", 8)
    sizes = []

    def f(k):
        sizes.append(k.size)
        return np.exp(-k)

    radial_integral(f)
    assert sizes[0] == (8 + 2) * 3 * 4


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
    sols = sweep_coupling(np.linspace(0.5, 4.0, 50) * U_C, 0.02)
    assert all(s.converged for s in sols)
    assert points == 88_416
    # one integral per Newton step, from Hermite-predicted warm starts
    assert calls == 119


def test_cold_solve_panel_set(monkeypatch):
    # cold solves from the benchmark's coupling grid, below, near and well
    # above U_c, take exactly this many integrals and integrand points:
    # each is a Newton polish, from the crossover seed below and near U_c
    # and from the molecular seed above 1.5 U_c
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
    for ratio in (0.675, 1.025, 2.075):
        for n in (10**-2.5, 0.02, 0.1):
            assert solve_self_consistent(ratio * U_C, n).converged
    assert (calls, points) == (49, 36_072)
