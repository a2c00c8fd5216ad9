"""Radial quadrature against closed-form integrals and its invariances."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bcsbec.gap
import bcsbec.quadrature
from bcsbec.core import U_C
from bcsbec.diagram import sweep_coupling
from bcsbec.gap import _pair_integral, solve_self_consistent
from bcsbec.quadrature import (
    QuadratureError,
    _direct_table,
    _layout,
    _rule,
    _tail_table,
    radial_integral,
)


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
    vals = radial_integral(lambda k: 1.0 / (1.0 + k**2) / (2.0 * k**2), peak=(0.0, 0.3))
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
    # a smooth integrand, and the gap solver's steered pair integrand at
    # solutions deep in BCS, at unitarity and on the BEC side: gap and
    # occupancy on 12 and on 24 initial direct panels agree within _TOL_REL
    f = lambda k: 1.0 / (1.0 + k**2) ** 2
    sols = [solve_self_consistent(ratio * U_C, n)
            for ratio, n in ((0.5, 10**-2.5), (1.0, 0.02), (4.0, 0.1))]
    assert bcsbec.quadrature._PANELS == 12

    def integrals():
        return [radial_integral(f)] + [_pair_integral(s.mu, s.Delta0, steer=2)[:2] for s in sols]

    before = integrals()
    monkeypatch.setattr(bcsbec.quadrature, "_PANELS", 2 * bcsbec.quadrature._PANELS)
    after = integrals()
    for v1, v2 in zip(before, after):
        np.testing.assert_array_less(np.abs(v1 - v2), bcsbec.quadrature._TOL_REL * np.abs(v1))


def test_converged_value_does_not_depend_on_peak():
    # f receives offsets t = k - c from the centre c
    v1 = radial_integral(lambda k: np.exp(-k))
    for c, w in ((0.0, 0.3), (0.0, 7.3), (1.9, 1e-3), (0.7, 2.0), (25.0, 1e-9)):
        v2 = radial_integral(lambda t: np.exp(-(t + c)), peak=(c, w))
        assert abs(v1[0] - v2[0]) <= bcsbec.quadrature._TOL_REL * abs(v1[0])


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


def test_rule_tables_are_read_only_and_follow_the_constants(monkeypatch):
    quad = bcsbec.quadrature
    for table in (*_rule(quad._NODES), *_tail_table(quad._TAIL_PANELS, quad._NODES, quad._K_MAX),
                  _direct_table(0, quad._PANELS, quad._NODES),
                  _direct_table(5, quad._PANELS - 5, quad._NODES)):
        with pytest.raises(ValueError):
            table[0] = 0.5
    # patched rule constants get tables of their own: the first wave takes
    # 3 _NODES points on each of _PANELS direct and _TAIL_PANELS tail
    # panels, and the direct table holds their points, half widths and
    # edges
    monkeypatch.setattr(quad, "_NODES", 4)
    monkeypatch.setattr(quad, "_PANELS", 8)
    monkeypatch.setattr(quad, "_TAIL_PANELS", 3)
    first_waves = []
    for peak in (None, (0.5, 0.2)):
        sizes = []
        c = peak[0] if peak else 0.0

        def f(t):
            sizes.append(t.size)
            return np.exp(-(t + c))

        radial_integral(f, peak=peak)
        first_waves.append(sizes[0])
    assert first_waves == [(8 + 3) * 3 * 4] * 2
    for left in range(8):
        assert _direct_table(left, 8 - left, 4).shape == (2, 8 * 3 * 4 + 8 + 9)


def _first_wave(left, s_lo, s_hi):
    """The direct region's first-wave points, half widths and edges at one split."""
    panels, nodes = bcsbec.quadrature._PANELS, bcsbec.quadrature._NODES
    layout = np.dot((s_lo, s_hi), _direct_table(left, panels - left, nodes))
    m = layout.size - 2 * panels - 1
    return layout[:m], layout[m:m + panels], layout[m + panels:]


@settings(max_examples=30, deadline=None)
@given(s_lo=st.floats(-720.0, -1e-6), s_hi=st.floats(1e-6, 720.0))
def test_cached_layout_is_the_layout_of_its_edges(s_lo, s_hi):
    # at every split, the table's points and half widths are those that
    # _layout gives on the table's own edges, up to a few roundings; the
    # edges run from s_lo (0 without left panels) through 0 to s_hi exactly
    panels = bcsbec.quadrature._PANELS
    x = _rule(bcsbec.quadrature._NODES)[0]
    for left in range(panels):
        s, half, edges = _first_wave(left, s_lo, s_hi)
        assert edges[0] == (s_lo if left else 0.0) and edges[left] == 0.0 and edges[-1] == s_hi
        assert np.all(np.diff(edges) > 0.0)
        points, widths = _layout(edges[:-1], edges[1:], x)
        scale = 8.0 * np.finfo(float).eps * np.repeat(np.abs(edges[1:]) + np.abs(edges[:-1]),
                                                      x.size)
        np.testing.assert_array_less(np.abs(s - points), scale)
        np.testing.assert_allclose(half, widths, rtol=1e-14, atol=0.0)


def test_refinement_bisects_the_first_wave_panels(monkeypatch):
    # a peak near k = 2.1 forces the direct region to refine; every panel
    # it bisects is a panel of the first wave, edge for edge, and the
    # direct panels handed to refinement are the table's
    quad = bcsbec.quadrature
    c, w = 0.9, 0.4
    seen, bisected = [], []
    adaptive, layout = quad._adaptive, quad._layout

    def spy_adaptive(f, region, a, b, est, steer):
        seen.append((a.copy(), b.copy()))
        return adaptive(f, region, a, b, est, steer)

    def spy_layout(a, b, x):
        half = a.size // 2
        bisected.append((a[:half].copy(), b[half:].copy()))
        return layout(a, b, x)

    radial_integral(lambda t: np.exp(-(t + c)), peak=(c, w))     # both tables cached
    monkeypatch.setattr(quad, "_adaptive", spy_adaptive)
    monkeypatch.setattr(quad, "_layout", spy_layout)
    radial_integral(lambda t: np.exp(-(t + c)) / ((t + c - 2.1) ** 2 + 1e-4), peak=(c, w))
    (a, b), = [(a, b) for a, b in seen if a[0] < 0.0]
    assert bisected
    left = int(np.sum(a < 0.0))
    edges = _first_wave(left, a[0], b[-1])[2]
    assert np.array_equal(a, edges[:-1]) and np.array_equal(b, edges[1:])
    ra, rb = bisected[0]
    first = {(lo, hi) for lo, hi in zip(a.tolist(), b.tolist())}
    assert all((lo, hi) in first for lo, hi in zip(ra.tolist(), rb.tolist()))


@pytest.mark.parametrize("peak", [(-1.0, 1.0), (1.0, 0.0), (1.0, np.inf)],
                         ids=["negative-centre", "zero-width", "infinite-width"])
def test_invalid_peak_raises_naming_it(peak):
    # a negative centre would integrate from k = c < 0 (0.10946 instead of
    # 1/pi^2 for e^{-|t + c|} at c = -1), and a zero or infinite width has
    # no sinh map
    with pytest.raises(ValueError, match=r"peak \(c, w\) = \(%r, %r\)" % peak):
        radial_integral(lambda t: np.exp(-np.abs(t + peak[0])), peak=peak)


def test_peak_whose_map_overflows_raises():
    for peak in ((1e300, 1e-300), (0.0, 1e-310)):
        with pytest.raises(ValueError, match="overflows"):
            radial_integral(lambda t: np.exp(-(t + peak[0])), peak=peak)


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
    assert points == 60_120
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
    assert (calls, points) == (45, 22_680)
