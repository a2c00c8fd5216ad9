"""Machine-speed calibration for the benchmark's timings.

The host this benchmark was built on is a shared 2-vCPU VM whose speed
drifts by up to 1.8x over seconds to minutes, for every kind of code: a
pure-Python loop slows down as much as the program does.  Raw wall times of
identical runs therefore spread by 20-35% between quartiles, more than any
bound a regression check can use.

`probe()` times a fixed piece of work written here, in the benchmark, that
does not call bcsbec, in four parts of about 5 ms each: a pure-Python loop,
vectorized numpy arithmetic on arrays of about a thousand points, small
Gauss-Legendre panel sums through `einsum`, and a descent loop of `einsum`
calls on 3x3x3x3 tensors.  That is the mix the program spends its time in:
the quadrature of the gap equation, and the per-call overhead of the small
arrays of the phase-locking descent.  The benchmark runs the probe between
consecutive invocations and scales each invocation's latency by
REFERENCE_PROBE_S over the mean of the probes just before and just after
it.  The scaled latency reads in seconds at a fixed machine speed: the
speed at which the probe takes REFERENCE_PROBE_S, about what it takes on
the uncontended host above.

Because the probe never runs bcsbec code, a change to the program moves
the scaled times as much as the raw ones; only the machine's drift, which
slows program and probe alike, cancels.  What the probe cannot see is a
slowdown that the program inflicts on everything in its process, such as
BLAS threads that keep spinning after a call; such a slowdown is partly
charged to the probe and so partly hidden.  The raw times are kept in the
record line of every run.
"""

from __future__ import annotations

import time

import numpy as np

__all__ = ["REFERENCE_PROBE_S", "probe", "scales"]

REFERENCE_PROBE_S = 0.020

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(24)
_GRID = np.linspace(0.1, 40.0, 1200)
_COUPLING = np.cos(np.arange(81.0)).reshape(3, 3, 3, 3)
_AMPLITUDES = np.array([0.5, 0.7, 0.4])
_PHASES = np.array([0.1, -0.3, 0.2])


def _interpreter() -> int:
    s = 0
    for i in range(60_000):
        s += (i * 7) % 13
    return s


def _vectorized() -> float:
    acc = 0.0
    for step in range(250):
        k = _GRID + step * 1e-3
        k2 = k * k
        acc += float((k2 / np.sqrt((k2 - 1.0) ** 2 + 0.25) * np.exp(-k2 / 50.0)).sum())
    return acc


def _panels() -> float:
    acc = 0.0
    for step in range(75):
        edges = np.linspace(0.0, 40.0, 17 + step % 5)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1:] - edges[:-1])
        k = (mid[:, None] + half[:, None] * _NODES[None, :]).ravel()
        e = np.sqrt((k * k - 1.0) ** 2 + 0.3)
        f = np.stack([k * k / e, k * k * (1.0 - (k * k - 1.0) / e)], axis=1)
        values = f.reshape(mid.size, _NODES.size, 2)
        acc += float((half[:, None] * np.einsum("pnf,n->pf", values, _WEIGHTS)).sum())
    return acc


def _small_tensors() -> np.ndarray:
    a, phases = _AMPLITUDES.copy(), _PHASES.copy()
    for _ in range(125):
        p = (phases[:, None, None, None] + phases[None, :, None, None]
             - phases[None, None, :, None] - phases[None, None, None, :])
        gs = _COUPLING * np.einsum("n,m,t,s->nmts", a, a, a, a) * np.sin(p)
        phases = phases - 1e-3 * (np.einsum("nmts->n", gs) - np.einsum("nmts->t", gs))
        a = np.abs(a - 1e-4 * np.einsum("rmts,m,t,s->r", _COUPLING * np.cos(p), a, a, a))
        a *= np.sqrt(0.99 / np.sum(a * a))
    return a


def probe() -> float:
    """Wall time, in seconds, of one fixed unit of calibration work."""
    start = time.perf_counter()
    _interpreter()
    _vectorized()
    _panels()
    _small_tensors()
    return time.perf_counter() - start


def scales(probes) -> list:
    """Scale factor of each interval between consecutive probe times.

    `probes` holds n + 1 probe times taken around n timed intervals; the
    factor for interval i is REFERENCE_PROBE_S over the mean of probes i
    and i + 1.
    """
    return [2.0 * REFERENCE_PROBE_S / (before + after)
            for before, after in zip(probes, probes[1:])]
