"""Host speed, measured with a fixed kernel that does not use the package.

The host the benchmark was built on (2 vCPUs of a shared machine) runs
identical work up to 1.8 times slower depending on its neighbours, for
CPU time as much as wall time, and its speed changes within seconds and
drifts over minutes. Each sample is bracketed by two timings of this
kernel on the same CPU; scaling a sample's times by ``REFERENCE_S`` over
their mean reports them in seconds at the speed the kernel ran at on an
unloaded build host (fast state). The kernel mirrors the package's
quadrature path (adaptive ``quad`` over a Python integrand evaluating
Gauss-Legendre sums of ``exp`` and ``i0e``), so that path slows down
alike; vectorised Monte Carlo slows less, so ``validate`` is somewhat
over-corrected. The kernel never changes with the package, so a faster
package still reads faster.
"""

from __future__ import annotations

import time

import numpy as np
from scipy import special
from scipy.integrate import quad

REFERENCE_S = 1.0e-3
WINDOW_S = 0.3

_X, _W = np.polynomial.legendre.leggauss(96)


def _inner(v: float) -> float:
    u = 5.0 + 4.0 * _X + 0.01 * v
    return float(_W @ (np.exp(-((u - v) ** 2) / 8.0) * special.i0e(u * v / 4.0)
                       / (1.0 + u**4)))


def _kernel() -> None:
    quad(lambda t: -np.expm1(-0.5 * _inner(30.0 * t)) * t, 0.0, 1.0,
         epsabs=1e-9, epsrel=1e-7, limit=200)


def kernel_seconds(window: float = WINDOW_S) -> float:
    """Mean wall time of one kernel call over a window of ``window`` seconds."""
    calls = 0
    started = time.perf_counter()
    while True:
        _kernel()
        calls += 1
        elapsed = time.perf_counter() - started
        if elapsed >= window:
            return elapsed / calls
