"""Line-search oracle for the delay BCD of ``clustercache.optimize``.

The package steps each caching step fully to the minimiser of the
linearised delay and starts from deterministic points of the caching
frontier. This is the solver it replaced: every caching step
golden-section searches the segment towards that minimiser on the exact
bandwidth-optimised delay (re-summing the library at every trial point,
and searching even when the step is zero), and the runs start from the
stable ones among the uniform and zipf-proportional policies, then from
random feasible policies of a Philox stream.
"""

from __future__ import annotations

import math

import numpy as np

from clustercache import queueing
from clustercache.errors import InfeasibleLoadError
from clustercache.model import CachingPolicy, _capped_proportional, _snap_budget, baseline_policy
from clustercache.optimize import (
    _BCD_MAX_ITERATIONS,
    _BCD_TOL,
    BcdStep,
    _energy_form_minimiser,
    _linearised_caching_step,
    _optimised_delay,
)

# The line search shrinks its bracket by the golden ratio until it is
# this narrow.
_GOLDEN_RATIO = (math.sqrt(5.0) - 1.0) / 2.0
LINE_SEARCH_TOL = 1e-10


def golden_section(fn, tol):
    """(x, fn(x)) at the golden-section minimum of ``fn`` on [0, 1]."""
    lo, hi = 0.0, 1.0
    x1, x2 = 1.0 - _GOLDEN_RATIO, _GOLDEN_RATIO
    f1, f2 = fn(x1), fn(x2)
    while hi - lo > tol:
        if f1 < f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN_RATIO * (hi - lo)
            f1 = fn(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN_RATIO * (hi - lo)
            f2 = fn(x2)
    return (x1, f1) if f1 < f2 else (x2, f2)


def bcd_run(b0, q, k, zeta_tot, o1, o2, w_total, m):
    """One BCD run from b0: (steps, converged, final linearisation gap)."""
    def delay_at(b):
        return _optimised_delay(b, q, k, zeta_tot, o1, o2, w_total)

    def step(b, w1, delay):
        return BcdStep(w1=w1, policy=CachingPolicy(b=_snap_budget(b, m), cache_size=m),
                       delay=delay)

    b = b0
    w1, delay = delay_at(b)
    steps = [step(b, w1, delay)]
    converged = False
    for _ in range(_BCD_MAX_ITERATIONS):
        s, _ = _linearised_caching_step(b, w1, q, k, zeta_tot, o1, o2, w_total, m)
        gamma, value = golden_section(lambda g: delay_at(b + g * (s - b))[1],
                                      LINE_SEARCH_TOL)
        full = delay_at(s)[1]
        if full <= value:
            gamma, value = 1.0, full
        if value < delay:
            b = s if gamma == 1.0 else b + gamma * (s - b)
        w1, new_delay = delay_at(b)
        steps.append(step(b, w1, new_delay))
        if abs(delay - new_delay) <= _BCD_TOL * max(new_delay, 1e-300):
            converged = True
            break
        delay = new_delay
    gap = _linearised_caching_step(b, w1, q, k, zeta_tot, o1, o2, w_total, m)[1]
    return steps, converged, gap


def best_of_starts(cfg, lib, k, zeta_tot, restarts, seed):
    """The least final delay of ``bcd_run`` over the start set of the
    random-restart solver: the stable anchors (uniform, then
    zipf-proportional), or else the minimum-load policy, then random
    feasible policies drawn from Philox(``seed``) up to ``restarts``
    starts. Raises InfeasibleLoadError when the minimum-load policy is
    unstable."""
    q, m, w_total = lib.popularity, lib.cache_size, cfg.w_total
    o1, o2 = queueing.service_coefficients(cfg, lib)

    def stable(b):  # some bandwidth split keeps both queues stable
        return math.isfinite(_optimised_delay(b, q, k, zeta_tot, o1, o2, w_total)[1])

    anchors = [b for b in (np.full(lib.n_files, m / lib.n_files),
                           baseline_policy("zipf-proportional", lib).b) if stable(b)]
    if not anchors:
        least = _energy_form_minimiser(q, k, 1.0 / o1, 1.0 / o2, m)[0]
        if not stable(least):
            raise InfeasibleLoadError(f"no caching policy stabilises zeta_tot = {zeta_tot}")
        anchors = [least]
    rng = np.random.Generator(np.random.Philox(key=seed))
    starts = anchors[:restarts]
    while len(starts) < restarts:
        for _ in range(200):
            b = _capped_proportional(rng.random(q.size) + 1e-12, m)
            if stable(b):
                break
        else:
            b = anchors[0]
        starts.append(b)
    return min(bcd_run(b, q, k, zeta_tot, o1, o2, w_total, m)[0][-1].delay
               for b in starts)
