"""Direct-objective oracle for the BCD run of ``clustercache.optimize``.

The package line-searches each caching step on the segment form of the
request fractions (``queueing._segment_fractions``), which costs O(k)
per trial point once its moments are built. This is the run it
replaced: every trial point of the golden-section search re-sums the
library through ``_arrival_fractions``, and the search runs even when
the caching step is zero.
"""

from __future__ import annotations

from clustercache.model import CachingPolicy, _snap_budget
from clustercache.optimize import (
    _BCD_MAX_ITERATIONS,
    _BCD_TOL,
    _LINE_SEARCH_TOL,
    BcdStep,
    _golden_section,
    _linearised_caching_step,
    _optimised_delay,
)


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
        gamma, value = _golden_section(lambda g: delay_at(b + g * (s - b))[1],
                                       _LINE_SEARCH_TOL)
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
