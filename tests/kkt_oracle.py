"""Bisection oracles for the KKT solvers of ``clustercache.optimize``.

The package finds the offloading stationary point in closed form (a
Newton iteration on the Lambert W equation) and the budget multiplier by
regula falsi. These are the slow, plainly correct routines they
replaced: a 60-step bisection of the marginal gain for the stationary
point, and a bisection of the multiplier with the same stopping test.
"""

from __future__ import annotations

import numpy as np

from clustercache.model import _BUDGET_TOL
from clustercache.optimize import _offload_gradient


def offload_stationary_point(v, q, n_bar, prob_r1):
    """b in [0, 1] with _offload_gradient(b) = v, by 60 bisection steps.

    The marginal gain is strictly decreasing in b; ``v`` must lie between
    its values at b = 1 and b = 0 for every entry of ``q``.
    """
    lo = np.zeros(q.size)
    hi = np.ones(q.size)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        above = _offload_gradient(mid, q, n_bar, prob_r1) > v
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    return 0.5 * (lo + hi)


def offload_policy(v, q, n_bar, prob_r1):
    """The three-branch offloading KKT rule at multiplier v, by bisection."""
    grad_at_1 = _offload_gradient(1.0, q, n_bar, prob_r1)
    grad_at_0 = _offload_gradient(0.0, q, n_bar, prob_r1)
    interior = (grad_at_1 <= v) & (v <= grad_at_0)
    b = np.where(grad_at_1 > v, 1.0, 0.0)
    b[interior] = offload_stationary_point(v, q[interior], n_bar, prob_r1)
    return b


def bisect_multiplier(policy_at, v_lo, v_hi, m, decreasing, max_iterations=120):
    """(v, evaluations): bisect v until |sum(policy_at(v)) - m| <= 0.1 _BUDGET_TOL."""
    for iterations in range(1, max_iterations + 1):
        v = 0.5 * (v_lo + v_hi)
        total = policy_at(v).sum()
        if abs(total - m) <= 0.1 * _BUDGET_TOL:
            break
        if (total > m) == decreasing:
            v_lo = v
        else:
            v_hi = v
    return v, iterations
