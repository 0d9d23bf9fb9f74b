"""Bisection oracles for the KKT solvers of ``clustercache.optimize``.

The package finds the offloading stationary point in closed form (a
Newton iteration on the Lambert W equation) and the budget multiplier by
regula falsi. These are the slow, plainly correct routines they
replaced: a 60-step bisection of the marginal gain for the stationary
point, and a bisection of the multiplier with the same stopping test.
The energy rule and the offloading Newton iteration are also written
out as plain array expressions, which the package's in-place kernels
must match to the bit.
"""

from __future__ import annotations

import math

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


def energy_policy(v, x, k, cost_d2d, cost_bs):
    """The energy KKT rule at multiplier v, as plain array expressions.

    The package evaluates the same expression in place, with its per-file
    constants computed once per solve; it must give these bits.
    """
    ratio = (v + k * x * cost_d2d) / (k**2 * x * (cost_d2d - cost_bs))
    base = np.clip(ratio, 0.0, None)
    beta = base ** (1.0 / (k - 1))
    return np.clip(1.0 - beta, 0.0, 1.0)


def offload_newton_point(v, q, n_bar, prob_r1, rtol, iterations):
    """The offloading stationary point by the package's Newton iteration,
    as plain array expressions (None where it does not converge)."""
    c = (v / q - 1.0 + prob_r1) / prob_r1
    positive = c > 0.0
    log_c = np.log(np.where(positive, c, 1.0))
    target = np.clip(np.where(positive, log_c + n_bar, 0.0),
                     0.0, n_bar + math.log1p(n_bar))
    w = target - np.log1p(target)
    for _ in range(iterations):
        step = (w + np.log1p(w) - target) * (1.0 + w) / (2.0 + w)
        w -= step
        if np.all(np.abs(step) <= rtol * (1.0 + w)):
            return np.clip(1.0 - w / n_bar, 0.0, 1.0)
    return None
