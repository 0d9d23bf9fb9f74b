"""The three caching optimizers: offloading gain, energy, and delay.

* Offloading: maximise the probability that a request is served locally
  (self-cache, or intra-cluster D2D above the rate threshold). Concave
  in the caching vector; solved exactly by the three-branch KKT rule,
  whose interior branch is the closed-form stationary point (a Lambert W
  root, found by a vectorised Newton iteration in log form), with the
  budget multiplier found by a bracketing search.
* Energy: minimise the conditional per-cluster download energy for a
  cluster of k devices. Where the BS energy cost per bit exceeds the D2D
  cost per bit the problem is convex, and the same multiplier search
  with a closed-form interior branch solves it exactly; elsewhere it is
  concave, and the optimum is the top-M vertex of q_i S_i.
* Delay: minimise the weighted mean request delay jointly over the
  caching vector and the D2D/BS bandwidth split by block coordinate
  descent. The bandwidth block has a closed form. The caching step
  linearises the bandwidth-optimised delay in the D2D and BS request
  fractions and steps to the exact minimiser of that linearisation, an
  energy-form problem solved by the same multiplier search; it keeps the
  step only if the exact delay falls. The runs start from points of the
  caching frontier, the top-M vertex first (``optimize_delay_bcd``).

The multiplier search (``_search_multiplier``) is regula falsi on the
budget residual sum(b) - M with the Anderson-Bjorck/Illinois update and a
bisection safeguard; every trial lies strictly inside the bracket.

The energy interior branch is derived from the stationarity of the
implemented objective, b_i = 1 - [(v + k q_i S_i Pd/R1) /
(k^2 q_i S_i (Pd/R1 - Pb/R2))]^(1/(k-1)) clamped to [0, 1], which the
brute-force and projected-gradient oracles in the test suite confirm.
The offloading one solves q_i h(b_i) = v with h(b) = 1 - P +
P e^(-n_bar b)(n_bar (1-b) + 1); the bisection oracle it replaced lives
in ``tests/kkt_oracle.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    ConfigError,
    InfeasibleLoadError,
    NumericFailure,
    UnstableQueueError,
)
from .model import (
    CachingPolicy,
    ContentLibrary,
    NetworkConfig,
    _BUDGET_TOL,
    _check_count,
    _check_load,
    _check_real,
    _clip_unit,
    _snap_budget,
    baseline_policy,
)
from . import queueing
from .queueing import _arrival_fractions

__all__ = [
    "KktSolution",
    "BcdStep",
    "BcdTrace",
    "objective_offloading",
    "optimize_offloading",
    "energy_conditional",
    "optimize_energy",
    "weighted_delay",
    "optimize_delay_bcd",
]

_MULTIPLIER_ITERATIONS = 120
# The multiplier search bisects its bracket when a block of this many
# trials has not halved it.
_SAFEGUARD_TRIALS = 4
# Newton's method for the offloading stationary point stops once a step
# is at most this relative amount, or raises after this many steps.
_NEWTON_RTOL = 8.0 * np.finfo(float).eps
_NEWTON_ITERATIONS = 8
# A queue is treated as unstable once its utilisation exceeds this.
_RHO_MAX = 1.0 - 1e-9
# A BCD run stops once a step changes the delay by at most this relative
# amount, or after this many steps.
_BCD_TOL = 1e-8
_BCD_MAX_ITERATIONS = 200


@dataclass(frozen=True)
class KktSolution:
    """Solution of a multiplier-search KKT solve."""

    policy: CachingPolicy
    multiplier: float
    objective: float
    iterations: int
    degenerate: bool = False


class BcdStep(NamedTuple):
    w1: float
    policy: CachingPolicy
    delay: float


@dataclass(frozen=True)
class BcdTrace:
    """Iterates of the best block-coordinate-descent run.

    ``gap`` is the final linearisation gap grad D . (b - s), with s the
    exact minimiser of the delay linearised at the returned point (zero
    at a block minimum); ``best_start`` indexes the winning run among
    the ``restarts_used`` stable frontier starts, in order of rising rho,
    so 0 is the top-M vertex whenever that vertex is stable.
    """

    steps: tuple
    converged: bool
    restarts_used: int
    gap: float
    best_start: int

    @property
    def final_w1(self) -> float:
        return self.steps[-1].w1

    @property
    def final_policy(self) -> CachingPolicy:
        return self.steps[-1].policy

    @property
    def final_delay(self) -> float:
        return self.steps[-1].delay


# ---------------------------------------------------------------------------
# Offloading gain (maximisation)
# ---------------------------------------------------------------------------

def _check_policy(policy: CachingPolicy, lib: ContentLibrary) -> None:
    if policy.n_files != lib.n_files:
        raise ConfigError(f"the policy has {policy.n_files} files but the "
                          f"library has {lib.n_files}")


def objective_offloading(
    policy: CachingPolicy, lib: ContentLibrary, n_bar: float, prob_r1: float
) -> float:
    """Offloading gain of a policy.

    sum_i q_i b_i + q_i (1-b_i)(1 - e^(-b_i nbar)) P(R1 > R0); the void
    factor is the probability that at least one cluster member caches
    file i.
    """
    _check_real("n_bar", n_bar)
    _check_real("prob_r1", prob_r1, 0.0, 1.0, True, True)
    _check_policy(policy, lib)
    b = policy.b
    q = lib.popularity
    d2d = (1.0 - b) * (-np.expm1(-n_bar * b))
    return float(q @ b + prob_r1 * (q @ d2d))


def _offload_gradient(b, q, n_bar, prob_r1):
    # d/db_i of the offloading gain; strictly decreasing in b_i.
    exp_term = np.exp(-n_bar * b)
    return q * (1.0 + (n_bar * (1.0 - b) * exp_term - (1.0 - exp_term)) * prob_r1)


def _offload_policy_for_multiplier(v, q, n_bar, prob_r1, grad_at_1, grad_at_0):
    ones = grad_at_1 > v
    zeros = grad_at_0 < v
    interior = ~(ones | zeros)
    b = np.where(ones, 1.0, 0.0)
    if interior.any():
        b[interior] = _offload_stationary_point(v, q[interior], n_bar, prob_r1)
    return b


def _offload_stationary_point(v, q, n_bar, prob_r1):
    """b with q h(b) = v, h(b) = 1 - P + P e^(-n_bar b)(n_bar (1-b) + 1).

    z = n_bar (1-b) + 1 is the principal Lambert W root of z + ln z =
    ln c + n_bar + 1, c = (v/q - 1 + P)/P. Newton's method solves it for
    w = z - 1 (w + ln(1+w) = ln c + n_bar), so that b = 1 - w/n_bar keeps
    its precision at small n_bar. The function is increasing and concave
    and the start T - ln(1+T) lies below the root, so the iterates rise
    monotonically and converge quadratically; they work in the log form
    and cannot overflow. c at or below 0 (v at the b = 1 gradient to
    rounding) is b = 1. Raises NumericFailure if the steps do not reach
    rounding level within ``_NEWTON_ITERATIONS``.
    """
    c = v / q
    c -= 1.0
    c += prob_r1
    c /= prob_r1
    positive = c > 0.0
    log_c = np.log(np.where(positive, c, 1.0), out=c)
    log_c += n_bar
    # T = w + ln(1+w) runs from 0 (b = 1) to n_bar + ln(1+n_bar) (b = 0).
    target = np.where(positive, log_c, 0.0)
    np.minimum(np.maximum(0.0, target, out=target), n_bar + math.log1p(n_bar),
               out=target)
    w = np.subtract(target, np.log1p(target))
    # The step (w + ln(1+w) - T) (1+w) / (2+w), worked in place in that
    # order of operations.
    scale = np.empty_like(w)
    for _ in range(_NEWTON_ITERATIONS):
        step = np.log1p(w)
        step += w
        step -= target
        step *= np.add(1.0, w, out=scale)
        step /= np.add(2.0, w, out=scale)
        w -= step
        np.add(1.0, w, out=scale)
        scale *= _NEWTON_RTOL
        if (np.abs(step) <= scale).all():
            w /= n_bar
            np.subtract(1.0, w, out=w)
            return _clip_unit(w, out=w)
    raise NumericFailure(
        f"offloading stationary point: Newton step {np.max(np.abs(step)):.3g} "
        f"after {_NEWTON_ITERATIONS} iterations (n_bar = {n_bar:.6g}, "
        f"P = {prob_r1:.6g}, multiplier = {v:.6g})"
    )


def optimize_offloading(
    cfg: NetworkConfig, lib: ContentLibrary, prob_r1: float
) -> KktSolution:
    """Maximise the offloading gain subject to the cache budget.

    The objective is concave and separable, so the optimum follows the
    three-branch multiplier rule: b_i = 1 where the marginal gain at
    b_i = 1 still exceeds the multiplier, b_i = 0 where the marginal gain
    at b_i = 0 is below it, and the unique interior stationary point
    otherwise, in closed form. ``_search_multiplier`` finds the multiplier
    with sum(b) = M.
    """
    _check_real("prob_r1", prob_r1, 0.0, 1.0, True, True)
    q = lib.popularity
    n_bar = cfg.n_bar
    m = lib.cache_size

    if prob_r1 == 0.0:
        # Linear objective sum q_i b_i: cache the M most popular files.
        policy = baseline_policy("cpf", lib)
        return KktSolution(
            policy=policy,
            multiplier=float(q[m - 1]),
            objective=objective_offloading(policy, lib, n_bar, prob_r1),
            iterations=0,
        )

    grad_at_1 = _offload_gradient(1.0, q, n_bar, prob_r1)
    grad_at_0 = _offload_gradient(0.0, q, n_bar, prob_r1)
    b, multiplier, iterations = _search_multiplier(
        lambda v: _offload_policy_for_multiplier(
            v, q, n_bar, prob_r1, grad_at_1, grad_at_0),
        0.0, float(grad_at_0.max()) * (1.0 + 1e-12), m, q.size, decreasing=True,
    )
    policy = CachingPolicy(b=b, cache_size=m)
    return KktSolution(
        policy=policy,
        multiplier=multiplier,
        objective=objective_offloading(policy, lib, n_bar, prob_r1),
        iterations=iterations,
    )


def _search_multiplier(policy_at, v_lo, v_hi, m, n, decreasing):
    """Find the budget multiplier of a separable three-branch KKT rule.

    ``policy_at(v)`` returns the minimiser of the Lagrangian at
    multiplier v: each b_i at 1, at 0 or at its interior stationary
    point. Its sum is monotone in v, falling when ``decreasing`` and
    rising otherwise; at v_lo and v_hi all ``n`` entries sit at the same
    bound, so [v_lo, v_hi] brackets sum(b) = M.

    The bracket shrinks by regula falsi: each trial is the secant root of
    the budget residuals at the two ends. When the same end is kept twice
    running, its residual is scaled by the Anderson-Bjorck factor
    1 - r_new/r_old, or halved (the Illinois rule) when that is not
    positive. A trial that rounds onto an end is the midpoint instead, so
    every trial lies strictly inside the bracket; so is the trial after a
    block of ``_SAFEGUARD_TRIALS`` trials that failed to halve it.
    The search stops when |sum(b) - M| <= 0.1 ``_BUDGET_TOL``. If instead
    no float is left inside the bracket (sum(b) jumps across M, as at
    ties or where rounding cannot resolve b) or ``_MULTIPLIER_ITERATIONS``
    evaluations pass, the result interpolates the policies at the two ends
    to sum(b) = M. Returns the budget-snapped vector, the multiplier and
    the number of ``policy_at`` evaluations.
    """
    # Residuals signed to rise with v: sum(b) - M, negated when decreasing.
    sign = -1.0 if decreasing else 1.0
    b_lo, b_hi = (np.ones(n), np.zeros(n)) if decreasing else (np.zeros(n), np.ones(n))
    r_lo, r_hi = sign * (b_lo.sum() - m), sign * (b_hi.sum() - m)
    replaced = 0  # +1 after a trial replaced v_lo, -1 after one replaced v_hi
    block_width = v_hi - v_lo  # bracket width when the current block began
    iterations = 0
    while iterations < _MULTIPLIER_ITERATIONS:
        v = v_hi - r_hi * (v_hi - v_lo) / (r_hi - r_lo)
        stalled = False
        if iterations and iterations % _SAFEGUARD_TRIALS == 0:
            stalled = v_hi - v_lo > 0.5 * block_width
            block_width = v_hi - v_lo
        if stalled or not v_lo < v < v_hi:
            v = 0.5 * (v_lo + v_hi)
            if not v_lo < v < v_hi:
                break
        b = policy_at(v)
        iterations += 1
        residual = sign * (b.sum() - m)
        if abs(residual) <= 0.1 * _BUDGET_TOL:
            return _snap_budget(b, m), v, iterations
        if residual < 0.0:
            if replaced == 1:
                factor = 1.0 - residual / r_lo
                r_hi *= factor if factor > 0.0 else 0.5
            v_lo, r_lo, b_lo = v, residual, b
            replaced = 1
        else:
            if replaced == -1:
                factor = 1.0 - residual / r_hi
                r_lo *= factor if factor > 0.0 else 0.5
            v_hi, r_hi, b_hi = v, residual, b
            replaced = -1
    weight = (m - b_lo.sum()) / (b_hi.sum() - b_lo.sum())
    return (_snap_budget(b_lo + weight * (b_hi - b_lo), m),
            v_lo + weight * (v_hi - v_lo), iterations)


# ---------------------------------------------------------------------------
# Energy (minimisation)
# ---------------------------------------------------------------------------

def _check_rates(r1, r2) -> None:
    _check_real("r1", r1)
    _check_real("r2", r2)


def energy_conditional(
    policy: CachingPolicy,
    lib: ContentLibrary,
    cfg: NetworkConfig,
    k: int,
    r1: float,
    r2: float,
) -> float:
    """Mean download energy (joules) for a cluster of exactly k devices.

    k * sum_i q_i S_i [ (1-b_i)(1 - (1-b_i)^(k-1)) Pd/R1 + (1-b_i)^k Pb/R2 ]
    with S_i converted from Mbits to bits so S_i/R is seconds: the D2D and
    BS sums are ``_arrival_fractions`` with the weights q_i S_i.
    """
    _check_count("k", k, 1)
    _check_rates(r1, r2)
    _check_policy(policy, lib)
    a1, a2 = _arrival_fractions(policy.b, lib.popularity * lib.sizes * 1e6, k)
    return k * (a1 * (cfg.p_d / r1) + a2 * (cfg.p_b / r2))


def _energy_policy_for_multiplier(v, kxa, curvature, exponent):
    # Interior stationarity: beta^(k-1) = (v + k x A) / (k^2 x (A - B)),
    # beta = 1 - b, A = Pd/R1, B = Pb/R2 (A < B), with kxa = k x A,
    # curvature = k^2 x (A - B) and exponent = 1/(k-1). Negative bases mean
    # the marginal saving still exceeds the multiplier at b = 1. One fresh
    # array per call, worked in place: the search keeps its end policies.
    b = np.add(v, kxa)
    b /= curvature
    np.maximum(b, 0.0, out=b)
    b **= exponent
    np.subtract(1.0, b, out=b)
    return _clip_unit(b, out=b)


def optimize_energy(
    cfg: NetworkConfig,
    lib: ContentLibrary,
    k: int,
    r1: float,
    r2: float,
) -> KktSolution:
    """Minimise the conditional energy subject to the cache budget.

    Exact KKT where the problem is convex (k >= 2 and Pb/R2 > Pd/R1).
    Elsewhere (a cluster of one device, which has no D2D partner, or
    Pb/R2 <= Pd/R1) every term is linear or concave in b_i, so the
    minimum is a 0/1 vertex: caching file i saves k q_i S_i Pb/R2, and
    the M files of largest q_i S_i are cached deterministically. The
    solution flags this top-M vertex (also taken when at most M files
    are requested) as degenerate.
    """
    _check_count("k", k, 1)
    _check_rates(r1, r2)
    m = lib.cache_size
    x = lib.popularity * lib.sizes * 1e6  # q_i S_i in bits
    b, multiplier, iterations = _energy_form_minimiser(
        x, k, cfg.p_d / r1, cfg.p_b / r2, m)
    policy = CachingPolicy(b=b, cache_size=m)
    return KktSolution(
        policy=policy,
        multiplier=multiplier,
        objective=energy_conditional(policy, lib, cfg, k, r1, r2),
        iterations=iterations,
        degenerate=math.isnan(multiplier),
    )


def _energy_form_minimiser(x, k, cost_d2d, cost_bs, m):
    """(b, multiplier, iterations) minimising k sum_i x_i [((1-b_i) -
    (1-b_i)^k) cost_d2d + (1-b_i)^k cost_bs] with sum(b) = M, b in [0, 1].

    Strictly convex when k >= 2 and cost_bs > cost_d2d; the gradients at
    b = 0 and b = 1 then bracket the multiplier. Files with x_i = 0 trail
    (popularity is non-increasing, sizes are positive) and do not change
    the objective: they stay out of the search, whose stationarity
    ratio divides by x_i, and are not cached. Otherwise (k = 1, cost_bs
    <= cost_d2d or a NaN cost, or at most M files with x_i > 0) every
    term is linear or concave in b_i and falls from b_i = 0 to 1 by a
    multiple of x_i, so the minimum is the vertex caching the M largest
    x_i, lowest index first among ties (multiplier NaN, 0 iterations).
    """
    live = int(np.count_nonzero(x))
    b = np.zeros(x.size)
    if live <= m or not (k > 1 and cost_bs > cost_d2d):
        b[np.argsort(-x, kind="stable")[:m]] = 1.0
        return b, math.nan, 0
    x = x[:live]
    grad_at_0 = -k * x * (k * cost_bs - (k - 1) * cost_d2d)
    kxa = k * x * cost_d2d
    grad_at_1 = -kxa
    curvature = k**2 * x * (cost_d2d - cost_bs)
    exponent = 1.0 / (k - 1)
    b[:live], multiplier, iterations = _search_multiplier(
        lambda v: _energy_policy_for_multiplier(v, kxa, curvature, exponent),
        float(grad_at_0.min()) * (1.0 + 1e-12),
        float(grad_at_1.max()) * (1.0 - 1e-12),
        m, live, decreasing=False,
    )
    return b, multiplier, iterations


# ---------------------------------------------------------------------------
# Delay (joint caching and bandwidth minimisation)
# ---------------------------------------------------------------------------

def _split_delay(a1, a2, zeta_tot, o1, o2, w_total, w1=None):
    """(W1, weighted delay) for the D2D and BS request fractions a1, a2.

    zeta_i = zeta_tot a_i; see ``weighted_delay`` for the delay. When
    ``w1`` is None it is the D2D bandwidth minimising the delay: queue i
    needs x_i = zeta_i/O_i Hz, and the slack S = W - x1 - x2 is shared in
    proportion to sqrt(x_i), W1* = x1 + S sqrt(x1) / (sqrt(x1) +
    sqrt(x2)), for a delay of (sqrt(x1) + sqrt(x2))^2 / (zeta_tot S).
    W1* is kept in [0, W], which matters when S <= 0, and below W while
    the BS queue has load, as W - W1* can be under the float spacing at W
    (a2 ~ 1e-34 at large k). When no request leaves the devices both
    queues are empty and the split is immaterial: W1 = W/2. Raises
    UnstableQueueError for a queue whose utilisation at W1 exceeds
    ``_RHO_MAX``, which every S <= 0 gives.
    """
    zeta = (zeta_tot * a1, zeta_tot * a2)
    if w1 is None:
        x1, x2 = zeta[0] / o1, zeta[1] / o2
        roots = math.sqrt(x1) + math.sqrt(x2)
        if roots == 0.0:
            w1 = w_total / 2.0
        else:
            w1 = x1 + (w_total - x1 - x2) * math.sqrt(x1) / roots
            w1 = min(max(w1, 0.0), math.nextafter(w_total, 0.0) if x2 > 0.0 else w_total)
    if zeta_tot == 0.0:
        return w1, 0.0
    mu = (o1 * w1, o2 * (w_total - w1))
    total = 0.0
    for i in (0, 1):
        if zeta[i] == 0.0:
            continue
        if mu[i] <= 0.0 or zeta[i] / mu[i] > _RHO_MAX:
            raise UnstableQueueError(queue=i + 1, zeta=zeta[i], mu=mu[i])
        total += zeta[i] / (mu[i] - zeta[i])
    return w1, total / zeta_tot


def weighted_delay(
    policy: CachingPolicy,
    lib: ContentLibrary,
    k: int,
    zeta_tot: float,
    w1: float,
    o1: float,
    o2: float,
    w_total: float,
) -> float:
    """Weighted mean delay (zeta_1 D_1 + zeta_2 D_2) / zeta_tot in seconds.

    D_i = 1/(mu_i - zeta_i); raises UnstableQueueError naming the queue
    whose stability constraint fails. Self-served requests contribute
    zero delay.
    """
    _check_count("k", k, 1)
    _check_load(zeta_tot)
    for name, value in (("o1", o1), ("o2", o2), ("w_total", w_total)):
        _check_real(name, value)
    _check_policy(policy, lib)
    _check_real("w1", w1, 0.0, w_total, True, True)
    a1, a2 = _arrival_fractions(policy.b, lib.popularity, k)
    return _split_delay(a1, a2, zeta_tot, o1, o2, w_total, w1)[1]


def _optimised_delay(b, q, k, zeta_tot, o1, o2, w_total):
    """(W1*(b), D(b, W1*(b))): the bandwidth-optimised delay at b, or
    (nan, inf) where no bandwidth split stabilises the queues."""
    try:
        return _split_delay(*_arrival_fractions(b, q, k), zeta_tot, o1, o2, w_total)
    except UnstableQueueError:
        return math.nan, math.inf


def _linearised_caching_step(b, w1, q, k, zeta_tot, o1, o2, w_total, m):
    """Minimiser s of the delay linearised in (a1, a2) at (b, W1), and the
    gap grad D . (b - s).

    The delay depends on b only through a1 = sum q((1-b) - (1-b)^k) and
    a2 = sum q (1-b)^k. With A = mu1/(mu1 - zeta_1)^2 and B =
    mu2/(mu2 - zeta_2)^2, its partial derivatives in a1 and a2 (and, by
    the envelope theorem at W1 = W1*(b), those of the bandwidth-optimised
    delay), the linearisation sum q_i [A (1-b_i) + (B-A)(1-b_i)^k] has the
    energy form with x = q and is minimised exactly by
    ``_energy_form_minimiser`` (the top-M vertex when B <= A or k = 1).
    An idle queue (mu_i = 0, so a_i = 0) has slope +inf, as the
    bandwidth-optimised delay (sqrt(x1) + sqrt(x2))^2 / (zeta_tot S) has
    in x_i at 0; the gap takes each slope times the change of its
    fraction, and none where that change is 0 (a1 is identically 0 at
    k = 1).
    """
    a1, a2 = _arrival_fractions(b, q, k)
    if zeta_tot == 0.0:
        slopes = (0.0, 0.0)  # the delay is identically zero
    else:
        slopes = tuple(mu / (mu - zeta_tot * a) ** 2 if mu > 0.0 else math.inf
                       for mu, a in ((o1 * w1, a1), (o2 * (w_total - w1), a2)))
    s = _energy_form_minimiser(q, k, *slopes, m)[0]
    miss_km1 = (1.0 - b) ** (k - 1)
    step = b - s
    moves = ((q * (k * miss_km1 - 1.0)) @ step, -k * ((q * miss_km1) @ step))
    gap = sum(slope * move for slope, move in zip(slopes, moves) if move != 0.0)
    return s, float(gap)


def optimize_delay_bcd(
    cfg: NetworkConfig,
    lib: ContentLibrary,
    k: int,
    zeta_tot: float,
    restarts: int,
) -> BcdTrace:
    """Minimise the weighted delay over (caching vector, bandwidth split).

    Alternates the closed-form bandwidth allocation with a caching step to
    the exact minimiser of the delay linearised in the two request
    fractions, kept only when it lowers the delay (so the trace is
    non-increasing), and returns the best run over ``restarts`` starts on
    the caching frontier. Raises InfeasibleLoadError when no caching
    policy stabilises the queues.

    The frontier: the delay depends on b only through the request
    fractions (a1, a2), and the bandwidth-optimised delay (sqrt(x1) +
    sqrt(x2))^2 / (zeta_tot (W - x1 - x2)), x_i = zeta_tot a_i / O_i, is
    quasi-concave (concave numerator over an affine positive denominator)
    and increasing in both. Its minimum over the convex hull of the
    attainable (a1, a2) therefore lies at a lower-left extreme point of
    that hull, which is attainable and minimises a1 + rho a2 for some
    rho >= 0: the energy form with x = q. For rho <= 1 that form is
    concave and its minimiser is the top-M vertex (every 0/1 policy has
    a1 = 0); for rho > 1 and k >= 2 it is strictly convex with the unique
    minimiser s(rho) = ``_energy_form_minimiser(q, k, 1, rho, M)``. Every
    caching step lands on this curve, at rho = c2/c1 of the step's slopes.
    The starts are rho = 1 (top-M) and ``restarts`` - 1 values of rho
    geometric on [2, 1e8]; each runs, and its run's first evaluation
    judges it (``_bcd_run``), so only the stable ones count. When none is
    stable the one start is the minimum-load policy: the stability load
    zeta_tot (a1/O1 + a2/O2) / W has the energy form with x = q, so
    ``_energy_form_minimiser`` gives the least load of any policy, and
    no policy is stable if it is not. Starts that are equal to the bit
    (at k = 1 every rho gives the top-M vertex) share one run: each
    stable one still counts in ``restarts_used``, and ``best_start`` is
    the first index of the least delay. The returned ``gap`` is the one
    ``_bcd_run`` reports, computed by the last linearisation at the
    returned point.
    """
    _check_count("k", k, 1)
    _check_load(zeta_tot)
    _check_count("restarts", restarts, 1)
    q = lib.popularity
    m = lib.cache_size
    o1, o2 = queueing.service_coefficients(cfg, lib)
    w_total = cfg.w_total

    rhos = [1.0, *np.geomspace(2.0, 1e8, restarts - 1)]
    starts = [_energy_form_minimiser(q, k, 1.0, rho, m)[0] for rho in rhos]
    runs = {}  # keyed by the start's bytes: equal starts share one run
    for b0 in starts:
        if b0.tobytes() not in runs:
            runs[b0.tobytes()] = _bcd_run(b0, q, k, zeta_tot, o1, o2, w_total, m)
    results = [run for run in (runs[b0.tobytes()] for b0 in starts) if run is not None]
    if not results:
        least = _energy_form_minimiser(q, k, 1.0 / o1, 1.0 / o2, m)[0]
        results = [_bcd_run(least, q, k, zeta_tot, o1, o2, w_total, m)]
        if results[0] is None:
            a1, a2 = _arrival_fractions(least, q, k)
            raise InfeasibleLoadError(
                f"no caching policy stabilises the queues at zeta_tot = "
                f"{zeta_tot:.6g} req/s: the least load zeta_tot (a1/O1 + a2/O2) / W "
                f"of any policy is {zeta_tot * (a1 / o1 + a2 / o2) / w_total:.6g} "
                f"(stability needs less than 1)"
            )
    delays = [steps[-1].delay for steps, _, _ in results]
    best_start = delays.index(min(delays))
    steps, converged, gap = results[best_start]
    return BcdTrace(steps=tuple(steps), converged=converged,
                    restarts_used=len(results), gap=gap, best_start=best_start)


def _bcd_run(b0, q, k, zeta_tot, o1, o2, w_total, m):
    """One BCD run from b0: (steps, converged, final linearisation gap), or
    None when no bandwidth split stabilises b0, which the run's first
    evaluation, the bandwidth-optimised delay at b0, reads as inf.

    Each iterate linearises the delay once. A caching step's linear
    minimisation also gives the gap at its own iterate (the Frank-Wolfe
    duality gap; Jaggi, ICML 2013), so when the last step is rejected,
    (b, W1) has not moved and that gap is returned; only when the last
    step moved does the returned point take one more linearisation.
    """
    def delay_at(b):
        return _optimised_delay(b, q, k, zeta_tot, o1, o2, w_total)

    def step(b, w1, delay):
        return BcdStep(w1=w1, policy=CachingPolicy(b=_snap_budget(b, m), cache_size=m),
                       delay=delay)

    b = b0
    w1, delay = delay_at(b)
    if delay == math.inf:
        return None
    steps = [step(b, w1, delay)]
    converged = False
    moved = True  # b0 has no linearisation yet
    for _ in range(_BCD_MAX_ITERATIONS):
        s, gap = _linearised_caching_step(b, w1, q, k, zeta_tot, o1, o2, w_total, m)
        # The full caching step, then the closed-form bandwidth step at s;
        # a step that does not lower the exact delay leaves (b, W1) as is.
        w1_s, new_delay = delay_at(s)
        moved = new_delay < delay
        if moved:
            b, w1 = s, w1_s
        else:
            new_delay = delay
        steps.append(step(b, w1, new_delay))
        if abs(delay - new_delay) <= _BCD_TOL * max(new_delay, 1e-300):
            converged = True
            break
        delay = new_delay
    if moved:
        gap = _linearised_caching_step(b, w1, q, k, zeta_tot, o1, o2, w_total, m)[1]
    return steps, converged, gap
