"""The three caching optimizers: offloading gain, energy, and delay.

* Offloading: maximise the probability that a request is served locally
  (self-cache, or intra-cluster D2D above the rate threshold). Concave
  in the caching vector; solved exactly by bisecting the budget
  multiplier over the three-branch KKT rule.
* Energy: minimise the conditional per-cluster download energy for a
  cluster of k devices. Convex whenever the BS energy cost per bit
  exceeds the D2D cost per bit; solved by the same multiplier bisection
  with a closed-form interior branch.
* Delay: minimise the weighted mean request delay jointly over the
  caching vector and the D2D/BS bandwidth split by block coordinate
  descent. The bandwidth block has a closed form. The caching step
  linearises the bandwidth-optimised delay in the D2D and BS request
  fractions, solves the resulting energy-form problem exactly by the
  same multiplier bisection and line-searches the segment towards it
  (partial linearisation, a generalised conditional gradient step).

The energy interior branch is derived from the stationarity of the
implemented objective, b_i = 1 - [(v + k q_i S_i Pd/R1) /
(k^2 q_i S_i (Pd/R1 - Pb/R2))]^(1/(k-1)) clamped to [0, 1], which the
brute-force and projected-gradient oracles in the test suite confirm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import numpy.random  # numpy loads it lazily: import it here, not in a run

from .errors import (
    ConfigError,
    ConvexityError,
    InfeasibleLoadError,
    NoStableSplitError,
    UnstableQueueError,
)
from .model import (
    CachingPolicy,
    ContentLibrary,
    NetworkConfig,
    _BUDGET_TOL,
    _capped_proportional,
    _snap_budget,
    baseline_policy,
)
from . import queueing
from .queueing import _arrival_fractions

__all__ = [
    "KktSolution",
    "BcdStep",
    "BcdTrace",
    "BandwidthAllocation",
    "objective_offloading",
    "optimize_offloading",
    "energy_conditional",
    "optimize_energy",
    "optimal_bandwidth",
    "weighted_delay",
    "optimize_delay_bcd",
]

_BISECT_ITERATIONS = 120
_POISSON_TAIL = 1e-10
# A queue is treated as unstable once its utilisation exceeds this.
_RHO_MAX = 1.0 - 1e-9
# A BCD run stops once a step changes the delay by at most this relative
# amount, or after this many steps.
_BCD_TOL = 1e-8
_BCD_MAX_ITERATIONS = 200


@dataclass(frozen=True)
class KktSolution:
    """Solution of a multiplier-bisection KKT solve."""

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
    at a block minimum); ``best_start`` indexes the winning start.
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


@dataclass(frozen=True)
class BandwidthAllocation:
    """Optimal D2D bandwidth; degenerate when no request leaves a device."""

    w1: float
    degenerate: bool = False


# ---------------------------------------------------------------------------
# Offloading gain (maximisation)
# ---------------------------------------------------------------------------

def objective_offloading(
    policy: CachingPolicy, lib: ContentLibrary, n_bar: float, prob_r1: float
) -> float:
    """Offloading gain of a policy.

    sum_i q_i b_i + q_i (1-b_i)(1 - e^(-b_i nbar)) P(R1 > R0); the void
    factor is the probability that at least one cluster member caches
    file i.
    """
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
        qi = q[interior]
        lo = np.zeros(qi.size)
        hi = np.ones(qi.size)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            above = _offload_gradient(mid, qi, n_bar, prob_r1) > v
            lo = np.where(above, mid, lo)
            hi = np.where(above, hi, mid)
        b[interior] = 0.5 * (lo + hi)
    return b


def optimize_offloading(
    cfg: NetworkConfig, lib: ContentLibrary, prob_r1: float
) -> KktSolution:
    """Maximise the offloading gain subject to the cache budget.

    The objective is concave and separable, so the optimum follows the
    three-branch multiplier rule: b_i = 1 where the marginal gain at
    b_i = 1 still exceeds the multiplier, b_i = 0 where the marginal gain
    at b_i = 0 is below it, and the unique interior stationary point
    otherwise. The multiplier is bisected until sum(b) = M.
    """
    if not 0.0 <= prob_r1 <= 1.0:
        raise ConfigError(f"prob_r1 must lie in [0, 1], got {prob_r1}")
    q = lib.popularity
    n_bar = cfg.n_bar
    m = lib.cache_size
    if m >= lib.n_files:
        raise ConfigError("cache size must be smaller than the catalog")

    if prob_r1 == 0.0:
        # Linear objective sum q_i b_i: cache the M most popular files.
        policy = baseline_policy("cpf", lib)
        return KktSolution(
            policy=policy,
            multiplier=float(q[m - 1]),
            objective=objective_offloading(policy, lib, n_bar, prob_r1),
            iterations=0,
        )

    grad_at_1 = q * (1.0 - (1.0 - math.exp(-n_bar)) * prob_r1)
    grad_at_0 = q * (1.0 + n_bar * prob_r1)
    b, multiplier, iterations = _bisect_multiplier(
        lambda v: _offload_policy_for_multiplier(
            v, q, n_bar, prob_r1, grad_at_1, grad_at_0),
        0.0, float(grad_at_0.max()) * (1.0 + 1e-12), m, decreasing=True,
    )
    policy = CachingPolicy(b=b, cache_size=m)
    return KktSolution(
        policy=policy,
        multiplier=multiplier,
        objective=objective_offloading(policy, lib, n_bar, prob_r1),
        iterations=iterations,
    )


def _bisect_multiplier(policy_at, v_lo, v_hi, m, decreasing):
    """Bisect the budget multiplier of a separable three-branch KKT rule.

    ``policy_at(v)`` returns the minimiser of the Lagrangian at
    multiplier v: each b_i at 1, at 0 or at its interior stationary
    point. Its sum is monotone in v, falling when ``decreasing`` and
    rising otherwise; [v_lo, v_hi] must bracket sum(b) = M. Returns the
    budget-snapped vector, the multiplier and the iteration count.
    """
    iterations = 0
    for iterations in range(1, _BISECT_ITERATIONS + 1):
        v = 0.5 * (v_lo + v_hi)
        b = policy_at(v)
        total = b.sum()
        if abs(total - m) <= 0.1 * _BUDGET_TOL:
            break
        if (total > m) == decreasing:
            v_lo = v
        else:
            v_hi = v
    return _snap_budget(b, m), 0.5 * (v_lo + v_hi), iterations


# ---------------------------------------------------------------------------
# Energy (minimisation)
# ---------------------------------------------------------------------------

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
    with S_i converted from Mbits to bits so S_i/R is seconds.
    """
    if k < 1:
        raise ConfigError(f"k must be at least 1, got {k}")
    if r1 <= 0 or r2 <= 0:
        raise ConfigError("rates must be positive")
    q = lib.popularity
    s_bits = lib.sizes * 1e6
    miss = 1.0 - policy.b
    d2d_term = (miss - miss**k) * (cfg.p_d / r1)
    bs_term = miss**k * (cfg.p_b / r2)
    return float(k * (q @ (s_bits * (d2d_term + bs_term))))


def _poisson_weights(n_bar: float):
    """(k, P(n = k)) for n ~ Poisson(n_bar), k = 1, 2, ...

    Stops once the remaining tail mass drops below ``_POISSON_TAIL``
    (or past k = 200 (1 + n_bar)); k = 0 is skipped because an empty
    cluster contributes nothing to the CLI's energy mixture.
    """
    weight = math.exp(-n_bar)
    cumulative = weight
    k = 0
    while cumulative < 1.0 - _POISSON_TAIL:
        k += 1
        weight *= n_bar / k
        cumulative += weight
        yield k, weight
        if k > 200 * (1 + n_bar):
            return


def _energy_policy_for_multiplier(v, x, k, cost_d2d, cost_bs):
    # Interior stationarity: beta^(k-1) = (v + k x A) / (k^2 x (A - B)),
    # beta = 1 - b, A = Pd/R1, B = Pb/R2 (A < B). Negative bases mean the
    # marginal saving still exceeds the multiplier at b = 1.
    ratio = (v + k * x * cost_d2d) / (k**2 * x * (cost_d2d - cost_bs))
    base = np.clip(ratio, 0.0, None)
    beta = base ** (1.0 / (k - 1))
    return np.clip(1.0 - beta, 0.0, 1.0)


def optimize_energy(
    cfg: NetworkConfig,
    lib: ContentLibrary,
    k: int,
    r1: float,
    r2: float,
) -> KktSolution:
    """Minimise the conditional energy subject to the cache budget.

    Requires the convexity gate Pb/R2 > Pd/R1. A cluster of one device
    has no D2D partner, so the objective sum_i q_i S_i (1 - b_i) Pb/R2 is
    linear and the M files of largest q_i S_i are cached deterministically
    (flagged on the solution).
    """
    if k < 1:
        raise ConfigError(f"k must be at least 1, got {k}")
    if r1 <= 0 or r2 <= 0:
        raise ConfigError("rates must be positive")
    cost_d2d = cfg.p_d / r1
    cost_bs = cfg.p_b / r2
    if not cost_bs > cost_d2d:
        raise ConvexityError(
            f"energy objective is convex only when Pb/R2 > Pd/R1; got "
            f"Pb/R2 = {cost_bs:.6g}, Pd/R1 = {cost_d2d:.6g}"
        )
    m = lib.cache_size
    x = lib.popularity * lib.sizes * 1e6  # q_i S_i in bits
    b, multiplier, iterations = _energy_form_minimiser(x, k, cost_d2d, cost_bs, m)
    policy = CachingPolicy(b=b, cache_size=m)
    return KktSolution(
        policy=policy,
        multiplier=multiplier,
        objective=energy_conditional(policy, lib, cfg, k, r1, r2),
        iterations=iterations,
        degenerate=k == 1,
    )


def _energy_form_minimiser(x, k, cost_d2d, cost_bs, m):
    """(b, multiplier, iterations) minimising k sum_i x_i [((1-b_i) -
    (1-b_i)^k) cost_d2d + (1-b_i)^k cost_bs] with sum(b) = M, b in [0, 1].

    Strictly convex when k >= 2 and cost_bs > cost_d2d; the gradients at
    b = 0 and b = 1 then bracket the multiplier. Files with x_i = 0 trail
    (popularity is non-increasing, sizes are positive) and do not change
    the objective: they stay out of the bisection, whose stationarity
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
    grad_at_1 = -k * x * cost_d2d
    b[:live], multiplier, iterations = _bisect_multiplier(
        lambda v: _energy_policy_for_multiplier(v, x, k, cost_d2d, cost_bs),
        float(grad_at_0.min()) * (1.0 + 1e-12),
        float(grad_at_1.max()) * (1.0 - 1e-12),
        m, decreasing=False,
    )
    return b, multiplier, iterations


# ---------------------------------------------------------------------------
# Delay (joint caching and bandwidth minimisation)
# ---------------------------------------------------------------------------

def _split_delay(a1, a2, zeta_tot, o1, o2, w_total, w1=None):
    """(W1, weighted delay) for the D2D and BS request fractions a1, a2.

    zeta_i = zeta_tot a_i; see ``weighted_delay`` for the delay and, when
    ``w1`` is None, ``optimal_bandwidth`` for the closed-form W1*.
    Raises NoStableSplitError when the stability interval is empty and
    UnstableQueueError for a queue past ``_RHO_MAX`` at W1.
    """
    zeta = (zeta_tot * a1, zeta_tot * a2)
    if w1 is None and zeta == (0.0, 0.0):
        w1 = w_total / 2.0
    elif w1 is None:
        lo = zeta[0] / o1
        hi = w_total - zeta[1] / o2
        if not lo < hi:
            raise NoStableSplitError(
                f"no bandwidth split stabilises both queues: need W1 > {lo:.6g} Hz "
                f"and W1 < {hi:.6g} Hz out of {w_total:.6g} Hz"
            )
        if zeta[0] == 0.0:
            w1 = lo
        elif zeta[1] == 0.0:
            w1 = w_total
        else:
            weight = math.sqrt(o1 * zeta[0] / (o2 * zeta[1]))
            w1 = (zeta[0] + weight * (o2 * w_total - zeta[1])) / (o1 + weight * o2)
        margin = min(1e-9 * w_total, 0.25 * (hi - lo))
        w1 = float(min(max(w1, lo + margin), hi - margin))
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


def optimal_bandwidth(
    policy: CachingPolicy,
    lib: ContentLibrary,
    k: int,
    zeta_tot: float,
    o1: float,
    o2: float,
    w_total: float,
) -> BandwidthAllocation:
    """Closed-form D2D bandwidth minimising the weighted delay.

    W1* = [zeta_1 + w (O2 W - zeta_2)] / (O1 + w O2) with
    w = sqrt(O1 zeta_1 / (O2 zeta_2)), clamped into the open stability
    interval (zeta_1/O1, W - zeta_2/O2). When no request leaves the
    devices both queues are empty and the split is immaterial; W/2 is
    returned with the degenerate flag.
    """
    if o1 <= 0 or o2 <= 0 or w_total <= 0:
        raise ConfigError("service coefficients and bandwidth must be positive")
    if zeta_tot < 0:
        raise ConfigError("zeta_tot must be non-negative")
    a1, a2 = _arrival_fractions(policy.b, lib.popularity, k)
    w1, _ = _split_delay(a1, a2, zeta_tot, o1, o2, w_total)
    return BandwidthAllocation(
        w1=w1, degenerate=zeta_tot * a1 == 0.0 and zeta_tot * a2 == 0.0
    )


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
    if not 0 <= w1 <= w_total:
        raise ConfigError(f"w1 must lie in [0, {w_total}], got {w1}")
    a1, a2 = _arrival_fractions(policy.b, lib.popularity, k)
    return _split_delay(a1, a2, zeta_tot, o1, o2, w_total, w1)[1]


def _optimised_delay(b, q, k, zeta_tot, o1, o2, w_total):
    """(W1*(b), D(b, W1*(b))): the bandwidth-optimised delay at b.

    The delay is infinite where no bandwidth split stabilises the queues.
    """
    a1, a2 = _arrival_fractions(b, q, k)
    try:
        return _split_delay(a1, a2, zeta_tot, o1, o2, w_total)
    except (NoStableSplitError, UnstableQueueError):
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
    """
    a1, a2 = _arrival_fractions(b, q, k)
    mu1, mu2 = o1 * w1, o2 * (w_total - w1)
    if zeta_tot == 0.0:
        slope1 = slope2 = 0.0  # the delay is identically zero
    else:
        slope1 = mu1 / (mu1 - zeta_tot * a1) ** 2
        slope2 = mu2 / (mu2 - zeta_tot * a2) ** 2
    s = _energy_form_minimiser(q, k, slope1, slope2, m)[0]
    miss_km1 = (1.0 - b) ** (k - 1)
    grad = q * (slope1 * (k * miss_km1 - 1.0) - slope2 * k * miss_km1)
    return s, float(grad @ (b - s))


def _golden_section(fn, tol):
    """(x, fn(x)) at the golden-section minimum of ``fn`` on [0, 1]."""
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = 0.0, 1.0
    x1, x2 = 1.0 - ratio, ratio
    f1, f2 = fn(x1), fn(x2)
    while hi - lo > tol:
        if f1 < f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - ratio * (hi - lo)
            f1 = fn(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + ratio * (hi - lo)
            f2 = fn(x2)
    return (x1, f1) if f1 < f2 else (x2, f2)


def _stabilizable(b, q, k, zeta_tot, o1, o2, w_total) -> bool:
    """Whether some bandwidth split keeps both queues of b stable, by the
    test of ``_split_delay``."""
    return math.isfinite(_optimised_delay(b, q, k, zeta_tot, o1, o2, w_total)[1])


def _random_feasible_policy(rng, q, k, zeta_tot, o1, o2, w_total, m, anchors):
    for _ in range(200):
        b = _capped_proportional(rng.random(q.size) + 1e-12, m)
        if _stabilizable(b, q, k, zeta_tot, o1, o2, w_total):
            return b
    return anchors[0].copy()


def optimize_delay_bcd(
    cfg: NetworkConfig,
    lib: ContentLibrary,
    k: int,
    zeta_tot: float,
    restarts: int = 16,
    seed: int | None = None,
    initial_policy: CachingPolicy | None = None,
) -> BcdTrace:
    """Minimise the weighted delay over (caching vector, bandwidth split).

    Alternates the closed-form bandwidth allocation with a caching step
    (exact minimiser of the delay linearised in the two arrival fractions,
    then a line search on the bandwidth-optimised delay), keeps a caching
    step only when it lowers the delay (so the trace is non-increasing),
    and returns the best run over ``restarts`` feasible starts. When
    ``initial_policy`` is given it seeds the first run.
    """
    if k < 1:
        raise ConfigError(f"k must be at least 1, got {k}")
    if restarts < 1:
        raise ConfigError("restarts must be at least 1")
    q = lib.popularity
    m = lib.cache_size
    o1, o2 = queueing.service_coefficients(cfg, lib)
    w_total = cfg.w_total

    # Restart anchors are the stable ones among the uniform and the
    # proportional policies. The all-or-nothing corner b_i in {0, 1} (no
    # D2D arrivals at all) is the anchor only when neither is stable: it is
    # otherwise the caching step's vertex whenever the linearised delay is
    # concave, and the line search always tries the full step.
    anchors = [
        b for b in (np.full(lib.n_files, m / lib.n_files),
                    baseline_policy("zipf-proportional", lib).b)
        if _stabilizable(b, q, k, zeta_tot, o1, o2, w_total)
    ]
    if not anchors:
        top_m = baseline_policy("cpf", lib).b
        if not _stabilizable(top_m, q, k, zeta_tot, o1, o2, w_total):
            raise InfeasibleLoadError(
                f"none of the uniform, zipf-proportional and popular-files "
                f"policies stabilises the queues at zeta_tot = {zeta_tot:.6g} req/s"
            )
        anchors = [top_m]

    rng = np.random.Generator(np.random.Philox(key=0 if seed is None else seed))
    starts: list[np.ndarray] = []
    if initial_policy is not None:
        if not _stabilizable(initial_policy.b, q, k, zeta_tot, o1, o2, w_total):
            raise InfeasibleLoadError("initial policy does not stabilise the queues")
        starts.append(initial_policy.b.copy())
    # Seed the restart set with the stabilizable deterministic schemes so a
    # run can never end worse than the best of them, then fill with random
    # feasible draws.
    for anchor in anchors:
        if len(starts) < restarts:
            starts.append(anchor.copy())
    while len(starts) < restarts:
        starts.append(
            _random_feasible_policy(rng, q, k, zeta_tot, o1, o2, w_total, m, anchors)
        )

    best = None
    for index, b0 in enumerate(starts):
        run = _bcd_run(b0, q, k, zeta_tot, o1, o2, w_total, m)
        if best is None or run[0][-1].delay < best[1][0][-1].delay:
            best = (index, run)
    best_start, (steps, converged, gap) = best
    return BcdTrace(steps=tuple(steps), converged=converged,
                    restarts_used=len(starts), gap=gap, best_start=best_start)


def _bcd_run(b0, q, k, zeta_tot, o1, o2, w_total, m):
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
        gamma, value = _golden_section(lambda g: delay_at(b + g * (s - b))[1], 1e-10)
        full = delay_at(s)[1]
        if full <= value:
            gamma, value = 1.0, full
        if value < delay:
            b = s if gamma == 1.0 else b + gamma * (s - b)
        # The closed-form bandwidth step at the (possibly new) caching vector.
        w1, new_delay = delay_at(b)
        steps.append(step(b, w1, new_delay))
        if abs(delay - new_delay) <= _BCD_TOL * max(new_delay, 1e-300):
            converged = True
            break
        delay = new_delay
    gap = _linearised_caching_step(b, w1, q, k, zeta_tot, o1, o2, w_total, m)[1]
    return steps, converged, gap
