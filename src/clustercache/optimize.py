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
  descent; the bandwidth block has a closed form and the caching block
  is a log-barrier interior-point descent restarted from multiple random
  feasible policies.

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

from .errors import (
    ConfigError,
    ConvexityError,
    InfeasibleLoadError,
    NoStableSplitError,
    UnstableQueueError,
)
from .model import CachingPolicy, ContentLibrary, NetworkConfig, baseline_policy
from . import queueing

__all__ = [
    "KktSolution",
    "BcdStep",
    "BcdTrace",
    "BandwidthAllocation",
    "objective_offloading",
    "optimize_offloading",
    "energy_conditional",
    "average_energy",
    "optimize_energy",
    "optimal_bandwidth",
    "weighted_delay",
    "optimize_delay_bcd",
]

_BUDGET_TOL = 1e-9
_BISECT_ITERATIONS = 120
_STABILITY_MARGIN = 1.0 - 1e-6  # barrier margin on the strict inequalities
_POISSON_TAIL = 1e-10


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
    """Iterates of the best block-coordinate-descent run."""

    steps: tuple
    converged: bool
    restarts_used: int

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
    v_lo, v_hi = 0.0, float(grad_at_0.max()) * (1.0 + 1e-12)
    b = np.zeros(lib.n_files)
    iterations = 0
    for iterations in range(1, _BISECT_ITERATIONS + 1):
        v = 0.5 * (v_lo + v_hi)
        b = _offload_policy_for_multiplier(v, q, n_bar, prob_r1, grad_at_1, grad_at_0)
        total = b.sum()
        if abs(total - m) <= 0.1 * _BUDGET_TOL:
            break
        if total > m:
            v_lo = v
        else:
            v_hi = v
    policy = CachingPolicy(b=_snap_budget(b, m), cache_size=m)
    return KktSolution(
        policy=policy,
        multiplier=0.5 * (v_lo + v_hi),
        objective=objective_offloading(policy, lib, n_bar, prob_r1),
        iterations=iterations,
    )


def _snap_budget(b: np.ndarray, budget: int) -> np.ndarray:
    gap = budget - b.sum()
    if gap != 0.0:
        interior = (b > 1e-15) & (b < 1.0 - 1e-15)
        if interior.any():
            b = b.copy()
            b[interior] += gap / interior.sum()
    return np.clip(b, 0.0, 1.0)


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


def average_energy(
    policy: CachingPolicy,
    lib: ContentLibrary,
    cfg: NetworkConfig,
    r1: float,
    r2: float,
) -> float:
    """Poisson(n_bar) mixture of the conditional energies.

    The sum is truncated where the remaining Poisson tail mass drops
    below 1e-10; the empty cluster consumes nothing.
    """
    total = 0.0
    for k, weight in _poisson_weights(cfg.n_bar):
        total += weight * energy_conditional(policy, lib, cfg, k, r1, r2)
    return total


def _poisson_weights(n_bar: float):
    """(k, P(n = k)) for n ~ Poisson(n_bar), k = 1, 2, ...

    Stops once the remaining tail mass drops below ``_POISSON_TAIL``
    (or past k = 200 (1 + n_bar)); k = 0 is skipped because an empty
    cluster contributes nothing to any of the mixtures.
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
    has no D2D partner, so the problem degenerates and the most popular
    files are cached deterministically (flagged on the solution).
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
    if k == 1:
        policy = baseline_policy("cpf", lib)
        return KktSolution(
            policy=policy,
            multiplier=math.nan,
            objective=energy_conditional(policy, lib, cfg, 1, r1, r2),
            iterations=0,
            degenerate=True,
        )

    x = lib.popularity * lib.sizes * 1e6  # q_i S_i in bits
    # Gradient of the objective at the two box corners brackets the
    # multiplier: all-zero policy at v below min gradient(b=0), all-one
    # policy at v above max gradient(b=1).
    grad_at_0 = -k * x * (k * cost_bs - (k - 1) * cost_d2d)
    grad_at_1 = -k * x * cost_d2d
    v_lo = float(grad_at_0.min()) * (1.0 + 1e-12)
    v_hi = float(grad_at_1.max()) * (1.0 - 1e-12)
    b = np.zeros(lib.n_files)
    iterations = 0
    for iterations in range(1, _BISECT_ITERATIONS + 1):
        v = 0.5 * (v_lo + v_hi)
        b = _energy_policy_for_multiplier(v, x, k, cost_d2d, cost_bs)
        total = b.sum()
        if abs(total - m) <= 0.1 * _BUDGET_TOL:
            break
        if total > m:
            v_hi = v
        else:
            v_lo = v
    policy = CachingPolicy(b=_snap_budget(b, m), cache_size=m)
    return KktSolution(
        policy=policy,
        multiplier=0.5 * (v_lo + v_hi),
        objective=energy_conditional(policy, lib, cfg, k, r1, r2),
        iterations=iterations,
    )


# ---------------------------------------------------------------------------
# Delay (joint caching and bandwidth minimisation)
# ---------------------------------------------------------------------------

def _arrival_fractions(b: np.ndarray, q: np.ndarray, k: int) -> tuple[float, float]:
    miss = 1.0 - b
    miss_k = miss**k
    a1 = float(q @ (miss - miss_k))
    a2 = float(q @ miss_k)
    return max(a1, 0.0), a2


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
    zeta_1 = zeta_tot * a1
    zeta_2 = zeta_tot * a2
    if zeta_1 == 0.0 and zeta_2 == 0.0:
        return BandwidthAllocation(w1=w_total / 2.0, degenerate=True)
    lo = zeta_1 / o1
    hi = w_total - zeta_2 / o2
    if not lo < hi:
        raise NoStableSplitError(
            f"no bandwidth split stabilises both queues: need W1 > {lo:.6g} Hz "
            f"and W1 < {hi:.6g} Hz out of {w_total:.6g} Hz"
        )
    if zeta_1 == 0.0:
        w1 = lo
    elif zeta_2 == 0.0:
        w1 = w_total
    else:
        weight = math.sqrt(o1 * zeta_1 / (o2 * zeta_2))
        w1 = (zeta_1 + weight * (o2 * w_total - zeta_2)) / (o1 + weight * o2)
    margin = min(1e-9 * w_total, 0.25 * (hi - lo))
    return BandwidthAllocation(w1=float(min(max(w1, lo + margin), hi - margin)))


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
    if zeta_tot == 0.0:
        return 0.0
    a1, a2 = _arrival_fractions(policy.b, lib.popularity, k)
    zeta = (zeta_tot * a1, zeta_tot * a2)
    mu = (o1 * w1, o2 * (w_total - w1))
    total = 0.0
    for i in (0, 1):
        if zeta[i] == 0.0:
            continue
        if mu[i] <= 0.0 or zeta[i] / mu[i] > queueing._RHO_MAX:
            raise UnstableQueueError(queue=i + 1, zeta=zeta[i], mu=mu[i])
        total += zeta[i] / (mu[i] - zeta[i])
    return total / zeta_tot


def _delay_objective(b, q, k, zeta_tot, mu1, mu2):
    a1, a2 = _arrival_fractions(b, q, k)
    z1, z2 = zeta_tot * a1, zeta_tot * a2
    if z1 >= mu1 or z2 >= mu2:
        return math.inf
    total = 0.0
    if z1 > 0:
        total += z1 / (mu1 - z1)
    if z2 > 0:
        total += z2 / (mu2 - z2)
    return total / zeta_tot if zeta_tot > 0 else 0.0


def _delay_gradient(b, q, k, zeta_tot, mu1, mu2):
    miss = 1.0 - b
    miss_km1 = miss ** (k - 1)
    a1, a2 = _arrival_fractions(b, q, k)
    z1, z2 = zeta_tot * a1, zeta_tot * a2
    da1 = q * (k * miss_km1 - 1.0)
    da2 = -k * q * miss_km1
    dd_da1 = mu1 / (mu1 - z1) ** 2 if z1 < mu1 else math.inf
    dd_da2 = mu2 / (mu2 - z2) ** 2 if z2 < mu2 else math.inf
    return dd_da1 * da1 + dd_da2 * da2


def _barrier_value(b, q, k, zeta_tot, mu1, mu2):
    if np.any(b <= 0.0) or np.any(b >= 1.0):
        return math.inf
    a1, a2 = _arrival_fractions(b, q, k)
    slack1 = mu1 * _STABILITY_MARGIN - zeta_tot * a1
    slack2 = mu2 * _STABILITY_MARGIN - zeta_tot * a2
    if slack1 <= 0.0 or slack2 <= 0.0:
        return math.inf
    return (
        -float(np.log(b).sum() + np.log(1.0 - b).sum())
        - math.log(slack1)
        - math.log(slack2)
    )


def _barrier_gradient(b, q, k, zeta_tot, mu1, mu2):
    miss = 1.0 - b
    miss_km1 = miss ** (k - 1)
    a1, a2 = _arrival_fractions(b, q, k)
    slack1 = mu1 * _STABILITY_MARGIN - zeta_tot * a1
    slack2 = mu2 * _STABILITY_MARGIN - zeta_tot * a2
    da1 = q * (k * miss_km1 - 1.0)
    da2 = -k * q * miss_km1
    return (
        -1.0 / b
        + 1.0 / miss
        + (zeta_tot / slack1) * da1
        + (zeta_tot / slack2) * da2
    )


def _solve_caching_subproblem(b, q, k, zeta_tot, mu1, mu2, m):
    """Local solve of the caching block by projected log-barrier descent.

    Equality sum(b) = M is kept by projecting gradients onto the
    zero-sum hyperplane; box and stability constraints sit in the
    barrier. Returns the incumbent if the start violates the barrier
    margins (the bandwidth block will keep making progress).
    """
    n = b.size
    # Pull strictly inside the box while preserving the budget.
    z = (1.0 - 1e-3) * b + 1e-3 * (m / n)
    if not math.isfinite(_barrier_value(z, q, k, zeta_tot, mu1, mu2)):
        return b

    def total_objective(t, zz):
        base = _delay_objective(zz, q, k, zeta_tot, mu1, mu2)
        if not math.isfinite(base):
            return math.inf
        bar = _barrier_value(zz, q, k, zeta_tot, mu1, mu2)
        return base + bar / t

    t = 1.0
    for _ in range(8):  # barrier parameter x10 per round
        for _ in range(60):
            grad = _delay_gradient(z, q, k, zeta_tot, mu1, mu2)
            grad = grad + _barrier_gradient(z, q, k, zeta_tot, mu1, mu2) / t
            direction = -(grad - grad.mean())
            dir_norm = float(np.abs(direction).max())
            if dir_norm < 1e-14:
                break
            # Largest step keeping the box margins, then Armijo backtracking.
            step = min(1.0, 0.25 / dir_norm)
            slope = float(grad @ direction)
            current = total_objective(t, z)
            accepted = False
            for _ in range(40):
                cand = z + step * direction
                value = total_objective(t, cand)
                if value <= current + 1e-4 * step * slope:
                    z = cand
                    accepted = True
                    break
                step *= 0.5
            if not accepted:
                break
        t *= 10.0
    return z


def _stabilizable(b, q, k, zeta_tot, o1, o2, w_total) -> bool:
    a1, a2 = _arrival_fractions(b, q, k)
    return zeta_tot * (a1 / o1 + a2 / o2) < w_total * (1.0 - 1e-9)


def _random_feasible_policy(rng, q, k, zeta_tot, o1, o2, w_total, m, anchors):
    from .model import _capped_proportional

    n = q.size
    for _ in range(200):
        b = _capped_proportional(rng.random(n) + 1e-12, m)
        if _stabilizable(b, q, k, zeta_tot, o1, o2, w_total):
            return b
        # Blend toward a known stabilizable policy.
        for anchor in anchors:
            for lam in (0.5, 0.75, 0.9):
                mix = lam * anchor + (1.0 - lam) * b
                if _stabilizable(mix, q, k, zeta_tot, o1, o2, w_total):
                    return mix
    return anchors[0].copy()


def optimize_delay_bcd(
    cfg: NetworkConfig,
    lib: ContentLibrary,
    k: int,
    zeta_tot: float,
    restarts: int = 16,
    tol: float = 1e-8,
    seed: int | None = None,
    initial_policy: CachingPolicy | None = None,
    max_iterations: int = 200,
) -> BcdTrace:
    """Minimise the weighted delay over (caching vector, bandwidth split).

    Alternates the closed-form bandwidth allocation with a local interior
    point solve of the caching block, keeps a caching step only when it
    does not increase the delay (so the trace is non-increasing), and
    returns the best run over ``restarts`` random feasible starts. When
    ``initial_policy`` is given it seeds the first run.
    """
    if k < 1:
        raise ConfigError(f"k must be at least 1, got {k}")
    if restarts < 1:
        raise ConfigError("restarts must be at least 1")
    if tol <= 0:
        raise ConfigError("tol must be positive")
    q = lib.popularity
    m = lib.cache_size
    o1, o2 = queueing.service_coefficients(cfg, lib)
    w_total = cfg.w_total

    # Feasibility pre-pass: at least one of the reference policies must
    # admit a stable bandwidth split.
    feasible_reference = [
        p.b for p in (baseline_policy("cpf", lib),
                      CachingPolicy(np.full(lib.n_files, m / lib.n_files), m))
        if _stabilizable(p.b, q, k, zeta_tot, o1, o2, w_total)
    ]
    if not feasible_reference:
        raise InfeasibleLoadError(
            f"neither the popular-files nor the uniform policy stabilises the "
            f"queues at zeta_tot = {zeta_tot:.6g} req/s"
        )
    # Restart anchors stay interior (uniform, proportional): the caching
    # block is an interior-point descent, so runs explore the same space
    # the barrier can represent. The all-or-nothing corner b_i in {0, 1}
    # (no D2D arrivals at all) is deliberately not an anchor.
    anchors = [
        b for b in (
            CachingPolicy(np.full(lib.n_files, m / lib.n_files), m).b,
            baseline_policy("zipf-proportional", lib).b,
        )
        if _stabilizable(b, q, k, zeta_tot, o1, o2, w_total)
    ] or feasible_reference

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

    best: tuple | None = None
    for b0 in starts:
        steps, converged = _bcd_run(
            b0, q, lib, k, zeta_tot, o1, o2, w_total, m, tol, max_iterations
        )
        if best is None or steps[-1].delay < best[0][-1].delay:
            best = (steps, converged)
    assert best is not None
    return BcdTrace(steps=tuple(best[0]), converged=best[1], restarts_used=len(starts))


def _bcd_run(b0, q, lib, k, zeta_tot, o1, o2, w_total, m, tol, max_iterations):
    def policy_of(b):
        return CachingPolicy(b=_snap_budget(b.copy(), m), cache_size=m)

    b = b0
    w1 = optimal_bandwidth(policy_of(b), lib, k, zeta_tot, o1, o2, w_total).w1
    delay = _delay_objective(b, q, k, zeta_tot, o1 * w1, o2 * (w_total - w1))
    steps = [BcdStep(w1=w1, policy=policy_of(b), delay=delay)]
    converged = False
    for _ in range(max_iterations):
        mu1, mu2 = o1 * w1, o2 * (w_total - w1)
        candidate = _solve_caching_subproblem(b, q, k, zeta_tot, mu1, mu2, m)
        if _delay_objective(candidate, q, k, zeta_tot, mu1, mu2) <= delay:
            b = candidate
        w1 = optimal_bandwidth(policy_of(b), lib, k, zeta_tot, o1, o2, w_total).w1
        new_delay = _delay_objective(b, q, k, zeta_tot, o1 * w1, o2 * (w_total - w1))
        steps.append(BcdStep(w1=w1, policy=policy_of(b), delay=new_delay))
        if abs(delay - new_delay) <= tol * max(new_delay, 1e-300):
            delay = new_delay
            converged = True
            break
        delay = new_delay
    return steps, converged
