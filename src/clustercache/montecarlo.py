"""Monte Carlo simulation of the clustered D2D network.

This module is the independent oracle for every analytic coverage
quantity: it samples the Thomas cluster process directly, applies
slotted-ALOHA thinning and unit-mean exponential fading, and counts SIR
threshold crossings. Nothing here shares code with the quadrature path.

Construction per trial (typical receiver at the origin):

* the representative cluster center is Gaussian-displaced from the
  origin and the serving device is Gaussian-displaced from the center,
  so the serving distance is Rayleigh(sqrt(2)*sigma);
* remote cluster centers form a Poisson process in a disk whose radius
  defaults to max(15*sigma, 5/sqrt(pi*lambda_p)), large enough that the
  truncated interference is negligible for alpha >= 3;
* every potential interferer transmits independently with the ALOHA
  probability and fades independently.

Trials are processed in fixed-size batches; each batch draws its own
generator from the master seed (counter-based Philox), so estimates are
bit-identical for a given seed and the per-batch counts may be merged in
any order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InfeasibleAccessProbability
from .model import NetworkConfig

__all__ = [
    "McEstimate",
    "ClusterRealization",
    "ConditionalCoveragePair",
    "default_region_radius",
    "sample_tcp",
    "mc_prob_rate_exceeds",
    "mc_coverage_conditional",
    "mc_coverage_single_link",
]

_BATCH = 10_000


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo point estimate with its 95% half-width."""

    mean: float
    half_width_95: float
    samples: int
    seed: int

    def __post_init__(self):
        if self.samples < 1:
            raise ConfigError("samples must be at least 1")


@dataclass(frozen=True)
class ConditionalCoveragePair:
    """Conditional coverage estimated two ways.

    ``exact`` keeps the cluster population fixed at k (binomial ALOHA
    thinning of k-1 potential interferers); ``poisson_approx`` replaces
    the interferer count by Poisson(p*k), which is the assumption behind
    the analytic conditional coverage. Their gap measures that
    approximation.
    """

    exact: McEstimate
    poisson_approx: McEstimate


@dataclass(frozen=True, eq=False)
class ClusterRealization:
    """One draw of the cluster process: centers and per-cluster offsets."""

    centers: np.ndarray  # (n_clusters, 2), meters
    members: tuple  # tuple of (m_i, 2) offset arrays relative to the center


def default_region_radius(cfg: NetworkConfig) -> float:
    """Simulation disk radius keeping truncation bias negligible."""
    return max(15.0 * cfg.sigma, 5.0 / math.sqrt(math.pi * cfg.lambda_p))


def _generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def _batch_generators(seed: int, n_batches: int):
    return [
        np.random.Generator(np.random.Philox(child))
        for child in np.random.SeedSequence(seed).spawn(n_batches)
    ]


def _disk_points(rng, n: int, radius: float) -> np.ndarray:
    r = radius * np.sqrt(rng.random(n))
    a = rng.random(n) * (2.0 * math.pi)
    return np.column_stack([r * np.cos(a), r * np.sin(a)])


def sample_tcp(cfg: NetworkConfig, region_radius: float, rng_seed: int) -> ClusterRealization:
    """Sample one Thomas-cluster realization in a disk around the origin."""
    if region_radius <= 0:
        raise ConfigError("region_radius must be positive")
    rng = _generator(rng_seed)
    n_clusters = int(rng.poisson(cfg.lambda_p * math.pi * region_radius**2))
    centers = _disk_points(rng, n_clusters, region_radius)
    counts = rng.poisson(cfg.n_bar, n_clusters)
    members = tuple(
        rng.normal(0.0, cfg.sigma, (int(m), 2)) for m in counts
    )
    return ClusterRealization(centers=centers, members=members)


def _remote_interference(rng, cfg: NetworkConfig, n: int, radius: float,
                         single_link: bool) -> np.ndarray:
    """Unit-power interference from all remote clusters, per trial."""
    counts = rng.poisson(cfg.lambda_p * math.pi * radius**2, n)
    total = int(counts.sum())
    trial_of_cluster = np.repeat(np.arange(n), counts)
    centers = _disk_points(rng, total, radius)
    if single_link:
        # Exactly one always-active transmitter per remote cluster.
        pos = centers + rng.normal(0.0, cfg.sigma, (total, 2))
        fade = rng.exponential(1.0, total)
        dist = np.linalg.norm(pos, axis=1)
        contrib = fade * dist ** (-cfg.alpha)
        return np.bincount(trial_of_cluster, weights=contrib, minlength=n)
    member_counts = rng.poisson(cfg.n_bar, total)
    m_total = int(member_counts.sum())
    cluster_of_member = np.repeat(np.arange(total), member_counts)
    pos = centers[cluster_of_member] + rng.normal(0.0, cfg.sigma, (m_total, 2))
    active = rng.random(m_total) < cfg.access_p
    fade = rng.exponential(1.0, m_total)
    dist = np.linalg.norm(pos, axis=1)
    contrib = np.where(active, fade * dist ** (-cfg.alpha), 0.0)
    return np.bincount(
        trial_of_cluster[cluster_of_member], weights=contrib, minlength=n
    )


def _local_interference(rng, cfg: NetworkConfig, centers: np.ndarray,
                        mode: str, k: int) -> np.ndarray:
    """Unit-power interference from the representative cluster, per trial."""
    n = centers.shape[0]
    if mode == "none":
        return np.zeros(n)
    if mode == "aloha":
        counts = rng.poisson(cfg.n_bar, n)
        thin = cfg.access_p
    elif mode == "binomial":
        counts = np.full(n, k - 1, dtype=np.int64)
        thin = cfg.access_p
    elif mode == "poisson_pk":
        counts = rng.poisson(cfg.access_p * k, n)
        thin = 1.0
    else:
        raise ConfigError(f"unknown intra-cluster mode {mode!r}")
    total = int(counts.sum())
    trial = np.repeat(np.arange(n), counts)
    pos = centers[trial] + rng.normal(0.0, cfg.sigma, (total, 2))
    active = rng.random(total) < thin if thin < 1.0 else np.ones(total, dtype=bool)
    fade = rng.exponential(1.0, total)
    dist = np.linalg.norm(pos, axis=1)
    contrib = np.where(active, fade * dist ** (-cfg.alpha), 0.0)
    return np.bincount(trial, weights=contrib, minlength=n)


def _sir_hits(cfg: NetworkConfig, trials: int, seed: int, intra_mode: str,
              k: int, single_link: bool, region_radius: float | None) -> int:
    radius = region_radius if region_radius is not None else default_region_radius(cfg)
    n_batches = (trials + _BATCH - 1) // _BATCH
    hits = 0
    done = 0
    for rng in _batch_generators(seed, n_batches):
        n = min(_BATCH, trials - done)
        done += n
        x0 = rng.normal(0.0, cfg.sigma, (n, 2))
        y0 = rng.normal(0.0, cfg.sigma, (n, 2))
        serve_dist = np.linalg.norm(x0 + y0, axis=1)
        interference = _local_interference(rng, cfg, x0, intra_mode, k)
        interference = interference + _remote_interference(
            rng, cfg, n, radius, single_link
        )
        fade0 = rng.exponential(1.0, n)
        signal = fade0 * serve_dist ** (-cfg.alpha)
        # SIR > theta, written multiplicatively so empty interferer sets
        # (interference == 0) count as covered without dividing by zero.
        hits += int(np.count_nonzero(signal > cfg.theta * interference))
    return hits


def _estimate(hits: int, trials: int, seed: int) -> McEstimate:
    p_hat = hits / trials
    if trials > 1:
        sample_std = math.sqrt(trials / (trials - 1) * p_hat * (1.0 - p_hat))
    else:
        sample_std = 0.0
    return McEstimate(
        mean=p_hat,
        half_width_95=1.96 * sample_std / math.sqrt(trials),
        samples=trials,
        seed=seed,
    )


def mc_prob_rate_exceeds(
    cfg: NetworkConfig,
    r0_over_w1: float,
    trials: int,
    seed: int,
    region_radius: float | None = None,
) -> McEstimate:
    """Simulate P(R1 > R0) under slotted ALOHA.

    The serving transmission is conditioned on; every other device in
    the representative cluster (Poisson(n_bar) of them) and in all remote
    clusters transmits with the access probability.
    """
    if trials < 1:
        raise ConfigError("trials must be at least 1")
    if not cfg.access_p * math.log2(1.0 + cfg.theta) > r0_over_w1:
        raise InfeasibleAccessProbability(
            f"access_p * log2(1 + theta) = "
            f"{cfg.access_p * math.log2(1.0 + cfg.theta):.6g} bits/s/Hz does "
            f"not exceed R0/W1 = {r0_over_w1:.6g} bits/s/Hz"
        )
    hits = _sir_hits(cfg, trials, seed, "aloha", 0, False, region_radius)
    return _estimate(hits, trials, seed)


def mc_coverage_conditional(
    cfg: NetworkConfig,
    k: int,
    trials: int,
    seed: int,
    region_radius: float | None = None,
) -> ConditionalCoveragePair:
    """Simulate conditional D2D coverage for a cluster of exactly k devices.

    Runs two simulations from independent substreams of ``seed``: the
    exact model (serving device plus k-1 potential interferers, each
    active with probability p) and the Poisson(p*k) interferer-count
    approximation used by the analytic expression.
    """
    if k < 1:
        raise ConfigError(f"k must be at least 1, got {k}")
    if trials < 1:
        raise ConfigError("trials must be at least 1")
    seed_exact, seed_approx = (
        int(s.generate_state(1, np.uint64)[0])
        for s in np.random.SeedSequence(seed).spawn(2)
    )
    exact = _estimate(
        _sir_hits(cfg, trials, seed_exact, "binomial", k, False, region_radius),
        trials, seed_exact,
    )
    approx = _estimate(
        _sir_hits(cfg, trials, seed_approx, "poisson_pk", k, False, region_radius),
        trials, seed_approx,
    )
    return ConditionalCoveragePair(exact=exact, poisson_approx=approx)


def mc_coverage_single_link(
    cfg: NetworkConfig,
    trials: int,
    seed: int,
    region_radius: float | None = None,
) -> McEstimate:
    """Simulate D2D coverage with one always-active link per cluster.

    No intra-cluster interference; each remote cluster contributes a
    single Gaussian-displaced transmitter.
    """
    if trials < 1:
        raise ConfigError("trials must be at least 1")
    hits = _sir_hits(cfg, trials, seed, "none", 0, True, region_radius)
    return _estimate(hits, trials, seed)
