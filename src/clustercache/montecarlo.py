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
* only active transmitters are drawn. Poisson(n_bar) members that each
  transmit independently with the ALOHA probability p are, by the
  thinning theorem, Poisson(p*n_bar) active members, so remote clusters
  and the ``aloha`` local mode draw Poisson(p*n_bar) active members per
  cluster, the ``binomial`` local mode Binomial(k-1, p) and the
  ``poisson_pk`` mode Poisson(p*k); the single-link model has exactly
  one active member per remote cluster;
* each remote center is drawn at radius R*sqrt(U) on the +x axis. The
  interference at the origin depends only on the members' distances,
  member offsets are i.i.d. isotropic Gaussians and clusters are
  independent, so rotating each remote cluster about the origin leaves
  the law of the interference unchanged and the angle need not be drawn;
* every active transmitter fades independently; a contribution is
  fade * d2**(-alpha/2) with d2 the squared distance, so no square root
  is taken.

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
    "ConditionalCoveragePair",
    "default_region_radius",
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


def default_region_radius(cfg: NetworkConfig) -> float:
    """Simulation disk radius keeping truncation bias negligible."""
    return max(15.0 * cfg.sigma, 5.0 / math.sqrt(math.pi * cfg.lambda_p))


def _batch_generators(seed: int, n_batches: int):
    return [
        np.random.Generator(np.random.Philox(child))
        for child in np.random.SeedSequence(seed).spawn(n_batches)
    ]


def _member_interference(rng, cfg: NetworkConfig, owner: np.ndarray,
                         cx: np.ndarray, cy: np.ndarray | None,
                         active: np.ndarray, n: int) -> np.ndarray:
    """Unit-power interference of the active cluster members, per trial.

    Cluster j belongs to trial ``owner[j]``, has its center at
    (``cx[j]``, ``cy[j]``) (on the x axis when ``cy`` is None) and
    ``active[j]`` active members, each Gaussian-displaced from the
    center with independent unit-mean exponential fading.
    """
    cluster = np.repeat(np.arange(active.size), active)
    offsets = rng.normal(0.0, cfg.sigma, (2, cluster.size))
    x = cx[cluster] + offsets[0]
    y = offsets[1] if cy is None else cy[cluster] + offsets[1]
    d2 = x * x + y * y
    contrib = rng.exponential(1.0, cluster.size) * d2 ** (-0.5 * cfg.alpha)
    return np.bincount(owner[cluster], weights=contrib, minlength=n)


def _remote_interference(rng, cfg: NetworkConfig, n: int, radius: float,
                         single_link: bool) -> np.ndarray:
    """Unit-power interference from all remote clusters, per trial.

    Centers lie on the +x axis; the module docstring explains why that
    leaves the law of the interference unchanged.
    """
    counts = rng.poisson(cfg.lambda_p * math.pi * radius**2, n)
    owner = np.repeat(np.arange(n), counts)
    cx = radius * np.sqrt(rng.random(owner.size))
    if single_link:
        active = np.ones(owner.size, dtype=np.int64)
    else:
        active = rng.poisson(cfg.access_p * cfg.n_bar, owner.size)
    return _member_interference(rng, cfg, owner, cx, None, active, n)


def _local_interference(rng, cfg: NetworkConfig, centers: np.ndarray,
                        mode: str, k: int) -> np.ndarray:
    """Unit-power interference from the representative cluster, per trial."""
    n = centers.shape[0]
    if mode == "none":
        return np.zeros(n)
    if mode == "aloha":
        active = rng.poisson(cfg.access_p * cfg.n_bar, n)
    elif mode == "binomial":
        active = rng.binomial(k - 1, cfg.access_p, n)
    elif mode == "poisson_pk":
        active = rng.poisson(cfg.access_p * k, n)
    else:
        raise ConfigError(f"unknown intra-cluster mode {mode!r}")
    return _member_interference(rng, cfg, np.arange(n), centers[:, 0],
                                centers[:, 1], active, n)


def _sir_hits(cfg: NetworkConfig, trials: int, seed: int, intra_modes: tuple,
              k: int, single_link: bool, region_radius: float | None) -> list:
    """Covered-trial counts, one per intra-cluster mode in ``intra_modes``.

    The serving link and the remote field are drawn once per trial and
    shared by every mode (common random numbers). A batch draws them
    around the first mode's local field, in the order used for one mode
    alone, and the other modes' local fields last.
    """
    radius = region_radius if region_radius is not None else default_region_radius(cfg)
    n_batches = (trials + _BATCH - 1) // _BATCH
    hits = [0] * len(intra_modes)
    done = 0
    for rng in _batch_generators(seed, n_batches):
        n = min(_BATCH, trials - done)
        done += n
        x0 = rng.normal(0.0, cfg.sigma, (n, 2))
        y0 = rng.normal(0.0, cfg.sigma, (n, 2))
        serve_d2 = np.square(x0 + y0).sum(axis=1)
        local = [_local_interference(rng, cfg, x0, intra_modes[0], k)]
        remote = _remote_interference(rng, cfg, n, radius, single_link)
        fade0 = rng.exponential(1.0, n)
        signal = fade0 * serve_d2 ** (-0.5 * cfg.alpha)
        local += [_local_interference(rng, cfg, x0, mode, k) for mode in intra_modes[1:]]
        for i, field in enumerate(local):
            # SIR > theta, written multiplicatively so empty interferer sets
            # (interference == 0) count as covered without dividing by zero.
            hits[i] += int(np.count_nonzero(signal > cfg.theta * (field + remote)))
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
    (hits,) = _sir_hits(cfg, trials, seed, ("aloha",), 0, False, region_radius)
    return _estimate(hits, trials, seed)


def mc_coverage_conditional(
    cfg: NetworkConfig,
    k: int,
    trials: int,
    seed: int,
    region_radius: float | None = None,
) -> ConditionalCoveragePair:
    """Simulate conditional D2D coverage for a cluster of exactly k devices.

    Estimates, on the same serving links and remote clusters, the exact
    model (serving device plus k-1 potential interferers, each active
    with probability p) and the Poisson(p*k) interferer-count
    approximation used by the analytic expression.
    """
    if k < 1:
        raise ConfigError(f"k must be at least 1, got {k}")
    if trials < 1:
        raise ConfigError("trials must be at least 1")
    hits_exact, hits_approx = _sir_hits(
        cfg, trials, seed, ("binomial", "poisson_pk"), k, False, region_radius
    )
    exact = _estimate(hits_exact, trials, seed)
    approx = _estimate(hits_approx, trials, seed)
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
    (hits,) = _sir_hits(cfg, trials, seed, ("none",), 0, True, region_radius)
    return _estimate(hits, trials, seed)
