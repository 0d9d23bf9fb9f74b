"""Traffic decomposition and per-cluster queueing delays.

Each cluster generates file requests as a Poisson stream of rate
``zeta_tot``. A request for file i is self-served with probability b_i,
served over D2D when another of the k cluster devices holds the file,
and served by the BS otherwise. The D2D and BS queues are M/M/1 in the
dominant system, with service rates proportional to the allocated
bandwidth.

All rates are requests per second; bandwidth in Hz; file sizes cross the
boundary in Mbits and are converted to bits here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError, UnstableQueueError
from .model import CachingPolicy, ContentLibrary, NetworkConfig
from . import stochgeo

__all__ = [
    "DelayModel",
    "arrival_rates",
    "service_rate",
    "mm1_mean_queue_length",
    "per_queue_delay",
    "service_coefficients",
    "build_delay_model",
]

# A queue is treated as unstable once its utilisation exceeds this.
_RHO_MAX = 1.0 - 1e-9


def arrival_rates(
    policy: CachingPolicy, lib: ContentLibrary, k: int, zeta_tot: float
) -> tuple[float, float, float]:
    """Split the request stream into D2D, BS, and self-cache arrivals.

    zeta_1 = zeta_tot * sum_i q_i ((1-b_i) - (1-b_i)^k)   (D2D)
    zeta_2 = zeta_tot * sum_i q_i (1-b_i)^k               (BS)
    zeta_3 = zeta_tot - zeta_1 - zeta_2                   (self-cache)
    """
    if k < 1:
        raise ConfigError(f"k must be at least 1, got {k}")
    if zeta_tot < 0:
        raise ConfigError("zeta_tot must be non-negative")
    a1, a2 = _arrival_fractions(policy.b, lib.popularity, k)
    zeta_1, zeta_2 = zeta_tot * a1, zeta_tot * a2
    return zeta_1, zeta_2, zeta_tot - zeta_1 - zeta_2


def _arrival_fractions(b, q, k: int) -> tuple[float, float]:
    """D2D and BS request fractions (a1, a2) of caching vector b."""
    miss = 1.0 - b
    miss_k = miss**k
    return max(float(q @ (miss - miss_k)), 0.0), float(q @ miss_k)


def service_rate(w: float, theta: float, coverage, s_bar_mbits: float) -> float:
    """Requests served per second: P_c * W * log2(1+theta) / mean size."""
    if s_bar_mbits <= 0:
        raise ConfigError("s_bar_mbits must be positive")
    if w < 0:
        raise ConfigError("bandwidth must be non-negative")
    return stochgeo.average_rate(w, theta, coverage) / (s_bar_mbits * 1e6)


def mm1_mean_queue_length(zeta: float, mu: float) -> float:
    """Mean number in system for an M/M/1 queue: rho / (1 - rho)."""
    rho = _utilisation(zeta, mu)
    return rho / (1.0 - rho)


def per_queue_delay(zeta: float, mu: float) -> float:
    """Mean sojourn time of a stable M/M/1 queue: 1 / (mu - zeta) seconds."""
    _utilisation(zeta, mu)
    return 1.0 / (mu - zeta)


def _utilisation(zeta: float, mu: float) -> float:
    if zeta < 0 or mu < 0:
        raise ConfigError("rates must be non-negative")
    if zeta == 0.0:
        return 0.0
    if mu == 0.0 or zeta / mu > _RHO_MAX:
        raise UnstableQueueError(queue=0, zeta=zeta, mu=mu)
    return zeta / mu


@dataclass(frozen=True)
class DelayModel:
    """Complete traffic/queueing state for one bandwidth split."""

    zeta_tot: float
    zeta_1: float
    zeta_2: float
    zeta_3: float
    mu_1: float
    mu_2: float
    rho_1: float
    rho_2: float
    w1: float
    w2: float
    stable_1: bool
    stable_2: bool
    d1: float
    d2: float
    d_weighted: float


def service_coefficients(cfg: NetworkConfig, lib: ContentLibrary) -> tuple[float, float]:
    """Per-Hz service coefficients (O1, O2) in requests/s/Hz.

    O1 uses the single-active-link D2D coverage (one D2D transmission per
    cluster in the delay model); O2 uses the nearest-BS coverage.
    """
    p_cd = stochgeo.d2d_coverage_single_link(cfg)
    p_cb = stochgeo.bs_coverage(cfg.theta, cfg.alpha)
    o1 = service_rate(1.0, cfg.theta, p_cd, lib.mean_size_mbits)
    o2 = service_rate(1.0, cfg.theta, p_cb, lib.mean_size_mbits)
    return o1, o2


def build_delay_model(
    policy: CachingPolicy,
    lib: ContentLibrary,
    cfg: NetworkConfig,
    k: int,
    zeta_tot: float,
    w1: float,
) -> DelayModel:
    """Assemble the full delay report for a policy and bandwidth split.

    Unstable queues are reported with infinite delay and the stable flags
    cleared rather than raising, so sweeps can tabulate infeasible
    operating points.
    """
    if not 0 <= w1 <= cfg.w_total:
        raise ConfigError(f"w1 must lie in [0, {cfg.w_total}], got {w1}")
    z1, z2, z3 = arrival_rates(policy, lib, k, zeta_tot)
    o1, o2 = service_coefficients(cfg, lib)
    w2 = cfg.w_total - w1
    mu1 = o1 * w1
    mu2 = o2 * w2
    rho1 = z1 / mu1 if mu1 > 0 else (0.0 if z1 == 0 else math.inf)
    rho2 = z2 / mu2 if mu2 > 0 else (0.0 if z2 == 0 else math.inf)
    stable1 = rho1 < _RHO_MAX
    stable2 = rho2 < _RHO_MAX

    def _delay(z, mu, stable):
        if not stable:
            return math.inf
        if mu == 0.0:
            return 0.0  # no queue at all (zero bandwidth, zero arrivals)
        return per_queue_delay(z, mu)

    d1 = _delay(z1, mu1, stable1)
    d2 = _delay(z2, mu2, stable2)
    if zeta_tot > 0:
        d_weighted = (z1 * d1 + z2 * d2) / zeta_tot
    else:
        d_weighted = 0.0
    return DelayModel(
        zeta_tot=zeta_tot, zeta_1=z1, zeta_2=z2, zeta_3=z3,
        mu_1=mu1, mu_2=mu2, rho_1=rho1, rho_2=rho2,
        w1=w1, w2=w2, stable_1=stable1, stable_2=stable2,
        d1=d1, d2=d2, d_weighted=d_weighted,
    )
