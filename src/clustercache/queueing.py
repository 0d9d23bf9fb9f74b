"""Traffic decomposition and service rates of the per-cluster queues.

Each cluster generates file requests as a Poisson stream of rate
``zeta_tot``. A request for file i is self-served with probability b_i,
served over D2D when another of the k cluster devices holds the file,
and served by the BS otherwise. The D2D and BS queues are M/M/1 in the
dominant system, with service rates proportional to the allocated
bandwidth; their weighted delay is ``optimize.weighted_delay``.

All rates are requests per second; bandwidth in Hz; file sizes cross the
boundary in Mbits and are converted to bits here.
"""

from __future__ import annotations

from .errors import ConfigError
from .model import ContentLibrary, NetworkConfig
from . import stochgeo

__all__ = [
    "service_rate",
    "service_coefficients",
]


def _arrival_fractions(b, q, k: int) -> tuple[float, float]:
    """D2D and BS request fractions (a1, a2) of caching vector b.

    a1 = sum_i q_i ((1-b_i) - (1-b_i)^k)   (D2D)
    a2 = sum_i q_i (1-b_i)^k               (BS)

    and 1 - a1 - a2 is self-served; zeta_tot a_i is the arrival rate of
    queue i.
    """
    miss = 1.0 - b
    miss_k = miss**k
    return max(float(q @ (miss - miss_k)), 0.0), float(q @ miss_k)


def service_rate(w: float, theta: float, coverage: stochgeo.CoverageResult,
                 s_bar_mbits: float) -> float:
    """Requests served per second: P_c * W * log2(1+theta) / mean size."""
    if s_bar_mbits <= 0:
        raise ConfigError("s_bar_mbits must be positive")
    if w < 0:
        raise ConfigError("bandwidth must be non-negative")
    return stochgeo.average_rate(w, theta, coverage) / (s_bar_mbits * 1e6)


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

