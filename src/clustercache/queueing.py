"""Traffic decomposition and per-Hz service coefficients
(``service_coefficients``) of the per-cluster queues.

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

import math

import numpy as np

from .model import ContentLibrary, NetworkConfig
from . import stochgeo

__all__ = [
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


def _segment_fractions(b, s, q, k: int, evaluations: int):
    """gamma -> (a1, a2) of b + gamma (s - b), for gamma in [0, 1].

    With u = 1 - b, v = 1 - s and h = 1 - gamma, file i misses with
    probability h u_i + gamma v_i, so both fractions are degree-k
    Bernstein polynomials in gamma:

        a2 = sum_j C(k, j) h^(k-j) gamma^j B_j,  B_j = q . (u^(k-j) v^j),
        a1 = sum_j C(k, j) h^(k-j) gamma^j A_j,
        A_j = q . (((k-j) u + j v)/k - u^(k-j) v^j).

    Every A_j and B_j is >= 0 (weighted AM-GM on [0, 1]), so no sum
    cancels. A_j is formed file by file, not as a1 = linear part - a2, so
    at k = 1, where a1 = 0, every term is exactly 0 and no rounding
    residue reaches the delay as a D2D load. The 2(k+1) moments cost
    k + 1 passes over the library and each evaluation then costs O(k):
    Horner in gamma/h for gamma <= 1/2 and in h/gamma above, so no power
    overflows. That pays for a caller making ``evaluations`` calls only
    when k + 1 <= evaluations; otherwise each call is
    ``_arrival_fractions`` at b + gamma (s - b).
    """
    if k + 1 > evaluations:
        return lambda gamma: _arrival_fractions(b + gamma * (s - b), q, k)
    u, v = 1.0 - b, 1.0 - s
    j = np.arange(k + 1)[:, None]
    power = u ** (k - j) * v**j
    linear = ((k - j) * u + j * v) / k
    binomial = np.array([math.comb(k, i) for i in range(k + 1)], dtype=float)
    moments = list(zip((binomial * ((linear - power) @ q)).tolist(),
                       (binomial * (power @ q)).tolist()))
    descending = moments[::-1]  # the coefficients of gamma^k first

    def fractions(gamma):
        h = 1.0 - gamma
        if gamma <= 0.5:
            t, scale, coefficients = gamma / h, h**k, descending
        else:
            t, scale, coefficients = h / gamma, gamma**k, moments
        a1 = a2 = 0.0
        for c1, c2 in coefficients:
            a1 = a1 * t + c1
            a2 = a2 * t + c2
        return max(scale * a1, 0.0), scale * a2

    return fractions


def service_coefficients(cfg: NetworkConfig, lib: ContentLibrary) -> tuple[float, float]:
    """Per-Hz service coefficients (O1, O2) in requests/s/Hz: each is
    P_c log2(1 + theta) over the mean file size in bits.

    O1 uses the single-active-link D2D coverage (one D2D transmission per
    cluster in the delay model); O2 uses the nearest-BS coverage.
    """
    p_cd = stochgeo.d2d_coverage_single_link(cfg)
    p_cb = stochgeo.bs_coverage(cfg.theta, cfg.alpha)
    bits = lib.mean_size_mbits * 1e6
    return (stochgeo.average_rate(1.0, cfg.theta, p_cd) / bits,
            stochgeo.average_rate(1.0, cfg.theta, p_cb) / bits)

