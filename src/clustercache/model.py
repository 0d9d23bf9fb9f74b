"""Domain types, Zipf popularity, and caching schemes.

The network is a Thomas cluster process: cluster centers form a planar
Poisson point process of density ``lambda_p`` and each cluster holds a
Poisson(``n_bar``) number of devices scattered around the center with an
isotropic Gaussian of standard deviation ``sigma``. Devices cache files
from a Zipf-popular catalog under a random caching policy ``b`` where
file ``i`` is held by any given device with probability ``b_i`` and the
per-device cache stores exactly ``M`` files.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InfeasibleAccessProbability

__all__ = [
    "NetworkConfig",
    "ContentLibrary",
    "CachingPolicy",
    "zipf_popularity",
    "baseline_policy",
]

# Tolerances used when validating caching policies.
_BOX_TOL = 1e-12
_BUDGET_TOL = 1e-9


def _check_count(name: str, value, least: int) -> None:
    """Reject a ``value`` that is not an integer (bools included) of at
    least ``least`` with :class:`ConfigError`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ConfigError(f"{name} must be at least {least}, got {value}")


def _poisson_weights(mu: float, first: int, floor: float) -> np.ndarray:
    """P(N = m) of N ~ Poisson(mu), mu > 0, up to a common factor, at
    m = 0, 1, ...

    By the ratio recurrence outward from the mode (weight 1), so no
    weight near the mode over- or underflows, whatever mu (the weights
    far below the mode may underflow to zero). Continued past m =
    first + 1 until a weight is at most ``floor`` times the weight at
    max(first, mode).
    """
    mode = int(mu)
    weights = [1.0]
    for m in range(mode, 0, -1):
        weights.append(weights[-1] * m / mu)
    weights.reverse()
    while (len(weights) < first + 2
           or weights[-1] > floor * weights[max(first, mode)]):
        weights.append(weights[-1] * mu / len(weights))
    return np.array(weights)


@dataclass(frozen=True)
class NetworkConfig:
    """Physical-layer and geometry parameters.

    Attributes
    ----------
    lambda_p : float
        Cluster-center density in clusters per square meter.
        (20 clusters/km^2 corresponds to 2e-5.)
    n_bar : float
        Mean number of devices per cluster.
    sigma : float
        Gaussian displacement standard deviation in meters.
    alpha : float
        Path-loss exponent; must exceed 2 for the interference
        integrals to converge.
    theta : float
        SIR threshold in linear scale (not dB).
    p_d : float
        D2D transmit power in watts.
    p_b : float
        Base-station transmit power in watts.
    w_total : float
        Total system bandwidth in Hz.
    access_p : float
        Slotted-ALOHA channel access probability.
    """

    lambda_p: float
    n_bar: float
    sigma: float
    alpha: float
    theta: float
    p_d: float
    p_b: float
    w_total: float
    access_p: float

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not self.alpha > 2:
            raise ConfigError(f"alpha must exceed 2, got {self.alpha}")
        if not 0 <= self.access_p <= 1:
            raise ConfigError(f"access_p must lie in [0, 1], got {self.access_p}")
        for name in ("theta", "sigma", "lambda_p", "n_bar", "p_d", "p_b", "w_total"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")


def _check_rate_threshold(cfg: NetworkConfig, r0_over_w1: float) -> None:
    """Reject an R0/W1 that is not finite and non-negative
    (:class:`ConfigError`) or that the ALOHA spectral efficiency
    p log2(1 + theta) does not exceed (:class:`InfeasibleAccessProbability`:
    the probability that the D2D rate exceeds R0 is then zero)."""
    if not (math.isfinite(r0_over_w1) and r0_over_w1 >= 0):
        raise ConfigError(
            f"r0_over_w1 must be finite and non-negative, got {r0_over_w1!r}")
    rate = cfg.access_p * math.log2(1.0 + cfg.theta)
    if not rate > r0_over_w1:
        raise InfeasibleAccessProbability(
            f"at theta = {cfg.theta:.6g}: access_p * log2(1 + theta) = "
            f"{rate:.6g} bits/s/Hz does not exceed R0/W1 = "
            f"{r0_over_w1:.6g} bits/s/Hz"
        )


@dataclass(frozen=True, eq=False)
class ContentLibrary:
    """Content catalog: popularity, per-file sizes, and cache capacity.

    ``popularity`` must be a probability vector sorted in non-increasing
    order (files are indexed by descending popularity). ``sizes`` holds
    per-file sizes in Mbits; energy computations consume the vector and
    delay computations consume its mean.
    """

    n_files: int
    beta: float
    cache_size: int
    popularity: np.ndarray = field(repr=False)
    sizes: np.ndarray = field(repr=False)

    def __post_init__(self):
        _check_count("n_files", self.n_files, 1)
        _check_count("cache_size", self.cache_size, 1)
        q = np.asarray(self.popularity, dtype=float)
        s = np.asarray(self.sizes, dtype=float)
        if q.shape != (self.n_files,) or s.shape != (self.n_files,):
            raise ConfigError("popularity and sizes must have length n_files")
        if not self.cache_size < self.n_files:
            raise ConfigError(
                f"cache_size must satisfy 0 < M < N_f, got M={self.cache_size}, "
                f"N_f={self.n_files}"
            )
        if not abs(q.sum() - 1.0) <= 1e-12:
            raise ConfigError(f"popularity must sum to 1, got {q.sum()!r}")
        if not np.all(q >= 0):
            raise ConfigError("popularity entries must be non-negative")
        if np.any(np.diff(q) > 1e-15):
            raise ConfigError("popularity must be non-increasing in file index")
        if not np.all((s > 0) & np.isfinite(s)):
            raise ConfigError("all file sizes must be positive and finite")
        q.setflags(write=False)
        s.setflags(write=False)
        object.__setattr__(self, "popularity", q)
        object.__setattr__(self, "sizes", s)

    @classmethod
    def zipf(
        cls,
        n_files: int,
        beta: float,
        cache_size: int,
        mean_size_mbits: float = 5.0,
    ) -> "ContentLibrary":
        """Build a library with Zipf popularity and uniform sizes."""
        return cls(
            n_files=n_files,
            beta=beta,
            cache_size=cache_size,
            popularity=zipf_popularity(n_files, beta),
            sizes=np.full(n_files, float(mean_size_mbits)),
        )

    @property
    def mean_size_mbits(self) -> float:
        """Mean file size in Mbits."""
        return float(self.sizes.mean())


@dataclass(frozen=True, eq=False)
class CachingPolicy:
    """Per-file caching probabilities ``b`` with sum equal to the cache size."""

    b: np.ndarray = field(repr=False)
    cache_size: int = 0

    def __post_init__(self):
        b = np.asarray(self.b, dtype=float)
        if b.ndim != 1 or b.size == 0:
            raise ConfigError("b must be a non-empty 1-D vector")
        if (b < -_BOX_TOL).any() or (b > 1 + _BOX_TOL).any():
            raise ConfigError("caching probabilities must lie in [0, 1]")
        b = _clip_unit(b)
        _check_count("cache_size", self.cache_size, 1)
        if abs(b.sum() - self.cache_size) > _BUDGET_TOL:
            raise ConfigError(
                f"sum(b) = {b.sum()!r} violates the cache budget M = {self.cache_size}"
            )
        b.setflags(write=False)
        object.__setattr__(self, "b", b)

    @property
    def n_files(self) -> int:
        return int(self.b.size)


def zipf_popularity(n_files: int, beta: float) -> np.ndarray:
    """Zipf popularity vector: element i proportional to (i+1)^-beta.

    Returns a length-``n_files`` probability vector; uniform when beta = 0.
    A beta so large that the least popular file's probability underflows
    to zero is a configuration error: that file, and the budget any
    caching scheme would give it, would silently drop out.
    """
    _check_count("n_files", n_files, 1)
    if not 0 <= beta < math.inf:
        raise ConfigError(f"beta must be non-negative and finite, got {beta}")
    ranks = np.arange(1, n_files + 1, dtype=float)
    weights = ranks ** (-beta)
    q = weights / weights.sum()
    if not q[-1] > 0.0:
        raise ConfigError(f"beta = {beta!r} is too large for {n_files} files: the "
                          f"popularity of file {n_files} underflows to zero")
    return q


def _capped_proportional(weights: np.ndarray, budget: int) -> np.ndarray:
    """Allocate ``budget`` over [0,1] boxes proportionally to ``weights``.

    Entries that would exceed one are pinned at one and the surplus is
    redistributed proportionally over the remaining entries, repeating
    until the allocation is feasible.
    """
    n = weights.size
    b = np.zeros(n)
    free = np.ones(n, dtype=bool)
    remaining = float(budget)
    for _ in range(n):
        total = weights[free].sum()
        if total <= 0 or remaining <= 0:
            break
        # Divided first: remaining / total overflows when the free
        # weights sum to a subnormal.
        b[free] = weights[free] / total * remaining
        over = free & (b >= 1.0)
        if not over.any():
            break
        b[over] = 1.0
        free &= ~over
        remaining = float(budget - b[~free].sum())
    return _clip_unit(b, out=b)


def baseline_policy(kind: str, library: ContentLibrary) -> CachingPolicy:
    """Reference caching schemes used as benchmarks.

    ``cpf`` caches the M most popular files deterministically.
    ``zipf-proportional`` sets b_i proportional to popularity, clipping
    at one and redistributing the clipped surplus so that sum(b) = M.
    """
    m = library.cache_size
    if kind == "cpf":
        b = np.zeros(library.n_files)
        b[:m] = 1.0
    elif kind == "zipf-proportional":
        b = _capped_proportional(library.popularity.copy(), m)
        # Redistribution leaves sum(b) = M up to float error; snap it.
        b = _snap_budget(b, m)
    else:
        raise ConfigError(f"unknown baseline kind {kind!r}")
    return CachingPolicy(b=b, cache_size=m)


def _snap_budget(b: np.ndarray, budget: int) -> np.ndarray:
    """Remove float drift in sum(b) by shifting the interior entries.

    Entries within 1e-15 of a bound count as at the bound and are left
    alone; the result is clipped to [0, 1].
    """
    gap = budget - b.sum()
    if gap != 0.0:
        interior = (b > 1e-15) & (b < 1.0 - 1e-15)
        if interior.any():
            b = b.copy()
            b[interior] += gap / interior.sum()
    return _clip_unit(b)


def _clip_unit(b: np.ndarray, out=None) -> np.ndarray:
    """``np.clip(b, 0, 1)`` to the bit, NaN and -0.0 included, without
    its Python wrapper; a new array unless ``out`` is given."""
    out = np.maximum(0.0, b, out=out)  # max(0, -0.0) is -0.0, as in clip
    return np.minimum(out, 1.0, out=out)
