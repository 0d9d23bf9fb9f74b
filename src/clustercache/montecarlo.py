"""Monte Carlo simulation of the clustered D2D network.

This module is the independent oracle for every analytic coverage
quantity: it samples the Thomas cluster process directly, applies
slotted-ALOHA thinning and unit-mean exponential fading, and counts SIR
threshold crossings. Nothing here shares code with the quadrature path.

Construction per trial (typical receiver at the origin):

* the representative cluster is drawn in units of sigma: its center is
  a standard normal vector from the origin and the serving device a
  standard normal vector from the center, so the serving distance is
  sigma times a Rayleigh(sqrt(2)) variate;
* remote cluster centers form a Poisson process in a disk whose radius
  R defaults to max(15*sigma, 5/sqrt(pi*lambda_p)) (631 m on Table 1).
  Leaving out the clusters beyond R biases every coverage estimate
  upward, by at most theta E[r**alpha] 2 pi lambda_p mu R**(2-alpha) /
  (alpha-2) with mu = p*n_bar (E[r**4] = 32 sigma**4 at alpha = 4). The
  bias is within noise at sigma = 10 m but not at sigma = 30 m, theta =
  3 dB: with 4e5 trials and seed 11, P(R1 > R0) read 0.62699 at 631 m
  against 0.62482 at 4 km, about 2.8 standard errors (the bound gives
  4.1e-3). ROADMAP.md ("Monte Carlo without truncation bias") plans its
  removal;
* only active transmitters are drawn. Poisson(n_bar) members that each
  transmit independently with the ALOHA probability p are, by the
  thinning theorem, Poisson(mu) active members with mu = p*n_bar.
  P(R1 > R0) draws that local count, the conditional coverage both
  Binomial(k-1, p) and Poisson(p*k), and the single link none;
* only remote clusters with an active member are drawn. By the marking
  theorem they form a Poisson process of intensity
  lambda_p*(1 - exp(-mu)), and each holds a zero-truncated Poisson(mu)
  number of active members, so the active field has exactly the law of
  the full one. The single-link model draws every remote cluster, each
  with its one always-active member;
* counts other than the cluster counts come from one uniform each,
  inverted through a CDF table cut where its tail mass drops below
  1e-17. The exact and approximate local counts of the conditional
  coverage invert the same uniform and share their members (the smaller
  count takes a prefix of the larger), so the two models differ only
  where their laws do;
* each remote center is drawn at a uniform-area radius on the +x axis.
  The interference at the origin depends only on the members'
  distances, member offsets are i.i.d. isotropic Gaussians and clusters
  are independent, so rotating each remote cluster about the origin
  leaves the law of the interference unchanged and the angle need not
  be drawn;
* every active transmitter fades independently; a contribution is
  fade * d2**(-alpha/2) with d2 the squared distance, so no square root
  is taken.

One simulation serves a *family* of points that share alpha, access_p
and n_bar (hence mu) and may differ in sigma, theta and lambda_p:

* the plane is split into annuli between the points' distinct disk
  radii, and the density into layers between their distinct lambda_p.
  Each (annulus, layer) cell is an independent Poisson field of active
  clusters, of intensity the layer's width times (1 - exp(-mu)) (the
  width alone for the single link). A
  point takes the cells inside its radius and below its density; by the
  restriction and superposition theorems those cells form exactly its
  own remote field (intensity lambda_p on its own disk);
* member offsets are standard normal vectors scaled by each point's
  sigma: a member of a center at distance c lies at squared distance
  (c + sigma z_x)**2 + (sigma z_y)**2, one set of offsets and fades for
  every sigma. With everything in units of sigma, SIR > theta reads
  s1 > theta (L1 + sigma**alpha I_remote(sigma)), where s1 and L1 are
  the representative cluster's signal and interference in units of
  sigma. Their law depends on alpha and mu alone, so the representative
  cluster is drawn once for the whole family;
* each point's estimate therefore has exactly the law it has as a
  one-point family; only the correlation between the points' estimates,
  which share their draws, is new;
* cells are drawn and scored one at a time and then freed, so a family
  holds one cell's members at a time plus one batch-length field per
  distinct (sigma, radius, lambda_p).

Trials are processed in fixed-size batches; each batch draws its own
SFC64 generator, spawned from ``SeedSequence(seed)``, so estimates are
bit-identical for a given seed and the per-batch counts may be merged in
any order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.random  # numpy loads it lazily: import it here, not in a run

from .errors import ConfigError, InfeasibleAccessProbability
from .model import NetworkConfig

__all__ = [
    "McEstimate",
    "ConditionalCoveragePair",
    "default_region_radius",
    "mc_prob_rate_exceeds_points",
    "mc_coverage_conditional",
    "mc_coverage_single_link_points",
]

_BATCH = 10_000
# Tail mass below which the count tables of the inverse-CDF draws stop.
_TAIL = 1e-17


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
    """Simulation disk radius max(15 sigma, 5/sqrt(pi lambda_p)).

    The truncation bias this leaves is not always negligible; the module
    docstring gives its bound and a measured case (2.8 standard errors at
    sigma = 30 m, theta = 3 dB, 4e5 trials).
    """
    return max(15.0 * cfg.sigma, 5.0 / math.sqrt(math.pi * cfg.lambda_p))


def _batch_generators(seed: int, n_batches: int):
    return [
        np.random.Generator(np.random.SFC64(child))
        for child in np.random.SeedSequence(seed).spawn(n_batches)
    ]


def _poisson_cdf(mu: float, first: int) -> np.ndarray:
    """CDF of Poisson(mu) conditioned on at least ``first`` events.

    Evaluated at first, first + 1, ... and cut where the tail mass left
    out drops below ``_TAIL``, so the last entry is 1.0. ``first`` = 1
    gives the zero-truncated law; at mu = 0 the count is ``first``.
    Each tail is summed directly from the probabilities (1 - cdf could
    not resolve the cut).
    """
    if mu == 0.0:
        return np.ones(1)
    # Probabilities up to a common factor, by the ratio recurrence outward
    # from the mode (weight 1), so none near the mode over- or underflows;
    # continued until the weights left out are below _TAIL**2 of the mode's
    # (or of first's), far below any tail entry kept.
    mode = int(mu)
    weights = [1.0]
    for m in range(mode, 0, -1):
        weights.append(weights[-1] * m / mu)
    weights.reverse()
    while (len(weights) < first + 2
           or weights[-1] > _TAIL * _TAIL * weights[max(first, mode)]):
        weights.append(weights[-1] * mu / len(weights))
    at_least = np.cumsum(weights[::-1])[::-1]  # P(N >= m), same factor
    tail = at_least[first + 1:] / at_least[first]
    return 1.0 - tail[:np.argmax(tail < _TAIL) + 1]


def _binomial_cdf(n: int, p: float) -> np.ndarray:
    """CDF of Binomial(n, p) at 0, 1, ..., n; the last entry is 1.0."""
    # Probabilities up to a common factor, outward from the mode as above.
    mode = min(n, int((n + 1) * p))
    weights = [1.0]
    for j in range(mode, 0, -1):
        weights.append(weights[-1] * j * (1.0 - p) / ((n - j + 1) * p))
    weights.reverse()
    for j in range(mode, n):
        weights.append(weights[-1] * (n - j) * p / ((j + 1) * (1.0 - p)))
    cdf = np.cumsum(weights)
    return cdf / cdf[-1]


def _member_interference(rng, alpha: float, owner: np.ndarray,
                         cx: np.ndarray, cy: np.ndarray | None,
                         active: np.ndarray | None, n: int,
                         scales) -> np.ndarray:
    """Interference of the active cluster members, per trial, one row per
    offset scale s in ``scales``, in units of s.

    Cluster j belongs to trial ``owner[j]``, has its center at
    (``cx[j]``, ``cy[j]``) (on the x axis when ``cy`` is None) and
    ``active[j]`` active members (exactly one when ``active`` is None).
    Each member lies s times a standard normal vector from its center and
    fades independently with unit mean; row s sums fade * (d/s)**-alpha,
    which is s**alpha times the unit-power interference. Every row shares
    the offsets and fades.
    """
    if active is not None:
        owner, cx = np.repeat(owner, active), np.repeat(cx, active)
        cy = None if cy is None else np.repeat(cy, active)
    z = rng.standard_normal((2, owner.size))
    fade = rng.standard_exponential(owner.size)
    # In place: allocating fresh arrays of a batch's size costs about a
    # third of the kernel.
    d2, y2 = np.empty(owner.size), np.empty(owner.size)
    if cy is None:
        np.square(z[1], out=y2)
    fields = np.empty((len(scales), n))
    for field, scale in zip(fields, scales):
        if cy is not None:
            np.divide(cy, scale, out=y2)
            y2 += z[1]
            y2 *= y2
        np.divide(cx, scale, out=d2)
        d2 += z[0]
        d2 *= d2
        d2 += y2
        np.power(d2, -0.5 * alpha, out=d2)
        d2 *= fade
        field[:] = np.bincount(owner, weights=d2, minlength=n)
    return fields


def _remote_interference(rng, n: int, alpha: float, mu: float,
                         single_link: bool, annulus: tuple, layer: tuple,
                         sigmas) -> np.ndarray:
    """Interference from the remote clusters of one cell, per trial, one
    row per sigma in ``sigmas``, in units of that sigma.

    The cell holds the clusters with centers in the ``annulus`` (inner,
    outer) radii and density in the ``layer`` (low, high) of lambda_p.
    Only clusters with an active member are drawn (single link: every
    cluster, with its one member). Centers lie on the +x axis; the module
    docstring explains why both leave the law of the interference
    unchanged.
    """
    inner, outer = annulus
    rate = (layer[1] - layer[0]) * math.pi * (outer**2 - inner**2)
    if not single_link:
        rate *= -math.expm1(-mu)
    owner = np.repeat(np.arange(n), rng.poisson(rate, n))
    cx = np.sqrt(inner**2 + (outer**2 - inner**2) * rng.random(owner.size))
    active = None
    if not single_link:
        u = rng.random(owner.size)
        active = 1 + np.searchsorted(_poisson_cdf(mu, 1), u, side="right")
    return _member_interference(rng, alpha, owner, cx, None, active, n, sigmas)


def _local_counts(rng, cdfs: tuple, n: int) -> np.ndarray:
    """Active interferers in the representative cluster, one row per CDF
    table in ``cdfs``.

    Every row inverts its table at the same uniform per trial, so the
    rows are coupled: they differ only where their laws do.
    """
    u = rng.random(n)
    return np.array([np.searchsorted(cdf, u, side="right") for cdf in cdfs])


def _local_interference(rng, alpha: float, centers: np.ndarray,
                        counts: np.ndarray) -> np.ndarray:
    """Unit-power interference from the representative cluster, in units
    of sigma, one row per row of ``counts``.

    ``centers`` is the cluster center of each trial in units of sigma.
    The rows share their members: row i sums the first ``counts[i]``
    members of each trial. Members are drawn in layers between
    consecutive sorted counts, and each row takes the layers up to its
    own count.
    """
    n = centers.shape[0]
    fields = np.zeros(counts.shape)
    below = np.zeros(n, dtype=counts.dtype)
    for level in np.sort(counts, axis=0):
        (layer,) = _member_interference(rng, alpha, np.arange(n), centers[:, 0],
                                        centers[:, 1], level - below, n, (1.0,))
        fields += np.where(counts >= level, layer, 0.0)
        below = level
    return fields


def _cells(fields: list) -> list:
    """The annulus x density-layer cells that some remote field takes.

    ``fields`` holds distinct (sigma, radius, lambda_p) triples. Annuli
    lie between consecutive distinct radii and layers between consecutive
    distinct densities; a field takes every cell inside its radius and
    below its density. Each cell is (annulus, layer, sigmas, users,
    rows): ``sigmas`` are the distinct sigmas of the fields in ``users``,
    and field ``users[i]`` takes row ``rows[i]`` of the cell's
    interference. Cells no field takes are left out.
    """
    radii = sorted({radius for _, radius, _ in fields})
    levels = sorted({density for _, _, density in fields})
    cells = []
    for annulus in zip([0.0] + radii, radii):
        for layer in zip([0.0] + levels, levels):
            users = [i for i, (_, radius, density) in enumerate(fields)
                     if radius >= annulus[1] and density >= layer[1]]
            if users:
                sigmas = sorted({fields[i][0] for i in users})
                rows = [sigmas.index(fields[i][0]) for i in users]
                cells.append((annulus, layer, sigmas, users, rows))
    return cells


def _family(points, trials: int) -> tuple:
    """The points as a tuple, checked to form one family."""
    points = tuple(points)
    if not points:
        raise ConfigError("a family needs at least one point")
    if trials < 1:
        raise ConfigError("trials must be at least 1")
    for name in ("alpha", "access_p", "n_bar"):
        values = {getattr(cfg, name) for cfg in points}
        if len(values) > 1:
            raise ConfigError(
                f"the points of a family must share {name}, got {sorted(values)}")
    return points


def _sir_hits(points: tuple, trials: int, seed: int, local_cdfs: tuple,
              single_link: bool, region_radius: float | None) -> list:
    """Covered-trial counts ``hits[i][j]`` of point i with local-count CDF
    table j, on one network draw shared by the family ``points``.

    The serving link and the representative cluster are drawn once per
    trial in units of sigma and shared by every point; the tables' local
    fields share their members (common random numbers). Each point's
    remote field is the sum of the cells it takes (module docstring),
    drawn and scored one cell at a time.
    """
    alpha = points[0].alpha
    mu = points[0].access_p * points[0].n_bar
    # A point's remote field depends on its (sigma, radius, lambda_p) only.
    keys = [(cfg.sigma,
             region_radius if region_radius is not None else default_region_radius(cfg),
             cfg.lambda_p) for cfg in points]
    fields = sorted(set(keys))
    field_of = [fields.index(key) for key in keys]
    cells = _cells(fields)
    n_batches = (trials + _BATCH - 1) // _BATCH
    hits = [[0] * len(local_cdfs) for _ in points]
    done = 0
    for rng in _batch_generators(seed, n_batches):
        n = min(_BATCH, trials - done)
        done += n
        x0 = rng.standard_normal((n, 2))
        y0 = rng.standard_normal((n, 2))
        serve_d2 = np.square(x0 + y0).sum(axis=1)
        counts = _local_counts(rng, local_cdfs, n)
        local = _local_interference(rng, alpha, x0, counts)
        remote = np.zeros((len(fields), n))
        for annulus, layer, sigmas, users, rows in cells:
            remote[users] += _remote_interference(
                rng, n, alpha, mu, single_link, annulus, layer, sigmas)[rows]
        signal = rng.standard_exponential(n) * serve_d2 ** (-0.5 * alpha)
        for point_hits, cfg, f in zip(hits, points, field_of):
            for j, field in enumerate(local):
                # SIR > theta, written multiplicatively so empty interferer
                # sets (interference == 0) count as covered without
                # dividing by zero.
                point_hits[j] += int(np.count_nonzero(
                    signal > cfg.theta * (field + remote[f])))
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


def mc_prob_rate_exceeds_points(
    points,
    r0_over_w1: float,
    trials: int,
    seed: int,
    region_radius: float | None = None,
) -> list:
    """Simulate P(R1 > R0) under slotted ALOHA at every point of a family,
    on one network draw; one ``McEstimate`` per point.

    The points must share alpha, access_p and n_bar; sigma, theta and
    lambda_p may differ (module docstring). The serving transmission is
    conditioned on; every other device in the representative cluster
    (Poisson(n_bar) of them) and in all remote clusters transmits with
    the access probability.
    """
    points = _family(points, trials)
    for cfg in points:
        rate = cfg.access_p * math.log2(1.0 + cfg.theta)
        if not rate > r0_over_w1:
            raise InfeasibleAccessProbability(
                f"at theta = {cfg.theta:.6g}: access_p * log2(1 + theta) = "
                f"{rate:.6g} bits/s/Hz does not exceed R0/W1 = "
                f"{r0_over_w1:.6g} bits/s/Hz"
            )
    local = _poisson_cdf(points[0].access_p * points[0].n_bar, 0)
    hits = _sir_hits(points, trials, seed, (local,), False, region_radius)
    return [_estimate(h, trials, seed) for (h,) in hits]


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
    points = _family((cfg,), trials)
    p = cfg.access_p
    local = (_binomial_cdf(k - 1, p), _poisson_cdf(p * k, 0))
    ((hits_exact, hits_approx),) = _sir_hits(points, trials, seed, local,
                                             False, region_radius)
    exact = _estimate(hits_exact, trials, seed)
    approx = _estimate(hits_approx, trials, seed)
    return ConditionalCoveragePair(exact=exact, poisson_approx=approx)


def mc_coverage_single_link_points(
    points,
    trials: int,
    seed: int,
    region_radius: float | None = None,
) -> list:
    """Simulate D2D coverage with one always-active link per cluster at
    every point of a family, on one network draw; one ``McEstimate`` per
    point.

    The points must share alpha, access_p and n_bar; sigma, theta and
    lambda_p may differ (module docstring). No intra-cluster
    interference; each remote cluster contributes a single
    Gaussian-displaced transmitter.
    """
    points = _family(points, trials)
    hits = _sir_hits(points, trials, seed, (np.ones(1),), True, region_radius)
    return [_estimate(h, trials, seed) for (h,) in hits]
