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
* remote clusters are split by the marking theorem into active ones
  (with at least one active member) and silent ones, two independent
  Poisson processes of intensities lambda_p*(1 - exp(-mu)) and
  lambda_p*exp(-mu). An active cluster holds a zero-truncated
  Poisson(mu) number of active members, so the active clusters alone
  give the ALOHA field its exact law. The single-link model gives every
  cluster one always-active member: it takes the first member of each
  active cluster and one member of each silent cluster, which together
  form exactly its field of intensity lambda_p;
* counts other than the cluster counts come from one uniform each,
  inverted through a CDF table cut where its tail mass drops below
  1e-17. The local counts of all requests invert the same uniform and
  share their members (a smaller count takes a prefix of a larger), so
  the exact and approximate conditional coverage differ only where
  their laws do;
* each remote center is drawn at a uniform-area radius on the +x axis.
  The interference at the origin depends only on the members'
  distances, member offsets are i.i.d. isotropic Gaussians and clusters
  are independent, so rotating each remote cluster about the origin
  leaves the law of the interference unchanged and the angle need not
  be drawn;
* every active transmitter fades independently; a contribution is
  fade * d2**(-alpha/2) with d2 the squared distance, so no square root
  is taken. Members are stored in trial order and each trial's
  contributions are summed by one ``np.add.reduceat`` per sigma.

One simulation serves a list of *requests* (``ProbRateExceeds``,
``SingleLinkCoverage``, ``ConditionalCoverage``) that share alpha,
access_p and n_bar (hence mu) and may differ in kind, sigma, theta and
lambda_p:

* the plane is split into annuli between the requests' distinct disk
  radii, and the density into layers between their distinct lambda_p.
  Each (annulus, layer) cell is an independent Poisson field of
  clusters of intensity the layer's width. A request takes the cells
  inside its radius and below its density; by the restriction and
  superposition theorems those cells form exactly its own remote field
  (intensity lambda_p on its own disk). A cell draws its active
  clusters once for every request that takes it, and its silent
  clusters only if a single-link request does;
* member offsets are standard normal vectors scaled by each request's
  sigma: a member of a center at distance c lies at squared distance
  (c + sigma z_x)**2 + (sigma z_y)**2, one set of offsets and fades for
  every sigma. With everything in units of sigma, SIR > theta reads
  s1 > theta (L1 + sigma**alpha I_remote(sigma)), where s1 and L1 are
  the representative cluster's signal and interference in units of
  sigma. Their law depends on alpha and mu alone, so the representative
  cluster is drawn once for all requests;
* each request's estimate therefore has exactly the law it has when
  simulated alone; only the correlation between the estimates, which
  share their draws, is new;
* cells are drawn and scored one at a time and then freed, so a
  simulation holds one cell's members at a time plus one batch-length
  field per distinct (kind, sigma, radius, lambda_p);
* the member kernel draws its offsets and fades, and keeps its
  per-member scratch arrays, in one workspace per simulation
  (``_Workspace``): a buffer grown to exactly the largest call so far
  and freed when the simulation returns. The draws and their order are
  those of fresh arrays, so the estimates are too; the buffer spares
  each call the page faults of fresh memory.

Trials are processed in fixed-size batches; each batch draws its own
SFC64 generator, spawned from ``SeedSequence(seed)``, so estimates are
bit-identical for a given seed and the per-batch counts may be merged in
any order.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
import numpy.random  # numpy loads it lazily: import it here, not in a run

from .errors import ConfigError, InfeasibleAccessProbability
from .model import NetworkConfig, _check_count

__all__ = [
    "McEstimate",
    "ConditionalCoveragePair",
    "ProbRateExceeds",
    "SingleLinkCoverage",
    "ConditionalCoverage",
    "default_region_radius",
    "simulate",
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


class _Request:
    """What a request kind tells the engine: the kind of its remote field,
    its local-count CDF tables (``local_cdfs``) and how its covered-trial
    counts, one per table, become its result (one ``McEstimate`` here)."""

    single_link: ClassVar[bool] = False

    def result(self, hits: list, trials: int):
        (covered,) = hits
        return _estimate(covered, trials)


@dataclass(frozen=True)
class ProbRateExceeds(_Request):
    """P(R1 > R0) under slotted ALOHA; simulates to one ``McEstimate``.

    The serving transmission is conditioned on; every other device in the
    representative cluster (Poisson(n_bar) of them) and in all remote
    clusters transmits with the access probability.
    """

    cfg: NetworkConfig
    r0_over_w1: float

    def __post_init__(self):
        cfg = self.cfg
        if not math.isfinite(self.r0_over_w1):
            raise ConfigError(f"r0_over_w1 must be finite, got {self.r0_over_w1!r}")
        rate = cfg.access_p * math.log2(1.0 + cfg.theta)
        if not rate > self.r0_over_w1:
            raise InfeasibleAccessProbability(
                f"at theta = {cfg.theta:.6g}: access_p * log2(1 + theta) = "
                f"{rate:.6g} bits/s/Hz does not exceed R0/W1 = "
                f"{self.r0_over_w1:.6g} bits/s/Hz"
            )

    def local_cdfs(self) -> tuple:
        return (_poisson_cdf(self.cfg.access_p * self.cfg.n_bar, 0),)


@dataclass(frozen=True)
class SingleLinkCoverage(_Request):
    """D2D coverage with one always-active link per cluster; simulates to
    one ``McEstimate``.

    No intra-cluster interference; each remote cluster contributes a
    single Gaussian-displaced transmitter.
    """

    cfg: NetworkConfig
    single_link: ClassVar[bool] = True

    def local_cdfs(self) -> tuple:
        return (np.ones(1),)  # no local interferer


@dataclass(frozen=True)
class ConditionalCoverage(_Request):
    """Conditional D2D coverage for a cluster of exactly k devices;
    simulates to a ``ConditionalCoveragePair``.

    Estimates, on the same serving links and remote clusters, the exact
    model (serving device plus k-1 potential interferers, each active
    with probability p) and the Poisson(p*k) interferer-count
    approximation used by the analytic expression.
    """

    cfg: NetworkConfig
    k: int

    def __post_init__(self):
        _check_count("k", self.k, 1)

    def local_cdfs(self) -> tuple:
        p = self.cfg.access_p
        return (_binomial_cdf(self.k - 1, p), _poisson_cdf(p * self.k, 0))

    def result(self, hits: list, trials: int) -> ConditionalCoveragePair:
        exact, approx = hits
        return ConditionalCoveragePair(exact=_estimate(exact, trials),
                                       poisson_approx=_estimate(approx, trials))


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


def _bounds(counts: np.ndarray) -> np.ndarray:
    """Offsets 0, c0, c0 + c1, ... of items stored in the order of
    ``counts``: item group i is [bounds[i], bounds[i + 1])."""
    bounds = np.zeros(counts.size + 1, dtype=np.intp)
    np.cumsum(counts, out=bounds[1:])
    return bounds


def _trial_sums(values: np.ndarray, bounds: np.ndarray, out: np.ndarray) -> None:
    """``out[t]`` = sum of values[bounds[t]:bounds[t + 1]].

    ``values`` ends in a zero past bounds[-1], so every start is an index
    for ``np.add.reduceat``; it returns the item at the start of an empty
    group, which is set to 0 here.
    """
    starts = bounds[:-1]
    np.add.reduceat(values, starts, out=out)
    out[starts == bounds[1:]] = 0.0


class _Workspace:
    """The scratch memory of one simulation, which every member-kernel call
    in it reuses: a buffer as large as the largest call so far, and no
    larger, so that peak memory does not grow."""

    def __init__(self):
        self._buffer = np.empty(0)

    def take(self, size: int) -> np.ndarray:
        """An uninitialised float array of ``size`` entries."""
        if self._buffer.size < size:
            self._buffer = None  # freed before its successor is allocated
            self._buffer = np.empty(size)
        return self._buffer[:size]


def _member_interference(rng, alpha: float, clusters: np.ndarray,
                         cx: np.ndarray, cy: np.ndarray | None,
                         active: np.ndarray | None, scales,
                         first_scales=(), *, work: _Workspace) -> tuple:
    """Interference of cluster members, per trial, in units of each scale.

    Trial t holds ``clusters[t]`` clusters, stored in trial order:
    cluster j has its center at (``cx[j]``, ``cy[j]``) (on the x axis
    when ``cy`` is None) and ``active[j]`` active members (exactly one
    when ``active`` is None). Each member lies s times a standard normal
    vector from its center and fades independently with unit mean; a row
    at scale s sums fade * (d/s)**-alpha, which is s**alpha times the
    unit-power interference. Returns (rows, first_rows): ``rows[i]`` sums
    every member at s = ``scales[i]``, ``first_rows[i]`` only the first
    member of each cluster at s = ``first_scales[i]`` (every cluster must
    then hold a member). Every row shares the offsets and fades, which
    are drawn into ``work`` with the sums' scratch arrays.
    """
    n = clusters.size
    trials = _bounds(clusters)
    first = None  # member index of each cluster's first member
    members = trials
    if active is not None:
        first = _bounds(active)
        members = first[trials]
        cx = np.repeat(cx, active)
        cy = None if cy is None else np.repeat(cy, active)
    size = cx.size
    buffer = work.take(5 * size + 1)
    z = rng.standard_normal(out=buffer[:2 * size].reshape(2, size))
    fade = rng.standard_exponential(out=buffer[2 * size:3 * size])
    # In place: allocating fresh arrays of a batch's size costs about a
    # third of the kernel. The zero past the members ends every sum.
    values = buffer[3 * size:4 * size + 1]
    values[size] = 0.0
    d2, y2 = values[:size], buffer[4 * size + 1:]
    if cy is None:
        np.square(z[1], out=y2)
    rows = np.empty((len(scales), n))
    first_rows = np.empty((len(first_scales), n))
    for scale in sorted({*scales, *first_scales}):
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
        if scale in scales:
            _trial_sums(values, members, rows[scales.index(scale)])
        if scale in first_scales:
            _trial_sums(values if first is None else values[first], trials,
                        first_rows[first_scales.index(scale)])
    return rows, first_rows


def _disk_radii(rng, inner: float, outer: float, size: int) -> np.ndarray:
    """Uniform-area radii between ``inner`` and ``outer``."""
    return np.sqrt(inner**2 + (outer**2 - inner**2) * rng.random(size))


def _remote_interference(rng, n: int, alpha: float, mu: float, annulus: tuple,
                         layer: tuple, sigmas, link_sigmas, *,
                         work: _Workspace) -> tuple:
    """Interference from the remote clusters of one cell, per trial, in
    units of each sigma: (ALOHA rows at ``sigmas``, single-link rows at
    ``link_sigmas``).

    The cell holds the clusters with centers in the ``annulus`` (inner,
    outer) radii and density in the ``layer`` (low, high) of lambda_p.
    Its active clusters are drawn once for both kinds; the single link
    takes their first members and the cell's silent clusters, drawn only
    when ``link_sigmas`` is not empty. Centers lie on the +x axis; the
    module docstring explains why both leave every law unchanged.
    """
    inner, outer = annulus
    rate = (layer[1] - layer[0]) * math.pi * (outer**2 - inner**2)
    clusters = rng.poisson(rate * -math.expm1(-mu), n)
    cx = _disk_radii(rng, inner, outer, int(clusters.sum()))
    active = None  # the single link alone needs no member counts
    if sigmas:
        u = rng.random(cx.size)
        active = 1 + np.searchsorted(_poisson_cdf(mu, 1), u, side="right")
    rows, links = _member_interference(rng, alpha, clusters, cx, None, active,
                                       sigmas, link_sigmas, work=work)
    if link_sigmas:
        silent = rng.poisson(rate * math.exp(-mu), n)
        cx = _disk_radii(rng, inner, outer, int(silent.sum()))
        links += _member_interference(rng, alpha, silent, cx, None, None,
                                      link_sigmas, work=work)[0]
    return rows, links


def _local_counts(rng, cdfs: tuple, n: int) -> np.ndarray:
    """Active interferers in the representative cluster, one row per CDF
    table in ``cdfs``.

    Every row inverts its table at the same uniform per trial, so the
    rows are coupled: they differ only where their laws do.
    """
    u = rng.random(n)
    return np.array([np.searchsorted(cdf, u, side="right") for cdf in cdfs])


def _local_interference(rng, alpha: float, centers: np.ndarray,
                        counts: np.ndarray, *, work: _Workspace) -> np.ndarray:
    """Unit-power interference from the representative cluster, in units
    of sigma, one row per row of ``counts``.

    ``centers`` is the cluster center of each trial in units of sigma.
    The rows share their members: row i sums the first ``counts[i]``
    members of each trial. Members are drawn in layers between
    consecutive sorted counts, and each row takes the layers up to its
    own count.
    """
    n = centers.shape[0]
    one = np.ones(n, dtype=np.intp)
    fields = np.zeros(counts.shape)
    below = np.zeros(n, dtype=counts.dtype)
    for level in np.sort(counts, axis=0):
        ((layer,), _) = _member_interference(rng, alpha, one, centers[:, 0],
                                             centers[:, 1], level - below, (1.0,),
                                             work=work)
        fields += np.where(counts >= level, layer, 0.0)
        below = level
    return fields


def _kind_rows(fields: list, users: list) -> tuple:
    """(sigmas, users, rows): the distinct sigmas of the fields in
    ``users``, and the row of ``sigmas`` each of them takes."""
    sigmas = sorted({fields[i][1] for i in users})
    return sigmas, users, [sigmas.index(fields[i][1]) for i in users]


def _cells(fields: list) -> list:
    """The annulus x density-layer cells that some remote field takes.

    ``fields`` holds distinct (single_link, sigma, radius, lambda_p)
    keys. Annuli lie between consecutive distinct radii and layers
    between consecutive distinct densities; a field takes every cell
    inside its radius and below its density. Each cell is (annulus,
    layer, (aloha, link)), where each kind is (sigmas, users, rows) from
    ``_kind_rows``: field ``users[i]`` takes row ``rows[i]`` of that
    kind's interference. Cells no field takes are left out.
    """
    radii = sorted({radius for _, _, radius, _ in fields})
    levels = sorted({density for _, _, _, density in fields})
    cells = []
    for annulus in zip([0.0] + radii, radii):
        for layer in zip([0.0] + levels, levels):
            users = [i for i, (_, _, radius, density) in enumerate(fields)
                     if radius >= annulus[1] and density >= layer[1]]
            if users:
                kinds = tuple(
                    _kind_rows(fields, [i for i in users if fields[i][0] == link])
                    for link in (False, True))
                cells.append((annulus, layer, kinds))
    return cells


def _sir_hits(requests: tuple, trials: int, seed: int,
              region_radius: float | None) -> list:
    """Covered-trial counts ``hits[i][j]`` of request i with its local-count
    CDF table j, on one network draw shared by all ``requests``.

    The serving link and the representative cluster are drawn once per
    trial in units of sigma and shared by every request; the local
    fields of all tables share their members (common random numbers).
    Each request's remote field is the sum of the cells it takes (module
    docstring), drawn and scored one cell at a time.
    """
    cfg0 = requests[0].cfg
    alpha, mu = cfg0.alpha, cfg0.access_p * cfg0.n_bar
    # A request's remote field depends on its kind and (sigma, radius,
    # lambda_p) only.
    keys = [(r.single_link, r.cfg.sigma,
             region_radius if region_radius is not None
             else default_region_radius(r.cfg),
             r.cfg.lambda_p) for r in requests]
    fields = sorted(set(keys))
    field_of = [fields.index(key) for key in keys]
    cells = _cells(fields)
    # Equal tables (the same law) share one row of local counts.
    tables = {}
    table_of = [[tables.setdefault(cdf.tobytes(), (len(tables), cdf))[0]
                 for cdf in r.local_cdfs()] for r in requests]
    cdfs = tuple(cdf for _, cdf in tables.values())
    n_batches = (trials + _BATCH - 1) // _BATCH
    hits = [[0] * len(rows) for rows in table_of]
    work = _Workspace()
    done = 0
    for rng in _batch_generators(seed, n_batches):
        n = min(_BATCH, trials - done)
        done += n
        x0 = rng.standard_normal((n, 2))
        y0 = rng.standard_normal((n, 2))
        serve_d2 = np.square(x0 + y0).sum(axis=1)
        local = _local_interference(rng, alpha, x0, _local_counts(rng, cdfs, n),
                                    work=work)
        remote = np.zeros((len(fields), n))
        for annulus, layer, kinds in cells:
            drawn = _remote_interference(rng, n, alpha, mu, annulus, layer,
                                         kinds[0][0], kinds[1][0], work=work)
            for (_, users, rows), field in zip(kinds, drawn):
                remote[users] += field[rows]
        signal = rng.standard_exponential(n) * serve_d2 ** (-0.5 * alpha)
        for request_hits, request, f, rows in zip(hits, requests, field_of,
                                                  table_of):
            for j, row in enumerate(rows):
                # SIR > theta, written multiplicatively so empty interferer
                # sets (interference == 0) count as covered without
                # dividing by zero.
                request_hits[j] += int(np.count_nonzero(
                    signal > request.cfg.theta * (local[row] + remote[f])))
    return hits


def _estimate(hits: int, trials: int) -> McEstimate:
    p_hat = hits / trials
    if trials > 1:
        sample_std = math.sqrt(trials / (trials - 1) * p_hat * (1.0 - p_hat))
    else:
        sample_std = 0.0
    return McEstimate(
        mean=p_hat,
        half_width_95=1.96 * sample_std / math.sqrt(trials),
        samples=trials,
    )


def simulate(requests, trials: int, seed: int,
             region_radius: float | None = None) -> list:
    """Simulate every request on one network draw; one result per request,
    in order (an ``McEstimate``, or a ``ConditionalCoveragePair`` for a
    ``ConditionalCoverage``).

    The requests must share alpha, access_p and n_bar; their kind, sigma,
    theta and lambda_p may differ (module docstring). ``region_radius``
    replaces every request's default simulation disk radius.
    """
    requests = tuple(requests)
    if not requests:
        raise ConfigError("simulate needs at least one request")
    _check_count("trials", trials, 1)
    _check_count("seed", seed, 0)
    if region_radius is not None and not (
            isinstance(region_radius, numbers.Real)
            and math.isfinite(region_radius) and region_radius > 0):
        raise ConfigError(
            f"region_radius must be a finite positive number, got {region_radius!r}")
    for name in ("alpha", "access_p", "n_bar"):
        values = {getattr(r.cfg, name) for r in requests}
        if len(values) > 1:
            raise ConfigError(
                f"the requests must share {name}, got {sorted(values)}")
    hits = _sir_hits(requests, trials, seed, region_radius)
    return [r.result(h, trials) for r, h in zip(requests, hits)]
