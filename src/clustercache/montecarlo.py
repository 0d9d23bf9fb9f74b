"""Monte Carlo simulation of the clustered D2D network.

This module is the independent oracle for every analytic coverage
quantity: it samples the Thomas cluster process directly, applies
slotted-ALOHA thinning and unit-mean exponential fading, and counts SIR
threshold crossings. Nothing here shares code with the quadrature path.

Construction per trial (typical receiver at the origin):

* the representative cluster is drawn in units of sigma: its center is
  a standard normal vector x0 from the origin and the serving device a
  standard normal vector y0 from the center, so the serving distance is
  sigma times a Rayleigh(sqrt(2)) variate;
* remote cluster centers form a Poisson process in a disk whose radius
  R is max(15*sigma, 5/sqrt(pi*lambda_p)) (631 m on Table 1).
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
  P(R1 > R0) draws that local count, the conditional coverage
  Binomial(k-1, p) (the exact model) or Poisson(p*k) (the law of the
  analytic expression), and the single link none;
* remote clusters are split by their active count: by the marking
  theorem those with exactly m active members form independent Poisson
  processes of intensity lambda_p P(N = m), N ~ Poisson(mu), which
  gives the ALOHA field its exact law. Only the clusters with m >= 2
  are drawn as clusters: their counts are one vector Poisson draw over
  the entries m >= 2 of the zero-truncated Poisson(mu) table, cut where
  its tail mass drops below 1e-17;
* a Gaussian displacement of a Poisson process of clusters with one
  transmitter each is, by the displacement theorem, again a Poisson
  process of the same intensity. So no cluster is drawn for the
  transmitters alone in their cluster: the single-link model's one
  always-active member per cluster (intensity lambda_p, which is how
  the closed form treats it) and the ALOHA clusters with exactly one
  active member (the lone transmitters, intensity lambda_p P(N = 1))
  are each a transmitter count, a trial label, a uniform-area squared
  distance and a fade. Truncated to the request's disk, such a field
  differs from the displaced members of the clusters centered in that
  disk only within a few sigma of the edge, where both truncate the
  same infinite field;
* a cell with single-link rows does not draw its lone transmitters: they
  are the first Binomial(size, P(N = 1)) points of its single-link draw.
  Label, squared distance and fade are i.i.d. per point, so that prefix
  is an independent P(N = 1)-thinning of the single-link process;
* every remote Poisson field of a cell is drawn once per batch of n
  trials: a Poisson total of n times its mean per trial and a uniform
  trial label per point; by the colouring theorem each trial's points
  form independent Poisson fields of the trial's intensity;
* the local counts come from one uniform per trial, inverted through a
  CDF table cut at the same 1e-17. The local counts of all requests
  invert the same uniform and share their members (each sums a prefix
  of the members of the largest), so the exact and Poisson conditional
  coverage simulated together differ only where their laws do;
* every cluster center lies on the +x axis: the representative one at
  |x0| (the serving device at |x0| + y0, its members at |x0| + z), each
  remote one at a uniform-area radius. The interference and the
  serving distance depend only on distances to the origin, member
  offsets are i.i.d. isotropic Gaussians and clusters are independent,
  so rotating each cluster about the origin leaves every law unchanged
  and no angle need be drawn;
* every active transmitter fades independently; a contribution is
  fade * d2**(-alpha/2) with d2 the squared distance, so no square root
  is taken. One member kernel computes every cluster interference row
  (sigma, cap): per trial, the sum over the first cap members of each
  cluster, all of them when cap is None (the remote clusters with two
  or more active members), a per-cluster count for the local counts,
  where a member counts when its rank in its cluster is below the cap.
  The representative cluster of trial t carries label t. Each row, like
  the single-link and lone-transmitter sums, is one ``np.bincount`` over
  the trial labels.

One simulation serves a list of *requests* (``ProbRateExceeds``,
``SingleLinkCoverage``, ``ConditionalCoverage``,
``PoissonConditionalCoverage``) that share alpha, access_p and n_bar
(hence mu) and may differ in kind, sigma, theta and lambda_p. Each
request has one law and gives one ``McEstimate``:

* the plane is split into annuli between the requests' distinct disk
  radii, and the density into layers between their distinct lambda_p.
  Each (annulus, layer) cell is an independent Poisson field of
  clusters of intensity the layer's width. A request takes the cells
  inside its radius and below its density; by the restriction and
  superposition theorems those cells form exactly its own remote field
  (intensity lambda_p on its own disk). A cell draws its clusters with
  two or more active members once, shared by every ALOHA request that
  takes it, and its transmitters alone in a cluster once, shared by
  every request that takes it;
* member offsets are standard normal vectors scaled by each request's
  sigma: a member of a center at distance c lies at squared distance
  (c + sigma z_x)**2 + (sigma z_y)**2, one set of offsets and fades for
  every sigma. The single-link and lone transmitters do not depend on
  sigma at all. With everything in units of sigma, SIR > theta reads
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
* the member kernel and the lone-transmitter draw keep their float draws
  and per-member scratch arrays in one workspace per simulation
  (``_Workspace``): a buffer grown by at least a factor 1.25 whenever a
  call needs more, and freed when the simulation returns. The draws and
  their order are those of fresh arrays, so the estimates are too; the
  buffer spares each call the page faults of fresh memory. Integer
  arrays (trial labels, member ranks) are fresh in each call.

Trials are processed in fixed-size batches; each batch draws its own
SFC64 generator, spawned from ``SeedSequence(seed)``, so estimates are
bit-identical for a given seed and the per-batch counts may be merged in
any order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
import numpy.random  # numpy loads it lazily: import it here, not in a run

from .errors import ConfigError
from .model import NetworkConfig, _check_count, _check_rate_threshold, _poisson_weights

__all__ = [
    "McEstimate",
    "ProbRateExceeds",
    "SingleLinkCoverage",
    "ConditionalCoverage",
    "PoissonConditionalCoverage",
    "default_region_radius",
    "simulate",
]

_BATCH = 10_000
# Tail mass below which the count tables of the inverse-CDF draws stop.
_TAIL = 1e-17
# Least factor by which the member-kernel workspace grows.
_GROWTH = 1.25


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo point estimate with its 95% half-width."""

    mean: float
    half_width_95: float
    samples: int

    def __post_init__(self):
        _check_count("samples", self.samples, 1)


class _Request:
    """What a request kind tells the engine: the kind of its remote field
    and the CDF table of its local interferer count (``local_cdf``)."""

    single_link: ClassVar[bool] = False


@dataclass(frozen=True)
class ProbRateExceeds(_Request):
    """P(R1 > R0) under slotted ALOHA.

    The serving transmission is conditioned on; every other device in the
    representative cluster (Poisson(n_bar) of them) and in all remote
    clusters transmits with the access probability.
    """

    cfg: NetworkConfig
    r0_over_w1: float

    def __post_init__(self):
        _check_rate_threshold(self.cfg, self.r0_over_w1)

    def local_cdf(self) -> np.ndarray:
        return _poisson_cdf(self.cfg.access_p * self.cfg.n_bar, 0)


@dataclass(frozen=True)
class SingleLinkCoverage(_Request):
    """D2D coverage with one always-active link per cluster.

    No intra-cluster interference; each remote cluster contributes a
    single Gaussian-displaced transmitter.
    """

    cfg: NetworkConfig
    single_link: ClassVar[bool] = True

    def local_cdf(self) -> np.ndarray:
        return np.ones(1)  # no local interferer


@dataclass(frozen=True)
class ConditionalCoverage(_Request):
    """Conditional D2D coverage for a cluster of exactly k devices, in the
    exact model: the serving device plus k-1 potential interferers, each
    active with probability p, so Binomial(k-1, p) of them interfere.
    """

    cfg: NetworkConfig
    k: int

    def __post_init__(self):
        _check_count("k", self.k, 1)

    def local_cdf(self) -> np.ndarray:
        return _binomial_cdf(self.k - 1, self.cfg.access_p)


@dataclass(frozen=True)
class PoissonConditionalCoverage(ConditionalCoverage):
    """Conditional D2D coverage for a cluster of k devices with Poisson(p*k)
    interferers, the law of ``stochgeo.d2d_coverage_conditional``.

    Simulated together with the ``ConditionalCoverage`` of the same k, the
    two estimates share their draws, so their gap measures the Poisson
    approximation with little noise.
    """

    def local_cdf(self) -> np.ndarray:
        return _poisson_cdf(self.cfg.access_p * self.k, 0)


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
    # The weights left out are below _TAIL**2 of the mode's (or of
    # first's), far below any tail entry kept.
    weights = _poisson_weights(mu, first, _TAIL * _TAIL)
    at_least = np.cumsum(weights[::-1])[::-1]  # P(N >= m), same factor
    tail = at_least[first + 1:] / at_least[first]
    return 1.0 - tail[:np.argmax(tail < _TAIL) + 1]


def _binomial_cdf(n: int, p: float) -> np.ndarray:
    """CDF of Binomial(n, p) at 0, 1, ..., n; the last entry is 1.0."""
    # Probabilities up to a common factor, outward from the mode as
    # model._poisson_weights builds them.
    mode = min(n, int((n + 1) * p))
    weights = [1.0]
    for j in range(mode, 0, -1):
        weights.append(weights[-1] * j * (1.0 - p) / ((n - j + 1) * p))
    weights.reverse()
    for j in range(mode, n):
        weights.append(weights[-1] * (n - j) * p / ((j + 1) * (1.0 - p)))
    cdf = np.cumsum(weights)
    return cdf / cdf[-1]


class _Workspace:
    """The scratch memory of one simulation, which every member-kernel call
    in it reuses. It grows by at least a factor ``_GROWTH`` when a call
    needs more, so calls whose sizes creep up by a fraction of a percent
    do not each fault in a fresh buffer."""

    def __init__(self):
        self._buffer = np.empty(0)

    def take(self, size: int) -> np.ndarray:
        """An uninitialised float array of ``size`` entries."""
        if self._buffer.size < size:
            grown = max(size, int(_GROWTH * self._buffer.size))
            self._buffer = None  # freed before its successor is allocated
            self._buffer = np.empty(grown)
        return self._buffer[:size]


def _member_interference(rng, alpha: float, n: int, label: np.ndarray,
                         cx: np.ndarray, active: np.ndarray, rows,
                         *, work: _Workspace) -> np.ndarray:
    """Interference of cluster members in each of ``n`` trials, one row per
    (scale, cap) in ``rows``.

    Cluster j belongs to trial ``label[j]``, has its center at ``cx[j]``
    on the +x axis and ``active[j]`` members. Each member lies s times a
    standard normal vector from its center and fades independently with
    unit mean. Row (s, cap) sums fade * (d/s)**-alpha, s**alpha times the
    unit-power interference, over the first ``cap`` members of each
    cluster: all of them when cap is None (the remote clusters), else
    cap is a per-cluster int array (the local counts). Every row shares
    the offsets and fades, drawn into ``work`` with the masked weights.
    """
    owner = np.repeat(label, active)
    size = owner.size
    if any(cap is not None for _, cap in rows):
        rank = np.arange(size) - np.repeat(np.cumsum(active) - active, active)
    buffer = work.take(5 * size)
    z = rng.standard_normal(out=buffer[:2 * size].reshape(2, size))
    fade = rng.standard_exponential(out=buffer[2 * size:3 * size])
    # In place: allocating fresh arrays of a batch's size costs about a
    # third of the kernel.
    d2, masked = buffer[3 * size:4 * size], buffer[4 * size:]
    y2 = np.square(z[1], out=z[1])
    cx = np.repeat(cx, active)
    out = np.empty((len(rows), n))
    for scale in sorted({scale for scale, _ in rows}):
        np.divide(cx, scale, out=d2)
        d2 += z[0]
        d2 *= d2
        d2 += y2
        np.power(d2, -0.5 * alpha, out=d2)
        d2 *= fade
        for row, (s, cap) in zip(out, rows):
            if s == scale:
                weights = d2 if cap is None else np.multiply(
                    d2, rank < np.repeat(cap, active), out=masked)
                row[:] = np.bincount(owner, weights, minlength=n)
    return out


def _active_law(mu: float) -> np.ndarray:
    """P(N = m) for m = 1, 2, ... of N ~ Poisson(mu): the zero-truncated
    table's probabilities times P(N > 0), cut where it is. Entry 0 is the
    share of the lone transmitters, the rest that of the clusters the
    member kernel draws."""
    return -math.expm1(-mu) * np.diff(_poisson_cdf(mu, 1), prepend=0.0)


def _remote_interference(rng, n: int, alpha: float, active_law: np.ndarray,
                         annulus: tuple, layer: tuple, rows,
                         *, work: _Workspace) -> np.ndarray:
    """Interference from the remote transmitters of one cell in each of
    ``n`` trials, one row per (sigma, cap) in ``rows``, in units of its
    sigma: cap None is an ALOHA field, cap 1 a single link (one
    transmitter per cluster).

    The cell holds the clusters with centers in the ``annulus`` (inner,
    outer) radii and density in the ``layer`` (low, high) of lambda_p.
    Each of its fields is drawn once for the batch, as a total and trial
    labels (module docstring). Its clusters with m >= 2 active members,
    centered on the +x axis, at the rate of ``active_law[m - 1]``, are
    drawn only for the ALOHA rows, once for all of them. Transmitters
    alone in their cluster are, by the displacement theorem, a Poisson
    process on the annulus, drawn once whatever sigma: at the layer's
    intensity when the cell has single-link rows, which sum all of it,
    and at ``active_law[0]`` of it otherwise. The ALOHA rows take a
    Binomial(size, active_law[0]) prefix of that draw (all of it when
    the cell has no single-link row); its points are i.i.d., so the
    prefix is an independent thinning. Each row adds sigma**alpha times
    the sum over the points it takes.
    """
    inner, outer = annulus
    rate = (layer[1] - layer[0]) * math.pi * (outer**2 - inner**2)
    out = np.empty((len(rows), n))
    aloha = [i for i, (_, cap) in enumerate(rows) if cap is None]
    links = [i for i, (_, cap) in enumerate(rows) if cap == 1]
    if aloha:
        counts = rng.poisson(n * rate * active_law[1:])
        active = np.repeat(np.arange(2, counts.size + 2), counts)
        cx = np.sqrt(inner**2 + (outer**2 - inner**2) * rng.random(active.size))
        label = rng.integers(0, n, active.size)
        out[aloha] = _member_interference(rng, alpha, n, label, cx, active,
                                          [rows[i] for i in aloha], work=work)
    # The lone transmitters, after the kernel: both use the workspace.
    # Squared distances uniform in area on the annulus, in m**2.
    lone_share = active_law[0]
    size = int(rng.poisson(n * rate * (1.0 if links else lone_share)))
    label = rng.integers(0, n, size)
    buffer = work.take(2 * size)
    d2 = rng.random(out=buffer[:size])
    d2 *= outer**2 - inner**2
    d2 += inner**2
    np.power(d2, -0.5 * alpha, out=d2)
    d2 *= rng.standard_exponential(out=buffer[size:])
    if links:
        field = np.bincount(label, d2, minlength=n)
        for i in links:
            np.multiply(field, rows[i][0] ** alpha, out=out[i])
    if aloha:
        kept = int(rng.binomial(size, lone_share)) if links else size
        field = np.bincount(label[:kept], d2[:kept], minlength=n)
        for i in aloha:
            out[i] += rows[i][0] ** alpha * field
    return out


def _local_counts(rng, cdfs: tuple, n: int) -> np.ndarray:
    """Active interferers in the representative cluster, one row per CDF
    table in ``cdfs``.

    Every row inverts its table at the same uniform per trial, so the
    rows are coupled: they differ only where their laws do.
    """
    u = rng.random(n)
    return np.array([np.searchsorted(cdf, u, side="right") for cdf in cdfs])


def _cells(fields: list) -> list:
    """The annulus x density-layer cells that some remote field takes.

    ``fields`` holds distinct (single_link, sigma, radius, lambda_p)
    keys. Annuli lie between consecutive distinct radii and layers
    between consecutive distinct densities; a field takes every cell
    inside its radius and below its density. Each cell is (annulus,
    layer, rows, users, picks): ``rows`` are the distinct (sigma, cap)
    rows of ``_remote_interference`` its fields need, cap None for an
    ALOHA field (its clusters and lone transmitters serve every such row)
    and cap 1 for a single link (its one Poisson draw serves every such
    row), and
    field ``users[i]`` takes row ``picks[i]``. Cells no field takes are
    left out.
    """
    radii = sorted({radius for _, _, radius, _ in fields})
    levels = sorted({density for _, _, _, density in fields})
    cells = []
    for annulus in zip([0.0] + radii, radii):
        for layer in zip([0.0] + levels, levels):
            users = [i for i, (_, _, radius, density) in enumerate(fields)
                     if radius >= annulus[1] and density >= layer[1]]
            if users:
                wanted = [(fields[i][1], 1 if fields[i][0] else None)
                          for i in users]
                rows = list(dict.fromkeys(wanted))
                cells.append((annulus, layer, rows, users,
                              [rows.index(row) for row in wanted]))
    return cells


def _sir_hits(requests: tuple, trials: int, seed: int) -> list:
    """Covered-trial counts of each request, on one network draw shared by
    all ``requests``.

    The serving link and the representative cluster are drawn once per
    trial in units of sigma and shared by every request; the local
    fields of all requests share their members (common random numbers).
    Each request's remote field is the sum of the cells it takes (module
    docstring), drawn and scored one cell at a time.
    """
    cfg0 = requests[0].cfg
    alpha, active_law = cfg0.alpha, _active_law(cfg0.access_p * cfg0.n_bar)
    # A request's remote field depends on its kind and (sigma, radius,
    # lambda_p) only.
    keys = [(r.single_link, r.cfg.sigma, default_region_radius(r.cfg),
             r.cfg.lambda_p) for r in requests]
    fields = sorted(set(keys))
    field_of = [fields.index(key) for key in keys]
    cells = _cells(fields)
    # Equal tables (the same law) share one row of local counts.
    tables = {}
    table_of = [tables.setdefault(cdf.tobytes(), (len(tables), cdf))[0]
                for cdf in (r.local_cdf() for r in requests)]
    cdfs = tuple(cdf for _, cdf in tables.values())
    n_batches = (trials + _BATCH - 1) // _BATCH
    hits = [0] * len(requests)
    work = _Workspace()
    done = 0
    for rng in _batch_generators(seed, n_batches):
        n = min(_BATCH, trials - done)
        done += n
        x0 = rng.standard_normal((n, 2))
        y0 = rng.standard_normal((n, 2))
        center = np.hypot(x0[:, 0], x0[:, 1])  # x0 rotated onto the +x axis
        serve_d2 = (center + y0[:, 0]) ** 2 + y0[:, 1] ** 2
        counts = _local_counts(rng, cdfs, n)
        local = _member_interference(
            rng, alpha, n, np.arange(n), center, counts.max(axis=0),
            [(1.0, count) for count in counts], work=work)
        remote = np.zeros((len(fields), n))
        for annulus, layer, rows, users, picks in cells:
            remote[users] += _remote_interference(rng, n, alpha, active_law,
                                                  annulus, layer, rows,
                                                  work=work)[picks]
        signal = rng.standard_exponential(n) * serve_d2 ** (-0.5 * alpha)
        for i, (request, f, row) in enumerate(zip(requests, field_of,
                                                  table_of)):
            # SIR > theta, written multiplicatively so empty interferer
            # sets (interference == 0) count as covered without dividing
            # by zero.
            hits[i] += int(np.count_nonzero(
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


def simulate(requests, trials: int, seed: int) -> list:
    """Simulate every request on one network draw; one ``McEstimate`` per
    request, in order.

    The requests must share alpha, access_p and n_bar; their kind, sigma,
    theta and lambda_p may differ (module docstring). Each request's
    remote clusters fill the disk of ``default_region_radius``. The
    estimates share their draws, so two requests that differ only in
    their law (``ConditionalCoverage`` and ``PoissonConditionalCoverage``
    of one k) differ only where their laws do.
    """
    requests = tuple(requests)
    if not requests:
        raise ConfigError("simulate needs at least one request")
    _check_count("trials", trials, 1)
    _check_count("seed", seed, 0)
    for name in ("alpha", "access_p", "n_bar"):
        values = {getattr(r.cfg, name) for r in requests}
        if len(values) > 1:
            raise ConfigError(
                f"the requests must share {name}, got {sorted(values)}")
    return [_estimate(hits, trials)
            for hits in _sir_hits(requests, trials, seed)]
