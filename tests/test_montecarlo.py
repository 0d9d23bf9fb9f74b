"""Simulator self-checks and analytic-vs-simulation agreement at unit scale.

The full 1e5-trial agreement grid lives in the acceptance suite; here the
simulator's own statistics (cluster counts, center radii, thinned
active counts, lone transmitters, offsets, the remote Laplace functional,
determinism, truncation, the cells a family of points shares) are
verified and the agreement is spot-checked at 2e4 trials.
"""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import special, stats
from scipy.integrate import quad

from clustercache import montecarlo
from clustercache.errors import ConfigError, InfeasibleAccessProbability
from clustercache.montecarlo import (
    _active_law,
    _binomial_cdf,
    _local_counts,
    _member_interference,
    _poisson_cdf,
    _remote_interference,
    ConditionalCoverage,
    McEstimate,
    PoissonConditionalCoverage,
    ProbRateExceeds,
    SingleLinkCoverage,
    default_region_radius,
    simulate,
)
from clustercache.stochgeo import (
    d2d_coverage_conditional,
    d2d_coverage_single_link,
    prob_rate_exceeds,
    serving_distance_pdf,
)

from laplace_oracle import laplace_inter


def _philox(seed):
    return np.random.Generator(np.random.Philox(seed))


def _rate_exceeds(points, r0_over_w1, trials, seed):
    return simulate([ProbRateExceeds(cfg, r0_over_w1) for cfg in points],
                    trials, seed)


def _single_link(points, trials, seed):
    return simulate([SingleLinkCoverage(cfg) for cfg in points], trials, seed)


def _conditional(cfg, k, trials, seed):
    """The exact and the Poisson(p k) conditional coverage, simulated in one
    call so that they share their draws."""
    return simulate([ConditionalCoverage(cfg, k),
                     PoissonConditionalCoverage(cfg, k)], trials, seed)


class _RecordingRng:
    """Forwards to a generator (a Philox one when given a seed) and keeps a
    copy of every array it returns (the kernel works on its draws in
    place)."""

    def __init__(self, source):
        self._rng = (source if isinstance(source, np.random.Generator)
                     else _philox(source))
        self.draws = {}

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def record(*args, **kwargs):
            out = method(*args, **kwargs)
            self.draws.setdefault(name, []).append(np.copy(out))
            return out

        return record


@pytest.fixture()
def kernel_calls(monkeypatch):
    """Arguments the samplers hand to the member kernel and its rows, one
    dict per call."""
    calls = []
    real = montecarlo._member_interference

    def spy(rng, alpha, n, label, cx, active, rows, *, work):
        out = real(rng, alpha, n, label, cx, active, rows, work=work)
        calls.append(dict(n=n, label=label, cx=cx, active=active, rows=rows,
                          out=out))
        return out

    monkeypatch.setattr(montecarlo, "_member_interference", spy)
    return calls


def _per_trial(call):
    """Clusters per trial of one kernel call, from their trial labels."""
    return np.bincount(call["label"], minlength=call["n"])


def _is_local(rows):
    """Whether kernel ``rows`` are the representative cluster's: only its
    rows cap each cluster by an array (the local counts)."""
    return any(np.ndim(cap) for _, cap in rows)


def _remote(rng, cfg, n, radius, single_link):
    """One point's remote field in units of its sigma: a single cell, its
    whole disk at its whole density."""
    (field,) = _remote_interference(
        rng, n, cfg.alpha, _active_law(cfg.access_p * cfg.n_bar), (0.0, radius),
        (0.0, cfg.lambda_p), [(cfg.sigma, 1 if single_link else None)],
        work=montecarlo._Workspace())
    return field


def _lone(rng, annulus):
    """The lone transmitters the ALOHA rows of one ``_remote_interference``
    call take, from the draws a ``_RecordingRng`` handed to it: their
    trial labels, squared distances in m**2 and fades. They are the
    Binomial prefix of the cell's last Poisson draw when the cell has
    single-link rows, and all of it otherwise."""
    label, u, fade = (rng.draws[name][-1] for name in
                      ("integers", "random", "standard_exponential"))
    kept = int(rng.draws["binomial"][0]) if "binomial" in rng.draws else label.size
    inner, outer = annulus
    d2 = inner**2 + (outer**2 - inner**2) * u
    return label[:kept], d2[:kept], fade[:kept]


def _lone_share(mu):
    """P(N = 1) and P(N >= 2) of N ~ Poisson(mu)."""
    return mu * math.exp(-mu), -math.expm1(-mu) - mu * math.exp(-mu)


def _contributions(rng, cx, active, scale, alpha):
    """Each member's fade * (d/scale)**-alpha, from the offsets and fades a
    ``_RecordingRng`` handed to one kernel call."""
    (normals,), (fade,) = rng.draws["standard_normal"], rng.draws["standard_exponential"]
    d2 = (np.repeat(cx, active) / scale + normals[0]) ** 2 + normals[1] ** 2
    return fade * d2 ** (-alpha / 2)


def _ranks(active):
    """Each member's place in its cluster, 0 for the first."""
    return np.arange(active.sum()) - np.repeat(np.cumsum(active) - active, active)


def _assert_moments(samples, mean, var, fourth_cumulant):
    # Sample mean and variance both within four standard errors; the
    # variance of the sample variance is (kappa_4 + 2 var^2)/n.
    n = samples.size
    assert samples.mean() == pytest.approx(mean, abs=4 * math.sqrt(var / n))
    assert samples.var(ddof=1) == pytest.approx(
        var, abs=4 * math.sqrt((fourth_cumulant + 2 * var**2) / n))


def _assert_poisson_counts(counts, mean):
    # Every cumulant of Poisson(mean) equals mean.
    _assert_moments(counts, mean, mean, mean)


def _assert_chi2_fit(samples, probs):
    """Pearson's chi-square test of the integer ``samples`` against the law
    P(X = j) = probs[j], neighbouring values pooled until each bin
    expects at least 5 samples; the p-value must exceed 0.001."""
    expected = samples.size * np.asarray(probs)
    observed = np.bincount(samples, minlength=expected.size)
    assert observed.size == expected.size  # no sample outside the law
    edges, mass = [0], 0.0
    for j, e in enumerate(expected):
        mass += e
        if mass >= 5:
            edges.append(j + 1)
            mass = 0.0
    edges[-1] = expected.size  # the remainder joins the last bin
    assert stats.chisquare(np.add.reduceat(observed, edges[:-1]),
                           np.add.reduceat(expected, edges[:-1])).pvalue > 0.001


def _poisson_law(mean, first=0):
    """P(X = j), j = 0..mean + 20 sqrt(mean) + 20, of Poisson(mean)
    conditioned on X >= ``first``; the last entry holds the tail."""
    top = int(mean + 20 * math.sqrt(mean) + 20)
    probs = stats.poisson.pmf(np.arange(top + 1), mean)
    probs[-1] += stats.poisson.sf(top, mean)
    probs[:first] = 0.0
    return probs / probs.sum()


def _poisson_raw_moments(mu):
    # E[N^j], j = 1..4, of N ~ Poisson(mu).
    return (mu, mu + mu**2, mu**3 + 3 * mu**2 + mu,
            mu**4 + 6 * mu**3 + 7 * mu**2 + mu)


def _assert_at_least_two(active, mu):
    """The active counts of the kernel's remote clusters fit Poisson(mu)
    conditioned on N >= 2, by moments and chi-square."""
    one, at_least_two = _lone_share(mu)
    # Raw moments of the truncated law are the Poisson ones less the N = 1
    # term (P(N = 1) for every power), over P(N >= 2); kappa_4 from the
    # first four of them.
    e1, e2, e3, e4 = ((m - one) / at_least_two for m in _poisson_raw_moments(mu))
    kappa4 = e4 - 4 * e3 * e1 - 3 * e2**2 + 12 * e2 * e1**2 - 6 * e1**4
    assert active.min() >= 2
    _assert_moments(active, e1, e2 - e1**2, kappa4)
    _assert_chi2_fit(active, _poisson_law(mu, first=2))


class TestMemberKernel:
    def test_remote_cluster_counts_are_poisson(self, table1_cfg, kernel_calls):
        # The kernel draws only clusters with two or more active members:
        # by the marking theorem they form a Poisson process of intensity
        # lambda_p P(N >= 2), N ~ Poisson(p n_bar). Drawn for the whole
        # batch and labelled with uniform trials, each trial's count is
        # Poisson.
        cfg = table1_cfg
        radius = default_region_radius(cfg)
        area = cfg.lambda_p * math.pi * radius**2
        _, at_least_two = _lone_share(cfg.access_p * cfg.n_bar)
        _remote(_philox(1), cfg, 20000, radius, False)
        (clustered,) = kernel_calls
        counts = _per_trial(clustered)
        _assert_poisson_counts(counts, area * at_least_two)
        _assert_chi2_fit(counts, _poisson_law(area * at_least_two))

    def test_remote_center_radii_are_uniform_in_disk(self, table1_cfg,
                                                     kernel_calls):
        # Centers on the +x axis at radius R sqrt(U): (cx/R)^2 is U(0, 1).
        cfg = table1_cfg
        radius = default_region_radius(cfg)
        _remote(_philox(2), cfg, 4000, radius, False)
        (call,) = kernel_calls
        assert call["rows"] == [(cfg.sigma, None)]
        assert call["cx"].min() >= 0.0 and call["cx"].max() <= radius
        ks = stats.kstest((call["cx"] / radius) ** 2, "uniform")
        assert ks.pvalue > 0.01

    def test_remote_active_counts_are_thinned(self, table1_cfg, kernel_calls):
        # A cluster of the kernel holds a Poisson(p n_bar) number of active
        # members conditioned on at least two.
        cfg = table1_cfg
        _remote(_philox(3), cfg, 4000, default_region_radius(cfg), False)
        (thinned,) = kernel_calls
        _assert_at_least_two(thinned["active"], cfg.access_p * cfg.n_bar)

    def test_remote_total_active_count_matches_untruncated_field(
            self, table1_cfg, kernel_calls):
        # Summed over a trial, the kernel's members and the lone
        # transmitters are compound Poisson with rate lambda_p pi R^2 and
        # Poisson(p n_bar) marks, exactly as if every cluster were drawn:
        # cumulants kappa_j = rate E[N^j].
        cfg = table1_cfg
        radius = default_region_radius(cfg)
        area = cfg.lambda_p * math.pi * radius**2
        n = 20000
        rng = _RecordingRng(9)
        _remote(rng, cfg, n, radius, False)
        (call,) = kernel_calls
        lone, _, _ = _lone(rng, (0.0, radius))
        total = (np.bincount(call["label"], weights=call["active"], minlength=n)
                 + np.bincount(lone, minlength=n))
        m1, m2, _, m4 = _poisson_raw_moments(cfg.access_p * cfg.n_bar)
        _assert_moments(total, area * m1, area * m2, area * m4)

    @pytest.mark.parametrize("mode, k", [("aloha", 0), ("binomial", 9),
                                         ("poisson_pk", 9)])
    def test_local_active_counts(self, table1_cfg, kernel_calls, mode, k):
        # The representative cluster is one cluster per trial, centered at
        # |x0| on the +x axis in units of sigma (|x0|**2 is exponential
        # with mean 2), holding the largest local count of its trial; each
        # table's row (at scale 1) caps it at that table's count.
        cfg = table1_cfg
        n = 50000
        p = cfg.access_p
        simulate([ProbRateExceeds(cfg, 0.1)] if mode == "aloha"
                 else [ConditionalCoverage(cfg, k),
                       PoissonConditionalCoverage(cfg, k)], n, seed=4)
        calls = [call for call in kernel_calls if _is_local(call["rows"])]
        assert all(scale == 1.0 for call in calls for scale, _ in call["rows"])
        caps = np.concatenate([[cap for _, cap in call["rows"]] for call in calls],
                              axis=1)
        assert np.array_equal(np.concatenate([c["active"] for c in calls]),
                              caps.max(axis=0))
        assert all(np.array_equal(c["label"], np.arange(c["n"])) for c in calls)
        assert sum(c["n"] for c in calls) == n
        centers = np.concatenate([call["cx"] for call in calls])
        assert centers.min() >= 0.0
        assert stats.kstest(centers**2, "expon", args=(0, 2)).pvalue > 0.01
        active = caps[1] if mode == "poisson_pk" else caps[0]
        if mode == "aloha":
            _assert_poisson_counts(active, p * cfg.n_bar)
        elif mode == "poisson_pk":
            _assert_poisson_counts(active, p * k)
        else:
            # Binomial(k-1, p): bounded by k-1, with the binomial variance.
            assert active.max() <= k - 1
            mean, var = p * (k - 1), p * (1 - p) * (k - 1)
            assert active.mean() == pytest.approx(mean, abs=4 * math.sqrt(var / n))
            assert active.var(ddof=1) == pytest.approx(var, rel=0.05)

    def test_local_counts_invert_one_uniform(self, table1_cfg):
        # Exact and approximate counts are the inverse CDFs of one uniform
        # per trial, so they differ only where the two laws do.
        cfg = table1_cfg
        k, n = 5, 20000
        rng = _RecordingRng(10)
        p = cfg.access_p
        binomial, poisson = _local_counts(
            rng, (_binomial_cdf(k - 1, p), _poisson_cdf(p * k, 0)), n)
        (u,) = rng.draws["random"]
        np.testing.assert_array_equal(binomial, stats.binom.ppf(u, k - 1, p))
        np.testing.assert_array_equal(poisson, stats.poisson.ppf(u, p * k))

    def test_local_fields_share_members(self, table1_cfg):
        # One call draws the largest count of each trial and row i sums the
        # first counts[i] of those members: rows of equal counts are equal,
        # and a larger count adds the members past the smaller one.
        cfg = table1_cfg
        src = _philox(11)
        n = 2000
        centers = np.abs(src.standard_normal(n))
        counts = src.integers(0, 4, (2, n))
        high = counts.max(axis=0)
        rng = _RecordingRng(12)
        fields = _member_interference(rng, cfg.alpha, n, np.arange(n),
                                      centers, high, [(1.0, c) for c in counts],
                                      work=montecarlo._Workspace())
        assert rng.draws["standard_normal"][0].shape == (2, high.sum())
        contribution = _contributions(rng, centers, high, 1.0, cfg.alpha)
        owner, rank = np.repeat(np.arange(n), high), _ranks(high)
        for row, field in zip(counts, fields):
            np.testing.assert_allclose(field, np.bincount(
                owner, weights=contribution * (rank < row[owner]), minlength=n),
                rtol=1e-12)
        same = counts[0] == counts[1]
        np.testing.assert_array_equal(fields[0][same], fields[1][same])
        larger = counts[0] > counts[1]
        assert np.all(fields[0][larger] > fields[1][larger])
        smaller = counts[0] < counts[1]
        assert np.all(fields[0][smaller] < fields[1][smaller])

    def test_offsets_are_rayleigh_and_sum_is_exact(self, table1_cfg):
        # Each active member is Gaussian-displaced from its center, so its
        # distance to the center is Rayleigh(sigma); the kernel returns the
        # per-trial sum of fade * distance^-alpha over those members, in
        # units of sigma (times sigma**alpha).
        cfg = replace(table1_cfg, alpha=3.5)
        src = _philox(6)
        n = 3000
        clusters = np.full(n, 2)
        owner = np.repeat(np.arange(n), clusters)
        cx = src.uniform(0.0, 300.0, owner.size)
        active = src.integers(0, 4, owner.size)
        rng = _RecordingRng(7)
        (got,) = _member_interference(rng, cfg.alpha, n, owner, cx, active,
                                      [(cfg.sigma, None)],
                                      work=montecarlo._Workspace())
        (normals,), (fade,) = (rng.draws["standard_normal"],
                               rng.draws["standard_exponential"])
        offsets = cfg.sigma * normals
        radial = np.hypot(offsets[0], offsets[1])
        assert radial.size == active.sum()
        ks = stats.kstest(radial, "rayleigh", args=(0, cfg.sigma))
        assert ks.pvalue > 0.01
        cluster = np.repeat(np.arange(owner.size), active)
        pos = np.column_stack([cx[cluster], np.zeros(cluster.size)]) + offsets.T
        expected = np.bincount(
            owner[cluster],
            weights=fade * np.linalg.norm(pos, axis=1) ** (-cfg.alpha),
            minlength=n,
        )
        np.testing.assert_allclose(got / cfg.sigma**cfg.alpha, expected, rtol=1e-12)

    @pytest.mark.parametrize("mu", [None, 3.0], ids=["table1", "mu3"])
    def test_remote_laplace_functional_matches_analytic(self, table1_cfg, mu):
        # Same check and bound as the raw-construction oracle
        # TestLaplaceTransforms::test_inter_against_direct_simulation:
        # E[exp(-s I)] at r = 2 sigma against laplace_inter, with
        # s = theta r**alpha and I in units of the transmit power P_d. On
        # Table 1 (p n_bar = 0.5) most active members are lone
        # transmitters; at p n_bar = 3 most are in the kernel's clusters.
        cfg = table1_cfg
        if mu is not None:
            cfg = replace(cfg, n_bar=mu / cfg.access_p)
        s_sir = cfg.theta * (2 * cfg.sigma) ** cfg.alpha
        radius = default_region_radius(cfg)
        rng = _philox(8)
        total = 0.0
        batches = 40
        for _ in range(batches):
            unit = _remote(rng, cfg, 10_000, radius, False) / cfg.sigma**cfg.alpha
            total += np.exp(-s_sir * unit).sum()
        mc = total / (batches * 10_000)
        assert laplace_inter(s_sir, cfg) == pytest.approx(mc, rel=0.01)


class TestSingleLinkField:
    """One always-active transmitter per cluster: by the displacement
    theorem a Poisson process of the cell's intensity on its annulus,
    drawn once for every sigma."""

    ANNULUS, LAYER = (200.0, 631.0), (1e-5, 2e-5)

    def _cell(self, rng, cfg, n, sigmas, layer=LAYER):
        return _remote_interference(
            rng, n, cfg.alpha, _active_law(cfg.access_p * cfg.n_bar),
            self.ANNULUS, layer, [(sigma, 1) for sigma in sigmas],
            work=montecarlo._Workspace())

    def test_counts_are_poisson(self, table1_cfg, kernel_calls):
        # Per trial, Poisson(layer width * pi (outer**2 - inner**2)): one
        # Poisson total for the batch, each transmitter in a uniform
        # trial. No cluster reaches the member kernel.
        rng = _RecordingRng(21)
        n = 20000
        self._cell(rng, table1_cfg, n, [table1_cfg.sigma])
        (total,), (label,) = rng.draws["poisson"], rng.draws["integers"]
        assert total.shape == () and label.size == total
        counts = np.bincount(label, minlength=n)
        (inner, outer), (low, high) = self.ANNULUS, self.LAYER
        rate = (high - low) * math.pi * (outer**2 - inner**2)
        _assert_poisson_counts(counts, rate)
        _assert_chi2_fit(counts, _poisson_law(rate))
        assert kernel_calls == []

    def test_squared_radii_are_uniform_on_the_annulus(self, table1_cfg):
        # Read back from the field (sigma = 1, so d2 in m**2): in a thin
        # layer most trials hold at most one transmitter, and a trial whose
        # only one is transmitter j reads fade_j d2_j**(-alpha/2). Those
        # squared distances are uniform on [inner**2, outer**2]. The field
        # sums fade * d2**(-alpha/2) over the drawn transmitters.
        cfg = table1_cfg
        n = 40000
        rng = _RecordingRng(22)
        (field,) = self._cell(rng, cfg, n, [1.0],
                              layer=(self.LAYER[0], self.LAYER[0] + 2e-7))
        (owner,), (u,), (fade,) = (rng.draws["integers"], rng.draws["random"],
                                   rng.draws["standard_exponential"])
        alone = np.bincount(owner, minlength=n) == 1
        point = np.zeros(n, dtype=int)
        point[owner] = np.arange(owner.size)
        read = (fade[point[alone]] / field[alone]) ** (2 / cfg.alpha)
        inner, outer = self.ANNULUS
        assert read.size > 1000
        assert stats.kstest(read, "uniform",
                            args=(inner**2, outer**2 - inner**2)).pvalue > 0.01
        d2 = inner**2 + (outer**2 - inner**2) * u
        np.testing.assert_allclose(field, np.bincount(
            owner, weights=fade * d2 ** (-cfg.alpha / 2), minlength=n), rtol=1e-12)

    def test_rows_are_sigma_alpha_multiples_of_one_sum(self, table1_cfg):
        # Nothing of the draw depends on sigma: row (sigma, 1) is sigma**alpha
        # times the sum in metres.
        cfg = table1_cfg
        sigmas = (10.0, 30.0)
        rows = self._cell(_philox(23), cfg, 2000, sigmas)
        (metres,) = self._cell(_philox(23), cfg, 2000, [1.0])
        assert np.count_nonzero(metres) > 0
        for sigma, row in zip(sigmas, rows):
            np.testing.assert_allclose(row, sigma**cfg.alpha * metres, rtol=1e-12)

    def test_laplace_functional_matches_analytic(self, table1_cfg):
        # E[exp(-s I)] of the field on its disk of radius R, with I the sum of
        # fade * d**-alpha, against the Poisson process's Laplace functional
        # exp(-2 pi lambda_p int_0^R v s v**-alpha / (1 + s v**-alpha) dv),
        # exact on the disk; s = theta (2 sigma)**alpha and the bound as in
        # test_remote_laplace_functional_matches_analytic.
        cfg = table1_cfg
        s_sir = cfg.theta * (2 * cfg.sigma) ** cfg.alpha
        radius = default_region_radius(cfg)
        rng = _philox(24)
        total = 0.0
        batches = 40
        for _ in range(batches):
            unit = _remote(rng, cfg, 10_000, radius, True) / cfg.sigma**cfg.alpha
            total += np.exp(-s_sir * unit).sum()
        mc = total / (batches * 10_000)
        integral, _ = quad(lambda v: v * s_sir / (v**cfg.alpha + s_sir), 0.0, radius)
        analytic = math.exp(-2 * math.pi * cfg.lambda_p * integral)
        assert analytic == pytest.approx(mc, rel=0.01)


class TestLoneTransmitters:
    """ALOHA clusters with exactly one active member: by the displacement
    theorem a Poisson process of intensity lambda_p P(N = 1) on the
    annulus, drawn once for every sigma. A cell with single-link rows
    takes them as a Binomial(size, P(N = 1)) prefix of its single-link
    draw; a cell without draws them at their own intensity."""

    ANNULUS, LAYER = TestSingleLinkField.ANNULUS, TestSingleLinkField.LAYER

    def _cell(self, rng, cfg, n, sigmas, links, layer=LAYER):
        rows = [(sigma, None) for sigma in sigmas]
        if links:
            rows += [(sigma, 1) for sigma in sigmas]
        return _remote_interference(
            rng, n, cfg.alpha, _active_law(cfg.access_p * cfg.n_bar),
            self.ANNULUS, layer, rows, work=montecarlo._Workspace())

    @pytest.mark.parametrize("links", [False, True], ids=["alone", "shared"])
    def test_counts_are_poisson(self, table1_cfg, links):
        # Per trial, Poisson(layer width * pi (outer**2 - inner**2) P(N = 1)),
        # whether drawn at that intensity or kept from the single-link draw.
        cfg = table1_cfg
        n = 20000
        rng = _RecordingRng(31)
        self._cell(rng, cfg, n, [cfg.sigma], links)
        assert ("binomial" in rng.draws) == links
        label, _, _ = _lone(rng, self.ANNULUS)
        counts = np.bincount(label, minlength=n)
        (inner, outer), (low, high) = self.ANNULUS, self.LAYER
        one, _ = _lone_share(cfg.access_p * cfg.n_bar)
        rate = (high - low) * math.pi * (outer**2 - inner**2) * one
        _assert_poisson_counts(counts, rate)
        _assert_chi2_fit(counts, _poisson_law(rate))

    @pytest.mark.parametrize("links", [False, True], ids=["alone", "shared"])
    def test_squared_radii_are_uniform_on_the_annulus(self, table1_cfg, links):
        # Read back from the ALOHA row: in a thin layer most trials hold at
        # most one remote transmitter, and a trial whose only one is lone
        # transmitter j reads sigma**alpha fade_j d2_j**(-alpha/2). Those
        # squared distances are uniform on [inner**2, outer**2].
        cfg = table1_cfg
        n = 40000
        rng = _RecordingRng(32)
        row = self._cell(rng, cfg, n, [cfg.sigma], links,
                         layer=(self.LAYER[0], self.LAYER[0] + 2e-7))[0]
        label, _, fade = _lone(rng, self.ANNULUS)
        clustered = rng.draws["integers"][0]  # the kernel's cluster labels
        alone = ((np.bincount(label, minlength=n) == 1)
                 & (np.bincount(clustered, minlength=n) == 0))
        point = np.zeros(n, dtype=int)
        point[label] = np.arange(label.size)
        d2 = (cfg.sigma**cfg.alpha * fade[point[alone]] / row[alone]) ** (2 / cfg.alpha)
        inner, outer = self.ANNULUS
        assert d2.size > 1000
        assert stats.kstest(d2, "uniform",
                            args=(inner**2, outer**2 - inner**2)).pvalue > 0.01

    @pytest.mark.parametrize("links", [False, True], ids=["alone", "shared"])
    def test_rows_add_sigma_alpha_times_the_lone_sum(self, table1_cfg, links):
        # Recomputed from the draws: ALOHA row (sigma, None) is the kernel's
        # sum over the clusters with two or more active members plus
        # sigma**alpha times the sum over the lone transmitters (the first
        # K single-link points when the cell has single links); row
        # (sigma, 1) is sigma**alpha times the sum over every single-link
        # point.
        cfg = table1_cfg
        n = 2000
        sigmas = (10.0, 30.0)
        rng = _RecordingRng(33)
        out = self._cell(rng, cfg, n, sigmas, links)
        assert ("binomial" in rng.draws) == links
        (inner, outer), alpha = self.ANNULUS, cfg.alpha
        counts, u, label = (rng.draws[name][0]
                            for name in ("poisson", "random", "integers"))
        active = np.repeat(np.arange(2, counts.size + 2), counts)
        cx = np.sqrt(inner**2 + (outer**2 - inner**2) * u)
        (normals,), fade = rng.draws["standard_normal"], rng.draws["standard_exponential"][0]
        owner = np.repeat(label, active)
        lone = _lone(rng, self.ANNULUS)
        assert 0 < lone[0].size and 0 < owner.size
        lone_sum = np.bincount(lone[0], lone[2] * lone[1] ** (-alpha / 2),
                               minlength=n)
        for sigma, row in zip(sigmas, out):
            d2 = (np.repeat(cx, active) / sigma + normals[0]) ** 2 + normals[1] ** 2
            kernel = np.bincount(owner, fade * d2 ** (-alpha / 2), minlength=n)
            np.testing.assert_allclose(row, sigma**alpha * lone_sum + kernel,
                                       rtol=1e-12)
        if links:
            label, u, fade = (rng.draws[name][-1] for name in
                              ("integers", "random", "standard_exponential"))
            d2 = inner**2 + (outer**2 - inner**2) * u
            metres = np.bincount(label, fade * d2 ** (-alpha / 2), minlength=n)
            for sigma, row in zip(sigmas, out[len(sigmas):]):
                np.testing.assert_allclose(row, sigma**alpha * metres, rtol=1e-12)

    @pytest.mark.parametrize("field, value", [("access_p", 0.0), ("n_bar", 200.0)])
    def test_extreme_active_laws_simulate(self, table1_cfg, field, value):
        # access_p = 0: no remote device is active, P(N = 1) = 0 and the
        # active law is one zero entry, so the ALOHA estimates read 1.
        # n_bar = 200: p n_bar = 20, P(N = 1) is about 4e-8 and nearly every
        # active member is in the kernel. Each once beside a single link
        # (shared cells) and once alone.
        cfg = replace(table1_cfg, **{field: value})
        aloha = [ConditionalCoverage(cfg, 5), PoissonConditionalCoverage(cfg, 5)]
        if cfg.access_p > 0:
            aloha.append(ProbRateExceeds(cfg, 0.1))
        for requests in (aloha + [SingleLinkCoverage(cfg)], aloha):
            means = [e.mean for e in simulate(requests, 2000, seed=7)]
            assert all(math.isfinite(m) and 0.0 <= m <= 1.0 for m in means)
            if cfg.access_p == 0:
                assert means[:2] == [1.0, 1.0]


def _scipy_poisson_cdf(mu, first):
    """The count table as built from scipy.special.pdtrc (the upper tail)."""
    at_least = special.pdtrc(first - 1, mu) if first else 1.0
    tail = [special.pdtrc(first, mu) / at_least]
    while tail[-1] >= montecarlo._TAIL:
        tail.append(special.pdtrc(first + len(tail), mu) / at_least)
    return 1.0 - np.array(tail)


class TestCountTables:
    @pytest.mark.parametrize("first", [0, 1])
    def test_poisson_tables_match_scipy(self, first):
        # Same cut (table length) everywhere. Both tables hold 1 - tail in
        # doubles, so entries near 0 agree only to a few roundings of 1;
        # 1e-14 absolute allows a hundred of them. The draws invert
        # uniforms on a 2**-53 grid, so a difference this small moves a
        # count with probability ~1e-14 per draw.
        for mu in np.geomspace(1e-3, 50.0, 500):
            got = _poisson_cdf(mu, first)
            expected = _scipy_poisson_cdf(mu, first)
            assert got.shape == expected.shape, mu
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-14)
            assert got[-1] == 1.0

    def test_poisson_tables_reproduce_recorded_bytes(self):
        # SHA-256 of the tables at 500 means and first = 0, 1, 2, recorded
        # when the weights were built in montecarlo itself. Scaling the
        # weights before the tail ratio moves some entries by an ulp: no
        # estimate moves, but the tables must stay as they were.
        digest = hashlib.sha256()
        for mu in np.geomspace(1e-3, 50.0, 500):
            for first in (0, 1, 2):
                digest.update(_poisson_cdf(mu, first).tobytes())
        assert digest.hexdigest() == (
            "e9c0329efc12ad1645467e369c8eb95266715a9f839c258a642b1e00c42bbb9f")

    def test_poisson_table_degenerate_means(self):
        np.testing.assert_array_equal(_poisson_cdf(0.0, 0), [1.0])
        np.testing.assert_array_equal(_poisson_cdf(1e-300, 1), [1.0])
        big = _poisson_cdf(900.0, 0)  # e**-900 underflows; the table does not
        assert np.all(np.diff(big) >= 0) and big[-1] == 1.0
        assert np.searchsorted(big, 0.5) == 900

    def test_active_law_splits_the_zero_truncated_table(self):
        # Remote clusters with m active members, m = 1, 2, ..., are drawn as
        # independent Poisson processes of intensity lambda_p P(N = m): they
        # hold P(N > 0) of the clusters, and their shares rebuild the
        # zero-truncated Poisson(mu) table, cut where it is.
        for mu in np.geomspace(1e-3, 50.0, 500):
            law = _active_law(mu)
            table = _poisson_cdf(mu, 1)
            assert law.shape == table.shape and law.min() >= 0.0
            assert law.sum() == pytest.approx(-math.expm1(-mu), rel=1e-12)
            np.testing.assert_allclose(np.cumsum(law) / law.sum(), table,
                                       rtol=1e-12, atol=1e-14)
            np.testing.assert_allclose(
                law, stats.poisson.pmf(np.arange(1, law.size + 1), mu),
                rtol=1e-9, atol=1e-15)
        np.testing.assert_array_equal(_active_law(0.0), [0.0])

    def test_binomial_cdf_matches_scipy(self):
        for n in range(51):
            for p in np.linspace(0.0, 1.0, 41):
                expected = np.append(special.bdtr(np.arange(n), n, p), 1.0)
                np.testing.assert_allclose(_binomial_cdf(n, p), expected,
                                           rtol=1e-12, atol=0.0)


class TestDeterminism:
    def test_identical_seed_identical_estimate(self, table1_cfg):
        a = _rate_exceeds((table1_cfg,), 0.1, 5000, seed=99)[0]
        b = _rate_exceeds((table1_cfg,), 0.1, 5000, seed=99)[0]
        assert a == b

    def test_different_seed_different_estimate(self, table1_cfg):
        a = _rate_exceeds((table1_cfg,), 0.1, 5000, seed=99)[0]
        b = _rate_exceeds((table1_cfg,), 0.1, 5000, seed=100)[0]
        assert a.mean != b.mean

    @staticmethod
    def _mixed_requests(cfg):
        """Every request kind, at several sigmas, thresholds and densities."""
        return ([ProbRateExceeds(replace(cfg, sigma=sigma, theta=theta), 0.1)
                 for sigma in (10.0, 30.0) for theta in (1.0, 2.0)]
                + [SingleLinkCoverage(replace(cfg, sigma=20.0, lambda_p=lam))
                   for lam in (10e-6, 20e-6)]
                + [kind(cfg, k) for k in (5, 2)
                   for kind in (ConditionalCoverage, PoissonConditionalCoverage)])

    def test_fixed_seed_reproduces_recorded_counts(self, table1_cfg):
        # Covered-trial counts recorded when the lone transmitters of the
        # ALOHA field joined the single-link draw (a Binomial prefix of it,
        # or a Poisson draw of their own in a cell without single links)
        # and the kernel kept the clusters with two or more active
        # members. Three batches, the last one partial.
        results = simulate(self._mixed_requests(table1_cfg), 25_000, 3)
        assert [round(e.mean * 25_000) for e in results] == [
            19170, 18284, 17021, 15533, 23164, 21623, 19973, 19170, 23249, 22132]

    def test_calls_share_no_workspace_state(self, table1_cfg):
        # A simulation's scratch memory lives for that call only: a call
        # after another with larger (or smaller) buffers reads the same.
        small = [ProbRateExceeds(table1_cfg, 0.1)]
        large = self._mixed_requests(table1_cfg)
        first_small = simulate(small, 12_000, 8)
        first_large = simulate(large, 12_000, 9)
        assert simulate(small, 12_000, 8) == first_small
        assert simulate(large, 12_000, 9) == first_large

    def test_workspace_grows_by_a_quarter_at_least(self):
        # Sizes that creep up by a fraction of a percent share one buffer.
        work = montecarlo._Workspace()
        assert work.take(1000).size == 1000
        assert work.take(1001).size == 1001
        buffer = work._buffer
        assert buffer.size == 1250
        for size in (1002, 1250, 10):
            assert work.take(size).size == size
            assert work._buffer is buffer
        assert work.take(1251).size == 1251 and work._buffer.size == 1562

    def test_half_width_formula(self, table1_cfg):
        est = _rate_exceeds((table1_cfg,), 0.1, 5000, seed=99)[0]
        n = est.samples
        std = math.sqrt(n / (n - 1) * est.mean * (1 - est.mean))
        assert est.half_width_95 == pytest.approx(1.96 * std / math.sqrt(n))


class TestProbRateExceedsMc:
    def test_certain_coverage_at_tiny_threshold(self, table1_cfg):
        cfg = replace(table1_cfg, theta=1e-9)
        est = _rate_exceeds((cfg,), 0.0, 2000, seed=5)[0]
        assert est.mean > 0.999

    def test_interference_dominated_limit(self, table1_cfg):
        cfg = replace(table1_cfg, access_p=1.0, lambda_p=5e-3, n_bar=20.0)
        est = _rate_exceeds((cfg,), 0.1, 2000, seed=5)[0]
        assert est.mean < 0.02

    def test_matches_analytic(self, table1_cfg):
        (est,) = _rate_exceeds((table1_cfg,), 0.1, 20000, seed=31)
        analytic = prob_rate_exceeds(table1_cfg, 0.1)
        assert abs(est.mean - analytic) < 0.02

    def test_feasibility_enforced(self, table1_cfg):
        with pytest.raises(InfeasibleAccessProbability):
            _rate_exceeds((replace(table1_cfg, access_p=0.01),), 0.1, 100, seed=1)


class TestConditionalCoverageMc:
    def test_k1_exact_mode_has_no_intra_interference(self, table1_cfg):
        # With one device the serving transmitter is alone in the cluster,
        # so the exact estimate matches the inter-cluster-only integral.
        cfg = table1_cfg
        exact, _ = _conditional(cfg, 1, 20000, seed=17)
        inter_only, _ = quad(
            lambda r: serving_distance_pdf(r, cfg.sigma)
            * laplace_inter(cfg.theta * r**cfg.alpha, cfg),
            0, 14 * cfg.sigma,
        )
        assert abs(exact.mean - inter_only) < 0.02

    def test_poisson_approx_matches_analytic(self, table1_cfg):
        _, approx = _conditional(table1_cfg, 5, 20000, seed=23)
        analytic = d2d_coverage_conditional(table1_cfg, 5)
        assert abs(approx.mean - analytic) < 0.02

    def test_exact_vs_approx_gap_is_small(self, table1_cfg):
        # The Poisson(p k) interferer count overcounts the exact model's
        # k-1 potential interferers by about one device; at k = 5 and
        # p = 0.1 the measured coverage gap is ~3.3%, shrinking with k.
        exact, approx = _conditional(table1_cfg, 5, 20000, seed=23)
        gap5 = abs(exact.mean - approx.mean)
        assert gap5 < 0.05
        exact20, approx20 = _conditional(table1_cfg, 20, 20000, seed=23)
        gap20 = abs(exact20.mean - approx20.mean)
        assert gap20 < gap5

    def test_exact_vs_approx_gap_is_coupled(self, table1_cfg):
        # Both local counts invert one uniform and share their members, so
        # the gap varies little from seed to seed: its standard deviation
        # over 40 seeds at 1e4 trials was 0.0061 with independent local
        # fields and reads about 0.0020 coupled. Two calls with one seed
        # share the serving links and uniforms but not the members or the
        # remote fields: 0.0034.
        gaps, apart = [], []
        for seed in range(1, 41):
            exact, approx = _conditional(table1_cfg, 5, 10_000, seed=seed)
            gaps.append(exact.mean - approx.mean)
            exact, approx = (simulate([kind(table1_cfg, 5)], 10_000, seed)[0]
                             for kind in (ConditionalCoverage,
                                          PoissonConditionalCoverage))
            apart.append(exact.mean - approx.mean)
        assert np.std(gaps, ddof=1) <= 0.0035
        assert np.std(gaps, ddof=1) <= 0.75 * np.std(apart, ddof=1)

    def test_rejects_empty_cluster(self, table1_cfg):
        with pytest.raises(ConfigError):
            _conditional(table1_cfg, 0, 100, seed=1)


class TestSingleLinkMc:
    def test_limit_at_vanishing_density(self, table1_cfg):
        (est,) = _single_link((replace(table1_cfg, lambda_p=1e-12),), 2000, seed=3)
        assert est.mean > 0.999

    def test_reference_point(self, table1_cfg):
        est = _single_link((table1_cfg,), 20000, seed=41)[0]
        assert est.mean == pytest.approx(0.962, abs=0.01)
        analytic = d2d_coverage_single_link(table1_cfg)
        assert abs(est.mean - analytic) < 0.02

    def test_monotone_decreasing_in_sigma(self, table1_cfg):
        means = [
            _single_link((replace(table1_cfg, sigma=s),), 20000, seed=43)[0].mean
            for s in (10.0, 20.0, 30.0)
        ]
        assert means[0] > means[1] > means[2]

    def test_truncation_bias_below_noise(self, table1_cfg, monkeypatch):
        # Doubling the simulation disk moves the estimate by less than
        # the combined 95% half-widths.
        radius = default_region_radius(table1_cfg)
        (a,) = _single_link((table1_cfg,), 50000, seed=47)
        monkeypatch.setattr(montecarlo, "default_region_radius",
                            lambda cfg: 2 * radius)
        (b,) = _single_link((table1_cfg,), 50000, seed=47)
        assert abs(a.mean - b.mean) < a.half_width_95 + b.half_width_95


def _family_points(cfg):
    """Two sigmas and two densities. At sigma = 60 m, 15 sigma = 900 m
    exceeds 5/sqrt(pi lambda_p) at both densities, so the points' disks
    have three radii: 892 m and 631 m at sigma = 10 m, 900 m at 60 m."""
    return [replace(cfg, sigma=sigma, lambda_p=density)
            for sigma in (10.0, 60.0) for density in (1e-5, 2e-5)]


class TestFamily:
    def test_each_point_takes_its_own_cluster_field(self, table1_cfg,
                                                     monkeypatch):
        # Over the cells inside its radius and below its density, each
        # point's count of remote clusters with two or more active members
        # is Poisson(lambda_p pi R^2 P(N >= 2)), its lone transmitters
        # Poisson(lambda_p pi R^2 P(N = 1)), and the squared center radii
        # are uniform on its own disk. (Over seeds 100-399 each point's KS
        # p-value falls below 0.01 at 0.7-1.7% of the seeds.)
        points = _family_points(table1_cfg)
        radii = [default_region_radius(cfg) for cfg in points]
        assert len(set(radii)) == 3
        cells = []
        remote, member = montecarlo._remote_interference, montecarlo._member_interference

        def remote_spy(rng, n, alpha, law, annulus, layer, rows, *, work):
            cells.append(dict(annulus=annulus, layer=layer,
                              sigmas=sorted({sigma for sigma, _ in rows})))
            rng = _RecordingRng(rng)
            out = remote(rng, n, alpha, law, annulus, layer, rows, work=work)
            cells[-1].update(lone=np.bincount(_lone(rng, annulus)[0], minlength=n))
            return out

        def member_spy(rng, alpha, n, label, cx, active, rows, *, work):
            if not _is_local(rows):  # the clusters of the cell just opened
                cells[-1].update(clusters=np.bincount(label, minlength=n), cx=cx)
            return member(rng, alpha, n, label, cx, active, rows, work=work)

        monkeypatch.setattr(montecarlo, "_remote_interference", remote_spy)
        monkeypatch.setattr(montecarlo, "_member_interference", member_spy)
        n = 10_000  # one batch
        _rate_exceeds(points, 0.1, n, seed=5)
        one, at_least_two = _lone_share(table1_cfg.access_p * table1_cfg.n_bar)
        for c in cells:  # scored at the sigmas of the points it lies inside
            assert c["sigmas"] == sorted({
                cfg.sigma for cfg, radius in zip(points, radii)
                if c["annulus"][1] <= radius and c["layer"][1] <= cfg.lambda_p})
        for cfg, radius in zip(points, radii):
            mine = [c for c in cells
                    if c["annulus"][1] <= radius and c["layer"][1] <= cfg.lambda_p]
            area = cfg.lambda_p * math.pi * radius**2
            _assert_poisson_counts(sum(c["clusters"] for c in mine),
                                   area * at_least_two)
            _assert_poisson_counts(sum(c["lone"] for c in mine), area * one)
            centers = np.concatenate([c["cx"] for c in mine])
            assert centers.max() <= radius
            assert stats.kstest((centers / radius) ** 2, "uniform").pvalue > 0.01

    def test_cells_tile_each_field(self, table1_cfg):
        # The cells a field takes lie inside its disk and below its density,
        # and their (area x density) measures sum to its own pi R^2 lambda_p;
        # a field is scored at its own sigma with the cap of its kind (1,
        # the first member, for a single link; None, every member, else).
        fields = sorted({(link, cfg.sigma, default_region_radius(cfg), cfg.lambda_p)
                         for cfg in _family_points(table1_cfg)
                         for link in (False, True)})
        cells = montecarlo._cells(fields)
        for i, (link, sigma, radius, density) in enumerate(fields):
            taken = [(annulus, layer, rows[picks[users.index(i)]])
                     for annulus, layer, rows, users, picks in cells if i in users]
            assert all(annulus[1] <= radius and layer[1] <= density
                       and row == (sigma, 1 if link else None)
                       for annulus, layer, row in taken)
            measure = sum(math.pi * (annulus[1]**2 - annulus[0]**2)
                          * (layer[1] - layer[0]) for annulus, layer, _ in taken)
            assert measure == pytest.approx(math.pi * radius**2 * density, rel=1e-12)

    def test_identical_seed_identical_estimates(self, table1_cfg):
        points = _family_points(table1_cfg)
        for run, args in ((_rate_exceeds, (0.1,)), (_single_link, ())):
            a = run(points, *args, 5000, seed=99)
            b = run(points, *args, 5000, seed=99)
            c = run(points, *args, 5000, seed=100)
            assert a == b
            assert [e.mean for e in a] != [e.mean for e in c]
            assert all(e.samples == 5000 for e in a)

    def test_prob_rate_exceeds_matches_analytic(self, table1_cfg):
        # The tolerance of TestProbRateExceedsMc, at every point.
        points = [replace(cfg, theta=theta) for cfg in _family_points(table1_cfg)
                  for theta in (1.0, 2.0)]
        estimates = _rate_exceeds(points, 0.1, 20000, seed=31)
        for cfg, est in zip(points, estimates):
            assert abs(est.mean - prob_rate_exceeds(cfg, 0.1)) < 0.02

    def test_single_link_matches_analytic(self, table1_cfg):
        # The tolerance of TestSingleLinkMc, at every point.
        points = _family_points(table1_cfg)
        estimates = _single_link(points, 20000, seed=41)
        for cfg, est in zip(points, estimates):
            assert abs(est.mean - d2d_coverage_single_link(cfg)) < 0.02

    @pytest.mark.parametrize("field, value", [("alpha", 3.5), ("access_p", 0.2),
                                              ("n_bar", 6.0)])
    def test_points_must_share_alpha_p_and_n_bar(self, table1_cfg, field, value):
        points = (table1_cfg, replace(table1_cfg, **{field: value}))
        with pytest.raises(ConfigError, match=f"must share {field}"):
            _rate_exceeds(points, 0.0, 100, seed=1)
        with pytest.raises(ConfigError, match=f"must share {field}"):
            _single_link(points, 100, seed=1)

    def test_rejects_empty_family(self):
        with pytest.raises(ConfigError):
            _rate_exceeds((), 0.1, 100, seed=1)
        with pytest.raises(ConfigError):
            _single_link([], 100, seed=1)

    def test_infeasible_point_named_by_theta(self, table1_cfg):
        # p log2(1 + theta) = 0.1 * log2(1.5) < 0.1 at theta = 0.5 only.
        points = (table1_cfg, replace(table1_cfg, theta=0.5),
                  replace(table1_cfg, theta=2.0))
        with pytest.raises(InfeasibleAccessProbability, match="at theta = 0.5:"):
            _rate_exceeds(points, 0.1, 100, seed=1)


class TestSharedDraw:
    def test_single_link_adds_no_members_to_shared_cells(self, table1_cfg,
                                                         kernel_calls):
        # A single-link request in a cell an ALOHA request takes: the member
        # kernel gets the cell's clusters with two or more active members
        # for the ALOHA row alone, Poisson(lambda_p pi R^2 P(N >= 2)) per
        # trial with squared radii uniform on the disk and Poisson(mu)
        # members conditioned on at least two.
        cfg = table1_cfg
        radius = default_region_radius(cfg)
        area = cfg.lambda_p * math.pi * radius**2
        mu = cfg.access_p * cfg.n_bar
        n = 10_000  # one batch
        simulate([ProbRateExceeds(cfg, 0.1), SingleLinkCoverage(cfg)], n, seed=13)
        (active,) = [call for call in kernel_calls if not _is_local(call["rows"])]
        assert active["rows"] == [(cfg.sigma, None)]
        _assert_poisson_counts(_per_trial(active), area * _lone_share(mu)[1])
        assert active["cx"].max() <= radius
        assert stats.kstest((active["cx"] / radius) ** 2, "uniform").pvalue > 0.01
        _assert_at_least_two(active["active"], mu)

    def test_member_work_is_bounded(self, table1_cfg, kernel_calls):
        # Members the kernel draws at 1e4 trials and seed 1. Single-link
        # requests alone give it none (375,157 when each cluster's
        # transmitter was a displaced member); the validate request list (six
        # P(R1 > R0), six single links, the exact and Poisson conditional
        # coverage at k = 5) at most
        # 200,000 (407,671 then, 130,418 with the single link drawn apart,
        # 130,172 with every cluster drawn once per batch, 53,901 with the
        # lone ALOHA transmitters drawn apart).
        cfg = table1_cfg
        links = [SingleLinkCoverage(replace(cfg, sigma=sigma, lambda_p=lam))
                 for sigma in (10.0, 20.0, 30.0) for lam in (10e-6, 20e-6)]
        rates = [ProbRateExceeds(replace(cfg, sigma=sigma, theta=theta), 0.1)
                 for sigma in (10.0, 20.0, 30.0) for theta in (1.0, 10**0.3)]

        def members():
            drawn = sum(int(call["active"].sum()) for call in kernel_calls)
            kernel_calls.clear()
            return drawn

        simulate(links, 10_000, 1)
        assert members() == 0
        simulate(rates + links + [ConditionalCoverage(cfg, 5),
                                  PoissonConditionalCoverage(cfg, 5)], 10_000, 1)
        assert 0 < members() <= 200_000

    def test_first_rows_sum_each_clusters_first_member(self, table1_cfg):
        # A row capped at 1 sums, per trial, the first member of each
        # cluster (members of a cluster are stored together, in cluster
        # order), at the same offsets and fades as the row over all members.
        cfg = table1_cfg
        src = _philox(14)
        n = 2000
        clusters = src.integers(0, 4, n)
        owner = np.repeat(np.arange(n), clusters)
        cx = src.uniform(0.0, 300.0, owner.size)
        active = src.integers(1, 4, owner.size)
        rng = _RecordingRng(15)
        every, first = _member_interference(
            rng, cfg.alpha, n, owner, cx, active,
            [(cfg.sigma, None), (cfg.sigma, np.ones_like(active))],
            work=montecarlo._Workspace())
        contribution = _contributions(rng, cx, active, cfg.sigma, cfg.alpha)
        member_owner = np.repeat(owner, active)
        np.testing.assert_allclose(
            every, np.bincount(member_owner, weights=contribution, minlength=n),
            rtol=1e-12)
        starts = np.cumsum(active) - active
        np.testing.assert_allclose(
            first, np.bincount(owner, weights=contribution[starts], minlength=n),
            rtol=1e-12)

    def test_per_cluster_cap_sums_a_prefix_of_each_cluster(self, table1_cfg):
        # A per-cluster cap c_j sums the first min(c_j, active_j) members of
        # cluster j, whatever the other clusters of its trial hold and
        # wherever they are stored; rows at two scales share the members.
        cfg = table1_cfg
        src = _philox(16)
        n = 2000
        clusters = src.integers(0, 4, n)
        owner = src.permutation(np.repeat(np.arange(n), clusters))
        cx = src.uniform(0.0, 300.0, owner.size)
        active = src.integers(0, 5, owner.size)
        cap = src.integers(0, 6, owner.size)
        rng = _RecordingRng(17)
        scales = (cfg.sigma, 3 * cfg.sigma)
        rows = _member_interference(rng, cfg.alpha, n, owner, cx, active,
                                    [(scale, cap) for scale in scales],
                                    work=montecarlo._Workspace())
        kept = _ranks(active) < np.repeat(cap, active)
        member_owner = np.repeat(owner, active)
        for scale, row in zip(scales, rows):
            contribution = _contributions(rng, cx, active, scale, cfg.alpha)
            np.testing.assert_allclose(
                row, np.bincount(member_owner[kept], weights=contribution[kept],
                                 minlength=n), rtol=1e-12)


class TestArguments:
    @pytest.mark.parametrize("trials", [1000.5, 1000.0])
    def test_rejects_non_integral_trials(self, table1_cfg, trials):
        with pytest.raises(ConfigError, match="trials must be an integer"):
            _single_link([table1_cfg], trials, 1)

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_rejects_bad_seed(self, table1_cfg, seed):
        with pytest.raises(ConfigError, match="seed must be"):
            _single_link([table1_cfg], 1000, seed)

    def test_rejects_non_finite_rate_threshold(self, table1_cfg):
        with pytest.raises(ConfigError, match="r0_over_w1 must be a real number"):
            ProbRateExceeds(table1_cfg, math.nan)

    def test_rejects_negative_rate_threshold(self, table1_cfg):
        # As the analytic prob_rate_exceeds does.
        with pytest.raises(ConfigError, match=r"r0_over_w1 must be a real number "
                                              r"in \[0, inf\), got -1.0"):
            ProbRateExceeds(table1_cfg, -1.0)
        with pytest.raises(ConfigError, match=r"r0_over_w1 must be a real number "
                                              r"in \[0, inf\), got -1.0"):
            prob_rate_exceeds(table1_cfg, -1.0)

    @pytest.mark.parametrize("samples", [0, True, 2.5])
    def test_estimate_rejects_bad_samples(self, samples):
        with pytest.raises(ConfigError, match="samples must be"):
            McEstimate(0.5, 0.1, samples=samples)

    def test_rejects_too_few_trials(self, table1_cfg):
        with pytest.raises(ConfigError, match="trials must be at least 1"):
            _single_link([table1_cfg], 0, 1)

    def test_rejects_non_integral_k(self, table1_cfg):
        with pytest.raises(ConfigError, match="k must be an integer"):
            ConditionalCoverage(table1_cfg, 2.5)
