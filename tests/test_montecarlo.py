"""Simulator self-checks and analytic-vs-simulation agreement at unit scale.

The full 1e5-trial agreement grid lives in the acceptance suite; here the
simulator's own statistics (cluster counts, center radii, thinned
active counts, offsets, the remote Laplace functional, determinism,
truncation, the cells a family of points shares) are verified and the
agreement is spot-checked at 2e4 trials.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import special, stats
from scipy.integrate import quad

from clustercache import montecarlo
from clustercache.errors import ConfigError, InfeasibleAccessProbability
from clustercache.montecarlo import (
    _binomial_cdf,
    _local_counts,
    _member_interference,
    _poisson_cdf,
    _remote_interference,
    ConditionalCoverage,
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
    (pair,) = simulate([ConditionalCoverage(cfg, k)], trials, seed)
    return pair


class _RecordingRng:
    """Forwards to a Philox generator and keeps a copy of every array it
    returns (the kernel works on its draws in place)."""

    def __init__(self, seed):
        self._rng = _philox(seed)
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

    def spy(rng, alpha, clusters, cx, active, rows, *, work):
        out = real(rng, alpha, clusters, cx, active, rows, work=work)
        calls.append(dict(clusters=clusters, cx=cx, active=active, rows=rows,
                          out=out))
        return out

    monkeypatch.setattr(montecarlo, "_member_interference", spy)
    return calls


def _is_local(rows):
    """Whether kernel ``rows`` are the representative cluster's: only its
    rows cap each cluster by an array (the local counts)."""
    return any(np.ndim(cap) for _, cap in rows)


def _remote(rng, cfg, n, radius, single_link):
    """One point's remote field in units of its sigma: a single cell, its
    whole disk at its whole density."""
    (field,) = _remote_interference(
        rng, n, cfg.alpha, cfg.access_p * cfg.n_bar, (0.0, radius),
        (0.0, cfg.lambda_p), [(cfg.sigma, 1 if single_link else None)],
        work=montecarlo._Workspace())
    return field


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


def _poisson_raw_moments(mu):
    # E[N^j], j = 1..4, of N ~ Poisson(mu).
    return (mu, mu + mu**2, mu**3 + 3 * mu**2 + mu,
            mu**4 + 6 * mu**3 + 7 * mu**2 + mu)


class TestMemberKernel:
    def test_remote_cluster_counts_are_poisson(self, table1_cfg, kernel_calls):
        # Only clusters with an active member are drawn: by the thinning
        # theorem they form a Poisson process of intensity
        # lambda_p (1 - exp(-p n_bar)). The single-link model takes them
        # and the silent clusters, together all of them.
        cfg = table1_cfg
        radius = default_region_radius(cfg)
        area = cfg.lambda_p * math.pi * radius**2
        mu = cfg.access_p * cfg.n_bar
        n = 20000
        _remote(_philox(1), cfg, n, radius, False)
        _remote(_philox(1), cfg, n, radius, True)
        nonempty, active, silent = kernel_calls
        _assert_poisson_counts(nonempty["clusters"], area * -math.expm1(-mu))
        _assert_poisson_counts(active["clusters"] + silent["clusters"], area)

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
        # A drawn cluster holds a zero-truncated Poisson(p n_bar) number of
        # active members; a single-link cluster exactly one (active=None).
        cfg = table1_cfg
        _remote(_philox(3), cfg, 4000, default_region_radius(cfg), False)
        _remote(_philox(3), cfg, 4000, default_region_radius(cfg), True)
        thinned, *single = kernel_calls
        active = thinned["active"]
        mu = cfg.access_p * cfg.n_bar
        nonzero = -math.expm1(-mu)
        # Raw moments of the truncated law are the Poisson ones over P(N > 0);
        # kappa_4 from the first four of them.
        e1, e2, e3, e4 = (m / nonzero for m in _poisson_raw_moments(mu))
        kappa4 = e4 - 4 * e3 * e1 - 3 * e2**2 + 12 * e2 * e1**2 - 6 * e1**4
        assert active.min() >= 1
        _assert_moments(active, e1, e2 - e1**2, kappa4)
        assert all(call["active"] is None for call in single)

    def test_remote_total_active_count_matches_untruncated_field(
            self, table1_cfg, kernel_calls):
        # Summed over a trial, the active members are compound Poisson with
        # rate lambda_p pi R^2 and Poisson(p n_bar) marks, exactly as if
        # every cluster were drawn: cumulants kappa_j = rate E[N^j].
        cfg = table1_cfg
        radius = default_region_radius(cfg)
        area = cfg.lambda_p * math.pi * radius**2
        n = 20000
        _remote(_philox(9), cfg, n, radius, False)
        (call,) = kernel_calls
        owner = np.repeat(np.arange(n), call["clusters"])
        total = np.bincount(owner, weights=call["active"], minlength=n)
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
        simulate([ProbRateExceeds(cfg, 0.1) if mode == "aloha"
                  else ConditionalCoverage(cfg, k)], n, seed=4)
        calls = [call for call in kernel_calls if _is_local(call["rows"])]
        assert all(scale == 1.0 for call in calls for scale, _ in call["rows"])
        caps = np.concatenate([[cap for _, cap in call["rows"]] for call in calls],
                              axis=1)
        assert np.array_equal(np.concatenate([c["active"] for c in calls]),
                              caps.max(axis=0))
        assert np.array_equal(np.concatenate([c["clusters"] for c in calls]),
                              np.ones(n))
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
        fields = _member_interference(rng, cfg.alpha, np.ones(n, dtype=np.intp),
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
        (got,) = _member_interference(rng, cfg.alpha, clusters, cx, active,
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

    def test_remote_laplace_functional_matches_analytic(self, table1_cfg):
        # Same check and bound as the raw-construction oracle
        # TestLaplaceTransforms::test_inter_against_direct_simulation:
        # E[exp(-s I)] at r = 2 sigma against laplace_inter, with
        # s = theta r**alpha and I in units of the transmit power P_d.
        cfg = table1_cfg
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

    def test_poisson_table_degenerate_means(self):
        np.testing.assert_array_equal(_poisson_cdf(0.0, 0), [1.0])
        np.testing.assert_array_equal(_poisson_cdf(1e-300, 1), [1.0])
        big = _poisson_cdf(900.0, 0)  # e**-900 underflows; the table does not
        assert np.all(np.diff(big) >= 0) and big[-1] == 1.0
        assert np.searchsorted(big, 0.5) == 900

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
                + [ConditionalCoverage(cfg, 5), ConditionalCoverage(cfg, 2)])

    @staticmethod
    def _covered(results, trials):
        return [tuple(round(e.mean * trials) for e in (r.exact, r.poisson_approx))
                if isinstance(r, montecarlo.ConditionalCoveragePair)
                else round(r.mean * trials) for r in results]

    def test_fixed_seed_reproduces_recorded_counts(self, table1_cfg):
        # Covered-trial counts recorded when every cluster center moved onto
        # the +x axis and one member kernel call took the representative
        # cluster. Three batches, the last one partial.
        results = simulate(self._mixed_requests(table1_cfg), 25_000, 3)
        assert self._covered(results, 25_000) == [
            19161, 18298, 17052, 15559, 23198, 21625, (20004, 19161), (23240, 22143)]

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
        pair = _conditional(cfg, 1, 20000, seed=17)
        inter_only, _ = quad(
            lambda r: serving_distance_pdf(r, cfg.sigma)
            * laplace_inter(cfg.theta * r**cfg.alpha, cfg),
            0, 14 * cfg.sigma,
        )
        assert abs(pair.exact.mean - inter_only) < 0.02

    def test_poisson_approx_matches_analytic(self, table1_cfg):
        pair = _conditional(table1_cfg, 5, 20000, seed=23)
        analytic = d2d_coverage_conditional(table1_cfg, 5)
        assert abs(pair.poisson_approx.mean - analytic) < 0.02

    def test_exact_vs_approx_gap_is_small(self, table1_cfg):
        # The Poisson(p k) interferer count overcounts the exact model's
        # k-1 potential interferers by about one device; at k = 5 and
        # p = 0.1 the measured coverage gap is ~3.3%, shrinking with k.
        pair = _conditional(table1_cfg, 5, 20000, seed=23)
        gap5 = abs(pair.exact.mean - pair.poisson_approx.mean)
        assert gap5 < 0.05
        pair20 = _conditional(table1_cfg, 20, 20000, seed=23)
        gap20 = abs(pair20.exact.mean - pair20.poisson_approx.mean)
        assert gap20 < gap5

    def test_exact_vs_approx_gap_is_coupled(self, table1_cfg):
        # Both local counts invert one uniform and share their members, so
        # the gap varies little from seed to seed: its standard deviation
        # over 40 seeds at 1e4 trials was 0.0061 with independent local
        # fields and reads about 0.0017 coupled.
        gaps = []
        for seed in range(1, 41):
            pair = _conditional(table1_cfg, 5, 10_000, seed=seed)
            gaps.append(pair.exact.mean - pair.poisson_approx.mean)
        assert np.std(gaps, ddof=1) <= 0.0035

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
        # point's remote cluster count is Poisson(lambda_p pi R^2
        # (1 - exp(-p n_bar))) and the squared center radii are uniform on
        # its own disk. (Over seeds 100-399 each point's KS p-value falls
        # below 0.01 at 0.7-1.7% of the seeds.)
        points = _family_points(table1_cfg)
        radii = [default_region_radius(cfg) for cfg in points]
        assert len(set(radii)) == 3
        cells = []
        remote, member = montecarlo._remote_interference, montecarlo._member_interference

        def remote_spy(rng, n, alpha, mu, annulus, layer, rows, *, work):
            cells.append(dict(annulus=annulus, layer=layer,
                              sigmas=sorted({sigma for sigma, _ in rows})))
            return remote(rng, n, alpha, mu, annulus, layer, rows, work=work)

        def member_spy(rng, alpha, clusters, cx, active, rows, *, work):
            if not _is_local(rows):  # the clusters of the cell just opened
                cells[-1].update(clusters=clusters, cx=cx)
            return member(rng, alpha, clusters, cx, active, rows, work=work)

        monkeypatch.setattr(montecarlo, "_remote_interference", remote_spy)
        monkeypatch.setattr(montecarlo, "_member_interference", member_spy)
        n = 10_000  # one batch
        _rate_exceeds(points, 0.1, n, seed=5)
        mu = table1_cfg.access_p * table1_cfg.n_bar
        for c in cells:  # scored at the sigmas of the points it lies inside
            assert c["sigmas"] == sorted({
                cfg.sigma for cfg, radius in zip(points, radii)
                if c["annulus"][1] <= radius and c["layer"][1] <= cfg.lambda_p})
        for cfg, radius in zip(points, radii):
            mine = [c for c in cells
                    if c["annulus"][1] <= radius and c["layer"][1] <= cfg.lambda_p]
            counts = sum(c["clusters"] for c in mine)
            _assert_poisson_counts(
                counts, cfg.lambda_p * math.pi * radius**2 * -math.expm1(-mu))
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
    def test_single_link_shares_active_clusters(self, table1_cfg, kernel_calls):
        # A single-link request in a cell an ALOHA request takes: the cell
        # draws its active clusters once, Poisson(lambda_p pi R^2
        # (1 - exp(-mu))) with zero-truncated Poisson(mu) members for the
        # ALOHA field, and its silent clusters for the single link. Active
        # plus silent clusters are Poisson(lambda_p pi R^2) per trial, with
        # squared radii uniform on the disk.
        cfg = table1_cfg
        radius = default_region_radius(cfg)
        area = cfg.lambda_p * math.pi * radius**2
        mu = cfg.access_p * cfg.n_bar
        n = 10_000  # one batch
        simulate([ProbRateExceeds(cfg, 0.1), SingleLinkCoverage(cfg)], n, seed=13)
        active, silent = [call for call in kernel_calls
                          if not _is_local(call["rows"])]
        assert active["rows"] == [(cfg.sigma, None), (cfg.sigma, 1)]
        assert silent["active"] is None and silent["rows"] == [(cfg.sigma, 1)]
        _assert_poisson_counts(active["clusters"] + silent["clusters"], area)
        centers = np.concatenate([active["cx"], silent["cx"]])
        assert centers.max() <= radius
        assert stats.kstest((centers / radius) ** 2, "uniform").pvalue > 0.01
        _assert_poisson_counts(active["clusters"], area * -math.expm1(-mu))
        nonzero = -math.expm1(-mu)
        e1, e2, e3, e4 = (m / nonzero for m in _poisson_raw_moments(mu))
        kappa4 = e4 - 4 * e3 * e1 - 3 * e2**2 + 12 * e2 * e1**2 - 6 * e1**4
        assert active["active"].min() >= 1
        _assert_moments(active["active"], e1, e2 - e1**2, kappa4)

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
            rng, cfg.alpha, clusters, cx, active, [(cfg.sigma, None), (cfg.sigma, 1)],
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
        # cluster j, whatever the other clusters of its trial hold; rows at
        # two scales share the members.
        cfg = table1_cfg
        src = _philox(16)
        n = 2000
        clusters = src.integers(0, 4, n)
        owner = np.repeat(np.arange(n), clusters)
        cx = src.uniform(0.0, 300.0, owner.size)
        active = src.integers(0, 5, owner.size)
        cap = src.integers(0, 6, owner.size)
        rng = _RecordingRng(17)
        scales = (cfg.sigma, 3 * cfg.sigma)
        rows = _member_interference(rng, cfg.alpha, clusters, cx, active,
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
        with pytest.raises(ConfigError, match="r0_over_w1 must be finite"):
            ProbRateExceeds(table1_cfg, math.nan)

    def test_rejects_negative_rate_threshold(self, table1_cfg):
        # As the analytic prob_rate_exceeds does.
        with pytest.raises(ConfigError, match="r0_over_w1 must be finite and "
                                              "non-negative, got -1.0"):
            ProbRateExceeds(table1_cfg, -1.0)
        with pytest.raises(ConfigError, match="r0_over_w1 must be finite and "
                                              "non-negative, got -1.0"):
            prob_rate_exceeds(table1_cfg, -1.0)

    def test_rejects_too_few_trials(self, table1_cfg):
        with pytest.raises(ConfigError, match="trials must be at least 1"):
            _single_link([table1_cfg], 0, 1)

    def test_rejects_non_integral_k(self, table1_cfg):
        with pytest.raises(ConfigError, match="k must be an integer"):
            ConditionalCoverage(table1_cfg, 2.5)
