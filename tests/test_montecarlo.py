"""Simulator self-checks and analytic-vs-simulation agreement at unit scale.

The full 1e5-trial agreement grid lives in the acceptance suite; here the
simulator's own statistics (cluster counts, center radii, thinned
active counts, offsets, the remote Laplace functional, determinism,
truncation) are verified and the agreement is spot-checked at 2e4 trials.
"""

import math

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

from clustercache import montecarlo
from clustercache.errors import ConfigError, InfeasibleAccessProbability
from clustercache.montecarlo import (
    _local_interference,
    _member_interference,
    _remote_interference,
    default_region_radius,
    mc_coverage_conditional,
    mc_coverage_single_link,
    mc_prob_rate_exceeds,
)
from clustercache.stochgeo import (
    LaplaceArg,
    d2d_coverage_conditional,
    d2d_coverage_single_link,
    laplace_inter,
    prob_rate_exceeds,
    serving_distance_pdf,
)



def _philox(seed):
    return np.random.Generator(np.random.Philox(seed))


class _RecordingRng:
    """Forwards to a Philox generator and keeps every array it returns."""

    def __init__(self, seed):
        self._rng = _philox(seed)
        self.draws = {}

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def record(*args, **kwargs):
            out = method(*args, **kwargs)
            self.draws.setdefault(name, []).append(out)
            return out

        return record


@pytest.fixture()
def kernel_calls(monkeypatch):
    """Arguments the samplers hand to the member kernel, one dict per call."""
    calls = []
    real = montecarlo._member_interference

    def spy(rng, cfg, owner, cx, cy, active, n):
        calls.append(dict(owner=owner, cx=cx, cy=cy, active=active, n=n))
        return real(rng, cfg, owner, cx, cy, active, n)

    monkeypatch.setattr(montecarlo, "_member_interference", spy)
    return calls


def _assert_poisson_counts(counts, mean):
    # Sample mean and variance both within four standard errors of a
    # Poisson(mean) law (Var of the sample variance ~ (mean + 2 mean^2)/n).
    n = counts.size
    assert counts.mean() == pytest.approx(mean, abs=4 * math.sqrt(mean / n))
    assert counts.var(ddof=1) == pytest.approx(
        mean, abs=4 * math.sqrt((mean + 2 * mean**2) / n))


class TestMemberKernel:
    def test_remote_cluster_counts_are_poisson(self, table1_cfg, kernel_calls):
        cfg = table1_cfg
        radius = default_region_radius(cfg)
        n = 20000
        _remote_interference(_philox(1), cfg, n, radius, False)
        (call,) = kernel_calls
        counts = np.bincount(call["owner"], minlength=n)
        _assert_poisson_counts(counts, cfg.lambda_p * math.pi * radius**2)

    def test_remote_center_radii_are_uniform_in_disk(self, table1_cfg,
                                                     kernel_calls):
        # Centers on the +x axis at radius R sqrt(U): (cx/R)^2 is U(0, 1).
        cfg = table1_cfg
        radius = default_region_radius(cfg)
        _remote_interference(_philox(2), cfg, 4000, radius, False)
        (call,) = kernel_calls
        assert call["cy"] is None
        assert call["cx"].min() >= 0.0 and call["cx"].max() <= radius
        ks = stats.kstest((call["cx"] / radius) ** 2, "uniform")
        assert ks.pvalue > 0.01

    def test_remote_active_counts_are_thinned(self, table1_cfg, kernel_calls):
        cfg = table1_cfg
        _remote_interference(_philox(3), cfg, 4000,
                             default_region_radius(cfg), False)
        _remote_interference(_philox(3), cfg, 4000,
                             default_region_radius(cfg), True)
        thinned, single = kernel_calls
        _assert_poisson_counts(thinned["active"], cfg.access_p * cfg.n_bar)
        assert np.all(single["active"] == 1)

    @pytest.mark.parametrize("mode, k", [("aloha", 0), ("binomial", 9),
                                         ("poisson_pk", 9)])
    def test_local_active_counts(self, table1_cfg, kernel_calls, mode, k):
        cfg = table1_cfg
        n = 50000
        centers = _philox(4).normal(0.0, cfg.sigma, (n, 2))
        _local_interference(_philox(5), cfg, centers, mode, k)
        (call,) = kernel_calls
        active = call["active"]
        assert np.array_equal(call["owner"], np.arange(n))
        assert np.array_equal(call["cx"], centers[:, 0])
        assert np.array_equal(call["cy"], centers[:, 1])
        p = cfg.access_p
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

    def test_offsets_are_rayleigh_and_sum_is_exact(self, table1_cfg):
        # Each active member is Gaussian-displaced from its center, so its
        # distance to the center is Rayleigh(sigma); the kernel returns the
        # per-trial sum of fade * distance^-alpha over those members.
        cfg = table1_cfg.replace(alpha=3.5)
        src = _philox(6)
        n = 3000
        owner = np.repeat(np.arange(n), 2)
        cx = src.uniform(-200.0, 200.0, owner.size)
        cy = src.uniform(-200.0, 200.0, owner.size)
        active = src.integers(0, 4, owner.size)
        rng = _RecordingRng(7)
        got = _member_interference(rng, cfg, owner, cx, cy, active, n)
        (offsets,), (fade,) = rng.draws["normal"], rng.draws["exponential"]
        radial = np.hypot(offsets[0], offsets[1])
        assert radial.size == active.sum()
        ks = stats.kstest(radial, "rayleigh", args=(0, cfg.sigma))
        assert ks.pvalue > 0.01
        cluster = np.repeat(np.arange(owner.size), active)
        pos = np.column_stack([cx[cluster], cy[cluster]]) + offsets.T
        expected = np.bincount(
            owner[cluster],
            weights=fade * np.linalg.norm(pos, axis=1) ** (-cfg.alpha),
            minlength=n,
        )
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_remote_laplace_functional_matches_analytic(self, table1_cfg):
        # Same check and bound as the raw-construction oracle
        # TestLaplaceTransforms::test_inter_against_direct_simulation:
        # E[exp(-s P_d I)] at r = 2 sigma against laplace_inter.
        cfg = table1_cfg
        arg = LaplaceArg.from_link(cfg.theta, 2 * cfg.sigma, cfg.alpha, cfg.p_d)
        radius = default_region_radius(cfg)
        rng = _philox(8)
        total = 0.0
        batches = 40
        for _ in range(batches):
            unit = _remote_interference(rng, cfg, 10_000, radius, False)
            total += np.exp(-arg.s * cfg.p_d * unit).sum()
        mc = total / (batches * 10_000)
        assert laplace_inter(arg, cfg) == pytest.approx(mc, rel=0.01)


class TestDeterminism:
    def test_identical_seed_identical_estimate(self, table1_cfg):
        a = mc_prob_rate_exceeds(table1_cfg, 0.1, 5000, seed=99)
        b = mc_prob_rate_exceeds(table1_cfg, 0.1, 5000, seed=99)
        assert a == b

    def test_different_seed_different_estimate(self, table1_cfg):
        a = mc_prob_rate_exceeds(table1_cfg, 0.1, 5000, seed=99)
        b = mc_prob_rate_exceeds(table1_cfg, 0.1, 5000, seed=100)
        assert a.mean != b.mean

    def test_half_width_formula(self, table1_cfg):
        est = mc_prob_rate_exceeds(table1_cfg, 0.1, 5000, seed=99)
        n = est.samples
        std = math.sqrt(n / (n - 1) * est.mean * (1 - est.mean))
        assert est.half_width_95 == pytest.approx(1.96 * std / math.sqrt(n))
        assert est.seed == 99


class TestProbRateExceedsMc:
    def test_certain_coverage_at_tiny_threshold(self, table1_cfg):
        cfg = table1_cfg.replace(theta=1e-9)
        est = mc_prob_rate_exceeds(cfg, 0.0, 2000, seed=5)
        assert est.mean > 0.999

    def test_interference_dominated_limit(self, table1_cfg):
        cfg = table1_cfg.replace(access_p=1.0, lambda_p=5e-3, n_bar=20.0)
        est = mc_prob_rate_exceeds(cfg, 0.1, 2000, seed=5)
        assert est.mean < 0.02

    def test_matches_analytic(self, table1_cfg):
        est = mc_prob_rate_exceeds(table1_cfg, 0.1, 20000, seed=31)
        analytic = prob_rate_exceeds(table1_cfg, 0.1).value
        assert abs(est.mean - analytic) < 0.02

    def test_feasibility_enforced(self, table1_cfg):
        with pytest.raises(InfeasibleAccessProbability):
            mc_prob_rate_exceeds(table1_cfg.replace(access_p=0.01), 0.1, 100, seed=1)


class TestConditionalCoverageMc:
    def test_k1_exact_mode_has_no_intra_interference(self, table1_cfg):
        # With one device the serving transmitter is alone in the cluster,
        # so the exact estimate matches the inter-cluster-only integral.
        cfg = table1_cfg
        pair = mc_coverage_conditional(cfg, 1, 20000, seed=17)
        inter_only, _ = quad(
            lambda r: serving_distance_pdf(r, cfg.sigma)
            * laplace_inter(LaplaceArg.from_link(cfg.theta, r, cfg.alpha, cfg.p_d), cfg),
            0, 14 * cfg.sigma,
        )
        assert abs(pair.exact.mean - inter_only) < 0.02

    def test_poisson_approx_matches_analytic(self, table1_cfg):
        pair = mc_coverage_conditional(table1_cfg, 5, 20000, seed=23)
        analytic = d2d_coverage_conditional(table1_cfg, 5).value
        assert abs(pair.poisson_approx.mean - analytic) < 0.02

    def test_exact_vs_approx_gap_is_small(self, table1_cfg):
        # The Poisson(p k) interferer count overcounts the exact model's
        # k-1 potential interferers by about one device; at k = 5 and
        # p = 0.1 the measured coverage gap is ~3.3%, shrinking with k.
        pair = mc_coverage_conditional(table1_cfg, 5, 20000, seed=23)
        gap5 = abs(pair.exact.mean - pair.poisson_approx.mean)
        assert gap5 < 0.05
        pair20 = mc_coverage_conditional(table1_cfg, 20, 20000, seed=23)
        gap20 = abs(pair20.exact.mean - pair20.poisson_approx.mean)
        assert gap20 < gap5

    def test_rejects_empty_cluster(self, table1_cfg):
        with pytest.raises(ConfigError):
            mc_coverage_conditional(table1_cfg, 0, 100, seed=1)


class TestSingleLinkMc:
    def test_limit_at_vanishing_density(self, table1_cfg):
        est = mc_coverage_single_link(table1_cfg.replace(lambda_p=1e-12),
                                      2000, seed=3)
        assert est.mean > 0.999

    def test_reference_point(self, table1_cfg):
        est = mc_coverage_single_link(table1_cfg, 20000, seed=41)
        assert est.mean == pytest.approx(0.962, abs=0.01)
        analytic = d2d_coverage_single_link(table1_cfg).value
        assert abs(est.mean - analytic) < 0.02

    def test_monotone_decreasing_in_sigma(self, table1_cfg):
        means = [
            mc_coverage_single_link(table1_cfg.replace(sigma=s), 20000,
                                    seed=43).mean
            for s in (10.0, 20.0, 30.0)
        ]
        assert means[0] > means[1] > means[2]

    def test_truncation_bias_below_noise(self, table1_cfg):
        # Doubling the simulation disk moves the estimate by less than
        # the combined 95% half-widths.
        radius = default_region_radius(table1_cfg)
        a = mc_coverage_single_link(table1_cfg, 50000, seed=47,
                                    region_radius=radius)
        b = mc_coverage_single_link(table1_cfg, 50000, seed=47,
                                    region_radius=2 * radius)
        assert abs(a.mean - b.mean) < a.half_width_95 + b.half_width_95
