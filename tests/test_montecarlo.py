"""Simulator self-checks and analytic-vs-simulation agreement at unit scale.

The full 1e5-trial agreement grid lives in the acceptance suite; here the
simulator's own statistics (cluster counts, offsets, determinism,
truncation) are verified and the agreement is spot-checked at 2e4 trials.
"""

import math

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

from clustercache.errors import ConfigError, InfeasibleAccessProbability
from clustercache.montecarlo import (
    default_region_radius,
    mc_coverage_conditional,
    mc_coverage_single_link,
    mc_prob_rate_exceeds,
    sample_tcp,
)
from clustercache.stochgeo import (
    LaplaceArg,
    d2d_coverage_conditional,
    d2d_coverage_single_link,
    laplace_inter,
    prob_rate_exceeds,
    serving_distance_pdf,
)



class TestSampleTcp:
    def test_empty_when_density_vanishes(self, table1_cfg):
        real = sample_tcp(table1_cfg.replace(lambda_p=1e-300), 100.0, rng_seed=1)
        assert real.centers.shape == (0, 2)
        assert real.members == ()

    def test_cluster_and_member_statistics(self, table1_cfg):
        # Radius chosen so ~1e4 clusters are drawn in a single realization.
        cfg = table1_cfg
        radius = math.sqrt(1e4 / (cfg.lambda_p * math.pi))
        real = sample_tcp(cfg, radius, rng_seed=7)
        n = real.centers.shape[0]
        assert n == pytest.approx(1e4, abs=4 * math.sqrt(1e4))
        counts = np.array([m.shape[0] for m in real.members])
        se = math.sqrt(cfg.n_bar / n)
        assert counts.mean() == pytest.approx(cfg.n_bar, abs=3 * se)

    def test_offsets_are_gaussian(self, table1_cfg):
        cfg = table1_cfg
        radius = math.sqrt(2e3 / (cfg.lambda_p * math.pi))
        real = sample_tcp(cfg, radius, rng_seed=11)
        offsets = np.concatenate([m for m in real.members if m.size])
        # Empirical per-axis variance approaches sigma^2 ...
        n = offsets.size
        assert offsets.std() == pytest.approx(
            cfg.sigma, rel=3.0 / math.sqrt(2 * n)
        )
        # ... and the radial distance is Rayleigh(sigma).
        radial = np.linalg.norm(offsets, axis=1)
        ks = stats.kstest(radial, "rayleigh", args=(0, cfg.sigma))
        assert ks.pvalue > 0.01

    def test_bad_radius_rejected(self, table1_cfg):
        with pytest.raises(ConfigError):
            sample_tcp(table1_cfg, 0.0, rng_seed=1)


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
