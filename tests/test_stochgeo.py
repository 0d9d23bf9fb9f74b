"""Analytic coverage quantities: densities, Laplace transforms, coverage.

The coverage tables are checked against the adaptive Laplace oracle of
``laplace_oracle``, and the oracle against direct Monte Carlo estimates
of E[exp(-s I)] built here from scratch (cluster sampling and
exponential fading only, no shared code with the module under test).
"""

import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.integrate import quad

from clustercache.errors import (
    ConfigError,
    InfeasibleAccessProbability,
    NumericFailure,
)
from clustercache.model import NetworkConfig
from clustercache.stochgeo import (
    average_rate,
    bs_coverage,
    d2d_coverage_conditional,
    d2d_coverage_single_link,
    optimal_access_probability,
    prob_rate_exceeds,
    serving_distance_pdf,
)
from clustercache import stochgeo

from conftest import TABLE1
from laplace_oracle import checked_quad, laplace_inter, laplace_intra


class TestServingDistancePdf:
    def test_vanishes_at_origin(self):
        assert serving_distance_pdf(0.0, 10.0) == 0.0

    def test_mode_value(self):
        # Rayleigh(sqrt(2) sigma) peaks at r = sigma sqrt(2).
        sigma = 10.0
        mode = sigma * math.sqrt(2.0)
        expected = (mode / (2 * sigma**2)) * math.exp(-0.5)
        assert serving_distance_pdf(mode, sigma) == pytest.approx(expected, rel=1e-14)
        grid = np.linspace(0.01, 60, 500)
        assert serving_distance_pdf(grid, sigma).max() <= expected + 1e-15

    def test_normalises(self):
        val, _ = quad(lambda r: serving_distance_pdf(r, 17.0), 0, np.inf)
        assert abs(val - 1.0) < 1e-10

    def test_no_density_at_negative_distance(self):
        # As for the Rice density: a distance is never negative.
        assert serving_distance_pdf(-1.0, 1.0) == 0.0
        np.testing.assert_array_equal(serving_distance_pdf([-3.0, -1e-300, 0.0], 2.0),
                                      [0.0, 0.0, 0.0])
        assert serving_distance_pdf(1.0, 1.0) > 0.0

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_rejects_invalid_sigma(self, sigma):
        with pytest.raises(ConfigError, match="sigma"):
            serving_distance_pdf(1.0, sigma)


class TestRicePdf:
    def test_reduces_to_rayleigh_at_zero_offset(self):
        u = np.linspace(0.0, 80.0, 200)
        sigma = 12.0
        rayleigh = (u / sigma**2) * np.exp(-(u**2) / (2 * sigma**2))
        assert np.allclose(stochgeo._rice_pdf(u, 0.0, sigma), rayleigh,
                           atol=1e-14)

    def test_normalises(self):
        val, _ = quad(lambda u: stochgeo._rice_pdf(u, 50.0, 10.0), 0, np.inf,
                      limit=200)
        assert abs(val - 1.0) < 1e-8

    def test_mean_matches_large_offset_expansion(self):
        # E[U] -> v + sigma^2/(2v) for v >> sigma; the next term is
        # -sigma^4/(8 v^3) ~ 1.3e-3 here, which sets the tolerance.
        v, sigma = 100.0, 10.0
        mean, _ = quad(lambda u: u * stochgeo._rice_pdf(u, v, sigma), 0,
                       v + 15 * sigma, limit=200)
        assert mean == pytest.approx(v + sigma**2 / (2 * v), abs=2e-3)

    def test_no_overflow_at_huge_distances(self):
        val = stochgeo._rice_pdf(1.0e6, 1.0e6, 10.0)
        assert np.isfinite(val) and val > 0.0

    def test_bessel_bit_identical_to_scipy(self):
        # Same Cephes coefficients and order of operations as
        # scipy.special.i0e, on both branches, across the split at 8 and
        # over blocks that mix the two.
        x = np.concatenate([np.linspace(0.0, 8.0, 100_001),
                            np.geomspace(8.0, 1e9, 100_001)])
        np.testing.assert_array_equal(stochgeo._i0e_inplace(x.copy()),
                                      special.i0e(x))
        rng = np.random.default_rng(3)
        mixed = rng.uniform(-30.0, 30.0, (40, 2, 480))
        np.testing.assert_array_equal(stochgeo._i0e_inplace(mixed.copy()),
                                      special.i0e(mixed))
        assert stochgeo._i0e_inplace(np.asarray(3.0)) == special.i0e(3.0)


class TestLaplaceTransforms:
    def test_unit_at_zero_argument(self, table1_cfg):
        assert laplace_inter(0.0, table1_cfg) == 1.0
        assert laplace_intra(0.0, 0.5, 10.0, 4.0) == 1.0

    def test_unit_without_interferers(self, table1_cfg):
        s_sir = 1.0 * 20.0**4  # theta = 1, r = 20 m, alpha = 4
        empty = replace(table1_cfg, lambda_p=1e-300)
        assert laplace_inter(s_sir, empty) == pytest.approx(1.0, abs=1e-12)
        assert laplace_intra(s_sir, 0.0, 10.0, 4.0) == 1.0

    @pytest.mark.parametrize("alpha", [3.0, 4.0])
    def test_monotone_in_argument_and_bounded(self, table1_cfg, alpha):
        cfg = replace(table1_cfg, alpha=alpha)
        values_inter, values_intra = [], []
        for s in np.logspace(2, 9, 8):
            values_inter.append(laplace_inter(s, cfg))
            values_intra.append(laplace_intra(s, 0.5, cfg.sigma, alpha))
        for seq in (values_inter, values_intra):
            assert all(0.0 < v <= 1.0 for v in seq)
            assert all(a >= b - 1e-12 for a, b in zip(seq, seq[1:]))

    def test_inter_against_direct_simulation(self, table1_cfg, rng):
        # E[exp(-s I)] with I the inter-cluster interference in watts,
        # simulated from the raw cluster construction.
        cfg = table1_cfg
        r = 2 * cfg.sigma
        s_sir = cfg.theta * r**cfg.alpha
        analytic = laplace_inter(s_sir, cfg)

        trials = 400_000
        radius = max(15 * cfg.sigma, 5 / math.sqrt(math.pi * cfg.lambda_p))
        counts = rng.poisson(cfg.lambda_p * math.pi * radius**2, trials)
        total = int(counts.sum())
        trial_of_cluster = np.repeat(np.arange(trials), counts)
        rad = radius * np.sqrt(rng.random(total))
        ang = rng.random(total) * 2 * math.pi
        centers = np.column_stack([rad * np.cos(ang), rad * np.sin(ang)])
        members = rng.poisson(cfg.n_bar, total)
        m_total = int(members.sum())
        of_cluster = np.repeat(np.arange(total), members)
        pos = centers[of_cluster] + rng.normal(0, cfg.sigma, (m_total, 2))
        active = rng.random(m_total) < cfg.access_p
        fade = rng.exponential(1.0, m_total)
        dist = np.linalg.norm(pos, axis=1)
        watts = cfg.p_d * np.where(active, fade * dist ** (-cfg.alpha), 0.0)
        interference = np.bincount(trial_of_cluster[of_cluster], weights=watts,
                                   minlength=trials)
        mc = np.exp(-(s_sir / cfg.p_d) * interference).mean()
        assert analytic == pytest.approx(mc, rel=0.01)

    def test_intra_against_direct_simulation(self, table1_cfg, rng):
        # True correlated construction: members share the cluster center.
        cfg = table1_cfg
        r = cfg.sigma
        s_sir = cfg.theta * r**cfg.alpha
        analytic = laplace_intra(s_sir, cfg.access_p * cfg.n_bar, cfg.sigma, cfg.alpha)

        trials = 400_000
        center = rng.normal(0, cfg.sigma, (trials, 2))
        members = rng.poisson(cfg.n_bar, trials)
        total = int(members.sum())
        of_trial = np.repeat(np.arange(trials), members)
        pos = center[of_trial] + rng.normal(0, cfg.sigma, (total, 2))
        active = rng.random(total) < cfg.access_p
        fade = rng.exponential(1.0, total)
        dist = np.linalg.norm(pos, axis=1)
        watts = cfg.p_d * np.where(active, fade * dist ** (-cfg.alpha), 0.0)
        interference = np.bincount(of_trial, weights=watts, minlength=trials)
        mc = np.exp(-(s_sir / cfg.p_d) * interference).mean()
        assert analytic == pytest.approx(mc, rel=0.01)

    def test_quadrature_failure_reports_diagnostics(self):
        with pytest.raises(NumericFailure, match="diverge|converge"):
            checked_quad(lambda x: math.sin(1.0 / x) / x**2, 0.0, 1.0,
                          what="diverging oscillation")


class TestProbRateExceeds:
    def test_outage_certain_at_huge_threshold(self, table1_cfg):
        values = [
            prob_rate_exceeds(replace(table1_cfg, theta=t, access_p=0.5), 0.1)
            for t in (1.0, 10.0, 100.0, 1e4, 1e6)
        ]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[-1] < 5e-3

    def test_decreasing_in_sigma(self):
        # Larger spread means longer serving links and closer interferers.
        cfg = NetworkConfig(**{**TABLE1, "n_bar": 12.0, "sigma": 30.0})
        values = [
            prob_rate_exceeds(replace(cfg, sigma=s), 0.1)
            for s in (10.0, 20.0, 30.0, 40.0, 50.0)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_decreasing_in_cluster_population(self, table1_cfg):
        values = [
            prob_rate_exceeds(replace(table1_cfg, n_bar=n), 0.1)
            for n in (2.0, 4.0, 8.0, 16.0, 32.0)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_decreasing_in_access_probability(self, table1_cfg):
        # More simultaneous transmitters only add interference.
        values = [
            prob_rate_exceeds(replace(table1_cfg, access_p=p), 0.1)
            for p in (0.2, 0.4, 0.6, 0.8, 1.0)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_infeasible_access_probability(self, table1_cfg):
        with pytest.raises(InfeasibleAccessProbability):
            prob_rate_exceeds(replace(table1_cfg, access_p=0.05), 0.1)

    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), -0.1])
    def test_rejects_non_finite_threshold(self, table1_cfg, rate):
        with pytest.raises(ConfigError, match="r0_over_w1"):
            prob_rate_exceeds(table1_cfg, rate)


class TestConditionalCoverage:
    def test_degenerate_without_transmissions(self, table1_cfg):
        # No device transmits: nothing interferes, and coverage is certain.
        result = d2d_coverage_conditional(replace(table1_cfg, access_p=0.0), 3)
        assert result == 1.0

    def test_matches_direct_composition_at_k1(self, table1_cfg):
        # k=1 and p=1: integral of f_R * L_inter * L_intra(intensity 1).
        cfg = replace(table1_cfg, access_p=1.0)
        expected, _ = quad(
            lambda r: serving_distance_pdf(r, cfg.sigma)
            * laplace_inter(cfg.theta * r**cfg.alpha, cfg)
            * laplace_intra(cfg.theta * r**cfg.alpha, 1.0, cfg.sigma, cfg.alpha),
            0, 14 * cfg.sigma,
        )
        got = d2d_coverage_conditional(cfg, 1)
        assert got == pytest.approx(expected, rel=1e-6)

    def test_non_increasing_in_k(self, table1_cfg):
        values = [d2d_coverage_conditional(table1_cfg, k)
                  for k in (1, 2, 5, 10, 20)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_rejects_empty_cluster(self, table1_cfg):
        with pytest.raises(ConfigError):
            d2d_coverage_conditional(table1_cfg, 0)


def _adaptive_coverage(cfg, intensity):
    """The coverage integral by adaptive quadrature of the oracle transforms."""

    def integrand(r):
        s_sir = cfg.theta * r**cfg.alpha
        return (serving_distance_pdf(r, cfg.sigma) * laplace_inter(s_sir, cfg)
                * laplace_intra(s_sir, intensity, cfg.sigma, cfg.alpha))

    sigma = cfg.sigma
    breaks = [sigma, 2 * sigma, 4 * sigma]
    breaks += [b * cfg.theta ** (-1 / cfg.alpha) for b in breaks]
    value, _ = quad(integrand, 0, 14 * sigma,
                    points=[b for b in breaks if b < 14 * sigma], limit=200,
                    epsabs=1e-12, epsrel=1e-10)
    return value


# Validate's six (sigma, theta) points, both ends of alpha, a high threshold,
# both ends of sigma, a dense network and a crowded cluster.
ENGINE_CONFIGS = {
    **{f"sigma={s:g},theta_db={t:g}": dict(sigma=s, theta=10 ** (t / 10))
       for s in (10.0, 20.0, 30.0) for t in (0.0, 3.0)},
    "alpha=2.5": dict(alpha=2.5),
    "alpha=2.75,theta_db=3": dict(alpha=2.75, theta=10 ** (3 / 10)),
    "alpha=3": dict(alpha=3.0),
    "alpha=6": dict(alpha=6.0),
    "theta=10,p=0.5": dict(theta=10.0, access_p=0.5),
    "theta=1e4,p=0.5": dict(theta=1e4, access_p=0.5),
    "sigma=2": dict(sigma=2.0),
    "sigma=50,lambda=200/km2": dict(sigma=50.0, lambda_p=200e-6),
    "n_bar=40,p=0.5": dict(n_bar=40.0, access_p=0.5),
}
# A dense network with a crowded cluster: the two lowest rules differ by
# three times the tolerance (coverage 2.5e-3), so the ladder climbs to its top rule.
STRESS = dict(theta=10.0, n_bar=40.0, access_p=1.0, sigma=50.0, lambda_p=50e-6)


def _clear_coverage_caches():
    for fn in (stochgeo._coverage_table, prob_rate_exceeds, d2d_coverage_conditional):
        fn.cache_clear()


@pytest.fixture()
def fresh_coverage_caches():
    # Tables are shared by every config with the same (alpha, theta, p*nbar):
    # a test must not read tables built before it, and tables built under
    # patched rules must not leak into later tests.
    _clear_coverage_caches()
    yield
    _clear_coverage_caches()


class TestCoverageEngine:
    @pytest.mark.parametrize("overrides", ENGINE_CONFIGS.values(), ids=ENGINE_CONFIGS)
    def test_matches_adaptive_oracle(self, table1_cfg, overrides):
        cfg = replace(table1_cfg, **overrides)
        got = prob_rate_exceeds(cfg, 0.1)
        expected = _adaptive_coverage(cfg, cfg.access_p * cfg.n_bar)
        assert abs(got - expected) <= max(1e-9, 1e-7 * expected)

    def test_one_table_serves_every_coverage(self, table1_cfg):
        cfg = replace(table1_cfg, n_bar=5.75)  # a (alpha, theta, p*nbar) no test uses
        misses = stochgeo._coverage_table.cache_info().misses
        prob_rate_exceeds(cfg, 0.1)
        for k in range(1, 13):
            d2d_coverage_conditional(cfg, k)
        # The two lowest rules of the ladder, built once each.
        assert stochgeo._coverage_table.cache_info().misses == misses + 2

    @pytest.mark.parametrize("c", [0.5, 2.0, 3.0, 7.3])
    def test_invariant_under_sigma_lambda_scaling(self, table1_cfg, c):
        # sigma -> c sigma, lambda_p -> lambda_p / c**2 keeps lambda_p sigma**2.
        scaled = replace(table1_cfg, sigma=c * table1_cfg.sigma,
                         lambda_p=table1_cfg.lambda_p / c**2)
        for coverage in (lambda cfg: prob_rate_exceeds(cfg, 0.1),
                         lambda cfg: d2d_coverage_conditional(cfg, 5)):
            assert coverage(scaled) == pytest.approx(
                coverage(table1_cfg), rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("field, values", [
        ("sigma", (5.0, 10.0, 20.0, 30.0, 40.0)),
        ("lambda_p", (5e-6, 10e-6, 20e-6, 40e-6, 80e-6)),
    ])
    def test_sweep_builds_the_tables_of_one_point(self, table1_cfg, field, values,
                                                  fresh_coverage_caches):
        def builds(points):
            _clear_coverage_caches()
            for cfg in points:
                prob_rate_exceeds(cfg, 0.1)
                d2d_coverage_conditional(cfg, 5)
            return stochgeo._coverage_table.cache_info().misses

        sweep = [replace(table1_cfg, **{field: v}) for v in values]
        assert builds(sweep) == max(builds([cfg]) for cfg in sweep)

    def test_powers_and_bandwidth_build_nothing(self, table1_cfg,
                                                fresh_coverage_caches):
        expected = (prob_rate_exceeds(table1_cfg, 0.1),
                    d2d_coverage_conditional(table1_cfg, 5))
        misses = stochgeo._coverage_table.cache_info().misses
        for field, value in (("p_d", 1.0), ("p_b", 100.0), ("w_total", 10e6)):
            cfg = replace(table1_cfg, **{field: value})
            assert (prob_rate_exceeds(cfg, 0.1),
                    d2d_coverage_conditional(cfg, 5)) == expected
        assert stochgeo._coverage_table.cache_info().misses == misses

    def test_stress_config_escalates(self, table1_cfg, fresh_coverage_caches,
                                     monkeypatch):
        cfg = replace(table1_cfg, **STRESS)
        levels = []
        table = stochgeo._coverage_table
        table.cache_clear()  # count the builds of this config

        def recording(alpha, theta, mu, level):
            levels.append(level)
            return table(alpha, theta, mu, level)

        monkeypatch.setattr(stochgeo, "_coverage_table", recording)
        intensity = cfg.access_p * cfg.n_bar
        value = stochgeo._coverage(cfg, intensity, "stress")
        assert levels == [0, 1, 2]
        assert table.cache_info().misses == 3
        key = (cfg.alpha, cfg.theta, intensity)
        assert value == table(*key, 2).coverage(cfg.lambda_p * cfg.sigma**2, intensity)

    def test_disagreeing_rules_raise(self, table1_cfg, monkeypatch,
                                     fresh_coverage_caches):
        monkeypatch.setattr(stochgeo, "_RULES", ((2, 2, 2), (3, 3, 4), (4, 4, 6)))
        with pytest.raises(NumericFailure,
                           match="give .* and .*exceeds tolerance") as failure:
            prob_rate_exceeds(replace(table1_cfg, sigma=23.5), 0.1)
        assert "rules (4, 4, 6) and (3, 3, 4) give" in str(failure.value)

    def test_table1_tables_share_their_bessel_work(self, table1_cfg, monkeypatch,
                                                   fresh_coverage_caches):
        # The Rice density is evaluated once per (v, u) pair of a table, not
        # once per serving distance: the per-distance kernels took 516,096
        # Bessel arguments for these two tables.
        arguments = 0
        i0e = stochgeo._i0e_inplace

        def counting(x):
            nonlocal arguments
            arguments += x.size
            return i0e(x)

        monkeypatch.setattr(stochgeo, "_i0e_inplace", counting)
        prob_rate_exceeds(table1_cfg, 0.1)
        assert stochgeo._coverage_table.cache_info().misses == 2
        assert 0 < arguments <= 100_000

    def test_vanishing_threshold(self, table1_cfg, fresh_coverage_caches):
        # Kernel knees far below the first interferer-distance panel, and
        # SIR arguments that underflow to 0, where the intra-cluster
        # integral is 0/0.
        assert d2d_coverage_conditional(replace(table1_cfg, theta=1e-60), 3) == \
            pytest.approx(1.0, abs=1e-12)
        with pytest.raises(NumericFailure, match="non-finite"), np.errstate(invalid="ignore"):
            d2d_coverage_conditional(replace(table1_cfg, theta=1e-320), 3)

    def test_non_finite_table_raises(self, table1_cfg, monkeypatch,
                                     fresh_coverage_caches):
        monkeypatch.setattr(stochgeo, "_log_inter",
                            lambda s_sir, alpha, mu, n_v, n_u: np.full(s_sir.shape, np.nan))
        with pytest.raises(NumericFailure, match="non-finite"):
            d2d_coverage_conditional(replace(table1_cfg, sigma=23.5), 3)


# The radial breaks and nodes the tables had before sliver panels were
# merged and weightless nodes dropped.
UNMERGED = dict(_BREAK_RATIO=1.0, _WEIGHTLESS=0.0)
THETAS = (0.5, 0.8, 1.2, 10**0.3, 2.4)


class TestRadialRule:
    def test_three_db_has_the_nodes_of_zero_db(self, monkeypatch,
                                               fresh_coverage_caches):
        # validate's 3 dB key: the breaks theta**(-1/alpha) * {1, 2, 4} lie
        # a factor 1.19 below {1, 2, 4} and merge into them.
        def nodes(theta, level):
            return stochgeo._coverage_table(4.0, theta, 0.5, level).weights.size

        assert [nodes(10**0.3, level) for level in (0, 1)] == [
            nodes(1.0, level) for level in (0, 1)]
        assert stochgeo._radial_edges(4.0, 10**0.3) == [0.0, 1.0, 2.0, 4.0, 14.0]
        assert stochgeo._radial_edges(4.0, 1.0) == [0.0, 1.0, 2.0, 4.0, 14.0]
        for name, value in UNMERGED.items():
            monkeypatch.setattr(stochgeo, name, value)
        # Seven panels, then, against four at 0 dB.
        assert [stochgeo._radial_rule(4.0, 10**0.3, n)[0].size
                for n, _, _ in stochgeo._RULES[:2]] == [84, 112]
        assert stochgeo._radial_edges(4.0, 1.0) == [0.0, 1.0, 2.0, 4.0, 14.0]

    @pytest.mark.parametrize("alpha", [2.5, 3.0, 4.0, 6.0])
    def test_merged_ladder_matches_the_unmerged_top_rule(
            self, table1_cfg, alpha, monkeypatch, fresh_coverage_caches):
        # sigma = 10, 20, 30 m at 20 clusters/km^2; P(R1 > R0) and k = 1, 12.
        densities = (2e-3, 8e-3, 1.8e-2)
        intensities = (0.1, 0.5, 1.2)
        mu = table1_cfg.access_p * table1_cfg.n_bar

        def ladder(cfg):
            """Each coverage, and the number of tables the ladder built."""
            _clear_coverage_caches()
            values = [stochgeo._coverage(replace(cfg, lambda_p=d / cfg.sigma**2), i, "")
                      for d in densities for i in intensities]
            return values, stochgeo._coverage_table.cache_info().misses

        for theta in THETAS:
            cfg = replace(table1_cfg, alpha=alpha, theta=theta)
            merged, builds = ladder(cfg)
            with monkeypatch.context() as unmerged:
                for name, value in UNMERGED.items():
                    unmerged.setattr(stochgeo, name, value)
                _clear_coverage_caches()
                top = stochgeo._coverage_table(alpha, theta, mu, len(stochgeo._RULES) - 1)
                reference = [top.coverage(d, i) for d in densities for i in intensities]
                # The merged ladder builds no rule the unmerged one does not:
                # two tables is the least a ladder builds.
                assert builds == 2 or builds <= ladder(cfg)[1]
            np.testing.assert_allclose(merged, reference, rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("alpha", [2.5, 3.0, 4.0, 6.0])
    def test_dropped_radial_weight_is_below_1e_15(self, alpha):
        for theta in THETAS + (1.0, 100.0):
            for n, _, _ in stochgeo._RULES:
                r, w = stochgeo._gl_rule(stochgeo._radial_edges(alpha, theta), n)
                full = w * serving_distance_pdf(r, 1.0)
                kept_r, kept_w = stochgeo._radial_rule(alpha, theta, n)
                dropped = full < 1e-18
                assert dropped.any()
                np.testing.assert_array_equal(kept_r, r[~dropped])
                np.testing.assert_array_equal(kept_w, full[~dropped])
                assert full[dropped].sum() <= 1e-15


class TestBsCoverage:
    def test_alpha4_closed_form(self):
        got = bs_coverage(1.0, 4.0)
        assert got == pytest.approx(1.0 / (1.0 + math.atan(1.0)), abs=1e-10)

    def test_against_high_precision_series(self):
        # Independent evaluation of 2F1(1, -d; 1-d; -theta) at 30 digits.
        for theta, alpha in ((1.0, 4.0), (2.0, 4.0), (1.0, 3.0), (0.5, 3.5)):
            delta = 2.0 / alpha
            with mpmath.workdps(30):
                expected = float(1 / mpmath.hyp2f1(1, -delta, 1 - delta, -theta))
            assert bs_coverage(theta, alpha) == pytest.approx(expected, abs=1e-10)

    def test_limit_at_vanishing_threshold(self):
        assert bs_coverage(1e-12, 4.0) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("theta, alpha, name", [
        (math.nan, 4.0, "theta"), (math.inf, 4.0, "theta"), (0.0, 4.0, "theta"),
        (1.0, math.nan, "alpha"), (1.0, math.inf, "alpha"), (1.0, 2.0, "alpha"),
    ])
    def test_rejects_invalid_input(self, theta, alpha, name):
        # NaN fails every ordered comparison, so a range check alone lets
        # it into a series that cannot converge.
        with pytest.raises(ConfigError, match=name):
            bs_coverage(theta, alpha)

    def test_series_match_scipy(self):
        # Both series regimes (theta <= 3 and theta > 3) over the path-loss
        # exponents and thresholds a NetworkConfig can reasonably take.
        worst = 0.0
        for alpha in np.linspace(2.05, 8.0, 40):
            delta = 2.0 / alpha
            for theta in np.geomspace(1e-3, 1e5, 200):
                got = stochgeo._hyp2f1_bs(theta, delta)
                expected = special.hyp2f1(1.0, -delta, 1.0 - delta, -theta)
                worst = max(worst, abs(got / expected - 1.0))
        assert worst < 1e-14

    def test_alpha4_closed_form_over_thresholds(self):
        for theta in np.geomspace(1e-3, 1e5, 97):
            root = math.sqrt(theta)
            expected = 1.0 / (1.0 + root * math.atan(root))
            assert bs_coverage(theta, 4.0) == pytest.approx(expected, rel=1e-14)

    def test_series_that_does_not_converge_raises(self, monkeypatch):
        monkeypatch.setattr(stochgeo, "_SERIES_TERMS", 5)
        for theta in (2.0, 40.0):
            with pytest.raises(NumericFailure, match="did not converge"):
                stochgeo._hyp2f1_bs(theta, 0.5)

    def test_against_ppp_coverage_integral(self):
        # Nearest-BS Rayleigh SIR coverage equals 1/(1 + 2 kappa) with
        # kappa = Int_1^inf theta y / (theta + y^alpha) dy.
        for theta, alpha in ((1.0, 3.0), (2.0, 4.0)):
            kappa, _ = quad(lambda y: theta * y / (theta + y**alpha), 1, np.inf)
            expected = 1.0 / (1.0 + 2.0 * kappa)
            got = bs_coverage(theta, alpha)
            assert got == pytest.approx(expected, rel=1e-9)
            assert 0.0 < got < 1.0


class TestSingleLinkCoverage:
    def test_limit_at_vanishing_density(self, table1_cfg):
        got = d2d_coverage_single_link(replace(table1_cfg, lambda_p=1e-300))
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_reference_point_arithmetic(self, table1_cfg):
        # 1/(1 + 400 pi 2e-5 Gamma(1.5)Gamma(0.5)) with Gamma product pi/2.
        expected = 1.0 / (1.0 + 400.0 * math.pi * 2e-5 * (math.pi / 2.0))
        assert d2d_coverage_single_link(table1_cfg) == pytest.approx(
            expected, abs=1e-12
        )
        assert expected == pytest.approx(0.9620, abs=5e-5)

    def test_monotone_decreasing_in_each_parameter(self, table1_cfg):
        base = d2d_coverage_single_link(table1_cfg)
        for field, values in (("theta", (2.0, 4.0)), ("sigma", (20.0, 30.0)),
                              ("lambda_p", (4e-5, 8e-5))):
            prev = base
            for v in values:
                cur = d2d_coverage_single_link(replace(table1_cfg, **{field: v}))
                assert cur < prev
                prev = cur


class TestAverageRateAndAccess:
    def test_zero_bandwidth(self):
        assert average_rate(0.0, 1.0, 1.0) == 0.0

    def test_unit_coverage(self):
        assert average_rate(20e6, 1.0, 1.0) == 2e7

    def test_composed_with_bs_coverage(self):
        w2 = 10e6
        rate = average_rate(w2, 1.0, bs_coverage(1.0, 4.0))
        assert rate == pytest.approx(w2 * 0.5601, rel=1e-4)

    def test_optimal_access_probability(self):
        assert optimal_access_probability(0.1, 1.0) == pytest.approx(
            0.1 * (1 + 1e-6), rel=1e-12
        )
        with pytest.raises(InfeasibleAccessProbability):
            optimal_access_probability(2.0, 1.0)
        for rate in (0.0, -0.1, float("nan"), math.inf):  # no smallest feasible p
            with pytest.raises(ConfigError, match="r0_over_w1"):
                optimal_access_probability(rate, 1.0)

    @pytest.mark.parametrize("theta", [0.0, 1e-320, -0.5, -2.0, float("nan"),
                                       math.inf])
    def test_optimal_access_probability_rejects_zero_rate(self, theta):
        # log2(1 + theta) = 0 (theta = 1e-320 rounds to it) has no feasible p;
        # log2(1 + inf) = inf would give access_p = 0, which carries no rate.
        with pytest.raises(ConfigError, match="log2"):
            optimal_access_probability(0.1, theta)

    @pytest.mark.parametrize("w, theta, coverage", [
        (float("nan"), 1.0, 0.5), (-1.0, 1.0, 0.5), (1e6, -2.0, 0.5),
        (1e6, 0.0, 0.5), (1e6, float("inf"), 0.5), (1e6, float("nan"), 0.5),
        (1e6, 1.0, -1e-12), (1e6, 1.0, 1.0 + 1e-12), (1e6, 1.0, float("nan")),
        (math.inf, 1.0, 0.5),
    ])
    def test_average_rate_rejects_invalid_input(self, w, theta, coverage):
        with pytest.raises(ConfigError):
            average_rate(w, theta, coverage)


# Configs around the paper's operating point (p * nbar = 0.5).
_IN_RANGE_CONFIGS = st.builds(
    NetworkConfig,
    lambda_p=st.floats(1e-6, 2e-4), n_bar=st.floats(1.0, 10.0),
    sigma=st.floats(2.0, 50.0), alpha=st.floats(2.5, 6.0),
    theta=st.floats(0.1, 100.0), p_d=st.just(0.2), p_b=st.just(20.0),
    w_total=st.just(20e6), access_p=st.floats(0.05, 0.2),
)


class TestCoverageFloats:
    @settings(max_examples=20, deadline=None)
    @given(cfg=_IN_RANGE_CONFIGS, k=st.integers(1, 20),
           threshold=st.floats(0.0, 0.99))
    @example(cfg=NetworkConfig(**{**TABLE1, "lambda_p": 1e-300}), k=1, threshold=0.5)
    def test_every_coverage_is_a_probability(self, cfg, k, threshold):
        r0_over_w1 = threshold * cfg.access_p * math.log2(1.0 + cfg.theta)
        for value in (prob_rate_exceeds(cfg, r0_over_w1),
                      d2d_coverage_conditional(cfg, k),
                      bs_coverage(cfg.theta, cfg.alpha),
                      d2d_coverage_single_link(cfg)):
            assert type(value) is float
            assert 0.0 <= value <= 1.0

    def test_ladder_converges_at_dense_intra_cluster_load(self, table1_cfg):
        cfg = replace(table1_cfg, lambda_p=1.895577306302794e-4, sigma=21.0,
                      alpha=6.0, access_p=1.0)
        assert 0.0 <= d2d_coverage_conditional(cfg, 12) <= 1.0

    def test_ladder_converges_on_the_wide_envelope(self):
        # alpha 2.5-6, theta 0.1-100, nbar 1-40, p 0.05-1: P(R1 > R0) and
        # k = 1, 5, 20 all converge; every tenth config meets the adaptive
        # oracle at one of its four intensities, in turn.
        rng = np.random.default_rng(2026)
        for i in range(40):
            cfg = NetworkConfig(
                lambda_p=float(np.exp(rng.uniform(np.log(1e-6), np.log(2e-4)))),
                n_bar=float(rng.uniform(1.0, 40.0)), sigma=float(rng.uniform(2.0, 50.0)),
                alpha=float(rng.uniform(2.5, 6.0)),
                theta=float(np.exp(rng.uniform(np.log(0.1), np.log(100.0)))),
                p_d=0.2, p_b=20.0, w_total=20e6, access_p=float(rng.uniform(0.05, 1.0)))
            ks = (1, 5, 20)
            values = [prob_rate_exceeds(cfg, 0.0)] + [
                d2d_coverage_conditional(cfg, k) for k in ks]
            assert all(0.0 <= value <= 1.0 for value in values)
            if i % 10 == 0:
                which = i // 10
                intensity = cfg.access_p * (cfg.n_bar if which == 0 else ks[which - 1])
                expected = _adaptive_coverage(cfg, intensity)
                assert abs(values[which] - expected) <= max(1e-9, 1e-7 * expected)

    def test_clamp_of_computed_coverage(self):
        assert stochgeo._clamped(1.0 + 1e-12, "coverage") == 1.0
        assert stochgeo._clamped(-1e-12, "coverage") == 0.0
        assert stochgeo._clamped(0.25, "coverage") == 0.25
        for value in (1.2, -1e-6, float("nan")):
            with pytest.raises(NumericFailure, match="outside"):
                stochgeo._clamped(value, "coverage")
