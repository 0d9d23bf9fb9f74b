"""Domain types, Zipf popularity, the placement oracle, baseline schemes."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats

from clustercache import optimize, stochgeo
from clustercache.errors import ConfigError
from clustercache.model import (
    CachingPolicy,
    ContentLibrary,
    NetworkConfig,
    _capped_proportional,
    _clip_unit,
    _snap_budget,
    baseline_policy,
    zipf_popularity,
)

from caching_oracle import sample_caches
from conftest import TABLE1


class TestZipfPopularity:
    def test_uniform_at_beta_zero(self):
        assert np.allclose(zipf_popularity(3, 0.0), [1 / 3, 1 / 3, 1 / 3])

    def test_two_files_beta_one(self):
        assert np.allclose(zipf_popularity(2, 1.0), [2 / 3, 1 / 3])

    def test_head_popularity_is_inverse_harmonic(self):
        # Independent oracle: H_500 by direct summation.
        h500 = sum(1.0 / i for i in range(1, 501))
        q = zipf_popularity(500, 1.0)
        assert q[0] == pytest.approx(1.0 / h500, abs=1e-15)
        assert q[0] == pytest.approx(0.1472, abs=5e-4)

    @pytest.mark.parametrize("n_files", [1, 7, 1000, 10**6])
    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0, 2.5, 4.0])
    def test_sums_to_one_and_non_increasing(self, n_files, beta):
        q = zipf_popularity(n_files, beta)
        assert abs(q.sum() - 1.0) < 1e-12
        assert np.all(np.diff(q) <= 0)

    def test_empty_catalog_rejected(self):
        with pytest.raises(ConfigError):
            zipf_popularity(0, 1.0)
        with pytest.raises(ConfigError):
            zipf_popularity(5, -0.2)


class TestPlacementSampler:
    def test_deterministic_when_binary(self):
        policy = CachingPolicy(np.array([1.0, 1.0, 0.0, 0.0]), cache_size=2)
        got = sample_caches(policy, [0.0, 0.31, 0.999])
        assert np.array_equal(got, [[0, 1]] * 3)

    def test_hand_traced_cut(self):
        # Blocks: file1 [0, .6), file2 [.6, 1.2), file3 [1.2, 2), file4 [2, 3).
        # Cut points 0.5, 1.5, 2.5 land in files 1, 3, 4.
        policy = CachingPolicy(np.array([0.6, 0.6, 0.8, 1.0]), cache_size=3)
        assert np.array_equal(sample_caches(policy, 0.5), [0, 2, 3])

    def test_marginals_match_probabilities(self, rng):
        b = np.array([0.9, 0.7, 0.55, 0.4, 0.25, 0.2])
        policy = CachingPolicy(b, cache_size=3)
        draws = 100_000
        counts = np.bincount(sample_caches(policy, rng.random(draws)).ravel(),
                             minlength=b.size)
        freq = counts / draws
        se = np.sqrt(b * (1 - b) / draws)
        assert np.all(np.abs(freq - b) <= 3 * se)
        # Goodness of fit on the selection counts (draws * M selections).
        chi2 = stats.chisquare(counts, draws * b)
        assert chi2.pvalue > 0.01

    def test_always_m_distinct_files(self, rng):
        b = np.array([0.35, 0.3, 0.25, 0.05, 0.05])
        got = sample_caches(CachingPolicy(b, cache_size=1), rng.random((20, 25)))
        assert got.shape == (20, 25, 1)
        assert np.all((0 <= got) & (got < 5))
        b = np.array([0.9, 0.7, 0.55, 0.4, 0.25, 0.2])
        got = sample_caches(CachingPolicy(b, cache_size=3), rng.random(500))
        assert np.all(np.diff(got, axis=-1) > 0)
        # A segment longer than one block would cover two cuts.
        outside_box = SimpleNamespace(b=np.array([1.5, 0.5]), cache_size=2,
                                      n_files=2)
        with pytest.raises(ValueError):
            sample_caches(outside_box, 0.2)


class TestBaselinePolicies:
    def test_cpf_caches_top_m(self):
        lib = ContentLibrary.zipf(5, 1.0, 2)
        assert np.array_equal(baseline_policy("cpf", lib).b, [1, 1, 0, 0, 0])

    def test_zipf_proportional_unclipped(self):
        lib = ContentLibrary.zipf(2, 1.0, 1)
        assert np.allclose(baseline_policy("zipf-proportional", lib).b, [2 / 3, 1 / 3])

    def test_zipf_proportional_clipped(self):
        # q = [36, 9, 4]/49; 2*q1 > 1 forces the clip, remaining mass
        # splits 9:4 over the tail.
        lib = ContentLibrary.zipf(3, 2.0, 2)
        assert np.allclose(baseline_policy("zipf-proportional", lib).b,
                           [1.0, 9 / 13, 4 / 13])

    @pytest.mark.parametrize("n_files,m,beta", [(10, 3, 0.0), (50, 7, 1.2),
                                                (100, 4, 3.0), (5, 4, 2.0)])
    def test_outputs_are_valid_policies(self, n_files, m, beta):
        lib = ContentLibrary.zipf(n_files, beta, m)
        for kind in ("cpf", "zipf-proportional"):
            policy = baseline_policy(kind, lib)
            assert abs(policy.b.sum() - m) < 1e-9
            assert np.all(policy.b >= 0) and np.all(policy.b <= 1)

    def test_subnormal_weights_stay_finite(self):
        # The free weights sum to a subnormal, where budget / sum overflows.
        with np.errstate(all="raise"):
            b = _capped_proportional(np.array([5e-324, 0.0, 1e-320]), 1)
        assert np.all(np.isfinite(b)) and np.all((b >= 0) & (b <= 1))
        assert b[1] == 0.0
        assert abs(b.sum() - 1.0) < 1e-12

    @pytest.mark.parametrize("beta", [1000.0, 1060.0, 1100.0])
    def test_beta_whose_popularities_underflow_is_rejected(self, beta):
        # Files of zero popularity left zipf-proportional with NaN entries
        # (beta = 1060) or short of the budget (1000, 1100).
        with pytest.raises(ConfigError, match="underflows to zero"):
            ContentLibrary.zipf(500, beta, 10)

    def test_largest_representable_beta_gives_valid_policies(self):
        # 500**-119 is subnormal, 500**-120 is zero.
        lib = ContentLibrary.zipf(500, 119.0, 10)
        assert lib.popularity[-1] > 0.0
        with np.errstate(all="raise"):
            policy = baseline_policy("zipf-proportional", lib)
        assert abs(policy.b.sum() - 10) < 1e-9
        with pytest.raises(ConfigError):
            ContentLibrary.zipf(500, 120.0, 10)

    def test_unknown_kind_rejected(self):
        lib = ContentLibrary.zipf(5, 1.0, 2)
        with pytest.raises(ConfigError):
            baseline_policy("random", lib)


class TestDomainTypes:
    def test_network_config_invariants(self):
        NetworkConfig(**TABLE1)
        for bad in (dict(alpha=2.0), dict(access_p=1.5), dict(theta=0.0),
                    dict(sigma=-1.0), dict(lambda_p=0.0), dict(n_bar=0.0)):
            with pytest.raises(ConfigError):
                NetworkConfig(**{**TABLE1, **bad})

    @pytest.mark.parametrize("field", ["theta", "sigma", "lambda_p", "p_b", "w_total"])
    def test_network_config_rejects_infinity(self, field):
        with pytest.raises(ConfigError, match="finite"):
            NetworkConfig(**{**TABLE1, field: math.inf})

    def test_library_rejects_non_finite_values(self):
        with pytest.raises(ConfigError):
            ContentLibrary.zipf(50, math.nan, 5)
        with pytest.raises(ConfigError):
            ContentLibrary.zipf(50, math.inf, 5)
        with pytest.raises(ConfigError):
            ContentLibrary.zipf(50, 1.0, 5, mean_size_mbits=math.nan)

    def test_library_invariants(self):
        with pytest.raises(ConfigError):  # cache as large as the catalog
            ContentLibrary.zipf(5, 1.0, 5)
        with pytest.raises(ConfigError):  # popularity must sum to one
            ContentLibrary(3, 0.0, 1, np.array([0.5, 0.3, 0.1]), np.ones(3))
        with pytest.raises(ConfigError):  # must be sorted by popularity
            ContentLibrary(3, 0.0, 1, np.array([0.2, 0.5, 0.3]), np.ones(3))
        with pytest.raises(ConfigError):  # sizes positive
            ContentLibrary(2, 0.0, 1, np.array([0.5, 0.5]), np.array([1.0, 0.0]))

    def test_mean_size(self):
        lib = ContentLibrary(2, 0.0, 1, np.array([0.5, 0.5]), np.array([4.0, 6.0]))
        assert lib.mean_size_mbits == 5.0

    @pytest.mark.parametrize("build, match", [
        (lambda: ContentLibrary.zipf(20, 1.0, True), "cache_size must be an integer"),
        (lambda: ContentLibrary.zipf(20.0, 1.0, 4), "n_files must be an integer"),
        (lambda: CachingPolicy(np.array([1.0, 1.0, 0.5]), cache_size=2.5),
         "cache_size must be an integer"),
        (lambda: zipf_popularity(2.5, 1.0), "n_files must be an integer"),
    ])
    def test_counts_must_be_integers(self, build, match):
        # Bools and whole floats are not counts, as for k and trials.
        with pytest.raises(ConfigError, match=match):
            build()

    def test_policy_invariants(self):
        with pytest.raises(ConfigError):  # budget violated
            CachingPolicy(np.array([0.5, 0.4]), cache_size=1)
        with pytest.raises(ConfigError):  # box violated
            CachingPolicy(np.array([1.2, 0.8]), cache_size=2)
        policy = CachingPolicy(np.array([0.25, 0.75]), cache_size=1)
        with pytest.raises(ValueError):  # frozen and read-only
            policy.b[0] = 0.9

    def test_policy_does_not_alias_the_callers_vector(self):
        b = np.array([0.25, 0.75])
        policy = CachingPolicy(b, cache_size=1)
        assert not np.shares_memory(policy.b, b)
        b[0] = 0.5
        assert policy.b[0] == 0.25


class TestUnitClip:
    """``_clip_unit``, the clamp to [0, 1] of the policy paths."""

    VALUES = np.array([-0.0, 0.0, -1.0, 2.0, 0.5, 1.0, -1e-300, 1.0 + 2e-16,
                       math.nan, math.inf, -math.inf, 5e-324, -5e-324])

    @pytest.mark.parametrize("size", [1, 7, 64, 1001])
    def test_bits_of_np_clip(self, size):
        # The same bits as np.clip, NaN and -0.0 included, at sizes that
        # take the vector loops and their remainders.
        b = np.random.default_rng(size).choice(self.VALUES, size)
        expected = np.clip(b, 0.0, 1.0)
        assert _clip_unit(b).tobytes() == expected.tobytes()
        assert np.signbit(_clip_unit(np.array([-0.0]))[0])

    def test_fresh_array_unless_out(self):
        b = np.array([-0.5, 0.25, 1.5])
        clipped = _clip_unit(b)
        assert not np.shares_memory(clipped, b)
        assert b.tolist() == [-0.5, 0.25, 1.5]
        assert _clip_unit(b, out=b) is b
        assert b.tolist() == [0.0, 0.25, 1.0]
        # The budget snap returns a new array even when it moves nothing.
        unit = np.array([1.0, 0.0])
        assert not np.shares_memory(_snap_budget(unit, 1), unit)


# Every public function that takes the cluster size k, called at k.
_K_TAKERS = {
    "d2d_coverage_conditional":
        lambda cfg, lib, b, k: stochgeo.d2d_coverage_conditional(cfg, k),
    "energy_conditional":
        lambda cfg, lib, b, k: optimize.energy_conditional(b, lib, cfg, k, 1e6, 1e6),
    "optimize_energy":
        lambda cfg, lib, b, k: optimize.optimize_energy(cfg, lib, k, 1e6, 1e6),
    "weighted_delay":
        lambda cfg, lib, b, k: optimize.weighted_delay(b, lib, k, 1.0, 1e7, 1e-6,
                                                       1e-6, 2e7),
    "optimize_delay_bcd":
        lambda cfg, lib, b, k: optimize.optimize_delay_bcd(cfg, lib, k, 1.0, restarts=1),
}


@pytest.mark.parametrize("k", [0, 2.5, True, float("nan")])
@pytest.mark.parametrize("function", sorted(_K_TAKERS))
def test_cluster_size_must_be_a_positive_integer(function, k, table1_cfg, table1_lib):
    policy = baseline_policy("zipf-proportional", table1_lib)
    with pytest.raises(ConfigError, match="k must be"):
        _K_TAKERS[function](table1_cfg, table1_lib, policy, k)
