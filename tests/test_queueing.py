"""Arrival split, service rates, queue lengths, per-queue delays."""

import math

import numpy as np
import pytest

from clustercache.errors import ConfigError, UnstableQueueError
from clustercache.model import CachingPolicy, ContentLibrary
from clustercache.queueing import (
    arrival_rates,
    build_delay_model,
    mm1_mean_queue_length,
    per_queue_delay,
    service_coefficients,
    service_rate,
)
from clustercache import optimize


def _policy(b, m):
    return CachingPolicy(np.asarray(b, dtype=float), cache_size=m)


class TestArrivalRates:
    def test_all_self_served(self):
        lib = ContentLibrary(3, 0.0, 2, np.array([0.6, 0.4, 0.0]), np.ones(3))
        z1, z2, z3 = arrival_rates(_policy([1, 1, 0], 2), lib, 4, 3.0)
        assert (z1, z2, z3) == (0.0, 0.0, 3.0)

    def test_all_from_bs(self):
        lib = ContentLibrary.zipf(4, 1.0, 2)
        z1, z2, z3 = arrival_rates(_policy([0, 0, 1, 1], 2), lib, 3, 2.0)
        # Only the two uncached files generate load; both go to the BS.
        q = lib.popularity
        assert z1 == 0.0
        assert z2 == pytest.approx(2.0 * (q[0] + q[1]))
        assert z3 == pytest.approx(2.0 * (q[2] + q[3]))

    def test_single_file_split(self):
        lib = ContentLibrary(2, 0.0, 1, np.array([1.0, 0.0]), np.ones(2))
        z1, z2, z3 = arrival_rates(_policy([0.5, 0.5], 1), lib, 2, 2.0)
        assert z1 == pytest.approx(2.0 * (0.5 - 0.25))
        assert z2 == pytest.approx(2.0 * 0.25)
        assert z3 == pytest.approx(1.0)

    def test_split_sums_to_total(self, rng):
        lib = ContentLibrary.zipf(20, 0.8, 5)
        for _ in range(50):
            b = rng.random(20)
            b = b / b.sum() * 5
            z1, z2, z3 = arrival_rates(_policy(b, 5), lib, 6, 2.0)
            assert z1 + z2 + z3 == pytest.approx(2.0, abs=1e-12)
            assert min(z1, z2, z3) >= 0.0

    def test_direction_of_each_component(self, rng):
        # Componentwise-larger caching vectors can only shrink the BS
        # load and grow the self-cache share: zeta_2 is non-increasing
        # and zeta_3 non-decreasing in every b_i.
        lib = ContentLibrary.zipf(10, 1.0, 3)
        for _ in range(50):
            b = rng.random(10)
            b = np.clip(b / b.sum() * 3, 0.0, 0.9)
            b = b / b.sum() * 3
            bump = rng.random(10) * (1.0 - b)
            larger = b + bump / bump.sum() * 1.0  # componentwise >= b, sum M+1
            low = arrival_rates(_policy(b, 3), lib, 5, 1.0)
            high = arrival_rates(_policy(larger, 4), lib, 5, 1.0)
            assert high[1] <= low[1] + 1e-12
            assert high[2] >= low[2] - 1e-12

    def test_rejects_bad_k(self):
        lib = ContentLibrary.zipf(4, 1.0, 2)
        with pytest.raises(ConfigError):
            arrival_rates(_policy([1, 1, 0, 0], 2), lib, 0, 1.0)


class TestServiceRate:
    def test_reference_value(self):
        # 0.5 coverage, 10 MHz, theta = 1, 5 Mbit mean size -> 1 req/s.
        assert service_rate(10e6, 1.0, 0.5, 5.0) == pytest.approx(1.0)

    def test_zero_coverage_means_no_service(self):
        assert service_rate(10e6, 1.0, 0.0, 5.0) == 0.0

    def test_linear_in_bandwidth(self):
        one = service_rate(7e6, 2.0, 0.8, 3.0)
        two = service_rate(14e6, 2.0, 0.8, 3.0)
        assert two == pytest.approx(2 * one, rel=1e-14)


class TestMm1QueueLength:
    def test_reference_values(self):
        assert mm1_mean_queue_length(0.0, 1.0) == 0.0
        assert mm1_mean_queue_length(1.0, 2.0) == pytest.approx(1.0)
        assert mm1_mean_queue_length(0.9, 1.0) == pytest.approx(9.0)

    def test_unstable_rejected(self):
        with pytest.raises(UnstableQueueError):
            mm1_mean_queue_length(2.0, 1.0)


class TestPerQueueDelay:
    def test_pure_service_time(self):
        assert per_queue_delay(0.0, 1.0) == 1.0

    def test_reference_value(self):
        assert per_queue_delay(1.0, 2.0) == 1.0

    def test_identity(self, rng):
        # The delay is literally 1/(mu - zeta): the product with (mu - zeta)
        # reconstructs 1 to within a rounding ulp for any stable pair.
        for _ in range(100):
            mu = rng.uniform(0.1, 50.0)
            zeta = rng.uniform(0.0, 0.999) * mu
            assert per_queue_delay(zeta, mu) * (mu - zeta) == pytest.approx(
                1.0, rel=4e-16
            )

    def test_boundary_rejected(self):
        with pytest.raises(UnstableQueueError):
            per_queue_delay(1.0, 1.0)
        with pytest.raises(UnstableQueueError):
            per_queue_delay(1.0 - 1e-12, 1.0)

    def test_weighted_average_arithmetic(self):
        # Two queues with mu = 2 zeta and zeta_1 = zeta_2 = 1: each delay
        # is 1 s, so the weighted average over zeta_tot = 2 is 1 s.
        d1 = per_queue_delay(1.0, 2.0)
        d2 = per_queue_delay(1.0, 2.0)
        assert (1.0 * d1 + 1.0 * d2) / 2.0 == pytest.approx(1.0)


class TestDelayModel:
    def test_assembles_consistently(self, table1_cfg):
        lib = ContentLibrary.zipf(100, 1.0, 4)
        policy = _policy(np.full(100, 0.04), 4)
        model = build_delay_model(policy, lib, table1_cfg, 8, 2.0, 10e6)
        assert model.zeta_1 + model.zeta_2 + model.zeta_3 == pytest.approx(2.0, abs=1e-12)
        assert model.w1 + model.w2 == pytest.approx(table1_cfg.w_total)
        assert model.stable_1 == (model.rho_1 < 1)
        assert model.stable_2 == (model.rho_2 < 1)

    def test_matches_optimizer_weighted_delay(self, table1_cfg):
        # Cross-module consistency: the assembled model and the
        # optimizer-side evaluation agree for identical inputs.
        lib = ContentLibrary.zipf(100, 1.0, 4)
        policy = _policy(np.full(100, 0.04), 4)
        o1, o2 = service_coefficients(table1_cfg, lib)
        w1 = 4e6  # keeps both queues stable under uniform caching
        model = build_delay_model(policy, lib, table1_cfg, 8, 2.0, w1)
        direct = optimize.weighted_delay(
            policy, lib, 8, 2.0, w1, o1, o2, table1_cfg.w_total
        )
        assert model.d_weighted == pytest.approx(direct, rel=1e-12)

    def test_unstable_reported_not_raised(self, table1_cfg):
        lib = ContentLibrary.zipf(100, 1.0, 4)
        policy = _policy(np.full(100, 0.04), 4)
        model = build_delay_model(policy, lib, table1_cfg, 8, 2000.0, 10e6)
        assert not (model.stable_1 and model.stable_2)
        assert math.isinf(model.d_weighted)

    def test_error_names_unstable_queue(self):
        err = UnstableQueueError(queue=2, zeta=5.0, mu=1.0)
        assert "queue 2" in str(err)
