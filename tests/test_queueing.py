"""Arrival split, service rates and the M/M/1 queue delays."""

import numpy as np
import pytest

from clustercache.errors import UnstableQueueError
from clustercache.model import CachingPolicy, ContentLibrary
from clustercache.optimize import weighted_delay
from clustercache.queueing import _arrival_fractions, service_rate
from clustercache.stochgeo import CoverageResult


def _policy(b, m):
    return CachingPolicy(np.asarray(b, dtype=float), cache_size=m)


def _one_queue_delay(zeta, mu):
    """Weighted delay when every request goes to the BS queue, at rate mu.

    One popular file, not cached, and k = 1 (no D2D partner): a2 = 1. With
    O2 = 1 Hz^-1, W = mu Hz and W1 = 0, the BS service rate is exactly mu.
    """
    lib = ContentLibrary(2, 0.0, 1, np.array([1.0, 0.0]), np.ones(2))
    return weighted_delay(_policy([0, 1], 1), lib, 1, zeta, 0.0, 1.0, 1.0, mu)


class TestArrivalRates:
    """The D2D and BS request fractions (a1, a2); 1 - a1 - a2 is self-served."""

    def test_all_self_served(self):
        lib = ContentLibrary(3, 0.0, 2, np.array([0.6, 0.4, 0.0]), np.ones(3))
        b = np.array([1.0, 1.0, 0.0])
        assert _arrival_fractions(b, lib.popularity, 4) == (0.0, 0.0)

    def test_all_from_bs(self):
        lib = ContentLibrary.zipf(4, 1.0, 2)
        q = lib.popularity
        a1, a2 = _arrival_fractions(np.array([0.0, 0.0, 1.0, 1.0]), q, 3)
        # Only the two uncached files generate load; both go to the BS.
        assert a1 == 0.0
        assert a2 == pytest.approx(q[0] + q[1])
        assert 1.0 - a1 - a2 == pytest.approx(q[2] + q[3])

    def test_single_file_split(self):
        lib = ContentLibrary(2, 0.0, 1, np.array([1.0, 0.0]), np.ones(2))
        a1, a2 = _arrival_fractions(np.array([0.5, 0.5]), lib.popularity, 2)
        assert a1 == pytest.approx(0.5 - 0.25)
        assert a2 == pytest.approx(0.25)
        assert 1.0 - a1 - a2 == pytest.approx(0.5)

    def test_split_sums_to_total(self, rng):
        lib = ContentLibrary.zipf(20, 0.8, 5)
        for _ in range(50):
            b = rng.random(20)
            b = b / b.sum() * 5
            a1, a2 = _arrival_fractions(_policy(b, 5).b, lib.popularity, 6)
            assert min(a1, a2, 1.0 - a1 - a2) >= 0.0

    def test_direction_of_each_component(self, rng):
        # Componentwise-larger caching vectors can only shrink the BS
        # load and grow the self-cache share: a2 is non-increasing and
        # 1 - a1 - a2 non-decreasing in every b_i.
        lib = ContentLibrary.zipf(10, 1.0, 3)
        for _ in range(50):
            b = rng.random(10)
            b = np.clip(b / b.sum() * 3, 0.0, 0.9)
            b = b / b.sum() * 3
            bump = rng.random(10) * (1.0 - b)
            larger = b + bump / bump.sum() * 1.0  # componentwise >= b, sum M+1
            low = _arrival_fractions(_policy(b, 3).b, lib.popularity, 5)
            high = _arrival_fractions(_policy(larger, 4).b, lib.popularity, 5)
            assert high[1] <= low[1] + 1e-12
            assert 1.0 - sum(high) >= 1.0 - sum(low) - 1e-12


class TestServiceRate:
    def test_reference_value(self):
        # 0.5 coverage, 10 MHz, theta = 1, 5 Mbit mean size -> 1 req/s.
        assert service_rate(10e6, 1.0, CoverageResult(0.5), 5.0) == pytest.approx(1.0)

    def test_zero_coverage_means_no_service(self):
        assert service_rate(10e6, 1.0, CoverageResult(0.0), 5.0) == 0.0

    def test_linear_in_bandwidth(self):
        one = service_rate(7e6, 2.0, CoverageResult(0.8), 3.0)
        two = service_rate(14e6, 2.0, CoverageResult(0.8), 3.0)
        assert two == pytest.approx(2 * one, rel=1e-14)


class TestPerQueueDelay:
    """In the one-queue case the weighted delay is 1/(mu - zeta)."""

    def test_pure_service_time(self):
        assert _one_queue_delay(1e-300, 1.0) == 1.0

    def test_reference_value(self):
        assert _one_queue_delay(1.0, 2.0) == 1.0

    def test_identity(self, rng):
        # The delay is literally 1/(mu - zeta): the product with (mu - zeta)
        # reconstructs 1 to within a rounding ulp for any stable pair.
        for _ in range(100):
            mu = rng.uniform(0.1, 50.0)
            zeta = rng.uniform(0.0, 0.999) * mu
            assert _one_queue_delay(zeta, mu) * (mu - zeta) == pytest.approx(
                1.0, rel=4e-16
            )

    def test_boundary_rejected(self):
        for zeta in (1.0, 1.0 - 1e-12):
            with pytest.raises(UnstableQueueError, match="queue 2 "):
                _one_queue_delay(zeta, 1.0)

    def test_weighted_average_arithmetic(self):
        # k = 2 and b = 1/2 on the one popular file split zeta_tot = 4 into
        # zeta_1 = zeta_2 = 1 and 2 self-served requests/s. With
        # mu_1 = mu_2 = 2 each queue delays 1 s; the self-served requests
        # add zero delay, so the weighted average over zeta_tot is 0.5 s.
        lib = ContentLibrary(2, 0.0, 1, np.array([1.0, 0.0]), np.ones(2))
        delay = weighted_delay(_policy([0.5, 0.5], 1), lib, 2, 4.0, 2.0, 1.0, 1.0, 4.0)
        assert delay == pytest.approx(0.5, rel=1e-15)


class TestDelayModel:
    def test_error_names_unstable_queue(self):
        err = UnstableQueueError(queue=2, zeta=5.0, mu=1.0)
        assert "queue 2" in str(err)
