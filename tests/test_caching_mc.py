"""Monte Carlo oracle for the caching layer.

Caches are drawn with the block-placement sampler
(``model.sample_cache_realization``), one independent draw per device,
and each trial's request from the Zipf popularity. The empirical
self-cache, D2D and BS fractions must match
``queueing._arrival_fractions``, and the locally served fraction of a
Poisson(n_bar) cluster must match ``optimize.objective_offloading`` at
P(R1 > R0) = 1, each within a binomial four-sigma bound.
"""

import math

import numpy as np
import pytest

from clustercache.model import (
    ContentLibrary,
    baseline_policy,
    sample_cache_realization,
)
from clustercache.optimize import objective_offloading, optimize_offloading
from clustercache.queueing import _arrival_fractions

TRIALS = 10_000


@pytest.fixture(scope="module")
def lib():
    return ContentLibrary.zipf(n_files=40, beta=0.8, cache_size=5)


@pytest.fixture(scope="module", params=["zipf-proportional", "offload-optimal"])
def policy(request, lib, table1_cfg):
    # One policy with every b_i interior, one with files at b = 1 and b = 0.
    if request.param == "zipf-proportional":
        return baseline_policy("zipf-proportional", lib)
    return optimize_offloading(table1_cfg, lib, 0.7).policy


def _holders(policy, rng, files, devices):
    """Boolean (trials, max devices): does device j cache the trial's file."""
    held = np.zeros((files.size, max(devices.max(), 1)), dtype=bool)
    for t, (f, m) in enumerate(zip(files, devices)):
        for j in range(m):
            held[t, j] = f + 1 in sample_cache_realization(policy, rng.random()).cached
    return held


def _assert_binomial(hits, expected):
    sd = math.sqrt(expected * (1.0 - expected) / TRIALS)
    assert hits.mean() == pytest.approx(expected, abs=4 * sd + 1e-12)


@pytest.mark.parametrize("k", [1, 4])
def test_request_fractions_match_arrival_rates(policy, lib, k):
    rng = np.random.default_rng(1000 + k)
    files = rng.choice(lib.n_files, size=TRIALS, p=lib.popularity)
    held = _holders(policy, rng, files, np.full(TRIALS, k))
    own = held[:, 0]
    mate = held[:, 1:k].any(axis=1)
    d2d, bs = _arrival_fractions(policy.b, lib.popularity, k)
    self_served = 1.0 - d2d - bs
    _assert_binomial(own, self_served)
    _assert_binomial(~own & mate, d2d)
    _assert_binomial(~own & ~mate, bs)


def test_local_fraction_matches_offloading_gain(policy, lib, table1_cfg):
    # The requester plus Poisson(n_bar) cluster mates; with every D2D
    # link above the rate threshold a request is served locally when
    # any of them caches the file.
    rng = np.random.default_rng(2000)
    files = rng.choice(lib.n_files, size=TRIALS, p=lib.popularity)
    devices = 1 + rng.poisson(table1_cfg.n_bar, TRIALS)
    held = _holders(policy, rng, files, devices)
    _assert_binomial(held.any(axis=1),
                     objective_offloading(policy, lib, table1_cfg.n_bar, 1.0))
