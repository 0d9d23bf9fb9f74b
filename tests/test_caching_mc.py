"""Monte Carlo oracle for the caching layer.

Caches are drawn with the block-placement sampler
(``caching_oracle.sample_caches``), one independent cut per device,
and each trial's request from the Zipf popularity. The empirical
self-cache, D2D and BS fractions must match
``queueing._arrival_fractions``, and the locally served fraction of a
Poisson(n_bar) cluster must match ``optimize.objective_offloading`` at
P(R1 > R0) = 1, each within a binomial four-sigma bound. The download
energy of a cluster of k devices must match
``optimize.energy_conditional`` within four standard errors.
"""

import math

import numpy as np
import pytest

from clustercache.model import ContentLibrary, baseline_policy, zipf_popularity
from clustercache.optimize import (
    energy_conditional,
    objective_offloading,
    optimize_energy,
    optimize_offloading,
)
from clustercache.queueing import _arrival_fractions

from caching_oracle import sample_caches

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
    slots = np.arange(max(devices.max(), 1))
    caches = sample_caches(policy, rng.random((files.size, slots.size)))
    held = (caches == files[:, None, None]).any(axis=-1)
    return held & (slots < devices[:, None])


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


@pytest.mark.parametrize("k", [1, 4, 8])
@pytest.mark.parametrize("kind", ["zipf-proportional", "energy-optimal"])
def test_cluster_energy_matches_energy_conditional(table1_cfg, kind, k):
    # Each of k devices draws its own cache and one Zipf request; a
    # request costs nothing from its own cache, S Pd/R1 from a cluster
    # mate's and S Pb/R2 from the BS. Random sizes make S_i matter.
    clusters, r1, r2 = 20_000, 2e6, 1e7
    rng = np.random.default_rng(3000 + k)
    n_files = 40
    lib = ContentLibrary(n_files=n_files, beta=0.8, cache_size=5,
                         popularity=zipf_popularity(n_files, 0.8),
                         sizes=rng.uniform(1.0, 10.0, n_files))
    policy = (baseline_policy(kind, lib) if kind == "zipf-proportional"
              else optimize_energy(table1_cfg, lib, k, r1, r2).policy)
    caches = sample_caches(policy, rng.random((clusters, k)))
    files = rng.choice(n_files, size=(clusters, k), p=lib.popularity)
    # held[c, j, h]: does device h of cluster c cache device j's file.
    held = (caches[:, None, :, :] == files[:, :, None, None]).any(axis=-1)
    own = np.diagonal(held, axis1=1, axis2=2)
    mate = (held & ~np.eye(k, dtype=bool)).any(axis=-1)
    bits = lib.sizes[files] * 1e6
    cost = np.where(own, 0.0, np.where(mate, bits * table1_cfg.p_d / r1,
                                       bits * table1_cfg.p_b / r2))
    energy = cost.sum(axis=1)
    se = energy.std(ddof=1) / math.sqrt(clusters)
    expected = energy_conditional(policy, lib, table1_cfg, k, r1, r2)
    assert abs(energy.mean() - expected) <= 4 * se
