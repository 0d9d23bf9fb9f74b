"""Optimizer correctness against independent oracles.

Oracles used here:
* exhaustive simplex-grid search (step 0.05) for both KKT solvers;
* a projected-gradient descent with finite-difference gradients for the
  energy problem;
* golden-section search for the bandwidth split;
* a 2-D exhaustive grid for the joint delay problem;
* a direct simulation of the cache-placement process for the offloading
  objective's void-probability term;
* bisection for the offloading stationary point and the budget
  multiplier (``kkt_oracle``);
* the BCD that golden-section searches every caching step, from the
  uniform, zipf-proportional and random starts (``bcd_oracle``).
"""

import itertools
import math
from dataclasses import replace
from unittest import mock
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import poisson

from clustercache.errors import (
    ConfigError,
    InfeasibleLoadError,
    NumericFailure,
    UnstableQueueError,
)
from clustercache.model import (
    _BUDGET_TOL,
    CachingPolicy,
    ContentLibrary,
    NetworkConfig,
    baseline_policy,
)
from clustercache import optimize as opt
from clustercache import cli, queueing, stochgeo
from clustercache.optimize import (
    energy_conditional,
    objective_offloading,
    optimize_delay_bcd,
    optimize_energy,
    optimize_offloading,
    weighted_delay,
)

import bcd_oracle
import kkt_oracle
from conftest import TABLE1, random_box_simplex


def _cfg(**overrides):
    return NetworkConfig(**{**TABLE1, **overrides})


def _policy(b, m):
    return CachingPolicy(np.asarray(b, dtype=float), cache_size=m)


def simplex_grid(n_files, budget, step):
    """All caching vectors on the step-grid with sum equal to the budget."""
    levels = int(round(1.0 / step))
    total = int(round(budget / step))
    axes = np.indices((levels + 1,) * (n_files - 1)).reshape(n_files - 1, -1).T
    last = total - axes.sum(axis=1)
    ok = (last >= 0) & (last <= levels)
    return np.column_stack([axes[ok], last[ok]]) * step


def offload_objective_rows(b_rows, q, n_bar, prob_r1):
    d2d = (1.0 - b_rows) * (-np.expm1(-n_bar * b_rows))
    return b_rows @ q + prob_r1 * (d2d @ q)


def energy_objective_rows(b_rows, q, s_bits, k, cost_d2d, cost_bs):
    miss = 1.0 - b_rows
    per_file = (miss - miss**k) * cost_d2d + miss**k * cost_bs
    return k * (per_file @ (q * s_bits))


class TestOffloading:
    def test_zero_rate_probability_reduces_to_cpf(self, table1_cfg, table1_lib):
        sol = optimize_offloading(table1_cfg, table1_lib, 0.0)
        assert np.array_equal(sol.policy.b, baseline_policy("cpf", table1_lib).b)

    def test_uniform_at_flat_popularity(self):
        cfg = _cfg()
        lib = ContentLibrary.zipf(10, 0.0, 4)
        sol = optimize_offloading(cfg, lib, 0.7)
        assert np.allclose(sol.policy.b, 0.4, atol=1e-9)

    def test_beats_exhaustive_grid(self):
        cfg = _cfg(n_bar=5.0)
        lib = ContentLibrary.zipf(5, 1.0, 2)
        sol = optimize_offloading(cfg, lib, 0.5)
        grid = simplex_grid(5, 2, 0.05)
        best = offload_objective_rows(grid, lib.popularity, 5.0, 0.5).max()
        # The continuous optimum must not fall below the best grid point
        # (it may exceed it: the grid is only 0.05-coarse).
        assert sol.objective >= best - 1e-3
        assert abs(sol.policy.b.sum() - 2) < 1e-9

    def test_kkt_conditions_hold(self, table1_cfg):
        lib = ContentLibrary.zipf(40, 1.2, 6)
        prob = 0.6
        sol = optimize_offloading(table1_cfg, lib, prob)
        b, v = sol.policy.b, sol.multiplier
        grad = opt._offload_gradient(b, lib.popularity, table1_cfg.n_bar, prob)
        interior = (b > 1e-7) & (b < 1 - 1e-7)
        # Stationarity on the interior, sign conditions on the boundary.
        assert np.all(np.abs(grad[interior] - v) < 1e-6)
        assert np.all(grad[b >= 1 - 1e-7] >= v - 1e-6)
        assert np.all(grad[b <= 1e-7] <= v + 1e-6)
        # Complementary slackness: the box multipliers implied by the
        # branches vanish wherever the corresponding constraint is slack.
        w_box = np.where(b >= 1 - 1e-7, grad - v, 0.0)
        mu_box = np.where(b <= 1e-7, v - grad, 0.0)
        assert np.max(np.abs(w_box * (b - 1.0))) < 1e-8
        assert np.max(np.abs(mu_box * b)) < 1e-8

    def test_beats_random_feasible_policies(self, rng, table1_cfg):
        lib = ContentLibrary.zipf(30, 0.9, 5)
        prob = 0.4
        sol = optimize_offloading(table1_cfg, lib, prob)
        rows = random_box_simplex(rng, 10_000, 30, 5)
        values = offload_objective_rows(rows, lib.popularity, table1_cfg.n_bar, prob)
        assert sol.objective >= values.max() - 1e-10

    def test_objective_corner_cases(self, table1_cfg):
        lib = ContentLibrary.zipf(6, 1.0, 2)
        q = lib.popularity
        # An all-zero vector is infeasible as a policy but the objective
        # formula itself vanishes there.
        zeros = np.zeros(6)
        assert offload_objective_rows(zeros[None, :], q, 5.0, 0.9)[0] == 0.0
        top = baseline_policy("cpf", lib)
        got = objective_offloading(top, lib, table1_cfg.n_bar, 0.37)
        assert got == pytest.approx(q[:2].sum(), abs=1e-15)

    def test_objective_against_placement_simulation(self, rng):
        # Simulate the full cache-placement process: the requester holds
        # file i with probability b_i, and each of Poisson(n_bar) cluster
        # mates holds it with the same marginal (independent caches).
        # With prob_r1 = 1 the offloading gain is the hit probability.
        n_bar, prob_r1 = 2.0, 1.0
        lib = ContentLibrary.zipf(2, 1.0, 1)
        policy = _policy([0.5, 0.5], 1)
        expected = objective_offloading(policy, lib, n_bar, prob_r1)

        trials = 1_000_000
        boundaries = np.cumsum(policy.b)
        requested = rng.choice(2, size=trials, p=lib.popularity)
        own = np.searchsorted(boundaries, rng.random(trials), side="right")
        hit = own == requested
        mates = rng.poisson(n_bar, trials)
        total = int(mates.sum())
        of_trial = np.repeat(np.arange(trials), mates)
        mate_file = np.searchsorted(boundaries, rng.random(total), side="right")
        mate_hit = mate_file == requested[of_trial]
        d2d_hit = np.bincount(of_trial, weights=mate_hit, minlength=trials) > 0
        estimate = float(np.mean(hit | d2d_hit))
        se = math.sqrt(expected * (1 - expected) / trials)
        assert estimate == pytest.approx(expected, abs=4 * se)

    def test_rejects_bad_probability(self, table1_cfg, table1_lib):
        with pytest.raises(ConfigError):
            optimize_offloading(table1_cfg, table1_lib, 1.5)


class TestKktKernels:
    """The closed-form offloading stationary point and the multiplier
    search, against the bisections of ``kkt_oracle`` they replaced."""

    @settings(max_examples=300, deadline=None)
    @given(n_bar=st.floats(0.1, 50.0), prob_r1=st.floats(1e-3, 1.0),
           beta=st.floats(0.0, 2.0), index=st.integers(0, 59),
           t=st.floats(0.0, 1.0))
    def test_stationary_point_matches_bisection(self, n_bar, prob_r1, beta, index, t):
        q = ContentLibrary.zipf(60, beta, 6).popularity
        grad_at_1 = opt._offload_gradient(1.0, q, n_bar, prob_r1)
        grad_at_0 = opt._offload_gradient(0.0, q, n_bar, prob_r1)
        v = grad_at_1[index] + t * (grad_at_0[index] - grad_at_1[index])
        interior = (grad_at_1 <= v) & (v <= grad_at_0)
        closed = opt._offload_stationary_point(v, q[interior], n_bar, prob_r1)
        oracle = kkt_oracle.offload_stationary_point(v, q[interior], n_bar, prob_r1)
        # Agreement to 1e-12, widened only where the marginal gain h(b)
        # is flat to rounding: a change in b below 4 ulps of h over |h'(b)|
        # moves no rounded gradient, so neither method can resolve it.
        slope = (prob_r1 * n_bar * np.exp(-n_bar * closed)
                 * (n_bar * (1.0 - closed) + 2.0))
        band = 4.0 * np.finfo(float).eps * (1.0 + (n_bar + 1.0) * prob_r1) / slope
        assert np.all(np.abs(closed - oracle) <= 1e-12 + band)

    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0, 1.5, 2.0])
    def test_search_needs_no_more_evaluations_than_bisection(
            self, monkeypatch, table1_cfg, beta):
        # The Table-1 offload and energy points of the CLI's beta sweep.
        lib = ContentLibrary.zipf(500, beta, 10)
        cfg = table1_cfg
        records = []
        search = opt._search_multiplier

        def recording(policy_at, v_lo, v_hi, m, n, decreasing):
            b, v, iterations = search(policy_at, v_lo, v_hi, m, n, decreasing)
            bisections = kkt_oracle.bisect_multiplier(policy_at, v_lo, v_hi, m,
                                                      decreasing)[1]
            around = (np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf))
            records.append(([policy_at(x).sum() - m for x in around],
                            iterations, bisections))
            return b, v, iterations

        monkeypatch.setattr(opt, "_search_multiplier", recording)
        prob = stochgeo.prob_rate_exceeds(cfg, 0.1)
        sol = optimize_offloading(cfg, lib, prob)
        v_hi = float(opt._offload_gradient(0.0, lib.popularity, cfg.n_bar, prob).max())
        oracle_v, _ = kkt_oracle.bisect_multiplier(
            lambda v: kkt_oracle.offload_policy(v, lib.popularity, cfg.n_bar, prob),
            0.0, v_hi * (1.0 + 1e-12), 10, decreasing=True)
        oracle = CachingPolicy(opt._snap_budget(kkt_oracle.offload_policy(
            oracle_v, lib.popularity, cfg.n_bar, prob), 10), 10)
        assert sol.objective == pytest.approx(
            objective_offloading(oracle, lib, cfg.n_bar, prob), rel=1e-12)
        np.testing.assert_allclose(sol.policy.b, oracle.b, atol=1e-8)
        w1 = 0.5 * cfg.w_total
        r2 = stochgeo.average_rate(w1, cfg.theta,
                                   stochgeo.bs_coverage(cfg.theta, cfg.alpha))
        for k, _ in cli._energy_mixture(cfg.n_bar):
            r1 = stochgeo.average_rate(w1, cfg.theta,
                                       stochgeo.d2d_coverage_conditional(cfg, k))
            optimize_energy(cfg, lib, k, r1, r2)
        assert len(records) > 20
        for residuals, iterations, bisections in records:
            # The budget test holds, or sum(b) crosses M within one float
            # of the multiplier: near b_i = 1 the energy rule's interior
            # branch is steeper than float spacing can follow (at beta = 2
            # bisection then runs to its 120-step cap).
            assert (abs(residuals[1]) <= 0.1 * _BUDGET_TOL
                    or min(residuals) < 0.0 < max(residuals))
            assert iterations <= bisections

    @pytest.mark.parametrize("seed", range(6))
    def test_search_on_piecewise_linear_policy(self, seed):
        # sum(b) is piecewise linear with a kink wherever an entry hits a
        # bound; slopes span two decades.
        rng = np.random.default_rng(seed)
        n, m = 200, 17
        c = rng.uniform(0.0, 1.0, n)
        s = 10.0 ** rng.uniform(-2.0, 0.0, n)

        def policy_at(v):
            return np.clip((c - v) / s, 0.0, 1.0)

        v_lo, v_hi = float((c - s).min()), float(c.max())
        b, v, iterations = opt._search_multiplier(policy_at, v_lo, v_hi, m, n,
                                                  decreasing=True)
        assert abs(policy_at(v).sum() - m) <= 0.1 * _BUDGET_TOL
        assert b.sum() == pytest.approx(m, abs=1e-12)
        assert iterations <= kkt_oracle.bisect_multiplier(policy_at, v_lo, v_hi, m,
                                                          decreasing=True)[1]

    def test_search_meets_budget_on_near_step_ramps(self):
        # Slopes spanning six decades make sum(b) a staircase of steep
        # ramps. Secant trials can stall on it (without the bisection
        # safeguard seed 167 ran to the 120-evaluation cap); they may also
        # need more evaluations than bisection, which can land on a flat
        # step with sum(b) = M by chance.
        for seed in range(300):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(5, 400))
            m = int(rng.integers(1, n))
            c = rng.uniform(0.0, 1.0, n) ** rng.uniform(0.2, 5.0)
            s = 10.0 ** rng.uniform(-6.0, 0.0, n)

            def policy_at(v):
                return np.clip((c - v) / s, 0.0, 1.0)

            v_lo, v_hi = float((c - s).min()) - 1e-3, float(c.max()) + 1e-3
            _, v, iterations = opt._search_multiplier(policy_at, v_lo, v_hi, m, n,
                                                      decreasing=True)
            assert abs(policy_at(v).sum() - m) <= 0.1 * _BUDGET_TOL, seed
            assert iterations < opt._MULTIPLIER_ITERATIONS, seed

    def test_search_meets_budget_across_a_jump(self):
        # Near-step ramps make sum(b) jump across M between adjacent
        # floats: the result interpolates the policies at the two ends.
        c = np.array([0.9, 0.5, 0.5, 0.1])
        s = np.array([1e-300, 1e-300, 1e-300, 1e-300])

        def policy_at(v):
            return np.clip((c - v) / s, 0.0, 1.0)

        b, v, iterations = opt._search_multiplier(policy_at, 0.0, 1.0, 2, 4,
                                                  decreasing=True)
        np.testing.assert_allclose(b, [1.0, 0.5, 0.5, 0.0])
        assert v == pytest.approx(0.5)
        assert iterations < opt._MULTIPLIER_ITERATIONS

    def test_budget_met_where_rounding_cannot_resolve_b(self, rng):
        # At n_bar = 48 the marginal gain of the second file is flat to
        # rounding over b in (0.77, 1): sum(b) jumps across M at one float
        # of the multiplier, where the bisections of ``kkt_oracle`` run to
        # their 120-step cap.
        cfg = _cfg(n_bar=48.375054029434466)
        lib = ContentLibrary.zipf(8, 0.7832496661600523, 2)
        prob = 0.1119939253856784
        sol = optimize_offloading(cfg, lib, prob)
        assert sol.iterations < opt._MULTIPLIER_ITERATIONS
        assert sol.policy.b.sum() == pytest.approx(2.0, abs=1e-12)
        rows = random_box_simplex(rng, 10_000, 8, 2)
        values = offload_objective_rows(rows, lib.popularity, cfg.n_bar, prob)
        assert sol.objective >= values.max() - 1e-12

    def test_newton_cap_raises_numeric_failure(self, monkeypatch, table1_cfg,
                                               table1_lib):
        monkeypatch.setattr(opt, "_NEWTON_ITERATIONS", 1)
        with pytest.raises(NumericFailure, match="Newton step"):
            optimize_offloading(table1_cfg, table1_lib, 0.6)

    def test_extreme_parameters_raise_no_warning(self, table1_lib):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = optimize_offloading(_cfg(n_bar=200.0), table1_lib, 1e-6)
        assert sol.policy.b.sum() == pytest.approx(10.0, abs=1e-9)


def _project_box_simplex(y, budget):
    lo, hi = y.min() - 1.0, y.max()
    for _ in range(200):
        tau = 0.5 * (lo + hi)
        if np.clip(y - tau, 0.0, 1.0).sum() > budget:
            lo = tau
        else:
            hi = tau
    return np.clip(y - 0.5 * (lo + hi), 0.0, 1.0)


def _projected_gradient_energy(q, s_bits, k, cost_d2d, cost_bs, budget,
                               iterations=30000, start=None):
    """Independent minimiser: projected gradient with FD gradients.

    Starts from the uniform policy unless ``start`` is given. Where the
    objective is concave (cost_bs <= cost_d2d) every step still descends,
    and the iterates move towards a vertex.
    """
    n = q.size
    b = np.full(n, budget / n) if start is None else np.asarray(start, float)
    x = q * s_bits

    def objective(bb):
        miss = 1.0 - bb
        return k * float(((miss - miss**k) * cost_d2d + miss**k * cost_bs) @ x)

    h = 1e-7
    # Where the objective is convex, the gradient's Lipschitz constant bounds
    # a step that still descends. Where it is concave (cost_bs <= cost_d2d)
    # every step descends; there a step that moves the file of least
    # gradient by about 1 reaches a vertex in a few steps.
    lipschitz = max(k * k * (k - 1) * float((x * (cost_bs - cost_d2d)).max()),
                    k * float(x[x > 0].min()) * max(cost_bs, cost_d2d))
    step = 1.0 / lipschitz
    for _ in range(iterations):
        grad = np.empty(n)
        for i in range(n):
            up, down = b.copy(), b.copy()
            up[i] += h
            down[i] -= h
            grad[i] = (objective(up) - objective(down)) / (2 * h)
        new = _project_box_simplex(b - step * grad, budget)
        if np.max(np.abs(new - b)) < 1e-12:
            return new
        b = new
    return b


class TestInPlaceKernels:
    """The in-place KKT kernels give the bits of their plain array
    expressions (``kkt_oracle``), -0.0 included, and a fresh array on
    every call."""

    @staticmethod
    def _same_bits(a, b):
        return a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(k=st.integers(2, 40), beta=st.floats(0.0, 2.5),
           log_a=st.floats(-12.0, -3.0), log_ratio=st.floats(1e-6, 4.0),
           index=st.integers(0, 59), t=st.floats(0.0, 1.0))
    def test_energy_rule_matches_plain_expressions(self, k, beta, log_a, log_ratio,
                                                   index, t):
        x = ContentLibrary.zipf(60, beta, 6).popularity * 5e6
        cost_d2d = 10.0**log_a
        cost_bs = cost_d2d * 10.0**log_ratio
        kxa = k * x * cost_d2d
        curvature = k**2 * x * (cost_d2d - cost_bs)
        exponent = 1.0 / (k - 1)
        grad_at_0 = -k * x * (k * cost_bs - (k - 1) * cost_d2d)
        v_lo, v_hi = grad_at_0.min() * (1.0 + 1e-12), -kxa.max() * (1.0 - 1e-12)
        # Across the bracket, and at a file's b = 1 gradient, where its
        # ratio is -0.0.
        for v in (v_lo + t * (v_hi - v_lo), -kxa[index]):
            fast = opt._energy_policy_for_multiplier(v, kxa, curvature, exponent)
            plain = kkt_oracle.energy_policy(v, x, k, cost_d2d, cost_bs)
            assert np.array_equal(fast, plain)
            assert self._same_bits(fast, plain)
        again = opt._energy_policy_for_multiplier(v, kxa, curvature, exponent)
        assert not any(np.shares_memory(again, a) for a in (fast, kxa, curvature))

    @settings(max_examples=300, deadline=None)
    @given(n_bar=st.floats(0.1, 50.0), prob_r1=st.floats(1e-3, 1.0),
           beta=st.floats(0.0, 2.0), index=st.integers(0, 59),
           t=st.floats(0.0, 1.0))
    def test_offload_rule_matches_plain_expressions(self, n_bar, prob_r1, beta,
                                                    index, t):
        q = ContentLibrary.zipf(60, beta, 6).popularity
        grad_at_1 = opt._offload_gradient(1.0, q, n_bar, prob_r1)
        grad_at_0 = opt._offload_gradient(0.0, q, n_bar, prob_r1)
        for v in (grad_at_1[index] + t * (grad_at_0[index] - grad_at_1[index]),
                  grad_at_1[index], grad_at_0[index]):
            interior = (grad_at_1 <= v) & (v <= grad_at_0)
            fast = opt._offload_stationary_point(v, q[interior], n_bar, prob_r1)
            plain = kkt_oracle.offload_newton_point(
                v, q[interior], n_bar, prob_r1, opt._NEWTON_RTOL,
                opt._NEWTON_ITERATIONS)
            assert np.array_equal(fast, plain)
            assert self._same_bits(fast, plain)
            policy = opt._offload_policy_for_multiplier(
                v, q, n_bar, prob_r1, grad_at_1, grad_at_0)
            assert self._same_bits(policy[interior], plain)
            assert not np.shares_memory(
                policy, opt._offload_policy_for_multiplier(
                    v, q, n_bar, prob_r1, grad_at_1, grad_at_0))


class TestEnergy:
    def test_hand_evaluated_reference(self):
        # k=2, q=(0.8, 0.2), unit sizes, Pd/R1 = 1 and Pb/R2 = 10 per Mbit:
        # 2 [0.8 (0.25 + 2.5) + 0.2 (10)] = 8.4 J. A zero-popularity dummy
        # file absorbs the remaining budget so the policy stays feasible
        # without touching the value.
        cfg = _cfg(p_d=1.0, p_b=10.0)
        lib = ContentLibrary(3, 0.0, 1, np.array([0.8, 0.2, 0.0]), np.ones(3))
        policy = _policy([0.5, 0.0, 0.5], 1)
        got = energy_conditional(policy, lib, cfg, 2, r1=1e6, r2=1e6)
        assert got == pytest.approx(8.4, rel=1e-12)

    def test_extreme_policies(self, table1_cfg):
        # b=1 on the whole support: every request self-served, zero energy.
        full = ContentLibrary(4, 0.0, 3,
                              np.array([0.5, 0.3, 0.2, 0.0]), np.ones(4))
        policy = _policy([1, 1, 1, 0], 3)
        assert energy_conditional(policy, full, table1_cfg, 3, 1e6, 1e6) == 0.0
        # Nothing requested is cached: everything ships from the BS,
        # k * sum q S Pb/R2.
        lib5 = ContentLibrary(5, 0.0, 1,
                              np.array([0.4, 0.3, 0.2, 0.1, 0.0]), np.ones(5))
        nearly_zero = _policy([0, 0, 0, 0, 1], 1)  # cached file never asked
        expected = 3 * 1e6 * table1_cfg.p_b / 2e6
        got = energy_conditional(nearly_zero, lib5, table1_cfg, 3, 1e6, 2e6)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_uniform_at_flat_popularity(self):
        cfg = _cfg()
        lib = ContentLibrary.zipf(4, 0.0, 2)
        sol = optimize_energy(cfg, lib, 3, 1e6, 2e6)
        assert np.allclose(sol.policy.b, 0.5, atol=1e-9)

    def test_beats_exhaustive_grid(self):
        cfg = _cfg()
        lib = ContentLibrary.zipf(5, 1.0, 2)
        k, r1, r2 = 3, 1e6, 2e6
        sol = optimize_energy(cfg, lib, k, r1, r2)
        grid = simplex_grid(5, 2, 0.05)
        best = energy_objective_rows(
            grid, lib.popularity, lib.sizes * 1e6, k, cfg.p_d / r1, cfg.p_b / r2
        ).min()
        assert sol.objective <= best + 1e-3 * abs(best)

    def test_matches_projected_gradient_oracle(self, table1_cfg):
        # N=5, M=2, k=4, Zipf(1) popularity, rates from the coverage
        # expressions at an equal bandwidth split.
        from clustercache.stochgeo import (
            average_rate, bs_coverage, d2d_coverage_conditional,
        )
        cfg = table1_cfg
        lib = ContentLibrary.zipf(5, 1.0, 2)
        k = 4
        r1 = average_rate(cfg.w_total / 2, cfg.theta,
                          d2d_coverage_conditional(cfg, k))
        r2 = average_rate(cfg.w_total / 2, cfg.theta,
                          bs_coverage(cfg.theta, cfg.alpha))
        sol = optimize_energy(cfg, lib, k, r1, r2)
        oracle_b = _projected_gradient_energy(
            lib.popularity, lib.sizes * 1e6, k, cfg.p_d / r1, cfg.p_b / r2, 2
        )
        oracle_obj = energy_conditional(_policy(oracle_b, 2), lib, cfg, k, r1, r2)
        assert sol.objective == pytest.approx(oracle_obj, rel=1e-3)
        assert sol.objective <= oracle_obj * (1 + 1e-9)

    def test_caches_popular_and_large_files_more(self):
        # Stationarity of the conditional energy puts more cache mass on
        # files with larger q_i S_i (the per-slot energy saving grows
        # with both), and bumping one file's size or popularity never
        # lowers its own caching probability.
        cfg = _cfg()
        lib = ContentLibrary(
            5, 0.0, 2,
            np.array([0.35, 0.30, 0.20, 0.10, 0.05]),
            np.array([2.0, 8.0, 1.0, 5.0, 3.0]),
        )
        k, r1, r2 = 3, 1e6, 2e6
        sol = optimize_energy(cfg, lib, k, r1, r2)
        weight = lib.popularity * lib.sizes
        order = np.argsort(-weight)
        ranked = sol.policy.b[order]
        assert np.all(np.diff(ranked) <= 1e-9)

        bumped = replace(lib, sizes=lib.sizes * np.array([1, 1, 4.0, 1, 1]))
        sol_b = optimize_energy(cfg, bumped, k, r1, r2)
        assert sol_b.policy.b[2] >= sol.policy.b[2] - 1e-9

        more_popular = ContentLibrary(
            5, 0.0, 2,
            np.array([0.35, 0.30, 0.25, 0.06, 0.04]),
            lib.sizes,
        )
        sol_q = optimize_energy(cfg, more_popular, k, r1, r2)
        assert sol_q.policy.b[2] >= sol.policy.b[2] - 1e-9

    def test_hessian_diagonal_against_finite_differences(self, rng):
        # Directional second difference along budget-preserving directions
        # equals sum_i H_ii d_i^2 with H_ii = k^2 (k-1) q_i S_i (Pb/R2 -
        # Pd/R1) (1-b_i)^(k-2), >= 0 at these rates (Pb/R2 > Pd/R1).
        cfg = _cfg()
        lib = ContentLibrary.zipf(6, 0.7, 2)
        k, r1, r2 = 4, 1e6, 2e6
        x = lib.popularity * lib.sizes * 1e6
        cost_gap = cfg.p_b / r2 - cfg.p_d / r1
        b = np.array([0.6, 0.5, 0.35, 0.25, 0.2, 0.1])
        policy = _policy(b, 2)
        hess_diag = k * k * (k - 1) * x * cost_gap * (1 - b) ** (k - 2)
        assert np.all(hess_diag >= 0)
        for _ in range(10):
            d = rng.normal(size=6)
            d -= d.mean()
            d /= np.abs(d).max() * 20
            h = 1e-3
            up = _policy(b + h * d, 2)
            down = _policy(b - h * d, 2)
            fd = (
                energy_conditional(up, lib, cfg, k, r1, r2)
                - 2 * energy_conditional(policy, lib, cfg, k, r1, r2)
                + energy_conditional(down, lib, cfg, k, r1, r2)
            ) / h**2
            assert fd == pytest.approx(float(hess_diag @ d**2), rel=1e-5)

    def test_size_scale_invariance(self, table1_cfg):
        lib = ContentLibrary.zipf(8, 1.0, 3)
        sol = optimize_energy(table1_cfg, lib, 3, 1e6, 2e6)
        scaled = optimize_energy(table1_cfg, replace(lib, sizes=lib.sizes * 37.0),
                                 3, 1e6, 2e6)
        assert np.allclose(sol.policy.b, scaled.policy.b, atol=1e-6)

    def test_single_device_degenerates_to_cpf(self, table1_cfg, table1_lib):
        sol = optimize_energy(table1_cfg, table1_lib, 1, 1e6, 2e6)
        assert sol.degenerate
        assert np.array_equal(sol.policy.b, baseline_policy("cpf", table1_lib).b)

    def test_single_device_caches_largest_popularity_times_size(self, table1_cfg):
        # k = 1: the objective sum q_i S_i (1 - b_i) Pb/R2 is linear in b, so
        # the optimum caches the M largest q_i S_i, not the M most popular.
        lib = ContentLibrary.zipf(5, 1.0, 2)
        lib = replace(lib, sizes=lib.sizes * np.array([1, 1, 4.0, 1, 1]))
        sol = optimize_energy(table1_cfg, lib, 1, 1e6, 2e6)
        np.testing.assert_array_equal(sol.policy.b, [1, 0, 1, 0, 0])
        assert sol.degenerate

    def test_concave_regime_takes_top_m_vertex(self, table1_cfg, table1_lib):
        # Pb/R2 <= Pd/R1 makes every term concave in b_i: the optimum is the
        # vertex caching the M largest q_i S_i (here the M most popular,
        # as sizes are equal), and the solution flags it as degenerate.
        k, r1, r2 = 3, 1e6, 1e12
        sol = optimize_energy(table1_cfg, table1_lib, k, r1=r1, r2=r2)
        assert sol.degenerate and math.isnan(sol.multiplier)
        assert sol.iterations == 0
        assert np.array_equal(sol.policy.b, baseline_policy("cpf", table1_lib).b)
        # Every uncached file ships from the BS: k sum_{i > M} q_i S_i Pb/R2.
        x = table1_lib.popularity * table1_lib.sizes * 1e6
        expected = k * float(x[10:].sum()) * table1_cfg.p_b / r2
        assert sol.objective == pytest.approx(expected, rel=1e-12)

    def test_unrequested_files_are_not_cached(self, table1_cfg):
        # Files of zero popularity do not change the energy; they take no
        # part in the bisection (their stationarity ratio would divide by
        # zero), the rest solve the problem on the requested files alone,
        # and with at most M requested files every one of them is cached.
        q = np.r_[np.arange(6, 0, -1) / 21.0, np.zeros(4)]
        lib = ContentLibrary(10, 0.0, 2, q, np.ones(10))
        requested = ContentLibrary(6, 0.0, 2, q[:6], np.ones(6))
        few = ContentLibrary(10, 0.0, 3, np.r_[0.6, 0.4, np.zeros(8)], np.ones(10))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = optimize_energy(table1_cfg, lib, 3, 1e6, 2e6)
            alone = optimize_energy(table1_cfg, requested, 3, 1e6, 2e6)
            vertex = optimize_energy(table1_cfg, few, 3, 1e6, 2e6)
        assert np.all(sol.policy.b[6:] == 0.0)
        np.testing.assert_allclose(sol.policy.b[:6], alone.policy.b, atol=1e-9)
        assert sol.objective == pytest.approx(alone.objective, rel=1e-12)
        assert np.array_equal(vertex.policy.b, np.r_[1.0, 1.0, 1.0, np.zeros(7)])
        assert vertex.objective == 0.0

    def test_beats_random_feasible_policies(self, rng, table1_cfg):
        lib = ContentLibrary.zipf(30, 0.9, 5)
        k, r1, r2 = 4, 1e6, 2e6
        sol = optimize_energy(table1_cfg, lib, k, r1, r2)
        rows = random_box_simplex(rng, 10_000, 30, 5)
        values = energy_objective_rows(
            rows, lib.popularity, lib.sizes * 1e6, k,
            table1_cfg.p_d / r1, table1_cfg.p_b / r2,
        )
        assert sol.objective <= values.min() + 1e-10


def _concave_energy_case(rng):
    """(cfg, lib, k, r1, r2) with Pb/R2 <= Pd/R1, equal in about a third."""
    n = int(rng.integers(3, 13))
    m = int(rng.integers(1, n))
    q = np.sort(rng.dirichlet(np.ones(n)))[::-1]
    if rng.random() < 0.2:  # a tail of unrequested files
        q[int(rng.integers(1, n)):] = 0.0
    lib = ContentLibrary(n, 0.0, m, q / q.sum(), rng.uniform(0.1, 10.0, n))
    k = int(rng.integers(1, 9))
    r1 = float(rng.uniform(1e5, 1e7))
    # p_b / (2 r1) is p_d / r1 exactly: the two costs per bit tie.
    r2 = 2.0 * r1 * (1.0 if rng.random() < 0.35 else float(rng.uniform(1.0, 1e3)))
    return _cfg(p_d=1.0, p_b=2.0), lib, k, r1, r2


class TestEnergyConcave:
    """Pb/R2 <= Pd/R1: the minimum is the best 0/1 vertex."""

    def test_matches_exhaustive_vertex_minimum(self):
        rng = np.random.default_rng(1609)
        ties = 0
        for _ in range(200):
            cfg, lib, k, r1, r2 = _concave_energy_case(rng)
            cost_d2d, cost_bs = cfg.p_d / r1, cfg.p_b / r2
            assert cost_bs <= cost_d2d
            ties += cost_bs == cost_d2d
            n, m = lib.n_files, lib.cache_size
            vertices = np.zeros((math.comb(n, m), n))
            for row, cached in enumerate(itertools.combinations(range(n), m)):
                vertices[row, list(cached)] = 1.0
            best = energy_objective_rows(vertices, lib.popularity, lib.sizes * 1e6,
                                         k, cost_d2d, cost_bs).min()
            sol = optimize_energy(cfg, lib, k, r1, r2)
            assert sol.degenerate
            assert np.all((sol.policy.b == 0.0) | (sol.policy.b == 1.0))
            assert sol.objective == pytest.approx(best, rel=1e-12, abs=0.0)
        assert ties >= 40

    def test_projected_gradient_finds_nothing_lower(self):
        rng = np.random.default_rng(1610)
        for _ in range(30):
            cfg, lib, k, r1, r2 = _concave_energy_case(rng)
            sol = optimize_energy(cfg, lib, k, r1, r2)
            for start in random_box_simplex(rng, 3, lib.n_files, lib.cache_size):
                b = _projected_gradient_energy(
                    lib.popularity, lib.sizes * 1e6, k, cfg.p_d / r1,
                    cfg.p_b / r2, lib.cache_size, iterations=300, start=start)
                found = energy_conditional(_policy(b, lib.cache_size), lib, cfg,
                                           k, r1, r2)
                assert sol.objective <= found * (1 + 1e-12)


# From n_bar = 709 on, exp(-n_bar) is subnormal or zero: a forward
# recurrence from P(N = 0) loses its weights there.
_MEANS = [1e-9, 1.0, 5.0, 40.0, 709.0, 750.0, 2000.0]


class TestPoissonWeights:
    """The Poisson(n_bar) cluster-size weights of the CLI's energy mixture."""

    @staticmethod
    def _head_mass(n_bar, first_k):
        """P(1 <= N < first_k), the mass the lower cut leaves out."""
        return poisson.cdf(first_k - 1, n_bar) - poisson.pmf(0, n_bar)

    @pytest.mark.parametrize("n_bar", _MEANS)
    def test_match_poisson_pmf_from_k1(self, n_bar):
        # P(N = k) at consecutive k, counted from k = 1 (the lower cut
        # drops a head of them from n_bar = 40 on).
        ks, weights = zip(*cli._energy_mixture(n_bar))
        assert ks == tuple(range(ks[0], ks[0] + len(ks)))
        # Far below the mode of a large mean the pmf is not a normal float.
        pmf = poisson.pmf(ks, n_bar)
        kept = pmf > 1e-300
        np.testing.assert_allclose(np.array(weights)[kept], pmf[kept],
                                   rtol=1e-9, atol=0)

    @pytest.mark.parametrize("n_bar", _MEANS)
    def test_tail_beyond_last_k_is_negligible(self, n_bar):
        last_k = cli._energy_mixture(n_bar)[-1][0]
        assert poisson.sf(last_k, n_bar) < 1e-10
        # The first such k: the mixture is cut no later than it must be.
        assert poisson.sf(last_k - 1, n_bar) > 1e-10

    @pytest.mark.parametrize("n_bar", _MEANS)
    def test_head_before_first_k_is_negligible(self, n_bar):
        first_k = cli._energy_mixture(n_bar)[0][0]
        assert self._head_mass(n_bar, first_k) <= 1e-10
        # The last such head: the mixture starts no later than it may.
        assert self._head_mass(n_bar, first_k + 1) > 1e-10
        # Up to n_bar = 20, P(N = 1) alone exceeds the cut.
        assert (first_k == 1) == (n_bar <= 20)

    def test_large_mean_keeps_few_sizes(self):
        # At n_bar = 750 the cut drops the 582 sizes below k = 583.
        mixture = cli._energy_mixture(750.0)
        assert len(mixture) < 400
        assert self._head_mass(750.0, mixture[0][0]) <= 1e-10

    @pytest.mark.parametrize("n_bar", _MEANS)
    def test_sum_to_the_nonempty_share(self, n_bar):
        mixture = cli._energy_mixture(n_bar)
        total = math.fsum(weight for _, weight in mixture)
        head = self._head_mass(n_bar, mixture[0][0])
        assert abs(total + head + math.expm1(-n_bar)) <= 1e-10


def _golden_section(fn, lo, hi, tol):
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - phi * (b - a), a + phi * (b - a)
    fc, fd = fn(c), fn(d)
    while (b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


def _split_of(policy, lib, k, zeta, o1, o2, w_total):
    """(W1*, delay at W1*) of a policy, by ``_split_delay``."""
    a1, a2 = opt._arrival_fractions(policy.b, lib.popularity, k)
    return opt._split_delay(a1, a2, zeta, o1, o2, w_total)


@pytest.mark.parametrize("call, match", [
    (lambda cfg, lib: optimize_delay_bcd(cfg, lib, 8, math.nan), "zeta_tot"),
    (lambda cfg, lib: optimize_delay_bcd(cfg, lib, 8, -1.0), "zeta_tot"),
    (lambda cfg, lib: optimize_delay_bcd(cfg, lib, 8, math.inf), "zeta_tot"),
    (lambda cfg, lib: optimize_delay_bcd(cfg, lib, 8, 2.0, restarts=2.5), "restarts"),
    (lambda cfg, lib: optimize_delay_bcd(cfg, lib, 8, 2.0, restarts=True), "restarts"),
    (lambda cfg, lib: optimize_delay_bcd(cfg, lib, 8, 2.0, restarts=0), "restarts"),
    (lambda cfg, lib: weighted_delay(baseline_policy("cpf", lib), lib, 8, math.nan,
                                     1e7, 1e-6, 1e-6, cfg.w_total), "zeta_tot"),
    (lambda cfg, lib: weighted_delay(baseline_policy("cpf", lib), lib, 8, -1.0,
                                     1e7, 1e-6, 1e-6, cfg.w_total), "zeta_tot"),
    (lambda cfg, lib: energy_conditional(baseline_policy("cpf", lib), lib, cfg, 8,
                                         math.nan, 1e7), "rates"),
    (lambda cfg, lib: energy_conditional(baseline_policy("cpf", lib), lib, cfg, 8,
                                         1e7, math.inf), "rates"),
    (lambda cfg, lib: optimize_energy(cfg, lib, 8, math.nan, 1e7), "rates"),
    (lambda cfg, lib: optimize_energy(cfg, lib, 8, 1e7, -1.0), "rates"),
    (lambda cfg, lib: optimize_energy(cfg, lib, 8, 0.0, 1e7), "rates"),
] + [
    (lambda cfg, lib, service=service: weighted_delay(
        baseline_policy("cpf", lib), lib, 8, 1.0, 1e6, *service), name)
    for service, name in [((math.nan, 1e-6, 2e7), "o1"), ((math.inf, 1e-6, 2e7), "o1"),
                          ((0.0, 1e-6, 2e7), "o1"), ((1e-6, -1e-6, 2e7), "o2"),
                          ((1e-6, math.inf, 2e7), "o2"), ((1e-6, 1e-6, math.inf), "w_total"),
                          ((1e-6, 1e-6, 0.0), "w_total")]
])
def test_rejects_bad_load_and_rates(table1_cfg, call, match):
    # NaN, infinite or negative loads, rates and service coefficients
    # (o1, o2, w_total of weighted_delay), and a restart count that is not
    # a positive integer, are configuration errors.
    with pytest.raises(ConfigError, match=match):
        call(table1_cfg, ContentLibrary.zipf(100, 1.0, 4))


@pytest.mark.parametrize("call", [
    lambda cfg, lib, policy: objective_offloading(policy, lib, cfg.n_bar, 0.5),
    lambda cfg, lib, policy: energy_conditional(policy, lib, cfg, 8, 1e7, 1e7),
    lambda cfg, lib, policy: weighted_delay(policy, lib, 8, 1.0, 1e7, 1e-6, 1e-6,
                                            cfg.w_total),
], ids=["objective_offloading", "energy_conditional", "weighted_delay"])
def test_policy_length_must_match_library(table1_cfg, call):
    lib = ContentLibrary.zipf(100, 1.0, 4)
    policy = baseline_policy("cpf", ContentLibrary.zipf(50, 1.0, 4))
    with pytest.raises(ConfigError, match="policy has 50 files but the library "
                                          "has 100"):
        call(table1_cfg, lib, policy)


class TestOptimalBandwidth:
    def _setup(self, beta=0.5, n_files=100, m=4):
        cfg = _cfg()
        lib = ContentLibrary.zipf(n_files, beta, m)
        o1, o2 = queueing.service_coefficients(cfg, lib)
        return cfg, lib, o1, o2

    def test_degenerate_when_everything_self_served(self):
        cfg = _cfg()
        lib = ContentLibrary(4, 0.0, 2,
                             np.array([0.6, 0.4, 0.0, 0.0]), np.ones(4))
        policy = _policy([1, 1, 0, 0], 2)
        o1, o2 = queueing.service_coefficients(cfg, lib)
        assert opt._arrival_fractions(policy.b, lib.popularity, 3) == (0.0, 0.0)
        assert _split_of(policy, lib, 3, 2.0, o1, o2, cfg.w_total) == (
            cfg.w_total / 2, 0.0)

    def test_all_bs_load_pushes_to_lower_bound(self):
        cfg, lib, o1, o2 = self._setup()
        policy = _policy(np.r_[np.zeros(96), np.ones(4)], 4)  # tail cached only
        w1, _ = _split_of(policy, lib, 8, 1.0, o1, o2, cfg.w_total)
        assert w1 == 0.0

    def test_tiny_bs_load_keeps_bandwidth(self):
        # At k = 35 the uniform policy over 8 of 9 equally popular files
        # sends a2 = (1/9)^35 of the requests to the BS. W - W1* is then
        # far below the float spacing at W, and W1* rounded onto W would
        # leave a loaded BS queue no bandwidth: a load of 1.4% of capacity
        # would read infeasible. W1 stays below W, and the delay is the
        # closed form.
        cfg, lib = _cfg(), ContentLibrary.zipf(9, 0.0, 8)
        o1, o2 = queueing.service_coefficients(cfg, lib)
        zeta, w = 0.5, cfg.w_total
        a1, a2 = opt._arrival_fractions(np.full(9, 8 / 9), lib.popularity, 35)
        assert 0.0 < a2 < 1e-33
        w1, delay = opt._split_delay(a1, a2, zeta, o1, o2, w)
        assert w1 < w
        x1, x2 = zeta * a1 / o1, zeta * a2 / o2
        closed = (math.sqrt(x1) + math.sqrt(x2)) ** 2 / (zeta * (w - x1 - x2))
        assert delay == pytest.approx(closed, rel=1e-12, abs=0.0)
        assert optimize_delay_bcd(cfg, lib, 35, zeta, restarts=2).final_delay <= delay

    def test_matches_golden_section(self, rng):
        cfg, lib, o1, o2 = self._setup()
        kept = 0
        for _ in range(60):
            b = random_box_simplex(rng, 1, 100, 4)
            if b.shape[0] == 0:
                continue
            policy = _policy(b[0], 4)
            zeta = float(rng.uniform(0.3, 1.2))
            try:
                w1, _ = _split_of(policy, lib, 8, zeta, o1, o2, cfg.w_total)
            except UnstableQueueError:
                continue
            kept += 1

            def delay_at(w1):
                try:
                    return weighted_delay(policy, lib, 8, zeta, w1, o1, o2,
                                          cfg.w_total)
                except UnstableQueueError:
                    return math.inf

            a1, a2 = opt._arrival_fractions(policy.b, lib.popularity, 8)
            lo = zeta * a1 / o1
            hi = cfg.w_total - zeta * a2 / o2
            span = hi - lo
            best = _golden_section(delay_at, lo + 1e-9 * span, hi - 1e-9 * span,
                                   1e-9 * cfg.w_total)
            assert abs(w1 - best) < 1e-6 * cfg.w_total
            if kept >= 50:
                break
        assert kept >= 50

    def test_result_in_open_stability_interval(self, rng):
        cfg, lib, o1, o2 = self._setup(beta=1.0)
        for _ in range(20):
            b = random_box_simplex(rng, 1, 100, 4)
            if b.shape[0] == 0:
                continue
            policy = _policy(b[0], 4)
            try:
                w1, _ = _split_of(policy, lib, 8, 1.0, o1, o2, cfg.w_total)
            except UnstableQueueError:
                continue
            a1, a2 = opt._arrival_fractions(policy.b, lib.popularity, 8)
            assert 1.0 * a1 / o1 < w1 < cfg.w_total - 1.0 * a2 / o2

    def test_no_stable_split_raises(self):
        # No split stabilises both queues (W < x1 + x2): the optimal split
        # fails the utilisation rule, and its error names a service rate
        # that is not negative.
        cfg, lib, o1, o2 = self._setup()
        policy = _policy(np.full(100, 0.04), 4)
        with pytest.raises(UnstableQueueError) as info:
            _split_of(policy, lib, 8, 1e4, o1, o2, cfg.w_total)
        assert info.value.mu >= 0.0
        assert "utilisation" in str(info.value)

    def test_delay_at_split_matches_closed_form(self, rng):
        # At W1* the delay is (sqrt(x1) + sqrt(x2))^2 / (zeta (W - x1 - x2))
        # with x_i = zeta a_i / O_i.
        cfg, lib, o1, o2 = self._setup()
        w_total = cfg.w_total
        checked = 0
        while checked < 200:
            a1, a2 = rng.dirichlet(np.ones(3))[:2]
            zeta = float(rng.uniform(0.1, 5.0))
            x1, x2 = zeta * a1 / o1, zeta * a2 / o2
            if x1 + x2 >= 0.999 * w_total:
                continue
            _, delay = opt._split_delay(a1, a2, zeta, o1, o2, w_total)
            closed = (math.sqrt(x1) + math.sqrt(x2)) ** 2 / (zeta * (w_total - x1 - x2))
            assert delay == pytest.approx(closed, rel=1e-12)
            checked += 1


class TestWeightedDelay:
    def test_pure_bs_share(self):
        cfg, lib = _cfg(), ContentLibrary.zipf(4, 1.0, 2)
        policy = _policy([0, 0, 1, 1], 2)  # no file both missing and shared
        o1, o2 = queueing.service_coefficients(cfg, lib)
        got = weighted_delay(policy, lib, 1, 2.0, 5e6, o1, o2, cfg.w_total)
        z2 = 2.0 * float(lib.popularity[:2].sum())
        mu2 = o2 * (cfg.w_total - 5e6)
        assert got == pytest.approx((z2 / (mu2 - z2)) / 2.0)

    def test_zero_when_all_self_served(self):
        cfg = _cfg()
        lib = ContentLibrary(4, 0.0, 2,
                             np.array([0.6, 0.4, 0.0, 0.0]), np.ones(4))
        policy = _policy([1, 1, 0, 0], 2)
        o1, o2 = queueing.service_coefficients(cfg, lib)
        assert weighted_delay(policy, lib, 3, 2.0, 1e7, o1, o2, cfg.w_total) == 0.0

    def test_unstable_queue_identified(self):
        cfg, lib = _cfg(), ContentLibrary.zipf(100, 1.0, 4)
        policy = _policy(np.full(100, 0.04), 4)
        o1, o2 = queueing.service_coefficients(cfg, lib)
        with pytest.raises(UnstableQueueError) as info:
            weighted_delay(policy, lib, 8, 2.0, 19.9e6, o1, o2, cfg.w_total)
        assert info.value.queue == 2

    def test_rejects_empty_cluster(self):
        # At k = 0, (1 - b)**0 = 1 would send every request to the BS queue
        # and report it unstable instead of naming the bad argument.
        cfg, lib = _cfg(), ContentLibrary.zipf(100, 1.0, 4)
        policy = _policy(np.full(100, 0.04), 4)
        o1, o2 = queueing.service_coefficients(cfg, lib)
        with pytest.raises(ConfigError, match="k must be at least 1, got 0"):
            weighted_delay(policy, lib, 0, 2.0, 1e7, o1, o2, cfg.w_total)

    def test_convex_in_bandwidth(self, rng):
        cfg, lib = _cfg(), ContentLibrary.zipf(50, 0.8, 4)
        o1, o2 = queueing.service_coefficients(cfg, lib)
        rows = random_box_simplex(rng, 40, 50, 4)
        for b in rows[:20]:
            policy = _policy(b, 4)
            zeta = float(rng.uniform(0.2, 1.0))
            a1, a2 = opt._arrival_fractions(policy.b, lib.popularity, 8)
            lo = zeta * a1 / o1
            hi = cfg.w_total - zeta * a2 / o2
            if lo >= hi:
                continue
            w = np.linspace(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), 9)
            d = [weighted_delay(policy, lib, 8, zeta, wi, o1, o2, cfg.w_total)
                 for wi in w]
            second = np.diff(d, 2)
            assert np.all(second > -1e-12)


class TestDelayBcd:
    def test_trace_is_monotone_and_converges(self, table1_cfg):
        lib = ContentLibrary.zipf(100, 0.5, 4)
        trace = optimize_delay_bcd(table1_cfg, lib, 8, 2.0, restarts=4)
        delays = [s.delay for s in trace.steps]
        assert all(b <= a + 1e-12 for a, b in zip(delays, delays[1:]))
        assert trace.converged
        assert trace.restarts_used == 4

    def test_fixed_point_property(self, table1_cfg):
        lib = ContentLibrary.zipf(100, 0.5, 4)
        first = optimize_delay_bcd(table1_cfg, lib, 8, 2.0, restarts=4)
        o1, o2 = queueing.service_coefficients(table1_cfg, lib)
        steps, _, _ = opt._bcd_run(first.final_policy.b, lib.popularity, 8, 2.0,
                                   o1, o2, table1_cfg.w_total, 4)
        assert len(steps) <= 2 + 1  # initial point plus <= 2 iterations
        assert steps[-1].delay == pytest.approx(first.final_delay, rel=1e-6)

    def test_matches_exhaustive_grid(self):
        cfg = _cfg()
        lib = ContentLibrary.zipf(5, 1.0, 2)
        k, zeta = 3, 0.8
        o1, o2 = queueing.service_coefficients(cfg, lib)
        trace = optimize_delay_bcd(cfg, lib, k, zeta, restarts=8)

        rows = simplex_grid(5, 2, 0.1)
        miss = 1.0 - rows
        a1 = (miss - miss**k) @ lib.popularity
        a2 = (miss**k) @ lib.popularity
        z1, z2 = zeta * a1, zeta * a2
        best = math.inf
        for w1 in np.linspace(0.0, cfg.w_total, 201)[1:-1]:
            mu1, mu2 = o1 * w1, o2 * (cfg.w_total - w1)
            stable = (z1 < mu1) & (z2 < mu2)
            if not stable.any():
                continue
            d = np.where(z1 > 0, z1 / np.where(stable, mu1 - z1, np.inf), 0.0)
            d = d + np.where(z2 > 0, z2 / np.where(stable, mu2 - z2, np.inf), 0.0)
            d = np.where(stable, d / zeta, np.inf)
            best = min(best, float(d.min()))
        assert trace.final_delay <= best * (1 + 1e-3)

    def test_delay_decreases_with_popularity_skew(self, table1_cfg):
        lib_flat = ContentLibrary.zipf(100, 0.5, 4)
        lib_skew = ContentLibrary.zipf(100, 1.5, 4)
        d_flat = optimize_delay_bcd(table1_cfg, lib_flat, 8, 2.0, restarts=4).final_delay
        d_skew = optimize_delay_bcd(table1_cfg, lib_skew, 8, 2.0, restarts=4).final_delay
        assert d_skew < d_flat

    def test_infeasible_load_raises(self, table1_cfg):
        lib = ContentLibrary.zipf(100, 0.5, 4)
        with pytest.raises(InfeasibleLoadError):
            optimize_delay_bcd(table1_cfg, lib, 8, 1e4, restarts=2)

    def test_starts_from_the_only_stable_anchor(self, table1_cfg):
        # A load between the stability limits of the uniform and top-M
        # policies and that of the zipf-proportional policy: the top-M
        # start (rho = 1) is unstable, so of two frontier starts only the
        # one at rho = 2 runs, and it converges.
        lib = ContentLibrary.zipf(100, 0.5, 4)
        k = 8
        o1, o2 = queueing.service_coefficients(table1_cfg, lib)

        def zeta_limit(policy):
            a1, a2 = opt._arrival_fractions(policy.b, lib.popularity, k)
            return table1_cfg.w_total / (a1 / o1 + a2 / o2)

        uniform, top_m, proportional = (zeta_limit(p) for p in (
            _policy(np.full(100, 4 / 100), 4),
            baseline_policy("cpf", lib),
            baseline_policy("zipf-proportional", lib),
        ))
        next_down = max(uniform, top_m)
        assert proportional > next_down
        zeta = 0.5 * (proportional + next_down)
        trace = optimize_delay_bcd(table1_cfg, lib, k, zeta, restarts=2)
        assert math.isfinite(trace.final_delay)
        assert trace.converged
        assert trace.restarts_used == 1

    @staticmethod
    def _load_per_request(rows, q, k, o1, o2, w_total):
        """Stability load (a1/O1 + a2/O2) / W per request/s, per row of b."""
        miss = 1.0 - np.atleast_2d(rows)
        return ((miss - miss**k) @ q / o1 + miss**k @ q / o2) / w_total

    def test_minimum_load_policy_is_the_grid_minimum(self, table1_cfg):
        # The least stability load of any policy, and the load limit it
        # sets: just above it no policy is stable, just below it the
        # optimiser runs from that policy (no other anchor is stable).
        lib = ContentLibrary.zipf(5, 1.0, 2)
        k = 3
        o1, o2 = queueing.service_coefficients(table1_cfg, lib)
        w = table1_cfg.w_total
        q = lib.popularity
        least = opt._energy_form_minimiser(q, k, 1.0 / o1, 1.0 / o2, 2)[0]
        load = self._load_per_request(least, q, k, o1, o2, w)[0]
        grid = self._load_per_request(simplex_grid(5, 2, 0.1), q, k, o1, o2, w)
        assert load <= grid.min() * (1 + 1e-12)
        limit = 1.0 / load
        with pytest.raises(InfeasibleLoadError, match="least load"):
            optimize_delay_bcd(table1_cfg, lib, k, limit * (1 + 1e-6), restarts=2)
        trace = optimize_delay_bcd(table1_cfg, lib, k, limit * (1 - 1e-6), restarts=2)
        assert math.isfinite(trace.final_delay)

    def test_stabilises_a_load_no_baseline_scheme_does(self, table1_cfg):
        # Loads per bandwidth: uniform 4.24, zipf-proportional 1.030,
        # top-M 1.057 and the minimum-load policy 0.950.
        lib = ContentLibrary.zipf(148, 1.334, 25)
        k, zeta = 7, 15.894
        o1, o2 = queueing.service_coefficients(table1_cfg, lib)
        w = table1_cfg.w_total
        q = lib.popularity
        least = opt._energy_form_minimiser(q, k, 1.0 / o1, 1.0 / o2, 25)[0]
        for b in (np.full(148, 25 / 148),
                  baseline_policy("zipf-proportional", lib).b,
                  baseline_policy("cpf", lib).b):
            assert zeta * self._load_per_request(b, q, k, o1, o2, w)[0] > 1.0
        assert zeta * self._load_per_request(least, q, k, o1, o2, w)[0] < 0.96
        trace = optimize_delay_bcd(table1_cfg, lib, k, zeta, restarts=2)
        assert trace.converged
        assert trace.final_delay == pytest.approx(2.2728, rel=1e-4)


class TestFrontierStarts:
    """The BCD from deterministic starts on the caching frontier, against
    the line-search BCD from random restarts (``bcd_oracle``)."""

    @pytest.mark.parametrize("k", [3, 8])
    def test_uniform_popularity_gives_top_m(self, table1_cfg, k):
        # Table 1 at beta = 0: every file is equally popular, the uniform
        # policy is a stationary point, and the optimum is the top-M vertex
        # with an idle D2D queue.
        lib = ContentLibrary.zipf(500, 0.0, 10)
        trace = optimize_delay_bcd(table1_cfg, lib, k, 2.0, restarts=8)
        np.testing.assert_array_equal(trace.final_policy.b,
                                      baseline_policy("cpf", lib).b)
        assert trace.final_delay == pytest.approx(3.4950493369311015, rel=1e-12, abs=0.0)
        assert trace.final_w1 == 0.0
        assert opt._arrival_fractions(trace.final_policy.b, lib.popularity, k)[0] == 0.0

    def test_interior_optimum_from_a_later_start(self, table1_cfg):
        # Here the optimum serves requests over D2D, and a start with
        # rho > 1 reaches it; the top-M vertex is 50% worse.
        lib = ContentLibrary.zipf(127, 0.44, 19)
        k, zeta = 9, 2.89
        trace = optimize_delay_bcd(table1_cfg, lib, k, zeta, restarts=8)
        assert trace.final_delay == pytest.approx(1.6963755386, rel=1e-8, abs=0.0)
        assert opt._arrival_fractions(trace.final_policy.b, lib.popularity, k)[0] > 0.0
        assert trace.best_start > 0
        o1, o2 = queueing.service_coefficients(table1_cfg, lib)
        _, top_m = _split_of(baseline_policy("cpf", lib), lib, k, zeta, o1, o2,
                             table1_cfg.w_total)
        assert top_m >= 2.538

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(5, 300), m_share=st.floats(0.0, 1.0), k=st.integers(1, 40),
           zeta=st.floats(0.1, 8.0), beta=st.floats(0.0, 2.5),
           log_scale=st.floats(-1.0, 2.0), restarts=st.sampled_from([2, 4, 8]),
           seed=st.integers(0, 2**32 - 1))
    def test_no_worse_than_random_restarts(self, n, m_share, k, zeta, beta,
                                           log_scale, restarts, seed):
        # O1 scaled by 0.1-100 reaches optima deep inside the frontier.
        cfg = _cfg()
        lib = ContentLibrary.zipf(n, beta, 1 + int(m_share * min(38, n - 2)))
        o1, o2 = queueing.service_coefficients(cfg, lib)
        with mock.patch.object(queueing, "service_coefficients",
                               lambda cfg, lib: (o1 * 10.0**log_scale, o2)):
            try:
                oracle = bcd_oracle.best_of_starts(cfg, lib, k, zeta, restarts, seed)
            except InfeasibleLoadError:
                with pytest.raises(InfeasibleLoadError):
                    optimize_delay_bcd(cfg, lib, k, zeta, restarts=restarts)
                return
            trace = optimize_delay_bcd(cfg, lib, k, zeta, restarts=restarts)
        assert trace.final_delay <= oracle * (1.0 + opt._BCD_TOL)


class TestSeparableCachingStep:
    """The caching block: exact linearised step, fallback and certificate."""

    @pytest.mark.parametrize("n_files, m, beta", [
        (500, 10, 1.0),   # the benchmark's delay workload at beta = 1
        (100, 4, 1.0),    # the acceptance delay library
        (100, 4, 0.5),
        (100, 4, 0.0),    # interior optimum: the convex branch certifies it
    ])
    def test_certificate_and_dominance(self, table1_cfg, n_files, m, beta):
        lib = ContentLibrary.zipf(n_files, beta, m)
        k, zeta = 8, 2.0
        o1, o2 = queueing.service_coefficients(table1_cfg, lib)
        w = table1_cfg.w_total
        trace = optimize_delay_bcd(table1_cfg, lib, k, zeta, restarts=2)
        assert trace.converged
        assert 0 <= trace.best_start < trace.restarts_used
        assert abs(trace.gap) <= 1e-8 * trace.final_delay
        rivals = [
            baseline_policy("cpf", lib),  # the top-M corner
            _policy(np.full(n_files, m / n_files), m),
            baseline_policy("zipf-proportional", lib),
        ]
        for policy in rivals:
            try:
                _, rival = _split_of(policy, lib, k, zeta, o1, o2, w)
            except UnstableQueueError:
                continue
            assert trace.final_delay <= rival * (1 + 1e-12)

    def _slopes(self, b, w1, lib, k, zeta, o1, o2, w_total):
        a1, a2 = opt._arrival_fractions(b, lib.popularity, k)
        mu1, mu2 = o1 * w1, o2 * (w_total - w1)
        return mu1 / (mu1 - zeta * a1) ** 2, mu2 / (mu2 - zeta * a2) ** 2

    def test_concave_case_falls_back_to_top_m(self, table1_cfg):
        lib = ContentLibrary.zipf(100, 1.0, 4)
        k, zeta = 8, 2.0
        o1, o2 = queueing.service_coefficients(table1_cfg, lib)
        w = table1_cfg.w_total
        b = baseline_policy("zipf-proportional", lib).b
        # A small D2D share makes the D2D queue the expensive one: B <= A.
        w1 = 0.2 * w
        slope1, slope2 = self._slopes(b, w1, lib, k, zeta, o1, o2, w)
        assert slope2 <= slope1
        s, gap = opt._linearised_caching_step(b, w1, lib.popularity, k, zeta,
                                              o1, o2, w, 4)
        np.testing.assert_array_equal(s, baseline_policy("cpf", lib).b)
        assert gap > 0
        steps, _, _ = opt._bcd_run(_policy(b, 4).b, lib.popularity, k, zeta,
                                   o1, o2, w, 4)
        delays = [step.delay for step in steps]
        assert all(after <= before for before, after in zip(delays, delays[1:]))

    def test_single_device_falls_back_to_top_m(self, table1_cfg):
        # k = 1: no D2D partner, the delay is linear in b and the top-M
        # vertex is the exact optimum.
        lib = ContentLibrary.zipf(100, 1.0, 4)
        o1, o2 = queueing.service_coefficients(table1_cfg, lib)
        w = table1_cfg.w_total
        b = baseline_policy("zipf-proportional", lib).b
        s, _ = opt._linearised_caching_step(b, 0.5 * w, lib.popularity, 1, 2.0,
                                            o1, o2, w, 4)
        cpf = baseline_policy("cpf", lib).b
        np.testing.assert_array_equal(s, cpf)
        trace = optimize_delay_bcd(table1_cfg, lib, 1, 2.0, restarts=2)
        delays = [step.delay for step in trace.steps]
        assert all(after <= before for before, after in zip(delays, delays[1:]))
        np.testing.assert_array_equal(trace.final_policy.b, cpf)
        assert trace.gap == 0.0

    def test_convex_case_matches_energy_solver(self, table1_cfg):
        # B > A and k >= 2: the step is the exact minimiser of the
        # linearised delay, which no random feasible policy beats.
        lib = ContentLibrary.zipf(50, 0.8, 4)
        k, zeta = 8, 2.0
        o1, o2 = queueing.service_coefficients(table1_cfg, lib)
        w = table1_cfg.w_total
        b = np.full(50, 4 / 50)
        w1, _ = _split_of(_policy(b, 4), lib, k, zeta, o1, o2, w)
        slope1, slope2 = self._slopes(b, w1, lib, k, zeta, o1, o2, w)
        assert slope2 > slope1
        s, gap = opt._linearised_caching_step(b, w1, lib.popularity, k, zeta,
                                              o1, o2, w, 4)
        assert s.sum() == pytest.approx(4.0, abs=1e-9)
        assert gap > 0

        def linearised(rows):
            miss = 1.0 - rows
            return (slope1 * (miss - miss**k) + slope2 * miss**k) @ lib.popularity

        rows = random_box_simplex(np.random.default_rng(4), 400, 50, 4)
        assert linearised(s[None, :])[0] <= linearised(rows).min() + 1e-12

    def test_unrequested_files_are_not_cached(self, table1_cfg):
        # Files of zero popularity take no part in the bisection (their
        # stationarity ratio would divide by zero) and are never cached.
        q = np.r_[np.arange(6, 0, -1) / 21.0, np.zeros(4)]
        lib = ContentLibrary(10, 0.0, 2, q, np.ones(10))
        o1, o2 = queueing.service_coefficients(table1_cfg, lib)
        w = table1_cfg.w_total
        b = np.r_[np.full(6, 2 / 6), np.zeros(4)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w1, _ = _split_of(_policy(b, 2), lib, 3, 0.8, o1, o2, w)
            s, _ = opt._linearised_caching_step(b, w1, q, 3, 0.8, o1, o2, w, 2)
            trace = optimize_delay_bcd(table1_cfg, lib, 3, 0.8, restarts=4)
        assert np.all(s[6:] == 0.0) and s.sum() == pytest.approx(2.0, abs=1e-9)
        assert np.all(trace.final_policy.b[6:] == 0.0)

    def test_zero_load_is_degenerate(self, table1_cfg):
        lib = ContentLibrary.zipf(100, 1.0, 4)
        trace = optimize_delay_bcd(table1_cfg, lib, 8, 0.0, restarts=2)
        assert trace.final_delay == 0.0
        assert trace.converged
        assert trace.gap == 0.0


class TestBcdLineSearch:
    """What the caching steps cost, in passes over the library."""

    def test_counts_library_passes(self, table1_cfg, table1_lib, monkeypatch):
        # A caching step makes two passes, one for its slopes and one for
        # the delay at its full step, and each start one for its stability.
        calls = []
        direct = queueing._arrival_fractions

        def counted(b, q, k):
            calls.append(k)
            return direct(b, q, k)

        monkeypatch.setattr(opt, "_arrival_fractions", counted)
        monkeypatch.setattr(queueing, "_arrival_fractions", counted)
        trace = optimize_delay_bcd(table1_cfg, table1_lib, 8, 2.0, restarts=2)
        assert trace.converged
        assert len(calls) <= 40

    @pytest.mark.parametrize("max_iterations", [1, opt._BCD_MAX_ITERATIONS])
    def test_one_linearisation_per_iterate(self, table1_cfg, table1_lib, monkeypatch,
                                           max_iterations):
        # Each iteration linearises the delay once, and the returned point
        # once more only when the last step moved to it; the gap is that
        # of a linearisation at the returned point. One iteration from the
        # zipf-proportional policy ends on a step that moved; the full run
        # ends on a rejected one.
        lib = table1_lib
        q, m = lib.popularity, lib.cache_size
        o1, o2 = queueing.service_coefficients(table1_cfg, lib)
        w = table1_cfg.w_total
        direct = opt._linearised_caching_step
        calls = []

        def counted(b, w1, *args):
            result = direct(b, w1, *args)
            calls.append((b, w1, result))
            return result

        monkeypatch.setattr(opt, "_linearised_caching_step", counted)
        monkeypatch.setattr(opt, "_BCD_MAX_ITERATIONS", max_iterations)
        b0 = baseline_policy("zipf-proportional", lib).b
        steps, _, gap = opt._bcd_run(b0, q, 8, 2.0, o1, o2, w, m)
        moved = steps[-1].delay < steps[-2].delay
        assert moved == (max_iterations == 1)
        assert len(calls) == len(steps) - 1 + moved
        b, w1, _ = calls[-1]
        if moved:
            assert b is calls[-2][2][0]  # the step's minimiser, now the iterate
        assert w1 == steps[-1].w1
        assert opt._snap_budget(b, m).tobytes() == steps[-1].policy.b.tobytes()
        assert gap == direct(b, w1, q, 8, 2.0, o1, o2, w, m)[1]


class TestFrontierStartReuse:
    """Equal frontier starts share one BCD run."""

    @staticmethod
    def _counted_runs(monkeypatch):
        direct = opt._bcd_run
        calls = []

        def counted(b0, *args):
            calls.append(b0)
            return direct(b0, *args)

        monkeypatch.setattr(opt, "_bcd_run", counted)
        return direct, calls

    def test_single_device_runs_once(self, table1_cfg, monkeypatch):
        # At k = 1 every rho gives the top-M vertex: one run serves all
        # eight starts, and the trace is the one from running each.
        lib = ContentLibrary.zipf(100, 1.0, 4)
        direct, calls = self._counted_runs(monkeypatch)
        trace = optimize_delay_bcd(table1_cfg, lib, 1, 2.0, restarts=8)
        assert len(calls) == 1
        q, m = lib.popularity, lib.cache_size
        o1, o2 = queueing.service_coefficients(table1_cfg, lib)
        runs = [direct(opt._energy_form_minimiser(q, 1, 1.0, rho, m)[0], q, 1, 2.0,
                       o1, o2, table1_cfg.w_total, m)
                for rho in [1.0, *np.geomspace(2.0, 1e8, 7)]]
        best = min(range(8), key=lambda i: runs[i][0][-1].delay)
        steps, converged, gap = runs[best]
        assert (trace.restarts_used, trace.best_start, trace.converged, trace.gap) == (
            8, best, converged, gap)
        assert len(trace.steps) == len(steps)
        for got, want in zip(trace.steps, steps):
            assert (got.w1, got.delay) == (want.w1, want.delay)
            assert got.policy.b.tobytes() == want.policy.b.tobytes()

    def test_distinct_starts_each_run(self, table1_cfg, table1_lib, monkeypatch):
        # Table 1 at k = 8: starts that differ in any bit run separately.
        _, calls = self._counted_runs(monkeypatch)
        trace = optimize_delay_bcd(table1_cfg, table1_lib, 8, 2.0, restarts=8)
        q, m = table1_lib.popularity, table1_lib.cache_size
        starts = {opt._energy_form_minimiser(q, 8, 1.0, rho, m)[0].tobytes()
                  for rho in [1.0, *np.geomspace(2.0, 1e8, 7)]}
        assert trace.restarts_used == 8
        assert 1 < len(calls) == len(starts)
        assert len({b0.tobytes() for b0 in calls}) == len(calls)
