"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

 1. P(R1 > R0) analytic vs Monte Carlo within 0.02 absolute at 1e5 trials
    over sigma in {10, 20, 30} m x theta in {0, 3} dB; under 5 minutes.
 2. Single-active-link coverage closed form vs Monte Carlo within 0.02 on
    (sigma, lambda_p) in {10, 20, 30} m x {10, 20} /km^2; the reference
    point (theta=1, alpha=4, sigma=10, 20/km^2) evaluates to 0.962+-0.01.
 3. BS coverage at theta=1, alpha=4 matches 1/(1 + arctan 1) and an
    independent 30-digit series evaluation within 1e-10.
 4. Both KKT solvers within 1e-3 of exhaustive 0.05-grid search on 20
    random (N_f=5, M=2) instances each, zero failures, under 1 minute.
 5. Scheme dominance across beta in {0, .5, 1, 1.5, 2}: offloading
    PC >= Zipf >= CPF (approximately), energy PC <= Zipf and <= CPF,
    BCD delay <= Zipf equal-split with > 25% improvement at beta = 1.
 6. Closed-form bandwidth split equals the golden-section argmin within
    1e-6 W on 50 random feasible instances.
 7. BCD delay traces non-increasing on 20 random starts, all terminating
    within 200 iterations at tol 1e-8.
 8. Monotonicity: P(R1>R0) non-increasing in sigma, theta, lambda_p
    (5-point grids); W1* non-decreasing in beta; minimized delay
    non-decreasing in sigma and lambda_p.
 9. Concavity/convexity property tests at 1000 random triples per
    objective (offloading concave, energy convex under the power gate,
    delay convex in W1 on the stability interval).
10. Two `validate` runs with the same seed yield byte-identical CSVs.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

import mpmath

from clustercache import montecarlo, optimize, queueing, stochgeo
from clustercache.cli import default_table1, run_scenario
from clustercache.errors import UnstableQueueError
from clustercache.model import ContentLibrary, baseline_policy

import bcd_oracle
from conftest import random_box_simplex
from test_optimize import (
    _golden_section,
    _policy,
    energy_objective_rows,
    offload_objective_rows,
    simplex_grid,
)


def _check(num, name, ok, detail=""):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}): {detail}"


# Delay workload of the scheme-comparison figures: 100 files, 4-slot
# caches, 8 devices per fixed-size cluster, 2 req/s.
DELAY_LIB_FILES, DELAY_LIB_M, DELAY_K = 100, 4, 8


@pytest.fixture(scope="module")
def table1():
    return default_table1()


@pytest.fixture(scope="module")
def bcd_beta_sweep(table1):
    """BCD solution per beta on the delay workload (shared by 5 and 8)."""
    out = {}
    for beta in (0.0, 0.5, 1.0, 1.5, 2.0):
        lib = ContentLibrary.zipf(DELAY_LIB_FILES, beta, DELAY_LIB_M)
        out[beta] = (
            lib,
            optimize.optimize_delay_bcd(table1.cfg, lib, DELAY_K, table1.zeta_tot,
                                        restarts=8),
        )
    return out


def test_criterion_01_rate_probability_vs_monte_carlo(table1):
    started = time.time()
    failures = []
    for sigma in (10.0, 20.0, 30.0):
        for theta_db in (0.0, 3.0):
            cfg = replace(table1.cfg, sigma=sigma, theta=10 ** (theta_db / 10))
            analytic = stochgeo.prob_rate_exceeds(cfg, 0.1)
            (mc,) = montecarlo.simulate(
                [montecarlo.ProbRateExceeds(cfg, 0.1)], 100_000,
                seed=int(1000 * sigma + theta_db),
            )
            gap = abs(analytic - mc.mean)
            if gap >= 0.02:
                failures.append((sigma, theta_db, analytic, mc.mean, gap))
    elapsed = time.time() - started
    _check(
        1, "P(R1>R0) analytic vs MC (0.02 abs, 1e5 trials)",
        not failures and elapsed < 300.0,
        f"failures={failures}, elapsed={elapsed:.1f}s",
    )


def test_criterion_02_single_link_closed_form_vs_monte_carlo(table1):
    failures = []
    for sigma in (10.0, 20.0, 30.0):
        for lam_km2 in (10.0, 20.0):
            cfg = replace(table1.cfg, sigma=sigma, lambda_p=lam_km2 * 1e-6)
            analytic = stochgeo.d2d_coverage_single_link(cfg)
            (mc,) = montecarlo.simulate(
                [montecarlo.SingleLinkCoverage(cfg)], 100_000,
                seed=int(100 * sigma + lam_km2),
            )
            gap = abs(analytic - mc.mean)
            if gap >= 0.02:
                failures.append((sigma, lam_km2, analytic, mc.mean, gap))
    reference = stochgeo.d2d_coverage_single_link(table1.cfg)
    point_ok = abs(reference - 0.962) <= 0.01
    _check(
        2, "single-link coverage vs MC grid + 0.962 reference point",
        not failures and point_ok,
        f"failures={failures}, reference={reference}",
    )


def test_criterion_03_bs_coverage_closed_form():
    got = stochgeo.bs_coverage(1.0, 4.0)
    closed = 1.0 / (1.0 + math.atan(1.0))
    with mpmath.workdps(30):
        series = float(1 / mpmath.hyp2f1(1, -0.5, 0.5, -1))
    ok = abs(got - closed) < 1e-10 and abs(got - series) < 1e-10
    _check(
        3, "BS coverage equals 1/(1+arctan 1) and series within 1e-10",
        ok, f"got={got!r}, closed={closed!r}, series={series!r}",
    )


def test_criterion_04_kkt_vs_brute_force(table1):
    started = time.time()
    rng = np.random.default_rng(404)
    grid = simplex_grid(5, 2, 0.05)
    failures = []
    for trial in range(20):
        beta = float(rng.uniform(0.0, 2.0))
        n_bar = float(rng.uniform(1.0, 8.0))
        prob = float(rng.uniform(0.0, 1.0))
        lib = ContentLibrary.zipf(5, beta, 2)
        cfg = replace(table1.cfg, n_bar=n_bar)
        sol = optimize.optimize_offloading(cfg, lib, prob)
        best = offload_objective_rows(grid, lib.popularity, n_bar, prob).max()
        if sol.objective < best - 1e-3:
            failures.append(("offload", trial, sol.objective, best))
    for trial in range(20):
        beta = float(rng.uniform(0.0, 2.0))
        k = int(rng.integers(2, 7))
        sizes = np.sort(rng.uniform(1.0, 10.0, 5))[::-1]
        lib = ContentLibrary(5, beta, 2, _sorted_simplex(rng, 5), sizes)
        r1 = float(10 ** rng.uniform(5.5, 6.5))
        r2 = r1 * float(rng.uniform(0.2, 20.0))
        sol = optimize.optimize_energy(table1.cfg, lib, k, r1, r2)
        best = energy_objective_rows(
            grid, lib.popularity, lib.sizes * 1e6, k,
            table1.cfg.p_d / r1, table1.cfg.p_b / r2,
        ).min()
        if sol.objective > best + 1e-3 * abs(best):
            failures.append(("energy", trial, sol.objective, best))
    elapsed = time.time() - started
    _check(
        4, "KKT solvers vs exhaustive grid (20 random instances each)",
        not failures and elapsed < 60.0,
        f"failures={failures}, elapsed={elapsed:.1f}s",
    )


def _sorted_simplex(rng, n):
    q = np.sort(rng.dirichlet(np.ones(n)))[::-1]
    return q / q.sum()


def test_criterion_05_scheme_dominance(table1, bcd_beta_sweep):
    cfg = table1.cfg
    problems = []

    # Offloading: the optimized policy dominates; the proportional scheme
    # at least approximately dominates deterministic top-M caching.
    prob = stochgeo.prob_rate_exceeds(cfg, 0.1)
    for beta in (0.0, 0.5, 1.0, 1.5, 2.0):
        lib = ContentLibrary.zipf(500, beta, 10)
        pc = optimize.optimize_offloading(cfg, lib, prob).objective
        zipf = optimize.objective_offloading(
            baseline_policy("zipf-proportional", lib), lib, cfg.n_bar, prob)
        cpf = optimize.objective_offloading(
            baseline_policy("cpf", lib), lib, cfg.n_bar, prob)
        if not (pc >= zipf - 1e-9 and zipf >= cpf - 0.01):
            problems.append(("offload", beta, pc, zipf, cpf))

    # Energy: per-cluster-size optimal caching beats both baselines under
    # the same conditional rates, Poisson-averaged over the cluster size.
    r2 = stochgeo.average_rate(cfg.w_total / 2, cfg.theta,
                               stochgeo.bs_coverage(cfg.theta, cfg.alpha))
    rates = {}
    for k, _ in _poisson_weights(cfg.n_bar):
        rates[k] = stochgeo.average_rate(
            cfg.w_total / 2, cfg.theta, stochgeo.d2d_coverage_conditional(cfg, k))
    for beta in (0.0, 0.5, 1.0, 1.5, 2.0):
        lib = ContentLibrary.zipf(500, beta, 10)
        zipf_policy = baseline_policy("zipf-proportional", lib)
        cpf_policy = baseline_policy("cpf", lib)
        e_pc = e_zipf = e_cpf = 0.0
        for k, weight in _poisson_weights(cfg.n_bar):
            r1 = rates[k]
            e_pc += weight * optimize.optimize_energy(cfg, lib, k, r1, r2).objective
            e_zipf += weight * optimize.energy_conditional(
                zipf_policy, lib, cfg, k, r1, r2)
            e_cpf += weight * optimize.energy_conditional(
                cpf_policy, lib, cfg, k, r1, r2)
        if not (e_pc <= e_zipf * (1 + 1e-9) and e_pc <= e_cpf * (1 + 1e-9)):
            problems.append(("energy", beta, e_pc, e_zipf, e_cpf))

    # Delay: joint optimization beats the proportional scheme at an equal
    # split (an unstable baseline counts as infinite delay) and the gain
    # at beta = 1 exceeds 25%.
    improvement_at_1 = None
    for beta, (lib, trace) in bcd_beta_sweep.items():
        o1, o2 = queueing.service_coefficients(cfg, lib)
        zipf_policy = baseline_policy("zipf-proportional", lib)
        try:
            d_zipf = optimize.weighted_delay(
                zipf_policy, lib, DELAY_K, table1.zeta_tot,
                cfg.w_total / 2, o1, o2, cfg.w_total)
        except UnstableQueueError:
            d_zipf = math.inf
        if trace.final_delay > d_zipf:
            problems.append(("delay", beta, trace.final_delay, d_zipf))
        if beta == 1.0 and math.isfinite(d_zipf):
            improvement_at_1 = 1.0 - trace.final_delay / d_zipf
    gain_ok = improvement_at_1 is not None and improvement_at_1 > 0.25
    _check(
        5, "PC dominates baselines (offload, energy, delay; >25% at beta=1)",
        not problems and gain_ok,
        f"problems={problems}, improvement_at_beta1={improvement_at_1}",
    )


def _poisson_weights(n_bar):
    weight = math.exp(-n_bar)
    cumulative = weight
    k = 0
    while cumulative < 1.0 - 1e-10:
        k += 1
        weight *= n_bar / k
        cumulative += weight
        yield k, weight


def test_criterion_06_bandwidth_closed_form_vs_golden_section(table1):
    cfg = table1.cfg
    lib = ContentLibrary.zipf(DELAY_LIB_FILES, 0.5, DELAY_LIB_M)
    o1, o2 = queueing.service_coefficients(cfg, lib)
    rng = np.random.default_rng(606)
    checked = 0
    worst = 0.0
    while checked < 50:
        rows = random_box_simplex(rng, 1, DELAY_LIB_FILES, DELAY_LIB_M)
        if rows.shape[0] == 0:
            continue
        policy = _policy(rows[0], DELAY_LIB_M)
        zeta = float(rng.uniform(0.3, 1.5))
        a1, a2 = optimize._arrival_fractions(policy.b, lib.popularity, DELAY_K)
        try:
            w1, _ = optimize._split_delay(a1, a2, zeta, o1, o2, cfg.w_total)
        except UnstableQueueError:
            continue

        def delay_at(w1):
            try:
                return optimize.weighted_delay(
                    policy, lib, DELAY_K, zeta, w1, o1, o2, cfg.w_total)
            except UnstableQueueError:
                return math.inf

        lo, hi = zeta * a1 / o1, cfg.w_total - zeta * a2 / o2
        span = hi - lo
        best = _golden_section(delay_at, lo + 1e-9 * span, hi - 1e-9 * span,
                               1e-9 * cfg.w_total)
        worst = max(worst, abs(w1 - best))
        checked += 1
    _check(
        6, "closed-form W1* equals golden-section argmin (1e-6 W, 50 cases)",
        worst < 1e-6 * cfg.w_total,
        f"worst gap {worst:.3g} Hz of {cfg.w_total:.3g} Hz",
    )


def _criterion_07_runs(table1):
    """(run number, ``_bcd_run`` arguments) of criterion 7's 20 stable
    random starts."""
    cfg = table1.cfg
    lib = ContentLibrary.zipf(DELAY_LIB_FILES, 0.5, DELAY_LIB_M)
    o1, o2 = queueing.service_coefficients(cfg, lib)
    rng = np.random.default_rng(707)
    runs = 0
    while runs < 20:
        rows = random_box_simplex(rng, 1, DELAY_LIB_FILES, DELAY_LIB_M)
        if rows.shape[0] == 0:
            continue
        if not math.isfinite(optimize._optimised_delay(
                rows[0], lib.popularity, DELAY_K, table1.zeta_tot, o1, o2,
                cfg.w_total)[1]):
            continue
        runs += 1
        yield runs, (_policy(rows[0], DELAY_LIB_M).b, lib.popularity, DELAY_K,
                     table1.zeta_tot, o1, o2, cfg.w_total, DELAY_LIB_M)


def test_criterion_07_bcd_monotone_and_terminates(table1):
    problems = []
    for runs, args in _criterion_07_runs(table1):
        steps, converged, _ = optimize._bcd_run(*args)
        delays = [s.delay for s in steps]
        monotone = all(b <= a + 1e-12 for a, b in zip(delays, delays[1:]))
        if not (monotone and converged and len(steps) <= 201):
            problems.append((runs, monotone, converged, len(steps)))
    _check(
        7, "BCD trace non-increasing, terminates <= 200 iterations (20 starts)",
        not problems, f"problems={problems}",
    )


def test_criterion_07_starts_match_direct_line_search(table1):
    # The same 20 runs end where the direct-objective oracle's do.
    for runs, args in _criterion_07_runs(table1):
        delay = optimize._bcd_run(*args)[0][-1].delay
        oracle = bcd_oracle.bcd_run(*args)[0][-1].delay
        assert delay == pytest.approx(oracle, rel=1e-12, abs=0.0), runs


def test_criterion_08_monotonicity_suite(table1, bcd_beta_sweep):
    cfg = table1.cfg
    problems = []

    def non_increasing(seq):
        return all(a >= b - 1e-12 for a, b in zip(seq, seq[1:]))

    in_sigma = [
        stochgeo.prob_rate_exceeds(replace(cfg, sigma=s), 0.1)
        for s in (10.0, 20.0, 30.0, 40.0, 50.0)
    ]
    # The theta grid needs an access probability feasible across the whole
    # grid (p log2(1+theta) > R0/W1 fails at theta=0.5 for the default p).
    in_theta = [
        stochgeo.prob_rate_exceeds(replace(cfg, theta=t, access_p=0.5), 0.1)
        for t in (0.5, 1.0, 2.0, 4.0, 8.0)
    ]
    in_lambda = [
        stochgeo.prob_rate_exceeds(replace(cfg, lambda_p=l * 1e-6), 0.1)
        for l in (5.0, 10.0, 20.0, 40.0, 80.0)
    ]
    for name, seq in (("sigma", in_sigma), ("theta", in_theta),
                      ("lambda_p", in_lambda)):
        if not non_increasing(seq):
            problems.append((f"P(R1>R0) vs {name}", seq))

    # W1* non-decreasing in beta on the regime where the bandwidth block
    # is sharply identified (the objective is nearly flat in W1 for
    # beta < 0.5, so the argmin there is not meaningful).
    w1_by_beta = [bcd_beta_sweep[b][1].final_w1 for b in (0.5, 1.0, 1.5, 2.0)]
    if not all(a <= b + 1e-9 for a, b in zip(w1_by_beta, w1_by_beta[1:])):
        problems.append(("W1* vs beta", w1_by_beta))

    # Minimized delay grows with displacement spread and cluster density.
    def bcd_delay(sigma, lam_km2):
        point = replace(cfg, sigma=sigma, lambda_p=lam_km2 * 1e-6)
        lib = ContentLibrary.zipf(DELAY_LIB_FILES, 0.5, DELAY_LIB_M)
        return optimize.optimize_delay_bcd(point, lib, DELAY_K, table1.zeta_tot,
                                           restarts=8).final_delay

    delay_sigma = [bcd_delay(s, 20.0) for s in (10.0, 20.0, 30.0)]
    if not all(a <= b + 1e-12 for a, b in zip(delay_sigma, delay_sigma[1:])):
        problems.append(("delay vs sigma", delay_sigma))
    delay_lambda = [bcd_delay(10.0, l) for l in (10.0, 20.0)]
    if not delay_lambda[0] <= delay_lambda[1] + 1e-12:
        problems.append(("delay vs lambda_p", delay_lambda))

    _check(8, "monotonicity suite (coverage, W1*, delay)", not problems,
           f"problems={problems}")


def test_criterion_09_curvature_properties(table1):
    rng = np.random.default_rng(909)
    cfg = table1.cfg
    lib = ContentLibrary.zipf(50, 0.8, 6)
    q = lib.popularity
    problems = []

    # Offloading gain is concave in the caching vector.
    rows = random_box_simplex(rng, 2200, 50, 6)
    assert rows.shape[0] >= 2000
    xs, ys = rows[:1000], rows[1000:2000]
    lams = rng.random(1000)
    prob = 0.6
    for x, y, lam in zip(xs, ys, lams):
        mix = lam * x + (1 - lam) * y
        lhs = offload_objective_rows(mix[None], q, cfg.n_bar, prob)[0]
        rhs = (lam * offload_objective_rows(x[None], q, cfg.n_bar, prob)[0]
               + (1 - lam) * offload_objective_rows(y[None], q, cfg.n_bar, prob)[0])
        if lhs < rhs - 1e-12:
            problems.append(("offload-concavity", float(lhs - rhs)))
            break

    # Conditional energy is convex when Pb/R2 > Pd/R1.
    k, r1, r2 = 4, 1e6, 2e6
    cost_d2d, cost_bs = cfg.p_d / r1, cfg.p_b / r2
    s_bits = lib.sizes * 1e6
    for x, y, lam in zip(xs, ys, lams):
        mix = lam * x + (1 - lam) * y
        lhs = energy_objective_rows(mix[None], q, s_bits, k, cost_d2d, cost_bs)[0]
        rhs = (lam * energy_objective_rows(x[None], q, s_bits, k, cost_d2d,
                                           cost_bs)[0]
               + (1 - lam) * energy_objective_rows(y[None], q, s_bits, k,
                                                   cost_d2d, cost_bs)[0])
        if lhs > rhs + 1e-12 * max(1.0, abs(rhs)):
            problems.append(("energy-convexity", float(lhs - rhs)))
            break

    # Weighted delay is convex in W1 between the stability bounds.
    o1, o2 = queueing.service_coefficients(cfg, lib)
    count = 0
    while count < 1000:
        b = random_box_simplex(rng, 1, 50, 6)
        if b.shape[0] == 0:
            continue
        policy = _policy(b[0], 6)
        zeta = float(rng.uniform(0.2, 1.2))
        a1, a2 = optimize._arrival_fractions(policy.b, q, DELAY_K)
        lo, hi = zeta * a1 / o1, cfg.w_total - zeta * a2 / o2
        if lo >= hi:
            continue
        pts = lo + (hi - lo) * np.sort(rng.uniform(0.02, 0.98, 3))
        lam = (pts[1] - pts[0]) / (pts[2] - pts[0])
        d = [optimize.weighted_delay(policy, lib, DELAY_K, zeta, w, o1, o2,
                                     cfg.w_total) for w in pts]
        mix = (1 - lam) * d[0] + lam * d[2]
        if d[1] > mix + 1e-12 * max(1.0, abs(mix)):
            problems.append(("delay-convexity-in-w1", float(d[1] - mix)))
            break
        count += 1

    _check(9, "curvature properties (1000 random triples each)", not problems,
           f"problems={problems}")


def test_criterion_10_validate_determinism(table1, tmp_path):
    scenario = replace(table1, tasks=("validate",), mc_trials=20_000,
                       output_dir=str(tmp_path / "run1"))
    code_1 = run_scenario(scenario)
    code_2 = run_scenario(replace(scenario, output_dir=str(tmp_path / "run2")))
    first = (tmp_path / "run1" / "table1_validate.csv").read_bytes()
    second = (tmp_path / "run2" / "table1_validate.csv").read_bytes()
    _check(
        10, "validate twice with one seed: byte-identical CSVs, all pass",
        first == second and code_1 == 0 and code_2 == 0,
        f"identical={first == second}, codes=({code_1}, {code_2})",
    )
