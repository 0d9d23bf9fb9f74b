"""Experiment runner: scenario files, sweeps, CSV artifacts.

A scenario is a YAML or JSON file with unit-explicit keys (dB only ever
appears in keys suffixed ``_db``/``_dbm``, densities in ``_per_km2``,
bandwidth in ``_mhz``) so the linear/dB ambiguity cannot enter the
kernel. The default parameter set ``_TABLE1`` is the file's schema, one
key per quantity: a key it lacks, a count that is not an integer, or a
bool or string where it holds a number or list, is a configuration error.
``clustercache print-default-config`` prints ``_TABLE1`` as it stands
(``access_p: auto``). ``clustercache run scenario.yaml`` executes the
requested tasks over the sweep grid and writes one CSV per task plus a
JSON summary, which records the resolved ``Scenario`` in the SI units
the computation uses; ``clustercache validate`` runs the
analytic-vs-Monte-Carlo validation table on the default parameter set.

Exit codes: 0 success, 2 configuration error, 3 numeric failure,
4 validation table failed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
import time
import zlib
from dataclasses import asdict, dataclass, replace
from functools import cache
from pathlib import Path

import numpy as np
import numpy.random  # numpy loads it lazily: import it here, not in a run

from . import __version__, montecarlo, optimize, queueing, stochgeo
from .errors import (
    ClusterCacheError,
    ConfigError,
    InfeasibleAccessProbability,
    NumericFailure,
    UnstableQueueError,
)
from .model import (
    ContentLibrary,
    NetworkConfig,
    _check_count,
    _check_load,
    _check_rate,
    _check_real,
    _poisson_weights,
    baseline_policy,
)

__all__ = ["Scenario", "default_table1", "load_scenario", "run_scenario", "main"]

# The CSV columns of each task.
_TASK_COLUMNS = {
    "offload": ("value", "prob_r1_gt_r0", "po_pc", "po_zipf", "po_cpf", "error"),
    "energy": ("value", "e_pc_j", "e_zipf_j", "e_cpf_j", "error"),
    "delay": ("value", "d_bcd_s", "w1_opt_hz", "d_zipf_eqsplit_s",
              "zipf_eqsplit_stable", "error"),
    "validate": ("quantity", "analytic", "mc_mean", "mc_hw95", "pass", "error",
                 "signed_diff", "z_score"),
}
_TASKS = tuple(_TASK_COLUMNS)
# Each sweep variable's NetworkConfig field and the scale from the file's
# unit to that field's; "beta" alone sets the library's Zipf exponent.
_SWEEP_VARIABLES = {
    "beta": (None, 1.0),
    "sigma": ("sigma", 1.0),
    "lambda_p": ("lambda_p", 1e-6),  # clusters/km^2
    "n_bar": ("n_bar", 1.0),
    "p": ("access_p", 1.0),
    "theta": ("theta", 1.0),
}
_SCHEMA_LINE = "# schema=1"
# The energy task's Poisson(n_bar) cluster-size mixture stops at the first
# k whose tail P(N > k) is at most this, and leaves out the leading k
# whose mass P(1 <= N <= k) is at most this.
_MIXTURE_TAIL = 1e-10


@dataclass(frozen=True)
class Scenario:
    """A fully resolved experiment description."""

    name: str
    cfg: NetworkConfig
    lib: ContentLibrary
    sweep_variable: str
    grid: tuple
    tasks: tuple
    mc_trials: int
    seed: int
    output_dir: str
    r0_over_w1: float
    delay_k: int
    zeta_tot: float
    bandwidth_fraction: float
    bcd_restarts: int

    def __post_init__(self):
        if self.name in ("", ".", "..") or "/" in self.name or "\\" in self.name:
            raise ConfigError(f"name must be one file name, not empty, '.' or '..' "
                              f"and without '/' or '\\', got {self.name!r}")
        if not self.tasks:
            raise ConfigError("tasks must be non-empty")
        for t in self.tasks:
            if t not in _TASKS:
                raise ConfigError(f"unknown task {t!r}; expected one of {_TASKS}")
        if len(set(self.tasks)) < len(self.tasks):
            raise ConfigError(f"tasks must name each task once, got {list(self.tasks)}")
        if self.sweep_variable not in _SWEEP_VARIABLES:
            raise ConfigError(
                f"unknown sweep variable {self.sweep_variable!r}; "
                f"expected one of {tuple(_SWEEP_VARIABLES)}"
            )
        if len(self.grid) == 0:
            raise ConfigError("sweep grid must be non-empty")
        for value in self.grid:
            _check_real("sweep.grid value", value, -math.inf)
        if list(self.grid) != sorted(self.grid):
            raise ConfigError("sweep grid must be sorted ascending")
        for value in self.grid:  # a value its variable cannot take
            try:
                _apply_sweep(self, value)
            except ConfigError as exc:
                raise ConfigError(f"sweep.grid value {value!r}: {exc}") from exc
        _check_count("mc_trials", self.mc_trials, 1)
        _check_count("seed", self.seed, 0)
        _check_rate(self.r0_over_w1)
        _check_count("delay.k", self.delay_k, 1)
        _check_load(self.zeta_tot)
        _check_real("bandwidth_fraction", self.bandwidth_fraction, 0.0, 1.0)
        _check_count("delay.restarts", self.bcd_restarts, 1)


def _dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def _db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


# The default simulation parameter set, in the scenario-file format. It is
# also that format's schema: a scenario file holds only keys named here,
# and `_parse_scenario` says which of them it may omit. `print-default-config`
# prints it as it stands.
_TABLE1 = {
    "name": "table1",
    "seed": 20180001,
    "mc_trials": 100_000,
    "output_dir": "out",
    "tasks": ["validate"],
    "network": {
        "lambda_p_per_km2": 20.0,
        "n_bar": 5.0,
        "sigma_m": 10.0,
        "alpha": 4.0,
        "theta_db": 0.0,
        "p_d_dbm": 23.0,
        "p_b_dbm": 43.0,
        "w_total_mhz": 20.0,
        "access_p": "auto",
    },
    "library": {"n_files": 500, "beta": 1.0, "cache_size": 10, "mean_size_mbits": 5.0},
    "sweep": {"variable": "beta", "grid": [0.0, 0.5, 1.0, 1.5, 2.0]},
    "offload": {"r0_over_w1": 0.1},
    "energy": {"bandwidth_fraction": 0.5},
    "delay": {"k": 8, "zeta_tot": 2.0, "restarts": 8},
}


def default_table1() -> Scenario:
    """The default simulation parameter set.

    20 MHz system bandwidth, 43/23 dBm BS/D2D power (a 100x ratio),
    sigma = 10 m, beta = 1, alpha = 4, 500 files, 10-file caches, 5
    devices per cluster on average, 20 clusters/km^2, 5 Mbit mean size,
    0 dB SIR threshold, 2 req/s per cluster. The access probability sits
    just above the feasibility bound R0/(W1 log2(1+theta)) for the
    default spectral threshold R0/W1 = 0.1 bits/s/Hz.
    """
    return _parse_scenario(_TABLE1, _TABLE1["name"])


@cache
def _yaml() -> tuple:
    """(yaml, loader, dumper) of the scenario format, built on first use.

    Only reading a scenario file that is not JSON and
    ``print-default-config`` need yaml, so ``validate`` and a JSON
    scenario never import it. The loader is YAML 1.1 with exponent-form
    numbers (``2e3``, ``1e-06``) as floats, as YAML 1.2 and JSON read
    them; the dumper quotes the strings the loader would read as numbers.
    """
    import yaml

    class Loader(yaml.SafeLoader):
        pass

    class Dumper(yaml.SafeDumper):
        pass

    for cls in (Loader, Dumper):
        cls.add_implicit_resolver(
            "tag:yaml.org,2002:float",
            re.compile(r"^[-+]?[0-9][0-9_]*(?:\.[0-9_]*)?[eE][-+]?[0-9]+$"),
            list("-+0123456789"))
    return yaml, Loader, Dumper


def _not_json(constant: str):
    """``json.loads``'s ``parse_constant``: NaN, Infinity and -Infinity
    are not JSON, and the YAML loader reads them as strings."""
    raise ValueError(f"{constant} is not a JSON number")


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario file, JSON or YAML.

    The text is read once. JSON text is parsed by ``json``, without
    importing yaml; on every JSON text the YAML loader reads, the two give
    the same mapping. Any other text, NaN and Infinity included, goes to
    the YAML loader. A value that cannot be built, such as an integer of
    more digits than ``int`` converts, or nesting deeper than the parser
    recurses, is a parse error on either path.
    """
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read scenario file {path}: {exc}") from exc
    try:
        raw = json.loads(text, parse_constant=_not_json)
    except RecursionError as exc:  # JSON, but too deep: no YAML retry
        raise ConfigError(f"cannot parse scenario file {path}: {exc}") from exc
    except ValueError:  # not JSON, or a value json cannot build
        yaml, loader, _ = _yaml()
        try:
            raw = yaml.load(text, Loader=loader)
        except (yaml.YAMLError, ValueError, RecursionError) as exc:
            raise ConfigError(f"cannot parse scenario file {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("scenario file must contain a mapping at top level")
    return _parse_scenario(raw, Path(path).stem)


def _typed(name: str, value, kinds, what: str):
    """``value`` if it is of ``kinds`` and no bool (to Python, an int)."""
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ConfigError(f"{name} must be {what}, got {value!r}")
    return value


def _parse_scenario(raw: dict, default_name: str) -> Scenario:
    """A scenario from its file-format mapping, whose schema is ``_TABLE1``.

    A key ``_TABLE1`` lacks is an error. An omitted key takes its
    ``_TABLE1`` value, except in ``network`` and ``library`` (``access_p``
    and ``mean_size_mbits`` excepted) and in a given ``sweep``; a missing
    sweep is the one point [library.beta].
    """
    unknown = [str(key) for key in raw if key not in _TABLE1]
    for section, schema in _TABLE1.items():
        if not isinstance(schema, dict) or section not in raw:
            continue
        if not isinstance(raw[section], dict):
            raise ConfigError(
                f"scenario section {section!r} must be a mapping, "
                f"got {type(raw[section]).__name__}"
            )
        unknown += [f"{section}.{key}" for key in raw[section] if key not in schema]
    if unknown:
        raise ConfigError(f"unknown scenario keys: {', '.join(unknown)}")

    def option(name):
        section, _, key = name.rpartition(".")
        given = raw.get(section, {}) if section else raw
        if key in given:
            return given[key]
        if (section in ("network", "library", "sweep")
                and key not in ("access_p", "mean_size_mbits")):
            raise KeyError(name)
        return (_TABLE1[section] if section else _TABLE1)[key]

    def number(name):
        return _typed(name, option(name), (int, float), "a number")

    def count(name):
        value = number(name)
        if isinstance(value, float) and not value.is_integer():
            raise ConfigError(f"{name} must be an integer, got {value!r}")
        return int(value)

    try:
        r0_over_w1 = float(number("offload.r0_over_w1"))
        theta = _db_to_linear(number("network.theta_db"))
        access = (stochgeo.optimal_access_probability(r0_over_w1, theta)
                  if option("network.access_p") == "auto" else number("network.access_p"))
        cfg = NetworkConfig(
            lambda_p=float(number("network.lambda_p_per_km2") * 1e-6),
            n_bar=float(number("network.n_bar")),
            sigma=float(number("network.sigma_m")),
            alpha=float(number("network.alpha")),
            theta=float(theta),
            p_d=float(_dbm_to_watts(number("network.p_d_dbm"))),
            p_b=float(_dbm_to_watts(number("network.p_b_dbm"))),
            w_total=float(number("network.w_total_mhz") * 1e6),
            access_p=float(access),
        )
        lib = ContentLibrary.zipf(
            n_files=count("library.n_files"),
            beta=float(number("library.beta")),
            cache_size=count("library.cache_size"),
            mean_size_mbits=float(number("library.mean_size_mbits")),
        )
        variable, grid = ((option("sweep.variable"), option("sweep.grid"))
                          if "sweep" in raw else ("beta", [lib.beta]))
        return Scenario(
            name=_typed("name", raw.get("name", default_name), str, "a string"),
            cfg=cfg,
            lib=lib,
            sweep_variable=str(variable),
            grid=tuple(float(_typed("sweep.grid", v, (int, float), "a list of numbers"))
                       for v in _typed("sweep.grid", grid, list, "a list")),
            tasks=tuple(_typed("tasks", option("tasks"), list, "a list")),
            mc_trials=count("mc_trials"),
            seed=count("seed"),
            output_dir=_typed("output_dir", option("output_dir"), str, "a string"),
            r0_over_w1=r0_over_w1,
            delay_k=count("delay.k"),
            zeta_tot=float(number("delay.zeta_tot")),
            bandwidth_fraction=float(number("energy.bandwidth_fraction")),
            bcd_restarts=count("delay.restarts"),
        )
    except KeyError as exc:
        raise ConfigError(f"scenario file is missing key {exc}") from exc
    except ConfigError:
        raise  # a ValueError too, but it already says what is wrong
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid scenario value: {exc}") from exc


def _apply_sweep(scenario: Scenario, value: float):
    """Instantiate (cfg, lib) at one sweep point, ``value`` in file units."""
    field, scale = _SWEEP_VARIABLES[scenario.sweep_variable]
    lib = scenario.lib
    if field is None:
        return scenario.cfg, ContentLibrary.zipf(lib.n_files, value, lib.cache_size,
                                                 lib.mean_size_mbits)
    return replace(scenario.cfg, **{field: value * scale}), lib


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


# ---------------------------------------------------------------------------
# Per-task point computations
# ---------------------------------------------------------------------------

def _tables_built_since(start: int) -> dict:
    """Diagnostics of the coverage tables built since ``start`` entries of
    the build log: their number and the radial node count of each."""
    nodes = stochgeo._TABLE_NODES[start:]
    return {"table_builds": len(nodes), "table_nodes": nodes}


def _offload_point(scenario: Scenario, value: float) -> dict:
    cfg, lib = _apply_sweep(scenario, value)
    builds = len(stochgeo._TABLE_NODES)
    prob = stochgeo.prob_rate_exceeds(cfg, scenario.r0_over_w1)
    pc = optimize.optimize_offloading(cfg, lib, prob)
    rows = {
        "value": value,
        "prob_r1_gt_r0": prob,
        "po_pc": pc.objective,
    }
    for kind, col in (("zipf-proportional", "po_zipf"), ("cpf", "po_cpf")):
        policy = baseline_policy(kind, lib)
        rows[col] = optimize.objective_offloading(policy, lib, cfg.n_bar, prob)
    rows["error"] = ""
    rows["diagnostics"] = {"kkt_iterations": pc.iterations, "multiplier": pc.multiplier,
                           **_tables_built_since(builds)}
    return rows


def _energy_mixture(n_bar: float) -> list:
    """(k, P(N = k)) for N ~ Poisson(n_bar), k = K0, ..., K, with K the
    first k at which P(N > k) <= ``_MIXTURE_TAIL`` and K0 - 1 the last
    k at which P(1 <= N <= k) <= ``_MIXTURE_TAIL`` (K0 = 1 where P(N = 1)
    exceeds it), at any n_bar; k = 0 is skipped because an empty cluster
    contributes nothing. The left-out k carry at most twice that mass."""
    weights = _poisson_weights(n_bar, 0, _MIXTURE_TAIL**2)
    at_least = np.cumsum(weights[::-1])[::-1]  # P(N >= k), same factor
    last = int(np.argmax(at_least[1:] / at_least[0] <= _MIXTURE_TAIL))
    below = np.cumsum(weights[1:last + 1]) / at_least[0]  # P(1 <= N <= k)
    first = 1 + int(np.count_nonzero(below <= _MIXTURE_TAIL))
    return list(enumerate((weights[first:last + 1] / at_least[0]).tolist(), start=first))


def _energy_point(scenario: Scenario, value: float) -> dict:
    cfg, lib = _apply_sweep(scenario, value)
    w1 = cfg.w_total * scenario.bandwidth_fraction
    w2 = cfg.w_total - w1
    r2 = stochgeo.average_rate(w2, cfg.theta, stochgeo.bs_coverage(cfg.theta, cfg.alpha))
    zipf = baseline_policy("zipf-proportional", lib)
    cpf = baseline_policy("cpf", lib)
    builds = len(stochgeo._TABLE_NODES)
    e_pc = e_zipf = e_cpf = 0.0
    iterations = degenerate = 0
    for k, weight in _energy_mixture(cfg.n_bar):
        r1 = stochgeo.average_rate(
            w1, cfg.theta, stochgeo.d2d_coverage_conditional(cfg, k)
        )
        pc = optimize.optimize_energy(cfg, lib, k, r1, r2)
        e_pc += weight * pc.objective
        iterations += pc.iterations
        degenerate += pc.degenerate
        e_zipf += weight * optimize.energy_conditional(zipf, lib, cfg, k, r1, r2)
        e_cpf += weight * optimize.energy_conditional(cpf, lib, cfg, k, r1, r2)
    return {
        "value": value,
        "e_pc_j": e_pc,
        "e_zipf_j": e_zipf,
        "e_cpf_j": e_cpf,
        "error": "",
        "diagnostics": {"kkt_iterations": iterations, "degenerate": degenerate,
                        **_tables_built_since(builds)},
    }


def _delay_point(scenario: Scenario, value: float) -> dict:
    cfg, lib = _apply_sweep(scenario, value)
    k, zeta = scenario.delay_k, scenario.zeta_tot
    trace = optimize.optimize_delay_bcd(cfg, lib, k, zeta, restarts=scenario.bcd_restarts)
    o1, o2 = queueing.service_coefficients(cfg, lib)
    zipf = baseline_policy("zipf-proportional", lib)
    try:
        d_zipf = optimize.weighted_delay(
            zipf, lib, k, zeta, cfg.w_total / 2.0, o1, o2, cfg.w_total
        )
        stable = True
    except UnstableQueueError:
        d_zipf = ""
        stable = False
    return {
        "value": value,
        "d_bcd_s": trace.final_delay,
        "w1_opt_hz": trace.final_w1,
        "d_zipf_eqsplit_s": d_zipf,
        "zipf_eqsplit_stable": stable,
        "error": "",
        "diagnostics": {"bcd_steps": len(trace.steps), "converged": trace.converged,
                        "restarts_used": trace.restarts_used,
                        "best_start": trace.best_start, "gap": trace.gap,
                        "d2d_idle": queueing._arrival_fractions(
                            trace.final_policy.b, lib.popularity, k)[0] == 0.0},
    }


def _timed(fn, *args):
    """(fn(*args), wall time in seconds)."""
    started = time.perf_counter()
    value = fn(*args)
    return value, time.perf_counter() - started


def _validate_points(scenario: Scenario) -> list:
    """The simulated (quantity, request, analytic function) rows of the
    validate table; building them checks that the network carries R0/W1."""
    cfg, r0 = scenario.cfg, scenario.r0_over_w1
    return [
        (f"prob_rate_exceeds sigma={sigma:g} theta_db={theta_db:g}",
         montecarlo.ProbRateExceeds(
             replace(cfg, sigma=sigma, theta=_db_to_linear(theta_db)), r0),
         lambda point: stochgeo.prob_rate_exceeds(point, r0))
        for sigma in (10.0, 20.0, 30.0) for theta_db in (0.0, 3.0)
    ] + [
        (f"single_link sigma={sigma:g} lambda_p_per_km2={lam_km2:g}",
         montecarlo.SingleLinkCoverage(
             replace(cfg, sigma=sigma, lambda_p=lam_km2 * 1e-6)),
         stochgeo.d2d_coverage_single_link)
        for sigma in (10.0, 20.0, 30.0) for lam_km2 in (10.0, 20.0)
    ]


def _validate_rows(scenario: Scenario, points: list) -> list:
    """Analytic-vs-Monte-Carlo validation table on the scenario parameters.

    One simulation, on one network draw and one seed, serves every
    simulated row: the six P(R1 > R0) points, the six single-link points
    and the k = 5 conditional coverage, exact and with Poisson(p k)
    interferers, share alpha, access_p and n_bar. Each
    row's estimate has the law it has when simulated alone; the rows'
    estimates are correlated. Each row carries diagnostics for
    ``_summary.json``: the wall times of its analytic and Monte Carlo
    computations (None where the row makes none of its own; the first
    row carries the whole table's simulation), the trials behind
    ``mc_mean`` and trials per second.
    """
    cfg = scenario.cfg
    trials = scenario.mc_trials
    rows = []

    def add(quantity, analytic, reference, half_width, tolerance,
            analytic_s, mc_s, row_trials):
        signed_diff = analytic - reference
        rows.append({
            "quantity": quantity,
            "analytic": analytic,
            "mc_mean": reference,
            "mc_hw95": half_width,
            "pass": bool(abs(signed_diff) < tolerance),
            "error": "",
            "signed_diff": signed_diff,
            # Deviation in standard errors of the simulation; empty for a
            # row whose reference is not simulated (and for the model gap).
            "z_score": signed_diff / (half_width / 1.96) if half_width > 0 else "",
            "diagnostics": {
                "analytic_s": analytic_s,
                "mc_s": mc_s,
                "trials": row_trials,
                "trials_per_s": row_trials / mc_s if mc_s else None,
            },
        })

    conditional = [montecarlo.ConditionalCoverage(cfg, 5),
                   montecarlo.PoissonConditionalCoverage(cfg, 5)]
    # The master seed mixed with the CRC32 of the task name.
    seed = np.random.SeedSequence([scenario.seed, zlib.crc32(b"validate")])
    estimates, mc_s = _timed(
        montecarlo.simulate, [request for _, request, _ in points] + conditional,
        trials, int(seed.generate_state(1, np.uint64)[0]))
    for i, ((tag, request, analytic_fn), mc) in enumerate(zip(points, estimates)):
        analytic, analytic_s = _timed(analytic_fn, request.cfg)
        add(tag, analytic, mc.mean, mc.half_width_95, 0.02,
            analytic_s, None if i else mc_s, trials)

    # Hand-derived reference: theta=1, alpha=4, sigma=10 m, 20 clusters/km^2
    # gives 1/(1 + 400 pi * 2e-5 * pi/2) ~= 0.962.
    ref_cfg = replace(cfg, sigma=10.0, theta=1.0, alpha=4.0, lambda_p=2e-5)
    analytic, analytic_s = _timed(stochgeo.d2d_coverage_single_link, ref_cfg)
    add("single_link_reference_point", analytic, 0.962, 0.0, 0.01,
        analytic_s, None, 0)

    # On Table 1, k = n_bar = 5, so Poisson(p*k) is Poisson(p*n_bar) and
    # this row reads the same Monte Carlo cells as `prob_rate_exceeds
    # sigma=10 theta_db=0`: the two requests take the same remote field,
    # threshold and local-count row of the shared draw. That is by
    # construction, not a bug.
    exact, approx = estimates[-2:]
    analytic, analytic_s = _timed(stochgeo.d2d_coverage_conditional, cfg, 5)
    add("conditional_coverage k=5 (poisson approx)", analytic,
        approx.mean, approx.half_width_95, 0.02, analytic_s, None, trials)
    # Informational: the exact-vs-approximate gap quantifies the Poisson
    # interferer-count assumption (measured ~3.3% at k=5, p=0.1). Both
    # estimates come from the table's one simulation. The gap is a
    # difference between two models, not an estimation error, so the row
    # has no z-score.
    add("conditional_coverage k=5 (exact vs approx)", exact.mean,
        approx.mean, exact.half_width_95, 0.05, None, None, trials)
    rows[-1]["z_score"] = ""
    return rows


_POINT_FUNCTIONS = {
    "offload": _offload_point,
    "energy": _energy_point,
    "delay": _delay_point,
}


def _compute_task_point(scenario: Scenario, task: str, value: float):
    started = time.perf_counter()
    try:
        row = _POINT_FUNCTIONS[task](scenario, value)
    except ClusterCacheError as exc:
        reason = ("numeric-failure" if isinstance(exc, NumericFailure)
                  else type(exc).__name__)
        row = {**dict.fromkeys(_TASK_COLUMNS[task], ""), "value": value,
               "error": f"{reason}: {exc}"}
    return row, time.perf_counter() - started


def _csv_text(columns, rows) -> str:
    text = io.StringIO()
    text.write(_SCHEMA_LINE + "\n")
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([_fmt(row[c]) for c in columns] for row in rows)
    return text.getvalue()


def _write_output(path: Path, text: str) -> None:
    try:
        with path.open("w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output file {path}: {exc}") from exc


def run_scenario(scenario: Scenario, jobs: int = 1) -> int:
    """Execute all tasks of a scenario, every sweep point in this process;
    returns the process exit code. ``jobs`` is accepted only as 1."""
    _check_count("--jobs", jobs, 1)
    if jobs != 1:
        raise ConfigError(f"--jobs must be 1, as sweep points run in one process, "
                          f"got {jobs}")
    # Before any task runs and any file is written (InfeasibleAccessProbability).
    points = _validate_points(scenario) if "validate" in scenario.tasks else None
    out = Path(scenario.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc

    summary = {
        "schema": 1,
        "library_version": __version__,
        # The scenario as the run computes with it, in SI units.
        "scenario": {**vars(scenario), "cfg": asdict(scenario.cfg),
                     "lib": {key: getattr(scenario.lib, key) for key in
                             ("n_files", "beta", "cache_size", "mean_size_mbits")}},
        "tasks": {},
    }
    exit_code = 0
    for task in scenario.tasks:
        started = time.perf_counter()
        if task == "validate":
            rows = _validate_rows(scenario, points)
            timings = [time.perf_counter() - started]
            if any(not r["pass"] for r in rows):
                exit_code = max(exit_code, 4)
        else:
            rows, timings = zip(*[_compute_task_point(scenario, task, v)
                                  for v in scenario.grid])
            if any("numeric-failure" in str(r.get("error", "")) for r in rows):
                exit_code = max(exit_code, 3)
        path = out / f"{scenario.name}_{task}.csv"
        _write_output(path, _csv_text(_TASK_COLUMNS[task], rows))
        summary["tasks"][task] = {
            "csv": path.name,
            "rows": len(rows),
            "point_wall_times_s": timings,
            "total_wall_time_s": sum(timings),
        }
        diagnostics = [r.get("diagnostics") for r in rows]  # None: failed point
        if any(diagnostics):
            summary["tasks"][task]["point_diagnostics"] = diagnostics
    _write_output(out / f"{scenario.name}_summary.json",
                  json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return exit_code


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clustercache",
        description="Clustered D2D caching analysis and optimization runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario file")
    run_p.add_argument("scenario", help="YAML or JSON scenario file")
    _common_flags(run_p)

    val_p = sub.add_parser(
        "validate", help="analytic-vs-Monte-Carlo validation on defaults"
    )
    _common_flags(val_p)

    sub.add_parser(
        "print-default-config", help="dump the default scenario as YAML"
    )
    return parser


def _common_flags(p):
    p.add_argument("--seed", type=int, default=None, help="override master seed")
    p.add_argument("--out", default=None, help="override output directory")
    p.add_argument("--mc-trials", type=int, default=None,
                   help="override Monte Carlo trials per estimate")
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted only as 1: sweep points run in one process")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "print-default-config":
            yaml, _, dumper = _yaml()
            print(yaml.dump(_TABLE1, Dumper=dumper, sort_keys=False), end="")
            return 0
        updates = {"seed": args.seed, "output_dir": args.out,
                   "mc_trials": args.mc_trials}
        if args.command == "run":
            scenario = load_scenario(args.scenario)
        else:  # validate
            scenario = default_table1()
            updates["tasks"] = ("validate",)
        updates = {k: v for k, v in updates.items() if v is not None}
        return run_scenario(replace(scenario, **updates), jobs=args.jobs)
    except (ConfigError, InfeasibleAccessProbability) as exc:
        # Infeasible: the validate table's P(R1 > R0) points, at a network
        # that cannot carry R0/W1.
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
