"""The benchmark's workloads: scenario files and CLI arguments.

Each workload is one ``clustercache`` command as a researcher runs it,
always with ``--jobs 1`` and the benchmark's ``--seed``. Parameters not
named below are the Table-1 defaults (20 clusters/km^2, n_bar = 5,
sigma = 10 m, alpha = 4, 0 dB, 23/43 dBm, 20 MHz, 500 files, M = 10).

* ``coverage`` sweeps ``sigma`` through the offload and energy tasks.
  Every point is a new ``NetworkConfig``, so the coverage caches cannot
  hide the quadrature: each point computes P(R1 > R0) once and the
  conditional coverage for every k of the Poisson mixture. n_bar = 1
  keeps that mixture at k = 1..12 so a sample fits the run several times.
* ``delay`` sweeps ``beta`` through the delay task (k = 8, zeta_tot = 2).
  Two restarts means the two deterministic anchor starts of the BCD
  solver; random starts would make the amount of work depend on the seed.
* ``validate`` is ``clustercache validate``: Monte Carlo over 14
  simulations plus P(R1 > R0) for six configs at one intensity each.
"""

from __future__ import annotations

import json
from pathlib import Path

TABLE1 = {
    "seed": 20180001,
    "mc_trials": 100000,
    "output_dir": "out",
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
    "offload": {"r0_over_w1": 0.1},
    "energy": {"bandwidth_fraction": 0.5},
    "delay": {"k": 8, "zeta_tot": 2.0, "restarts": 8},
}

VALIDATE_MC_TRIALS = 50000


def _scenario(name: str, tasks, variable: str, grid, n_bar=None, restarts=None) -> dict:
    scenario = json.loads(json.dumps(TABLE1))
    scenario.update(name=name, tasks=list(tasks),
                    sweep={"variable": variable, "grid": list(grid)})
    if n_bar is not None:
        scenario["network"]["n_bar"] = n_bar
    if restarts is not None:
        scenario["delay"]["restarts"] = restarts
    return scenario


SCENARIOS = {
    "coverage": _scenario("coverage", ["offload", "energy"], "sigma", [20.0],
                          n_bar=1.0),
    "delay": _scenario("delay", ["delay"], "beta", [0.0, 1.0, 1.5], restarts=2),
}

WORKLOADS = ("coverage", "delay", "validate")


def cli_args(workload: str, seed: int, sample_dir: Path) -> list[str]:
    """Arguments for ``clustercache`` for one sample; writes its scenario file.

    The scenario is written as JSON, which the YAML loader reads unchanged.
    """
    common = ["--seed", str(seed), "--out", str(sample_dir / "out"), "--jobs", "1"]
    if workload == "validate":
        return ["validate", "--mc-trials", str(VALIDATE_MC_TRIALS)] + common
    path = sample_dir / f"{workload}.yaml"
    path.write_text(json.dumps(SCENARIOS[workload], indent=1) + "\n")
    return ["run", str(path)] + common


def csv_names(workload: str) -> list[str]:
    """The CSV files one sample of ``workload`` writes."""
    if workload == "validate":
        return ["table1_validate.csv"]
    return [f"{workload}_{task}.csv" for task in SCENARIOS[workload]["tasks"]]
