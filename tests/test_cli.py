"""Scenario parsing, CSV artifacts, exit codes, determinism."""

import copy
import csv
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from clustercache import cli, montecarlo, optimize, stochgeo
from clustercache.errors import ConfigError, NumericFailure
from clustercache.model import ContentLibrary
from clustercache.cli import (
    default_table1,
    load_scenario,
    run_scenario,
    main,
)


# `clustercache print-default-config`, byte for byte.
DEFAULT_CONFIG_YAML = """\
name: table1
seed: 20180001
mc_trials: 100000
output_dir: out
tasks:
- validate
network:
  lambda_p_per_km2: 20.0
  n_bar: 5.0
  sigma_m: 10.0
  alpha: 4.0
  theta_db: 0.0
  p_d_dbm: 23.0
  p_b_dbm: 43.0
  w_total_mhz: 20.0
  access_p: auto
library:
  n_files: 500
  beta: 1.0
  cache_size: 10
  mean_size_mbits: 5.0
sweep:
  variable: beta
  grid:
  - 0.0
  - 0.5
  - 1.0
  - 1.5
  - 2.0
offload:
  r0_over_w1: 0.1
energy:
  bandwidth_fraction: 0.5
delay:
  k: 8
  zeta_tot: 2.0
  restarts: 8
"""


def _tiny_scenario(tmp_path, **overrides):
    base = default_table1()
    from clustercache.model import ContentLibrary
    lib = ContentLibrary.zipf(30, 1.0, 3)
    fields = dict(
        lib=lib,
        grid=(0.5, 1.0),
        tasks=("offload",),
        mc_trials=2000,
        output_dir=str(tmp_path / "out"),
    )
    fields.update(overrides)
    return replace(base, **fields)


class TestDefaultScenario:
    def test_table1_verbatim_conversions(self):
        sc = default_table1()
        assert sc.cfg.theta == 1.0  # 0 dB
        assert sc.cfg.p_b / sc.cfg.p_d == pytest.approx(100.0, rel=1e-12)  # 20 dB
        assert sc.cfg.lambda_p == pytest.approx(2e-5)  # 20 clusters/km^2
        assert sc.cfg.w_total == 20e6
        assert sc.cfg.sigma == 10.0
        assert sc.lib.n_files == 500 and sc.lib.cache_size == 10
        assert sc.lib.mean_size_mbits == 5.0
        assert sc.cfg.n_bar == 5.0 and sc.cfg.alpha == 4.0
        assert sc.zeta_tot == 2.0
        # Access probability sits just above the feasibility bound.
        assert sc.cfg.access_p == pytest.approx(0.1, rel=1e-5)
        assert sc.cfg.access_p > 0.1

    def test_yaml_roundtrip(self, tmp_path, capsys):
        # The printed default is the schema itself; it loads to
        # default_table1(), field for field.
        sc = default_table1()
        assert main(["print-default-config"]) == 0
        path = tmp_path / "table1.yaml"
        path.write_text(capsys.readouterr().out)
        loaded = load_scenario(path)
        for name in sc.__dataclass_fields__:
            if name != "lib":
                assert getattr(loaded, name) == getattr(sc, name), name
        for name in sc.lib.__dataclass_fields__:
            np.testing.assert_array_equal(getattr(loaded.lib, name),
                                          getattr(sc.lib, name))


class TestScenarioValidation:
    def test_scenario_invariants(self):
        base = default_table1()
        with pytest.raises(ConfigError):
            replace(base, tasks=())
        with pytest.raises(ConfigError):
            replace(base, tasks=("plot",))
        with pytest.raises(ConfigError):
            replace(base, grid=())
        with pytest.raises(ConfigError):
            replace(base, grid=(2.0, 1.0))
        with pytest.raises(ConfigError):
            replace(base, sweep_variable="bandwidth")

    def test_scenario_rejects_non_finite_grid(self):
        with pytest.raises(ConfigError, match="finite"):
            replace(default_table1(), grid=(20.0, float("nan"), 10.0))
        with pytest.raises(ConfigError, match="finite"):
            replace(default_table1(), grid=(1.0, float("inf")))

    def test_overflowing_decibels_reported(self, tmp_path):
        mapping = copy.deepcopy(cli._TABLE1)
        mapping["network"]["theta_db"] = 1e5
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(mapping))
        with pytest.raises(ConfigError):
            load_scenario(path)

    def test_db_fields_are_exclusive(self, tmp_path):
        mapping = copy.deepcopy(cli._TABLE1)
        mapping["network"]["theta"] = 1.0  # both theta and theta_db present
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(mapping))
        with pytest.raises(ConfigError, match="unknown scenario keys: network.theta"):
            load_scenario(path)

    @pytest.mark.parametrize("section, key", [
        (None, "mc_trial"), ("network", "sigma"), ("library", "size"),
        ("sweep", "values"), ("offload", "r0"), ("energy", "fraction"),
        ("delay", "restart"),
    ])
    def test_unknown_key_reported(self, tmp_path, capsys, section, key):
        # A misspelled key is an error, not a silent fall-back on Table 1.
        mapping = copy.deepcopy(cli._TABLE1)
        (mapping[section] if section else mapping)[key] = 2
        name = f"{section}.{key}" if section else key
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(mapping))
        with pytest.raises(ConfigError, match=f"unknown scenario keys: {name}$"):
            load_scenario(path)
        assert main(["run", str(path)]) == 2
        assert name in capsys.readouterr().err

    def test_unknown_keys_listed_together(self, tmp_path):
        mapping = copy.deepcopy(cli._TABLE1)
        mapping["mc_trial"] = 10
        mapping["network"]["sigma"] = 30.0
        mapping["delay"]["restart"] = 2
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(mapping))
        with pytest.raises(ConfigError, match="mc_trial, network.sigma, delay.restart"):
            load_scenario(path)

    @pytest.mark.parametrize("key, value, replaces", [
        ("lambda_p_per_m2", 2e-5, "lambda_p_per_km2"),
        ("theta", 1.0, "theta_db"),
        ("p_d_w", 0.2, "p_d_dbm"),
        ("p_b_w", 20.0, "p_b_dbm"),
        ("w_total_hz", 20e6, "w_total_mhz"),
    ])
    def test_alternative_unit_keys_rejected(self, tmp_path, key, value, replaces):
        # One key per quantity: the network takes each in one unit only.
        mapping = copy.deepcopy(cli._TABLE1)
        del mapping["network"][replaces]
        mapping["network"][key] = value
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(mapping))
        with pytest.raises(ConfigError, match=f"unknown scenario keys: network.{key}$"):
            load_scenario(path)

    def test_integral_float_counts_accepted(self, tmp_path):
        mapping = copy.deepcopy(cli._TABLE1)
        mapping.update(seed=3.0, mc_trials=2000.0)
        mapping["library"].update(n_files=500.0, cache_size=10.0)
        mapping["delay"].update(k=8.0, restarts=2.0)
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(mapping))
        sc = load_scenario(path)
        assert (sc.seed, sc.mc_trials, sc.delay_k, sc.bcd_restarts) == (3, 2000, 8, 2)
        assert (sc.lib.n_files, sc.lib.cache_size) == (500, 10)
        assert all(type(v) is int for v in (sc.seed, sc.mc_trials, sc.delay_k,
                                             sc.bcd_restarts, sc.lib.n_files,
                                             sc.lib.cache_size))

    @pytest.mark.parametrize("section, key, value", [
        (None, "mc_trials", True),
        ("network", "sigma_m", True),
        ("network", "access_p", True),
        (None, "mc_trials", "2000"),
        ("sweep", "grid", "12"),
        ("sweep", "grid", [0.5, True]),
    ])
    def test_non_numbers_rejected(self, tmp_path, capsys, section, key, value):
        # YAML reads true/yes as a bool, which Python counts as the int 1,
        # and a quoted number as a string; neither may load as a number.
        mapping = copy.deepcopy(cli._TABLE1)
        (mapping[section] if section else mapping)[key] = value
        name = f"{section}.{key}" if section else key
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(mapping))
        with pytest.raises(ConfigError, match=f"{name} must be a"):
            load_scenario(path)
        assert main(["run", str(path)]) == 2
        assert name in capsys.readouterr().err

    def test_config_errors_are_not_wrapped(self, tmp_path, capsys):
        # ConfigError is a ValueError; the loader's own message passes
        # through as it is, not inside "invalid scenario value: ...".
        mapping = copy.deepcopy(cli._TABLE1)
        mapping["network"]["sigma_m"] = True
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(mapping))
        message = "network.sigma_m must be a number, got True"
        with pytest.raises(ConfigError) as info:
            load_scenario(path)
        assert str(info.value) == message
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr().err == f"configuration error: {message}\n"

    def test_tasks_must_be_a_list(self, tmp_path):
        mapping = copy.deepcopy(cli._TABLE1)
        mapping["tasks"] = "validate"  # not the tasks 'v', 'a', 'l', ...
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(mapping))
        with pytest.raises(ConfigError, match="tasks must be a list, got 'validate'"):
            load_scenario(path)

    def test_task_listed_twice_rejected(self, tmp_path, capsys):
        # Twice the same task would run it twice and write its CSV twice.
        mapping = copy.deepcopy(cli._TABLE1)
        mapping["tasks"] = ["offload", "energy", "offload"]
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(mapping))
        with pytest.raises(ConfigError, match="^tasks must name each task once"):
            load_scenario(path)
        assert main(["run", str(path)]) == 2
        assert "tasks" in capsys.readouterr().err

    @pytest.mark.parametrize("variable, grid, bad", [
        ("sigma", [-5.0, 10.0], -5.0),
        ("sigma", [0.0, 10.0], 0.0),
        ("p", [0.5, 1.5], 1.5),
        ("beta", [-0.5, 1.0], -0.5),
        ("lambda_p", [0.0, 20.0], 0.0),
        ("n_bar", [-1.0, 5.0], -1.0),
        ("theta", [0.0, 2.0], 0.0),
    ])
    def test_sweep_value_out_of_range_rejected(self, tmp_path, capsys,
                                               variable, grid, bad):
        # A value its variable cannot take is a configuration error at load,
        # not an error row of the run.
        mapping = copy.deepcopy(cli._TABLE1)
        mapping.update(tasks=["offload"], output_dir=str(tmp_path / "out"),
                       sweep={"variable": variable, "grid": grid})
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(mapping))
        with pytest.raises(ConfigError, match=rf"^sweep\.grid value {bad!r}: "):
            load_scenario(path)
        assert main(["run", str(path)]) == 2
        assert f"sweep.grid value {bad!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [
        ("name", "a/b"),
        ("name", "a\\b"),
        ("name", ""),
        ("name", "."),
        ("name", ".."),
        ("name", ["x"]),
        ("output_dir", 7),
    ])
    def test_name_and_output_dir_checked(self, tmp_path, capsys, key, value):
        # The name prefixes the output file names, so it must be one file
        # name; the output directory must be a path string.
        mapping = copy.deepcopy(cli._TABLE1)
        mapping[key] = value
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(mapping))
        with pytest.raises(ConfigError, match=f"^{key} must be"):
            load_scenario(path)
        assert main(["run", str(path)]) == 2
        assert f"configuration error: {key} must be" in capsys.readouterr().err

    def test_automatic_access_probability_loads(self, tmp_path):
        # The schema keeps `auto`; a number given instead is taken as it is.
        mapping = copy.deepcopy(cli._TABLE1)
        assert mapping["network"]["access_p"] == "auto"
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(mapping))
        assert load_scenario(path).cfg == default_table1().cfg
        mapping["network"]["access_p"] = 0.3
        path.write_text(yaml.safe_dump(mapping))
        assert load_scenario(path).cfg == replace(default_table1().cfg, access_p=0.3)

    @pytest.mark.parametrize("variable, value, field, expected", [
        ("sigma", 25.0, "sigma", 25.0),
        ("lambda_p", 30.0, "lambda_p", 30.0 * 1e-6),  # clusters/km^2
        ("n_bar", 3.0, "n_bar", 3.0),
        ("p", 0.4, "access_p", 0.4),
        ("theta", 2.0, "theta", 2.0),  # linear
        ("beta", 0.7, "beta", 0.7),
    ])
    def test_apply_sweep_sets_one_field(self, variable, value, field, expected):
        sc = replace(default_table1(), sweep_variable=variable, grid=(value,))
        cfg, lib = cli._apply_sweep(sc, value)
        if variable == "beta":
            assert cfg is sc.cfg
            assert lib.beta == expected
            np.testing.assert_array_equal(
                lib.popularity, ContentLibrary.zipf(500, 0.7, 10).popularity)
            assert (lib.n_files, lib.cache_size, lib.mean_size_mbits) == (
                sc.lib.n_files, sc.lib.cache_size, sc.lib.mean_size_mbits)
        else:
            assert lib is sc.lib
            assert getattr(cfg, field) == expected
            assert cfg == replace(sc.cfg, **{field: expected})
            assert getattr(sc.cfg, field) != expected

    def test_missing_section_reported(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("name: x\n")
        with pytest.raises(ConfigError, match="network"):
            load_scenario(path)

    @pytest.mark.parametrize("section", ["offload", "energy", "delay", "sweep",
                                         "network", "library"])
    @pytest.mark.parametrize("value", [5, None, [1, 2], "auto"])
    def test_non_mapping_section_reported(self, tmp_path, capsys, section, value):
        mapping = copy.deepcopy(cli._TABLE1)
        mapping[section] = value
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(mapping))
        with pytest.raises(ConfigError, match=f"section '{section}' must be a mapping"):
            load_scenario(path)
        assert main(["run", str(path)]) == 2
        assert f"'{section}'" in capsys.readouterr().err

    def test_unparseable_file(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("{:::")
        with pytest.raises(ConfigError):
            load_scenario(path)


class TestRunScenario:
    def test_offload_task_artifacts(self, tmp_path):
        sc = _tiny_scenario(tmp_path)
        assert run_scenario(sc) == 0
        csv_path = tmp_path / "out" / "table1_offload.csv"
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "# schema=1"
        header = lines[1].split(",")
        assert header == ["value", "prob_r1_gt_r0", "po_pc", "po_zipf",
                          "po_cpf", "error"]
        assert len(lines) == 2 + len(sc.grid)
        for line in lines[2:]:
            cells = line.split(",")
            values = [float(c) for c in cells[:-1]]
            assert all(np.isfinite(values))
            # The optimized scheme dominates both baselines pointwise.
            assert values[2] >= values[3] - 1e-9
            assert values[2] >= values[4] - 1e-9
        summary = json.loads((tmp_path / "out" / "table1_summary.json").read_text())
        assert summary["library_version"]
        assert summary["tasks"]["offload"]["rows"] == len(sc.grid)
        assert len(summary["tasks"]["offload"]["point_wall_times_s"]) == len(sc.grid)

    def test_delay_summary_diagnostics(self, tmp_path):
        sc = _tiny_scenario(tmp_path, tasks=("delay",), grid=(0.5, 1.0))
        assert run_scenario(sc) == 0
        header = (tmp_path / "out" / "table1_delay.csv").read_text().splitlines()[1]
        assert header == ("value,d_bcd_s,w1_opt_hz,d_zipf_eqsplit_s,"
                          "zipf_eqsplit_stable,error")
        summary = json.loads((tmp_path / "out" / "table1_summary.json").read_text())
        points = summary["tasks"]["delay"]["point_diagnostics"]
        assert len(points) == len(sc.grid)
        for point in points:
            assert set(point) == {"bcd_steps", "converged", "restarts_used",
                                  "best_start", "gap"}
            assert point["converged"] is True
            assert point["bcd_steps"] >= 1
            assert point["restarts_used"] == sc.bcd_restarts
            assert 0 <= point["best_start"] < sc.bcd_restarts
            assert np.isfinite(point["gap"])

    def test_offload_and_energy_summary_diagnostics(self, tmp_path):
        sc = _tiny_scenario(tmp_path, tasks=("offload", "energy"), grid=(0.5, 1.0))
        for fn in (stochgeo._coverage_table, stochgeo.prob_rate_exceeds,
                   stochgeo.d2d_coverage_conditional):
            fn.cache_clear()  # count every table the run builds
        assert run_scenario(sc) == 0
        out = tmp_path / "out"
        assert (out / "table1_offload.csv").read_text().splitlines()[1] == (
            "value,prob_r1_gt_r0,po_pc,po_zipf,po_cpf,error")
        assert (out / "table1_energy.csv").read_text().splitlines()[1] == (
            "value,e_pc_j,e_zipf_j,e_cpf_j,error")
        summary = json.loads((out / "table1_summary.json").read_text())
        offload = summary["tasks"]["offload"]["point_diagnostics"]
        energy = summary["tasks"]["energy"]["point_diagnostics"]
        assert len(offload) == len(energy) == len(sc.grid)
        # A beta sweep keeps one (alpha, theta, p*nbar): its first point
        # builds the two lowest rules of the ladder, and no later point of
        # either task builds a table.
        builds = [point["table_builds"] for point in offload + energy]
        assert builds == [2] + [0] * (len(builds) - 1)
        assert sum(builds) == stochgeo._coverage_table.cache_info().misses
        mixture = list(optimize._poisson_weights(sc.cfg.n_bar))
        for value, point, built in zip(sc.grid, offload, builds):
            assert set(point) == {"kkt_iterations", "multiplier", "table_builds"}
            cfg, lib = cli._apply_sweep(sc, value)
            prob = stochgeo.prob_rate_exceeds(cfg, sc.r0_over_w1).value
            sol = optimize.optimize_offloading(cfg, lib, prob)
            assert point == {"kkt_iterations": sol.iterations,
                             "multiplier": sol.multiplier, "table_builds": built}
            assert 0 < point["kkt_iterations"] < optimize._MULTIPLIER_ITERATIONS
        for point in energy:
            assert set(point) == {"kkt_iterations", "degenerate", "table_builds"}
            # Only k = 1 (no D2D partner) takes the top-M vertex here; every
            # other k of the Poisson mixture runs the multiplier search.
            assert point["degenerate"] == 1
            assert point["kkt_iterations"] >= len(mixture) - 1

    def test_energy_task_dominance(self, tmp_path):
        sc = _tiny_scenario(tmp_path, tasks=("energy",), grid=(0.5, 1.5))
        assert run_scenario(sc) == 0
        lines = (tmp_path / "out" / "table1_energy.csv").read_text().splitlines()
        for line in lines[2:]:
            value, e_pc, e_zipf, e_cpf = (float(c) for c in line.split(",")[:4])
            assert e_pc <= e_zipf + 1e-9
            assert e_pc <= e_cpf + 1e-9

    def test_infeasible_sweep_points_become_error_rows(self, tmp_path):
        # Sweeping the access probability through infeasible values must
        # not abort the run; those points carry a reason instead.
        sc = _tiny_scenario(tmp_path, sweep_variable="p", grid=(0.05, 0.5))
        assert run_scenario(sc) == 0
        lines = (tmp_path / "out" / "table1_offload.csv").read_text().splitlines()
        first = lines[2].split(",")
        assert "InfeasibleAccessProbability" in first[-1]
        assert first[1] == ""  # no numeric cell fabricated
        second = lines[3].split(",")
        assert second[-1] == ""
        assert float(second[2]) > 0

    def test_jobs_do_not_change_output(self, tmp_path):
        sc1 = _tiny_scenario(tmp_path, output_dir=str(tmp_path / "a"))
        sc2 = _tiny_scenario(tmp_path, output_dir=str(tmp_path / "b"))
        run_scenario(sc1, jobs=1)
        run_scenario(sc2, jobs=2)
        a = (tmp_path / "a" / "table1_offload.csv").read_bytes()
        b = (tmp_path / "b" / "table1_offload.csv").read_bytes()
        assert a == b

    def test_validate_rows_and_determinism(self, tmp_path):
        # Byte-identical CSVs for identical seeds; trial count kept small
        # here (the full-size determinism run is an acceptance criterion).
        sc = replace(default_table1(), mc_trials=3000,
                     output_dir=str(tmp_path / "v1"))
        code = run_scenario(sc)
        first = (tmp_path / "v1" / "table1_validate.csv").read_bytes()
        sc2 = replace(sc, output_dir=str(tmp_path / "v2"))
        run_scenario(sc2)
        second = (tmp_path / "v2" / "table1_validate.csv").read_bytes()
        assert first == second
        assert code in (0, 4)  # 3000 trials may legitimately miss 2%
        other = replace(sc, seed=1, output_dir=str(tmp_path / "v3"))
        run_scenario(other)
        third = (tmp_path / "v3" / "table1_validate.csv").read_bytes()
        assert third != first

    def test_validate_diagnostic_columns(self, tmp_path):
        # signed_diff and z_score are appended after the original columns;
        # z_score is empty where the reference is not simulated and on the
        # exact-vs-approx row, whose difference is a model gap.
        sc = replace(default_table1(), mc_trials=2000,
                     output_dir=str(tmp_path))
        run_scenario(sc)
        lines = (tmp_path / "table1_validate.csv").read_text().splitlines()
        rows = list(csv.DictReader(lines[1:]))
        assert lines[1].split(",") == ["quantity", "analytic", "mc_mean",
                                       "mc_hw95", "pass", "error",
                                       "signed_diff", "z_score"]
        for row in rows[:-1]:
            diff = float(row["analytic"]) - float(row["mc_mean"])
            assert float(row["signed_diff"]) == diff
            hw = float(row["mc_hw95"])
            if hw > 0:
                assert float(row["z_score"]) == pytest.approx(diff / (hw / 1.96))
            else:
                assert row["z_score"] == ""
        assert rows[12]["quantity"] == "single_link_reference_point"
        assert rows[12]["z_score"] == ""
        gap = rows[-1]
        assert gap["quantity"] == "conditional_coverage k=5 (exact vs approx)"
        assert float(gap["signed_diff"]) == (float(gap["analytic"])
                                             - float(gap["mc_mean"]))
        assert float(gap["mc_hw95"]) > 0
        assert gap["z_score"] == ""
        # Per-row wall times and simulation rates go to the summary only.
        # Every simulated row comes from one simulation, whose wall time
        # the first row carries.
        summary = json.loads((tmp_path / "table1_summary.json").read_text())
        points = summary["tasks"]["validate"]["point_diagnostics"]
        assert len(points) == len(rows)
        timed = []
        for row, point in zip(rows, points):
            assert set(point) == {"analytic_s", "mc_s", "trials", "trials_per_s"}
            if row["quantity"] == "single_link_reference_point":
                assert point["mc_s"] is None and point["trials"] == 0
                continue
            assert point["trials"] == sc.mc_trials
            if row["quantity"].endswith("(exact vs approx)"):
                # Shares the simulation timed on the first row.
                assert point["analytic_s"] is None and point["mc_s"] is None
                continue
            assert point["analytic_s"] > 0
            if point["mc_s"] is None:
                assert point["trials_per_s"] is None
            else:
                assert point["mc_s"] > 0
                assert point["trials_per_s"] == pytest.approx(
                    sc.mc_trials / point["mc_s"])
                timed.append(row["quantity"])
        assert timed == [rows[0]["quantity"]]
        assert rows[0]["quantity"].startswith("prob_rate_exceeds ")

    def test_validate_simulates_once(self, monkeypatch):
        # The whole table is one simulation on one network draw.
        calls = []
        engine = montecarlo._sir_hits

        def spy(requests, *args):
            calls.append(requests)
            return engine(requests, *args)

        monkeypatch.setattr(montecarlo, "_sir_hits", spy)
        rows = cli._validate_rows(replace(default_table1(), mc_trials=2000))
        (requests,) = calls
        assert len(requests) == 13 and len(rows) == 15


class TestMainEntryPoint:
    def test_print_default_config(self, capsys):
        assert main(["print-default-config"]) == 0
        out = capsys.readouterr().out
        assert out == DEFAULT_CONFIG_YAML
        parsed = yaml.safe_load(out)
        assert parsed["network"]["theta_db"] == 0.0
        assert "theta" not in parsed["network"]

    def test_edited_printed_default_resolves_access_probability(
            self, tmp_path, capsys):
        # The printed default keeps `access_p: auto`, so raising the rate
        # threshold in a copy of it raises the access probability with it.
        assert main(["print-default-config"]) == 0
        mapping = yaml.safe_load(capsys.readouterr().out)
        mapping["offload"]["r0_over_w1"] = 0.2
        mapping.update(tasks=["offload"], sweep={"variable": "beta", "grid": [1.0]})
        path = tmp_path / "table1.yaml"
        path.write_text(yaml.safe_dump(mapping))
        assert main(["run", str(path), "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "table1_offload.csv").read_text().splitlines()
        (row,) = csv.DictReader(lines[1:])
        assert row["error"] == ""
        summary = json.loads((tmp_path / "table1_summary.json").read_text())
        assert summary["scenario"]["cfg"]["access_p"] == pytest.approx(
            0.2 * (1 + 1e-6), rel=1e-12)

    def test_summary_records_the_scenario_in_si_units(self, tmp_path):
        sc = _tiny_scenario(tmp_path)
        assert run_scenario(sc) == 0
        summary = json.loads((tmp_path / "out" / "table1_summary.json").read_text())
        record = summary["scenario"]
        assert set(record) == set(sc.__dataclass_fields__)
        assert record["cfg"] == vars(sc.cfg)
        assert record["lib"] == {"n_files": 30, "beta": 1.0, "cache_size": 3,
                                 "mean_size_mbits": 5.0}
        assert record["grid"] == list(sc.grid) and record["tasks"] == list(sc.tasks)
        assert record["bcd_restarts"] == sc.bcd_restarts

    def test_readme_scenario_example_matches_schema(self, tmp_path):
        # The README's scenario block lists every key of the schema, and no
        # other, and loads.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("### Scenario files", 1)[1]
        block = section.split("```yaml\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "example.yaml"
        path.write_text(block)
        load_scenario(path)
        mapping = yaml.safe_load(block)
        assert list(mapping) == list(cli._TABLE1)
        for key, schema in cli._TABLE1.items():
            if isinstance(schema, dict):
                assert set(mapping[key]) == set(schema), key

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("network: {}\nlibrary: {}\n")
        assert main(["run", str(bad)]) == 2

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.yaml")]) == 2

    def test_validate_rows_match_benchmark_reference(self, tmp_path):
        # The benchmark's CSV check fails every validate row that has no
        # counterpart, by `quantity`, in its reference file; a renamed or
        # reordered row fails here first.
        reference = (Path(__file__).resolve().parents[1] / "perfbench"
                     / "reference" / "validate" / "table1_validate.csv")
        expected = [row["quantity"] for row in
                    csv.DictReader(reference.read_text().splitlines()[1:])]
        assert len(expected) == 15
        assert main(["validate", "--mc-trials", "2000",
                     "--out", str(tmp_path)]) in (0, 4)
        lines = (tmp_path / "table1_validate.csv").read_text().splitlines()
        assert [row["quantity"] for row in csv.DictReader(lines[1:])] == expected

    def test_validation_failure_exit_code(self, tmp_path, monkeypatch):
        failing_row = {
            "quantity": "forced", "analytic": 1.0, "mc_mean": 0.0,
            "mc_hw95": 0.0, "pass": False, "error": "",
            "signed_diff": 1.0, "z_score": "",
        }
        monkeypatch.setattr(cli, "_validate_rows", lambda scenario: [failing_row])
        assert main(["validate", "--out", str(tmp_path)]) == 4

    def test_cli_import_leaves_out_scipy_integrate(self):
        # Only the tests need scipy (it is not a runtime dependency), so
        # importing the CLI imports none of it.
        code = ("import sys, clustercache.cli; "
                "sys.exit(sorted(m for m in sys.modules "
                "if m == 'scipy' or m.startswith('scipy.')) or None)")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_run_imports_nothing_after_setup(self, tmp_path):
        # Every module a run needs is imported with the CLI, so the import
        # cost is paid in set-up and never inside run_scenario (numpy
        # loads numpy.random and numpy.polynomial lazily). Blocking scipy
        # makes any import of it, with the CLI or during the all-task
        # run, raise: a run needs no scipy.
        code = f"""
import sys
from dataclasses import replace
sys.modules["scipy"] = None
from clustercache import cli
from clustercache.model import ContentLibrary
scenario = replace(
    cli.default_table1(), lib=ContentLibrary.zipf(30, 1.0, 3), grid=(0.5, 1.0),
    tasks=("offload", "energy", "delay", "validate"), mc_trials=2000,
    bcd_restarts=2, output_dir={str(tmp_path)!r})
before = set(sys.modules)
cli.run_scenario(scenario, jobs=1)
sys.exit(sorted(set(sys.modules) - before) or None)
"""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_numeric_failure_marks_row_and_exit_code(self, tmp_path, monkeypatch):
        def boom(scenario, value):
            raise NumericFailure("synthetic quadrature failure")

        monkeypatch.setitem(cli._POINT_FUNCTIONS, "offload", boom)
        sc = _tiny_scenario(tmp_path)
        assert run_scenario(sc) == 3
        lines = (tmp_path / "out" / "table1_offload.csv").read_text().splitlines()
        assert "numeric-failure" in lines[2]
