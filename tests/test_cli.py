"""Scenario parsing, CSV artifacts, exit codes, determinism."""

import copy
import csv
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

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

    @pytest.mark.parametrize("value", [2.5, True])
    @pytest.mark.parametrize("field, name", [("mc_trials", "mc_trials"), ("seed", "seed"),
                                             ("delay_k", "delay.k"),
                                             ("bcd_restarts", "delay.restarts")])
    def test_replace_rejects_a_count_a_file_would(self, field, name, value):
        # A Scenario built in code checks its counts as a scenario file does.
        with pytest.raises(ConfigError, match=f"{name} must be an integer"):
            replace(default_table1(), **{field: value})

    def test_scenario_rejects_non_finite_grid(self):
        with pytest.raises(ConfigError, match=r"sweep.grid value must be a real "
                                              r"number in \(-inf, inf\), got nan"):
            replace(default_table1(), grid=(20.0, float("nan"), 10.0))
        with pytest.raises(ConfigError, match=r"sweep.grid value must be a real "
                                              r"number in \(-inf, inf\), got inf"):
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

    def test_exponent_form_numbers_load(self, tmp_path, capsys):
        # YAML 1.1 reads 2e1 and 1e-06 as strings; JSON, and this loader,
        # read them as numbers. A quoted number stays a string.
        mapping = copy.deepcopy(cli._TABLE1)
        mapping["library"]["beta"] = 1e-06
        mapping["delay"]["zeta_tot"] = "ZETA"
        path = tmp_path / "scenario.yaml"
        path.write_text(json.dumps(mapping).replace('"ZETA"', "2e1"))
        assert "1e-06" in path.read_text()
        sc = load_scenario(path)
        assert (sc.lib.beta, sc.zeta_tot) == (1e-06, 20.0)
        path.write_text(json.dumps(mapping).replace('"ZETA"', '"2e1"'))
        with pytest.raises(ConfigError, match="delay.zeta_tot must be a number, got '2e1'"):
            load_scenario(path)

    def test_automatic_access_probability_needs_positive_rate(self, tmp_path, capsys):
        # At R0/W1 = 0 every p > 0 is feasible: `auto` has no smallest one.
        mapping = copy.deepcopy(cli._TABLE1)
        mapping.update(tasks=["offload"], output_dir=str(tmp_path / "out"),
                       offload={"r0_over_w1": 0.0})
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(mapping))
        assert main(["run", str(path)]) == 2
        assert "r0_over_w1 must be a real number in (0, inf)" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        mapping["network"]["access_p"] = 0.3
        path.write_text(yaml.safe_dump(mapping))
        assert load_scenario(path).cfg.access_p == 0.3

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

    @pytest.mark.parametrize("suffix", ["json", "yaml"])
    def test_number_too_long_to_convert(self, tmp_path, capsys, suffix):
        # int() refuses more than 4300 digits; on either reading that is a
        # parse error, not a traceback.
        mapping = copy.deepcopy(cli._TABLE1)
        mapping["seed"] = 7
        text = (json.dumps(mapping, indent=2) if suffix == "json"
                else yaml.safe_dump(mapping, sort_keys=False))
        path = tmp_path / f"huge.{suffix}"
        path.write_text(text.replace("seed: 7", "seed: " + "9" * 5000)
                        .replace('"seed": 7', '"seed": ' + "9" * 5000))
        with pytest.raises(ConfigError, match="^cannot parse scenario file .*4300 digits"):
            load_scenario(path)
        assert main(["run", str(path)]) == 2
        assert "configuration error: cannot parse scenario file" in capsys.readouterr().err

    @pytest.mark.parametrize("suffix", ["json", "yaml"])
    def test_nesting_too_deep_to_parse(self, tmp_path, capsys, monkeypatch, suffix):
        # Deeper than either parser recurses: a parse error, not a
        # RecursionError traceback. JSON text is not read again as YAML.
        deep = "[" * 100_000 + "]" * 100_000
        path = tmp_path / f"deep.{suffix}"
        path.write_text(('{"tasks": %s}' if suffix == "json" else "tasks: %s\n") % deep)
        if suffix == "json":
            monkeypatch.setattr(cli, "_yaml", lambda: pytest.fail("read as YAML"))
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: cannot parse scenario file")
        assert "recursion" in err and "Traceback" not in err
        assert not out.exists()

    def test_undecodable_file(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_bytes(b"name: \xff\n")
        with pytest.raises(ConfigError, match="^cannot read scenario file"):
            load_scenario(path)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    def test_one_rate_threshold_rule(self, table1_cfg, value):
        # A Scenario and the rate-threshold check of prob_rate_exceeds and
        # ProbRateExceeds reject R0/W1 by one rule, with one message.
        entry_points = (lambda: replace(default_table1(), r0_over_w1=value),
                        lambda: stochgeo.prob_rate_exceeds(table1_cfg, value),
                        lambda: montecarlo.ProbRateExceeds(table1_cfg, value))
        for entry in entry_points:
            with pytest.raises(ConfigError) as rejected:
                entry()
            assert str(rejected.value) == (
                f"r0_over_w1 must be a real number in [0, inf), got {value!r}")


def _leaves(mapping, prefix=()):
    for key, value in mapping.items():
        if isinstance(value, dict):
            yield from _leaves(value, prefix + (key,))
        else:
            yield prefix + (key,), value


# The leaves of the scenario schema. Counts take small numbers only: a
# loaded library allocates n_files entries.
_LEAVES = dict(_leaves(cli._TABLE1))
_COUNTS = {("seed",), ("mc_trials",), ("library", "n_files"),
           ("library", "cache_size"), ("delay", "k"), ("delay", "restarts")}
_SMALL = st.integers(-2, 600) | st.sampled_from([-0.0, 0.0, 10.0, 2.5, 1e-06])
# Any finite double, so that many print in exponent form (1e-06, 1e+20).
_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.just(-0.0)
# BMP characters YAML accepts as they are: no surrogate pair, no control.
_TEXT = (st.text(alphabet="abz._/ -\u00e9\u00df\u4e2d", max_size=6)
         | st.sampled_from(["auto", "beta", "sigma", "theta", "offload", "delay"]))


def _leaf_values(path, default):
    if path in _COUNTS:
        return _SMALL
    if path == ("tasks",):
        return st.lists(st.sampled_from(cli._TASKS + ("plot",)), max_size=4)
    if path == ("sweep", "grid"):
        grids = st.lists(_FLOATS | st.integers(-5, 5), max_size=4)
        return grids | grids.map(sorted)
    if isinstance(default, str):
        return _TEXT | _SMALL
    return _FLOATS | st.integers(-10**6, 10**6) | st.lists(_SMALL, max_size=2)


@st.composite
def _scenario_texts(draw):
    """A scenario mapping over _TABLE1's keys with up to four leaves
    dropped or drawn, dumped by json.dumps in a drawn layout."""
    mapping = copy.deepcopy(cli._TABLE1)
    for path in draw(st.lists(st.sampled_from(list(_LEAVES)), max_size=4, unique=True)):
        section = mapping
        for key in path[:-1]:
            section = section[key]
        if draw(st.booleans()):
            section[path[-1]] = draw(_leaf_values(path, _LEAVES[path]))
        else:
            del section[path[-1]]
    return json.dumps(
        mapping,
        indent=draw(st.none() | st.integers(0, 4) | st.sampled_from(["", " ", "   "])),
        separators=draw(st.sampled_from([None, (",", ":"), (", ", ": "), (" ,", " : ")])),
        ensure_ascii=draw(st.booleans()),
    )


def _outcome(read):
    """The Scenario ``read()`` returns, every field as text (so -0.0 and
    0.0 differ and arrays compare by value), or its exception."""
    try:
        sc = read()
    except Exception as exc:
        return type(exc).__name__, str(exc)
    fields = {name: repr(getattr(sc, name)) for name in sc.__dataclass_fields__
              if name != "lib"}
    for name in [*sc.lib.__dataclass_fields__, "mean_size_mbits"]:
        value = getattr(sc.lib, name)
        fields[f"lib.{name}"] = value.tobytes() if isinstance(value, np.ndarray) else repr(value)
    return fields


class TestJsonScenarioFiles:
    """JSON text is read by json; the YAML loader reads it the same way."""

    @staticmethod
    def _yaml_reading(path):
        _, loader, _ = cli._yaml()
        return lambda: cli._parse_scenario(yaml.load(path.read_text(), Loader=loader),
                                           path.stem)

    @settings(max_examples=150, deadline=None)
    @given(text=_scenario_texts())
    def test_json_reads_as_the_yaml_loader_does(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "drawn.json"
        path.write_text(text)
        assert _outcome(lambda: load_scenario(path)) == _outcome(self._yaml_reading(path))

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_constants_read_as_yaml(self, tmp_path, constant):
        # Not JSON numbers: the YAML loader reads them as strings, as before.
        mapping = copy.deepcopy(cli._TABLE1)
        mapping["delay"]["zeta_tot"] = "ZETA"
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(mapping).replace('"ZETA"', constant))
        with pytest.raises(ConfigError, match=f"^delay.zeta_tot must be a number, "
                                              f"got '{constant}'$"):
            load_scenario(path)

    def test_byte_order_mark_reads_as_yaml(self, tmp_path):
        # json refuses a leading BOM; the YAML loader skips it, as before.
        mapping = copy.deepcopy(cli._TABLE1)
        mapping["seed"] = 5
        path = tmp_path / "scenario.json"
        path.write_text("\ufeff" + json.dumps(mapping))
        assert load_scenario(path).seed == 5

    def test_duplicate_keys_keep_the_last(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(cli._TABLE1)[:-1] + ', "seed": 3, "seed": 4}')
        assert load_scenario(path).seed == 4

    def test_tab_indented_json_loads(self, tmp_path):
        # A scanner error of the YAML loader; valid JSON, so it now loads.
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(cli._TABLE1, indent="\t"))
        with pytest.raises(yaml.YAMLError):
            self._yaml_reading(path)()
        assert _outcome(lambda: load_scenario(path)) == _outcome(default_table1)

    @pytest.mark.parametrize("name, ensure_ascii", [
        ("run\U0001f600", True),  # an escaped surrogate pair: two lone surrogates
        ("run\x80x", False),  # a raw C1 control character: rejected
        ("run\x85x", False),  # a raw NEL: read as a line break
    ])
    def test_string_the_yaml_loader_misread_is_kept(self, tmp_path, name, ensure_ascii):
        mapping = copy.deepcopy(cli._TABLE1)
        mapping["name"] = name
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(mapping, ensure_ascii=ensure_ascii))
        assert load_scenario(path).name == name

    def test_long_key_is_an_unknown_key(self, tmp_path):
        # The YAML loader cannot parse a key of more than 1024 characters.
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({**cli._TABLE1, "k" * 1100: 1}))
        with pytest.raises(ConfigError, match=f"^unknown scenario keys: {'k' * 1100}$"):
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
                                  "best_start", "gap", "d2d_idle"}
            assert point["converged"] is True
            assert point["bcd_steps"] >= 1
            assert point["restarts_used"] == sc.bcd_restarts
            assert 0 <= point["best_start"] < sc.bcd_restarts
            assert np.isfinite(point["gap"])

    def test_delay_flags_an_idle_d2d_queue(self, tmp_path):
        # On Table 1 the optimum is the top-M vertex at every beta, so it
        # sends no request over D2D. An idle D2D queue gets no bandwidth.
        sc = replace(default_table1(), tasks=("delay",), output_dir=str(tmp_path))
        assert run_scenario(sc) == 0
        summary = json.loads((tmp_path / "table1_summary.json").read_text())
        points = summary["tasks"]["delay"]["point_diagnostics"]
        assert sc.grid == (0.0, 0.5, 1.0, 1.5, 2.0)
        idle = [point["d2d_idle"] for point in points]
        assert idle == [True] * 5
        rows = list(csv.DictReader(
            (tmp_path / "table1_delay.csv").read_text().splitlines()[1:]))
        assert [float(row["w1_opt_hz"]) == 0.0 for row in rows] == idle

    def test_delay_does_not_depend_on_the_seed(self, tmp_path):
        # The delay optimiser starts from deterministic frontier points.
        csvs = []
        for seed in (1, 2):
            out = tmp_path / str(seed)
            sc = replace(default_table1(), tasks=("delay",), seed=seed, output_dir=str(out))
            assert run_scenario(sc) == 0
            csvs.append((out / "table1_delay.csv").read_bytes())
        assert csvs[0] == csvs[1]

    @pytest.mark.parametrize("k", [1, 2])
    def test_delay_gap_is_finite_json(self, tmp_path, k):
        # At k = 1 every D2D queue is idle (a1 = 0 for any policy): its
        # slope is infinite, and the gap must still be a finite number
        # that a strict JSON parser reads.
        sc = replace(default_table1(), tasks=("delay",), delay_k=k,
                     output_dir=str(tmp_path))
        assert run_scenario(sc) == 0

        def reject(constant):
            raise ValueError(f"non-finite JSON constant {constant}")

        summary = json.loads((tmp_path / "table1_summary.json").read_text(),
                             parse_constant=reject)
        points = summary["tasks"]["delay"]["point_diagnostics"]
        assert len(points) == len(sc.grid)
        assert all(np.isfinite(point["gap"]) for point in points)

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
        # Each built table's radial node count, in build order.
        key = (sc.cfg.alpha, sc.cfg.theta, sc.cfg.access_p * sc.cfg.n_bar)
        nodes = [stochgeo._coverage_table(*key, level).weights.size for level in (0, 1)]
        assert [point["table_nodes"] for point in offload + energy] == (
            [nodes] + [[]] * (len(builds) - 1))
        mixture = cli._energy_mixture(sc.cfg.n_bar)
        for value, point, built in zip(sc.grid, offload, builds):
            assert set(point) == {"kkt_iterations", "multiplier", "table_builds",
                                  "table_nodes"}
            cfg, lib = cli._apply_sweep(sc, value)
            prob = stochgeo.prob_rate_exceeds(cfg, sc.r0_over_w1)
            sol = optimize.optimize_offloading(cfg, lib, prob)
            assert point == {"kkt_iterations": sol.iterations,
                             "multiplier": sol.multiplier, "table_builds": built,
                             "table_nodes": nodes if built else []}
            assert 0 < point["kkt_iterations"] < optimize._MULTIPLIER_ITERATIONS
        for point in energy:
            assert set(point) == {"kkt_iterations", "degenerate", "table_builds",
                                  "table_nodes"}
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

    def test_energy_where_d2d_costs_more_per_bit_than_the_bs(self, tmp_path):
        # A 0.5% D2D bandwidth share makes Pb/R2 < Pd/R1 at every k: the
        # energy is concave in the caching vector, and each k of the
        # Poisson mixture takes the top-M vertex of q_i S_i.
        mapping = copy.deepcopy(cli._TABLE1)
        mapping.update(tasks=["energy"], energy={"bandwidth_fraction": 0.005})
        path = tmp_path / "table1.yaml"
        path.write_text(yaml.safe_dump(mapping))
        assert main(["run", str(path), "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "table1_energy.csv").read_text().splitlines()
        rows = list(csv.DictReader(lines[1:]))
        assert [float(row["value"]) for row in rows] == mapping["sweep"]["grid"]
        for row in rows:
            assert row["error"] == ""
            e_pc, e_zipf, e_cpf = (float(row[f"e_{c}_j"]) for c in ("pc", "zipf", "cpf"))
            assert e_pc <= min(e_zipf, e_cpf)
        summary = json.loads((tmp_path / "table1_summary.json").read_text())
        mixture = cli._energy_mixture(mapping["network"]["n_bar"])
        assert len(mixture) == 25
        for point in summary["tasks"]["energy"]["point_diagnostics"]:
            assert point["degenerate"] == len(mixture)
            assert point["kkt_iterations"] == 0

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
        scenario = replace(default_table1(), mc_trials=2000)
        rows = cli._validate_rows(scenario, cli._validate_points(scenario))
        (requests,) = calls
        assert len(requests) == 14 and len(rows) == 15


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

    def test_readme_quick_start_runs(self):
        # The README's Python quick start, run as it stands.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Library quick start", 1)[1]
        block = section.split("```python\n", 1)[1].split("```", 1)[0]
        exec(compile(block, "README.md", "exec"), {})

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("network: {}\nlibrary: {}\n")
        assert main(["run", str(bad)]) == 2

    def test_validate_on_infeasible_network_exit_code(self, tmp_path, capsys):
        # At theta = 0 dB, access_p * log2(1 + theta) = 0.1 cannot carry
        # R0/W1 = 0.12: the validate table's P(R1 > R0) points are a
        # configuration error, reported on one line.
        mapping = copy.deepcopy(cli._TABLE1)
        mapping["network"]["access_p"] = 0.1
        mapping["offload"]["r0_over_w1"] = 0.12
        path = tmp_path / "infeasible.yaml"
        path.write_text(yaml.dump(mapping, Dumper=cli._yaml()[2]))
        assert main(["run", str(path), "--out", str(tmp_path / "out"),
                     "--mc-trials", "200"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: at theta = 1:")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_infeasible_validate_fails_before_any_task(self, tmp_path, capsys):
        # The validate table's requests are built before the first task
        # runs, so an offload task listed first writes no CSV and the run
        # leaves no file at all.
        mapping = copy.deepcopy(cli._TABLE1)
        mapping["network"]["access_p"] = 0.1
        mapping["offload"]["r0_over_w1"] = 0.12
        mapping["tasks"] = ["offload", "validate"]
        path = tmp_path / "infeasible.yaml"
        path.write_text(yaml.dump(mapping, Dumper=cli._yaml()[2]))
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out),
                     "--mc-trials", "200"]) == 2
        assert capsys.readouterr().err.startswith(
            "configuration error: at theta = 1:")
        assert not out.exists()

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.yaml")]) == 2

    @pytest.mark.parametrize("where", ["library", "sweep"])
    @pytest.mark.parametrize("beta", [1000.0, 1060.0, 1100.0])
    def test_beta_whose_popularities_underflow_exit_code(self, tmp_path, capsys,
                                                         where, beta):
        mapping = copy.deepcopy(cli._TABLE1)
        mapping["tasks"] = ["offload"]
        if where == "library":
            mapping["library"]["beta"] = beta
        else:
            mapping["sweep"]["grid"] = [1.0, beta]
        path = tmp_path / "beta.yaml"
        path.write_text(yaml.dump(mapping, Dumper=cli._yaml()[2]))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "underflows to zero" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("jobs", ["0", "-3", "2"])
    def test_jobs_below_one_exit_code(self, tmp_path, capsys, jobs):
        scenario = tmp_path / "delay.yaml"
        scenario.write_text(yaml.dump({**cli._TABLE1, "tasks": ["delay"]},
                                      Dumper=cli._yaml()[2]))
        for argv in (["run", str(scenario)], ["validate", "--mc-trials", "100"]):
            out = tmp_path / "out"
            assert main(argv + ["--jobs", jobs, "--out", str(out)]) == 2
            assert "--jobs" in capsys.readouterr().err
            assert not out.exists()

    def test_non_integral_jobs_rejected_before_any_file(self, tmp_path):
        out = tmp_path / "out"
        sc = replace(default_table1(), tasks=("delay",), output_dir=str(out))
        with pytest.raises(ConfigError, match="--jobs must be an integer"):
            run_scenario(sc, jobs=2.5)
        assert not out.exists()

    def test_jobs_above_one_rejected_before_any_file(self, tmp_path):
        # Sweep points run in one process; --jobs is accepted only as 1.
        out = tmp_path / "out"
        sc = replace(default_table1(), tasks=("delay",), output_dir=str(out))
        with pytest.raises(ConfigError, match="^--jobs must be 1"):
            run_scenario(sc, jobs=2)
        assert not out.exists()

    @pytest.mark.parametrize("name", ["table1_validate.csv", "table1_summary.json"])
    def test_unwritable_output_file_exit_code(self, tmp_path, capsys, name):
        # A directory in the place of an output file.
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        assert main(["validate", "--mc-trials", "200", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: cannot write output file {out / name}")

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
        monkeypatch.setattr(cli, "_validate_rows",
                            lambda scenario, points: [failing_row])
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

    def test_cli_import_and_validate_leave_out_yaml(self, tmp_path):
        # Only reading a scenario file and print-default-config need yaml.
        code = ("import sys, clustercache.cli as cli; "
                "on_import = 'yaml' in sys.modules; "
                f"cli.main(['validate', '--mc-trials', '200', '--out', {str(tmp_path)!r}]); "
                "sys.exit('yaml imported with the CLI' if on_import else "
                "'yaml imported by validate' if 'yaml' in sys.modules else None)")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "table1_validate.csv").is_file()

    def test_json_run_leaves_out_yaml(self, tmp_path):
        # A JSON scenario is read by json; a YAML one, such as the printed
        # default, still imports yaml.
        mapping = copy.deepcopy(cli._TABLE1)
        mapping.update(tasks=["offload"], sweep={"variable": "beta", "grid": [1.0]})
        mapping["library"].update(n_files=30, cache_size=3)
        (tmp_path / "scenario.json").write_text(json.dumps(mapping, indent=1))
        (tmp_path / "table1.yaml").write_text(DEFAULT_CONFIG_YAML)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        for name, imports_yaml in (("scenario.json", False), ("table1.yaml", True)):
            code = ("import sys, clustercache.cli as cli; "
                    f"code = cli.main(['run', {str(tmp_path / name)!r}, "
                    f"'--mc-trials', '200', '--out', {str(tmp_path / 'out')!r}]); "
                    "print('yaml' in sys.modules); sys.exit(code)")
            proc = subprocess.run([sys.executable, "-c", code], env=env,
                                  capture_output=True, text=True)
            # At 200 trials the validate table may fail: exit 4.
            assert proc.returncode in (0, 4), (name, proc.stderr)
            assert proc.stdout.strip() == str(imports_yaml), name
        assert (tmp_path / "out" / "table1_offload.csv").is_file()
        assert (tmp_path / "out" / "table1_validate.csv").is_file()

    def test_cli_import_leaves_out_the_process_pool(self):
        # Sweep points run in the calling process: nothing imports
        # concurrent.futures or the logging it would load.
        code = ("import sys, clustercache.cli; "
                "sys.exit(sorted({'concurrent.futures', 'logging'} & set(sys.modules))"
                " or None)")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_run_imports_nothing_after_setup(self, tmp_path):
        # Every module a run needs is imported with the CLI, so the import
        # cost is paid in set-up and never inside run_scenario (numpy
        # loads numpy.random lazily). Blocking scipy
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
