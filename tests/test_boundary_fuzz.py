"""Fuzzing the input boundary: ``NetworkConfig`` and scenario files.

Every non-finite or out-of-range field must raise ``ConfigError``: no other
exception, and no value accepted silently to fail later in a sweep.
"""

import copy
import math

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from clustercache import cli
from clustercache.cli import default_table1, load_scenario
from clustercache.errors import ConfigError
from clustercache.model import NetworkConfig

from conftest import TABLE1

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


def _at_most(bound):
    return st.floats(max_value=bound)


def _below(bound):
    return st.floats(max_value=bound, exclude_max=True)


def _outside_unit_interval():
    return _below(0.0) | st.floats(min_value=1.0, exclude_min=True)


NETWORK_OUT_OF_RANGE = {
    "lambda_p": _at_most(0.0),
    "n_bar": _at_most(0.0),
    "sigma": _at_most(0.0),
    "alpha": _at_most(2.0),
    "theta": _at_most(0.0),
    "p_d": _at_most(0.0),
    "p_b": _at_most(0.0),
    "w_total": _at_most(0.0),
    "access_p": _outside_unit_interval(),
}

# Decibel values whose linear value overflows a double or underflows to 0.
_DB_OUT_OF_RANGE = st.floats(min_value=3200.0) | _at_most(-3400.0)

# Non-integral values of a count; truncating them would load a valid count.
_NON_INTEGRAL = st.floats(min_value=1.0, max_value=1e6).filter(
    lambda x: not x.is_integer())

# Values a scenario file may hold where a number is wanted that are no
# number: a bool (YAML true/yes; Python counts it as an int) or a quoted
# number.
_NOT_A_NUMBER = (st.booleans() | st.integers(min_value=0).map(str)
                 | st.floats().map(str))

# Scenario-file keys (section, key) and their out-of-range, non-integral or
# non-numeric values.
SCENARIO_OUT_OF_RANGE = {
    ("network", "lambda_p_per_km2"): _at_most(0.0) | _NOT_A_NUMBER,
    ("network", "n_bar"): _at_most(0.0) | _NOT_A_NUMBER,
    ("network", "sigma_m"): _at_most(0.0) | _NOT_A_NUMBER,
    ("network", "alpha"): _at_most(2.0) | _NOT_A_NUMBER,
    ("network", "theta_db"): _DB_OUT_OF_RANGE | _NOT_A_NUMBER,
    ("network", "p_d_dbm"): _DB_OUT_OF_RANGE | _NOT_A_NUMBER,
    ("network", "p_b_dbm"): _DB_OUT_OF_RANGE | _NOT_A_NUMBER,
    ("network", "w_total_mhz"): _at_most(0.0) | _NOT_A_NUMBER,
    ("network", "access_p"): _outside_unit_interval() | _NOT_A_NUMBER,
    ("library", "n_files"): st.integers(max_value=10) | _NON_INTEGRAL | _NOT_A_NUMBER,
    ("library", "beta"): _below(0.0) | _NOT_A_NUMBER,
    ("library", "mean_size_mbits"): _at_most(0.0) | _NOT_A_NUMBER,
    ("library", "cache_size"): (st.integers(max_value=0) | st.integers(min_value=500)
                                | _NON_INTEGRAL | _NOT_A_NUMBER),
    ("offload", "r0_over_w1"): _below(0.0) | _NOT_A_NUMBER,
    ("energy", "bandwidth_fraction"): (_at_most(0.0) | st.floats(min_value=1.0)
                                       | _NOT_A_NUMBER),
    ("delay", "k"): st.integers(max_value=0) | _NON_INTEGRAL | _NOT_A_NUMBER,
    ("delay", "zeta_tot"): _below(0.0) | _NOT_A_NUMBER,
    ("delay", "restarts"): st.integers(max_value=0) | _NON_INTEGRAL | _NOT_A_NUMBER,
    (None, "mc_trials"): st.integers(max_value=0) | _NON_INTEGRAL | _NOT_A_NUMBER,
    (None, "seed"): st.integers(max_value=-1) | _NON_INTEGRAL | _NOT_A_NUMBER,
    ("sweep", "grid"): st.text(alphabet="0123456789.", min_size=1) | _NOT_A_NUMBER,
}


@settings(max_examples=300, deadline=None)
@given(field=st.sampled_from(sorted(NETWORK_OUT_OF_RANGE)), data=st.data())
def test_network_config_rejects_bad_field(field, data):
    value = data.draw(NON_FINITE | NETWORK_OUT_OF_RANGE[field], label=field)
    with pytest.raises(ConfigError):
        NetworkConfig(**{**TABLE1, field: value})


@settings(max_examples=100, deadline=None)
@given(
    lambda_p=st.floats(min_value=1e-9, max_value=1e-2),
    n_bar=st.floats(min_value=1e-3, max_value=1e3),
    sigma=st.floats(min_value=1e-3, max_value=1e4),
    alpha=st.floats(min_value=2.0, max_value=10.0, exclude_min=True),
    theta=st.floats(min_value=1e-6, max_value=1e6),
    access_p=st.floats(min_value=0.0, max_value=1.0),
)
def test_network_config_accepts_finite_in_range(lambda_p, n_bar, sigma, alpha, theta,
                                                access_p):
    NetworkConfig(**{**TABLE1, "lambda_p": lambda_p, "n_bar": n_bar, "sigma": sigma,
                     "alpha": alpha, "theta": theta, "access_p": access_p})


@pytest.fixture(scope="module")
def scenario_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "scenario.yaml"


def _load(path, mapping):
    # The loader reads an unquoted 1e-06 as a number: its dumper quotes
    # the strings of _NOT_A_NUMBER that look like one.
    path.write_text(yaml.dump(mapping, Dumper=cli._yaml()[2]))
    return load_scenario(path)


def test_unmodified_scenario_loads(scenario_path):
    assert _load(scenario_path, copy.deepcopy(cli._TABLE1)).cfg == \
        default_table1().cfg


@settings(max_examples=400, deadline=None)
@given(key=st.sampled_from(sorted(SCENARIO_OUT_OF_RANGE, key=str)), data=st.data())
def test_scenario_file_rejects_bad_field(scenario_path, key, data):
    section, name = key
    value = data.draw(NON_FINITE | SCENARIO_OUT_OF_RANGE[key], label=name)
    mapping = copy.deepcopy(cli._TABLE1)
    (mapping[section] if section else mapping)[name] = value
    with pytest.raises(ConfigError):
        _load(scenario_path, mapping)


@settings(max_examples=100, deadline=None)
@given(
    grid=st.lists(st.floats(min_value=0.0, max_value=3.0), min_size=1, max_size=5),
    bad=NON_FINITE,
    data=st.data(),
)
def test_scenario_file_rejects_non_finite_grid_value(scenario_path, grid, bad, data):
    grid = sorted(grid)
    grid.insert(data.draw(st.integers(0, len(grid)), label="position"), bad)
    mapping = copy.deepcopy(cli._TABLE1)
    mapping["sweep"]["grid"] = grid
    with pytest.raises(ConfigError):
        _load(scenario_path, mapping)
