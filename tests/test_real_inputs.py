"""Every public real-valued parameter is checked by one rule.

Each callable a module exports in ``__all__``, and each public method
of an exported class, is found with its parameters annotated ``float``.
``VALID`` gives otherwise valid arguments for each such callable; with
one such parameter replaced by NaN, ``True``, the string ``"1"`` or
either infinity (no interval of the package contains one), the call
must raise ``ConfigError`` naming the parameter, in the message form of
``model._check_real``. A ``float`` parameter of a callable ``VALID``
lacks fails the test, so no new public parameter can skip the rule.
"""

import importlib
import inspect
import math
from dataclasses import fields

import numpy as np
import pytest

from clustercache.cli import default_table1
from clustercache.errors import ConfigError
from clustercache.model import ContentLibrary, NetworkConfig, baseline_policy

from conftest import TABLE1

MODULES = ("model", "stochgeo", "optimize", "queueing", "montecarlo", "cli")
# Result records: what they hold was computed, not given.
EXEMPT = {"optimize.KktSolution", "optimize.BcdStep", "optimize.BcdTrace",
          "montecarlo.McEstimate"}
BAD = (math.nan, True, "1", math.inf, -math.inf)


def _lib():
    return ContentLibrary.zipf(20, 1.0, 4)


def _policy():
    return baseline_policy("zipf-proportional", _lib())


def _scenario():
    scenario = default_table1()
    return {f.name: getattr(scenario, f.name) for f in fields(scenario)}


# Otherwise valid keyword arguments of each callable with a float parameter.
VALID = {
    "model.NetworkConfig": lambda: dict(TABLE1),
    "model.ContentLibrary": lambda: dict(
        n_files=3, beta=0.0, cache_size=1, popularity=np.full(3, 1 / 3),
        sizes=np.ones(3)),
    "model.ContentLibrary.zipf": lambda: dict(
        n_files=20, beta=1.0, cache_size=4, mean_size_mbits=5.0),
    "model.zipf_popularity": lambda: dict(n_files=20, beta=1.0),
    "stochgeo.serving_distance_pdf": lambda: dict(r=1.0, sigma=10.0),
    "stochgeo.prob_rate_exceeds": lambda: dict(
        cfg=NetworkConfig(**TABLE1), r0_over_w1=0.1),
    "stochgeo.bs_coverage": lambda: dict(theta=1.0, alpha=4.0),
    "stochgeo.average_rate": lambda: dict(w=1e7, theta=1.0, coverage=0.5),
    "stochgeo.optimal_access_probability": lambda: dict(r0_over_w1=0.1, theta=1.0),
    "optimize.objective_offloading": lambda: dict(
        policy=_policy(), lib=_lib(), n_bar=5.0, prob_r1=0.5),
    "optimize.optimize_offloading": lambda: dict(
        cfg=NetworkConfig(**TABLE1), lib=_lib(), prob_r1=0.5),
    "optimize.energy_conditional": lambda: dict(
        policy=_policy(), lib=_lib(), cfg=NetworkConfig(**TABLE1), k=3, r1=1e7, r2=1e7),
    "optimize.optimize_energy": lambda: dict(
        cfg=NetworkConfig(**TABLE1), lib=_lib(), k=3, r1=1e7, r2=1e7),
    "optimize.weighted_delay": lambda: dict(
        policy=_policy(), lib=_lib(), k=3, zeta_tot=1.0, w1=1e7, o1=1e-6, o2=1e-6,
        w_total=2e7),
    "optimize.optimize_delay_bcd": lambda: dict(
        cfg=NetworkConfig(**TABLE1), lib=_lib(), k=3, zeta_tot=1.0, restarts=2),
    "montecarlo.ProbRateExceeds": lambda: dict(
        cfg=NetworkConfig(**TABLE1), r0_over_w1=0.1),
    "cli.Scenario": _scenario,
}


def _callables():
    """(key, callable) of every exported callable and public method."""
    for module_name in MODULES:
        module = importlib.import_module(f"clustercache.{module_name}")
        for name in module.__all__:
            obj = getattr(module, name)
            key = f"{module_name}.{name}"
            if key in EXEMPT or not callable(obj):
                continue
            yield key, obj
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if not attr.startswith("_") and (
                            isinstance(member, (classmethod, staticmethod))
                            or inspect.isfunction(member)):
                        yield f"{key}.{attr}", getattr(obj, attr)


def _float_parameters(fn):
    signature = inspect.signature(fn, eval_str=True)
    return [name for name, parameter in signature.parameters.items()
            if parameter.annotation is float]


FLOAT_PARAMETERS = {key: (fn, names) for key, fn in _callables()
                    if (names := _float_parameters(fn))}
CASES = [(key, name) for key, (_, names) in FLOAT_PARAMETERS.items() for name in names]


def test_every_float_parameter_has_valid_arguments():
    assert sorted(FLOAT_PARAMETERS) == sorted(VALID)


@pytest.mark.parametrize("key", sorted(VALID))
def test_valid_arguments_are_accepted(key):
    FLOAT_PARAMETERS[key][0](**VALID[key]())


@pytest.mark.parametrize("key, name", CASES, ids=[f"{k}-{n}" for k, n in CASES])
@pytest.mark.parametrize("bad", BAD, ids=repr)
def test_rejects_what_is_not_a_real_number_in_range(key, name, bad):
    fn = FLOAT_PARAMETERS[key][0]
    with pytest.raises(ConfigError, match=f"^{name} must be a real number in "):
        fn(**{**VALID[key](), name: bad})
