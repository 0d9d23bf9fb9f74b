"""The interface the benchmark in ``perfbench/`` uses of the package.

The benchmark runs each workload's CLI arguments in a fresh interpreter
and, when traced, reads metrics from ``perfbench/child.py``; a break in
either shows there only as a failed run. These tests only read
``perfbench/``.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from clustercache import cli

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
check = _load("check")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_runs_and_writes_its_csvs(tmp_path, workload):
    # The benchmark's own CSV check: a missing row, a `pass=false` row or
    # analytic drift from the recorded reference fails here too.
    assert cli.main(workloads.cli_args(workload, 1, tmp_path)) == 0
    names = workloads.csv_names(workload)
    for name in names:
        assert (tmp_path / "out" / name).is_file()
    result = check.check_sample(names, tmp_path / "out",
                                PERFBENCH / "reference" / workload, None)
    assert result["failed"] == 0, result["problems"]


def test_traced_child_writes_metrics(tmp_path):
    result = tmp_path / "result.json"
    spec = {
        "src": str(ROOT / "src"),
        "argv": workloads.cli_args("delay", 1, tmp_path),
        "result": str(result),
        "trace": True,
    }
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), json.dumps(spec)],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    record = json.loads(result.read_text())
    assert record["exit_code"] == 0
    points = len(workloads.SCENARIOS["delay"]["sweep"]["grid"])
    assert record["metrics"]["optimize.optimize_delay_bcd.calls"] == points
