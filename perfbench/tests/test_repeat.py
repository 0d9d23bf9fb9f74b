"""The benchmark entry end to end: repeatable traced counts, declared metrics,
refusal without sources."""

import json
import subprocess
import sys
from pathlib import Path

import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parents[2]
COUNTS = ("stochgeo.laplace_inter.calls", "stochgeo.prob_rate_exceeds.calls",
          "optimize.bcd_steps", "optimize.bcd_restarts", "optimize.kkt_iterations",
          "optimize.optimize_offloading.calls", "model.baseline_policy.calls")


def _tiny_scenario(path: Path) -> Path:
    scenario = json.loads(json.dumps(workloads.TABLE1))
    scenario.update(name="tiny", tasks=["offload", "delay"],
                    sweep={"variable": "beta", "grid": [1.0]})
    scenario["library"].update(n_files=30, cache_size=3)
    scenario["delay"]["restarts"] = 3
    path.write_text(json.dumps(scenario))
    return path


def test_counts_repeat_across_traced_runs(tmp_path):
    scenario = _tiny_scenario(tmp_path / "tiny.yaml")
    metrics = []
    for i in range(2):
        out = tmp_path / f"s{i}"
        argv = ["run", str(scenario), "--seed", "7", "--out", str(out / "out"),
                "--jobs", "1"]
        metrics.append(run.spawn(ROOT, out, argv, trace=True)["metrics"])
    first, second = metrics
    for name in COUNTS:
        assert first[name] > 0, name
        assert first[name] == second[name], name
    assert first["stochgeo.laplace_inter.calls_per_coverage"] == \
        second["stochgeo.laplace_inter.calls_per_coverage"]
    assert (tmp_path / "s0/out/tiny_offload.csv").read_bytes() == \
        (tmp_path / "s1/out/tiny_offload.csv").read_bytes()


def test_benchmark_json_declares_every_reported_metric():
    layers = set(tracing.layer_metrics(tracing.Tracer(), {}))
    raw = {"run_s.raw", "cpu_s.raw", "setup_s.raw", "kernel_ms"}
    traced_only = {"trace.overhead_s", "check.failed_frac", "check.max_rel_dev"}
    assert {m["name"] for m in run.SPEC["per_layer"]} == layers | raw | traced_only
    assert {m["name"] for m in run.SPEC["end_to_end"]} == \
        {"run_s", "cpu_s", "setup_s", "peak_rss_mb"}


def test_refuses_to_run_without_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "delay",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
