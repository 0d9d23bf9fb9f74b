"""Benchmark of the clustercache pipeline, one cold process per sample.

Run from the repository root::

    python3 perfbench/run.py --workload coverage --seed 1 --seconds 40 --trace 0

Workloads (see ``workloads.py``): ``coverage``, ``delay``, ``validate``.

Every sample runs the CLI entry (``clustercache run`` or ``clustercache
validate``, ``--jobs 1``) in a fresh interpreter with BLAS/OpenMP
threads capped at 1, so each pays interpreter start, the scipy import
and cold coverage caches, as a user does. A run takes ``MIN_SAMPLES``
samples and more while the next one fits in ``--seconds``.

``--trace 0`` reports, as medians over the samples:

* ``run_s``: wall time of ``run_scenario`` (first task to summary file);
* ``cpu_s``: user + system CPU time of the sample process;
* ``setup_s``: from spawning the process to the CLI entering
  ``run_scenario`` (package imported, scenario loaded);
* ``peak_rss_mb``: peak resident memory of the sample process.

The three times are in seconds at reference host speed (see
``calibrate.py``); the unscaled medians are printed as ``*.raw`` next
to the median kernel time ``kernel_ms``. The run is pinned to one CPU.

``--trace 1`` takes untraced samples for half of ``--seconds`` (at
least one) and then one sample with every public function of the
package wrapped in a span (``tracing.py``). It reports the per-layer
metrics of the traced sample and the unscaled medians of the untraced
ones. Both modes check the CSVs against ``reference/`` (``check.py``);
``failed_frac`` and ``max_rel_dev`` are printed, and failed rows count
in ``failed``. Metric names and units come from ``BENCHMARK.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Sample outputs
are kept under ``.perfbench/<workload>/`` in the working directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import calibrate
import check
import workloads

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference"
MIN_SAMPLES = 2
CHILD_TIMEOUT_S = 150.0
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
# Units of every declared metric, plus those printed but not reported.
UNITS = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer") for m in SPEC[key]}
UNITS.update(failed_frac="fraction", max_rel_dev="fraction")


class BenchError(RuntimeError):
    """A sample process could not be run to completion."""


def spawn(root: Path, sample_dir: Path, argv: list[str], *, trace=False) -> dict:
    """Run one child process; returns its record plus process-level figures."""
    sample_dir.mkdir(parents=True, exist_ok=True)
    result_path = sample_dir / "result.json"
    spec = {"src": str(root / "src"), "argv": argv, "result": str(result_path),
            "trace": trace}
    env = dict(os.environ, **{var: "1" for var in _THREAD_VARS})
    with open(sample_dir / "stderr.txt", "w") as err:
        spawned = time.time()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=err,
        )
        # os.wait4 reaps the child and returns its own resource usage.
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.time() - spawned > CHILD_TIMEOUT_S:
                    raise BenchError(f"sample in {sample_dir} exceeded {CHILD_TIMEOUT_S} s")
                time.sleep(0.01)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
            raise
        wall = time.time() - spawned
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or not result_path.is_file():
        raise BenchError(f"sample in {sample_dir} exited with {proc.returncode}: "
                         f"{(sample_dir / 'stderr.txt').read_text()[-2000:]}")
    record = json.loads(result_path.read_text())
    record.update(
        setup_s=record["setup_end"] - spawned,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        wall_s=wall,
    )
    return record


class Run:
    """Samples of one workload and seed, checked as they complete."""

    def __init__(self, root: Path, workload: str, seed: int):
        self.root, self.workload, self.seed = root, workload, seed
        self.work = root / ".perfbench" / workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.samples: list[dict] = []
        self.attempted = self.failed = 0
        self.max_rel_dev = 0.0
        self.problems: list[str] = []

    def sample(self, trace=False) -> dict:
        sample_dir = self.work / f"sample{len(self.samples)}"
        sample_dir.mkdir(parents=True, exist_ok=True)
        argv = workloads.cli_args(self.workload, self.seed, sample_dir)
        record = spawn(self.root, sample_dir, argv, trace=trace)
        first = self.work / "sample0" / "out" if self.samples else None
        verdict = check.check_sample(
            workloads.csv_names(self.workload), sample_dir / "out",
            REFERENCE / self.workload, first,
        )
        self.attempted += verdict["attempted"]
        self.failed += verdict["failed"]
        self.max_rel_dev = max(self.max_rel_dev, verdict["max_rel_dev"])
        self.problems += [f"sample{len(self.samples)}: {p}" for p in verdict["problems"]]
        if record["exit_code"] != 0:
            self.problems.append(f"sample{len(self.samples)}: exit code {record['exit_code']}")
        hits = sum(h for h, _ in record["cache_info"].values())
        if hits:
            self.problems.append(f"sample{len(self.samples)}: {hits} coverage cache "
                                 "hits; the workload no longer measures cold work")
        self.samples.append(record)
        return record

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


def timed(run: Run, seconds: float, min_samples: int = MIN_SAMPLES) -> tuple[dict, dict]:
    """Medians over the samples: times at reference host speed, and raw figures.

    Every sample is bracketed by two kernel timings (``calibrate.py``);
    its times are scaled by the reference kernel time over the mean of
    the two.
    """
    started = time.perf_counter()
    kernel = [calibrate.kernel_seconds()]
    scales = []
    while True:
        record = run.sample()
        kernel.append(calibrate.kernel_seconds())
        scales.append(calibrate.REFERENCE_S / statistics.mean(kernel[-2:]))
        if (len(run.samples) >= min_samples
                and time.perf_counter() - started + record["wall_s"] > seconds):
            break
    median = statistics.median
    samples = list(zip(run.samples, scales))
    scaled = {
        "run_s": median(r["run_s"] * k for r, k in samples),
        "cpu_s": median(r["cpu_s"] * k for r, k in samples),
        "setup_s": median(r["setup_s"] * k for r, k in samples),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in run.samples),
    }
    raw = {
        "run_s.raw": median(r["run_s"] for r in run.samples),
        "cpu_s.raw": median(r["cpu_s"] for r in run.samples),
        "setup_s.raw": median(r["setup_s"] for r in run.samples),
        "kernel_ms": median(kernel) * 1e3,
    }
    return scaled, raw


def traced(run: Run, seconds: float) -> dict:
    """Per-layer metrics of one traced sample, after untraced ones for ``seconds / 2``."""
    _, raw = timed(run, seconds / 2, min_samples=1)
    record = run.sample(trace=True)
    metrics = dict(record["metrics"], **raw)
    metrics["trace.overhead_s"] = record["run_s"] - raw["run_s.raw"]
    return metrics


def environment(workload: str, seed: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "clustercache" / "cli.py").is_file():
        print(f"perfbench: no clustercache sources under {root / 'src'}; "
              "run from the repository root", file=sys.stderr)
        return 2

    # SIGTERM unwinds like an exception, so a running sample is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # The samples and the kernel timings that scale them share one CPU:
    # the host's CPUs change speed independently of each other. A change
    # that uses a second core therefore cannot show a wall-time gain here.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    run = Run(root, args.workload, args.seed)
    try:
        if args.trace:
            report = traced(run, args.seconds)
        else:
            scaled, raw = timed(run, args.seconds)
            report = dict(scaled, **raw)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    failed_frac = run.failed / run.attempted if run.attempted else 1.0
    prefix = "check." if args.trace else ""
    report[prefix + "failed_frac"] = failed_frac
    report[prefix + "max_rel_dev"] = run.max_rel_dev

    env = environment(args.workload, args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    print(f"samples {len(run.samples)}")
    for name, value in report.items():
        print(f"{name:48s} {value:.6g} {UNITS[name]}")
    for problem in run.problems:
        print(f"FAILED {problem}")
    (run.work / "result.json").write_text(json.dumps(
        {"env": env, "report": report,
         "problems": run.problems, "samples": run.samples}, indent=1))
    declared = SPEC["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": report[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
