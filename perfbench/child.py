"""One benchmark sample: a fresh interpreter running the clustercache CLI.

Usage: ``python3 perfbench/child.py '<json spec>'`` with the spec keys

* ``src``: directory holding the ``clustercache`` package;
* ``argv``: arguments for ``clustercache.cli.main`` (what the
  ``clustercache`` console script receives);
* ``result``: path of the JSON file this process writes;
* ``trace``: wrap every public function of the package in a span.

Set-up ends when ``cli.main`` enters ``run_scenario``: the package is
imported and the scenario is loaded. The wall-clock time of that moment
goes into the result so the parent can subtract its spawn time.
"""

import json
import sys
import time


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    from clustercache import cli, stochgeo

    cached = {name: getattr(stochgeo, name)
              for name in ("prob_rate_exceeds", "d2d_coverage_conditional")}
    tracer = None
    if spec.get("trace"):
        import tracing  # beside this file, so on sys.path already
        tracer = tracing.Tracer()
        tracing.install(tracer)

    record = {}
    run_scenario = cli.run_scenario

    def timed_run(scenario, jobs=1):
        record["setup_end"] = time.time()
        started = time.perf_counter()
        code = run_scenario(scenario, jobs=jobs)
        record["run_s"] = time.perf_counter() - started
        return code

    cli.run_scenario = timed_run
    record["exit_code"] = cli.main(spec["argv"])
    record["cache_info"] = {
        name: list(fn.cache_info()[:2]) for name, fn in cached.items()
    }
    if tracer is not None:
        record["metrics"] = tracing.layer_metrics(tracer, record["cache_info"])
    with open(spec["result"], "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
