"""Span tracer that wraps the package's public functions from outside.

Nothing inside ``src/`` is instrumented: :func:`install` replaces each
public function of the traced modules, wherever a module of the package
holds a reference to it (``from .model import baseline_policy`` copies
the reference, so patching only the defining module would miss callers).
Spans ``(name, start, end, parent)`` stay in memory; :func:`layer_metrics`
reduces them to the per-layer metrics once the run is over.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

PACKAGE = "clustercache"
LAYERS = ("cli", "stochgeo", "optimize", "queueing", "montecarlo", "model")

# Densities evaluated at every quadrature node; a span per call would cost
# more than the work it measures and is not a layer boundary.
_NOT_TRACED = {"stochgeo.rice_pdf", "stochgeo.serving_distance_pdf"}

# Baseline-scheme evaluations, counted when the CLI calls them directly
# (the optimisers also call some of them to score their own solution).
_BASELINES = ("optimize.objective_offloading", "optimize.energy_conditional",
              "optimize.weighted_delay")
_MC = ("mc_prob_rate_exceeds", "mc_coverage_single_link", "mc_coverage_conditional")
_COVERAGE = ("stochgeo.prob_rate_exceeds", "stochgeo.d2d_coverage_conditional")


class Tracer:
    """Collects spans; ``spans[i] = [name, start, end, parent_index]``."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.results: list = []  # return value of each span, same index
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, self.clock(), None, parent])
            self.results.append(None)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
                self.results[index] = result
                return result
            finally:
                self._stack.pop()
                self.spans[index][2] = self.clock()

        return traced


def public_functions(module):
    """Public functions defined in ``module`` (its ``__all__``, classes excluded)."""
    for attr in getattr(module, "__all__", ()):
        obj = getattr(module, attr)
        if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
            yield attr, obj


def install(tracer: Tracer) -> None:
    """Wrap every public function of every layer of the package."""
    modules = [sys.modules[f"{PACKAGE}.{layer}"] for layer in LAYERS]
    replacements = {}
    for layer, module in zip(LAYERS, modules):
        for attr, fn in public_functions(module):
            name = f"{layer}.{attr}"
            if name not in _NOT_TRACED:
                replacements[id(fn)] = tracer.wrap(name, fn)
    for module in modules + [sys.modules[PACKAGE]]:
        for attr, value in list(vars(module).items()):
            if id(value) in replacements:
                setattr(module, attr, replacements[id(value)])


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    return [
        (end - start) - union_length(children.get(i, ()))
        for i, (name, start, end, parent) in enumerate(spans)
    ]


def busy(spans, names, parent_prefix: str | None = None) -> float:
    """Wall time covered by the spans of ``names`` (nested calls count once)."""
    names = set(names)
    return union_length(
        (start, end) for name, start, end, parent in spans
        if name in names and (
            parent_prefix is None
            or (parent >= 0 and spans[parent][0].startswith(parent_prefix))
        )
    )


def layer_metrics(tracer: Tracer, cache_info: dict) -> dict:
    """Reduce the spans of one traced run to the per-layer metrics.

    ``cache_info`` maps each cached coverage function to its
    ``(hits, misses)`` at the end of the run.
    """
    spans, results = tracer.spans, tracer.results
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)

    def calls(name):
        return len(by_name.get(name, ()))

    def self_s(name):
        return sum(selfs[i] for i in by_name.get(name, ()))

    def returned(name):
        return [results[i] for i in by_name.get(name, ())]

    def ratio(num, den):
        return num / den if den else 0.0

    m: dict[str, float] = {}
    for fn in ("d2d_coverage_conditional", "prob_rate_exceeds"):
        name = f"stochgeo.{fn}"
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.busy_s"] = busy(spans, [name])
        m[f"{name}.self_s"] = self_s(name)
    for fn in ("laplace_inter", "laplace_intra"):
        name = f"stochgeo.{fn}"
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.busy_s"] = busy(spans, [name])
    under_coverage = sum(
        1 for i in by_name.get("stochgeo.laplace_inter", ())
        if spans[i][3] >= 0 and spans[spans[i][3]][0] in _COVERAGE
    )
    m["stochgeo.laplace_inter.calls_per_coverage"] = ratio(
        under_coverage, sum(calls(name) for name in _COVERAGE))
    m["stochgeo.cache_hit_ratio"] = ratio(
        sum(h for h, _ in cache_info.values()),
        sum(h + miss for h, miss in cache_info.values()))
    m["stochgeo.closed_form.busy_s"] = busy(
        spans, ["stochgeo.bs_coverage", "stochgeo.d2d_coverage_single_link"])

    bcd = returned("optimize.optimize_delay_bcd")
    m["optimize.optimize_delay_bcd.calls"] = len(bcd)
    m["optimize.optimize_delay_bcd.busy_s"] = busy(spans, ["optimize.optimize_delay_bcd"])
    m["optimize.bcd_steps"] = sum(len(t.steps) for t in bcd)
    m["optimize.bcd_restarts"] = sum(t.restarts_used for t in bcd)
    m["optimize.bcd_converged_ratio"] = ratio(sum(t.converged for t in bcd), len(bcd))
    for fn in ("optimize_energy", "optimize_offloading"):
        name = f"optimize.{fn}"
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.busy_s"] = busy(spans, [name])
    m["optimize.kkt_iterations"] = sum(
        s.iterations for fn in ("optimize_energy", "optimize_offloading")
        for s in returned(f"optimize.{fn}"))
    m["optimize.baselines.busy_s"] = busy(spans, _BASELINES, parent_prefix="cli.")

    name = "queueing.service_coefficients"
    m[f"{name}.calls"] = calls(name)
    m[f"{name}.busy_s"] = busy(spans, [name])

    for fn in _MC:
        name = f"montecarlo.{fn}"
        spent = busy(spans, [name])
        trials = sum(
            r.exact.samples + r.poisson_approx.samples if hasattr(r, "exact") else r.samples
            for r in returned(name)
        )
        m[f"{name}.busy_s"] = spent
        m[f"{name}.trials_per_s"] = ratio(trials, spent)

    name = "model.baseline_policy"
    m[f"{name}.calls"] = calls(name)
    m[f"{name}.busy_s"] = busy(spans, [name])

    runs = by_name.get("cli.run_scenario", ())
    run_s = sum(spans[i][2] - spans[i][1] for i in runs)
    m["cli.run_scenario.busy_s"] = run_s
    m["cli.self_s"] = sum(selfs[i] for i in runs)
    for layer in ("stochgeo", "montecarlo"):
        names = {span[0] for span in spans if span[0].startswith(layer + ".")}
        m[f"{layer}.run_share"] = ratio(busy(spans, names), run_s)
    m["optimize.optimize_delay_bcd.run_share"] = ratio(
        m["optimize.optimize_delay_bcd.busy_s"], run_s)
    return m
