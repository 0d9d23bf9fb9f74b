"""Span bookkeeping: self time, busy time and the wrapping of public functions."""

import pytest

import tracing


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_union_length_merges_overlaps_and_gaps():
    assert tracing.union_length([]) == 0.0
    assert tracing.union_length([(0, 2), (1, 3), (5, 6)]) == 4.0
    assert tracing.union_length([(0, 10), (2, 3)]) == 10.0


def test_self_time_is_parent_minus_union_of_children():
    spans = [
        ["parent", 0.0, 10.0, -1],
        ["child", 1.0, 4.0, 0],
        ["child", 3.0, 5.0, 0],  # overlaps the first child: counted once
        ["grandchild", 1.5, 2.0, 1],
    ]
    assert tracing.self_times(spans) == pytest.approx([6.0, 2.5, 2.0, 0.5])


def test_nested_laplace_spans_under_conditional_coverage():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)

    def laplace_inter():
        clock.now += 2.0

    def laplace_intra():
        clock.now += 0.5

    inter = tracer.wrap("stochgeo.laplace_inter", laplace_inter)
    intra = tracer.wrap("stochgeo.laplace_intra", laplace_intra)

    def conditional():
        for _ in range(3):  # three outer quadrature nodes
            clock.now += 1.0
            inter()
            intra()
        return None

    tracer.wrap("stochgeo.d2d_coverage_conditional", conditional)()
    names = [s[0] for s in tracer.spans]
    assert names.count("stochgeo.laplace_inter") == 3
    assert all(tracer.spans[i][3] == 0 for i in range(1, len(names)))
    selfs = tracing.self_times(tracer.spans)
    assert tracer.spans[0][2] - tracer.spans[0][1] == pytest.approx(10.5)
    assert selfs[0] == pytest.approx(3.0)

    m = tracing.layer_metrics(tracer, {"prob_rate_exceeds": (0, 0),
                                       "d2d_coverage_conditional": (0, 1)})
    assert m["stochgeo.d2d_coverage_conditional.calls"] == 1
    assert m["stochgeo.d2d_coverage_conditional.busy_s"] == pytest.approx(10.5)
    assert m["stochgeo.d2d_coverage_conditional.self_s"] == pytest.approx(3.0)
    assert m["stochgeo.laplace_inter.busy_s"] == pytest.approx(6.0)
    assert m["stochgeo.laplace_inter.calls_per_coverage"] == 3.0
    assert m["stochgeo.cache_hit_ratio"] == 0.0


def test_busy_counts_recursive_calls_once():
    spans = [["a", 0.0, 4.0, -1], ["a", 1.0, 2.0, 0], ["b", 5.0, 6.0, -1]]
    assert tracing.busy(spans, ["a"]) == 4.0
    assert tracing.busy(spans, ["a", "b"]) == 5.0
    assert tracing.busy(spans, ["a"], parent_prefix="a") == 1.0


def test_span_closes_when_the_call_raises():
    tracer = tracing.Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("m.boom", boom)()
    assert tracer.spans[0][2] is not None
    assert tracer._stack == []
