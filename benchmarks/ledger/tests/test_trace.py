"""Span bookkeeping: parents, trace ids and self-time arithmetic."""

from benchmarks.ledger.trace import NullTracer, Tracer


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_subtracts_nested_and_adjacent_children():
    clock = FakeClock()
    tracer = Tracer(clock)
    tracer.operation("w", 3)
    with tracer.span("parent"):          # 0 .. 10
        clock.now = 1.0
        with tracer.span("first"):       # 1 .. 4, holds a grandchild
            clock.now = 2.0
            with tracer.span("inner"):   # 2 .. 3
                clock.now = 3.0
            clock.now = 4.0
        with tracer.span("second"):      # 4 .. 6, adjacent to the first
            clock.now = 6.0
        clock.now = 10.0
    selfs = dict(zip((s.name for s in tracer.spans), tracer.self_times()))
    assert selfs == {"parent": 5.0, "first": 2.0, "inner": 1.0, "second": 2.0}
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["inner"].parent == by_name["first"].id
    assert by_name["second"].parent == by_name["parent"].id
    assert by_name["parent"].parent is None
    assert {s.trace for s in tracer.spans} == {"w#3"}
    totals = tracer.totals()
    assert totals["parent"] == {"calls": 1, "total": 10.0, "self": 5.0}


def test_overlapping_children_are_covered_once():
    clock = FakeClock()
    tracer = Tracer(clock)
    with tracer.span("parent"):
        pass
    parent = tracer.spans[0]
    parent.start, parent.end = 0.0, 10.0
    # Two children recorded by hand that overlap on 3..5.
    from benchmarks.ledger.trace import Span

    tracer.spans.append(Span(1, "a", "", 0, 1.0, 5.0))
    tracer.spans.append(Span(2, "b", "", 0, 3.0, 8.0))
    assert tracer.self_times()[0] == 3.0  # 10 - (1..8)


def test_wrap_records_a_child_span_and_returns_the_result():
    clock = FakeClock()
    tracer = Tracer(clock)

    def work(value):
        clock.now += 2.0
        return value * 2

    traced = tracer.wrap("layer.call", work)
    with tracer.span("outer"):
        assert traced(21) == 42
    assert [s.name for s in tracer.spans] == ["outer", "layer.call"]
    assert tracer.spans[1].parent == 0
    assert tracer.durations("layer.call") == [2.0]


def test_null_tracer_records_nothing_and_wraps_nothing():
    tracer = NullTracer()

    def fn():
        return 1

    with tracer.span("anything"):
        pass
    assert tracer.wrap("name", fn) is fn


def test_dump_writes_relative_times(tmp_path):
    import json

    clock = FakeClock()
    clock.now = 100.0
    tracer = Tracer(clock)
    with tracer.span("only"):
        clock.now = 101.5
    path = tmp_path / "trace.json"
    tracer.dump(path, {"workload": "w"})
    payload = json.loads(path.read_text())
    assert payload["workload"] == "w"
    assert payload["spans"] == [{
        "id": 0, "name": "only", "trace": "", "parent": None,
        "start_s": 0.0, "end_s": 1.5, "self_s": 1.5,
    }]
