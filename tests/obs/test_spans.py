"""Unit tests for the hierarchical span tracer."""

from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des.trace import TraceRecorder
from repro.obs import NULL_SPAN, SpanTracer


def test_begin_end_records_interval():
    tracer = SpanTracer()
    s = tracer.begin("command", "iso", node=0, t=1.0, request=7)
    assert not s.finished
    tracer.end(s, t=3.5, nbytes=100)
    assert s.finished
    assert s.duration == pytest.approx(2.5)
    assert s.attrs == {"request": 7, "nbytes": 100}
    assert tracer.get(s.span_id) is s


def test_parent_child_links_and_queries():
    tracer = SpanTracer()
    root = tracer.begin("session", t=0.0)
    child = tracer.begin("command", parent=root, t=0.5)
    grand = tracer.begin("worker", parent=child, node=1, t=0.5)
    tracer.end(grand, t=1.0)
    tracer.end(child, t=1.5)
    tracer.end(root, t=2.0)
    assert tracer.roots() == [root]
    assert tracer.children(root) == [child]
    assert tracer.children(child) == [grand]
    assert child.parent_id == root.span_id
    assert tracer.kinds() == {"session", "command", "worker"}
    assert tracer.nodes() == [0, 1]
    assert tracer.of_kind("worker") == [grand]


def test_nesting_containment():
    tracer = SpanTracer()
    outer = tracer.begin("command", t=0.0)
    inner = tracer.begin("load", parent=outer, t=1.0)
    tracer.end(inner, t=2.0)
    tracer.end(outer, t=3.0)
    assert outer.contains(inner)
    assert not inner.contains(outer)


def test_zero_duration_span():
    tracer = SpanTracer()
    outer = tracer.begin("command", t=0.0)
    s = tracer.begin("stream-packet", parent=outer, t=1.0)
    tracer.end(s, t=1.0)
    tracer.end(outer, t=1.0)
    assert s.duration == 0.0
    # Closed-interval containment: a zero-width span at the boundary
    # still counts as inside its parent.
    assert outer.contains(s)
    assert s.contains(s)


def test_end_twice_raises():
    tracer = SpanTracer()
    s = tracer.begin("load", t=0.0)
    tracer.end(s, t=1.0)
    with pytest.raises(ValueError):
        tracer.end(s, t=2.0)


def test_end_before_start_raises():
    tracer = SpanTracer()
    s = tracer.begin("load", t=5.0)
    with pytest.raises(ValueError):
        tracer.end(s, t=4.0)


def test_disabled_tracer_is_noop():
    tracer = SpanTracer(enabled=False)
    s = tracer.begin("command", "iso", node=3, big="attr")
    assert s is NULL_SPAN
    # Ending (even repeatedly, with attrs) never mutates the sentinel.
    tracer.end(s, nbytes=999)
    tracer.end(s)
    assert NULL_SPAN.attrs == {}
    assert len(tracer) == 0
    # A child of NULL_SPAN on an enabled tracer becomes a root.
    live = SpanTracer()
    child = live.begin("load", parent=NULL_SPAN, t=0.0)
    assert child.parent_id is None


def test_clock_supplies_timestamps():
    now = {"t": 10.0}
    tracer = SpanTracer(clock=lambda: now["t"])
    s = tracer.begin("load")
    now["t"] = 12.5
    tracer.end(s)
    assert s.t_start == 10.0
    assert s.t_end == 12.5


def test_context_manager():
    tracer = SpanTracer(clock=lambda: 1.0)
    with tracer.span("compute", "tri") as s:
        assert not s.finished
    assert s.finished


def test_mirrors_into_recorder():
    recorder = TraceRecorder()
    tracer = SpanTracer(recorder=recorder)
    s = tracer.begin("load", "block-3", node=2, t=1.0)
    tracer.end(s, t=2.0)
    begin = recorder.first("span-begin")
    end = recorder.first("span-end")
    assert begin.node == 2 and begin.time == 1.0
    assert begin.detail["span_kind"] == "load"
    assert begin.detail["span"] == s.span_id
    assert end.time == 2.0


def test_mark_and_since_slice_runs():
    tracer = SpanTracer()
    a = tracer.begin("command", t=0.0)
    tracer.end(a, t=1.0)
    mark = tracer.mark()
    b = tracer.begin("command", t=2.0)
    tracer.end(b, t=3.0)
    assert tracer.since(mark) == [b]
    tracer.clear()
    assert len(tracer) == 0
    assert tracer.get(a.span_id) is None


def _since_by_head_slice(tracer: SpanTracer, mark: int) -> list:
    """The original head-walk slice, kept as the oracle for since()."""
    spans = tracer.spans
    if not spans:
        return []
    start = mark - spans[0].span_id
    if start <= 0:
        return list(spans)
    return list(islice(spans, start, None))


@settings(max_examples=200, deadline=None)
@given(
    cap=st.one_of(st.none(), st.integers(1, 6)),
    steps=st.lists(st.sampled_from(["begin", "mark", "clear"]), max_size=40),
    stale=st.integers(0, 3),
)
def test_since_matches_head_slice(cap, steps, stale):
    """Tail walk == head slice under eviction, clear() and stale marks."""
    tracer = SpanTracer(max_spans=cap)
    marks = [0, -stale]
    for step in steps:
        if step == "begin":
            tracer.begin("command", t=0.0)
        elif step == "mark":
            marks.append(tracer.mark())
        else:
            tracer.clear()
        for mark in marks + [tracer.mark(), tracer.mark() + 1]:
            assert tracer.since(mark) == _since_by_head_slice(tracer, mark)


def test_since_with_mark_older_than_ring_head():
    tracer = SpanTracer(max_spans=3)
    mark = tracer.mark()
    spans = [tracer.begin("command", t=float(i)) for i in range(5)]
    assert tracer.since(mark) == spans[-3:]
    assert tracer.since(spans[3].span_id) == spans[3:]
    tracer.clear()
    later = tracer.begin("command", t=9.0)
    assert tracer.since(mark) == [later]
    assert tracer.since(tracer.mark()) == []


def test_high_water_tracks_peak_residency():
    tracer = SpanTracer()
    assert tracer.high_water == 0
    spans = [tracer.begin("command", t=float(i)) for i in range(5)]
    for s in spans:
        tracer.end(s, t=10.0)
    assert tracer.high_water == 5
    tracer.clear()
    # Peak survives a clear: it describes the session's worst moment.
    assert tracer.high_water == 5


def test_high_water_saturates_at_ring_cap():
    tracer = SpanTracer(max_spans=3)
    for i in range(10):
        s = tracer.begin("command", t=float(i))
        tracer.end(s, t=float(i) + 0.5)
    assert len(tracer) == 3
    assert tracer.dropped == 7
    assert tracer.high_water == 3
