"""Hierarchical spans: timestamped intervals with parent/child links.

The flat :class:`~repro.des.trace.TraceRecorder` answers "what happened
when"; spans answer "what was *inside* what".  A :class:`SpanTracer`
records intervals following the taxonomy

    session -> command -> worker -> {load, compute, merge, stream-packet}
    load    -> {dms-lookup, dms-strategy-load}
    dms-prefetch (background; causally linked, not contained)

so exported timelines (Chrome ``trace_event`` JSON, ASCII Gantt) show
per-node lanes and the per-component breakdown the paper's evaluation
is built on (Figs. 6-15).

The tracer is *layered on* the existing recorder: every begin/end is
mirrored as a ``span-begin`` / ``span-end`` :class:`TraceEvent` when a
recorder is attached, so code that greps the flat log keeps working.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from itertools import islice
from typing import Any, Callable, Iterator

from ..des.trace import TraceRecorder

__all__ = ["Span", "SpanTracer", "NULL_SPAN"]

#: spans emitted by the instrumented Viracocha stack (for docs/tests).
SPAN_KINDS = (
    "session",
    "command",
    "worker",
    "load",
    "compute",
    "merge",
    "stream-packet",
    "dms-lookup",
    "dms-strategy-load",
    "dms-prefetch",
    # fault-injection / recovery instants (zero-duration markers).
    "fault-crash",
    "fault-recover",
    "fault-link",
    "fault-link-restore",
    "fault-stall",
    "fault-timeout",
    "fault-retry",
    "fault-reassign",
    "fault-giveup",
    "fault-degraded",
)


class Span:
    """One timed interval on one simulated node.

    A plain ``__slots__`` class (not a dataclass): spans are created on
    every request/compute/stream step of a simulated run, so instances
    carry no ``__dict__`` and the ``attrs`` dict is materialized lazily
    — most spans never get one.
    """

    __slots__ = (
        "span_id", "kind", "name", "node", "t_start", "t_end",
        "parent_id", "_attrs",
    )

    def __init__(
        self,
        span_id: int,
        kind: str,
        name: str,
        node: int,
        t_start: float,
        t_end: float | None = None,
        parent_id: int | None = None,
        attrs: dict[str, Any] | None = None,
    ):
        self.span_id = span_id
        self.kind = kind
        self.name = name
        self.node = node
        self.t_start = t_start
        self.t_end = t_end
        self.parent_id = parent_id
        self._attrs = attrs or None

    @property
    def attrs(self) -> dict[str, Any]:
        a = self._attrs
        if a is None:
            a = self._attrs = {}
        return a

    @property
    def finished(self) -> bool:
        return self.t_end is not None

    @property
    def duration(self) -> float:
        if self.t_end is None:
            raise ValueError(f"span {self.span_id} ({self.kind}) not finished")
        return self.t_end - self.t_start

    def contains(self, other: "Span") -> bool:
        """Temporal containment (closed interval; zero-duration allowed)."""
        if self.t_end is None or other.t_end is None:
            return False
        return self.t_start <= other.t_start and other.t_end <= self.t_end

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        end = f"{self.t_end:.4f}" if self.t_end is not None else "…"
        return (
            f"Span(#{self.span_id} {self.kind}:{self.name!r} node={self.node} "
            f"[{self.t_start:.4f}, {end}] parent={self.parent_id})"
        )


#: shared sentinel returned by a disabled tracer; ending it is a no-op.
NULL_SPAN = Span(span_id=-1, kind="null", name="", node=-1, t_start=0.0, t_end=0.0)


class SpanTracer:
    """Collects :class:`Span` records; optionally mirrors to a recorder.

    ``clock`` supplies default timestamps (usually ``lambda: env.now``);
    explicit ``t=`` arguments override it.  When ``enabled`` is False
    every call is a cheap no-op returning :data:`NULL_SPAN`.

    ``max_spans`` caps memory like PR 1's ``request_log`` ring: when
    set, only the most recent ``max_spans`` spans are retained (oldest
    evicted first) and :attr:`dropped` counts the evictions, which the
    session surfaces as ``viracocha_spans_dropped_total``.
    """

    def __init__(
        self,
        recorder: TraceRecorder | None = None,
        clock: Callable[[], float] | None = None,
        enabled: bool = True,
        max_spans: int | None = None,
    ):
        if max_spans is not None and max_spans < 1:
            raise ValueError(f"max_spans must be >= 1, got {max_spans}")
        self.recorder = recorder
        self.clock = clock
        self.enabled = enabled
        self.max_spans = max_spans
        self.spans: deque[Span] = deque()
        self.dropped = 0
        #: most spans ever resident at once — how close the ring came
        #: to (or how far past) its cap; with ``max_spans`` set this
        #: saturates at the cap once the first span is evicted.
        self.high_water = 0
        self._by_id: dict[int, Span] = {}
        self._next_id = 0

    # ------------------------------------------------------------ record
    def _now(self, t: float | None) -> float:
        if t is not None:
            return t
        if self.clock is not None:
            return self.clock()
        return 0.0

    def begin(
        self,
        kind: str,
        name: str | None = None,
        node: int = 0,
        parent: "Span | None" = None,
        t: float | None = None,
        **attrs: Any,
    ) -> Span:
        if not self.enabled:
            return NULL_SPAN
        if t is None:
            clock = self.clock
            t = clock() if clock is not None else 0.0
        span_id = self._next_id
        self._next_id = span_id + 1
        # ``attrs`` is the fresh kwargs dict — owned, so no copy.
        span = Span(
            span_id,
            kind,
            name if name is not None else kind,
            node,
            t,
            None,
            parent.span_id if parent is not None and parent is not NULL_SPAN else None,
            attrs,
        )
        spans = self.spans
        if self.max_spans is not None and len(spans) >= self.max_spans:
            evicted = spans.popleft()
            del self._by_id[evicted.span_id]
            self.dropped += 1
        spans.append(span)
        if len(spans) > self.high_water:
            self.high_water = len(spans)
        self._by_id[span_id] = span
        if self.recorder is not None:
            self.recorder.record(
                t, node, "span-begin",
                span=span_id, span_kind=kind, name=span.name,
                parent=span.parent_id,
            )
        return span

    def end(self, span: Span, t: float | None = None, **attrs: Any) -> Span:
        if not self.enabled or span is NULL_SPAN:
            return span
        if span.t_end is not None:
            raise ValueError(f"span {span.span_id} ({span.kind}) already ended")
        if t is None:
            clock = self.clock
            t = clock() if clock is not None else 0.0
        if t < span.t_start:
            raise ValueError(
                f"span {span.span_id} ends at {t} before start {span.t_start}"
            )
        span.t_end = t
        if attrs:
            existing = span._attrs
            if existing is None:
                span._attrs = attrs  # fresh kwargs dict — owned, no copy
            else:
                existing.update(attrs)
        if self.recorder is not None:
            self.recorder.record(
                t, span.node, "span-end",
                span=span.span_id, span_kind=span.kind,
            )
        return span

    @contextmanager
    def span(
        self, kind: str, name: str | None = None, node: int = 0,
        parent: Span | None = None, **attrs: Any,
    ) -> Iterator[Span]:
        """Synchronous convenience wrapper (not for use across DES yields)."""
        s = self.begin(kind, name, node, parent, **attrs)
        try:
            yield s
        finally:
            self.end(s)

    def record_interval(
        self,
        kind: str,
        name: str | None = None,
        t_start: float = 0.0,
        t_end: float = 0.0,
        node: int = 0,
        parent: Span | None = None,
        **attrs: Any,
    ) -> Span:
        """Record one already-measured interval in a single call.

        The explicit-time sibling of :meth:`span`, for intervals clocked
        somewhere this tracer isn't — worker *processes* report their
        share wall times (``time.perf_counter`` is CLOCK_MONOTONIC on
        Linux, comparable across processes on one host) and the parent
        imports them here so multicore runs land in the same trace.
        """
        span = self.begin(kind, name, node=node, parent=parent, t=t_start, **attrs)
        return self.end(span, t=t_end)

    # ------------------------------------------------------------- query
    def __len__(self) -> int:
        return len(self.spans)

    def __iter__(self) -> Iterator[Span]:
        return iter(self.spans)

    def get(self, span_id: int) -> Span | None:
        return self._by_id.get(span_id)

    def of_kind(self, kind: str) -> list[Span]:
        return [s for s in self.spans if s.kind == kind]

    def kinds(self) -> set[str]:
        return {s.kind for s in self.spans}

    def nodes(self) -> list[int]:
        return sorted({s.node for s in self.spans})

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]

    def roots(self) -> list[Span]:
        return [s for s in self.spans if s.parent_id is None]

    def finished(self) -> list[Span]:
        return [s for s in self.spans if s.t_end is not None]

    # ------------------------------------------------- per-run slicing
    def mark(self) -> int:
        """Position marker; pair with :meth:`since` to slice one run."""
        return self._next_id

    def since(self, mark: int) -> list[Span]:
        spans = self.spans
        # Span ids are contiguous and the newest is ``_next_id - 1``,
        # across ring eviction and clear(), so the spans begun since
        # ``mark`` are the last ``_next_id - mark`` retained ones.  Walk
        # from the tail: the cost is the slice, not the whole ring.
        n = min(self._next_id - mark, len(spans))
        if n <= 0:
            return []
        out = list(islice(reversed(spans), n))
        out.reverse()
        return out

    def clear(self) -> None:
        self.spans.clear()
        self._by_id.clear()
