"""Per-layer tracing for the benchmark's traced run.

The benchmark measures the program from outside.  For the traced run it
wraps public entry points of each layer with spans recorded *here*, in
the benchmark's own code, patching each name where the calling module
looks it up (commands import kernels by name, so a kernel is patched in
every namespace that imports it).

Spans are kept in memory as ``(name, start, end, parent, op)`` rows and
written out when the run ends.  A layer's self time is its spans'
duration minus the part covered by their child spans.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable

__all__ = ["Recorder", "install", "layer_table"]


class Recorder:
    """In-memory span store; a span's parent is the innermost open span."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.counts: Counter = Counter()
        self.op: int | None = None
        self.active = False
        self._stack: list[int] = []
        self._pid = os.getpid()

    @property
    def on(self) -> bool:
        # Forked pool workers inherit the patches; only the benchmark
        # process records.
        return self.active and os.getpid() == self._pid

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def timed(self, name: str, fn: Callable[[], Any]) -> Any:
        """Run ``fn()`` inside a span, whether or not tracing is active."""
        idx = self.begin(name)
        try:
            return fn()
        finally:
            self.end(idx)

    # ------------------------------------------------------------ report
    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive seconds and self seconds."""
        child_s = [0.0] * len(self.spans)
        for name, t0, t1, parent, _op in self.spans:
            if parent is not None:
                child_s[parent] += t1 - t0
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0}
        )
        for idx, (name, t0, t1, _parent, _op) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["s"] += t1 - t0
            row["self_s"] += (t1 - t0) - child_s[idx]
        return dict(out)

    def under(self, name: str, ancestor: str) -> float:
        """Inclusive seconds of ``name`` spans nested below ``ancestor``."""
        total = 0.0
        for span in self.spans:
            if span[0] != name:
                continue
            parent = span[3]
            while parent is not None and self.spans[parent][0] != ancestor:
                parent = self.spans[parent][3]
            if parent is not None:
                total += span[2] - span[1]
        return total

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, t0, t1, parent, op) in enumerate(self.spans):
                fh.write(json.dumps(
                    {"id": idx, "name": name, "start": t0, "end": t1,
                     "parent": parent, "op": op}
                ) + "\n")


def _wrap(rec: Recorder, name: str, fn: Callable, on_result=None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.on:
            return fn(*args, **kwargs)
        idx = rec.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.end(idx)
        if on_result is not None:
            on_result(out)
        return out

    return wrapper


def _wrap_generator(rec: Recorder, name: str, genfn: Callable) -> Callable:
    """Time every resume of a generator (the tracer's send protocol)."""

    def drive(gen):
        value = None
        while True:
            idx = rec.begin(name)
            try:
                item = gen.send(value)
            except StopIteration as stop:
                return stop.value
            finally:
                rec.end(idx)
            value = yield item

    @functools.wraps(genfn)
    def wrapper(*args, **kwargs):
        gen = genfn(*args, **kwargs)
        return drive(gen) if rec.on else gen

    return wrapper


def _count(rec: Recorder, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if rec.on:
            rec.counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def install(rec: Recorder) -> Callable[[], None]:
    """Patch every layer entry point; returns a function undoing it."""
    import importlib

    undo: list[tuple[Any, str, Any]] = []

    def patch(owner: Any, attr: str, new: Any) -> None:
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def mod(name: str):
        return importlib.import_module(name)

    def triangles(mesh) -> None:
        rec.counts["algorithms.iso_triangles"] += int(mesh.n_triangles)

    # algorithms: kernels are imported by name into each caller.
    from repro.algorithms import isosurface, lambda2

    for where in ("repro.commands.iso", "repro.commands.vortex",
                  "repro.algorithms.view_dep_iso", "repro.algorithms.lambda2"):
        patch(mod(where), "extract_block_isosurface", _wrap(
            rec, "algorithms.iso", isosurface.extract_block_isosurface, triangles))
    for where in ("repro.commands.vortex", "repro.algorithms.lambda2"):
        patch(mod(where), "lambda2_field", _wrap(
            rec, "algorithms.lambda2", lambda2.lambda2_field))
    from repro.algorithms.pathlines import BatchPathlineTracer

    patch(BatchPathlineTracer, "trace_many", _wrap_generator(
        rec, "algorithms.pathline", BatchPathlineTracer.trace_many))

    # grids, viz
    from repro.grids.interpolate import CellLocator
    from repro.viz.mesh import TriangleMesh

    patch(CellLocator, "locate_many", _wrap(
        rec, "grids.locate", CellLocator.locate_many))
    patch(TriangleMesh, "merge", staticmethod(_wrap(
        rec, "viz.merge", TriangleMesh.merge)))

    # des kernel
    from repro.des.kernel import Environment

    patch(Environment, "run", _wrap(rec, "des.run", Environment.run))
    patch(Environment, "timeout", _count(rec, "des.timeouts", Environment.timeout))
    patch(Environment, "process", _count(rec, "des.processes", Environment.process))

    # dms: the block source is only asked on a cache miss.
    from repro.dms.source import StoreSource, SyntheticSource

    for cls in (SyntheticSource, StoreSource):
        patch(cls, "get", _wrap(rec, "dms.source", cls.get))

    # obs
    from repro.obs.slo import SLOTracker
    from repro.obs.spans import SpanTracer

    for attr in ("begin", "end", "record_interval"):
        patch(SpanTracer, attr, _wrap(rec, f"obs.span_{attr}",
                                      getattr(SpanTracer, attr)))
    patch(SLOTracker, "observe", _wrap(rec, "obs.slo_observe", SLOTracker.observe))

    # serve
    from repro.serve.queue import FairCommandQueue
    from repro.serve.server import TenantServer

    patch(TenantServer, "submit", _wrap(rec, "serve.submit", TenantServer.submit))
    put = FairCommandQueue.put

    def queue_put(self, tenant, lane, item):
        put(self, tenant, lane, item)
        if rec.on:
            rec.counts["serve.backlog_max"] = max(
                rec.counts["serve.backlog_max"], len(self))

    patch(FairCommandQueue, "put", _wrap(rec, "serve.queue_put", queue_put))
    patch(FairCommandQueue, "get", _wrap(rec, "serve.queue_get",
                                         FairCommandQueue.get))

    # parallel: the facade call, so its merge time can be attributed.
    from repro.parallel.api import ParallelExtractor

    patch(ParallelExtractor, "run", _wrap(rec, "parallel.run",
                                          ParallelExtractor.run))

    def restore() -> None:
        for owner, attr, old in reversed(undo):
            setattr(owner, attr, old)

    return restore


def layer_table(rec: Recorder) -> str:
    """Human table of per-span-name calls, inclusive and self seconds."""
    rows = sorted(rec.totals().items(), key=lambda kv: -kv[1]["self_s"])
    lines = [f"{'span':24s} {'calls':>9s} {'incl_s':>10s} {'self_s':>10s}"]
    for name, row in rows:
        lines.append(
            f"{name:24s} {row['calls']:9d} {row['s']:10.4f} {row['self_s']:10.4f}"
        )
    for name, value in sorted(rec.counts.items()):
        lines.append(f"{name:24s} {value:9d}")
    return "\n".join(lines)
