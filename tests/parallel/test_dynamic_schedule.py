"""Dynamic work-stealing must not change a single byte of output.

Tasks are drained off a shared ticket in arbitrary interleavings, but
payloads are reassembled by canonical task index before merging — so
``schedule="dynamic"`` (and ``"dynamic+pipeline"``) at any worker count
must reproduce the serial group-1 static bytes exactly.  These suites
prove that for every command family, plus the scheduler bookkeeping
around it: steal/idle accounting, cost-feedback reordering, and the
strictness of the canonical reassembly itself.
"""

import pytest

from repro.parallel import ParallelExtractor
from repro.parallel.dynamic import (
    CostFeedback,
    TaskResult,
    default_batch,
    is_dynamic,
    payload_lists,
)

from .test_equivalence import CUTPLANE, ISO, PATHLINES, VORTEX, _mesh_bytes

DYNAMIC = ("dynamic", "dynamic+pipeline")


def _serial_static(store, command, params):
    with ParallelExtractor(store, workers=1, executor="serial") as ext:
        return ext.run(command, params=params)


def _dynamic(store, executor, workers, command, params, schedule):
    with ParallelExtractor(store, workers=workers, executor=executor) as ext:
        return ext.run(command, params=params, schedule=schedule)


@pytest.mark.parametrize("schedule", DYNAMIC)
@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize(
    "command,params",
    [
        ("iso-dataman", ISO),
        ("vortex-dataman", VORTEX),
        ("cutplane", CUTPLANE),
    ],
)
def test_dynamic_mesh_commands_byte_identical(
    engine_store, command, params, workers, schedule
):
    reference = _serial_static(engine_store, command, params)
    for executor in ("serial", "process"):
        got = _dynamic(engine_store, executor, workers, command, params, schedule)
        assert got.schedule == schedule
        assert _mesh_bytes(got.result) == _mesh_bytes(reference.result)


@pytest.mark.parametrize("schedule", DYNAMIC)
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_dynamic_pathlines_demand_order_preserved(
    engine_store, workers, schedule
):
    """Each path must come back in its seed's slot regardless of which
    worker stole the seed's task."""
    reference = _serial_static(engine_store, "pathlines-dataman", PATHLINES)
    for executor in ("serial", "process"):
        got = _dynamic(
            engine_store, executor, workers, "pathlines-dataman",
            PATHLINES, schedule,
        )
        assert len(got.result) == len(PATHLINES["seeds"])
        for a, b in zip(reference.result, got.result):
            assert a.points.tobytes() == b.points.tobytes()
            assert a.times.tobytes() == b.times.tobytes()


def test_dynamic_share_accounting(engine_store):
    with ParallelExtractor(engine_store, workers=4, executor="process") as ext:
        res = ext.run("iso-dataman", params=ISO, schedule="dynamic")
        n_tasks = len(
            ext.registry.create("iso-dataman").plan_tasks(ext._context(dict(ISO)))
        )
    assert res.schedule == "dynamic"
    assert res.idle_seconds >= 0.0
    assert res.steals >= 0
    for share in res.shares:
        assert share.idle_s >= 0.0
        assert share.steals >= 0
        # Work stealing promises no worker a task: one forked last may
        # find the ticket counter drained.  An empty share did nothing.
        if not share.tasks:
            assert not share.payloads
            assert share.n_loads == 0
        for task in share.tasks or []:
            assert isinstance(task, TaskResult)
            assert task.seconds >= 0.0
    # Every planned task executed exactly once, trailing ones included.
    indices = sorted(
        t.task_index for s in res.shares for t in (s.tasks or [])
    )
    assert indices == list(range(n_tasks))


def test_dynamic_metrics_exported(engine_store):
    with ParallelExtractor(engine_store, workers=2, executor="process") as ext:
        ext.run("iso-dataman", params=ISO, schedule="dynamic")
        snap = ext.metrics.snapshot()
    assert "viracocha_parallel_idle_seconds_total" in snap
    assert "viracocha_parallel_steals_total" in snap


def test_cost_feedback_reorders_second_run(engine_store):
    with ParallelExtractor(engine_store, workers=2, executor="serial") as ext:
        first = ext.run("iso-dataman", params=ISO, schedule="dynamic")
        n_tasks = sum(len(s.tasks or []) for s in first.shares)
        assert ext.cost_feedback.recorded("iso-dataman", n_tasks)
        second = ext.run("iso-dataman", params=ISO, schedule="dynamic")
    # Feedback changes placement, never bytes.
    assert _mesh_bytes(first.result) == _mesh_bytes(second.result)


def test_static_default_untouched(engine_store):
    """No schedule argument → the static path, bit-for-bit as before."""
    with ParallelExtractor(engine_store, workers=2, executor="process") as ext:
        res = ext.run("iso-dataman", params=ISO)
    assert res.schedule == "static"
    assert res.steals == 0


def test_is_dynamic_and_default_batch():
    assert is_dynamic("dynamic") and is_dynamic("dynamic+pipeline")
    assert not is_dynamic("static")
    assert not is_dynamic("level-major")  # progressive's schedule values
    assert default_batch(0, 4) == 1
    assert default_batch(288, 4) == 9
    assert default_batch(7, 4) == 1


def _records(pairs):
    return [
        TaskResult(task_index=i, payloads=[p]) for i, p in pairs
    ]


def test_payload_lists_reassembles_canonical_order():
    records = _records([(2, "c"), (0, "a"), (1, "b")])
    assert payload_lists(records, 3) == [["a"], ["b"], ["c"]]


def test_payload_lists_rejects_missing_duplicate_and_out_of_range():
    with pytest.raises(ValueError):
        payload_lists(_records([(0, "a")]), 2)  # missing task 1
    with pytest.raises(ValueError):
        payload_lists(_records([(0, "a"), (0, "b")]), 2)  # duplicate
    with pytest.raises(ValueError):
        payload_lists(_records([(0, "a"), (5, "b")]), 2)  # out of range


def test_cost_feedback_prefers_measurements_over_model():
    class FakeCommand:
        name = "fake"

        def task_cost(self, ctx, task):
            return 1.0

    fb = CostFeedback()
    cmd = FakeCommand()
    tasks = [object(), object(), object()]
    # No measurements yet: the model's uniform estimate.
    assert fb.estimates(cmd, None, tasks) == [1.0, 1.0, 1.0]
    fb.record(
        "fake",
        _records([(0, None), (1, None), (2, None)]),
        3,
    )
    # All-zero timings don't count as a measurement either.
    assert fb.estimates(cmd, None, tasks) == [1.0, 1.0, 1.0]
    measured = [
        TaskResult(task_index=i, payloads=[], seconds=s)
        for i, s in ((0, 0.5), (1, 2.0), (2, 0.1))
    ]
    fb.record("fake", measured, 3)
    assert fb.estimates(cmd, None, tasks) == [0.5, 2.0, 0.1]
