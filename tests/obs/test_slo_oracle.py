"""The precompiled SLO tracker against the re-scanning reference.

:mod:`tests.obs.scan_slo` keeps the original per-request ``fnmatch``,
``Observation`` and linear bucket scans.  Fed the same requests, the
two trackers must agree on every rollup, report and published metric,
including values exactly on bucket edges, zero, negatives, ``inf``,
``nan``, ``ttfa=None`` and an SLO that matches only some commands.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import Histogram, MetricsRegistry
from repro.obs.slo import SLO_LATENCY_BUCKETS, SLODefinition, SLOTracker
from repro.serve import serve_slos

from .scan_slo import ScanHistogram, ScanSLOTracker

SLOS = serve_slos() + [
    # Thresholds on a bucket edge, and a class matching some commands.
    SLODefinition(name="iso-runtime", metric="runtime", threshold=0.1,
                  target=0.9, command_class="iso-*"),
    SLODefinition(name="path-wait", metric="queue_wait", threshold=0.0,
                  target=0.5, command_class="pathlines-?ataman"),
]
COMMANDS = ("iso-dataman", "iso-simple", "pathlines-dataman", "cutplane",
            "vortex")
TENANTS = ("alice", "bob", "carol")

EDGES = st.sampled_from(SLO_LATENCY_BUCKETS)
SPECIAL = st.sampled_from((0.0, -0.0, -1.0, -math.inf, math.inf, math.nan))
VALUE = st.one_of(
    EDGES, SPECIAL,
    st.floats(-1.0, 2000.0, allow_nan=False),
    st.integers(-3, 5),
)
REQUEST = st.tuples(
    st.sampled_from(COMMANDS), VALUE, VALUE,
    st.floats(0.0, 1e4, allow_nan=False),  # t
    st.booleans(), st.sampled_from(TENANTS), VALUE,
    st.one_of(st.none(), VALUE),  # ttfa
)


def _cells(tracker, slos):
    """Every (slo, dim, key) cell's counts, as plain comparable data."""
    out = {}
    for i, slo in enumerate(slos):
        for dim in ("command", "tenant", "all"):
            for key in tracker.keys(dim):
                if isinstance(tracker, SLOTracker):
                    cell = tracker._rows[dim][key][i]
                    counts = cell and cell.counts
                else:
                    cell = tracker._windows.get((slo.name, dim, key))
                    counts = cell and cell.values and cell.values.counts
                    if counts:
                        assert cell.values.n == cell.total
                if cell is None:
                    continue
                out[(slo.name, dim, key)] = (
                    cell.good, cell.bad, cell.t_first, cell.t_last, counts,
                )
    return out


@given(requests=st.lists(REQUEST, min_size=1, max_size=60))
@settings(max_examples=200, deadline=None)
def test_tracker_matches_scan_oracle(requests):
    tracker, oracle = SLOTracker(SLOS), ScanSLOTracker(SLOS)
    for (command, latency, runtime, t, degraded, tenant, wait,
         ttfa) in requests:
        for tr in (tracker, oracle):
            tr.observe(command, latency=latency, runtime=runtime, t=t,
                       degraded=degraded, tenant=tenant, queue_wait=wait,
                       ttfa=ttfa)
    assert _cells(tracker, SLOS) == _cells(oracle, SLOS)
    for dim in ("command", "tenant", "all", "nope"):
        assert tracker.keys(dim) == oracle.keys(dim)
        assert tracker.status(dim) == oracle.status(dim)
        assert tracker.format_report(dim) == oracle.format_report(dim)
    for slo in SLOS:
        assert tracker.overall(slo.name) == oracle.overall(slo.name)
        assert (tracker.status("tenant", slo.name)
                == oracle.status("tenant", slo.name))
    mine, theirs = MetricsRegistry(), MetricsRegistry()
    tracker.publish_metrics(mine)
    oracle.publish_metrics(theirs)
    assert mine.render_prometheus() == theirs.render_prometheus()


def test_unmatched_command_counts_but_files_nothing():
    only_iso = [SLODefinition(name="iso", metric="latency", threshold=0.1,
                              command_class="iso-*")]
    tracker, oracle = SLOTracker(only_iso), ScanSLOTracker(only_iso)
    for tr in (tracker, oracle):
        tr.observe("vortex", latency=0.05, runtime=0.2, t=1.0, tenant="a")
        tr.observe("iso-x", latency=0.5, runtime=0.9, t=2.0, tenant="b")
    assert tracker.observations == oracle.observations == 2
    for dim in ("command", "tenant", "all"):
        assert tracker.keys(dim) == oracle.keys(dim)
        assert tracker.status(dim) == oracle.status(dim)
    assert tracker.keys("tenant") == ["b"]


@given(
    buckets=st.lists(st.floats(-10.0, 10.0, allow_nan=False), min_size=1,
                     max_size=8),
    values=st.lists(st.one_of(
        st.floats(-20.0, 20.0), SPECIAL, st.integers(-12, 12)), max_size=40),
)
@settings(max_examples=200, deadline=None)
def test_histogram_bisect_matches_linear_scan(buckets, values):
    # Observed values may also sit exactly on the (possibly repeated) edges.
    values = values + buckets
    mine, theirs = Histogram("h", buckets), ScanHistogram("h", buckets)
    for v in values:
        mine.observe(v)
        theirs.observe(v)
    assert mine.bounds == theirs.bounds
    assert mine.counts == theirs.counts
    assert mine.n == theirs.n
    assert repr(mine.total) == repr(theirs.total)
