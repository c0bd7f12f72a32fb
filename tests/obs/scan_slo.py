"""Reference oracle: the SLO tracker that re-matches and re-scans per request.

This is the original :class:`~repro.obs.slo.SLOTracker`, kept only to
check the precompiled tracker against it.  Per request it builds one
frozen :class:`Observation`, runs one ``fnmatch`` per SLO, and files
the value into three histograms by a linear scan of the bucket bounds.
"""

from dataclasses import dataclass

from repro.obs.metrics import Histogram
from repro.obs.slo import (
    SLO_LATENCY_BUCKETS,
    SLOStatus,
    SLOTracker,
    default_slos,
)


class ScanHistogram(Histogram):
    """:class:`Histogram` with the linear first-bound-at-least scan."""

    def observe(self, value):
        value = float(value)
        self.total += value
        self.n += 1
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1


@dataclass(frozen=True)
class Observation:
    """One finished command as the tracker sees it."""

    command: str
    latency: float
    runtime: float
    t: float
    degraded: bool = False
    tenant: str = "default"
    queue_wait: float = 0.0
    ttfa: float = 0.0


def is_good(slo, observation):
    if slo.metric == "degraded":
        return not observation.degraded
    return getattr(observation, slo.metric) <= slo.threshold


@dataclass
class Window:
    good: int = 0
    bad: int = 0
    t_first: float = float("inf")
    t_last: float = float("-inf")
    values: Histogram | None = None

    @property
    def total(self):
        return self.good + self.bad

    def observe(self, good, value, t):
        if good:
            self.good += 1
        else:
            self.bad += 1
        self.t_first = min(self.t_first, t)
        self.t_last = max(self.t_last, t)
        if value is not None:
            if self.values is None:
                self.values = ScanHistogram("slo_values", SLO_LATENCY_BUCKETS)
            self.values.observe(value)


class ScanSLOTracker:
    """The original tracker's ingestion and rollups."""

    def __init__(self, slos=None):
        self.slos = list(slos if slos is not None else default_slos())
        self._windows = {}
        self.observations = 0

    def observe(self, command, latency, runtime, t, degraded=False,
                tenant="default", queue_wait=0.0, ttfa=None):
        obs = Observation(
            command, latency, runtime, t, degraded, tenant, queue_wait,
            ttfa=latency if ttfa is None else ttfa,
        )
        self.observations += 1
        for slo in self.slos:
            if not slo.matches(command):
                continue
            good = is_good(slo, obs)
            value = None
            if slo.metric in ("latency", "runtime", "queue_wait", "ttfa"):
                value = getattr(obs, slo.metric)
            for dim, key in (
                ("command", command), ("tenant", tenant), ("all", "all")
            ):
                cell = self._windows.get((slo.name, dim, key))
                if cell is None:
                    cell = self._windows[(slo.name, dim, key)] = Window()
                cell.observe(good, value, t)

    def _status(self, slo, dim, key):
        cell = self._windows.get((slo.name, dim, key))
        if cell is None or cell.total == 0:
            return None
        h = cell.values
        q = (lambda p: h.quantile(p)) if h is not None else (lambda p: 0.0)
        window = max(cell.t_last - cell.t_first, 0.0)
        return SLOStatus(
            slo=slo, key=key, total=cell.total, good=cell.good,
            p50=q(0.50), p95=q(0.95), p99=q(0.99), window_s=window,
        )

    def keys(self, dim="command"):
        return sorted({key for (_name, d, key) in self._windows if d == dim})

    def status(self, dim="command", slo_name=None):
        out = []
        for slo in self.slos:
            if slo_name is not None and slo.name != slo_name:
                continue
            for key in self.keys(dim):
                st = self._status(slo, dim, key)
                if st is not None:
                    out.append(st)
        return out

    def overall(self, slo_name):
        slo = next(s for s in self.slos if s.name == slo_name)
        return self._status(slo, "all", "all")

    # Rendering reads only status() and the observation count.
    format_report = SLOTracker.format_report
    publish_metrics = SLOTracker.publish_metrics
