"""Declarative SLOs over simulated time: the 100 ms interaction budget.

The VR client models two hard interaction criteria (§1.1, implemented
in :class:`repro.viz.client.InteractionCriteria`); the one a serving
layer must *account* for is the ~100 ms maximum system response time.
This module turns raw per-command observations into the substrate a
multi-tenant serving layer plugs into:

* :class:`SLODefinition` — a declarative objective: which metric of
  which command class must sit under which threshold for which
  fraction of requests;
* :class:`SLOTracker` — streaming ingestion of finished commands
  (latency/runtime bucket counts with p50/p95/p99 via
  :func:`~repro.obs.metrics.bucket_quantile`, good/bad counts,
  degraded-share accounting from :mod:`repro.faults` outcomes) with
  per-command *and* per-tenant rollups;
* error-budget / burn-rate arithmetic over a simulated-time window —
  "at this failure rate, when is the budget gone?".

Everything is keyed on simulated seconds, so two runs of the same
scenario produce bit-identical attainment numbers — which is what lets
the perf sentry (:mod:`repro.obs.sentry`) gate CI on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import Any, Iterable

from .metrics import bucket_index, bucket_quantile

__all__ = [
    "SLO_LATENCY_BUCKETS",
    "SLODefinition",
    "SLOStatus",
    "SLOTracker",
    "default_slos",
]

#: fine-grained buckets [sim s] bracketing the 100 ms criterion tightly
#: (6 edges inside 10..300 ms) while still covering multi-second
#: runtimes; quantile interpolation error stays well under the sentry's
#: comparison tolerance.
SLO_LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.02, 0.035, 0.05, 0.075, 0.1, 0.15,
    0.2, 0.3, 0.5, 0.75, 1.0, 2.0, 3.5, 5.0, 7.5, 10.0, 20.0, 35.0,
    50.0, 100.0, 250.0, 1000.0,
)


@dataclass(frozen=True)
class SLODefinition:
    """One declarative service-level objective.

    ``command_class`` is an ``fnmatch`` pattern against the command
    name (``"*"``, ``"iso-*"``, ``"pathlines-dataman"``); ``metric``
    selects which observed quantity the threshold applies to.
    """

    name: str
    metric: str  #: "latency" | "runtime" | "queue_wait" | "ttfa" | "degraded"
    threshold: float  #: seconds; ignored for "degraded"
    target: float = 0.95  #: required good fraction (0..1]
    command_class: str = "*"
    description: str = ""

    def __post_init__(self):
        if self.metric not in (
            "latency", "runtime", "queue_wait", "ttfa", "degraded"
        ):
            raise ValueError(f"unknown SLO metric {self.metric!r}")
        if not 0.0 < self.target <= 1.0:
            raise ValueError(f"target must be in (0, 1], got {self.target}")

    def matches(self, command: str) -> bool:
        return fnmatchcase(command, self.command_class)


#: observe() arguments an SLO metric can threshold, by position in the
#: per-request value tuple; "degraded" has no value and maps to -1.
_METRIC_SLOT = {"latency": 0, "runtime": 1, "queue_wait": 2, "ttfa": 3}
_BOUNDS = tuple(sorted(float(b) for b in SLO_LATENCY_BUCKETS))


class _Window:
    """Good/bad counts plus the value bucket counts for one rollup cell."""

    __slots__ = ("good", "bad", "t_first", "t_last", "counts")

    def __init__(self) -> None:
        self.good = 0
        self.bad = 0
        self.t_first = float("inf")
        self.t_last = float("-inf")
        #: per-bucket counts over ``SLO_LATENCY_BUCKETS`` plus overflow,
        #: for SLOs with a value metric; every observation adds one.
        self.counts: list[int] | None = None

    @property
    def total(self) -> int:
        return self.good + self.bad


@dataclass(frozen=True)
class SLOStatus:
    """Evaluated state of one SLO over one rollup cell."""

    slo: SLODefinition
    key: str  #: command or tenant the rollup is for ("all" = everything)
    total: int
    good: int
    p50: float
    p95: float
    p99: float
    window_s: float  #: simulated-time span of the observations

    @property
    def bad(self) -> int:
        return self.total - self.good

    @property
    def attainment(self) -> float:
        return self.good / self.total if self.total else 1.0

    @property
    def met(self) -> bool:
        return self.attainment >= self.slo.target

    @property
    def error_budget(self) -> float:
        """Allowed bad events for this window (fractional)."""
        return (1.0 - self.slo.target) * self.total

    @property
    def budget_remaining(self) -> float:
        """Fraction of the error budget still unspent (can go negative)."""
        budget = self.error_budget
        if budget <= 0:
            return 0.0 if self.bad else 1.0
        return 1.0 - self.bad / budget

    @property
    def burn_rate(self) -> float:
        """Bad-fraction over budget-fraction: 1.0 burns exactly on target."""
        allowed = 1.0 - self.slo.target
        if allowed <= 0:
            return float("inf") if self.bad else 0.0
        if not self.total:
            return 0.0
        return (self.bad / self.total) / allowed

    def time_to_exhaustion(self) -> float:
        """Simulated seconds until the budget is gone at this burn rate.

        ``inf`` when burning under rate 1.0 (the budget outlives the
        window); 0 when already exhausted.
        """
        if self.budget_remaining <= 0:
            return 0.0
        if self.burn_rate <= 1.0 or self.window_s <= 0:
            return float("inf")
        bad_per_s = self.bad / self.window_s
        remaining = self.error_budget - self.bad
        return max(remaining, 0.0) / bad_per_s


class SLOTracker:
    """Streaming SLO accounting with per-command / per-tenant rollups.

    :meth:`observe` costs O(SLOs) per request, independent of how many
    commands and tenants have been seen: which SLOs match a command is
    resolved once per command name, each matching SLO's value bucket is
    found once by bisection, and the three rollup cells (command,
    tenant, all) are bumped in place.
    """

    def __init__(self, slos: Iterable[SLODefinition] | None = None):
        self.slos: list[SLODefinition] = list(
            slos if slos is not None else default_slos()
        )
        names = [s.name for s in self.slos]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate SLO names in {names}")
        #: dimension -> key -> one window per SLO (``None`` until that
        #: SLO first observes the key); dimension is "command" |
        #: "tenant" | "all" (key "all" aggregates everything).
        self._rows: dict[str, dict[str, list[_Window | None]]] = {
            "command": {}, "tenant": {}, "all": {},
        }
        #: command -> ((slo index, value slot, threshold), ...) of the
        #: SLOs whose command class matches it.
        self._plans: dict[str, tuple[tuple[int, int, float], ...]] = {}
        self.observations = 0

    # --------------------------------------------------------- ingestion
    def observe(
        self,
        command: str,
        latency: float,
        runtime: float,
        t: float,
        degraded: bool = False,
        tenant: str = "default",
        queue_wait: float = 0.0,
        ttfa: float | None = None,
    ) -> None:
        self.observations += 1
        plan = self._plans.get(command)
        if plan is None:
            plan = self._plans[command] = tuple(
                (i, _METRIC_SLOT.get(slo.metric, -1), slo.threshold)
                for i, slo in enumerate(self.slos) if slo.matches(command)
            )
        if not plan:
            return
        values = (latency, runtime, queue_wait,
                  latency if ttfa is None else ttfa)
        rows = []
        for dim, key in (("command", command), ("tenant", tenant),
                         ("all", "all")):
            by_key = self._rows[dim]
            row = by_key.get(key)
            if row is None:
                row = by_key[key] = [None] * len(self.slos)
            rows.append(row)
        for i, slot, threshold in plan:
            if slot < 0:
                good = not degraded
            else:
                value = values[slot]
                good = value <= threshold
                index = bucket_index(_BOUNDS, float(value))
            for row in rows:
                cell = row[i]
                if cell is None:
                    cell = row[i] = _Window()
                if good:
                    cell.good += 1
                else:
                    cell.bad += 1
                if t < cell.t_first:
                    cell.t_first = t
                if t > cell.t_last:
                    cell.t_last = t
                if slot >= 0:
                    counts = cell.counts
                    if counts is None:
                        counts = cell.counts = [0] * (len(_BOUNDS) + 1)
                    counts[index] += 1

    def observe_result(self, result: Any, tenant: str | None = None) -> None:
        """Ingest one :class:`~repro.core.session.CommandResult`."""
        # Completion timestamp: the final packet's simulated arrival if
        # available, else the runtime itself (t=0 submit).
        t = result.packet_times[-1] if result.packet_times else result.total_runtime
        if tenant is None:
            tenant = getattr(result, "tenant", "default")
        self.observe(
            result.command,
            latency=result.latency,
            runtime=result.total_runtime,
            t=t,
            degraded=result.degraded,
            tenant=tenant,
            queue_wait=getattr(result, "queue_wait_s", 0.0),
            ttfa=getattr(result, "ttfa_s", None),
        )

    # -------------------------------------------------------- evaluation
    def _status(self, i: int, dim: str, key: str) -> SLOStatus | None:
        row = self._rows.get(dim, {}).get(key)
        cell = row[i] if row is not None else None
        if cell is None or cell.total == 0:
            return None
        counts, n = cell.counts, cell.total
        q = ((lambda p: bucket_quantile(_BOUNDS, counts, n, p))
             if counts is not None else (lambda p: 0.0))
        window = max(cell.t_last - cell.t_first, 0.0)
        return SLOStatus(
            slo=self.slos[i], key=key, total=cell.total, good=cell.good,
            p50=q(0.50), p95=q(0.95), p99=q(0.99), window_s=window,
        )

    def keys(self, dim: str = "command") -> list[str]:
        return sorted(self._rows.get(dim, ()))

    def status(
        self, dim: str = "command", slo_name: str | None = None
    ) -> list[SLOStatus]:
        """Evaluated rollups, one row per (SLO, key) with data."""
        out: list[SLOStatus] = []
        for i, slo in enumerate(self.slos):
            if slo_name is not None and slo.name != slo_name:
                continue
            for key in self.keys(dim):
                st = self._status(i, dim, key)
                if st is not None:
                    out.append(st)
        return out

    def overall(self, slo_name: str) -> SLOStatus | None:
        i = next(
            (i for i, s in enumerate(self.slos) if s.name == slo_name), None
        )
        if i is None:
            raise KeyError(f"unknown SLO {slo_name!r}")
        return self._status(i, "all", "all")

    def all_met(self) -> bool:
        return all(st.met for st in self.status("all"))

    # --------------------------------------------------------- rendering
    def format_report(self, dim: str = "command") -> str:
        """Markdown table of every rollup row, worst burn first."""
        rows = self.status(dim)
        rows.sort(key=lambda st: (-st.burn_rate, st.slo.name, st.key))
        lines = [
            f"SLO report ({self.observations} observations, by {dim}):",
            "",
            f"| slo | {dim} | n | attain | target | p50 ms | p95 ms "
            "| p99 ms | budget left | burn |",
            "|---|---|---|---|---|---|---|---|---|---|",
        ]
        for st in rows:
            flag = "" if st.met else " ⚠"
            lines.append(
                f"| {st.slo.name}{flag} | {st.key} | {st.total} "
                f"| {st.attainment:.1%} | {st.slo.target:.0%} "
                f"| {st.p50 * 1e3:.2f} | {st.p95 * 1e3:.2f} "
                f"| {st.p99 * 1e3:.2f} | {st.budget_remaining:+.0%} "
                f"| {st.burn_rate:.2f} |"
            )
        return "\n".join(lines)

    # ----------------------------------------------------------- metrics
    def publish_metrics(self, registry) -> None:
        """Sync attainment and quantiles into a metrics registry."""
        for st in self.status("command"):
            labels = {"slo": st.slo.name, "command": st.key}
            registry.gauge(
                "viracocha_slo_attainment", labels,
                help="good fraction per SLO and command",
            ).set(st.attainment)
            registry.gauge(
                "viracocha_slo_burn_rate", labels,
                help="error-budget burn rate (1.0 = burning exactly on target)",
            ).set(st.burn_rate)
            for q, value in (("p50", st.p50), ("p95", st.p95), ("p99", st.p99)):
                registry.gauge(
                    "viracocha_slo_quantile_seconds",
                    {**labels, "quantile": q},
                    help="observed latency/runtime quantiles per SLO",
                ).set(value)


def default_slos(criteria=None) -> list[SLODefinition]:
    """The stock objectives, derived from the VR interaction criteria.

    * ``interactive-response``: first feedback within the ~100 ms
      maximum system response time for every command class;
    * ``interactive-first-frame``: a *complete* first approximation
      (TTFA) within the same response budget — the bound progressive
      streaming exists to meet;
    * ``complete-results``: commands must not serve degraded (partial)
      merges — the share-loss rate from :mod:`repro.faults` recovery.
    """
    from ..viz.client import InteractionCriteria

    criteria = criteria or InteractionCriteria()
    return [
        SLODefinition(
            name="interactive-response",
            metric="latency",
            threshold=criteria.max_response_time_s,
            target=0.95,
            command_class="*",
            description="submit → first data within the VR response budget",
        ),
        SLODefinition(
            name="interactive-first-frame",
            metric="ttfa",
            threshold=criteria.max_response_time_s,
            target=0.95,
            command_class="*",
            description="submit → first complete approximation (TTFA) "
                        "within the VR response budget",
        ),
        SLODefinition(
            name="complete-results",
            metric="degraded",
            threshold=0.0,
            target=0.99,
            command_class="*",
            description="merged results include every planned share",
        ),
    ]
