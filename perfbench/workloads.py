"""The benchmark's three workloads.

Each workload draws every input from its seed, sets the program up, runs
operations ("ops"), and checks the outputs after the timed phase and
outside every timer.  The program is driven only through public
functions of :mod:`repro`.

* ``explore-session`` — one simulated VR user exploring propfan through
  :class:`repro.ViracochaSession` (simulated cluster, DMS, streaming).
* ``multicore-extract`` — :class:`repro.ParallelExtractor` on real
  worker processes over shared memory.
* ``tenant-soak`` — :class:`repro.serve.TenantServer` over
  :class:`repro.serve.ModeledBackend`, thousands of tenants in
  simulated time.

Sizes are chosen for a 2-core machine driven from one process; see
``perfbench/README.md`` for the reasoning behind each choice.
"""

from __future__ import annotations

import hashlib
import math
import random
import time
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from layers import Recorder

#: relative tolerance for geometry compared against a reference
#: computed in another order (sums of float64 areas and coordinates).
GEOMETRY_RTOL = 1e-9


@dataclass
class Op:
    """One command with explicit parameters."""

    command: str
    params: dict[str, Any]


@dataclass
class Outcome:
    """What one op produced, summarised outside the timer."""

    failure: str | None = None
    summary: Any = None
    first_feedback_s: float | None = None
    runtime_s: float | None = None
    layer: dict[str, float] = field(default_factory=dict)


# --------------------------------------------------------------- inputs
def _quantiles(values: np.ndarray, qs) -> list[float]:
    return [float(v) for v in np.quantile(values, qs)]


def dataset_ranges(dataset) -> dict[str, list[float]]:
    """Pressure and λ2 quantiles of a dataset, from a fixed block sample."""
    from repro.algorithms.lambda2 import lambda2_field

    n_t = dataset.spec.n_timesteps
    n_b = dataset.spec.n_blocks
    pressure, lam = [], []
    for t in sorted({0, n_t - 1}):
        for b in range(0, n_b, 6):
            block = dataset.build_block(t, b)
            pressure.append(block.field("pressure").ravel())
            lam.append(lambda2_field(block).ravel())
    qs = (0.2, 0.8)
    return {
        "pressure": _quantiles(np.concatenate(pressure), qs),
        # Strongly negative λ2 marks vortex cores; this band keeps the
        # threshold inside the vortical region without emptying it.
        "lambda2": _quantiles(np.concatenate(lam), (0.1, 0.3)),
    }


def strata(rng: random.Random, n: int) -> list[float]:
    """``n`` draws in [0, 1), one in each of ``n`` equal strata, shuffled.

    Stratified draws give every seed nearly the same spread of
    parameters, so percentiles move little from seed to seed while each
    op's parameters stay random.
    """
    values = [(k + rng.random()) / n for k in range(n)]
    rng.shuffle(values)
    return values


def windows(rng: random.Random, n: int, n_steps: int, length: int) -> list:
    """``n`` time windows of ``length`` steps, every start equally often."""
    starts = n_steps - length + 1
    out = [(k % starts, k % starts + length) for k in range(n)]
    rng.shuffle(out)
    return out


def propfan_seeds(rng: random.Random, n_ops: int, per_op: int) -> list:
    """Pathline seeds inside the propfan annulus (r, θ, z) with margins,
    Latin-hypercube over all ops' seeds, ``per_op`` seeds per op."""
    total = n_ops * per_op
    r, theta, z = (strata(rng, total) for _ in range(3))
    seeds = [
        [(0.45 + 0.5 * r[i]) * math.cos(2 * math.pi * theta[i]),
         (0.45 + 0.5 * r[i]) * math.sin(2 * math.pi * theta[i]),
         -0.9 + 1.8 * z[i]]
        for i in range(total)
    ]
    return [seeds[k * per_op:(k + 1) * per_op] for k in range(n_ops)]


def _band(band, u: float) -> float:
    lo, hi = band
    return lo + (hi - lo) * u


def mesh_summary(mesh) -> tuple[int, float, tuple[float, float, float]]:
    """Order-independent geometry: triangle count, area, area centroid."""
    if mesh.n_triangles == 0:
        return (0, 0.0, (0.0, 0.0, 0.0))
    areas = mesh.areas()
    centers = mesh.triangles.mean(axis=1)
    total = float(areas.sum())
    centroid = tuple(float(c) for c in (areas[:, None] * centers).sum(0) / total)
    return (mesh.n_triangles, total, centroid)


def paths_summary(paths) -> list[tuple[int, np.ndarray]]:
    """Per-path point counts and points, ordered by seed (workers
    stream their paths back in any order)."""
    ordered = sorted(paths, key=lambda p: tuple(np.asarray(p.seed).tolist()))
    return [(int(p.n_points), np.asarray(p.points)) for p in ordered]


def summaries_match(a, b) -> bool:
    if isinstance(a, str):  # byte digest
        return a == b
    if isinstance(a, tuple):  # mesh summary
        return a[0] == b[0] and np.allclose(
            [a[1], *a[2]], [b[1], *b[2]], rtol=GEOMETRY_RTOL, atol=1e-12
        )
    if len(a) != len(b):
        return False
    return all(
        na == nb and np.allclose(pa, pb, rtol=GEOMETRY_RTOL, atol=1e-12)
        for (na, pa), (nb, pb) in zip(a, b)
    )


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; ``+inf`` entries sort last."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# ------------------------------------------------------------ workloads
class ClosedLoop:
    """One client: the next op is sent when the previous one returns."""

    name = ""
    #: command kind → number of ops of that kind in one pass.
    mix: dict[str, int] = {}

    def __init__(self, seed: int, size: str, rec: Recorder):
        self.seed = seed
        self.rec = rec

    def make_ops(self, rng: random.Random, counts: dict[str, int]) -> list[Op]:
        ops = [op for kind, n in counts.items() for op in self.draw(rng, kind, n)]
        rng.shuffle(ops)
        return ops

    def warmup_ops(self) -> list[Op]:
        rng = random.Random(f"{self.name}/warmup/{self.seed}")
        return self.make_ops(rng, {kind: 1 for kind in self.mix})

    def warmup(self) -> None:
        """The untimed warm-up that ends set-up."""
        for op in self.warmup_ops():
            self.run_op(op)

    def pass_ops(self) -> list[Op]:
        rng = random.Random(f"{self.name}/ops/{self.seed}")
        return self.make_ops(rng, self.mix)

    def start_pass(self) -> None:
        """Bring program state to where every pass starts."""

    def draw(self, rng: random.Random, kind: str, n: int) -> list[Op]:
        raise NotImplementedError

    def close(self) -> None:
        pass


class ExploreSession(ClosedLoop):
    """Trial-and-error exploration of propfan on the simulated cluster."""

    name = "explore-session"
    sim_clock = True

    def __init__(self, seed: int, size: str, rec: Recorder):
        super().__init__(seed, size, rec)
        tiny = size == "tiny"
        self.base_resolution = 3 if tiny else 4
        self.n_steps = 3 if tiny else 4
        # The use case's mix: the user explores isosurfaces, vortices and
        # pathlines equally often, and sweeps isosurfaces half the time
        # with the view-dependent streamed command and half the time with
        # full extractions.  Exact counts per pass (a shuffled multiset)
        # keep the mix fixed across seeds; only order and parameters vary.
        self.mix = (
            {"iso-viewer": 2, "iso-dataman": 1, "vortex-streamed": 1,
             "pathlines-dataman": 2}
            if tiny else
            {"iso-viewer": 20, "iso-dataman": 20, "vortex-streamed": 40,
             "pathlines-dataman": 40}
        )
        self.n_seeds = 2 if tiny else 4

    def setup(self) -> None:
        from repro import ViracochaSession, build_propfan
        from repro.bench.calibration import paper_cluster, paper_costs

        self.dataset = self.rec.timed("synth.build", lambda: build_propfan(
            base_resolution=self.base_resolution, n_timesteps=self.n_steps))
        self.ranges = dataset_ranges(self.dataset)
        self.session = ViracochaSession(
            self.dataset, n_workers=4, cluster_config=paper_cluster(4),
            costs=paper_costs(),
        )
        self.warmup()

    def draw(self, rng: random.Random, kind: str, n: int) -> list[Op]:
        if kind == "pathlines-dataman":
            return [
                Op(kind, {"seeds": seeds, "time_range": window, "rtol": 1e-3,
                          "max_steps": 120, "local_cache_blocks": 8})
                for seeds, window in zip(
                    propfan_seeds(rng, n, self.n_seeds),
                    windows(rng, n, self.n_steps, 2))
            ]
        steps = windows(rng, n, self.n_steps, 1)
        if kind == "vortex-streamed":
            return [
                Op(kind, {"threshold": _band(self.ranges["lambda2"], u),
                          "velocity": "velocity", "time_range": w,
                          "batch_cells": 256})
                for u, w in zip(strata(rng, n), steps)
            ]
        ops = [
            Op(kind, {"isovalue": _band(self.ranges["pressure"], u),
                      "scalar": "pressure", "time_range": w})
            for u, w in zip(strata(rng, n), steps)
        ]
        if kind == "iso-viewer":
            for op, u in zip(ops, strata(rng, n)):
                theta, z = 2 * math.pi * u, rng.uniform(-2.0, 2.0)
                op.params["viewpoint"] = (
                    3.0 * math.cos(theta), 3.0 * math.sin(theta), z)
                op.params["max_triangles"] = 2000
        return ops

    def start_pass(self) -> None:
        # Every pass starts from cold DMS caches, so passes are alike and
        # the wall figures do not depend on how many passes fit in a run.
        self.session.clear_caches()

    def run_op(self, op: Op):
        return self.session.run(op.command, op.params)

    def outcome(self, op: Op, result, t0: float, t1: float) -> Outcome:
        if result.degraded:
            return Outcome(failure="degraded")
        if op.command == "pathlines-dataman":
            # The scheduler merges pathlines into one list payload.
            paths = [p for payload in result.payloads for p in payload]
            summary = paths_summary(paths)
            empty = not paths or any(n < 2 for n, _ in summary)
        else:
            summary = mesh_summary(result.geometry)
            empty = summary[0] == 0
        out = Outcome(summary=summary, first_feedback_s=result.latency,
                      runtime_s=result.total_runtime,
                      layer={f"dms.{k}": v for k, v in result.dms.items()})
        if empty:
            out.failure = "empty-result"
        return out

    # ------------------------------------------------------------ check
    def reference(self, op: Op):
        """Recompute an op with the algorithms alone: no DES, DMS or
        command code, blocks straight from the dataset generator."""
        from repro.algorithms.isosurface import extract_block_isosurface
        from repro.algorithms.lambda2 import lambda2_field
        from repro.algorithms.pathlines import BatchPathlineTracer
        from repro.grids.block import StructuredBlock
        from repro.viz.mesh import TriangleMesh

        ds = self.dataset
        t0, t1 = op.params["time_range"]
        if op.command == "pathlines-dataman":
            times = list(ds.spec.times[t0:t1])
            tracer = BatchPathlineTracer(
                ds.handles(t0), times, rtol=op.params["rtol"],
                max_steps=op.params["max_steps"],
                local_cache_blocks=op.params["local_cache_blocks"],
            )
            gen = tracer.trace_many(op.params["seeds"], times[0], times[-1])
            try:
                request = next(gen)
                while True:
                    request = gen.send(ds.build_block(
                        t0 + request.time_index, request.block_id))
            except StopIteration as stop:
                return paths_summary(stop.value)
        meshes = []
        for t in range(t0, t1):
            for b in range(ds.spec.n_blocks):
                block = ds.build_block(t, b)
                if op.command == "vortex-streamed":
                    block = StructuredBlock(
                        block.coords, {"lambda2": lambda2_field(block)},
                        block_id=b, time_index=t)
                    meshes.append(extract_block_isosurface(
                        block, "lambda2", op.params["threshold"]))
                else:
                    meshes.append(extract_block_isosurface(
                        block, "pressure", op.params["isovalue"]))
        return mesh_summary(TriangleMesh.merge(meshes))


class MulticoreExtract(ClosedLoop):
    """`repro extract` on real cores: 2 worker processes, shared memory."""

    name = "multicore-extract"
    sim_clock = False

    def __init__(self, seed: int, size: str, rec: Recorder):
        super().__init__(seed, size, rec)
        tiny = size == "tiny"
        self.base_resolution = 3 if tiny else 6
        self.n_steps = 2 if tiny else 4
        self.mix = (
            {"iso-dataman": 1, "vortex-dataman": 1, "pathlines-dataman": 1}
            if tiny else
            {"iso-dataman": 40, "vortex-dataman": 30, "pathlines-dataman": 30}
        )
        self.n_seeds = 2 if tiny else 8
        self.store = self.extractor = self.serial = None

    def setup(self) -> None:
        from repro import ParallelExtractor, build_propfan
        from repro.dms.source import SyntheticSource
        from repro.parallel.shm import ShmBlockStore

        self.dataset = self.rec.timed("synth.build", lambda: build_propfan(
            base_resolution=self.base_resolution, n_timesteps=self.n_steps))
        self.ranges = dataset_ranges(self.dataset)
        self.store = self.rec.timed("parallel.place", lambda: (
            ShmBlockStore.from_source(SyntheticSource(self.dataset))))
        self.rec.counts["parallel.place_bytes"] = self.store.nbytes
        self.extractor = ParallelExtractor(
            self.store, workers=2, executor="process")
        first, *rest = self.warmup_ops()
        self.rec.timed("parallel.first_run", lambda: self.run_op(first))
        for op in rest:
            self.run_op(op)

    def draw(self, rng: random.Random, kind: str, n: int) -> list[Op]:
        if kind == "pathlines-dataman":
            return [
                Op(kind, {"seeds": seeds, "time_range": (0, self.n_steps),
                          "rtol": 1e-3, "max_steps": 120,
                          "local_cache_blocks": 8})
                for seeds in propfan_seeds(rng, n, self.n_seeds)
            ]
        if kind == "vortex-dataman":
            return [
                Op(kind, {"threshold": _band(self.ranges["lambda2"], u),
                          "velocity": "velocity", "time_range": w})
                for u, w in zip(strata(rng, n), windows(rng, n, self.n_steps, 1))
            ]
        # Two steps per isosurface put its cost in the same range as a
        # one-step λ2 extraction or a pathline op.  One cost band keeps
        # the wall percentiles off band edges, where they jump.
        return [
            Op(kind, {"isovalue": _band(self.ranges["pressure"], u),
                      "scalar": "pressure", "time_range": w})
            for u, w in zip(strata(rng, n), windows(rng, n, self.n_steps, 2))
        ]

    def warmup_ops(self) -> list[Op]:
        # First passes over shared memory run 1.5-2x slower, so the
        # warm-up also extracts an isosurface on every timestep.
        rng = random.Random(f"{self.name}/warmup/{self.seed}")
        iso = self.draw(rng, "iso-dataman", self.n_steps)
        return iso + self.make_ops(rng, {kind: 1 for kind in self.mix})

    def run_op(self, op: Op):
        return self.extractor.run(op.command, op.params)

    def outcome(self, op: Op, result, t0: float, t1: float) -> Outcome:
        shares = result.shares
        busy = [s.seconds for s in shares]
        first = min((s.t_end for s in shares), default=t1)
        digest, nbytes, empty = result_digest(result.result)
        out = Outcome(
            summary=digest,
            # Real-core clock: the first share's result exists when its
            # worker finishes it; the merged result when run() returns.
            first_feedback_s=first - t0,
            runtime_s=result.wall_seconds,
            layer={
                "parallel.share_busy_s": sum(busy),
                "parallel.share_max_s": max(busy, default=0.0),
                "parallel.imbalance": (max(busy) / (sum(busy) / len(busy))
                                       if busy and sum(busy) > 0 else 0.0),
                "parallel.idle_s": result.idle_seconds,
                "parallel.overhead_s": result.wall_seconds - max(busy, default=0.0),
                "parallel.loads": result.n_loads,
                "parallel.payloads": result.n_payloads,
                "parallel.result_bytes": nbytes,
            },
        )
        if empty:
            out.failure = "empty-result"
        return out

    def reference(self, op: Op):
        """The serial executor over the same shared store."""
        from repro import ParallelExtractor

        if self.serial is None:
            self.serial = ParallelExtractor(
                self.store, workers=2, executor="serial")
        return result_digest(self.serial.run(op.command, op.params).result)[0]

    def close(self) -> None:
        for ex in (self.serial, self.extractor):
            if ex is not None:
                ex.close()
        if self.store is not None:
            self.store.cleanup()


def result_digest(result) -> tuple[str, int, bool]:
    """sha256 over the merged result's bytes, its size, and emptiness."""
    h = hashlib.sha256()
    if isinstance(result, list):  # pathlines
        arrays = [a for p in result for a in (p.points, p.times)]
        empty = not result or any(p.n_points < 2 for p in result)
    else:
        arrays = [result.vertices]
        empty = result.n_triangles == 0
    nbytes = 0
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str((a.dtype.str, a.shape)).encode())
        h.update(a.tobytes())
        nbytes += a.nbytes
    return h.hexdigest(), nbytes, empty


# ----------------------------------------------------------- tenant-soak
class TenantSoak:
    """Open-loop multi-tenant arrivals in simulated time.

    One op is one simulated request.  A soak replays one pre-drawn fleet
    on a fresh server; a pass soaks each of the seed's fleets once, and
    every repeated soak of a fleet must reproduce the first one's
    lifecycle fingerprint.
    Wall time per op is measured over simulated-time windows: the wall
    seconds a window took divided by the requests that finished in it.
    """

    name = "tenant-soak"
    N_WINDOWS = 20

    def __init__(self, seed: int, size: str, rec: Recorder):
        self.seed = seed
        self.rec = rec
        self.n_tenants = 60 if size == "tiny" else 2000
        #: distinct fleets per pass; backlog dynamics differ per fleet,
        #: so pooling several keeps a run's figures close to the mean.
        self.n_fleets = 2 if size == "tiny" else 4
        self.slots = 8

    def specs(self, n_tenants: int, seed: int):
        from repro.serve import LoadSpec

        # ~0.03 s mean service × 3 requests per tenant.  Arrivals last
        # half the time the slots need for the work: offered load is
        # 2× capacity while they last, so the backlog is set by the
        # rates.  Near 1× it is a random walk and the simulated
        # percentiles spread ~30% from seed to seed.
        horizon = n_tenants * 3 * 0.03 / self.slots / 2.0
        common = dict(
            requests_per_tenant=3, service_mean_s=0.03, service_cv=0.4,
            priority_frac=0.1, cancel_frac=0.05, slots=self.slots,
            max_in_flight=3,
        )
        half = n_tenants // 2
        return [
            LoadSpec(n_tenants=half, seed=2 * seed, arrival="poisson",
                     rate_hz=3.0 / horizon, **common),
            LoadSpec(n_tenants=n_tenants - half, seed=2 * seed + 1,
                     arrival="bursty", burst_size=3,
                     burst_gap_s=horizon / 2.0, **common),
        ]

    def fleet(self, n_tenants: int, seed: int):
        from repro.serve import build_workloads

        fleet = []
        for spec in self.specs(n_tenants, seed):
            for w in build_workloads(spec):
                w.config = replace(w.config, name=f"{spec.arrival}-{w.config.name}")
                fleet.append(w)
        return fleet

    def setup(self) -> None:
        self.fleets = [self.fleet(self.n_tenants, self.seed * self.n_fleets + k)
                       for k in range(self.n_fleets)]
        # Untimed warm-up on a small fleet of its own.
        self.soak(self.fleet(50, -1 - self.seed), windows=1)

    def soak(self, workloads, windows: int):
        """Run one soak; returns the server and per-window wall seconds."""
        from repro.des.kernel import Environment
        from repro.serve import ModeledBackend, TenantServer, serve_slos

        env = Environment()
        server = TenantServer(ModeledBackend(env, slots=self.slots),
                              slos=serve_slos())
        for w in workloads:
            server.register(w.config)
        server.start()
        for w in workloads:
            env.process(_tenant_client(env, server, w), name=w.config.name)
        # Windows split the busy period, which ends near total work /
        # slots because the backlog keeps every slot busy; the last
        # window also takes the sparse tail of late arrivals.
        busy = sum(p.service.total_s for w in workloads
                   for p in w.requests) / self.slots
        walls = []
        edges = [busy * (k + 1) / windows for k in range(windows - 1)]
        for edge in edges + [None]:
            t0 = time.perf_counter()
            env.run(until=edge) if edge is not None else env.run()
            walls.append(time.perf_counter() - t0)
        return server, walls, edges

    def close(self) -> None:
        pass


def _tenant_client(env, server, workload):
    """One tenant submitting on its schedule, cancelling when planned."""
    for plan in workload.requests:
        if plan.at > env.now:
            yield env.timeout(plan.at - env.now)
        handle = server.submit(workload.config.name, plan.command,
                               cost_bytes=plan.cost_bytes, service=plan.service)
        if handle.state != "rejected" and plan.cancel_after is not None:
            env.process(_cancel(env, server, handle, plan.cancel_after))


def _cancel(env, server, handle, delay):
    if delay > 0:
        yield env.timeout(delay)
    server.cancel(handle)


WORKLOADS = {
    cls.name: cls for cls in (ExploreSession, MulticoreExtract, TenantSoak)
}
