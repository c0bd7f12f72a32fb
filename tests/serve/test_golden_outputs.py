"""Golden pins of the serving layer's observable output.

Replay-vs-replay identity (``test_loadtest``) only shows a run agrees
with itself; these pins show it agrees with the recorded dispatch order
and SLO rollups.  A change to the fair queue's WRR order, the tombstone
rules or the SLO tracker's bucketing moves at least one digest here.
"""

import hashlib
import random

from repro.des import Environment
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import SLODefinition
from repro.serve import (
    LoadSpec,
    ModeledBackend,
    ServiceProfile,
    TenantConfig,
    TenantServer,
    run_loadtest,
    serve_slos,
)

SOAK = LoadSpec(
    n_tenants=1000,
    seed=7,
    requests_per_tenant=3,
    rate_hz=0.2,
    slots=16,
    cancel_frac=0.05,
)

SOAK_FINGERPRINT = (
    "abc6e9b10b24335ac93a2e7148e8e4e3c5bb8e0a9abff3160d8d95cc10ac5b76"
)
SOAK_TENANT_REPORT = (
    "57b00755852bc494367107b6411478164388899a375f5fe23875d9e47e7f2e44"
)
MIXED_FINGERPRINT = (
    "7cd6ea8fe2ba36329faa71e9c3b8d6db91465f31abdce11e9275bd394bfceec0"
)
MIXED_TENANT_REPORT = (
    "895825cc6f8588810fa4383caf336abf0fb13ef5c05ffd8a882837bd46c84767"
)
MIXED_COMMAND_REPORT = (
    "d70877544873055ce83efbc75bade4ab3ce5fc0442de25de9ebe102d08ed027b"
)
MIXED_METRICS = (
    "a9ff04b4b02a7622f28297c3b9220243a58864a0a7b16bbbba59bfed63daa6e6"
)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_mixed_fleet(seed: int = 11) -> TenantServer:
    """Three lanes, weights 1-4, bursts, cancellations and lane overrides."""
    rng = random.Random(seed)
    env = Environment()
    # One SLO matches only some command names.
    slos = serve_slos() + [SLODefinition(
        name="iso-runtime", metric="runtime", threshold=0.05, target=0.9,
        command_class="iso-*",
    )]
    server = TenantServer(ModeledBackend(env, slots=3), slos=slos)
    names = []
    for i in range(40):
        cfg = TenantConfig(
            name=f"t{i:02d}", weight=rng.randint(1, 4),
            lane=rng.randrange(3), max_in_flight=rng.randint(1, 5),
        )
        server.register(cfg)
        names.append(cfg.name)
    commands = ("cutplane", "iso-dataman", "pathlines-dataman", "vortex")
    plans = []
    for _ in range(600):
        plans.append((
            rng.uniform(0.0, 4.0), rng.choice(names), rng.choice(commands),
            rng.lognormvariate(-3.5, 0.6), rng.random(),
            rng.choice((None, None, None, 0, 1, 2)),
            rng.random() < 0.2, rng.uniform(0.0, 0.1),
        ))
    plans.sort(key=lambda p: p[0])

    def cancel_later(handle, delay):
        yield env.timeout(delay)
        server.cancel(handle)

    def submit_all():
        for at, tenant, command, total, fb, lane, cancel, delay in plans:
            if at > env.now:
                yield env.timeout(at - env.now)
            handle = server.submit(
                tenant, command, service=ServiceProfile(total, fb * total),
                lane=lane, cost_bytes=1,
            )
            if cancel and handle.state != "rejected":
                env.process(cancel_later(handle, delay))

    server.start()
    env.process(submit_all())
    env.run()
    return server


def test_soak_fingerprint_and_tenant_report_pinned():
    report = run_loadtest(SOAK)
    assert report.fingerprint == SOAK_FINGERPRINT
    assert _sha(report.server.slo_report("tenant")) == SOAK_TENANT_REPORT


def test_mixed_lane_weight_fleet_pinned():
    server = run_mixed_fleet()
    states = {h.state for h in server.handles}
    # The fleet exercises every terminal path the queue sees.
    assert {"done", "cancelled", "rejected"} <= states
    assert len({h.lane for h in server.handles}) == 3
    registry = MetricsRegistry()
    server.publish_metrics(registry)
    assert server.fingerprint() == MIXED_FINGERPRINT
    assert _sha(server.tracker.format_report("tenant")) == MIXED_TENANT_REPORT
    assert _sha(server.tracker.format_report("command")) == MIXED_COMMAND_REPORT
    assert _sha(registry.render_prometheus()) == MIXED_METRICS
