"""One benchmark process: set up, print READY, run the timed phase.

Started by ``perfbench/run.py`` in a fresh interpreter, so the time the
parent sees between spawning it and reading ``READY`` is the program's
set-up time.  ``--mode probe`` stops there; ``--mode run`` continues
with the timed phase and the output checks and prints one JSON line;
``--mode traced`` does the same with every layer entry point wrapped.

Usage: python3 perfbench/measure.py --workload NAME --seed N
       --seconds S --mode probe|run|traced [--size full|tiny]
       [--spans FILE]
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

from layers import Recorder, install, layer_table

#: a rejected or failed request counts as never answered; JSON has no
#: infinity, so percentiles landing on one are reported as this value.
INF_S = 1e9


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its live worker processes [MB].

    Read after the first pass: the program keeps per-run records (spans,
    metrics), so later passes would make the figure depend on run length.
    """
    import multiprocessing

    pids = [os.getpid()] + [p.pid for p in multiprocessing.active_children()]
    total_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
    return total_kb * 1024 / 1e6


def _pct(values, q: float) -> float:
    from workloads import percentile

    v = percentile(values, q)
    return INF_S if math.isinf(v) else v


def closed_loop(wl, seconds: float, rec: Recorder, traced: bool) -> dict:
    """Run whole passes over the op list until ``seconds`` have elapsed.

    The first pass is the deterministic part: its ops give the simulated
    metrics, the layer metrics and the outputs checked afterwards.  Later
    passes repeat the same ops for the wall metrics only, and must
    reproduce the first pass's outputs.
    """
    from workloads import Outcome, summaries_match

    ops = wl.pass_ops()
    outcomes, later, op_s, failures = [], [], [], Counter()
    mismatches = 0
    n = 0
    #: program time: ops plus the per-pass resets, not the checker's work.
    program_s = 0.0
    t_start = time.perf_counter()
    while True:
        if n % len(ops) == 0:
            t0 = time.perf_counter()
            wl.start_pass()
            program_s += time.perf_counter() - t0
        if n == len(ops):
            rss = peak_rss_mb()
        op = ops[n % len(ops)]
        first_pass = n < len(ops)
        rec.op = n
        rec.active = traced and first_pass
        t0 = time.perf_counter()
        try:
            result = wl.run_op(op)
            error = None
        except Exception as exc:  # an op failing is measured, not fatal
            traceback.print_exc(file=sys.stderr)
            error = f"exception:{type(exc).__name__}:{exc}"
        t1 = time.perf_counter()
        rec.active = False
        op_s.append(t1 - t0)
        program_s += t1 - t0
        out = Outcome(failure=error) if error else wl.outcome(op, result, t0, t1)
        if out.failure:
            failures[out.failure.split(":", 2)[0]] += 1
        if first_pass:
            outcomes.append(out)
        else:
            later.append(out)
            first = outcomes[n % len(ops)]
            if (out.failure is None and first.summary is not None
                    and not summaries_match(out.summary, first.summary)):
                mismatches += 1
        n += 1
        # Whole passes only, so every op carries the same weight in the
        # wall percentiles.
        if n % len(ops) == 0 and t1 - t_start >= seconds:
            break
    if n == len(ops):
        rss = peak_rss_mb()

    # Checks: after the timed phase, outside every timer.
    errors = []
    if mismatches:
        errors.append(f"{mismatches} repeated ops changed their output")
    for i, (op, out) in enumerate(zip(ops, outcomes)):
        if out.failure:
            continue
        ref = wl.reference(op)
        if not summaries_match(out.summary, ref):
            errors.append(f"op {i} {op.command}: output differs from reference")
            failures["wrong-output"] += 1

    # Simulated times repeat exactly only on the first pass (later passes
    # meet warm caches); wall-clock ones use every op.
    timed = outcomes if wl.sim_clock else outcomes + later
    inf = math.inf
    ff = [o.first_feedback_s if o.failure is None else inf for o in timed]
    rt = [o.runtime_s if o.failure is None else inf for o in timed]
    pass1 = op_s[: len(ops)]
    return {
        "attempted": n,
        "failed": sum(failures.values()),
        "failures": dict(failures),
        "errors": errors,
        "metrics": {
            "ops_per_s": n / program_s,
            "op_p50_ms": 1e3 * _pct(op_s, 0.5),
            "op_p90_ms": 1e3 * _pct(op_s, 0.9),
            "first_feedback_p50_s": _pct(ff, 0.5),
            "first_feedback_p90_s": _pct(ff, 0.9),
            "runtime_p50_s": _pct(rt, 0.5),
            "runtime_p90_s": _pct(rt, 0.9),
            "peak_rss_mb": rss,
        },
        "pass1_op_p50_ms": 1e3 * _pct(pass1, 0.5),
        "outcomes": outcomes,
    }


def tenant_loop(wl, seconds: float, rec: Recorder, traced: bool) -> dict:
    """Soak each fleet in turn, in whole passes, until ``seconds`` pass.

    The first pass gives the simulated metrics and the checks; every
    later soak of a fleet must replay the first one's fingerprint.
    """
    fleets = wl.fleets
    per_request_ms, pass1_ms, firsts = [], [], []
    fingerprints: dict[int, set] = {}
    n = soaks = 0
    #: program time: whole soaks, not the checks between them.
    program_s = 0.0
    t_start = time.perf_counter()
    while True:
        k = soaks % len(fleets)
        rec.op = soaks
        rec.active = traced and soaks < len(fleets)
        t0 = time.perf_counter()
        server, walls, edges = wl.soak(fleets[k], wl.N_WINDOWS)
        t_end = time.perf_counter()
        rec.active = False
        program_s += t_end - t0
        # Requests finishing in each simulated-time window (after the
        # soak, outside its timers).
        done_in = [0] * len(walls)
        for h in server.handles:
            done_in[sum(1 for e in edges if h.t_done > e)] += 1
        window_ms = [1e3 * w / c for w, c in zip(walls, done_in) if c]
        per_request_ms += window_ms
        fingerprints.setdefault(k, set()).add(server.fingerprint())
        if soaks < len(fleets):
            firsts.append(server)
            pass1_ms += window_ms
            if soaks == len(fleets) - 1:
                rss = peak_rss_mb()
        n += len(server.handles)
        soaks += 1
        if soaks % len(fleets) == 0 and t_end - t_start >= seconds:
            break

    errors = [f"fleet {k}: soak replays diverged" for k, fps in fingerprints.items()
              if len(fps) != 1]
    terminal = {"done", "rejected", "cancelled", "failed"}
    handles = [h for server in firsts for h in server.handles]
    counts = Counter(h.state for h in handles)
    if set(counts) - terminal:
        errors.append(f"handles left non-terminal: {dict(counts)}")
    submitted = sum(len(w.requests) for fleet in fleets for w in fleet)
    if len(handles) != submitted or sum(counts[s] for s in terminal) != submitted:
        errors.append(f"count conservation broken: {submitted} submitted, {dict(counts)}")

    inf = math.inf
    ff, rt = [], []
    failures = Counter()
    for h in handles:
        if h.state == "cancelled":  # the workload's own cancellations
            continue
        bad = h.state in ("rejected", "failed") or h.degraded
        if bad:
            failures["degraded" if h.degraded else h.state] += 1
        ff.append(inf if bad else h.latency_s)
        rt.append(inf if bad else h.runtime_s)
    waits = [h.queue_wait_s for h in handles if h.t_start is not None]
    return {
        "attempted": n,
        "failed": sum(failures.values()) * (soaks // len(fleets)),
        "failures": dict(failures),
        "errors": errors,
        "metrics": {
            "ops_per_s": n / program_s,
            "op_p50_ms": _pct(per_request_ms, 0.5),
            "op_p90_ms": _pct(per_request_ms, 0.9),
            "first_feedback_p50_s": _pct(ff, 0.5),
            "first_feedback_p90_s": _pct(ff, 0.9),
            "runtime_p50_s": _pct(rt, 0.5),
            "runtime_p90_s": _pct(rt, 0.9),
            "peak_rss_mb": rss,
        },
        "pass1_op_p50_ms": _pct(pass1_ms, 0.5),
        "serve": {
            "submits": len(handles),
            "queue_wait_p90_s": _pct(waits, 0.9) if waits else 0.0,
            "rejected_frac": counts["rejected"] / len(handles),
        },
        "fingerprint": ",".join(fp for k in sorted(fingerprints)
                                for fp in sorted(fingerprints[k])),
    }


def layer_metrics(rec: Recorder, res: dict, setup: dict) -> dict:
    """Every per-layer metric, zero where the workload bypasses a layer."""
    tot = rec.totals()

    def s(name):
        return tot.get(name, {}).get("s", 0.0)

    def calls(name):
        return tot.get(name, {}).get("calls", 0)

    m = {
        "repro.import_s": setup["repro.import"],
        "synth.build_s": setup.get("synth.build", 0.0),
        "parallel.place_s": setup.get("parallel.place", 0.0),
        "parallel.place_bytes": rec.counts["parallel.place_bytes"],
        "parallel.first_run_s": setup.get("parallel.first_run", 0.0),
        "des.self_s": tot.get("des.run", {}).get("self_s", 0.0),
        "des.timeouts": rec.counts["des.timeouts"],
        "des.processes": rec.counts["des.processes"],
        "dms.source_calls": calls("dms.source"),
        "dms.source_s": s("dms.source"),
        "grids.locate_calls": calls("grids.locate"),
        "grids.locate_s": s("grids.locate"),
        "viz.merge_s": s("viz.merge"),
        "obs.spans": calls("obs.span_begin") + calls("obs.span_record_interval"),
        "obs.span_s": sum(s(f"obs.span_{a}") for a in
                          ("begin", "end", "record_interval")),
        "obs.slo_observe_s": s("obs.slo_observe"),
        "algorithms.iso_triangles": rec.counts["algorithms.iso_triangles"],
    }
    for kind in ("iso", "lambda2", "pathline"):
        m[f"algorithms.{kind}_calls"] = calls(f"algorithms.{kind}")
        m[f"algorithms.{kind}_s"] = s(f"algorithms.{kind}")

    sums: Counter = Counter()
    imbalance = []
    for out in res.get("outcomes", []):
        for key, value in out.layer.items():
            if key == "parallel.imbalance":
                imbalance.append(value)
            else:
                sums[key] += value
    m.update({key: sums[key] for key in (
        "dms.requests", "dms.hits", "dms.misses", "dms.misses_covered",
        "dms.bytes_loaded", "parallel.share_busy_s", "parallel.share_max_s",
        "parallel.idle_s", "parallel.overhead_s", "parallel.loads",
        "parallel.payloads", "parallel.result_bytes")})
    m["dms.hit_ratio"] = (sums["dms.hits"] / sums["dms.requests"]
                          if sums["dms.requests"] else 0.0)
    m["dms.prefetch_accuracy"] = (
        sums["dms.prefetches_useful"] / sums["dms.prefetches_issued"]
        if sums["dms.prefetches_issued"] else 0.0)
    m["parallel.imbalance"] = sum(imbalance) / len(imbalance) if imbalance else 0.0
    m["parallel.merge_s"] = rec.under("viz.merge", "parallel.run")

    serve = res.get("serve", {})
    m.update({
        "serve.submits": serve.get("submits", 0),
        "serve.submit_s": s("serve.submit"),
        "serve.queue_put_s": s("serve.queue_put"),
        "serve.queue_get_s": s("serve.queue_get"),
        "serve.backlog_max": rec.counts["serve.backlog_max"],
        "serve.queue_wait_p90_s": serve.get("queue_wait_p90_s", 0.0),
        "serve.rejected_frac": serve.get("rejected_frac", 0.0),
    })
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("probe", "run", "traced"), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)

    rec = Recorder()
    setup: dict[str, float] = {}
    t0 = time.perf_counter()
    import repro  # noqa: F401

    setup["repro.import"] = time.perf_counter() - t0
    expected = Path(__file__).resolve().parents[1] / "src" / "repro"
    if Path(repro.__file__).resolve().parent != expected:
        print(f"repro imported from {repro.__file__}, not {expected}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS, ClosedLoop

    wl = WORKLOADS[args.workload](args.seed, args.size, rec)
    try:
        wl.setup()
        setup.update({name: row["s"] for name, row in rec.totals().items()})
        rec.spans.clear()
        print("READY", flush=True)
        if args.mode == "probe":
            return 0

        traced = args.mode == "traced"
        restore = install(rec) if traced else None
        try:
            loop = closed_loop if isinstance(wl, ClosedLoop) else tenant_loop
            res = loop(wl, args.seconds, rec, traced)
        finally:
            if restore is not None:
                restore()
        report = {
            "correct": not res["errors"] and not res["failed"],
            "attempted": res["attempted"],
            "failed": res["failed"],
            "failures": res["failures"],
            "errors": res["errors"][:20],
            "metrics": res["metrics"],
            "pass1_op_p50_ms": res["pass1_op_p50_ms"],
        }
        if "fingerprint" in res:
            report["fingerprint"] = res["fingerprint"]
        if traced:
            report["layers"] = layer_metrics(rec, res, setup)
            print(layer_table(rec), file=sys.stderr)
            if args.spans is not None:
                rec.write(args.spans)
        print(json.dumps(report), flush=True)
        return 0
    finally:
        wl.close()


if __name__ == "__main__":
    sys.exit(main())
