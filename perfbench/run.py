"""The repository benchmark: one workload, one seed, one JSON result.

Usage (from the repository root):

    python3 perfbench/run.py --workload explore-session --seed 1 \
        --seconds 20 --trace 0

Every measurement happens in fresh interpreters started from here, so
this process never imports the program:

* ``--trace 0``: several set-up probes (``setup_s`` is the median of
  their spawn-to-READY times plus the measured process's own), then one
  measured process that runs the timed phase and checks its outputs.
  The last stdout line carries every end-to-end metric.
* ``--trace 1``: one untraced and one traced measured process on the
  same seed.  The last stdout line carries every per-layer metric,
  including the tracing overhead (traced minus untraced first-pass op
  p50).  Spans are written to ``.bench_out/``; the per-layer table goes
  to stderr.

Metric names, units and bounds come from ``BENCHMARK.json``; clocks,
default seeds and the layer → metric → workload map are in
``perfbench/registry.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: set-up samples per run besides the measured process's own.
N_PROBES = 2
#: the whole run must end well inside the 180 s a run is allowed.
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args: argparse.Namespace, mode: str, deadline: float,
          spans: Path | None = None) -> tuple[float, dict | None]:
    """Run one measure.py process; returns (set-up seconds, report)."""
    cmd = [sys.executable, str(HERE / "measure.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode,
           "--size", args.size]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(),
                            cwd=ROOT, text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        if ready.strip() != "READY":
            raise BenchError(f"{mode} process failed during set-up")
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} process overran the deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{mode} process exited with {proc.returncode}")
    lines = out.strip().splitlines()
    return setup_s, (json.loads(lines[-1]) if lines else None)


def units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True,
                        choices=("explore-session", "multicore-extract", "tenant-soak"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the smoke-test size")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print("no src/repro next to perfbench/", file=sys.stderr)
        return 2
    unit = units()
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            _, plain = spawn(args, "run", deadline)
            spans = ROOT / ".bench_out" / f"spans-{args.workload}-{args.seed}.jsonl"
            _, traced = spawn(args, "traced", deadline, spans=spans)
            metrics = dict(traced["layers"])
            metrics["trace.overhead_ms"] = (
                traced["pass1_op_p50_ms"] - plain["pass1_op_p50_ms"])
            metrics["failed_frac"] = traced["failed"] / traced["attempted"]
            report = traced
            correct = plain["correct"] and traced["correct"]
        else:
            samples = [spawn(args, "probe", deadline)[0] for _ in range(N_PROBES)]
            setup_s, report = spawn(args, "run", deadline)
            samples.append(setup_s)
            metrics = dict(report["metrics"])
            metrics["setup_s"] = statistics.median(samples)
            correct = report["correct"]
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for note in report["errors"]:
        print(f"check failed: {note}", file=sys.stderr)
    if report["failures"]:
        print(f"failed ops by cause: {report['failures']}", file=sys.stderr)
    for name, value in sorted(metrics.items()):
        print(f"{name:28s} {value:14.6g} {unit[name]}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": {name: {"value": value, "unit": unit[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
