#!/usr/bin/env python3
"""End-to-end serving benchmark of the Palmtrie serving stack.

Runs one closed-loop workload through the program's public serving
surfaces, checks every verdict against the benchmark's own brute-force
oracle, and prints the metrics; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.

    python3 perfbench/run.py --workload tenant-zipf --seed 1 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics of an untraced run.
``--trace 1`` reports the per-layer metrics instead: it serves half the
time untraced, then half with every layer's public functions wrapped in
spans (written to ``perfbench/out/``), prints the per-layer table and
reports the tracing overhead as traced minus untraced throughput.
``--workload all`` runs every workload, each in its own process.

The program is imported from ``src/`` of the checkout this file sits
in; without it the benchmark exits with an error and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Any

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

#: (name, unit) of the end-to-end metrics, reported by untraced runs
END_TO_END = (
    ("throughput_pps", "pkt/s"),
    ("burst_p50_us", "us"),
    ("burst_p90_us", "us"),
    ("setup_s", "s"),
    ("plane_bytes", "B"),
    ("peak_rss_mb", "MiB"),
)

#: (name, unit) of the per-layer metrics, reported by traced runs
PER_LAYER = (
    ("tenant.admit_us_per_burst", "us"),
    ("tenant.bucket_calls_per_burst", "count"),
    ("engine.self_us_per_burst", "us"),
    ("engine.hit_ratio", "ratio"),
    ("engine.misses_per_burst", "count"),
    ("frozen.calls_per_burst", "count"),
    ("frozen.queries_per_call", "count"),
    ("frozen.walk_us_per_call", "us"),
    ("frozen.node_visits_per_query", "count"),
    ("guard.shadow_checks_per_burst", "count"),
    ("guard.shadow_us_per_burst", "us"),
    ("obs.observations_per_burst", "count"),
    ("update.apply_ms", "ms"),
    ("update.refreeze_ms", "ms"),
    ("update.invalidated_rows", "count"),
    ("update_to_serve_p50_ms", "ms"),
    ("stream.self_us_per_burst", "us"),
    ("stream.batches_per_burst", "count"),
    ("shard.call_us_per_burst", "us"),
    ("shard.worker_hit_ratio", "ratio"),
    ("shard.worker_lookups_per_burst", "count"),
    ("acl.compile_ms", "ms"),
    ("core.build_ms", "ms"),
    ("core.freeze_ms", "ms"),
    ("shard.spawn_ms", "ms"),
    ("trace.overhead_pps", "pkt/s"),
)


def import_program() -> None:
    """Put the checkout's ``src/`` first on the path and import the
    program from there, or exit with an error."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        sys.exit(f"error: program source not found under {src}")
    sys.path.insert(0, src)
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        sys.exit(f"error: imported repro from {repro.__file__}, not from {src}")


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def end_to_end(phase: Any) -> dict[str, float]:
    from workloads import peak_rss_mb, quantile

    return {
        "throughput_pps": phase.throughput_pps,
        "burst_p50_us": quantile(phase.burst_seconds, 0.5) * 1e6,
        "burst_p90_us": quantile(phase.burst_seconds, 0.9) * 1e6,
        "setup_s": statistics.median(phase.setup_seconds),
        "plane_bytes": phase.plane_bytes,
        "peak_rss_mb": peak_rss_mb() + phase.worker_private_mb,
    }


def trace_hooks() -> dict[str, Any]:
    """Counters read around a traced call (work done inside the span)."""

    def frozen(tracer: Any, args: tuple) -> Any:
        plane, queries = args[0], args[1]
        tracer.count("frozen.queries", len(queries))
        before = plane.batch_walk_node_visits
        return lambda: tracer.count("frozen.node_visits", plane.batch_walk_node_visits - before)

    def stream(tracer: Any, args: tuple) -> Any:
        pipeline = args[0]
        return lambda: tracer.count("stream.batches", pipeline.batches)

    return {"FrozenMatcher.lookup_batch": frozen, "StreamPipeline.run": stream}


def per_layer(tracer: Any, traced: Any, untraced: Any, setups: int) -> dict[str, float]:
    """The per-layer metrics of a traced phase (``traced``)."""
    bursts = traced.bursts

    def calls(name: str, phase: str = "serve") -> int:
        return tracer.total(phase, name)[0]

    def total(name: str, phase: str = "serve") -> float:
        return tracer.total(phase, name)[1]

    def self_time(name: str, phase: str = "serve") -> float:
        return tracer.total(phase, name)[2]

    def delta(key: str) -> float:
        return traced.after.get(key, 0) - traced.before.get(key, 0)

    frozen_calls = calls("FrozenMatcher.lookup_batch")
    frozen_queries = tracer.counts.get(("serve", "frozen.queries"), 0)
    updates = calls("ClassificationEngine.apply_updates")
    return {
        "tenant.admit_us_per_burst": ratio(
            self_time("TenantRouter.lookup_batch")
            + self_time("Tenant.lookup_batch")
            + self_time("TokenBucket.take"),
            bursts,
        ) * 1e6,
        "tenant.bucket_calls_per_burst": ratio(calls("TokenBucket.take"), bursts),
        "engine.self_us_per_burst": ratio(self_time("ClassificationEngine.lookup_batch"), bursts) * 1e6,
        "engine.hit_ratio": ratio(delta("hits"), delta("lookups")),
        "engine.misses_per_burst": ratio(delta("misses"), bursts),
        "frozen.calls_per_burst": ratio(frozen_calls, bursts),
        "frozen.queries_per_call": ratio(frozen_queries, frozen_calls),
        "frozen.walk_us_per_call": ratio(self_time("FrozenMatcher.lookup_batch"), frozen_calls) * 1e6,
        "frozen.node_visits_per_query": ratio(
            tracer.counts.get(("serve", "frozen.node_visits"), 0), frozen_queries
        ),
        "guard.shadow_checks_per_burst": ratio(delta("shadow_checks"), bursts),
        "guard.shadow_us_per_burst": ratio(total("SortedListMatcher.lookup"), bursts) * 1e6,
        "obs.observations_per_burst": ratio(calls("Histogram.observe"), bursts),
        "update.apply_ms": ratio(total("ClassificationEngine.apply_updates"), updates) * 1e3,
        "update.refreeze_ms": ratio(
            total("FrozenMatcher.from_matcher"), calls("FrozenMatcher.from_matcher")
        ) * 1e3,
        "update.invalidated_rows": ratio(delta("invalidated"), updates),
        "update_to_serve_p50_ms": (
            statistics.median(untraced.update_to_serve) * 1e3 if untraced.update_to_serve else 0.0
        ),
        "stream.self_us_per_burst": ratio(self_time("StreamPipeline.run"), bursts) * 1e6,
        "stream.batches_per_burst": ratio(tracer.counts.get(("serve", "stream.batches"), 0), bursts),
        "shard.call_us_per_burst": ratio(total("ShardedEngine.lookup_batch"), bursts) * 1e6,
        "shard.worker_hit_ratio": ratio(delta("worker_hits"), delta("worker_lookups")),
        "shard.worker_lookups_per_burst": ratio(delta("worker_lookups"), bursts),
        "acl.compile_ms": ratio(
            total("parse_acl", "setup") + total("compile_acl", "setup"), setups
        ) * 1e3,
        "core.build_ms": ratio(total("build_matcher", "setup"), setups) * 1e3,
        "core.freeze_ms": ratio(total("FrozenMatcher.from_matcher", "setup"), setups) * 1e3,
        "shard.spawn_ms": ratio(self_time("ShardedEngine.__init__", "setup"), setups) * 1e3,
        "trace.overhead_pps": traced.throughput_pps - untraced.throughput_pps,
    }


def run_one(args: argparse.Namespace) -> int:
    import_program()
    from workloads import WORKLOADS

    make = WORKLOADS[args.workload]
    if make.one_cpu:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        return report(args, make)
    finally:
        stop_resource_tracker()


def stop_resource_tracker() -> None:
    """Stop the helper process multiprocessing starts to track shared
    memory, and wait for it (the shard engine has unlinked its segments
    by then)."""
    from multiprocessing import resource_tracker

    stop = getattr(getattr(resource_tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        stop()


def report(args: argparse.Namespace, make: Any) -> int:
    """Run the workload, print the metrics and the result line."""
    from spans import Tracer
    from workloads import SETUPS, run_phase

    if args.trace:
        untraced = run_phase(make(args.seed), args.seconds / 2, corrupt=args.corrupt_verdict)
        tracer = Tracer()
        tracer.install(trace_hooks())
        try:
            traced = run_phase(make(args.seed), args.seconds / 2, tracer=tracer)
        finally:
            tracer.uninstall()
        phases = [untraced, traced]
        metrics = per_layer(tracer, traced, untraced, SETUPS)
        units = dict(PER_LAYER)
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.jsonl")
        tracer.write(spans_path)
        print(f"# per-layer table, traced phase, {traced.bursts} bursts")
        for line in tracer.table("serve", traced.bursts):
            print(line)
        print(f"# set-up spans, {SETUPS} set-ups")
        for line in tracer.table("setup", SETUPS, "set-up"):
            print(line)
        print(
            f"# spans: {len(tracer.spans)} written to {os.path.relpath(spans_path, ROOT)}"
            f" ({tracer.dropped_spans} beyond the cap aggregated only)"
        )
        print(
            f"# tracing overhead: {traced.throughput_pps:.0f} traced - "
            f"{untraced.throughput_pps:.0f} untraced = {metrics['trace.overhead_pps']:.0f} pkt/s"
        )
    else:
        phase = run_phase(make(args.seed), args.seconds, corrupt=args.corrupt_verdict)
        phases = [phase]
        metrics = end_to_end(phase)
        units = dict(END_TO_END)
        print(
            f"# {args.workload} seed {args.seed}: {phase.bursts} measured bursts, "
            f"{phase.measured_packets} packets, {len(phase.update_seconds)} updates"
        )
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    mismatches = sum(p.mismatches for p in phases)
    for name, value in metrics.items():
        print(f"{name:<34} {value:>16.4f} {units[name]}")
    print(f"{'packets attempted':<34} {attempted:>16d}")
    print(f"{'packets failed':<34} {failed:>16d}  (oracle mismatches {mismatches})")
    # A run with any failed packet fails: each workload answers every
    # offered packet, with the verdict the oracle gives.
    correct = failed == 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each in a fresh process; the last line sums them."""
    from workloads import WORKLOADS

    summary: dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "workloads": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print(f"## {name}")
        for line in lines[:-1]:
            print(line)
        status = status or proc.returncode
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if result is None:
            summary["correct"] = False
            continue
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["workloads"][name] = result
    print(json.dumps(summary))
    return status


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--corrupt-verdict", action="store_true",
        help="bend one served verdict before the check (the run must then fail)",
    )
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
