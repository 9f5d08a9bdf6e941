#!/usr/bin/env python3
"""Steadiness check: run the workloads repeatedly, report spread vs bound.

Runs ``run.py`` untraced ``--runs`` times on every workload in
BENCHMARK.json for its ``run_seconds``, alternating the workloads run
by run and giving every run its own seed, then prints for
each end-to-end metric its median, first and third quartile and the
spread ``(Q3 - Q1) / median`` beside the metric's bound in
BENCHMARK.json, plus the share of failed packets.  Bounds are set from
this output: each spread should stay below a third of its bound.

    python3 perfbench/steady.py --runs 10 --first-seed 101
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv: list[str] | None = None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]

    results: dict[str, list[dict]] = {name: [] for name in names}
    started = time.time()
    for run in range(args.runs):
        for name in names:
            seed = args.first_seed + run
            cmd = [
                sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
            ]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False, cwd=ROOT)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
            if proc.returncode != 0 or not last.startswith("{"):
                print(f"run {run} {name} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                return 1
            results[name].append(json.loads(last))
            print(
                f"# run {run + 1}/{args.runs} {name} seed {seed} "
                f"({time.time() - started:.0f} s elapsed)",
                file=sys.stderr,
            )

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    print(f"{args.runs} runs per workload, {seconds} s each, seeds "
          f"{args.first_seed}..{args.first_seed + args.runs - 1}")
    header = f"{'workload':<12} {'metric':<16} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}"
    print(header)
    for name, runs in results.items():
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            median = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = median
            spread = (q3 - q1) / median if median else float("inf")
            flag = "" if spread < bound / 3 else "  <- above bound/3"
            if flag:
                steady = False
            print(f"{name:<12} {metric:<16} {median:>14.4f} {q1:>14.4f} {q3:>14.4f} "
                  f"{spread:>8.4f} {bound:>6.2f}{flag}")
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        correct = all(r["correct"] for r in runs)
        print(f"{name:<12} failed {failed}/{attempted} packets, correct {correct}")
    return 0 if steady else 2


if __name__ == "__main__":
    sys.exit(main())
