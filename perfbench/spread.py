#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

For every workload in BENCHMARK.json (or those named), runs the benchmark
command once per seed from the repository root, checks that each run's
last line is a well-formed result with every metric BENCHMARK.json names,
and prints, per end-to-end metric, the median and the spread: the distance
between the first and third quartile (statistics.quantiles, n=4) as a share
of the median, next to the metric's bound.

    python3 perfbench/spread.py --runs 10
    python3 perfbench/spread.py --workloads route_query --runs 5 --first-seed 100
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", str(trace),
    ]
    start = time.monotonic()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - start
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    wanted = bench["per_layer" if trace else "end_to_end"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise RuntimeError(f"{workload} seed {seed}: bad keys {sorted(result)}")
    names = {m["name"]: m["unit"] for m in wanted}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != names:
        raise RuntimeError(f"{workload} seed {seed}: metrics {got} != {names}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        notes = "\n".join(l for l in lines if "MISMATCH" in l or "failed" in l)
        raise RuntimeError(f"{workload} seed {seed}: incorrect run\n{notes}")
    return result, wall, lines


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2 if q2 else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--out", help="write every run's result to this JSON file")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    metrics = bench["per_layer" if args.trace else "end_to_end"]
    record = {}
    worst = 0.0
    failures = 0
    for w in workloads:
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            try:
                result, wall, lines = run_once(bench, w, seed, args.trace)
            except (RuntimeError, ValueError, subprocess.TimeoutExpired) as e:
                print(f"FAILED: {e}")
                failures += 1
                continue
            runs.append({"seed": seed, "wall_s": wall, "result": result})
            if args.trace:
                print("\n".join(lines[:-1]))
            print(f"{w} seed {seed}: {wall:.1f} s", file=sys.stderr)
        record[w] = runs
        if not runs:
            continue
        print(f"\n{w}: {len(runs)} runs, wall {sum(r['wall_s'] for r in runs):.0f} s")
        for m in metrics:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
            if len(values) < 2:
                print(f"  {m['name']:<30} {values[0]:>14.6g}")
                continue
            med, sp = spread(values)
            bound = m.get("bound")
            verdict = ""
            if bound is not None:
                verdict = "ok" if sp < bound / 3 else ("within bound" if sp <= bound else "TOO NOISY")
                if m["name"] != "setup_s":
                    worst = max(worst, sp / bound)
            print(f"  {m['name']:<30} median {med:>14.6g}  spread {sp:8.4f}"
                  + (f"  bound {bound:<5} {verdict}" if bound is not None else ""))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
    if not args.trace:
        print(f"\nworst spread / bound (setup_s excluded): {worst:.3f}")
    if failures:
        print(f"{failures} runs failed")
        sys.exit(1)


if __name__ == "__main__":
    main()
