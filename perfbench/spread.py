#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

Usage, from the repository root:

    python3 perfbench/spread.py --workload NAME [--seeds 1-10] [--out PATH]

Runs are untraced. For every end-to-end metric it prints the median and the
quartiles of the per-seed values (`statistics.quantiles(values, n=4)`) and
the spread, (q3 - q1) / median, next to the metric's bound from
BENCHMARK.json. --out writes the same as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out")
    args = parser.parse_args()

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    seconds = str(declared["run_seconds"])
    runs = []
    for seed in parse_seeds(args.seeds):
        started = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", seconds, "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
        elapsed = time.monotonic() - started
        runs.append({"seed": seed, "elapsed_s": elapsed, **result})
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} elapsed={elapsed:.1f}s", file=sys.stderr, flush=True)

    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "bound": bounds[name],
            "values": values,
        }
    print(f"{'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, s in summary.items():
        spread = "-" if s["spread"] is None else f"{s['spread']:.3f}"
        print(f"{name:32} {s['median']:12.5g} {s['q1']:12.5g} {s['q3']:12.5g} "
              f"{spread:>8} {s['bound']:6.2f}")
    all_correct = all(r["correct"] and r["failed"] == 0 for r in runs)
    print(f"all runs correct: {all_correct}")
    if args.out:
        Path(args.out).write_text(json.dumps({
            "workload": args.workload, "run_seconds": int(seconds),
            "seeds": [r["seed"] for r in runs], "all_correct": all_correct,
            "elapsed_s": [round(r["elapsed_s"], 1) for r in runs],
            "metrics": summary}, indent=2) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
