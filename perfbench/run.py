#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The benchmark is a CMake package of its own (perfbench/CMakeLists.txt) that
compiles the library from src/. It is built into $CARGO_TARGET_DIR (default
.bench_build) under the repository root, then the `perfbench` binary runs the
workload. Its stdout is passed through; the last line is the JSON result,
checked here against the metric names and units BENCHMARK.json declares.
Optional: --report PATH writes the run's full report (context, sources,
sample counts, stage table) as JSON.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# The binary keeps a run within 160 s (kBudgetS in perfbench.cc) by ending its
# phases early, so a slow program still reports numbers; this only catches a
# run that hangs.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = Path(target)
    if not path.is_absolute():
        path = ROOT / path
    return path / "perfbench"


def build():
    """Configures (once) and builds the benchmark; returns the build dir."""
    if not (ROOT / "src").is_dir():
        log(f"library sources not found under {ROOT / 'src'}")
        return None
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout's last line is the result.
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return None
    return out


def source_digest():
    h = hashlib.sha256()
    for base in ("src", "perfbench"):
        for path in sorted((ROOT / base).rglob("*")):
            if path.is_file() and path.suffix in (".h", ".cc", ".txt"):
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit():
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    if proc.returncode != 0:
        return "unknown"
    dirty = subprocess.run(["git", "status", "--porcelain", "--", "src", "perfbench"],
                           cwd=ROOT, capture_output=True, text=True, timeout=10)
    return proc.stdout.strip() + ("+dirty" if dirty.stdout.strip() else "")


def check_result(line, trace):
    """Refuses a result line that does not match BENCHMARK.json's contract."""
    try:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        result = json.loads(line)
    except (OSError, ValueError) as err:
        return f"unreadable result or BENCHMARK.json: {err}"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys {sorted(result)}"
    wanted = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != wanted:
        missing = sorted(set(wanted) - set(got))
        extra = sorted(set(got) - set(wanted))
        units = sorted(n for n in set(got) & set(wanted) if got[n] != wanted[n])
        return f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}, units {units}"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", help="write the full JSON report here")
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the helpers' self-test")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    started = time.monotonic()
    out = build()
    if out is None:
        return 1
    log(f"build ready in {time.monotonic() - started:.1f}s")

    if args.selftest:
        return subprocess.run([str(out / "perfbench_selftest")], cwd=ROOT).returncode

    cmd = [str(out / "perfbench"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit(), "--source-digest", source_digest()]
    if args.report:
        cmd += ["--report", str(Path(args.report).resolve())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark did not finish within {RUN_TIMEOUT_S}s")
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        log(f"benchmark exited with {proc.returncode} and no result")
        return proc.returncode or 1
    problem = check_result(lines[-1], args.trace == 1)
    if problem:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        log(problem)
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
