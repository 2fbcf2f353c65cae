#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Configures and builds perfbench/CMakeLists.txt (the S-CORE libraries plus
the score_perf runner) in $CARGO_TARGET_DIR, or .bench_build when unset,
then runs one workload. The runner prints every metric by name with its
unit and, as the last line, one JSON object {"correct", "attempted",
"failed", "metrics"}. Exits non-zero when the build fails or any
correctness check fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["stream-drift", "dist-inproc", "dist-sockets"]
RUN_TIMEOUT_S = 170
BUILD_JOBS = max(1, min(4, os.cpu_count() or 1))


def build(root: Path, build_dir: Path) -> Path:
    """Configure (once) and build score_perf; returns the binary path."""
    source = root / "perfbench"
    log = sys.stderr
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(source), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=log, stderr=log)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "score_perf",
         "-j", str(BUILD_JOBS)],
        check=True, stdout=log, stderr=log)
    return build_dir / "score_perf"


def run_workload(binary: Path, out_dir: Path, args, workload: str):
    """Runs one workload; returns (exit code, parsed last-line JSON or None)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(out_dir)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        return (proc.returncode or 1), None
    return proc.returncode, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    root = Path.cwd()
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = root / build_dir
    try:
        binary = build(root, build_dir)
    except subprocess.CalledProcessError as e:
        print(f"perfbench: build failed ({e})", file=sys.stderr)
        return 2

    if args.self_test:
        return subprocess.run([str(binary), "--self-test"],
                              timeout=RUN_TIMEOUT_S).returncode

    out_dir = build_dir / "perf-out"
    for sub in ("results", "traces"):
        (out_dir / sub).mkdir(parents=True, exist_ok=True)

    if args.workload != "all":
        code, result = run_workload(binary, out_dir, args, args.workload)
        if result is None:
            print(f"perfbench: {args.workload} produced no result",
                  file=sys.stderr)
            return code or 1
        print(json.dumps(result))
        return code

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        code, result = run_workload(binary, out_dir, args, workload)
        worst = worst or code
        if result is None:
            merged["correct"] = False
            continue
        print(json.dumps(result))
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))
    return worst if worst else (0 if merged["correct"] else 1)


if __name__ == "__main__":
    sys.exit(main())
