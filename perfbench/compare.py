#!/usr/bin/env python3
"""Compare two sets of benchmark results, refusing mismatched machines.

Usage:

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the results/*.json files that perfbench/run.py writes
under <build dir>/perf-out/results. Every file carries the machine
fingerprint: CPU model, nproc, compiler, build type and SCORE_CHECK_CACHE.
Timings are only comparable between equal fingerprints, so the script exits
with code 3 when the two sides (or files within one side) differ. Otherwise
it prints, per workload, trace mode and metric, each side's median and
quartiles and the new/base ratio of the medians.
"""

import json
import statistics
import sys
from pathlib import Path


def load(directory: Path):
    """Returns ({(workload, trace, metric): [values]}, {fingerprints})."""
    values, prints = {}, set()
    for path in sorted(directory.glob("*.json")):
        doc = json.loads(path.read_text())
        prints.add(json.dumps(doc["fingerprint"], sort_keys=True))
        for name, metric in doc["result"]["metrics"].items():
            key = (doc["workload"], doc["trace"], name)
            values.setdefault(key, []).append(metric["value"])
    return values, prints


def summary(vals):
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return q1, statistics.median(vals), q3


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, base_prints = load(Path(sys.argv[1]))
    new, new_prints = load(Path(sys.argv[2]))
    if not base or not new:
        print("compare: no results found", file=sys.stderr)
        return 2
    prints = base_prints | new_prints
    if len(prints) != 1:
        print("compare: refusing to compare timings across machine "
              "fingerprints:", file=sys.stderr)
        for p in sorted(prints):
            print("  " + p, file=sys.stderr)
        return 3
    print(f"fingerprint {prints.pop()}")
    for key in sorted(base.keys() & new.keys()):
        b, n = summary(base[key]), summary(new[key])
        ratio = n[1] / b[1] if b[1] else float("nan")
        workload, trace, name = key
        print(f"{workload:13s} trace{trace} {name:32s} "
              f"base {b[1]:.6g} [{b[0]:.6g}, {b[2]:.6g}] (n={len(base[key])})  "
              f"new {n[1]:.6g} [{n[0]:.6g}, {n[2]:.6g}] (n={len(new[key])})  "
              f"new/base {ratio:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
