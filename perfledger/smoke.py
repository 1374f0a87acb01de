#!/usr/bin/env python3
"""Self-check of the perf ledger at small sizes.

    python3 perfledger/smoke.py

Runs every workload at a small edge for a few seconds through run.py,
untraced and traced, and asserts that:
  - every metric BENCHMARK.json names is printed, with its unit;
  - every program of every phase reproduced its reference output bytes
    and makespan (correct, failed 0, failed_ratio 0), which is the
    traced-vs-untraced identity;
  - the per-layer self times plus trace.unattributed_ms sum to
    trace.wall_ms, the wall measured around the traced runner's calls,
    and the unattributed rest is between 0 and 0.3 ms per program;
  - on a machine with more than one CPU, the host-pool phase ran tasks
    on the pool.
Exits non-zero on the first failed assertion.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SMALL_EDGE = {"paper-quality": 128, "paper-sweep": 256, "serve-mix": 64}
SECONDS = 2
# The traced wall's parts: one self time per layer plus the rest.
WALL_PARTS = ("graph.build_ms", "planner.ms", "sampling.ms", "dispatch.ms",
              "executor.ms", "aggregator.ms", "baseline.ms", "swpipe.ms",
              "trace.unattributed_ms")


def check(ok, what):
    if not ok:
        print(f"smoke: FAIL {what}")
        sys.exit(1)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", str(SECONDS), "--trace", str(trace),
           "--edge", str(SMALL_EDGE[workload])]
    res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = res.stdout.strip().splitlines()
    check(res.returncode == 0 and lines, f"{workload} trace {trace}: exit {res.returncode}")
    printed = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            printed[parts[1]] = (float(parts[2]), parts[3])
    return json.loads(lines[-1]), printed


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in SMALL_EDGE:
        for trace in (0, 1):
            result, printed = run(workload, trace)
            tag = f"{workload} trace {trace}"
            for m in spec["per_layer" if trace else "end_to_end"]:
                check(printed.get(m["name"], (0, None))[1] == m["unit"],
                      f"{tag}: metric {m['name']} not printed with unit {m['unit']}")
            check(result["correct"] and result["failed"] == 0,
                  f"{tag}: a program differed from its reference")
            if not trace:
                continue
            m = {k: v["value"] for k, v in result["metrics"].items()}
            check(m["failed_ratio"] == 0, f"{tag}: failed_ratio {m['failed_ratio']}")
            parts = sum(m[k] for k in WALL_PARTS)
            check(abs(parts - m["trace.wall_ms"]) <= 1e-6 * m["trace.wall_ms"],
                  f"{tag}: layers sum to {parts} ms, traced wall {m['trace.wall_ms']} ms")
            check(0 <= m["trace.unattributed_ms"] < 0.3,
                  f"{tag}: {m['trace.unattributed_ms']} ms per program unattributed")
            if (os.cpu_count() or 1) > 1:
                check(m["threadpool.tasks"] > 0, f"{tag}: the host pool ran no tasks")
            print(f"smoke: {tag}: wall {m['trace.wall_ms']:.3f} ms/program, "
                  f"unattributed {m['trace.unattributed_ms']:.4f} ms, "
                  f"tracing overhead {m['trace.overhead_pct']:.1f}%")
        print(f"smoke: {workload} ok")
    print("smoke: all checks passed")


if __name__ == "__main__":
    main()
