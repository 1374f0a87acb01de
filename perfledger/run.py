#!/usr/bin/env python3
"""Build and run the perf-ledger benchmark (see perfledger/METRICS.md).

    python3 perfledger/run.py --workload paper-quality --seed 1 \
        --seconds 30 --trace 0

Run from the repository root. The first run configures and builds the
SHMT libraries plus the perf_ledger program from source into
$CARGO_TARGET_DIR/perfledger (default .bench_build/perfledger); later
runs only re-check the build. perf_ledger's metric lines are echoed; the
last line printed is the JSON result, holding every end-to-end metric of
BENCHMARK.json (--trace 0) or every per-layer metric (--trace 1).

A run of a seed recorded in paper_reference.json, at the workload's
default edge, must also reproduce the recorded simulated figures
(mape_pct, sim_error_pct, sim_speedup_gmean, sim_makespan_ms); drift
beyond the recorded tolerance makes the result "correct": false.

Exit codes: 0 ok, 1 a program's output or makespan differed from its
reference or a simulated figure drifted from the record, 2 usage or
build failure, 3 perf_ledger failed or timed out, 4 perf_ledger's
output broke the BENCHMARK.json contract.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper-quality", "paper-sweep", "serve-mix")
# Seconds a perf_ledger run may take before it is killed.
RUN_TIMEOUT_S = 170


def fail(code, message):
    print(f"perfledger: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfledger")


def build(out_dir):
    """Configure (once) and build the perf_ledger target; return its path."""
    cache = os.path.join(out_dir, "CMakeCache.txt")
    if os.path.exists(cache):
        # A cache made for another source tree cannot be reused.
        with open(cache) as f:
            home = [l.split("=", 1)[1].strip() for l in f
                    if l.startswith("CMAKE_HOME_DIRECTORY:")]
        if home != [HERE]:
            shutil.rmtree(out_dir)
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "--target", "perf_ledger",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True)
        if res.returncode != 0:
            sys.stderr.write(res.stdout[-6000:])
            fail(2, "build failed: " + " ".join(cmd))
    return os.path.join(out_dir, "perf_ledger")


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(2, f"cannot read {path}: {e}")


def check_contract(result, spec, trace):
    """The result must carry exactly the metrics BENCHMARK.json lists."""
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result.get("metrics", {})
    problems = []
    for name, unit in want.items():
        m = got.get(name)
        if m is None:
            problems.append(f"missing metric {name}")
        elif m.get("unit") != unit:
            problems.append(f"{name}: unit {m.get('unit')} != {unit}")
        elif not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
            problems.append(f"{name}: value {m.get('value')!r}")
    problems += [f"unlisted metric {n}" for n in got if n not in want]
    for key in ("correct", "attempted", "failed"):
        if key not in result:
            problems.append(f"missing {key}")
    if problems:
        fail(4, "contract: " + "; ".join(problems))


def check_fidelity(fidelity, workload, seed, reference):
    """Print the simulated figures; False if they drifted from the record."""
    names = ("mape_pct", "sim_error_pct", "sim_speedup_gmean", "sim_makespan_ms")
    print("fidelity: " + ", ".join(f"{n} {fidelity[n]:.12g}" for n in names))
    expected = reference["expected"].get(str(seed), {}).get(workload)
    if not expected or fidelity["edge"] != reference["edge"][workload]:
        return True
    drift = [f"{n} {fidelity[n]:.12g} (recorded {want})"
             for n, want in expected.items()
             if abs(fidelity[n] - want) > reference["tolerance"] * abs(want)]
    if drift:
        print(f"perfledger: fidelity drift on {workload} seed {seed}: " + ", ".join(drift),
              file=sys.stderr)
        return False
    print(f"fidelity: matches the record for seed {seed}")
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--edge", type=int, default=0,
                    help="dataset edge (default: the workload's own)")
    args = ap.parse_args()

    out_dir = build_dir()
    exe = build(out_dir)
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    reference = load_json(os.path.join(HERE, "paper_reference.json"))
    paper_ws = ",".join(f"{k}={v}" for k, v in reference["work_stealing_4096"].items())

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--edge", str(args.edge), "--paper-ws", paper_ws]
    if args.trace:
        cmd += ["--spans-out",
                os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.csv")]
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(3, f"perf_ledger timed out after {RUN_TIMEOUT_S} s")
    lines = res.stdout.strip().splitlines()
    if res.returncode not in (0, 1) or not lines:
        fail(3, f"perf_ledger exited with {res.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(3, "perf_ledger printed no result")

    for line in lines[:-1]:
        print(line)
    check_contract(result, spec, args.trace)
    if not check_fidelity(result["fidelity"], args.workload, args.seed, reference):
        result["correct"] = False
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    sys.stdout.flush()
    sys.exit(0 if result["correct"] and res.returncode == 0 else 1)


if __name__ == "__main__":
    main()
