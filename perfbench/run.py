#!/usr/bin/env python3
"""Runs one workload of the repo benchmark and prints its metrics.

    python3 perfbench/run.py --workload slide|query|sharded --seed N \
        --seconds S --trace 0|1

Builds perfbench_workload from source on first use (into .bench_build/ at the
repository root), runs it, and prints every metric by name with its unit;
the last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With --trace 0 the metrics
are the end-to-end ones; with --trace 1 they are the per-layer ones, taken
from a traced run, plus the tracing overhead against an untraced run of
the same seed. See README.md for the workloads and metric definitions.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import aggregate  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
PROGRAM = BUILD / "perfbench_workload"
WORKLOADS = ("slide", "query", "sharded")
# A run must end within 180 s of starting, builds aside.
RUN_BUDGET_S = 170
# Seeds 1-10 are the steadiness seeds; HELD_OUT_SEED was never run while the
# benchmark was tuned and is kept for validating a later claim.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
# Prefix of the line carrying the latencies that are printed but not gated.
NOT_GATED = "# not gated: "
# Prefix of the lines carrying timings as measured, before host-speed scaling.
UNSCALED = "# unscaled "


def build():
    """Configures and builds perfbench_workload; exits 1 with the log tail on failure."""
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", str(BUILD), "--target", "perfbench_workload", "-j", jobs],
    ]
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                tail = log_path.read_text().splitlines()[-20:]
                sys.stderr.write("build failed: %s\n%s\n" % (" ".join(cmd), "\n".join(tail)))
                sys.exit(1)


def run_workload(workload, seed, seconds, trace, deadline=None):
    cmd = [str(PROGRAM), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    timeout = RUN_BUDGET_S if deadline is None else max(1.0, deadline - time.monotonic())
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench_workload timed out\n")
        sys.exit(1)
    if done.returncode != 0:
        sys.stderr.write("perfbench_workload exited with %d\n" % done.returncode)
        sys.exit(1)
    (BUILD / ("last_%s_trace%d.json" % (workload, 1 if trace else 0))).write_bytes(done.stdout)
    return json.loads(done.stdout)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    deadline = time.monotonic() + RUN_BUDGET_S
    if args.trace:
        untraced = run_workload(args.workload, args.seed, args.seconds, False, deadline)
        raw = run_workload(args.workload, args.seed, args.seconds, True, deadline)
        overhead = raw["measured_wall_s"] / untraced["measured_wall_s"] - 1.0
        metrics = aggregate.per_layer(raw, overhead)
    else:
        raw = run_workload(args.workload, args.seed, args.seconds, False, deadline)
        metrics = aggregate.end_to_end(raw)

    stamp = raw["stamp"]
    print("# host: nproc=%d cpu=%s backend=%s threads=%d"
          % (stamp["nproc"], stamp["cpu"], stamp["backend"], stamp["threads"]))
    print("# workload: " + json.dumps(stamp, sort_keys=True))
    print("# deterministic: " + json.dumps(aggregate.deterministic(raw), sort_keys=True))
    if not args.trace:
        extra = {name: {"value": value, "unit": unit}
                 for name, (value, unit) in aggregate.not_gated(raw).items() if value is not None}
        print(NOT_GATED + json.dumps(extra))
        unscaled = list(aggregate.end_to_end(raw, normalize=False).items())
        unscaled += list(aggregate.not_gated(raw, normalize=False).items())
        for name, (value, unit) in unscaled:
            if value is not None and unit in ("s", "us", "rows/s", "1/s"):
                print(UNSCALED + "%s %.9g %s" % (name, value, unit))
    missing = [name for name, (value, _) in metrics.items() if value is None]
    if missing:
        sys.stderr.write("metrics without enough samples: %s\n" % ", ".join(missing))
        sys.exit(1)
    for name, (value, unit) in metrics.items():
        print("%s %.9g %s" % (name, value, unit))

    mismatched = raw["verified"] - raw["matched"]
    result = {
        "correct": raw["failed_ops"] == 0 and mismatched == 0 and raw["verified"] > 0,
        "attempted": raw["attempted"],
        "failed": raw["failed_ops"] + mismatched,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
