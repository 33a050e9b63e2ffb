#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports how steady it is.

    python3 perfbench/steadiness.py [--workloads slide,query,sharded]
        [--seeds 1-10] [--out perfbench/results/baseline.json]
        [--compare perfbench/results/baseline.json]

Each run goes through run.py exactly as a single benchmark run does. For
every end-to-end metric it prints the median, the quartiles (Python's
statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median, next
to the metric's bound in BENCHMARK.json; the spread should stay below a
third of the bound. Timings are also summarized as measured, before
host-speed scaling ("unscaled"). With --out the figures are written as
JSON. With --compare, each median is set against the same median of an
earlier --out file, scaled and unscaled, and a metric whose verdict
(worse by more than its bound, or not) differs between the two is flagged.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--compare")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs, wall = [], []
        for seed in parse_seeds(args.seeds):
            start = time.monotonic()
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            wall.append(time.monotonic() - start)
            if done.returncode != 0:
                sys.exit("%s seed %d failed (exit %d)" % (workload, seed, done.returncode))
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if not result["correct"]:
                sys.exit("%s seed %d reported incorrect answers" % (workload, seed))
            figures, unscaled = dict(result["metrics"]), {}
            for line in lines:
                if line.startswith(run.NOT_GATED):
                    figures.update(json.loads(line[len(run.NOT_GATED):]))
                elif line.startswith(run.UNSCALED):
                    name, value, _ = line[len(run.UNSCALED):].split()
                    unscaled[name] = float(value)
            runs.append((figures, unscaled))
        metrics = {}
        print("%s: %d runs, %.1f-%.1f s each" % (workload, len(runs), min(wall), max(wall)))
        for name in runs[0][0]:
            if any(name not in figures for figures, _ in runs):
                continue
            s = summarize([figures[name]["value"] for figures, _ in runs])
            s["unit"] = runs[0][0][name]["unit"]
            if all(name in unscaled for _, unscaled in runs):
                s["unscaled"] = summarize([unscaled[name] for _, unscaled in runs])
            metrics[name] = s
            bound = bounds.get(name)
            flag = "" if bound is None or s["spread"] < bound / 3 else "  <-- above bound/3"
            raw = ("  unscaled median %12.6g spread %6.3f"
                   % (s["unscaled"]["median"], s["unscaled"]["spread"])) if "unscaled" in s else ""
            print("  %-38s median %12.6g  q1 %12.6g  q3 %12.6g  spread %6.3f  bound %s%s%s"
                  % (name, s["median"], s["q1"], s["q3"], s["spread"], bound, raw, flag))
        report["workloads"][workload] = {"run_wall_s": wall, "metrics": metrics}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    if args.compare:
        print("against %s:" % args.compare)
        compare(report, json.loads(Path(args.compare).read_text()), spec)


def compare(report, earlier, spec):
    """Prints each gated median against the earlier report's, scaled and
    unscaled, with the verdict of each."""
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    def change(now, then, name):
        # How much worse `now` is than `then`, as a share of `then`.
        worse = (now - then) / then
        return -worse if better[name] == "higher" else worse

    for workload, current in report["workloads"].items():
        before = earlier["workloads"].get(workload, {}).get("metrics", {})
        for name in bounds:
            now, then = current["metrics"].get(name), before.get(name)
            if now is None or then is None or not then["median"]:
                continue
            scaled = change(now["median"], then["median"], name)
            line = "  %-8s %-22s scaled %+7.3f" % (workload, name, scaled)
            if "unscaled" in now and "unscaled" in then:
                unscaled = change(now["unscaled"]["median"], then["unscaled"]["median"], name)
                line += "  unscaled %+7.3f" % unscaled
                if (scaled > bounds[name]) != (unscaled > bounds[name]):
                    line += "  <-- scaling changes the verdict"
            print(line + ("  <-- worse than bound %s" % bounds[name] if scaled > bounds[name]
                          else ""))


if __name__ == "__main__":
    main()
