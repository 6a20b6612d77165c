#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 absbench/spread.py --workloads dense-tts,sparse-tts --seeds 1-10

Runs absbench/run.py once per (workload, seed), sequentially, from the
current directory (a source checkout), and prints for every end-to-end
metric the median of the runs and the distance between their first and
third quartiles as a share of that median, next to a third of the
metric's bound in BENCHMARK.json. The per-run lines go to
.bench_out/spread.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds_of(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    with open("BENCHMARK.json") as handle:
        spec = json.load(handle)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    os.makedirs(".bench_out", exist_ok=True)
    log = open(os.path.join(".bench_out", "spread.jsonl"), "a")
    worst = 0.0
    for workload in args.workloads.split(","):
        values = {}
        for seed in seeds_of(args.seeds):
            run = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(args.trace)],
                capture_output=True, text=True)
            lines = run.stdout.strip().splitlines()
            if run.returncode != 0 or not lines:
                print("%s seed %d failed (exit %d)\n%s" %
                      (workload, seed, run.returncode, run.stderr[-2000:]))
                return 1
            result = json.loads(lines[-1])
            log.write(json.dumps({"workload": workload, "seed": seed,
                                  "result": result}) + "\n")
            log.flush()
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print("%s (%d runs of %gs)" % (workload, len(seeds_of(args.seeds)),
                                       seconds))
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            limit = bounds.get(name, 0.0) / 3
            flag = "" if spread < limit else "  WIDE"
            worst = max(worst, spread / limit if limit else 0.0)
            print("  %-18s median %14.6g  spread %6.3f  (bound/3 %5.3f)%s" %
                  (name, med, spread, limit, flag))
    print("widest spread / (bound/3): %.2f" % worst)
    return 0


if __name__ == "__main__":
    sys.exit(main())
