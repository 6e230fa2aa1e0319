#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

    python3 perfbench/spread.py --workload dblp-hit --seeds 1-10 [--trace 1]

Run it from the root of the checkout. For every metric it prints the
median over the runs and the interquartile range as a share of the
median, computed with statistics.quantiles(values, n=4) as the
benchmark's acceptance check does, followed by each run's
env.calib_ms. Raw result lines are appended to
.bench_build/spread-<workload>.jsonl.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="10")
    ap.add_argument("--trace", default="0")
    a = ap.parse_args()

    runs, calib = [], []
    with open(f".bench_build/spread-{a.workload}.jsonl", "a") as log:
        for s in seeds(a.seeds):
            out = subprocess.run(
                ["bash", "perfbench/run.sh", "--workload", a.workload, "--seed", str(s),
                 "--seconds", a.seconds, "--trace", a.trace],
                check=True, capture_output=True, text=True).stdout
            res = json.loads(out.strip().splitlines()[-1])
            m = re.search(r"# calib start_ms=([\d.]+) end_ms=([\d.]+)", out)
            calib.append((float(m.group(1)) + float(m.group(2))) / 2)
            log.write(json.dumps({"seed": s, "calib_ms": calib[-1], **res}) + "\n")
            if not res["correct"] or res["failed"]:
                sys.exit(f"seed {s}: correct={res['correct']} failed={res['failed']}")
            runs.append(res["metrics"])
            print(f"seed {s} done, calib {calib[-1]:.2f} ms", file=sys.stderr)

    print(f"{'metric':32} {'median':>14} {'iqr/median':>10}")
    for name in sorted(runs[0]):
        vals = [r[name]["value"] for r in runs]
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med, med, med]
        rel = (q[2] - q[0]) / med if med else float("nan")
        print(f"{name:32} {med:14.6g} {rel:10.4f}")
    print("calib_ms", " ".join(f"{c:.2f}" for c in calib))


if __name__ == "__main__":
    main()
