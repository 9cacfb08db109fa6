"""Run the benchmark once per seed and summarise the spread of each metric.

    python3 bench/collect.py --workload bag-homog-8k --seeds 1-10 --seconds 20 \
        [--trace 0] [--out bench/out/summary-bag-homog-8k.json]

For every metric it prints the median of the per-run values, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and the quartile
spread as a share of the median.  Runs go one after another, never in
parallel, so they do not compete for the same cores.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text: str):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarise(runs):
    """Metric name -> median, quartiles and quartile spread over runs."""
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": med,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
            "values": values,
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    root = os.path.dirname(BENCH_DIR)
    runs = []
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=root, capture_output=True, text=True, check=False, timeout=600)
        result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout else None
        if proc.returncode != 0 or not result or not result["correct"]:
            sys.stderr.write(proc.stdout + proc.stderr)
            print(f"seed {seed}: run failed (exit {proc.returncode})")
            return 1
        runs.append(result)
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in sorted(result["metrics"].items())), flush=True)

    summary = summarise(runs)
    print(f"{'metric':<42} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for name, s in sorted(summary.items()):
        print(f"{name:<42} {s['median']:>12.6g} {s['q1']:>12.6g} {s['q3']:>12.6g} "
              f"{s['spread']:>8.2%}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seconds": args.seconds,
                       "trace": args.trace, "seeds": parse_seeds(args.seeds),
                       "metrics": summary}, fh, indent=2, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
