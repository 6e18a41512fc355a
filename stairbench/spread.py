#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 stairbench/spread.py --workloads archive_small,rebuild --seeds 1-10

Runs one workload at a time, one seed at a time, from the root of a source
tree.  For every metric it prints the median of the runs and the distance
between the first and third quartiles (``statistics.quantiles(n=4)``) as a
share of that median, next to the metric's bound from BENCHMARK.json.
The runs are untraced: the end-to-end metrics are the bounded ones.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    status = 0
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [*spec["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-3000:]}")
                return 1
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: incorrect\n{proc.stderr[-3000:]}")
                status = 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds[name]
            mark = "ok" if spread < bound / 3 else "WIDE"
            print(f"{workload:14s} {name:34s} median {med:<12.6g} spread {spread:.4f}"
                  f"  bound {bound}  {mark}")
        sys.stdout.flush()
    return status


if __name__ == "__main__":
    sys.exit(main())
