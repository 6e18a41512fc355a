#!/usr/bin/env python3
"""Analysis-layer benchmark: Monte-Carlo trials and analytic reports per
second, by phase.

    python3 scripts/mc_bench.py                 # the package in ./src
    python3 scripts/mc_bench.py --src OTHER     # the package in OTHER/src

Runs on the benchmark's scenario (stairbench/data/scenario.txt: 15 chunks
of 16 sectors per trial, eight codes) with the distribution that
``stair reliability --validate`` and ``--histogram`` sample
(the ``sampled`` entry of ``cli.parse_scenario``'s model: the scenario's
correlated sector-failure model at its validate_p_sec, 1e-3 by default,
about 1.5% of chunks failed).  Each phase is timed over --trials trials,
the best of --reps runs:

  draw       ``sim._count_blocks``: the per-chunk failure counts alone, as
             rows of the trials with a failed chunk
  predicate  every code's predicate over those rows, in code-trials/s of
             all the trials drawn
  histogram  ``sim.outcome_histogram`` with every code's predicate, draw included
  bucketing  the histogram without its draw (histogram time less draw time)
  analytic   plain reports (``cli.reliability_rows`` of the scenario: every
             code's stripe-loss DP and MTTDL at each p_bit, no argparse or
             I/O), in reports/s, timed over 20 reports a run, warm

Prints one JSON object of trials (and reports) per second.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCENARIO = ROOT / "stairbench" / "data" / "scenario.txt"
REPORTS = 20


def best_seconds(fn, reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--src", type=Path, default=ROOT)
    parser.add_argument("--trials", type=int, default=100_000)
    parser.add_argument("--reps", type=int, default=7)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src / "src"))
    from staircodes import cli, sim

    scenario = cli.parse_scenario(SCENARIO.read_text())
    chunks, dist = scenario["chunks"], scenario["sampled"]
    seed = cli.VALIDATE_SEED
    predicates = {f"{kind}{e}": sim.recoverable(kind, cfg) for kind, e, cfg in scenario["codes"]}

    def draw():
        for _ in sim._count_blocks(chunks, dist, args.trials, seed):
            pass

    hit_rows = [rows for _, _, rows in sim._count_blocks(chunks, dist, args.trials, seed)]

    def verdicts():
        for predicate in predicates.values():
            for rows in hit_rows:
                predicate(rows)

    def histogram():
        sim.outcome_histogram(predicates, chunks, dist, trials=args.trials, seed=seed)

    def analytic():
        for _ in range(REPORTS):
            cli.reliability_rows(scenario)

    draw_s = best_seconds(draw, args.reps)
    predicate_s = best_seconds(verdicts, args.reps)
    histogram_s = best_seconds(histogram, args.reps)
    analytic()   # warm-up: the first report fills the caches
    analytic_s = best_seconds(analytic, args.reps)
    out = {
        "trials": args.trials, "chunks": chunks, "codes": len(predicates),
        "trials_per_s": {
            "draw": round(args.trials / draw_s),
            "predicate": round(args.trials * len(predicates) / predicate_s),
            "histogram": round(args.trials / histogram_s),
            "bucketing": round(args.trials / (histogram_s - draw_s)),
        },
        "reports_per_s": {"analytic": round(REPORTS / analytic_s, 1)},
    }
    print(json.dumps(out, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
