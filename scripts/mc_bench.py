#!/usr/bin/env python3
"""Analysis-layer benchmark: Monte-Carlo trials and reliability reports per
second, by phase.

    python3 scripts/mc_bench.py                 # the package in ./src
    python3 scripts/mc_bench.py --src OTHER     # the package in OTHER/src

Runs on the benchmark's scenario (stairbench/data/scenario.txt: 15 chunks
of 16 sectors per trial, eight codes) with the distribution that
``stair reliability --validate`` and ``--histogram`` sample
(the ``sampled`` entry of ``cli.parse_scenario``'s model: the scenario's
correlated sector-failure model at its validate_p_sec, 1e-3 by default,
about 1.5% of chunks failed), from the sample of ``--seed 0``.  Each phase
is timed over --trials trials, the best of --reps runs:

  draw       ``sim._failed_cells``: the failed cells of every block alone
  outcomes   ``sim._outcomes``: the draw, bucketed into the sample's
             distinct failure-count multisets
  histogram  ``sim.outcome_histogram`` with every code's predicate: the
             draw, the buckets and each code's verdict on each bucket
  analytic   plain reports (``cli.reliability_rows`` of the scenario: every
             code's stripe-loss DP and MTTDL at each p_bit, no argparse or
             I/O), in reports/s, timed over 20 reports a run
  validated  whole validated reports (``stair reliability --validate
             --histogram --format json`` run in-process through
             ``cli.main``, written to a temporary file), in reports/s

Every phase is timed on its own, warm; none is derived from another.
Prints one JSON object of trials (and reports) per second.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCENARIO = ROOT / "stairbench" / "data" / "scenario.txt"
REPORTS = 20
SEED = 0


def best_seconds(fn, reps: int) -> float:
    fn()   # warm-up: the first call fills the caches
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
    predicates = {f"{kind}{e}": sim.recoverable(kind, cfg) for kind, e, cfg in scenario["codes"]}

    def draw():
        for _ in sim._failed_cells(chunks, dist, args.trials, SEED):
            pass

    def outcomes():
        sim._outcomes(chunks, dist, args.trials, SEED)

    def histogram():
        sim.outcome_histogram(predicates, chunks, dist, trials=args.trials, seed=SEED)

    def analytic():
        for _ in range(REPORTS):
            cli.reliability_rows(scenario)

    with tempfile.TemporaryDirectory() as tmp:
        argv_validated = ["reliability", str(SCENARIO), "--validate", "--histogram",
                          "--trials", str(args.trials), "--seed", str(SEED),
                          "--format", "json", "-o", str(Path(tmp) / "validated.json")]

        def validated():
            if cli.main(argv_validated) != 0:
                raise SystemExit("the validated report failed")

        seconds = {name: best_seconds(fn, args.reps)
                   for name, fn in [("draw", draw), ("outcomes", outcomes),
                                    ("histogram", histogram), ("analytic", analytic),
                                    ("validated", validated)]}
    out = {
        "trials": args.trials, "chunks": chunks, "codes": len(predicates),
        "trials_per_s": {name: round(args.trials / seconds[name])
                         for name in ("draw", "outcomes", "histogram")},
        "reports_per_s": {"validated": round(1 / seconds["validated"], 1),
                          "analytic": round(REPORTS / seconds["analytic"], 1)},
    }
    print(json.dumps(out, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
