#!/usr/bin/env python3
"""Microseconds a decode plan, to time schedule construction apart from
kernel time.

    python3 scripts/plan_bench.py                 # the package in ./src
    python3 scripts/plan_bench.py --src OTHER     # the package in OTHER/src

Plans every within-coverage pattern of (6, 3, 1, (1, 2)) and every 13th of
(8, 4, 2, (1, 1, 2)), the two shapes of acceptance criterion 2, once with
``practical`` True and once False.  Each pass clears the plan cache first
and calls the cached planner, so every plan is a miss; the interned steps
(``_Codec.line_step``) are warmed by one untimed pass.  Prints, per shape
and ``practical`` value, the pattern count and the fastest of three passes
in microseconds a plan.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

SHAPES = (((6, 3, 1, (1, 2)), 1), ((8, 4, 2, (1, 1, 2)), 13))   # (shape, stride)
PASSES = 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(args.src / "src"), str(args.src / "tests")]
    from oracles import iter_within_coverage_patterns
    from staircodes import config_new
    from staircodes.stair import _decode_plan

    for shape, stride in SHAPES:
        cfg = config_new(*shape)
        patterns = list(iter_within_coverage_patterns(cfg))[::stride]
        for practical in (True, False):
            times = []
            for _ in range(PASSES + 1):                  # the first pass warms the steps
                _decode_plan.cache_clear()
                start = time.perf_counter()
                for pattern in patterns:
                    _decode_plan(cfg, pattern, practical)
                times.append(time.perf_counter() - start)
            best = min(times[1:]) / len(patterns) * 1e6
            print(f"{shape} practical={practical} {len(patterns)} plans {best:.1f} us/plan")
    return 0


if __name__ == "__main__":
    sys.exit(main())
