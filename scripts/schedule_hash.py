#!/usr/bin/env python3
"""One SHA-256 over the codec's schedules, to show that a change kept them.

    python3 scripts/schedule_hash.py                 # the package in ./src
    python3 scripts/schedule_hash.py --src OTHER     # the package in OTHER/src

Hashes every step (its grid cells from ``stair.signature``, matrix bytes,
shape and dtype) of the three encoders, the extension plan and both decode
modes of 60 seeded patterns, alternately within and beyond coverage, for
the 25 sweep configs of tests/conftest.py and three configs each at w = 16
and 32; a pattern with no schedule adds its error message instead.
Prints the config count, the count of planned decodes and the hash.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(args.src / "src"), str(args.src / "tests")]
    from conftest import SWEEP_CONFIGS
    from staircodes import UnrecoverableError, config_new, decoding_steps, encoding_steps, sim
    from staircodes.stair import _codec, signature

    cfgs = [config_new(n, r, m, e) for n, r, m, e in SWEEP_CONFIGS]
    cfgs += [config_new(n, r, m, e, w) for n, r, m, e in ((8, 4, 2, (1, 1, 2)), (6, 3, 1, (1, 2)),
                                                          (16, 16, 2, (1, 1)))
             for w in (16, 32)]
    digest = hashlib.sha256()

    def feed(cfg, plan):
        for index, s in zip(*plan):
            digest.update(repr(signature(cfg, index, s)).encode() + s.matrix.tobytes()
                          + repr((s.matrix.shape, s.matrix.dtype.str)).encode())

    planned = 0
    for cfg in cfgs:
        for method in ("upstairs", "downstairs", "standard"):
            feed(cfg, encoding_steps(cfg, method))
        feed(cfg, _codec(cfg).extension_plan)
        for k in range(60):
            pattern = sim.sample_pattern(cfg, 1000 * k + 7, within=k % 2 == 0)
            for practical in (True, False):
                try:
                    feed(cfg, decoding_steps(cfg, pattern, practical=practical))
                    planned += 1
                except (UnrecoverableError, ValueError) as exc:
                    digest.update(f"{type(exc).__name__}: {exc}".encode())
    print(len(cfgs), planned, digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
