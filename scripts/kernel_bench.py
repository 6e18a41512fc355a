#!/usr/bin/env python3
"""L0 benchmark of the GF region kernel, ``Field.matmul_regions``.

    python3 scripts/kernel_bench.py                 # the package in ./src
    python3 scripts/kernel_bench.py --src OTHER     # the package in OTHER/src

Times a 2x15 coefficient block (random nonzero constants) on 15 regions of
512 B, 16 KiB and 128 KiB for w = 8, 16 and 32, and a 2x6 block on
one-word regions (the call overhead), and numpy's in-place XOR of one
region into another as the roofline.  Rates are MiB/s of source bytes
(the 15 regions), the best of --reps batches.  It also times building the
kernel maps of a random 16x16 matrix with the map cache cleared (what a
cold plan pays per new matrix), the median of 21 builds.  Prints one JSON
object.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

SIZES = {"512b": 512, "16kib": 16 << 10, "128kib": 128 << 10}
BLOCK = (2, 15)
SMALL_BLOCK = (2, 6)
COLD_BLOCK = (16, 16)
COLD_BUILDS = 21


def best_seconds(fn, calls: int, reps: int) -> float:
    """Seconds per call, the best of ``reps`` batches of ``calls`` calls."""
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        best = min(best, (time.perf_counter() - t0) / calls)
    return best


def calls_for(nbytes: int) -> int:
    """About 32 MiB of source bytes per batch, at least 20 calls."""
    return max(20, (32 << 20) // nbytes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--reps", type=int, default=7)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src / "src"))
    from staircodes.gf import Field, field_init

    rng = np.random.default_rng(0)
    out = {"kernel_mib_s": {}, "call_us_2x6_one_word": {}, "cold_maps_us_16x16": {},
           "xor_roofline_mib_s": {}}
    for w in (8, 16, 32):
        fld = field_init(w)
        coef = rng.integers(1, fld.order, BLOCK, dtype=np.uint64).astype(fld.word_dtype)
        rates = out["kernel_mib_s"][f"w{w}"] = {}
        for label, size in SIZES.items():
            regions = rng.integers(0, 256, (BLOCK[1], size), dtype=np.uint8)
            fld.matmul_regions(coef, regions)
            sec = best_seconds(lambda: fld.matmul_regions(coef, regions),
                               calls_for(regions.nbytes), args.reps)
            rates[label] = round(regions.nbytes / sec / 2 ** 20, 1)
        small = coef[:SMALL_BLOCK[0], :SMALL_BLOCK[1]].copy()
        words = rng.integers(0, 256, (SMALL_BLOCK[1], fld.word_bytes), dtype=np.uint8)
        fld.matmul_regions(small, words)
        sec = best_seconds(lambda: fld.matmul_regions(small, words), 20_000, args.reps)
        out["call_us_2x6_one_word"][f"w{w}"] = round(sec * 1e6, 2)
        builds = []
        for _ in range(COLD_BUILDS):
            m = rng.integers(1, fld.order, COLD_BLOCK, dtype=np.uint64).astype(fld.word_dtype)
            Field._maps.cache_clear()
            t0 = time.perf_counter()
            fld._maps(m.dtype, m.shape, m.tobytes())
            builds.append(time.perf_counter() - t0)
        out["cold_maps_us_16x16"][f"w{w}"] = round(statistics.median(builds) * 1e6, 1)
    for label, size in SIZES.items():
        dst = rng.integers(0, 256, size, dtype=np.uint8)
        src = rng.integers(0, 256, size, dtype=np.uint8)
        sec = best_seconds(lambda: np.bitwise_xor(dst, src, out=dst), calls_for(size), args.reps)
        out["xor_roofline_mib_s"][label] = round(size / sec / 2 ** 20, 1)
    print(json.dumps(out, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
