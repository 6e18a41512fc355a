#!/usr/bin/env python3
"""L3 benchmark: `stair encode`, healthy `stair decode`, `stair inject`
and `stair repair` of one failed chunk per stripe, and `stair repair` of
mixed damage, on a real file, timed by phase.

    python3 scripts/io_bench.py                 # the package in ./src
    python3 scripts/io_bench.py --src OTHER     # the package in OTHER/src

Runs on the two archive geometries of the benchmark (stairbench/), with
the same input sizes: n=8 r=4 m=2 e=1,1,2 at 512 B symbols, 1500 stripes
(about 14.6 MiB), and n=16 r=16 m=1 e=2 at 16 KiB symbols, 8 stripes
(about 29.8 MiB); the last stripe of each input is part full.  The mixed
repair (``repair_mixed_ms``) has the damage of the benchmark's ``rebuild``
workload: the same m chunks lost in every stripe, plus, in a seeded one
stripe in four, sectors within coverage lost on other chunks; lost cells
hold noise, and the manifest has one entry per stripe.  Each
command goes through ``cli.main`` in this process, warm, and is timed
REPS times; the run with the least total time is reported, split into:

  read   reading the input or the container (``container.read_into``):
         encode reads the input straight into the data cells, and
         decode the data cells straight into its output buffer
  copy   moving stripes into and out of repair's wide stripes
         (``container.gather``, ``container.scatter``)
  codec  ``stair_encode`` of every stripe (encode) and ``stair_decode``
         of every wide stripe (repair)
  rest   everything else: writing the output, opening, renaming and
         closing files, header and argument parsing

A phase is timed by wrapping the named functions; a call made from inside
another wrapped call is not counted twice.  Beside the milliseconds,
``rel`` is the median over the REPS runs of a run's time divided by the
mean time of stairbench's ``reference_loop`` run just before and just
after it (stairbench/workloads.py, the benchmark's own ``*_cmd_rel``
denominator).  Other load on a shared host slows both alike, so ``rel``
compares trees measured minutes apart where the milliseconds may not.
``ref_ms`` is the median of those reference-loop means, in milliseconds:
a change that slows the loop run after it lowers ``rel`` without
speeding the command, so read ``rel`` with ``total`` and ``ref_ms``.
Prints one JSON object per command and geometry.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
GEOMETRIES = {   # label: (n, r, m, e, symbol size, stripes)
    "archive_small": (8, 4, 2, (1, 1, 2), 512, 1500),
    "archive_large": (16, 16, 1, (2,), 16384, 8),
}
REPS = 5
PHASES = ("read", "copy", "codec")
# (module of the staircodes package, function, phase) for every timed function
WRAPPED = (("container", "read_into", "read"),
           ("container", "gather", "copy"), ("container", "scatter", "copy"),
           ("cli", "stair_encode", "codec"), ("cli", "stair_decode", "codec"))


class PhaseTimer:
    """Wraps functions by attribute name and sums their time per phase."""

    def __init__(self):
        self.seconds = dict.fromkeys(PHASES, 0.0)
        self._depth = 0

    def wrap(self, owner, attr: str, phase: str) -> None:
        """Time ``owner.attr`` as ``phase``; AttributeError when it does not
        exist, so that a renamed function cannot drop out of its phase."""
        orig = getattr(owner, attr)
        timer = self

        def timed(*args, **kwargs):
            if timer._depth:
                return orig(*args, **kwargs)
            timer._depth += 1
            t0 = time.perf_counter()
            try:
                return orig(*args, **kwargs)
            finally:
                timer.seconds[phase] += time.perf_counter() - t0
                timer._depth -= 1

        setattr(owner, attr, timed)

    def reset(self) -> None:
        self.seconds = dict.fromkeys(PHASES, 0.0)


def _load_reference_loop():
    """stairbench's ``reference_loop``, loaded from its file without
    writing bytecode beside it."""
    spec = importlib.util.spec_from_file_location("stairbench_workloads",
                                                  ROOT / "stairbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module.reference_loop


reference_loop = _load_reference_loop()


def best_split(cli, argv: list[str], timer: PhaseTimer, reps: int) -> dict:
    """Milliseconds of the fastest of ``reps`` runs of ``argv``, by phase,
    the median of each run's time over the reference loop's, and the
    median reference-loop time."""
    best, rel, ref = None, [], []
    for _ in range(reps):
        timer.reset()
        before = reference_loop()
        t0 = time.perf_counter()
        if cli.main(argv) != 0:
            raise SystemExit(f"stair {' '.join(argv)} failed")
        total = time.perf_counter() - t0
        ref.append((before + reference_loop()) / 2)
        rel.append(total / ref[-1])
        if best is None or total < best[0]:
            best = (total, dict(timer.seconds))
    total, phases = best
    out = {"total": total, **phases, "rest": total - sum(phases.values())}
    return {**{name: round(seconds * 1e3, 2) for name, seconds in out.items()},
            "rel": round(statistics.median(rel), 3),
            "ref_ms": round(statistics.median(ref) * 1e3, 2)}


def damage_mixed(box: Path, dmg: Path, manifest: Path, geometry, rng) -> None:
    """Write to ``dmg`` the container ``box`` with the mixed damage, and
    its manifest to ``manifest``."""
    n, r, m, e, symbol, stripes = geometry
    size = box.stat().st_size
    body = np.fromfile(box, dtype=np.uint8)
    head = size - stripes * n * r * symbol
    cells = body[head:].reshape(stripes, n, r, symbol)
    failed = sorted(rng.choice(n, size=m, replace=False).tolist())
    alive = [j for j in range(n) if j not in failed]
    scattered = set(rng.choice(stripes, size=stripes // 4, replace=False).tolist())
    patterns = []
    for k in range(stripes):
        sectors: dict[int, list[int]] = {}
        if k in scattered:    # loss counts under distinct slots of e: within coverage
            count = int(rng.integers(1, len(e) + 1))
            slots = sorted(rng.choice(len(e), size=count, replace=False).tolist())
            for slot, j in zip(slots, rng.choice(alive, size=count, replace=False).tolist()):
                lost = int(rng.integers(1, e[slot] + 1))
                sectors[j] = sorted(rng.choice(r, size=lost, replace=False).tolist())
        cells[k, failed] = rng.integers(0, 256, (m, r, symbol), dtype=np.uint8)
        for j, rows in sectors.items():
            cells[k, j, rows] = rng.integers(0, 256, (len(rows), symbol), dtype=np.uint8)
        patterns.append({"stripe": k, "failed_chunks": failed,
                         "sector_failures": {str(j): rows for j, rows in sorted(sectors.items())}})
    body.tofile(dmg)
    manifest.write_text(json.dumps({
        "config": {"n": n, "r": r, "m": m, "e": list(e), "w": 8},
        "symbol_size": symbol, "within_coverage": True, "patterns": patterns}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--src", type=Path, default=ROOT)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src / "src"))
    from staircodes import cli

    timer = PhaseTimer()
    for module, attr, phase in WRAPPED:
        timer.wrap(importlib.import_module(f"staircodes.{module}"), attr, phase)

    rng = np.random.default_rng(0)
    out = {"reps": REPS}
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        src, box, dst = work / "input.bin", work / "c.stairc", work / "output.bin"
        dmg, fixed, manifest = work / "d.stairc", work / "f.stairc", work / "m.json"
        for label, geometry in GEOMETRIES.items():
            n, r, m, e, symbol, stripes = geometry
            per = (r * (n - m) - sum(e)) * symbol
            data = rng.bytes(stripes * per - per // 3)
            src.write_bytes(data)
            flags = ["--n", str(n), "--r", str(r), "--m", str(m),
                     "--e", ",".join(map(str, e)), "--symbol-size", str(symbol)]
            encode = best_split(cli, ["encode", str(src), "-o", str(box), *flags],
                                timer, REPS)
            decode = best_split(cli, ["decode", str(box), "-o", str(dst)], timer, REPS)
            if dst.read_bytes() != data:
                raise SystemExit(f"{label}: decode did not return the input")
            inject = best_split(cli, ["inject", str(box), "-o", str(dmg), "--spec", "chunks=0",
                                      "--manifest", str(manifest)], timer, REPS)
            repair = best_split(cli, ["repair", str(dmg), "--manifest", str(manifest),
                                      "-o", str(fixed)], timer, REPS)
            if fixed.read_bytes() != box.read_bytes():
                raise SystemExit(f"{label}: repair did not restore the container")
            damage_mixed(box, dmg, manifest, geometry, rng)
            mixed = best_split(cli, ["repair", str(dmg), "--manifest", str(manifest),
                                     "-o", str(fixed)], timer, REPS)
            if fixed.read_bytes() != box.read_bytes():
                raise SystemExit(f"{label}: mixed repair did not restore the container")
            out[label] = {"input_bytes": len(data), "stripes": stripes,
                          "encode_ms": encode, "decode_ms": decode,
                          "inject_ms": inject, "repair_ms": repair,
                          "repair_mixed_ms": mixed}
    print(json.dumps(out, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
