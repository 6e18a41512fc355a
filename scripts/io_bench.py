#!/usr/bin/env python3
"""L3 benchmark: the `stair` commands of the benchmark's archive and
rebuild workloads on a real file, timed by phase.

    python3 scripts/io_bench.py                 # the package in ./src
    python3 scripts/io_bench.py --src OTHER     # the package in OTHER/src

Runs stairbench's own workloads (stairbench/workloads.py of this tree) on
the inputs that ``make`` gives archive_small and archive_large.  For each,
``Rebuild.prepare`` writes the seeded input, checks the golden containers,
and writes the clean container and the ``rebuild`` damage (the same m
chunks lost in every stripe, sectors within coverage in one stripe in
four).  Five commands then run REPS times each through the benchmark's
``Runner``, every output checked byte for byte: encode, healthy decode,
inject of chunk 0 in every stripe, repair of that, and repair of the
rebuild damage (``repair_mixed_ms``).  A failed command stops the run.

The fastest run of each is split by span self time (``spans.Tracer``) into
``read`` (``container.read_into``), ``copy`` (``container.gather`` and
``scatter``, repair's wide stripes), ``codec`` (``stair_encode`` of every
stripe, ``stair_decode`` of every wide stripe) and ``rest``: writing,
opening, renaming and closing files, header and argument parsing.

``rel`` is the median over the REPS runs of a run's time over the mean
time of the reference loop run just before and after it, as
``Runner.command`` times the benchmark's ``*_cmd_rel``: other load on a
shared host slows both alike, so ``rel`` compares trees measured minutes
apart where the milliseconds may not.  ``ref_ms`` is the median of those
reference-loop means; a change that slows the loop run after a command
lowers ``rel`` without speeding it, so read ``rel`` with ``total`` and
``ref_ms``.  Prints one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import json
import sys
import tempfile
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
REPS = 5
SEED = 1
# (module of the staircodes package, function, phase) for every timed function
TIMED = (("container", "read_into", "read"),
         ("container", "gather", "copy"), ("container", "scatter", "copy"),
         ("cli", "stair_encode", "codec"), ("cli", "stair_decode", "codec"))


def _load(name: str):
    """stairbench's module ``name``, loaded from its file without writing
    bytecode beside it."""
    spec = importlib.util.spec_from_file_location(f"stairbench_{name}",
                                                  ROOT / "stairbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


workloads, spans = _load("workloads"), _load("spans")


def best_split(runner, argv: list[str], check) -> dict:
    """Milliseconds of the fastest of REPS runs of ``argv``, by phase, the
    median of the runs' ``rel`` and the median reference-loop time."""
    runs = []
    for _ in range(REPS):
        sample = runner.command(argv, check)
        if runner.failed:
            raise SystemExit(f"stair {' '.join(argv)} failed")
        runs.append((sample, runner.tracer.last_op))
    best, op = min(runs, key=lambda run: run[0].seconds)
    agg = runner.tracer.aggregate([op])
    phases = {phase: agg[phase]["self_s"] if phase in agg else 0.0 for *_, phase in TIMED}
    out = {"total": best.seconds, **phases, "rest": best.seconds - sum(phases.values())}
    return {**{name: round(seconds * 1e3, 2) for name, seconds in out.items()},
            "rel": round(median(sample.relative for sample, _ in runs), 3),
            "ref_ms": round(median(sample.reference for sample, _ in runs) * 1e3, 2)}


def measure(label: str, work: Path, runner) -> dict:
    """The five commands on the inputs of the archive workload ``label``,
    run from ``work``, where the workloads name their files."""
    archive = workloads.make(label, work, SEED, runner)
    wl = workloads.Rebuild(work, SEED, runner, archive.geometry, archive.stripes)
    wl.prepare()
    if runner.failed:
        raise SystemExit(f"{label}: preparing the inputs failed")

    def same(name, digest):
        return workloads.same_file(wl.path(name), digest, name)

    commands = {
        "encode_ms": (wl.encode_argv("input.bin", "archive.stc"),
                      same("archive.stc", wl.reference)),
        "decode_ms": (["decode", "clean.stc", "-o", "output.bin"], same("output.bin", wl.input)),
        "inject_ms": (["inject", "clean.stc", "-o", "inject.stc", "--spec", "chunks=0",
                       "--manifest", "inject.json"], None),
        "repair_ms": (["repair", "inject.stc", "--manifest", "inject.json", "-o", "repaired.stc"],
                      same("repaired.stc", wl.reference)),
        "repair_mixed_ms": (["repair", "damaged.stc", "--manifest", "manifest.json",
                             "-o", "repaired.stc"], same("repaired.stc", wl.reference)),
    }
    timed = {key: best_split(runner, argv, check) for key, (argv, check) in commands.items()}
    return {"input_bytes": wl.input.size, "stripes": wl.stripes, **timed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--src", type=Path, default=ROOT)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src / "src"))
    from staircodes import cli

    runner = workloads.Runner(cli)
    runner.tracer = spans.Tracer([(importlib.import_module(f"staircodes.{module}"), attr,
                                   phase, None) for module, attr, phase in TIMED])
    out = {"reps": REPS}
    with tempfile.TemporaryDirectory() as tmp, runner.tracer.traced():
        for label in ("archive_small", "archive_large"):
            work = Path(tmp, label)
            work.mkdir()
            with contextlib.chdir(work):
                out[label] = measure(label, work, runner)
    print(json.dumps(out, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
