#!/usr/bin/env python3
"""Layered end-to-end benchmark of the stair codec, the `stair` container
CLI and the reliability suite.

    python3 stairbench/run.py --workload archive_small --seed 1 --seconds 15 --trace 0

Run from the root of a source tree: the package is imported from ./src
and nowhere else.  One workload runs in this process, single-threaded, with
every command driven through ``staircodes.cli.main(argv)``.  Inputs are
made from --seed; the program sees only the files written here.

--trace 0 reports the end-to-end metrics of BENCHMARK.json with tracing
off.  --trace 1 reports its per-layer metrics: wrappers around the
package's public entry points record spans for every other op pair, the
pairs in between run untraced, and the difference is the tracing overhead.
Earlier lines of standard output hold the run's metadata and the
workload's own metrics (see NOTES.md); the last line is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from statistics import median
from types import SimpleNamespace

import numpy as np

import spans
import workloads as wls
from workloads import LARGE, SMALL, Digest, write_seeded

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 3
SETUP_REPS = 21
# setup_s is given in reference-loop units times this many seconds, about the
# loop's time in a fresh interpreter on the host the bounds were set on.
REFERENCE_S = 0.02

# The cold op of a set-up run, in a fresh interpreter.  numpy is the
# harness's dependency and is imported before the clock starts; the
# reference loop is timed just before.  Then import the package from the
# given source directory and run one command; report the seconds, the
# reference and where the package was.
_SETUP_CODE = """
import json, sys, time
import numpy
sys.path.insert(0, sys.argv[1])
from workloads import reference_loop
reference = min(reference_loop() for _ in range(3))
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[2])
from staircodes import cli
rc = cli.main(json.loads(sys.argv[3]))
seconds = time.perf_counter() - t0
print(json.dumps({"rc": rc, "seconds": seconds, "reference": reference, "file": cli.__file__}))
"""


def load_package(root: Path) -> SimpleNamespace:
    """Import staircodes from root/src; refuse any other copy."""
    pkg_dir = root / "src" / "staircodes"
    if not (pkg_dir / "__init__.py").is_file():
        raise RuntimeError(f"no staircodes package under {pkg_dir}")
    sys.path.insert(0, str(root / "src"))
    import staircodes
    from staircodes import cli, container, gf, mds, reliability, sim, stair
    if Path(staircodes.__file__).resolve().parent != pkg_dir.resolve():
        raise RuntimeError(f"staircodes was imported from {staircodes.__file__}, not {pkg_dir}")
    return SimpleNamespace(cli=cli, container=container, gf=gf, mds=mds,
                           reliability=reliability, sim=sim, stair=stair)


def declared_metrics(root: Path) -> tuple[dict, dict]:
    """name -> unit of the end-to-end and per-layer metrics in BENCHMARK.json."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


# ---------------------------------------------------------------------------
# metadata
# ---------------------------------------------------------------------------

def git_revision(root: Path) -> str | None:
    """HEAD of the git repository rooted at ``root``, or None when ``root``
    is not the top of one."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root.resolve():
        return None
    return lines[1]


def source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "staircodes").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def metadata(root: Path, args, wl) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": git_revision(root), "source_sha256": source_digest(root),
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "STAIR_THREADS": os.environ.get("STAIR_THREADS"),
        "first_cmd": wl.first_cmd, "second_cmd": wl.second_cmd,
        "inputs": wl.properties(),
    }


# ---------------------------------------------------------------------------
# set-up time
# ---------------------------------------------------------------------------

def measure_setup(root: Path, wl) -> tuple[float, float]:
    """Set-up time over fresh interpreters: importing the package plus the
    workload's first command, cold, on a one-stripe input.

    Returns the median of each run's time over its reference loop, times
    REFERENCE_S, and the median wall seconds.  Other load on the host moves
    the wall time by up to 1.5x between runs; the ratio moves several times
    less (see NOTES.md)."""
    times, ratios = [], []
    argv = json.dumps(wl.setup_argv())
    for _ in range(SETUP_REPS):
        wl.runner.attempted += 1
        proc = subprocess.run([sys.executable, "-c", _SETUP_CODE, str(Path(__file__).parent),
                               str(root / "src"), argv],
                              cwd=wl.work, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            wl.runner.fail(f"set-up run exited {proc.returncode}: {proc.stderr[-2000:]}")
            continue
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        problem = f"exit code {res['rc']}" if res["rc"] != 0 else wl.setup_check()()
        if not problem and Path(res["file"]).resolve().parent != (root / "src" / "staircodes").resolve():
            problem = f"set-up imported {res['file']}"
        if problem:
            wl.runner.fail(f"set-up run: {problem}")
        times.append(res["seconds"])
        ratios.append(res["seconds"] / res["reference"])
    if not times:
        return float("nan"), float("nan")
    return median(ratios) * REFERENCE_S, median(times)


def resident_mib() -> float | None:
    """This process's resident memory now (VmRSS), in MiB."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024
    except OSError:
        pass
    return None


# ---------------------------------------------------------------------------
# roofline and cost-model probe (traced runs)
# ---------------------------------------------------------------------------

def xor_roofline(size: int, calls: int = 20_000, batches: int = 5) -> float:
    """MiB/s of source bytes through in-place numpy XOR on ``size``-byte regions."""
    rng = np.random.default_rng(size)
    dst = rng.integers(0, 256, size, dtype=np.uint8)
    src = rng.integers(0, 256, size, dtype=np.uint8)
    rates = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(calls):
            np.bitwise_xor(dst, src, out=dst)
        rates.append(size * calls / (time.perf_counter() - t0) / 2 ** 20)
    return median(rates)


def cost_probe(pkg, runner, tracer, work: Path, seed: int, timed: str) -> dict:
    """Encode a seeded file with each method on both archive geometries.

    The executed mult-XORs per stripe (coefficient entries applied by the
    region kernel, counted from spans) must equal ``xor_count``, and the
    three containers must be byte-identical; either failure fails the op.
    On the ``timed`` geometry each method is also timed untraced, and the
    order of those times is compared with the order of ``xor_count``.
    """
    stair = pkg.stair
    rng = np.random.default_rng([seed, 1])
    out = {"match": True, "geometries": {}}
    for name, geo, stripes in (("archive_small", SMALL, 256), ("archive_large", LARGE, 2)):
        cfg = stair.config_new(geo.n, geo.r, geo.m, geo.e)
        write_seeded(work / "probe.bin", rng, geo, stripes)
        write_seeded(work / "probe_1.bin", rng, geo, 1)
        rows, containers = {}, {}
        for method in stair.METHODS:
            def argv(src, method=method):
                return ["encode", src, "-o", f"probe_{method}.stc", *geo.flags(),
                        "--method", method]

            runner.command(argv("probe_1.bin"))          # fills the plan caches
            row = rows[method] = {"xor_count": stair.xor_count(cfg, method)}
            first_op = tracer.last_op + 1

            def check(method=method, row=row, first_op=first_op):
                agg = tracer.aggregate(range(first_op, tracer.last_op + 1))
                kernel = agg.get("gf.matmul_regions")
                row["executed_per_stripe"] = (kernel["work"][0] if kernel else 0) / stripes
                containers[method] = Digest.of_file(work / f"probe_{method}.stc")
                if row["executed_per_stripe"] != row["xor_count"]:
                    return (f"{method} on {name} executed {row['executed_per_stripe']} "
                            f"mult-XORs per stripe, xor_count gives {row['xor_count']}")
                return None

            runner.tracer = tracer
            with tracer.traced():
                runner.command(argv("probe.bin"), check)
            runner.tracer = None
            out["match"] &= row.get("executed_per_stripe") == row["xor_count"]
            if name == timed:
                row["encode_s"] = median(runner.command(argv("probe.bin")).seconds
                                         for _ in range(3))
                row["s_per_mult_xor"] = row["encode_s"] / (stripes * row["xor_count"])
        if len(containers) != len(stair.METHODS) or len(set(containers.values())) != 1:
            runner.fail(f"the three encoding methods disagree on {name}")
        out["geometries"][name] = rows
    rows = out["geometries"][timed]
    by_model = sorted(stair.METHODS, key=lambda m: (rows[m]["xor_count"], stair.METHODS.index(m)))
    by_clock = sorted(stair.METHODS, key=lambda m: rows[m]["encode_s"])
    out["rank_agrees"] = by_model == by_clock
    out["timed"] = timed
    return out


# ---------------------------------------------------------------------------
# the runs
# ---------------------------------------------------------------------------

def measure_pairs(wl, seconds: float, traced_every_other=None):
    """Run op pairs for about ``seconds``.  With ``traced_every_other`` (a
    callback entering/leaving tracing) pairs alternate traced and untraced,
    each order starting with the other kind."""
    samples = {True: ([], []), False: ([], [])}
    pairs = 0
    start = time.perf_counter()
    while True:
        kinds = [False] if traced_every_other is None else (
            [True, False] if pairs % 2 == 0 else [False, True])
        for traced in kinds:
            with traced_every_other() if traced else nullcontext():
                first, second = wl.op_pair()
            samples[traced][0].extend(first)
            samples[traced][1].extend(second)
        pairs += 1
        elapsed = time.perf_counter() - start
        if pairs >= MIN_PAIRS and elapsed * (pairs + 1) / pairs > seconds:
            return samples, pairs


def sample_log(first, second) -> dict:
    """Every untraced sample as [wall seconds, reference-loop seconds]."""
    return {"first_cmd": [[round(x.seconds, 6), round(x.reference, 6)] for x in first],
            "second_cmd": [[round(x.seconds, 6), round(x.reference, 6)] for x in second]}


def per_layer(agg: dict, pairs: int, wl, probe: dict, overhead: tuple, roof: tuple) -> dict:
    """Per-layer metrics of the traced op pairs, per pair where a count or
    a time adds up over pairs."""
    def row(name):
        return agg.get(name, {"calls": 0, "self_s": 0.0, "work": None, "parents": {}})

    def calls(name):
        return row(name)["calls"] / pairs

    def self_s(name):
        return row(name)["self_s"] / pairs

    mm = row("gf.matmul_regions")
    mult_xors, kernel_bytes = mm["work"] or (0, 0)
    coded_stripes = row("stair.encode")["calls"] + row("stair.decode")["calls"]
    timed = probe["geometries"][probe["timed"]]
    trials = sum((row(n)["work"] or (0,))[0]
                 for n in ("sim.monte_carlo_p_str", "sim.outcome_histogram"))
    m = {
        "gf.matmul_regions.calls": calls("gf.matmul_regions"),
        "gf.matmul_regions.self_s": self_s("gf.matmul_regions"),
        "gf.matmul_regions.mib_s": (kernel_bytes / mm["self_s"] / 2 ** 20
                                    if mm["self_s"] > 0 else 0.0),
        "gf.mult_xors": mult_xors / pairs,
        "gf.mat_inv.calls": calls("gf.mat_inv"),
        "gf.mat_inv.self_s": self_s("gf.mat_inv"),
        "gf.xor_roofline_512b_mib_s": roof[0],
        "gf.xor_roofline_16kib_mib_s": roof[1],
        "mds.decode_matrix.calls": calls("mds.decode_matrix"),
        "mds.decode_matrix.self_s": self_s("mds.decode_matrix"),
        "mds.decode_matrix.misses": row("gf.mat_mul")["parents"].get("mds.decode_matrix", 0) / pairs,
        "stair.encode.calls": calls("stair.encode"),
        "stair.encode.self_s": self_s("stair.encode"),
        "stair.decode.calls": calls("stair.decode"),
        "stair.decode.self_s": self_s("stair.decode"),
        "stair.Step.apply.calls": calls("stair.Step.apply"),
        "stair.Step.apply.self_s": self_s("stair.Step.apply"),
        "stair.mult_xors_per_stripe": mult_xors / coded_stripes if coded_stripes else 0.0,
        "stair.xor_count_match": float(probe["match"]),
        "stair.cost_rank_agrees": float(probe["rank_agrees"]),
    }
    for method in ("downstairs", "upstairs", "standard"):
        m[f"stair.encode.{method}.s_per_mult_xor"] = timed[method]["s_per_mult_xor"]
    for fn in ("stripe_to_bytes", "stripe_from_bytes", "fill_data", "extract_data"):
        m[f"container.{fn}.calls"] = calls(f"container.{fn}")
        m[f"container.{fn}.self_s"] = self_s(f"container.{fn}")
    for cmd in ("encode", "decode", "repair", "reliability"):
        m[f"cli.{cmd}.self_s"] = self_s(f"cli.{cmd}")
    m.update({
        "reliability.p_str_stair.calls": calls("reliability.p_str_stair"),
        "reliability.p_str_stair.self_s": self_s("reliability.p_str_stair"),
        "reliability.mttdl.self_s": self_s("reliability.mttdl"),
        "sim.monte_carlo_p_str.self_s": self_s("sim.monte_carlo_p_str"),
        "sim.outcome_histogram.self_s": self_s("sim.outcome_histogram"),
        "sim.trials": trials / pairs,
        "stored_bytes_per_user_byte": wl.stored_bytes_per_user_byte(),
        "rebuild.repeat_pattern_share": wl.properties().get("repeat_pattern_share", 0.0),
        "rebuild.distinct_patterns": wl.properties().get("distinct_patterns", 0),
        "failed_ops_ratio": wl.runner.failed / wl.runner.attempted,
        "trace.first_cmd_overhead": overhead[0],
        "trace.second_cmd_overhead": overhead[1],
    })
    return m


def run(args, pkg, wl) -> tuple[dict, dict, dict]:
    """Set-up, warm-up and the timed op pairs of one run.  Returns the
    contract metrics, the workload's own metrics and sample counts."""
    wl.prepare()
    setup_s, setup_wall_s = measure_setup(ROOT, wl)
    wl.op_pair()        # warm-up: caches fill before anything is timed
    # What the harness and the warm package hold while the commands run:
    # peak_rss_mib cannot fall below this.
    harness = {"harness_rss_mib": resident_mib()}
    if not args.trace:
        samples, pairs = measure_pairs(wl, args.seconds)
        first, second = samples[False]
        metrics = {
            "first_cmd_rel": median(x.relative for x in first),
            "second_cmd_rel": median(x.relative for x in second),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": setup_s,
        }
        described = wl.described_metrics(median(x.seconds for x in first),
                                         median(x.seconds for x in second))
        described["setup_wall_s"] = (setup_wall_s, "s")
        return metrics, described, {"pairs": pairs, **harness,
                                    "samples": sample_log(first, second)}

    runner = wl.runner
    tracer = spans.Tracer(spans.targets(pkg))
    timed = "archive_large" if args.workload in ("archive_large", "reliability") else "archive_small"
    probe = cost_probe(pkg, runner, tracer, wl.work, args.seed, timed)
    roof = (xor_roofline(512), xor_roofline(16 * 1024))
    main_ops: list[int] = []

    @contextmanager
    def tracing():
        first_op = tracer.last_op + 1
        runner.tracer = tracer
        try:
            with tracer.traced():
                yield
        finally:
            runner.tracer = None
            main_ops.extend(range(first_op, tracer.last_op + 1))

    samples, pairs = measure_pairs(wl, args.seconds, tracing)
    overhead = tuple(median(x.relative for x in samples[True][k])
                     / median(x.relative for x in samples[False][k]) - 1 for k in (0, 1))
    metrics = per_layer(tracer.aggregate(main_ops), pairs, wl, probe, overhead, roof)
    tracer.write(wl.work.parent / f"spans-{args.workload}.csv.gz")
    first, second = samples[False]
    described = wl.described_metrics(median(x.seconds for x in first),
                                     median(x.seconds for x in second))
    described["setup_wall_s"] = (setup_wall_s, "s")
    return metrics, described, {"pairs": pairs, **harness,
                                "samples": sample_log(first, second),
                                "spans": len(tracer.spans), "cost_probe": probe}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=wls.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    threads = os.environ.get("STAIR_THREADS", "").strip()
    if threads.isdigit() and int(threads) > 1:
        print(f"error: STAIR_THREADS={threads}; the benchmark runs single-threaded",
              file=sys.stderr)
        return 2
    try:
        pkg = load_package(ROOT)
        e2e_units, layer_units = declared_metrics(ROOT)
    except (RuntimeError, ImportError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    units = layer_units if args.trace else e2e_units

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    runner = wls.Runner(pkg.cli)
    os.chdir(work)              # commands name their files relative to here
    try:
        wl = wls.make(args.workload, work, args.seed, runner)
        metrics, described, counts = run(args, pkg, wl)
        meta = {**metadata(ROOT, args, wl), **counts}
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json",
              file=sys.stderr)
        return 2

    described["failed_ops_ratio"] = (runner.failed / runner.attempted, "ratio")
    print("meta " + json.dumps(meta, default=str))
    for name, (value, unit) in described.items():
        if name not in units:
            print(f"{args.workload}: {name} = {value:.6g} {unit}")
    for name in units:
        print(f"{args.workload}: {name} = {metrics[name]:.6g} {units[name]}")
    finite = {name: bool(np.isfinite(value)) for name, value in metrics.items()}
    print(json.dumps({
        "correct": runner.failed == 0 and all(finite.values()),
        "attempted": runner.attempted, "failed": runner.failed,
        "metrics": {name: {"value": metrics[name] if finite[name] else 0.0, "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
