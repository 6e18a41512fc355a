"""The benchmark's workloads: seeded inputs, op pairs and output checks.

Every command goes through ``staircodes.cli.main(argv)`` in this process.
An op pair is two commands; each command is one op, and an op fails when
the command exits non-zero, raises, or leaves wrong bytes or digits.  A
failed op is counted, never fatal.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

import numpy as np

DATA = Path(__file__).resolve().parent / "data"
SCENARIO = DATA / "scenario.txt"
GOLDEN_ROWS = DATA / "reliability_rows.json"
GOLDEN_CONTAINERS = DATA / "containers.json"
METHODS = ("downstairs", "upstairs", "standard")
CHUNK = 1 << 20


class Sample(NamedTuple):
    seconds: float     # wall time of one command
    reference: float   # mean wall time of the reference loop run before and after it

    @property
    def relative(self) -> float:
        return self.seconds / self.reference


_REF_RNG = np.random.default_rng(0)
_REF_TABLE = _REF_RNG.integers(0, 256, (256, 256), dtype=np.uint8)
_REF_INDEX = _REF_RNG.integers(0, 256, 1 << 18, dtype=np.uint8)
_REF_BUFFER = _REF_RNG.integers(0, 256, 1 << 22, dtype=np.uint8)


def reference_loop() -> float:
    """Seconds for a fixed piece of work like the package's own: interpreted
    dict and tuple code, table gathers XORed together, and bytes appended
    to a buffer.

    Other load on the host slows this machine by up to 1.5x for seconds to
    minutes, and slows this loop by about the same factor as the package's
    commands.  A command's time divided by the mean of this loop's time just
    before and just after it varies several times less between runs than
    the command's time itself.
    """
    t0 = time.perf_counter()
    states: dict = {}
    for i in range(8000):
        key = tuple(sorted((i % 7, i % 5, i % 3)))
        states[key] = states.get(key, 0.0) + i * 0.5
    acc = _REF_TABLE[7][_REF_INDEX]
    for row in range(1, 8):
        np.bitwise_xor(acc, _REF_TABLE[row][_REF_INDEX], out=acc)
    out = bytearray()
    for k in range(4):
        out += _REF_BUFFER[k << 20:(k + 1) << 20].tobytes()
    return time.perf_counter() - t0


class Runner:
    """Runs ``stair`` commands in-process, times them and counts failures."""

    def __init__(self, cli):
        self.cli = cli
        self.tracer = None        # set while the commands should be traced
        self.attempted = 0
        self.failed = 0

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"failed op: {what}", file=sys.stderr)

    def command(self, argv: list[str], check=None) -> Sample:
        """Run one command between two runs of the reference loop.
        ``check()`` returns None when the output is right, else what is
        wrong."""
        self.attempted += 1
        tracer = self.tracer
        before = reference_loop()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                rc = self.cli.main(argv)
            else:
                tracer.begin_op()
                with tracer.span("cli." + argv[0]):
                    rc = self.cli.main(argv)
        except Exception:          # an op that raises is a failed op
            rc = None
            self.fail(f"{argv[0]} raised\n{traceback.format_exc()}")
        sample = Sample(time.perf_counter() - t0, (before + reference_loop()) / 2)
        if rc is not None:
            try:
                problem = f"exit code {rc}" if rc != 0 else (check() if check else None)
            except Exception:      # a check that cannot read the output fails the op
                problem = f"checking the output raised\n{traceback.format_exc()}"
            if problem:
                self.fail(f"stair {' '.join(argv)}: {problem}")
        return sample


class Digest(NamedTuple):
    """Size and SHA-256 of some bytes: what the checks keep instead of the
    bytes, so that the harness holds no copy of an input or an output."""
    size: int
    sha256: str

    @classmethod
    def of_bytes(cls, data: bytes) -> "Digest":
        return cls(len(data), hashlib.sha256(data).hexdigest())

    @classmethod
    def of_file(cls, path: Path) -> "Digest":
        with open(path, "rb") as f:
            return cls(path.stat().st_size, hashlib.file_digest(f, "sha256").hexdigest())


def same_file(path: Path, expected: Digest, what: str):
    def check():
        if not path.exists():
            return f"{what}: {path.name} was not written"
        got = Digest.of_file(path)
        if got != expected:
            return (f"{what}: {path.name} has {got.size} bytes, sha256 {got.sha256}; "
                    f"expected {expected.size} bytes, sha256 {expected.sha256}")
        return None
    return check


# ---------------------------------------------------------------------------
# codec geometries and seeded inputs
# ---------------------------------------------------------------------------

class Geometry:
    def __init__(self, n: int, r: int, m: int, e: tuple[int, ...], symbol: int):
        self.n, self.r, self.m, self.e, self.symbol = n, r, m, e, symbol

    @property
    def data_bytes_per_stripe(self) -> int:
        return (self.r * (self.n - self.m) - sum(self.e)) * self.symbol

    @property
    def stripe_bytes(self) -> int:
        return self.n * self.r * self.symbol

    def flags(self) -> list[str]:
        return ["--n", str(self.n), "--r", str(self.r), "--m", str(self.m),
                "--e", ",".join(str(x) for x in self.e),
                "--symbol-size", str(self.symbol)]

    def describe(self) -> dict:
        return {"n": self.n, "r": self.r, "m": self.m, "e": list(self.e),
                "symbol_size": self.symbol}

    @property
    def label(self) -> str:
        return (f"n{self.n}_r{self.r}_m{self.m}_e{'-'.join(str(x) for x in self.e)}"
                f"_s{self.symbol}")


SMALL = Geometry(8, 4, 2, (1, 1, 2), 512)      # the paper's worked example
LARGE = Geometry(16, 16, 1, (2,), 16384)


def write_seeded(path: Path, rng: np.random.Generator, geometry: Geometry,
                 stripes: int) -> Digest:
    """Write random user bytes filling ``stripes`` stripes, the last one
    partly, a chunk at a time; returns their digest."""
    per = geometry.data_bytes_per_stripe
    left = stripes * per - int(rng.integers(1, per // 2))
    digest, size = hashlib.sha256(), left
    with open(path, "wb") as out:
        while left:
            chunk = rng.bytes(min(left, CHUNK))
            digest.update(chunk)
            out.write(chunk)
            left -= len(chunk)
    return Digest(size, digest.hexdigest())


def golden_input(geometry: Geometry, stripes: int) -> bytes:
    """The fixed input of a golden container: SHAKE-256 output, the same on
    every host and numpy version, filling ``stripes`` stripes but a third
    of the last."""
    per = geometry.data_bytes_per_stripe
    label = f"stairbench golden {geometry.label}".encode()
    return hashlib.shake_256(label).digest(stripes * per - per // 3)


def within_coverage(e: tuple[int, ...], counts) -> bool:
    """Nonzero per-chunk counts fit e when, both sorted descending, each
    count is at most its partner entry."""
    counts = sorted((c for c in counts if c), reverse=True)
    e_desc = sorted(e, reverse=True)
    return len(counts) <= len(e_desc) and all(c <= x for c, x in zip(counts, e_desc))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    """Base: ``prepare`` writes the inputs, ``op_pair`` runs one op pair and
    returns the samples of its first and second commands."""

    first_cmd = ""
    second_cmd = ""

    def __init__(self, work: Path, seed: int, runner: Runner):
        self.work = work
        self.seed = seed
        self.runner = runner
        self.rng = np.random.default_rng(seed)

    def path(self, name: str) -> Path:
        return self.work / name

    def prepare(self) -> None:
        raise NotImplementedError

    def setup_argv(self) -> list[str]:
        """The cold first op on a one-stripe (or smallest) input."""
        raise NotImplementedError

    def setup_check(self):
        raise NotImplementedError

    def op_pair(self) -> tuple[list[Sample], list[Sample]]:
        raise NotImplementedError

    def described_metrics(self, first: float, second: float) -> dict:
        """The workload's own metrics, named as in the notes."""
        return {}

    def properties(self) -> dict:
        return {}

    def stored_bytes_per_user_byte(self) -> float:
        """Container bytes per input byte; 0 when the workload stores none."""
        return 0.0


class Archive(Workload):
    """`stair encode` of a seeded file, then healthy `stair decode`s of it."""

    first_cmd = "stair encode"
    second_cmd = "stair decode"
    decodes_per_pair = 2      # a decode is short; two per pair steady its median

    def __init__(self, work, seed, runner, geometry: Geometry, stripes: int):
        super().__init__(work, seed, runner)
        self.geometry = geometry
        self.stripes = stripes
        self.reference: Digest | None = None

    def prepare(self) -> None:
        self.input = write_seeded(self.path("input.bin"), self.rng, self.geometry, self.stripes)
        self.path("setup.bin").write_bytes(self.rng.bytes(self.geometry.data_bytes_per_stripe))
        self.check_golden()
        self.runner.command(self.encode_argv("setup.bin", "setup_ref.stc"))
        self.setup_reference = Digest.of_file(self.path("setup_ref.stc"))

    def check_golden(self) -> None:
        """Encode the geometry's fixed input with each method; every
        container must match the checked-in digest.  Parities are checked
        here against a record, not against another encode of the same
        code: a healthy decode reads data cells only."""
        golden = json.loads(GOLDEN_CONTAINERS.read_text())[self.geometry.label]
        self.path("golden.bin").write_bytes(golden_input(self.geometry, golden["stripes"]))
        expected = Digest(golden["size"], golden["sha256"])
        for method in METHODS:
            self.runner.command(self.encode_argv("golden.bin", "golden.stc", method),
                                same_file(self.path("golden.stc"), expected,
                                          f"{method} encode of the golden input"))

    def encode_argv(self, src: str, dst: str, method: str = "auto") -> list[str]:
        return ["encode", src, "-o", dst, *self.geometry.flags(), "--method", method]

    def setup_argv(self) -> list[str]:
        return self.encode_argv("setup.bin", "setup_cold.stc")

    def setup_check(self):
        return same_file(self.path("setup_cold.stc"), self.setup_reference,
                         "cold one-stripe encode")

    def _check_container(self):
        path = self.path("archive.stc")
        if self.reference is None:     # the first encode is checked by its decode
            self.reference = Digest.of_file(path)
            body = self.stripes * self.geometry.stripe_bytes
            if not 0 < self.reference.size - body < 256:
                return f"container holds {self.reference.size} bytes for {self.stripes} stripes"
            return None
        return same_file(path, self.reference, "encode")()

    def op_pair(self):
        run = self.runner.command
        t_enc = run(self.encode_argv("input.bin", "archive.stc"), self._check_container)
        t_dec = [run(["decode", "archive.stc", "-o", "output.bin"],
                     same_file(self.path("output.bin"), self.input, "decode"))
                 for _ in range(self.decodes_per_pair)]
        return [t_enc], t_dec

    def described_metrics(self, first, second) -> dict:
        mib = self.input.size / 2 ** 20
        return {
            "encode_mib_s": (mib / first, "MiB/s"),
            "decode_mib_s": (mib / second, "MiB/s"),
            "stored_bytes_per_user_byte": (self.stored_bytes_per_user_byte(), "ratio"),
        }

    def stored_bytes_per_user_byte(self) -> float:
        return self.reference.size / self.input.size

    def properties(self) -> dict:
        return {"geometry": self.geometry.describe(), "input_bytes": self.input.size,
                "stripes": self.stripes}


class Rebuild(Archive):
    """Every stripe lost the same m devices; one stripe in four also lost
    sectors within coverage.  `stair repair` must restore the clean
    container byte for byte; the repaired container is then decoded."""

    first_cmd = "stair repair"
    second_cmd = "stair decode"

    def _damage(self, path: Path, stripes: int, failed: list[int], tail: bool) -> dict:
        """Overwrite lost cells of the container at ``path`` with noise, in
        place; returns the manifest."""
        g = self.geometry
        header = path.stat().st_size - stripes * g.stripe_bytes
        alive = [j for j in range(g.n) if j not in failed]
        if tail:
            scattered = set(self.rng.choice(stripes, size=stripes // 4, replace=False).tolist())
        else:
            scattered = set()
        patterns = []
        with open(path, "r+b") as f:
            for k in range(stripes):
                patterns.append(self._damage_stripe(f, header + k * g.stripe_bytes, k, failed,
                                                    alive, k in scattered))
        return {
            "config": {"n": g.n, "r": g.r, "m": g.m, "e": list(g.e), "w": 8},
            "symbol_size": g.symbol, "within_coverage": True, "patterns": patterns,
        }

    def _damage_stripe(self, f, base: int, k: int, failed: list[int], alive: list[int],
                       scattered: bool) -> dict:
        g = self.geometry
        sym, chunk = g.symbol, g.r * g.symbol
        sectors: dict[int, list[int]] = {}
        if scattered:
            count = int(self.rng.integers(1, len(g.e) + 1))
            slots = sorted(self.rng.choice(len(g.e), size=count, replace=False).tolist())
            chunks = self.rng.choice(alive, size=count, replace=False).tolist()
            for slot, j in zip(slots, chunks):
                lost = int(self.rng.integers(1, g.e[slot] + 1))
                sectors[j] = sorted(self.rng.choice(g.r, size=lost, replace=False).tolist())
        if not within_coverage(g.e, [len(v) for v in sectors.values()]):
            raise AssertionError(f"generated pattern {sectors} exceeds e={g.e}")
        for j in failed:
            f.seek(base + j * chunk)
            f.write(self.rng.bytes(chunk))
        for j, rows in sectors.items():
            for i in rows:
                f.seek(base + j * chunk + i * sym)
                f.write(self.rng.bytes(sym))
        return {"stripe": k, "failed_chunks": sorted(failed),
                "sector_failures": {str(j): rows for j, rows in sorted(sectors.items())}}

    def prepare(self) -> None:
        super().prepare()
        run = self.runner.command
        run(self.encode_argv("input.bin", "clean.stc"))
        run(["decode", "clean.stc", "-o", "output.bin"],
            same_file(self.path("output.bin"), self.input, "decode of the clean container"))
        self.reference = Digest.of_file(self.path("clean.stc"))
        g = self.geometry
        failed = sorted(self.rng.choice(g.n, size=g.m, replace=False).tolist())
        shutil.copyfile(self.path("clean.stc"), self.path("damaged.stc"))
        manifest = self._damage(self.path("damaged.stc"), self.stripes, failed, tail=True)
        self.path("manifest.json").write_text(json.dumps(manifest))
        self.patterns = [json.dumps([p["failed_chunks"], p["sector_failures"]], sort_keys=True)
                         for p in manifest["patterns"]]
        shutil.copyfile(self.path("setup_ref.stc"), self.path("setup_damaged.stc"))
        manifest = self._damage(self.path("setup_damaged.stc"), 1, failed, tail=False)
        self.path("setup_manifest.json").write_text(json.dumps(manifest))
        self.failed_devices = failed

    def setup_argv(self) -> list[str]:
        return ["repair", "setup_damaged.stc", "--manifest", "setup_manifest.json",
                "-o", "setup_repaired.stc"]

    def setup_check(self):
        return same_file(self.path("setup_repaired.stc"), self.setup_reference,
                         "cold one-stripe repair")

    def op_pair(self):
        run = self.runner.command
        t_rep = run(["repair", "damaged.stc", "--manifest", "manifest.json", "-o", "repaired.stc"],
                    same_file(self.path("repaired.stc"), self.reference, "repair"))
        t_dec = run(["decode", "repaired.stc", "-o", "output.bin"],
                    same_file(self.path("output.bin"), self.input,
                              "decode of the repaired container"))
        return [t_rep], [t_dec]

    def described_metrics(self, first, second) -> dict:
        mib = self.input.size / 2 ** 20
        return {
            "repair_mib_s": (mib / first, "MiB/s"),
            "decode_mib_s": (mib / second, "MiB/s"),
            "rebuild.repeat_pattern_share": (self.repeat_pattern_share(), "ratio"),
            "rebuild.distinct_patterns": (self.distinct_patterns(), "count"),
        }

    def distinct_patterns(self) -> int:
        return len(set(self.patterns))

    def repeat_pattern_share(self) -> float:
        return (len(self.patterns) - self.distinct_patterns()) / len(self.patterns)

    def properties(self) -> dict:
        out = super().properties()
        out.update(failed_devices=self.failed_devices,
                   stripes_with_sector_losses=self.stripes // 4,
                   distinct_patterns=self.distinct_patterns(),
                   repeat_pattern_share=self.repeat_pattern_share())
        return out


class Reliability(Workload):
    """The plain reliability report of the checked-in scenario, then the
    same report with Monte-Carlo validation and an outcome histogram."""

    first_cmd = "stair reliability"
    second_cmd = "stair reliability --validate --histogram"
    reports_per_pair = 4
    trials = 100_000

    def prepare(self) -> None:
        text = GOLDEN_ROWS.read_text()
        self.golden_text = Digest.of_bytes(text.encode())
        self.golden = json.loads(text)
        self.codes = {row["code"] for row in self.golden}

    def report_argv(self, out: str) -> list[str]:
        return ["reliability", str(SCENARIO), "--format", "json", "-o", out]

    def setup_argv(self) -> list[str]:
        return self.report_argv("setup_report.json")

    def setup_check(self):
        return same_file(self.path("setup_report.json"), self.golden_text,
                         "cold reliability report")

    def _check_validation(self):
        doc = json.loads(self.path("validated.json").read_text())
        if doc.get("rows") != self.golden:
            return "analytic rows differ from the golden rows"
        checks = doc.get("validation", [])
        if len(checks) != len(self.codes):
            return f"{len(checks)} validation rows for {len(self.codes)} codes"
        bad = [c for c in checks if c["ok"] is not True or c["trials"] != self.trials]
        if bad:
            return f"validation rows not ok: {bad}"
        hist = doc.get("histogram", [])
        if sum(row["stripes"] for row in hist) != self.trials:
            return "histogram rows do not add up to the trial count"
        for row in hist:
            counts = [int(c) for c in row["counts"].split(",")]
            for key, verdict in row.items():
                if key.startswith("recoverable_") and verdict != self._recoverable(key, counts):
                    return f"histogram verdict {key}={verdict} wrong for counts {row['counts']}"
        return None

    @staticmethod
    def _recoverable(key: str, counts: list[int]) -> bool:
        label = key[len("recoverable_"):]
        kind, _, rest = label.partition("_")
        if kind == "rs":
            return not any(counts)
        if kind == "sd":
            return sum(counts) <= int(rest)
        return within_coverage(tuple(int(x) for x in rest.split("_")), counts)

    def op_pair(self):
        run = self.runner.command
        reports = [run(self.report_argv("report.json"),
                       same_file(self.path("report.json"), self.golden_text,
                                 "reliability report"))
                   for _ in range(self.reports_per_pair)]
        t_val = run(["reliability", str(SCENARIO), "--validate", "--histogram",
                     "--trials", str(self.trials), "--seed", str(self.seed),
                     "--format", "json", "-o", "validated.json"], self._check_validation)
        return reports, [t_val]

    def mc_trials(self) -> int:
        """Monte-Carlo trials in one validated report: one run per code for
        validation plus one for the histogram."""
        return self.trials * (len(self.codes) + 1)

    def described_metrics(self, first, second) -> dict:
        return {
            "report_s": (first, "s"),
            "mc_trials_per_s": (self.mc_trials() / second, "1/s"),
        }

    def properties(self) -> dict:
        return {"scenario": SCENARIO.name, "codes": len(self.codes),
                "trials_per_run": self.trials, "mc_trials_per_op": self.mc_trials(),
                "reports_per_pair": self.reports_per_pair}


def make(name: str, work: Path, seed: int, runner: Runner) -> Workload:
    if name == "archive_small":
        return Archive(work, seed, runner, SMALL, stripes=1500)
    if name == "archive_large":
        return Archive(work, seed, runner, LARGE, stripes=8)
    if name == "rebuild":
        return Rebuild(work, seed, runner, SMALL, stripes=1500)
    if name == "reliability":
        return Reliability(work, seed, runner)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("archive_small", "archive_large", "rebuild", "reliability")
