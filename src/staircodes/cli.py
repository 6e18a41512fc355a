"""Command-line surface: file codec over the container format plus the
cost, reliability and bench reports.

Subcommands: encode, decode, inject, repair, cost, reliability, bench,
selftest.  Reports emit CSV (default) or JSON via --format.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import shutil
import stat
import sys
import tempfile
import time
from functools import cache
from pathlib import Path

import numpy as np

from . import container as cont
from . import reliability as rel
from . import sim
from .stair import (METHODS, FailurePattern, StairConfig, UnrecoverableError, choose_method,
                    config_new, decode as stair_decode, decoding_steps, encode as stair_encode,
                    pattern_within_coverage, random_stripe, worst_case_pattern, xor_count)

_SIZE_UNITS = {   # longest first: a unit is matched as a suffix
    "KIB": 2 ** 10, "MIB": 2 ** 20, "GIB": 2 ** 30, "TIB": 2 ** 40, "PIB": 2 ** 50,
    "KB": 2 ** 10, "MB": 2 ** 20, "GB": 2 ** 30, "TB": 2 ** 40, "PB": 2 ** 50, "B": 1,
}


def _parse_size(text: str) -> int:
    """Parse '10 PB', '300GB', '1.5 KB', '512' or '1e15' (bytes); size units
    are binary.  Integers are read exactly, whatever their size."""
    text = text.strip()
    unit = next((u for u in _SIZE_UNITS if text.upper().endswith(u)), "")
    num, scale = text[:len(text) - len(unit)].strip(), _SIZE_UNITS.get(unit, 1)
    if num.isdecimal():
        return int(num) * scale
    value = float(num) * scale
    if not math.isfinite(value):
        raise ValueError(f"bad size {text!r}")
    return int(value)


def _parse_e(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.split(",")) if text.strip() else ()


def _config_from_args(args) -> StairConfig:
    return config_new(args.n, args.r, args.m, _parse_e(args.e), args.w)


def _write_text(path, text: str) -> None:
    """``text`` to stdout, or to the file ``path`` through ``container.replaced``."""
    if path is None:
        sys.stdout.write(text)
        return
    with cont.replaced(path, len(data := text.encode())) as f:
        f.write(data)


def _write_report(args, doc, tables: list[list[dict]]) -> None:
    """Write a report to ``-o`` or stdout: ``doc`` as JSON with ``--format
    json``, else each table of dict rows as CSV, a blank line between
    tables (an empty table writes no rows)."""
    out = io.StringIO()
    if args.format == "json":
        json.dump(doc, out, indent=2, default=str)
        out.write("\n")
    else:
        for k, rows in enumerate(tables):
            if k:
                out.write("\n")
            if rows:
                writer = csv.DictWriter(out, fieldnames=list(rows[0]))
                writer.writeheader()
                writer.writerows(rows)
    _write_text(args.output or None, out.getvalue())


# ---------------------------------------------------------------------------
# encode / decode
# ---------------------------------------------------------------------------

def cmd_encode(args) -> int:
    """Stream the input through one block at a time: read its bytes straight
    into the block's data cells, encode each stripe, write the block."""
    if not args.output and not args.devices:
        raise ValueError("need -o and/or --devices")
    cfg = _config_from_args(args)
    with contextlib.ExitStack() as stack:
        src = stack.enter_context(open(args.input, "rb"))
        if not stat.S_ISREG(os.fstat(src.fileno()).st_mode):
            # a pipe's length, which goes in the header first, is known
            # only at its end: spool it to an unnamed file
            spool = stack.enter_context(tempfile.TemporaryFile())
            shutil.copyfileobj(src, spool)
            spool.seek(0)
            src = spool
        # the header refuses a geometry it cannot store before any codec work
        header = cont.ContainerHeader(cfg, args.symbol_size, os.fstat(src.fileno()).st_size)
        method = choose_method(cfg) if args.method == "auto" else args.method
        with cont.writer(header, args.output, args.devices) as write:
            for k, body, runs in cont.blocks(header):
                cont.read_into(src, k * header.data_bytes_per_stripe, runs)
                for s in range(len(body)):
                    stair_encode(cfg, cont.stripe_view(body, s), method)
                write(body)
    return 0


def cmd_decode(args) -> int:
    """Write the container's input bytes out as ``container.user_bytes`` reads them."""
    with cont.reader(args.input, args.devices) as (header, files, origin), \
            cont.replaced(args.output, header.data_length) as out:
        for piece in cont.user_bytes(header, files, origin):
            out.write(piece)
    return 0


# ---------------------------------------------------------------------------
# inject / repair
# ---------------------------------------------------------------------------

def parse_pattern_spec(spec: str, cfg: StairConfig, rng: np.random.Generator | None) -> FailurePattern:
    """Grammar: "chunks=3,7;sectors=4:2,5:1;cells=2:0,2:3".

    ``sectors`` entries are chunk:count; rows are the bottom ``count`` rows
    unless an injection seed was given, in which case they are drawn from
    the supplied generator.  ``cells`` entries are explicit chunk:row.
    """
    failed: list[int] = []
    sectors: dict[int, set[int]] = {}
    spec = spec.strip()
    if spec:
        for part in spec.split(";"):
            part = part.strip()
            if not part:
                continue
            key, _, val = part.partition("=")
            key = key.strip()
            if key == "chunks":
                failed.extend(int(x) for x in val.split(",") if x.strip())
            elif key == "sectors":
                for item in val.split(","):
                    if not item.strip():
                        continue
                    col, _, count = item.partition(":")
                    col, count = int(col), int(count)
                    if not 1 <= count <= cfg.r:
                        raise ValueError(f"sector count {count} outside 1..{cfg.r}")
                    if rng is None:
                        rows = range(cfg.r - count, cfg.r)
                    else:
                        rows = rng.choice(cfg.r, size=count, replace=False)
                    sectors.setdefault(col, set()).update(int(i) for i in rows)
            elif key == "cells":
                for item in val.split(","):
                    if not item.strip():
                        continue
                    col, _, row = item.partition(":")
                    sectors.setdefault(int(col), set()).add(int(row))
            else:
                raise ValueError(f"unknown pattern key {key!r}")
    pattern = FailurePattern.make(failed, sectors)
    pattern.validate_for(cfg)
    return pattern


def _pattern_to_json(pattern: FailurePattern) -> dict:
    return {
        "failed_chunks": sorted(pattern.failed_chunks),
        "sector_failures": {str(j): list(rows) for j, rows in pattern.sector_failures},
    }


def _manifest_int(value) -> int:
    """A config, chunk or row number read from a manifest: a JSON integer,
    never a float (which ``int()`` would truncate) or a bool."""
    if type(value) is not int:
        raise ValueError(f"manifest number {value!r} is not an integer")
    return value


def _manifest_key(key: str) -> int:
    """A chunk number written as a ``sector_failures`` key: canonical
    decimal only, so that two keys ("3" and "03") never name one chunk."""
    j = int(key)
    if str(j) != key:
        raise ValueError(f"manifest key {key!r} is not a canonical integer")
    return j


def _pattern_from_json(obj: dict) -> FailurePattern:
    return FailurePattern.make(
        [_manifest_int(j) for j in obj.get("failed_chunks", ())],
        {_manifest_key(j): [_manifest_int(i) for i in rows]
         for j, rows in obj.get("sector_failures", {}).items()})


def _merge_by_stripe(cfg: StairConfig, entries) -> dict[int, FailurePattern]:
    """Stripe -> its one pattern, from (stripe, pattern) entries that may
    name a stripe more than once: a lone pattern as it is, else the union
    of its patterns, each valid for cfg on its own."""
    by_stripe: dict[int, list[FailurePattern]] = {}
    for k, pattern in entries:
        by_stripe.setdefault(k, []).append(pattern)
    for ps in by_stripe.values():
        for p in ps if len(ps) > 1 else ():
            p.validate_for(cfg)
    return {k: ps[0] if len(ps) == 1 else FailurePattern.union(ps)
            for k, ps in by_stripe.items()}


def _rewrite(path, header: cont.ContainerHeader, src, by_stripe: dict, fix) -> None:
    """Copy the container file ``src`` to ``path`` a block at a time.  Before
    a block is written, ``fix(body, idx, pattern)`` runs once for each
    pattern of ``by_stripe`` (stripe -> pattern) on the list ``idx`` of the
    block's stripes that have it, found in one walk over the sorted stripes."""
    named = sorted(by_stripe)
    start = 0
    with cont.writer(header, path) as write:
        for k, body, _ in cont.blocks(header):
            cont.read_into(src, header.size + k * header.stripe_bytes, [body.reshape(-1)])
            stop = bisect.bisect_left(named, k + len(body), start)
            groups: dict[FailurePattern, list[int]] = {}
            for t in named[start:stop]:
                groups.setdefault(by_stripe[t], []).append(t - k)
            start = stop
            for pattern, idx in groups.items():
                fix(body, idx, pattern)
            write(body)


def cmd_inject(args) -> int:
    """Zero the cells that ``--spec`` loses in each of ``--stripes`` and
    write the result, plus a manifest of one entry per occurrence of a
    stripe in ``--stripes``.  A stripe named more than once loses the union
    of its patterns' cells, and repair merges its entries the same way.
    An earlier manifest goes before the container is written, so a failed
    run leaves no stale manifest beside it."""
    with cont.reader(args.input) as (header, (src,), _):
        cfg = header.cfg
        rng = np.random.default_rng(args.seed) if args.seed is not None else None
        stripes = header.stripe_count
        targets = (range(stripes) if args.stripes == "all"
                   else [cont.check_stripe(stripes, int(x))
                         for x in args.stripes.split(",") if x.strip()])
        if rng is None:         # every stripe loses the same cells
            pattern = parse_pattern_spec(args.spec, cfg, None)
            injected = [(k, pattern) for k in targets]
        else:                   # each stripe draws its rows from the seeded stream
            injected = [(k, parse_pattern_spec(args.spec, cfg, rng)) for k in targets]
        by_stripe = _merge_by_stripe(cfg, injected)
        cont._discard(args.manifest)

        def zero(body, idx, pattern):
            cont.zero_cells(body, idx, pattern.lost_cells(cfg))
        _rewrite(args.output, header, src, by_stripe, zero)
    manifest = {
        "config": {"n": cfg.n, "r": cfg.r, "m": cfg.m, "e": list(cfg.e), "w": cfg.w},
        "symbol_size": header.symbol_size,
        "within_coverage": all(pattern_within_coverage(cfg, pattern)
                               for pattern in set(by_stripe.values())),
        "patterns": [{"stripe": k, **_pattern_to_json(pattern)} for k, pattern in injected],
    }
    _write_text(args.manifest, json.dumps(manifest, indent=2) + "\n")
    return 0


def _read_manifest(path: str, header: cont.ContainerHeader) -> dict[int, FailurePattern]:
    """Stripe index -> failure pattern, from a repair manifest written for
    the container of ``header``, with the entries of a stripe merged into
    one pattern; ValueError when the manifest is malformed, for another
    config or symbol size, or names a stripe that the container does not
    hold.  Entries whose raw ``failed_chunks`` and ``sector_failures``
    have one ``repr`` share one parse: a repr tells 1 from 1.0 and true."""
    cfg = header.cfg
    try:
        manifest = json.loads(Path(path).read_text())
        mc = manifest["config"]
        n, r, m, w = (_manifest_int(mc[k]) for k in ("n", "r", "m", "w"))
        same = (config_new(n, r, m, [_manifest_int(x) for x in mc["e"]], w) == cfg
                and _manifest_int(manifest["symbol_size"]) == header.symbol_size)
        parsed: dict[str, FailurePattern] = {}
        entries = []
        for entry in manifest.get("patterns", []):
            # an absent key reads as (), the repr of no JSON value
            key = repr((entry.get("failed_chunks", ()), entry.get("sector_failures", ())))
            if key not in parsed:
                parsed[key] = _pattern_from_json(entry)
            entries.append((entry.get("stripe"), parsed[key]))
    except (KeyError, TypeError, AttributeError, RecursionError) as exc:
        raise ValueError(f"malformed repair manifest: {type(exc).__name__}: {exc}") from None
    if not same:
        raise ValueError("manifest config or symbol size does not match the container header")
    stripes = header.stripe_count
    return _merge_by_stripe(cfg, [(cont.check_stripe(stripes, k), pattern)
                                  for k, pattern in entries])


def cmd_repair(args) -> int:
    """Restore the cells that a manifest lists as lost, and write the result.

    Each distinct manifest entry is parsed once, and the entries of one
    stripe are merged into one pattern.  Every distinct pattern is planned
    before any block is read, so an unrecoverable one exits 2 having done
    no kernel work and written nothing.  They are planned in reverse order
    of first use: the plan cache is bounded, and the patterns needed first
    are then the newest in it.  The container then streams through a block
    at a time, and the block's stripes of each pattern are decoded once,
    side by side as one wide stripe (``container.gather``; a lone stripe is
    decoded from its own view, with no gather copy).
    """
    with cont.reader(args.input) as (header, (src,), _):
        cfg = header.cfg
        by_stripe = _read_manifest(args.manifest, header)
        for pattern in reversed(dict.fromkeys(by_stripe[k] for k in sorted(by_stripe))):
            decoding_steps(cfg, pattern)

        def decode(body, idx, pattern):
            cont.scatter(body, idx, stair_decode(cfg, cont.gather(body, idx), pattern))
        _rewrite(args.output, header, src, by_stripe, decode)
    return 0


# ---------------------------------------------------------------------------
# cost
# ---------------------------------------------------------------------------

def _partitions_ascending(total: int, max_part: int, max_len: int):
    """All sorted-ascending tuples of positive ints summing to ``total``."""
    def rec(remaining, minimum, acc):
        if remaining == 0:
            yield tuple(acc)
            return
        if len(acc) == max_len:
            return
        for v in range(minimum, min(max_part, remaining) + 1):
            yield from rec(remaining - v, v, acc + [v])

    yield from rec(total, 1, [])


def cost_rows(cfg_base: StairConfig, sweep_s: int | None) -> list[dict]:
    n, r, m = cfg_base.n, cfg_base.r, cfg_base.m
    vectors = [cfg_base.e] if sweep_s is None else list(_partitions_ascending(sweep_s, r, n - m))
    if not vectors:
        raise ValueError(f"no coverage vector of n={n}, r={r}, m={m} sums to s={sweep_s}")
    rows = []
    for e in vectors:
        cfg = config_new(n, r, m, e, cfg_base.w)
        counts = {meth: xor_count(cfg, meth) for meth in METHODS}
        rows.append({
            "n": cfg.n, "r": cfg.r, "m": cfg.m,
            "e": ",".join(str(x) for x in cfg.e) or "-",
            "m_prime": cfg.m_prime, "s": cfg.s,
            "x_standard": counts["standard"],
            "x_upstairs": counts["upstairs"],
            "x_downstairs": counts["downstairs"],
            "chosen": choose_method(cfg),
        })
    return rows


def cmd_cost(args) -> int:
    cfg = _config_from_args(args)
    rows = cost_rows(cfg, args.sweep_s)
    _write_report(args, rows, [rows])
    return 0


# ---------------------------------------------------------------------------
# reliability
# ---------------------------------------------------------------------------

# Every key a scenario may set, with its default.
_SCENARIO_DEFAULTS = {
    "n": "8", "r": "16", "m": "1", "codes": "rs", "p_bit": "1e-14",
    "user_data": "10 PB", "device_capacity": "300 GB", "sector_size": "512",
    "mean_time_to_failure_hours": "500000", "mean_rebuild_hours": "17.8",
    "model": "independent", "b1": "0.98", "alpha": "1.79", "validate_p_sec": "1e-3",
}
VALIDATE_ALPHA = 1e-6    # chance that --validate fails a report whose analytic values are right


def parse_scenario(text: str) -> dict:
    """The model that a scenario describes: its ``key = value`` lines over
    the defaults, each value converted here, once.

    The model holds ``codes`` [(kind, e, config)] in file order, the
    ``p_bits`` to report, ``params`` at p_bit 0, the ``chunks`` n - m of a
    critical-mode stripe, and ``sampled``: the per-chunk failure counts that
    --validate and --histogram draw, the scenario's own sector-failure model
    at the inflated probability ``validate_p_sec`` (p_bit plays no part).
    Each code's e gives its parity sectors per stripe: () for rs and (s,)
    for sd(s), so its config has the same storage efficiency.

    ValueError for a line without ``=``, a key that no report reads or that
    is given twice, no codes, or a value that the model cannot use.
    """
    given: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad scenario line: {raw!r}")
        key, val = (p.strip() for p in line.split("=", 1))
        if key not in _SCENARIO_DEFAULTS:
            raise ValueError(f"unknown scenario key {key!r}")
        if key in given:
            raise ValueError(f"scenario key {key!r} given twice")
        given[key] = val
    opts = {**_SCENARIO_DEFAULTS, **given}
    tokens = [tok for tok in opts["codes"].split(";") if tok.strip()]
    if not tokens:
        raise ValueError("scenario lists no codes")
    n, r, m = (int(opts[k]) for k in ("n", "r", "m"))
    codes = [(kind, e, config_new(n, r, m, e)) for kind, e in map(_parse_code, tokens)]
    params = rel.ReliabilityParams(
        user_bytes=_parse_size(opts["user_data"]),
        device_bytes=_parse_size(opts["device_capacity"]),
        sector_bytes=int(opts["sector_size"]),
        mean_time_to_failure_hours=float(opts["mean_time_to_failure_hours"]),
        mean_rebuild_hours=float(opts["mean_rebuild_hours"]),
        p_bit=0.0,
        model=opts["model"],
        b1=float(opts["b1"]),
        alpha=float(opts["alpha"]),
    )
    validate_p_sec = float(opts["validate_p_sec"])
    if not 0 < validate_p_sec < 1:
        raise ValueError(f"validate_p_sec must be in (0, 1), got {validate_p_sec}")
    return {"codes": codes, "p_bits": [float(p) for p in opts["p_bit"].split(",")],
            "params": params, "chunks": n - m,
            "sampled": rel.chunk_dist(params, r, validate_p_sec)}


def _parse_code(token: str) -> tuple[str, tuple[int, ...]]:
    token = token.strip()
    name, _, rest = token.partition(":")
    name = name.strip().lower()
    if name == "rs":
        return "rs", ()
    if name == "sd":
        return "sd", (int(rest),)
    if name == "stair":
        return "stair", _parse_e(rest)
    raise ValueError(f"unknown code token {token!r}")


def _label(kind: str, e: tuple[int, ...], open_: str, sep: str, close: str) -> str:
    """A code's name in a report: bare for rs, else kind, open_, e, close."""
    return kind if kind == "rs" else f"{kind}{open_}{sep.join(str(x) for x in e)}{close}"


def reliability_rows(scenario: dict) -> list[dict]:
    rows = []
    for p_bit in scenario["p_bits"]:
        params = dataclasses.replace(scenario["params"], p_bit=p_bit)
        for kind, e, cfg in scenario["codes"]:
            rows.append({"p_bit": p_bit, "code": _label(kind, e, "(", ",", ")"),
                         "e": ",".join(str(x) for x in e) or "-",
                         **vars(rel.mttdl(params, cfg, code=kind))})
    return rows


def validate_against_sim(scenario: dict, outcomes: list[dict]) -> list[dict]:
    """Cross-check each code's analytic stripe loss against its failures in
    one sample drawn at an inflated sector-failure probability: the analytic
    forms are exact in the distribution, so the comparison is valid at any
    operating point.  ``outcomes`` holds the sample's
    ``sim.outcome_histogram`` rows, with a verdict per code as
    :func:`cmd_reliability` labels them.

    A code is ok when both binomial tails of its failure count under its
    analytic p_str are at least VALIDATE_ALPHA / (2 * codes), so a report
    whose every analytic value is right fails with probability at most
    VALIDATE_ALPHA (Bonferroni over the codes' two-sided tests).
    """
    trials = sum(row["stripes"] for row in outcomes)
    floor = VALIDATE_ALPHA / (2 * len(scenario["codes"]))
    out = []
    for kind, e, cfg in scenario["codes"]:
        analytic = rel.p_str(kind, cfg, scenario["sampled"])
        verdict = f"recoverable_{_label(kind, e, '_', '_', '')}"
        est = sim.McEstimate.of(sum(row["stripes"] for row in outcomes if not row[verdict]),
                                trials)
        ok = min(sim.binomial_tails(trials, analytic, est.failures)) >= floor
        out.append({
            "code": kind, "e": ",".join(str(x) for x in e) or "-",
            "analytic_p_str": analytic, "estimate": est.p_failure,
            "ci99_low": est.ci99[0], "ci99_high": est.ci99[1],
            "trials": trials, "ok": ok,
        })
    return out


def cmd_reliability(args) -> int:
    scenario = parse_scenario(Path(args.scenario).read_text())
    rows = reliability_rows(scenario)
    extras: dict[str, list[dict]] = {}
    if args.validate or args.histogram:
        predicates = {_label(kind, e, "_", "_", ""): sim.recoverable(kind, cfg)
                      for kind, e, cfg in scenario["codes"]}
        outcomes = sim.outcome_histogram(predicates, scenario["chunks"], scenario["sampled"],
                                         trials=args.trials, seed=args.seed)
        if args.validate:
            extras["validation"] = validate_against_sim(scenario, outcomes)
        if args.histogram:
            extras["histogram"] = outcomes
    _write_report(args, {"rows": rows, **extras} if extras else rows, [rows, *extras.values()])
    return 0 if all(c["ok"] for c in extras.get("validation", ())) else 1


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def run_bench(cfg: StairConfig, stripe_bytes: int, reps: int = 3, seed: int = 0) -> dict:
    """Best-of-``reps`` encode timings per method plus a worst-case decode."""
    if reps < 1:
        raise ValueError(f"bench needs at least one repetition, got {reps}")
    if stripe_bytes < 1:
        raise ValueError(f"bench needs a positive stripe size, got {stripe_bytes} bytes")
    word = cfg.w // 8
    symbol = max(word, (stripe_bytes // (cfg.r * cfg.n)) // word * word)
    rng = np.random.default_rng(seed)
    base = random_stripe(cfg, symbol, rng)
    data_mib = cfg.data_cell_count * symbol / 2 ** 20
    encode_res = {}
    for method in METHODS:
        best = math.inf
        for _ in range(reps):
            work = base.copy()
            t0 = time.perf_counter()
            stair_encode(cfg, work, method)
            best = min(best, time.perf_counter() - t0)
        encode_res[method] = {
            "seconds": best,
            "mib_per_s": data_mib / best,
            "mult_xors": xor_count(cfg, method),
        }
    chosen = choose_method(cfg)
    encoded = stair_encode(cfg, base.copy(), chosen)
    pattern = worst_case_pattern(cfg)
    damaged = sim.inject(cfg, encoded, pattern)
    best = math.inf
    for _ in range(reps):
        t0 = time.perf_counter()
        restored = stair_decode(cfg, damaged, pattern)
        best = min(best, time.perf_counter() - t0)
    if not np.array_equal(restored, encoded):
        raise RuntimeError("bench decode mismatch")
    # the reuse-based pick must not lose to direct encoding beyond noise
    reuse_ok = (encode_res[chosen]["mib_per_s"]
                >= 0.9 * encode_res["standard"]["mib_per_s"])
    return {
        "n": cfg.n, "r": cfg.r, "m": cfg.m, "e": cfg.e,
        "symbol_size": symbol,
        "stripe_bytes": cfg.r * cfg.n * symbol,
        "chosen": chosen,
        "encode": encode_res,
        "decode_mib_per_s": data_mib / best,
        "reuse_not_slower": reuse_ok,
    }


def cmd_bench(args) -> int:
    cfg = _config_from_args(args)
    result = run_bench(cfg, args.stripe_mib * 2 ** 20, reps=args.reps, seed=args.seed)
    rows = [{
        "method": meth,
        "mult_xors": result["encode"][meth]["mult_xors"],
        "encode_mib_per_s": round(result["encode"][meth]["mib_per_s"], 2),
        "chosen": "yes" if meth == result["chosen"] else "",
    } for meth in METHODS]
    rows.append({"method": "decode(worst-case)", "mult_xors": "",
                 "encode_mib_per_s": round(result["decode_mib_per_s"], 2), "chosen": ""})
    _write_report(args, result, [rows])
    return 0


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------

def cmd_selftest(args) -> int:
    from .gf import field_init
    from .mds import check_codeword
    from .stair import _codec, build_canonical

    checks: list[tuple[str, bool]] = []
    rng = np.random.default_rng(7)

    fld = field_init(8)
    sample = 512 if args.quick else 65536
    pairs = rng.integers(0, 256, size=(sample, 2))
    ok = True
    for a, b in pairs:
        res, aa, bb = 0, int(a), int(b)
        while bb:
            if bb & 1:
                res ^= aa
            aa <<= 1
            if aa & 0x100:
                aa ^= 0x11D
            bb >>= 1
        if res != fld.mul(int(a), int(b)):
            ok = False
            break
    checks.append(("field multiplication vs bitwise reference", ok))

    configs = [config_new(8, 4, 2, (1, 1, 2)), config_new(6, 3, 1, (1, 2))]
    if not args.quick:
        configs += [config_new(16, 16, 2, (4,)), config_new(10, 8, 3, (1, 1))]
    ok_eq = ok_rt = ok_canon = True
    for cfg in configs:
        for _ in range(2 if args.quick else 8):
            stripe = random_stripe(cfg, 8, rng)
            a, b, c = (stair_encode(cfg, stripe.copy(), meth) for meth in METHODS)
            ok_eq &= bool(np.array_equal(a, b) and np.array_equal(a, c))
            pattern = worst_case_pattern(cfg)
            restored = stair_decode(cfg, sim.inject(cfg, a, pattern), pattern)
            ok_rt &= bool(np.array_equal(restored, a))
            canon = build_canonical(cfg, a)
            codec = _codec(cfg)
            ok_canon &= all(check_codeword(codec.row_code, row) for row in canon)
    checks.append(("three encoders byte-identical", ok_eq))
    checks.append(("worst-case failure round-trip", ok_rt))
    checks.append(("augmented rows are row-code codewords", ok_canon))

    cost_cfg = config_new(8, 16, 2, (4,))
    checks.append(("cost model reference values",
                   xor_count(cost_cfg, "upstairs") == 600
                   and xor_count(cost_cfg, "downstairs") == 352))

    header = cont.ContainerHeader(config_new(8, 4, 2, (1, 1, 2)), 512, 12345)
    checks.append(("container header round-trip",
                   cont.parse_header(cont.pack_header(header)) == header))

    for name, good in checks:
        print(("ok   " if good else "FAIL ") + name)
    return 0 if all(good for _, good in checks) else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True, help="devices per stripe")
    p.add_argument("--r", type=int, required=True, help="sectors per chunk")
    p.add_argument("--m", type=int, required=True, help="tolerated whole-device failures")
    p.add_argument("--e", default="", help="sector-failure coverage, e.g. 1,1,2")
    p.add_argument("--w", type=int, default=8, choices=(8, 16, 32), help="field width")


def _add_format_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("-o", "--output", default=None, help="write the report here instead of stdout")


@cache   # built once: every call of main reuses it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="stair", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="encode a file into a container")
    p.add_argument("input")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--devices", default=None, help="also split chunks into per-device files")
    _add_config_flags(p)
    p.add_argument("--symbol-size", type=int, default=512)
    p.add_argument("--method", choices=("auto",) + METHODS, default="auto")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="extract the original file from a container")
    p.add_argument("input", nargs="?", default=None)
    p.add_argument("--devices", default=None)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("inject", help="zero out failed chunks/sectors, write a manifest")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--spec", default="", help='e.g. "chunks=6,7;sectors=3:1,5:2"')
    p.add_argument("--stripes", default="all", help='"all" or comma-separated stripe indices')
    p.add_argument("--seed", type=int, default=None,
                   help="randomise sector rows (default: bottom rows)")
    p.add_argument("--manifest", required=True)
    p.set_defaults(func=cmd_inject)

    p = sub.add_parser("repair", help="restore a damaged container from its manifest")
    p.add_argument("input")
    p.add_argument("--manifest", required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_repair)

    p = sub.add_parser("cost", help="encoding cost model (region multiply-XOR counts)")
    _add_config_flags(p)
    p.add_argument("--sweep-s", type=int, default=None,
                   help="sweep every coverage vector with this total")
    _add_format_flags(p)
    p.set_defaults(func=cmd_cost)

    p = sub.add_parser("reliability", help="analytic reliability report from a scenario file")
    p.add_argument("scenario")
    p.add_argument("--validate", action="store_true",
                   help="cross-check analytic stripe loss against Monte Carlo")
    p.add_argument("--histogram", action="store_true",
                   help="append an outcome histogram of the scenario's model at validate_p_sec")
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the one Monte-Carlo sample that --validate and --histogram share")
    _add_format_flags(p)
    p.set_defaults(func=cmd_reliability)

    p = sub.add_parser("bench", help="encode/decode throughput per method")
    _add_config_flags(p)
    p.add_argument("--stripe-mib", type=int, default=32)
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    _add_format_flags(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("selftest", help="run the built-in sanity checks")
    p.add_argument("--quick", action="store_true")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args) or 0
    except UnrecoverableError as exc:
        print(f"unrecoverable: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":   # pragma: no cover
    sys.exit(main())
