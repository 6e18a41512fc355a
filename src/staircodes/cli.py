"""Command-line surface: file codec over the container format plus the
cost, reliability and bench reports.

Subcommands: encode, decode, inject, repair, cost, reliability, bench,
selftest.  Reports emit CSV (default) or JSON via --format.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
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
from .errors import UnrecoverableError
from .stair import (METHODS, FailurePattern, StairConfig, choose_method, config_new,
                    decode as stair_decode, decoding_steps, encode as stair_encode,
                    pattern_within_coverage, random_stripe, worst_case_pattern, xor_count)

#: Bytes of stripes in one block of ``encode``, ``decode``, ``inject`` and
#: ``repair``: the bound on the memory each uses per block.
BLOCK_BYTES = 1 << 22

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
    text = text.strip()
    if not text:
        return ()
    return tuple(int(p) for p in text.split(","))


def _config_from_args(args) -> StairConfig:
    return config_new(args.n, args.r, args.m, _parse_e(args.e), args.w)


def _emit_rows(rows: list[dict], fmt: str, out) -> None:
    if fmt == "json":
        json.dump(rows, out, indent=2, default=str)
        out.write("\n")
        return
    if not rows:
        return
    writer = csv.DictWriter(out, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows(rows)


def _open_out(path: str | None):
    if path:
        return open(path, "w", newline="")
    return contextlib.nullcontext(sys.stdout)


# ---------------------------------------------------------------------------
# encode / decode
# ---------------------------------------------------------------------------

def _blocks(header: cont.ContainerHeader):
    """The container's stripes a block of at most ``BLOCK_BYTES`` at a time
    (one stripe when a stripe is larger): (first stripe, block, buffer)
    per block, where the (B, n, r, symbol_size) block and the (B, data
    bytes per stripe) buffer for its user bytes are views of two arrays
    that every block reuses."""
    per_block = max(1, min(BLOCK_BYTES // header.stripe_bytes, header.stripe_count))
    body = np.zeros((per_block, header.n, header.r, header.symbol_size), dtype=np.uint8)
    data = np.empty((per_block, header.data_bytes_per_stripe), dtype=np.uint8)
    for k in range(0, header.stripe_count, per_block):
        b = min(per_block, header.stripe_count - k)
        yield k, body[:b], data[:b]


def cmd_encode(args) -> int:
    """Stream the input through one block at a time: read its user bytes,
    copy them into the data cells, encode each stripe, write the block."""
    if not args.output and not args.devices:
        raise ValueError("need -o and/or --devices")
    cfg = _config_from_args(args)
    method = choose_method(cfg) if args.method == "auto" else args.method
    with contextlib.ExitStack() as stack:
        src = stack.enter_context(open(args.input, "rb"))
        if not stat.S_ISREG(os.fstat(src.fileno()).st_mode):
            # a pipe's length, which goes in the header first, is known
            # only at its end: spool it to an unnamed file
            spool = stack.enter_context(tempfile.TemporaryFile())
            shutil.copyfileobj(src, spool)
            spool.seek(0)
            src = spool
        header = cont.header_for(cfg, args.symbol_size, os.fstat(src.fileno()).st_size)
        with cont.writer(header, args.output, args.devices) as write:
            for k, body, data in _blocks(header):
                user = data.reshape(-1)[:cont.user_bytes(header, len(body), k)]
                cont.read_exact(src, user)
                cont.fill_data(header, user, body, k)
                for s in range(len(body)):
                    stair_encode(cfg, cont.stripe_view(body, s), method)
                write(body)
    return 0


def cmd_decode(args) -> int:
    """Stream the container through one block at a time: read the block,
    copy the data cells out, write the user bytes."""
    with cont.reader(args.input, args.devices) as (header, readinto), \
            cont.replaced(args.output, header.data_length) as out:
        for k, body, data in _blocks(header):
            readinto(body)
            out.write(cont.extract_data(header, body, k, data))
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


def _merge(cfg: StairConfig, patterns: list[FailurePattern]) -> FailurePattern:
    """The pattern that loses every cell lost in any of ``patterns``: the
    union of their failed chunks, and of their sector rows outside them.
    Each of ``patterns`` must be valid for cfg on its own."""
    if len(patterns) == 1:
        return patterns[0]
    for p in patterns:
        p.validate_for(cfg)
    failed = frozenset().union(*(p.failed_chunks for p in patterns))
    sectors: dict[int, set[int]] = {}
    for p in patterns:
        for j, rows in p.sector_failures:
            if j not in failed:
                sectors.setdefault(j, set()).update(rows)
    return FailurePattern.make(failed, sectors)


def _merge_by_stripe(cfg: StairConfig, entries) -> dict[int, FailurePattern]:
    """Stripe -> its one pattern, from (stripe, pattern) entries that may
    name a stripe more than once."""
    by_stripe: dict[int, list[FailurePattern]] = {}
    for k, pattern in entries:
        by_stripe.setdefault(k, []).append(pattern)
    return {k: _merge(cfg, ps) for k, ps in by_stripe.items()}


def _rewrite(path, header: cont.ContainerHeader, readinto,
             by_stripe: dict[int, FailurePattern], fix) -> None:
    """Copy the container to ``path`` a block at a time.  Before a block is
    written, ``fix(body, idx, pattern)`` runs once for each pattern of
    ``by_stripe`` (stripe -> pattern) on the list ``idx`` of the block's
    stripes that have it."""
    with cont.writer(header, path) as write:
        for k, body, _ in _blocks(header):
            readinto(body)
            groups: dict[FailurePattern, list[int]] = {}
            for s in range(len(body)):
                if k + s in by_stripe:
                    groups.setdefault(by_stripe[k + s], []).append(s)
            for pattern, idx in groups.items():
                fix(body, idx, pattern)
            write(body)


def cmd_inject(args) -> int:
    """Zero the cells that ``--spec`` loses in each of ``--stripes`` and
    write the result, plus a manifest of one entry per stripe named.  A
    stripe named more than once loses the union of its patterns' cells."""
    with cont.reader(args.input) as (header, readinto):
        cfg = header.config()
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

        def zero(body, idx, pattern):
            for i, j in pattern.lost_cells(cfg):
                body[idx, j, i] = 0
        _rewrite(args.output, header, readinto, by_stripe, zero)
    manifest = {
        "config": {"n": cfg.n, "r": cfg.r, "m": cfg.m, "e": list(cfg.e), "w": cfg.w},
        "symbol_size": header.symbol_size,
        "within_coverage": all(pattern_within_coverage(cfg, pattern)
                               for pattern in set(by_stripe.values())),
        "patterns": [{"stripe": k, **_pattern_to_json(pattern)} for k, pattern in injected],
    }
    Path(args.manifest).write_text(json.dumps(manifest, indent=2) + "\n")
    return 0


def _read_manifest(path: str, header: cont.ContainerHeader) -> dict[int, FailurePattern]:
    """Stripe index -> failure pattern, from a repair manifest written for
    the container of ``header``, with the entries of a stripe merged into
    one pattern; ValueError when the manifest is malformed, for another
    config or symbol size, or names a stripe that the container does not
    hold."""
    cfg = header.config()
    manifest = json.loads(Path(path).read_text())
    try:
        mc = manifest["config"]
        n, r, m, w = (_manifest_int(mc[k]) for k in ("n", "r", "m", "w"))
        same = (config_new(n, r, m, [_manifest_int(x) for x in mc["e"]], w) == cfg
                and _manifest_int(manifest["symbol_size"]) == header.symbol_size)
        entries = [(entry.get("stripe"), _pattern_from_json(entry))
                   for entry in manifest.get("patterns", [])]
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed repair manifest: {type(exc).__name__}: {exc}") from None
    if not same:
        raise ValueError("manifest config or symbol size does not match the container header")
    stripes = header.stripe_count
    return _merge_by_stripe(cfg, [(cont.check_stripe(stripes, k), pattern)
                                  for k, pattern in entries])


def cmd_repair(args) -> int:
    """Restore the cells that a manifest lists as lost, and write the result.

    The entries of one stripe are merged into one pattern.  Every distinct
    pattern is planned before any block is read, so an unrecoverable one
    exits 2 having done no kernel work and written nothing.  They are
    planned in reverse order of first use: the plan cache is bounded, and
    the patterns needed first are then the newest in it.  The container
    then streams through a block at a time, and the block's stripes of
    each pattern are decoded once, side by side as one wide stripe
    (``container.gather``).
    """
    with cont.reader(args.input) as (header, readinto):
        cfg = header.config()
        by_stripe = _read_manifest(args.manifest, header)
        for pattern in reversed(dict.fromkeys(by_stripe[k] for k in sorted(by_stripe))):
            decoding_steps(cfg, pattern)

        def decode(body, idx, pattern):
            cont.scatter(body, idx, stair_decode(cfg, cont.gather(body, idx), pattern))
        _rewrite(args.output, header, readinto, by_stripe, decode)
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
    if sweep_s is None:
        vectors = [cfg_base.e]
    else:
        vectors = _partitions_ascending(sweep_s, cfg_base.r, cfg_base.n - cfg_base.m)
    rows = []
    for e in vectors:
        cfg = config_new(cfg_base.n, cfg_base.r, cfg_base.m, e, cfg_base.w)
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
    with _open_out(args.output) as out:
        _emit_rows(rows, args.format, out)
    return 0


# ---------------------------------------------------------------------------
# reliability
# ---------------------------------------------------------------------------

def parse_scenario(text: str) -> dict:
    opts = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad scenario line: {raw!r}")
        key, val = (p.strip() for p in line.split("=", 1))
        opts[key] = val
    return opts


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


def _scenario_codes(opts: dict) -> tuple[int, int, list]:
    """A scenario's (r, n - m, [(kind, e, config)]), codes in file order.

    Each code's e gives its parity sectors per stripe: () for rs and (s,)
    for sd(s), so its config has the same storage efficiency.
    """
    n = int(opts.get("n", "8"))
    r = int(opts.get("r", "16"))
    m = int(opts.get("m", "1"))
    codes = []
    for tok in opts.get("codes", "rs").split(";"):
        if tok.strip():
            kind, e = _parse_code(tok)
            codes.append((kind, e, config_new(n, r, m, e)))
    return r, n - m, codes


def _scenario_params(opts: dict, p_bit: float) -> rel.ReliabilityParams:
    return rel.ReliabilityParams(
        user_bytes=_parse_size(opts.get("user_data", "10 PB")),
        device_bytes=_parse_size(opts.get("device_capacity", "300 GB")),
        sector_bytes=int(opts.get("sector_size", "512")),
        mean_time_to_failure_hours=float(opts.get("mean_time_to_failure_hours", "500000")),
        mean_rebuild_hours=float(opts.get("mean_rebuild_hours", "17.8")),
        p_bit=p_bit,
        model=opts.get("model", "independent"),
        b1=float(opts.get("b1", "0.98")),
        alpha=float(opts.get("alpha", "1.79")),
    )


def reliability_rows(opts: dict) -> list[dict]:
    p_bits = [float(p) for p in opts.get("p_bit", "1e-14").split(",")]
    _, _, codes = _scenario_codes(opts)
    rows = []
    for p_bit in p_bits:
        params = _scenario_params(opts, p_bit)
        for kind, e, cfg in codes:
            report = rel.mttdl(params, cfg, code=kind)
            rows.append({
                "p_bit": p_bit,
                "code": _label(kind, e, "(", ",", ")"),
                "e": ",".join(str(x) for x in e) or "-",
                "efficiency": report.efficiency,
                "n_arrays": report.num_arrays,
                "p_str": report.p_str,
                "mttdl_sys_hours": report.mttdl_system_hours,
                "p_sec": report.p_sec,
                "p_arr": report.p_arr,
                "mttdl_arr_hours": report.mttdl_array_hours,
                "mean_burst_length": report.mean_burst_length,
            })
    return rows


def validate_against_sim(opts: dict, trials: int, seed: int = 20_000) -> list[dict]:
    """Cross-check each code's analytic stripe loss against Monte Carlo at an
    inflated sector-failure probability (the analytic forms are exact in the
    distribution, so the comparison is valid at any operating point)."""
    r, chunks, codes = _scenario_codes(opts)
    p_inflated = float(opts.get("validate_p_sec", "1e-3"))
    # the scenario's sector-failure model at p_inflated; p_bit plays no part
    dist = rel.chunk_dist(_scenario_params(opts, 0.0), r, p_inflated)
    out = []
    for i, (kind, e, cfg) in enumerate(codes):
        analytic = rel.p_str(kind, cfg, dist)
        est = sim.monte_carlo_p_str(sim.recoverable(kind, cfg), chunks, dist,
                                    trials=trials, seed=seed + i)
        sigma = math.sqrt(max(analytic * (1 - analytic), 1e-300) / trials)
        ok = abs(est.p_failure - analytic) <= 3 * sigma
        out.append({
            "code": kind, "e": ",".join(str(x) for x in e) or "-",
            "analytic_p_str": analytic, "estimate": est.p_failure,
            "ci99_low": est.ci99[0], "ci99_high": est.ci99[1],
            "trials": trials, "ok": ok,
        })
    return out


def _histogram_rows(opts: dict, trials: int, seed: int) -> list[dict]:
    r, chunks, codes = _scenario_codes(opts)
    dist = rel.p_chk_independent(r, float(opts.get("validate_p_sec", "1e-3")))
    predicates = {_label(kind, e, "_", "_", ""): sim.recoverable(kind, cfg)
                  for kind, e, cfg in codes}
    return sim.outcome_histogram(predicates, chunks, dist, trials=trials, seed=seed)


def cmd_reliability(args) -> int:
    opts = parse_scenario(Path(args.scenario).read_text())
    rows = reliability_rows(opts)
    status = 0
    extras: dict[str, list[dict]] = {}
    if args.validate:
        checks = validate_against_sim(opts, args.trials)
        status = 0 if all(c["ok"] for c in checks) else 1
        extras["validation"] = checks
    if args.histogram:
        extras["histogram"] = _histogram_rows(opts, args.trials, args.seed)
    with _open_out(args.output) as out:
        if not extras:
            _emit_rows(rows, args.format, out)
        elif args.format == "json":
            json.dump({"rows": rows, **extras}, out, indent=2)
            out.write("\n")
        else:
            _emit_rows(rows, "csv", out)
            for table in extras.values():
                out.write("\n")
                _emit_rows(table, "csv", out)
    return status


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def run_bench(cfg: StairConfig, stripe_bytes: int, reps: int = 3, seed: int = 0) -> dict:
    """Best-of-``reps`` encode timings per method plus a worst-case decode."""
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
    with _open_out(args.output) as out:
        if args.format == "json":
            json.dump(result, out, indent=2, default=str)
            out.write("\n")
        else:
            _emit_rows(rows, "csv", out)
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

    header = cont.header_for(config_new(8, 4, 2, (1, 1, 2)), 512, 12345)
    checks.append(("container header round-trip",
                   cont.parse_header(cont.pack_header(header)) == header))

    failed = 0
    for name, good in checks:
        print(("ok   " if good else "FAIL ") + name)
        failed += not good
    return 1 if failed else 0


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
                   help="append an outcome histogram of the independent model at validate_p_sec")
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the --histogram draws (--validate keeps its fixed seeds)")
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
