import dataclasses
import hashlib
import importlib.util
import itertools
import json
import math
import os
import stat
import struct
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import staircodes
from staircodes import cli, config_new, encoding_steps, sim, stair, xor_count
from staircodes import container as cont
from staircodes import reliability as rel
from staircodes.stair import FailurePattern, pattern_within_coverage, worst_case_pattern


CFG_FLAGS = ["--n", "8", "--r", "4", "--m", "2", "--e", "1,1,2", "--symbol-size", "32"]


@pytest.fixture
def payload(tmp_path, rng):
    data = rng.integers(0, 256, 10_000, dtype=np.uint8).tobytes()
    path = tmp_path / "input.bin"
    path.write_bytes(data)
    return path, data


def test_encode_decode_roundtrip(tmp_path, payload):
    src, data = payload
    box = tmp_path / "c.stairc"
    out = tmp_path / "out.bin"
    assert cli.main(["encode", str(src), "-o", str(box)] + CFG_FLAGS) == 0
    assert cli.main(["decode", str(box), "-o", str(out)]) == 0
    assert out.read_bytes() == data


def test_empty_file(tmp_path):
    src = tmp_path / "empty.bin"
    src.write_bytes(b"")
    box = tmp_path / "c.stairc"
    out = tmp_path / "out.bin"
    assert cli.main(["encode", str(src), "-o", str(box)] + CFG_FLAGS) == 0
    header = cont.parse_header(box.read_bytes())
    assert header.data_length == 0
    assert box.stat().st_size == header.size        # header-only container
    assert cli.main(["decode", str(box), "-o", str(out)]) == 0
    assert out.read_bytes() == b""


def test_methods_produce_identical_containers(tmp_path, payload):
    src, _ = payload
    blobs = []
    for method in ("standard", "upstairs", "downstairs"):
        box = tmp_path / f"{method}.stairc"
        assert cli.main(["encode", str(src), "-o", str(box), "--method", method]
                        + CFG_FLAGS) == 0
        blobs.append(box.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]


def test_inject_repair_roundtrip(tmp_path, payload):
    src, _ = payload
    box, dmg, fixed = (tmp_path / n for n in ("c.stairc", "d.stairc", "f.stairc"))
    manifest = tmp_path / "m.json"
    assert cli.main(["encode", str(src), "-o", str(box)] + CFG_FLAGS) == 0
    assert cli.main(["inject", str(box), "-o", str(dmg),
                     "--spec", "chunks=6,7;sectors=3:1,4:1,5:2",
                     "--manifest", str(manifest)]) == 0
    assert dmg.read_bytes() != box.read_bytes()
    doc = json.loads(manifest.read_text())
    assert doc["within_coverage"] is True
    assert doc["patterns"][0]["failed_chunks"] == [6, 7]
    assert cli.main(["repair", str(dmg), "--manifest", str(manifest),
                     "-o", str(fixed)]) == 0
    assert fixed.read_bytes() == box.read_bytes()


def test_repair_without_damage_is_noop(tmp_path, payload):
    src, _ = payload
    box, dmg, fixed = (tmp_path / n for n in ("c.stairc", "d.stairc", "f.stairc"))
    manifest = tmp_path / "m.json"
    assert cli.main(["encode", str(src), "-o", str(box)] + CFG_FLAGS) == 0
    assert cli.main(["inject", str(box), "-o", str(dmg), "--spec", "",
                     "--manifest", str(manifest)]) == 0
    assert dmg.read_bytes() == box.read_bytes()
    assert cli.main(["repair", str(dmg), "--manifest", str(manifest),
                     "-o", str(fixed)]) == 0
    assert fixed.read_bytes() == box.read_bytes()


def test_beyond_coverage_repair_exits_2(tmp_path, payload):
    src, _ = payload
    box, dmg = tmp_path / "c.stairc", tmp_path / "d.stairc"
    manifest = tmp_path / "m.json"
    assert cli.main(["encode", str(src), "-o", str(box)] + CFG_FLAGS) == 0
    assert cli.main(["inject", str(box), "-o", str(dmg), "--spec", "chunks=0,1,2",
                     "--manifest", str(manifest)]) == 0
    doc = json.loads(manifest.read_text())
    assert doc["within_coverage"] is False
    assert cli.main(["repair", str(dmg), "--manifest", str(manifest),
                     "-o", str(tmp_path / "f.stairc")]) == 2


def test_foreign_polynomial_exits_1(tmp_path, payload):
    # a header naming a field the codec does not run must not be decoded
    from test_container import with_poly
    src, _ = payload
    box, dmg, manifest = tmp_path / "c.stairc", tmp_path / "d.stairc", tmp_path / "m.json"
    assert cli.main(["encode", str(src), "-o", str(box)] + CFG_FLAGS) == 0
    assert cli.main(["inject", str(box), "-o", str(dmg), "--spec", "chunks=6",
                     "--manifest", str(manifest)]) == 0
    for path in (box, dmg):
        blob = path.read_bytes()
        header = cont.parse_header(blob)
        path.write_bytes(with_poly(header, 0x11B) + blob[header.size:])
    assert cli.main(["decode", str(box), "-o", str(tmp_path / "o.bin")]) == 1
    assert cli.main(["repair", str(dmg), "--manifest", str(manifest),
                     "-o", str(tmp_path / "f.stairc")]) == 1


@pytest.mark.parametrize("stripes", ["99", "-1"])
def test_inject_bad_stripe_index_exits_1(tmp_path, payload, stripes):
    src, data = payload
    src.write_bytes(data[:1000])                     # two stripes
    box, dmg, manifest = tmp_path / "c.stairc", tmp_path / "d.stairc", tmp_path / "m.json"
    assert cli.main(["encode", str(src), "-o", str(box)] + CFG_FLAGS) == 0
    assert cont.parse_header(box.read_bytes()).stripe_count == 2
    assert cli.main(["inject", str(box), "-o", str(dmg), "--spec", "chunks=6",
                     "--stripes", stripes, "--manifest", str(manifest)]) == 1
    assert not dmg.exists() and not manifest.exists()


@pytest.mark.parametrize("stripe", [50, "x"])
def test_repair_bad_stripe_index_exits_1(tmp_path, payload, stripe):
    src, _ = payload
    box, dmg, manifest = tmp_path / "c.stairc", tmp_path / "d.stairc", tmp_path / "m.json"
    assert cli.main(["encode", str(src), "-o", str(box)] + CFG_FLAGS) == 0
    assert cli.main(["inject", str(box), "-o", str(dmg), "--spec", "chunks=6",
                     "--stripes", "1", "--manifest", str(manifest)]) == 0
    doc = json.loads(manifest.read_text())
    doc["patterns"][0]["stripe"] = stripe
    manifest.write_text(json.dumps(doc))
    assert cli.main(["repair", str(dmg), "--manifest", str(manifest),
                     "-o", str(tmp_path / "f.stairc")]) == 1


def _without(obj: dict, key: str) -> dict:
    return {k: v for k, v in obj.items() if k != key}


def _rekey(doc: dict, key: str) -> dict:
    """The manifest with chunk 3's sector rows under ``key`` instead of "3"."""
    entry = doc["patterns"][0]
    sectors = {(key if j == "3" else j): rows for j, rows in entry["sector_failures"].items()}
    return {**doc, "patterns": [{**entry, "sector_failures": sectors}]}


MALFORMED_MANIFESTS = {
    "no-config": lambda doc: _without(doc, "config"),
    "pattern-not-object": lambda doc: {**doc, "patterns": [3]},
    "config-without-w": lambda doc: {**doc, "config": _without(doc["config"], "w")},
    "sector-rows-not-list": lambda doc: {
        **doc, "patterns": [{**doc["patterns"][0], "sector_failures": {"3": 5}}]},
    "manifest-is-list": lambda doc: [doc],
    "float-chunk": lambda doc: {
        **doc, "patterns": [{**doc["patterns"][0], "failed_chunks": [6.5]}]},
    "float-row": lambda doc: {
        **doc, "patterns": [{**doc["patterns"][0], "sector_failures": {"3": [3.5]}}]},
    "bool-chunk": lambda doc: {
        **doc, "patterns": [{**doc["patterns"][0], "failed_chunks": [True]}]},
    # config numbers that int() would truncate to the container's own config
    "float-config-n": lambda doc: {**doc, "config": {**doc["config"], "n": 8.7}},
    "float-config-r": lambda doc: {**doc, "config": {**doc["config"], "r": 4.5}},
    "float-config-m": lambda doc: {**doc, "config": {**doc["config"], "m": 2.9}},
    "float-config-e": lambda doc: {**doc, "config": {**doc["config"], "e": [1.5, 1, 2]}},
    "float-config-w": lambda doc: {**doc, "config": {**doc["config"], "w": 8.0}},
    # chunk keys that int() reads as 3, so that a second key could name chunk 3 again
    "key-leading-zero": lambda doc: _rekey(doc, "03"),
    "key-leading-space": lambda doc: _rekey(doc, " 3"),
    "key-plus-sign": lambda doc: _rekey(doc, "+3"),
    # the manifest of a container with the same config but other symbols
    "other-symbol-size": lambda doc: {**doc, "symbol_size": 2 * doc["symbol_size"]},
    "float-symbol-size": lambda doc: {**doc, "symbol_size": float(doc["symbol_size"])},
    "no-symbol-size": lambda doc: _without(doc, "symbol_size"),
}


@pytest.mark.parametrize("malform", MALFORMED_MANIFESTS.values(), ids=MALFORMED_MANIFESTS.keys())
def test_malformed_manifest_exits_1(tmp_path, payload, malform):
    src, _ = payload
    box, dmg, manifest = tmp_path / "c.stairc", tmp_path / "d.stairc", tmp_path / "m.json"
    fixed = tmp_path / "f.stairc"
    assert cli.main(["encode", str(src), "-o", str(box)] + CFG_FLAGS) == 0
    assert cli.main(["inject", str(box), "-o", str(dmg), "--spec", "chunks=6;sectors=3:1",
                     "--stripes", "1", "--manifest", str(manifest)]) == 0
    manifest.write_text(json.dumps(malform(json.loads(manifest.read_text()))))
    assert cli.main(["repair", str(dmg), "--manifest", str(manifest), "-o", str(fixed)]) == 1
    assert not fixed.exists()


def test_deeply_nested_manifest_exits_1(tmp_path, payload, capsys):
    # json.loads gives up on this with RecursionError, not a JSON error
    src, _ = payload
    box, manifest, fixed = tmp_path / "c.stairc", tmp_path / "m.json", tmp_path / "f.stairc"
    assert cli.main(["encode", str(src), "-o", str(box)] + CFG_FLAGS) == 0
    manifest.write_text("[" * 100_000)
    assert cli.main(["repair", str(box), "--manifest", str(manifest), "-o", str(fixed)]) == 1
    assert "malformed repair manifest: RecursionError" in capsys.readouterr().err
    assert not fixed.exists()


@pytest.mark.parametrize("seed", [4, 6])
def test_repair_merges_repeated_stripe_entries(tmp_path, payload, seed):
    # two seeded patterns land on stripe 0; each entry alone leaves some of
    # the other's cells unrestored, so repair must decode their union
    src, _ = payload
    box, dmg, fixed = (tmp_path / n for n in ("c.stairc", "d.stairc", "f.stairc"))
    manifest = tmp_path / "m.json"
    assert cli.main(["encode", str(src), "-o", str(box)] + CFG_FLAGS) == 0
    assert cli.main(["inject", str(box), "-o", str(dmg), "--spec", "sectors=2:1,3:1",
                     "--stripes", "0,0", "--seed", str(seed), "--manifest", str(manifest)]) == 0
    doc = json.loads(manifest.read_text())
    cfg = cont.parse_header(box.read_bytes()).cfg
    union = FailurePattern.make((), {
        j: {i for entry in doc["patterns"] for i in entry["sector_failures"].get(str(j), ())}
        for j in (2, 3)})
    assert len(doc["patterns"]) == 2 and doc["patterns"][0] != doc["patterns"][1]
    assert cli.main(["repair", str(dmg), "--manifest", str(manifest), "-o", str(fixed)]) == 0
    assert fixed.read_bytes() == box.read_bytes()
    assert doc["within_coverage"] is pattern_within_coverage(cfg, union)


@pytest.fixture(scope="module", params=[
    (CFG_FLAGS, "chunks=6;sectors=3:1"),
    (["--n", "4", "--r", "4", "--m", "1", "--symbol-size", "32"], "chunks=3"),
], ids=["exemplar", "no-stair"])
def small_container(tmp_path_factory, request):
    """The bytes of a container of a 5,000-byte input (32 B symbols, the
    exemplar geometry or one with m' = 0), and the path of a manifest
    injected into it."""
    flags, spec = request.param
    work = tmp_path_factory.mktemp("small")
    src, box, dmg, manifest = (work / n for n in ("in.bin", "c.stairc", "d.stairc", "m.json"))
    src.write_bytes(np.random.default_rng(5).bytes(5000))
    assert cli.main(["encode", str(src), "-o", str(box)] + flags) == 0
    assert cli.main(["inject", str(box), "-o", str(dmg), "--spec", spec,
                     "--manifest", str(manifest)]) == 0
    return box.read_bytes(), manifest


HEADER_EDITS = st.lists(st.tuples(st.integers(0, 40), st.integers(1, 255)),
                        min_size=1, max_size=3)


@settings(max_examples=150, deadline=None)
@given(edits=st.one_of(HEADER_EDITS, st.none()), data=st.data())
def test_damaged_v1_container_never_raises(small_container, edits, data):
    """The CLI's promise on a damaged container: with 1-3 of the 41 header
    bytes changed, or the file truncated, ``decode`` and ``repair`` each
    exit 0, 1 or 2 and raise nothing."""
    blob, manifest = small_container
    if edits is None:
        blob = blob[:data.draw(st.integers(0, len(blob) - 1), label="length")]
    else:
        blob = bytearray(blob)
        for offset, flip in edits:
            blob[offset] ^= flip
    with tempfile.TemporaryDirectory() as work:
        box = Path(work) / "c.stairc"
        box.write_bytes(blob)
        assert cli.main(["decode", str(box), "-o", str(Path(work) / "o.bin")]) in (0, 1, 2)
        assert cli.main(["repair", str(box), "--manifest", str(manifest),
                         "-o", str(Path(work) / "f.stairc")]) in (0, 1, 2)


def test_every_header_byte_flipped_never_raises(small_container, tmp_path):
    """The same promise for each byte of the header XORed with 0x01, 0x80
    and 0xFF in turn, so that no offset is left to chance."""
    blob, manifest = small_container
    size = cont.parse_header(blob).size
    assert size in (41, 35)
    box, out, fixed = (tmp_path / n for n in ("c.stairc", "o.bin", "f.stairc"))
    for offset in range(size):
        for flip in (0x01, 0x80, 0xFF):
            damaged = bytearray(blob)
            damaged[offset] ^= flip
            box.write_bytes(damaged)
            assert cli.main(["decode", str(box), "-o", str(out)]) in (0, 1, 2), (offset, flip)
            assert cli.main(["repair", str(box), "--manifest", str(manifest),
                             "-o", str(fixed)]) in (0, 1, 2), (offset, flip)


@settings(max_examples=150, deadline=None)
@given(edits=st.one_of(st.lists(st.tuples(st.integers(0, 2 ** 16), st.integers(0, 255)),
                                min_size=1, max_size=3), st.none()),
       data=st.data())
def test_damaged_manifest_never_raises(small_container, edits, data):
    """With 1-3 bytes of a valid manifest's text changed, or the manifest
    truncated, ``repair`` exits 0, 1 or 2 and raises nothing."""
    blob, manifest = small_container
    text = bytearray(manifest.read_bytes())
    if edits is None:
        text = text[:data.draw(st.integers(0, len(text) - 1), label="length")]
    else:
        for offset, value in edits:
            text[offset % len(text)] = value
    with tempfile.TemporaryDirectory() as work:
        box, damaged = Path(work) / "c.stairc", Path(work) / "m.json"
        box.write_bytes(blob)
        damaged.write_bytes(text)
        assert cli.main(["repair", str(box), "--manifest", str(damaged),
                         "-o", str(Path(work) / "f.stairc")]) in (0, 1, 2)


def _read_body(path: Path) -> tuple[cont.ContainerHeader, np.ndarray]:
    """The header of the container file at ``path`` and its stripes as a
    writable (stripes, n, r, symbol_size) array."""
    header = cont.parse_header(path.read_bytes())
    body = np.fromfile(path, dtype=np.uint8, offset=header.size)
    return header, body.reshape(header.stripe_count, header.cfg.n, header.cfg.r,
                                header.symbol_size)


def _damaged_copy(tmp_path, rng, w, symbol, stripes, patterns):
    """Encode random data at field width w, then overwrite with noise the
    cells that ``patterns[k]`` loses in stripe k, writing the damaged
    container and its manifest.  Returns (clean path, damaged path,
    manifest path)."""
    cfg = config_new(8, 4, 2, (1, 1, 2), w)
    src, box, dmg = tmp_path / "in.bin", tmp_path / "c.stairc", tmp_path / "d.stairc"
    src.write_bytes(rng.bytes(stripes * cfg.data_cell_count * symbol - symbol))
    assert cli.main(["encode", str(src), "-o", str(box), "--w", str(w),
                     "--symbol-size", str(symbol)] + CFG_FLAGS[:-2]) == 0
    header, body = _read_body(box)
    assert header.stripe_count == stripes
    entries = []
    for k, pattern in enumerate(patterns):
        cells = cont.stripe_view(body, k)
        for i, j in pattern.lost_cells(cfg):
            cells[i, j] = rng.integers(0, 256, symbol, dtype=np.uint8)
        entries.append({"stripe": k, **cli._pattern_to_json(pattern)})
    dmg.write_bytes(cont.pack_header(header) + body.tobytes())
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({
        "config": {"n": 8, "r": 4, "m": 2, "e": [1, 1, 2], "w": w},
        "symbol_size": symbol, "patterns": entries}))
    return box, dmg, manifest


def _random_pattern(rng, cfg) -> FailurePattern:
    """Up to m failed chunks plus sector losses within coverage elsewhere."""
    failed = rng.choice(cfg.n, size=int(rng.integers(0, cfg.m + 1)), replace=False).tolist()
    alive = [j for j in range(cfg.n) if j not in failed]
    slots = rng.choice(cfg.m_prime, size=int(rng.integers(0, cfg.m_prime + 1)), replace=False)
    chunks = rng.choice(alive, size=len(slots), replace=False).tolist()
    sectors = {j: rng.choice(cfg.r, size=int(rng.integers(1, cfg.e[l] + 1)), replace=False)
               for l, j in zip(slots, chunks)}
    return FailurePattern.make(failed, sectors)


def _rebuild_patterns(rng, cfg, stripes) -> list[FailurePattern]:
    """The damage of the benchmark's rebuild workload: the same m chunks
    lost in every stripe, and in one stripe in four also sectors within
    coverage on other chunks."""
    failed = sorted(rng.choice(cfg.n, size=cfg.m, replace=False).tolist())
    alive = [j for j in range(cfg.n) if j not in failed]
    scattered = set(rng.choice(stripes, size=stripes // 4, replace=False).tolist())
    patterns = []
    for k in range(stripes):
        sectors = {}
        if k in scattered:
            count = int(rng.integers(1, cfg.m_prime + 1))
            slots = rng.choice(cfg.m_prime, size=count, replace=False)
            for slot, j in zip(slots, rng.choice(alive, size=count, replace=False)):
                sectors[int(j)] = rng.choice(cfg.r, size=int(rng.integers(1, cfg.e[slot] + 1)),
                                             replace=False)
        patterns.append(FailurePattern.make(failed, sectors))
    return patterns


@pytest.mark.parametrize("case", ["shared", "mixed", "rebuild", "large-symbols"])
@pytest.mark.parametrize("w", [8, 16, 32])
def test_grouped_repair_is_byte_identical(tmp_path, monkeypatch, rng, w, case):
    """Repair decodes the stripes of a block that share a pattern as one
    wide stripe; the result must equal the clean container and a
    per-stripe decode of the same damaged body, with blocks of one stripe,
    of three and of the default size.  Then groups span blocks, and the
    64 KiB symbols make 2 MiB stripes, so their one group spans three
    default blocks.  In the rebuild case most groups hold one stripe, which
    is decoded from its own view."""
    cfg = config_new(8, 4, 2, (1, 1, 2), w)
    symbol, stripes = (65536, 5) if case == "large-symbols" else (32, 40)
    if case == "mixed":
        pool = [_random_pattern(rng, cfg) for _ in range(8)]
        patterns = [pool[k] if k < 8 else pool[int(rng.integers(0, 8))] for k in range(stripes)]
    elif case == "rebuild":
        patterns = _rebuild_patterns(rng, cfg, stripes)
        assert 2 < len(set(patterns)) < stripes
    else:
        patterns = [worst_case_pattern(cfg)] * stripes
    box, dmg, manifest = _damaged_copy(tmp_path, rng, w, symbol, stripes, patterns)
    header, body = _read_body(dmg)
    for k, pattern in enumerate(patterns):
        cells = cont.stripe_view(body, k)
        cells[:] = stair.decode(cfg, cells, pattern)
    fixed = tmp_path / "f.stairc"
    for block in (1, 3, None):
        with monkeypatch.context() as patch:
            if block:
                patch.setattr(cont, "BLOCK_BYTES", block * header.stripe_bytes)
            assert cli.main(["repair", str(dmg), "--manifest", str(manifest),
                             "-o", str(fixed)]) == 0
        assert fixed.read_bytes() == box.read_bytes()
        assert _read_body(fixed)[1].tobytes() == body.tobytes()


def test_repair_decodes_once_per_distinct_pattern(tmp_path, rng, monkeypatch):
    cfg = config_new(8, 4, 2, (1, 1, 2))
    pool = [worst_case_pattern(cfg), FailurePattern.make([0, 5]),
            FailurePattern.make([1], {3: [0], 4: [1, 2]})]
    patterns = [pool[k % 3] for k in range(12)]
    box, dmg, manifest = _damaged_copy(tmp_path, rng, 8, 32, 12, patterns)
    calls = []
    decode = cli.stair_decode
    monkeypatch.setattr(cli, "stair_decode", lambda *a, **kw: calls.append(1) or decode(*a, **kw))
    fixed = tmp_path / "f.stairc"
    assert cli.main(["repair", str(dmg), "--manifest", str(manifest), "-o", str(fixed)]) == 0
    assert fixed.read_bytes() == box.read_bytes()
    assert len(calls) == 3


def test_repair_plans_each_of_many_distinct_patterns_once(tmp_path, rng):
    # every plan of a 2,000-pattern manifest stays cached from the planning
    # pass to its decode, so none is planned twice
    from oracles import iter_within_coverage_patterns
    cfg = config_new(8, 4, 2, (1, 1, 2))
    patterns = list(itertools.islice(iter_within_coverage_patterns(cfg), 2000))
    assert len(set(patterns)) == 2000
    box, dmg, manifest = _damaged_copy(tmp_path, rng, 8, 32, 2000, patterns)
    stair._decode_plan.cache_clear()
    fixed = tmp_path / "f.stairc"
    assert cli.main(["repair", str(dmg), "--manifest", str(manifest), "-o", str(fixed)]) == 0
    assert fixed.read_bytes() == box.read_bytes()
    assert stair._decode_plan.cache_info().misses == 2000


@pytest.mark.parametrize("field, first, later", [
    ("failed_chunks", [1], [True]),
    ("failed_chunks", [1], [1.0]),
    ("sector_failures", {"3": [1]}, {"3": [True]}),
    ("sector_failures", {"3": [1]}, {"3": [1.0]}),
], ids=["chunk-bool", "chunk-float", "row-bool", "row-float"])
def test_repair_refuses_a_later_entry_equal_only_by_value(tmp_path, rng, capsys,
                                                          field, first, later):
    # repair parses each distinct entry once; true and 1.0 equal 1 and hash
    # alike, so a cache keyed by value would pass the later entry unchecked
    pattern = cli._pattern_from_json({field: first})
    _, dmg, manifest = _damaged_copy(tmp_path, rng, 8, 32, 4, [pattern] * 4)
    doc = json.loads(manifest.read_text())
    doc["patterns"][2][field] = later
    manifest.write_text(json.dumps(doc))
    fixed = tmp_path / "f.stairc"
    assert cli.main(["repair", str(dmg), "--manifest", str(manifest), "-o", str(fixed)]) == 1
    assert "is not an integer" in capsys.readouterr().err
    assert not fixed.exists()


def test_repair_decodes_two_spellings_of_a_pattern_as_one_group(tmp_path, rng, monkeypatch):
    spelled = [FailurePattern.make([0], {3: [0, 1]}), FailurePattern.make([5])]
    patterns = [spelled[k % 4 == 3] for k in range(12)]
    box, dmg, manifest = _damaged_copy(tmp_path, rng, 8, 32, 12, patterns)
    doc = json.loads(manifest.read_text())
    for entry in doc["patterns"][::2]:
        entry["sector_failures"] = {"3": [1, 0]}     # the other entries keep [0, 1]
    manifest.write_text(json.dumps(doc))
    calls = []
    decode = cli.stair_decode
    monkeypatch.setattr(cli, "stair_decode", lambda *a, **kw: calls.append(1) or decode(*a, **kw))
    fixed = tmp_path / "f.stairc"
    assert cli.main(["repair", str(dmg), "--manifest", str(manifest), "-o", str(fixed)]) == 0
    assert fixed.read_bytes() == box.read_bytes()
    assert len(calls) == len(set(patterns)) == 2


def test_repair_with_one_stripe_beyond_coverage_exits_2(tmp_path, rng, monkeypatch):
    # every group is planned before any is decoded: no kernel work, no output
    cfg = config_new(8, 4, 2, (1, 1, 2))
    patterns = [_random_pattern(rng, cfg) for _ in range(10)]
    patterns[6] = FailurePattern.make([0, 1, 2])
    _, dmg, manifest = _damaged_copy(tmp_path, rng, 8, 32, 10, patterns)
    calls = []
    monkeypatch.setattr(cli, "stair_decode", lambda *a, **kw: calls.append(1))
    fixed = tmp_path / "f.stairc"
    assert cli.main(["repair", str(dmg), "--manifest", str(manifest), "-o", str(fixed)]) == 2
    assert not fixed.exists() and not calls


def test_inject_explicit_cells_and_seed(tmp_path, payload):
    src, _ = payload
    box, dmg = tmp_path / "c.stairc", tmp_path / "d.stairc"
    manifest = tmp_path / "m.json"
    assert cli.main(["encode", str(src), "-o", str(box)] + CFG_FLAGS) == 0
    assert cli.main(["inject", str(box), "-o", str(dmg),
                     "--spec", "cells=2:0,2:3;sectors=0:1", "--seed", "5",
                     "--manifest", str(manifest)]) == 0
    doc = json.loads(manifest.read_text())
    assert doc["patterns"][0]["sector_failures"]["2"] == [0, 3]


def test_inject_across_blocks_is_byte_identical(tmp_path, monkeypatch, payload):
    """Stripes named out of order and more than once, with seeded sector
    rows: blocks of one stripe, of three and of the default size give the
    same container and manifest, and the container is the clean one with
    each manifest entry's cells zeroed in turn."""
    src, _ = payload
    box, dmg, manifest = tmp_path / "c.stairc", tmp_path / "d.stairc", tmp_path / "m.json"
    assert cli.main(["encode", str(src), "-o", str(box)] + CFG_FLAGS) == 0
    header, body = _read_body(box)
    outputs = []
    for block in (None, 1, 3):
        with monkeypatch.context() as patch:
            if block:
                patch.setattr(cont, "BLOCK_BYTES", block * header.stripe_bytes)
            assert cli.main(["inject", str(box), "-o", str(dmg),
                             "--spec", "chunks=1;sectors=3:1,4:2", "--stripes", "5,0,5,2",
                             "--seed", "7", "--manifest", str(manifest)]) == 0
        outputs.append((dmg.read_bytes(), manifest.read_text()))
    assert outputs[0] == outputs[1] == outputs[2]
    doc = json.loads(outputs[0][1])
    assert [entry["stripe"] for entry in doc["patterns"]] == [5, 0, 5, 2]
    cfg = header.cfg
    for entry in doc["patterns"]:
        cells = cont.stripe_view(body, entry["stripe"])
        cells[:] = sim.inject(cfg, cells, cli._pattern_from_json(entry))
    assert outputs[0][0] == cont.pack_header(header) + body.tobytes()


# SHA-256 of the damaged container and of the manifest of an inject into
# every stripe, without and with --seed, recorded when every stripe still
# parsed its own copy of --spec.
INJECT_ALL_GOLDENS = {
    "unseeded": ([], "4e001bf2a2fe58fce8fb47194a40c46dd5b941881a162ddea18676e172728f05",
                 "cd89e1baed3d84b2602bf892ab1b03f90638d17bcf200a07a2114b034927237d"),
    "seeded": (["--seed", "7"],
               "d1e5e2796ce535741ec835cf0ebb8dd9a3f43cd44f3e48f8eb9e417a56300488",
               "66f4ae88fa28555946384a93b2d94894064ba47c8f019a9e08948b4703790572"),
}


@pytest.mark.parametrize("label", sorted(INJECT_ALL_GOLDENS))
def test_inject_all_stripes_matches_golden(tmp_path, label):
    seed, container_sha, manifest_sha = INJECT_ALL_GOLDENS[label]
    src, box = tmp_path / "in.bin", tmp_path / "c.stairc"
    dmg, manifest = tmp_path / "d.stairc", tmp_path / "m.json"
    src.write_bytes(np.random.default_rng(19).integers(0, 256, 10_000, dtype=np.uint8).tobytes())
    assert cli.main(["encode", str(src), "-o", str(box)] + CFG_FLAGS) == 0
    assert cli.main(["inject", str(box), "-o", str(dmg), "--spec", "chunks=1;sectors=3:1,4:2",
                     "--stripes", "all", *seed, "--manifest", str(manifest)]) == 0
    assert hashlib.sha256(dmg.read_bytes()).hexdigest() == container_sha
    assert hashlib.sha256(manifest.read_bytes()).hexdigest() == manifest_sha
    assert len(json.loads(manifest.read_text())["patterns"]) == 16


def test_devices_mode_roundtrip(tmp_path, payload):
    src, data = payload
    devdir = tmp_path / "devices"
    out = tmp_path / "o.bin"
    assert cli.main(["encode", str(src), "--devices", str(devdir)] + CFG_FLAGS) == 0
    assert (devdir / "device_00.bin").exists()
    assert (devdir / "device_07.bin").exists()
    assert cli.main(["decode", "--devices", str(devdir), "-o", str(out)]) == 0
    assert out.read_bytes() == data


def test_file_and_devices_hold_the_same_chunks(tmp_path, payload):
    src, _ = payload
    box, devdir = tmp_path / "c.stairc", tmp_path / "devices"
    assert cli.main(["encode", str(src), "-o", str(box), "--devices", str(devdir)]
                    + CFG_FLAGS) == 0
    blob = box.read_bytes()
    header = cont.parse_header(blob)
    assert (devdir / "header.stairc").read_bytes() == blob[:header.size]
    n, chunk = header.cfg.n, header.cfg.r * header.symbol_size
    chunks = [blob[off:off + chunk] for off in range(header.size, len(blob), chunk)]
    for j in range(n):
        assert (devdir / f"device_{j:02d}.bin").read_bytes() == b"".join(chunks[j::n])


@pytest.mark.parametrize("damage", ["missing", "short", "long", "forged-header", "long-header"])
def test_decode_devices_wrong_length_exits_1(tmp_path, payload, damage):
    src, _ = payload
    devdir = tmp_path / "devices"
    assert cli.main(["encode", str(src), "--devices", str(devdir)] + CFG_FLAGS) == 0
    dev = devdir / "device_03.bin"
    if damage == "missing":
        dev.unlink()
    elif damage == "forged-header":
        # a body of exabytes: refused from the file sizes, before allocating it
        hdr = devdir / "header.stairc"
        forged = dataclasses.replace(cont.parse_header(hdr.read_bytes()), data_length=2 ** 62)
        hdr.write_bytes(cont.pack_header(forged))
    elif damage == "long-header":
        with open(devdir / "header.stairc", "ab") as hdr:
            hdr.write(b"tail")
    else:
        raw = dev.read_bytes()
        dev.write_bytes(raw[:-1] if damage == "short" else raw + b"\x00")
    assert cli.main(["decode", "--devices", str(devdir), "-o", str(tmp_path / "o.bin")]) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["devices", "input.bin"]


def test_decode_of_a_file_and_devices_exits_1(tmp_path, rng):
    # a container file and a devices directory in one decode: neither is
    # read in place of the other, and nothing is written
    a, b, out = tmp_path / "a.bin", tmp_path / "b.bin", tmp_path / "out.bin"
    a.write_bytes(rng.bytes(3_000))
    b.write_bytes(rng.bytes(3_000))
    assert cli.main(["encode", str(a), "-o", str(tmp_path / "a.stc")] + CFG_FLAGS) == 0
    assert cli.main(["encode", str(b), "--devices", str(tmp_path / "dev")] + CFG_FLAGS) == 0
    assert cli.main(["decode", str(tmp_path / "a.stc"), "--devices", str(tmp_path / "dev"),
                     "-o", str(out)]) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.bin", "a.stc", "b.bin", "dev"]


@pytest.mark.parametrize("damage", ["short", "long"])
def test_decode_wrong_length_container_exits_1(tmp_path, payload, damage):
    src, _ = payload
    box = tmp_path / "c.stairc"
    assert cli.main(["encode", str(src), "-o", str(box)] + CFG_FLAGS) == 0
    raw = box.read_bytes()
    box.write_bytes(raw[:-1] if damage == "short" else raw + b"\x00")
    assert cli.main(["decode", str(box), "-o", str(tmp_path / "o.bin")]) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.stairc", "input.bin"]


def test_in_place_encode_and_decode_roundtrip(tmp_path, payload):
    """``-o`` naming the input replaces it only once the output is whole."""
    src, data = payload
    ref, x = tmp_path / "ref.stairc", tmp_path / "x"
    x.write_bytes(data)
    assert cli.main(["encode", str(src), "-o", str(ref)] + CFG_FLAGS) == 0
    assert cli.main(["encode", str(x), "-o", str(x)] + CFG_FLAGS) == 0
    assert x.read_bytes() == ref.read_bytes()
    manifest = tmp_path / "m.json"
    assert cli.main(["inject", str(x), "-o", str(x), "--spec", "chunks=6;sectors=3:1",
                     "--manifest", str(manifest)]) == 0
    assert x.read_bytes() != ref.read_bytes()
    assert cli.main(["repair", str(x), "--manifest", str(manifest), "-o", str(x)]) == 0
    assert x.read_bytes() == ref.read_bytes()
    assert cli.main(["decode", str(x), "-o", str(x)]) == 0
    assert x.read_bytes() == data
    assert sorted(p.name for p in tmp_path.iterdir()) == ["input.bin", "m.json", "ref.stairc", "x"]
    link = tmp_path / "link"                       # a link keeps naming its file
    link.symlink_to(x)
    assert cli.main(["encode", str(src), "-o", str(link)] + CFG_FLAGS) == 0
    assert link.is_symlink() and x.read_bytes() == ref.read_bytes()


def test_failed_encode_keeps_the_old_output(tmp_path, payload):
    src, _ = payload
    box = tmp_path / "c.stairc"
    box.write_bytes(b"old")
    assert cli.main(["encode", str(src), "-o", str(box), "--n", "4", "--r", "4", "--m", "2",
                     "--e", "1,1,1"]) == 1
    assert box.read_bytes() == b"old"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.stairc", "input.bin"]


def _fail_nth_replace(patch, k: int) -> None:
    """Make the k-th call of ``os.replace`` from now on raise OSError."""
    real, calls = os.replace, []

    def replace(*args, **kwargs):
        calls.append(args)
        if len(calls) == k:
            raise OSError("rename refused")
        return real(*args, **kwargs)
    patch.setattr(os, "replace", replace)


@pytest.mark.parametrize("also_file", [False, True], ids=["devices", "devices-and-file"])
def test_interrupted_device_encode_leaves_no_mixed_set(tmp_path, monkeypatch, rng, also_file):
    # b is encoded over a's device set with the k-th rename failing, for
    # every device file and the header: the set decodes to a or not at all
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    a.write_bytes(rng.integers(0, 256, 5_000, dtype=np.uint8).tobytes())
    b.write_bytes(rng.integers(0, 256, 5_000, dtype=np.uint8).tobytes())
    for k in range(1, 8 + 2):
        dev, out = tmp_path / f"dev{k}", tmp_path / f"out{k}.bin"
        assert cli.main(["encode", str(a), "--devices", str(dev)] + CFG_FLAGS) == 0
        extra = ["-o", str(tmp_path / f"box{k}")] if also_file else []
        with monkeypatch.context() as patch:
            _fail_nth_replace(patch, k)
            assert cli.main(["encode", str(b), "--devices", str(dev)] + extra + CFG_FLAGS) == 1
        rc = cli.main(["decode", "--devices", str(dev), "-o", str(out)])
        assert rc != 0 or out.read_bytes() == a.read_bytes(), k
        assert not list(tmp_path.rglob("*.tmp"))


@pytest.mark.parametrize("k", [1, 2])
def test_interrupted_inject_leaves_no_stale_manifest(tmp_path, monkeypatch, payload, k):
    # the k-th rename of a second inject fails: the container's (1) or the
    # manifest's (2); repair and decode then give the input or exit non-zero
    src, data = payload
    box, hurt, fixed, out = (tmp_path / n for n in ("c.stairc", "h.stairc", "f.stairc", "o.bin"))
    manifest = tmp_path / "m.json"
    assert cli.main(["encode", str(src), "-o", str(box)] + CFG_FLAGS) == 0
    assert cli.main(["inject", str(box), "-o", str(hurt), "--spec", "chunks=6",
                     "--manifest", str(manifest)]) == 0
    with monkeypatch.context() as patch:
        _fail_nth_replace(patch, k)
        assert cli.main(["inject", str(box), "-o", str(hurt), "--spec", "chunks=0,1",
                         "--manifest", str(manifest)]) == 1
    rc = cli.main(["repair", str(hurt), "--manifest", str(manifest), "-o", str(fixed)])
    rc = rc or cli.main(["decode", str(fixed), "-o", str(out)])
    assert rc != 0 or out.read_bytes() == data
    assert not list(tmp_path.glob("*.tmp"))


def test_inject_manifest_through_a_link_or_a_device(tmp_path, payload):
    src, _ = payload
    box, hurt = tmp_path / "c.stairc", tmp_path / "h.stairc"
    assert cli.main(["encode", str(src), "-o", str(box)] + CFG_FLAGS) == 0
    target, link = tmp_path / "m.json", tmp_path / "link.json"
    target.write_text("old")
    link.symlink_to(target)
    for manifest in (link, os.devnull):
        assert cli.main(["inject", str(box), "-o", str(hurt), "--spec", "chunks=6",
                         "--manifest", str(manifest)]) == 0
    assert link.is_symlink()
    assert json.loads(target.read_text())["patterns"][0]["failed_chunks"] == [6]
    assert os.path.exists(os.devnull) and not stat.S_ISREG(os.stat(os.devnull).st_mode)


def test_encode_from_a_pipe(tmp_path, payload):
    """An input that is not a regular file, such as /dev/stdin on a pipe,
    gives the same container as the file it carries."""
    src, data = payload
    ref, box = tmp_path / "ref.stairc", tmp_path / "c.stairc"
    assert cli.main(["encode", str(src), "-o", str(ref)] + CFG_FLAGS) == 0
    r, w = os.pipe()

    def feed():
        with os.fdopen(w, "wb") as f:
            f.write(data)
    feeder = threading.Thread(target=feed, daemon=True)
    feeder.start()
    try:
        assert cli.main(["encode", f"/dev/fd/{r}", "-o", str(box)] + CFG_FLAGS) == 0
    finally:
        feeder.join(timeout=30)
        os.close(r)
    assert box.read_bytes() == ref.read_bytes()
    assert cli.main(["decode", str(box), "-o", str(tmp_path / "o.bin")]) == 0
    assert (tmp_path / "o.bin").read_bytes() == data


def test_decode_to_a_pipe(tmp_path, payload):
    """An output that is not a regular file is written to, not replaced:
    a named FIFO, and a pipe named as /dev/fd/N (as /dev/stdout is)."""
    src, data = payload
    box, fifo = tmp_path / "c.stairc", tmp_path / "fifo"
    assert cli.main(["encode", str(src), "-o", str(box)] + CFG_FLAGS) == 0
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert cli.main(["decode", str(box), "-o", str(fifo)]) == 0
    reader.join(timeout=30)
    assert not reader.is_alive() and got == [data]
    assert stat.S_ISFIFO(fifo.stat().st_mode)

    r, w = os.pipe()
    got = []

    def drain():
        with os.fdopen(r, "rb") as f:
            got.append(f.read())
    reader = threading.Thread(target=drain, daemon=True)
    reader.start()
    try:
        assert cli.main(["decode", str(box), "-o", f"/dev/fd/{w}"]) == 0
    finally:
        os.close(w)
    reader.join(timeout=30)
    assert not reader.is_alive() and got == [data]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.stairc", "fifo", "input.bin"]


def _tree(path: Path) -> dict:
    return {p.name: p.read_bytes() for p in path.iterdir()}


@pytest.mark.parametrize("method", ["auto", "downstairs", "upstairs", "standard"])
@pytest.mark.parametrize("w", [8, 16, 32])
def test_block_boundaries_are_byte_identical(tmp_path, monkeypatch, rng, w, method):
    """Encode and decode stream a block of stripes at a time.  With blocks
    of one and of three stripes, containers (to -o, to --devices and to
    both) equal those of the default blocks, and decoding them from the
    file or the devices gives the input back, for inputs that end at,
    before, after and inside a block, in the middle of a data run, and
    after 600 stripes: the default block then holds 512 stripes, whose
    thousands of buffers are more than one ``os.preadv`` takes."""
    cfg = config_new(8, 4, 2, (1, 1, 2), w)
    flags = ["--n", "8", "--r", "4", "--m", "2", "--e", "1,1,2", "--w", str(w),
             "--symbol-size", "16", "--method", method]
    header = cont.ContainerHeader(cfg, 16, 0)
    per, block = header.data_bytes_per_stripe, 3
    (_, d0, l0), (_, d1, l1), *_ = cont._runs(cfg, 16)
    assert l0 < per and d1 == d0 + l0                 # the data cells form several runs
    sizes = [0, 1, block * per, (block - 1) * per, (block + 1) * per,
             2 * block * per + d1 + l1 // 2, 600 * per - 7]
    src, out = tmp_path / "in.bin", tmp_path / "out.bin"
    for size in sizes:
        data = rng.bytes(size)
        src.write_bytes(data)
        ref, refdev = tmp_path / "ref.stairc", tmp_path / "refdev"
        assert cli.main(["encode", str(src), "-o", str(ref), "--devices", str(refdev)]
                        + flags) == 0
        assert cli.main(["decode", str(ref), "-o", str(out)]) == 0 and out.read_bytes() == data
        for stripes in (1, block):
            with monkeypatch.context() as patch:
                patch.setattr(cont, "BLOCK_BYTES", stripes * header.stripe_bytes)
                for sinks in ("file", "devices", "both"):
                    box, devdir = tmp_path / f"{sinks}.stairc", tmp_path / f"{sinks}.dev"
                    argv = ["encode", str(src)] + flags
                    if sinks != "devices":
                        argv += ["-o", str(box)]
                    if sinks != "file":
                        argv += ["--devices", str(devdir)]
                    assert cli.main(argv) == 0
                    if sinks != "devices":
                        assert box.read_bytes() == ref.read_bytes()
                        assert cli.main(["decode", str(box), "-o", str(out)]) == 0
                        assert out.read_bytes() == data
                    if sinks != "file":
                        assert _tree(devdir) == _tree(refdev)
                        assert cli.main(["decode", "--devices", str(devdir), "-o", str(out)]) == 0
                        assert out.read_bytes() == data


@pytest.mark.parametrize("w", [8, 16, 32])
def test_piecewise_decode_is_byte_identical(tmp_path, monkeypatch, rng, w):
    """Decode reads a block a range of at most ``BLOCK_BYTES`` at a time,
    so a stripe of a block or more in several ranges.  With blocks of one
    word, one symbol, a chunk less and more one symbol, a stripe less one
    word and one stripe, and with blocks of one stripe and a word (a block
    of one stripe, read in one range), decoding from the file and from the
    devices gives what the default blocks give, for inputs that end at a
    stripe, inside a data run and inside a range."""
    cfg = config_new(8, 4, 2, (1, 1, 2), w)
    symbol, word = 16, w // 8
    flags = ["--n", "8", "--r", "4", "--m", "2", "--e", "1,1,2", "--w", str(w),
             "--symbol-size", str(symbol)]
    header = cont.ContainerHeader(cfg, symbol, 0)
    per, chunk = header.data_bytes_per_stripe, cfg.r * symbol
    (_, d0, l0), (_, d1, l1), *_ = cont._runs(cfg, symbol)
    assert l0 > chunk + symbol and d1 == d0 + l0      # the first run spans pieces
    sizes = [1, 2 * per, 2 * per + d1 + l1 // 2, 2 * per + chunk + symbol + 3, 3 * per - 1]
    blocks = [word, symbol, chunk - symbol, chunk + symbol, header.stripe_bytes - word,
              header.stripe_bytes, header.stripe_bytes + word]
    src, box, devdir = tmp_path / "in.bin", tmp_path / "c.stairc", tmp_path / "dev"
    out = tmp_path / "out.bin"
    for size in sizes:
        src.write_bytes(rng.bytes(size))
        assert cli.main(["encode", str(src), "-o", str(box), "--devices", str(devdir)]
                        + flags) == 0
        for source in ([str(box)], ["--devices", str(devdir)]):
            assert cli.main(["decode", *source, "-o", str(out)]) == 0
            whole = out.read_bytes()
            assert whole == src.read_bytes()
            for block in blocks:
                with monkeypatch.context() as patch:
                    patch.setattr(cont, "BLOCK_BYTES", block)
                    assert cli.main(["decode", *source, "-o", str(out)]) == 0
                assert out.read_bytes() == whole, (size, source, block)


@pytest.mark.parametrize("source", ["file", "devices"])
def test_decode_of_large_stripes_holds_no_stripe(tmp_path, rng, source):
    """Decoding 4 MiB stripes (the archive_large geometry), from a file or
    from devices, allocates no stripe-sized array: its traced peak, numpy
    buffers included, stays below three blocks, which are less than a
    stripe."""
    flags = ["--n", "16", "--r", "16", "--m", "1", "--e", "2", "--symbol-size", "16384"]
    header = cont.ContainerHeader(config_new(16, 16, 1, (2,), 8), 16384, 0)
    src, box, devdir = tmp_path / "in.bin", tmp_path / "c.stairc", tmp_path / "dev"
    out = tmp_path / "out.bin"
    data = rng.bytes(2 * header.data_bytes_per_stripe - 12345)
    src.write_bytes(data)
    assert cli.main(["encode", str(src), "-o", str(box), "--devices", str(devdir)] + flags) == 0
    argv = ["decode", str(box)] if source == "file" else ["decode", "--devices", str(devdir)]
    tracemalloc.start()
    try:
        assert cli.main(argv + ["-o", str(out)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.read_bytes() == data
    assert peak < 3 * cont.BLOCK_BYTES < header.stripe_bytes, peak


def test_inject_holds_one_stripe(tmp_path, rng):
    """An inject into two 4 MiB stripes (the archive_large geometry)
    rewrites them in blocks of one stripe, read straight into the block:
    its traced peak, numpy buffers included, stays below a stripe and
    three blocks, with no room for a second array of the stripe's data."""
    flags = ["--n", "16", "--r", "16", "--m", "1", "--e", "2", "--symbol-size", "16384"]
    header = cont.ContainerHeader(config_new(16, 16, 1, (2,), 8), 16384, 0)
    src, box, dmg = tmp_path / "in.bin", tmp_path / "c.stairc", tmp_path / "d.stairc"
    src.write_bytes(rng.bytes(2 * header.data_bytes_per_stripe - 12345))
    assert cli.main(["encode", str(src), "-o", str(box)] + flags) == 0
    tracemalloc.start()
    try:
        assert cli.main(["inject", str(box), "-o", str(dmg), "--spec", "chunks=3;sectors=5:2",
                         "--manifest", str(tmp_path / "m.json")]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < header.stripe_bytes + 3 * cont.BLOCK_BYTES, peak


def test_container_commands_memory_does_not_grow_with_file_size(tmp_path, rng):
    """Peak RSS of an encode, an inject of one failed chunk plus sectors
    into every stripe, its repair and a decode of the repaired container,
    in a fresh process, in the archive_large geometry (16 KiB symbols,
    4 MiB stripes): an 8 MiB and a 64 MiB input differ by less than three
    blocks."""
    script = (
        "import resource, sys\n"
        "from staircodes import cli\n"
        "src, box, dmg, manifest, fixed, out = sys.argv[1:]\n"
        "flags = ['--n', '16', '--r', '16', '--m', '1', '--e', '2', '--symbol-size', '16384']\n"
        "assert cli.main(['encode', src, '-o', box, *flags]) == 0\n"
        "assert cli.main(['inject', box, '-o', dmg, '--spec', 'chunks=3;sectors=5:2',\n"
        "                 '--manifest', manifest]) == 0\n"
        "assert cli.main(['repair', dmg, '--manifest', manifest, '-o', fixed]) == 0\n"
        "assert cli.main(['decode', fixed, '-o', out]) == 0\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(staircodes.__file__).resolve().parent.parent))
    src, out = tmp_path / "in.bin", tmp_path / "out.bin"
    files = [tmp_path / name for name in ("c.stairc", "d.stairc", "m.json", "f.stairc")]
    peaks = []
    for mib in (8, 64):
        digest = hashlib.sha256()
        with open(src, "wb") as f:
            for _ in range(mib):
                chunk = rng.bytes(1 << 20)
                digest.update(chunk)
                f.write(chunk)
        done = subprocess.run([sys.executable, "-c", script, *map(str, [src, *files, out])],
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        with open(out, "rb") as f:
            assert hashlib.file_digest(f, "sha256").digest() == digest.digest()
        peaks.append(int(done.stdout) * 1024)      # ru_maxrss is in KiB on Linux
    assert abs(peaks[1] - peaks[0]) < 3 * cont.BLOCK_BYTES, peaks


def test_cost_report(tmp_path, capsys):
    assert cli.main(["cost", "--n", "8", "--r", "16", "--m", "2", "--e", "4"]) == 0
    got = capsys.readouterr().out
    assert "600" in got and "352" in got and "downstairs" in got


def test_cost_sweep_json(tmp_path):
    out = tmp_path / "cost.json"
    assert cli.main(["cost", "--n", "8", "--r", "16", "--m", "2", "--e", "",
                     "--sweep-s", "4", "--format", "json", "-o", str(out)]) == 0
    rows = json.loads(out.read_text())
    assert {r["e"] for r in rows} == {"4", "1,3", "2,2", "1,1,2", "1,1,1,1"}
    chosen = {r["e"]: r["chosen"] for r in rows}
    assert chosen["4"] == "downstairs" and chosen["1,1,1,1"] == "upstairs"


@pytest.mark.parametrize("sweep_s", ["-1", "25"])
def test_cost_sweep_without_vectors_exits_1(tmp_path, capsys, sweep_s):
    # n=8, r=4, m=2 holds at most six entries of at most 4: totals 0..24
    out = tmp_path / "cost.csv"
    assert cli.main(["cost", "--n", "8", "--r", "4", "--m", "2", "--sweep-s", sweep_s,
                     "-o", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: no coverage vector of n=8, r=4, m=2 sums to s={sweep_s}\n")
    assert not out.exists()
    assert cli.main(["cost", "--n", "8", "--r", "4", "--m", "2", "--sweep-s", "24"]) == 0


SCENARIO = """\
# storage system under test
user_data = 10 PB
device_capacity = 300 GB
sector_size = 512
mean_time_to_failure_hours = 500000
mean_rebuild_hours = 17.8
n = 8
r = 16
m = 1
p_bit = 1e-14
model = independent
codes = rs; stair:1; sd:2
"""


def test_reliability_report(tmp_path):
    scenario = tmp_path / "scenario.cfg"
    scenario.write_text(SCENARIO)
    out = tmp_path / "rel.json"
    assert cli.main(["reliability", str(scenario), "--format", "json",
                     "-o", str(out)]) == 0
    rows = json.loads(out.read_text())
    by_code = {r["code"]: r for r in rows}
    assert by_code["rs"]["n_arrays"] == 4994
    assert by_code["stair(1)"]["n_arrays"] == 5039
    assert by_code["stair(1)"]["mttdl_sys_hours"] > 100 * by_code["rs"]["mttdl_sys_hours"]


@pytest.mark.parametrize("size, want", [
    ("1e15", 10 ** 15), ("1.5", 1), ("11258999068426240", 10 * 2 ** 50),
    ("1e15 B", 10 ** 15), ("1.5 KB", 1536), ("9007199254740993 B", 2 ** 53 + 1),
])
def test_scenario_sizes_bare_or_with_unit(tmp_path, size, want):
    """A bare number is a byte count, and integers stay exact above 2^53."""
    assert cli._parse_size(size) == want
    scenario = tmp_path / "scenario.cfg"
    scenario.write_text(SCENARIO.replace("user_data = 10 PB", f"user_data = {size}"))
    assert cli.main(["reliability", str(scenario), "-o", str(tmp_path / "rel.csv")]) == 0


@pytest.mark.parametrize("size", ["inf", "nan PB", "ten GB", "1e300 PB"])
def test_scenario_bad_size_exits_1(tmp_path, size, capsys):
    scenario = tmp_path / "scenario.cfg"
    scenario.write_text(SCENARIO.replace("user_data = 10 PB", f"user_data = {size}"))
    assert cli.main(["reliability", str(scenario)]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_reliability_validate(tmp_path):
    scenario = tmp_path / "scenario.cfg"
    scenario.write_text(SCENARIO)
    out = tmp_path / "rel.json"
    assert cli.main(["reliability", str(scenario), "--format", "json",
                     "--validate", "--trials", "20000", "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert all(check["ok"] for check in doc["validation"])


def test_reliability_histogram(tmp_path):
    scenario = tmp_path / "scenario.cfg"
    scenario.write_text(SCENARIO)
    out = tmp_path / "rel.json"
    assert cli.main(["reliability", str(scenario), "--format", "json",
                     "--histogram", "--trials", "20000", "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    hist = doc["histogram"]
    assert sum(row["stripes"] for row in hist) == 20000
    assert {"recoverable_rs", "recoverable_stair_1", "recoverable_sd_2"} <= set(hist[0])


def test_histogram_samples_the_scenario_model(tmp_path):
    """--histogram draws from the scenario's own model, here correlated
    bursts: the rows are outcome_histogram's on that model's distribution."""
    scenario = tmp_path / "scenario.cfg"
    scenario.write_text(SCENARIO.replace("model = independent", "model = correlated"))
    out = tmp_path / "rel.json"
    assert cli.main(["reliability", str(scenario), "--format", "json", "--histogram",
                     "--trials", "20000", "--seed", "3", "-o", str(out)]) == 0
    opts = cli.parse_scenario(scenario.read_text())
    dist = rel.chunk_dist(opts["params"], 16, 1e-3)
    predicates = {"rs": sim.recoverable("rs", config_new(8, 16, 1)),
                  "stair_1": sim.recoverable("stair", config_new(8, 16, 1, (1,))),
                  "sd_2": sim.recoverable("sd", config_new(8, 16, 1, (2,)))}
    want = sim.outcome_histogram(predicates, 7, dist, trials=20000, seed=3)
    assert json.loads(out.read_text())["histogram"] == want


def test_one_rare_hit_validates(tmp_path):
    """At analytic x trials far below 1, one sampled failure is no evidence
    against the analytic value.  Here sd(2) has analytic p_str 3.4e-6, and
    one failure in 10,000 trials has chance 3.4% (a 3-sigma band failed it)."""
    scenario = cli.parse_scenario(SCENARIO.replace("model = independent", "model = correlated")
                                  .replace("r = 16", "r = 2"))
    analytic = rel.p_str("sd", config_new(8, 2, 1, (2,)), scenario["sampled"])
    assert analytic == pytest.approx(3.4e-6, rel=0.01)
    hit = {"rs": False, "stair_1": False, "sd_2": False}
    outcomes = [{"counts": "0", "stripes": 9999,
                 **{f"recoverable_{label}": True for label in hit}},
                {"counts": "1,1,1", "stripes": 1,
                 **{f"recoverable_{label}": verdict for label, verdict in hit.items()}}]
    sd2 = cli.validate_against_sim(scenario, outcomes)[2]
    assert (sd2["code"], sd2["e"], sd2["estimate"], sd2["trials"]) == ("sd", "2", 1e-4, 10_000)
    assert abs(sd2["estimate"] - analytic) > 3 * math.sqrt(analytic / 10_000)
    assert sd2["ok"] is True


@pytest.mark.parametrize("code, factor", [(("rs", ()), 1.05), (("sd", (3,)), 2.0)],
                         ids=["rs-5pct-high", "sd3-twice"])
def test_validation_fails_a_wrong_analytic_value(tmp_path, monkeypatch, code, factor):
    """The exact test still catches analytic values that are off: rs read 5%
    high, or sd(3) read twice its value, fails the 100,000-trial report."""
    real = rel.p_str

    def skewed(kind, cfg, dist):
        return real(kind, cfg, dist) * (factor if (kind, cfg.e) == code else 1.0)

    monkeypatch.setattr(rel, "p_str", skewed)
    out = tmp_path / "rel.json"
    assert cli.main(["reliability", str(BENCH_DATA / "scenario.txt"), "--validate",
                     "--trials", "100000", "--format", "json", "-o", str(out)]) == 1
    bad = [(row["code"], row["e"]) for row in json.loads(out.read_text())["validation"]
           if not row["ok"]]
    assert bad == [(code[0], ",".join(map(str, code[1])) or "-")]


def test_seed_drives_the_validated_sample(tmp_path):
    """--seed seeds the one sample behind --validate and --histogram: a seed
    gives the same bytes every time, and another seed other estimates."""
    def report(seed, name):
        out = tmp_path / name
        assert cli.main(["reliability", str(BENCH_DATA / "scenario.txt"), "--validate",
                         "--histogram", "--trials", "20000", "--seed", str(seed),
                         "--format", "json", "-o", str(out)]) == 0
        return out.read_bytes()

    first = report(5, "a.json")
    assert report(5, "b.json") == first
    other = json.loads(report(6, "c.json"))
    estimates = [row["estimate"] for row in json.loads(first)["validation"]]
    assert [row["estimate"] for row in other["validation"]] != estimates
    assert other["rows"] == json.loads(first)["rows"]


@pytest.mark.parametrize("line, typo, message", [
    ("mean_rebuild_hours = 17.8", "mean_rebuild_hour = 1",
     "unknown scenario key 'mean_rebuild_hour'"),
    ("codes = rs; stair:1; sd:2", "codes = ;", "scenario lists no codes"),
], ids=["misspelt-key", "no-codes"])
@pytest.mark.parametrize("flags", [[], ["--validate", "--histogram", "--trials", "10000"]],
                         ids=["plain", "sampled"])
def test_scenario_typos_exit_1(tmp_path, capsys, line, typo, message, flags):
    # both used to give a report (the default one, or an empty one) and exit 0
    scenario = tmp_path / "scenario.cfg"
    scenario.write_text(SCENARIO.replace(line, typo))
    out = tmp_path / "rel.csv"
    assert cli.main(["reliability", str(scenario), *flags, "-o", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


_REFUSED_P_SEC = ["nan", "0", "1", "2", "-0.5"]


@pytest.mark.parametrize("line, typo, message", [
    ("n = 8", "n = 8\nn = 16", "scenario key 'n' given twice"),
    *(("model = independent", f"model = independent\nvalidate_p_sec = {v}",
       f"validate_p_sec must be in (0, 1), got {float(v)}") for v in _REFUSED_P_SEC),
    ("mean_time_to_failure_hours = 500000", "mean_time_to_failure_hours = inf",
     "mean_time_to_failure_hours must be finite and positive, got inf"),
    ("mean_time_to_failure_hours = 500000", "mean_time_to_failure_hours = 1e309",
     "mean_time_to_failure_hours must be finite and positive, got inf"),
    ("mean_rebuild_hours = 17.8", "mean_rebuild_hours = nan",
     "mean_rebuild_hours must be finite and positive, got nan"),
    ("model = independent", "model = correlated\nalpha = nan",
     "alpha must be finite and positive, got nan"),
], ids=["repeated-key", *(f"validate_p_sec={v}" for v in _REFUSED_P_SEC),
        "mttf=inf", "mttf=1e309", "mttr=nan", "alpha=nan"])
@pytest.mark.parametrize("flags", [[], ["--validate", "--histogram", "--trials", "10000"]],
                         ids=["plain", "sampled"])
def test_scenario_values_the_model_refuses_exit_1(tmp_path, capsys, line, typo, message,
                                                  flags):
    """A repeated key, a validate_p_sec outside (0, 1) and a non-finite time
    or alpha are refused even by a plain report: each is part of the model."""
    scenario = tmp_path / "scenario.cfg"
    scenario.write_text(SCENARIO.replace(line, typo))
    out = tmp_path / "rel.csv"
    assert cli.main(["reliability", str(scenario), *flags, "-o", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def _scenario_with(text: str, key: str, value: str) -> str:
    """``text`` with the line that sets ``key``, if any, replaced by one
    that sets it to ``value``."""
    lines = [line for line in text.splitlines() if line.partition("=")[0].strip() != key]
    return "\n".join([*lines, f"{key} = {value}"]) + "\n"


def test_every_scenario_value_gives_a_report_or_exit_1(tmp_path):
    """The CLI promise for scenario files: whatever one key other than codes
    and model is set to, reliability exits 0 or 1 without raising, plain or
    sampled, and a report that exits 0 holds no nan."""
    base = SCENARIO.replace("model = independent", "model = correlated")
    scenario, out = tmp_path / "scenario.cfg", tmp_path / "rel.csv"
    broken = []
    for key in sorted(cli._SCENARIO_DEFAULTS.keys() - {"codes", "model"}):
        for value in ("nan", "inf", "-inf", "-1", "0", "1e309", "", "2"):
            scenario.write_text(_scenario_with(base, key, value))
            for flags in ([], ["--validate", "--histogram", "--trials", "10000"]):
                out.unlink(missing_ok=True)
                try:
                    rc = cli.main(["reliability", str(scenario), *flags, "-o", str(out)])
                except Exception as exc:   # the promise is that none escapes
                    rc = f"raised {type(exc).__name__}: {exc}"
                if rc not in (0, 1) or rc == 0 and "nan" in out.read_text().lower():
                    broken.append((key, value, flags, rc))
    assert broken == []


def test_scenario_defaults_are_the_reliability_defaults():
    # the scenario table restates ReliabilityParams' defaults as text
    model = cli.parse_scenario("")
    params = rel.ReliabilityParams(user_bytes=10 * 2 ** 50, device_bytes=300 * 2 ** 30)
    assert model["params"] == dataclasses.replace(params, p_bit=0.0)
    assert model["p_bits"] == [params.p_bit]


def test_every_scenario_in_the_repo_parses():
    root = Path(__file__).resolve().parent.parent
    readme = (root / "README.md").read_text()
    blocks = readme.split("```ini\n")[1:]
    texts = [block.split("```")[0] for block in blocks] + [SCENARIO] + [
        path.read_text() for path in (root / "scripts" / "reliability_10pb.txt",
                                      root / "stairbench" / "data" / "scenario.txt")]
    assert len(blocks) == 1
    for text in texts:
        assert cli.reliability_rows(cli.parse_scenario(text))


def test_mc_bench_reads_the_scenario_model():
    """scripts/mc_bench.py runs on what cli.parse_scenario returns, so a
    change to the scenario model cannot leave it calling a deleted helper."""
    script = Path(__file__).resolve().parent.parent / "scripts" / "mc_bench.py"
    done = subprocess.run([sys.executable, str(script), "--trials", "10000", "--reps", "1"],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    doc = json.loads(done.stdout)
    assert set(doc) == {"trials", "chunks", "codes", "trials_per_s", "reports_per_s"}
    assert (doc["trials"], doc["chunks"], doc["codes"]) == (10000, 15, 8)


def test_bench_scripts_name_only_what_exists(monkeypatch):
    """scripts/io_bench.py times the functions of its WRAPPED list, and
    refuses a name that does not exist; scripts/plan_bench.py and
    scripts/kernel_bench.py clear the caches of stair._decode_plan and
    gf.Field._maps.  Every one of those names must exist."""
    from staircodes.gf import Field
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        "io_bench", Path(__file__).resolve().parent.parent / "scripts" / "io_bench.py")
    io_bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(io_bench)
    for module, attr, phase in io_bench.WRAPPED:
        assert callable(getattr(importlib.import_module(f"staircodes.{module}"), attr)), attr
        assert phase in io_bench.PHASES
    with pytest.raises(AttributeError):
        io_bench.PhaseTimer().wrap(cont, "no_such_function", "copy")
    assert callable(stair._decode_plan.cache_clear) and callable(Field._maps.cache_clear)


# The benchmark's checked-in goldens (stairbench/data/, read only).
BENCH_DATA = Path(__file__).resolve().parent.parent / "stairbench" / "data"


def test_reliability_report_matches_benchmark_golden(tmp_path):
    out = tmp_path / "rows.json"
    assert cli.main(["reliability", str(BENCH_DATA / "scenario.txt"), "--format", "json",
                     "-o", str(out)]) == 0
    assert out.read_bytes() == (BENCH_DATA / "reliability_rows.json").read_bytes()


def test_report_builds_each_chunk_distribution_once():
    # eight codes at three p_bits share one distribution per p_bit
    scenario = cli.parse_scenario((BENCH_DATA / "scenario.txt").read_text())
    rel.chunk_dist.cache_clear()
    rows = cli.reliability_rows(scenario)
    info = rel.chunk_dist.cache_info()
    assert (info.misses, info.hits) == (3, len(rows) - 3) == (3, 21)


# SHA-256 of whole validated reports (analytic rows, Monte-Carlo estimates
# and histogram), recorded when --validate and --histogram came to share
# one sample that draws only the failed cells, seeded by --seed.
VALIDATED_GOLDENS = {
    "scenario-seed1": ([str(BENCH_DATA / "scenario.txt"), "--trials", "100000", "--seed", "1",
                        "--format", "json"],
                       "0869b7861e24eb4d5bd6096068ff6b768ecd5937968b41e89621bf06b8bb7185"),
    "scenario-seed2": ([str(BENCH_DATA / "scenario.txt"), "--trials", "100000", "--seed", "2",
                        "--format", "json"],
                       "16b345d409b0949b94422f70df4e5224b31eb733f94b65bffb73ff5acaf9d402"),
    "10pb-csv": ([str(Path(__file__).resolve().parent.parent / "scripts" / "reliability_10pb.txt"),
                  "--trials", "20000", "--seed", "5"],
                 "a477f5b9dd5c68e69a5d6fc2bd9c761446045714dccd9e447b578fafb345d3e2"),
}


@pytest.mark.parametrize("label", sorted(VALIDATED_GOLDENS))
def test_validated_report_matches_golden(tmp_path, label):
    args, sha256 = VALIDATED_GOLDENS[label]
    out = tmp_path / "validated.out"
    assert cli.main(["reliability", *args, "--validate", "--histogram", "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


# SHA-256 of the other reports the one report writer makes, in CSV and JSON;
# the validated one was recorded with the validated goldens above.
REPORT_GOLDENS = {
    "cost-csv": (["cost", "--n", "8", "--r", "16", "--m", "2", "--sweep-s", "4"],
                 "514f1c5841284782bf1a744e7cdacad937bfa985f79a29d9bad71a03ad757974"),
    "cost-json": (["cost", "--n", "8", "--r", "16", "--m", "2", "--sweep-s", "4",
                   "--format", "json"],
                  "d1b932f400e96ee9b1c8366e49cf7c7c57cc8cfc834b00b5c953e0748b8af681"),
    "scenario-csv": (["reliability", str(BENCH_DATA / "scenario.txt")],
                     "4b30ed98a3b71ca12ffa0d68e09b3032ab6a17c98f4951bd482dbe7c7e13f507"),
    "10pb-csv": (["reliability", str(Path(__file__).resolve().parent.parent / "scripts"
                                     / "reliability_10pb.txt")],
                 "e042a9bf7bba0843015106aed0d6e1b2959a2e8394ae73eb61cdc8606e8f768d"),
    "scenario-validate-json": (["reliability", str(BENCH_DATA / "scenario.txt"), "--validate",
                                "--trials", "20000", "--format", "json"],
                               "071b8f496c15ef063f0de85b03cc01d39916e0a03a6e08ec3101699409f9090e"),
}


@pytest.mark.parametrize("label", sorted(REPORT_GOLDENS))
def test_report_matches_golden(tmp_path, label):
    args, sha256 = REPORT_GOLDENS[label]
    out = tmp_path / "report.out"
    assert cli.main([*args, "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


class _Unprintable:
    def __str__(self):
        raise OSError("no room to render")


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("where", ["rendering", "renaming"])
def test_failed_report_write_keeps_the_earlier_report(tmp_path, monkeypatch, fmt, where):
    # a report is rendered whole, then written through container.replaced:
    # a failure in either step leaves the earlier report and no other file
    out = tmp_path / "report.out"
    args = ["cost", "--n", "8", "--r", "16", "--m", "2", "--sweep-s", "4", "--format", fmt,
            "-o", str(out)]
    assert cli.main(args) == 0
    earlier = out.read_bytes()
    with monkeypatch.context() as patch:
        if where == "rendering":    # the second row fails after the first was rendered
            rows = cli.cost_rows(config_new(8, 16, 2), 4)
            rows[1]["chosen"] = _Unprintable()
            patch.setattr(cli, "cost_rows", lambda *a: rows)
        else:
            def fail(*a):
                raise OSError("rename refused")
            patch.setattr(os, "replace", fail)
        assert cli.main(args) == 1
    assert out.read_bytes() == earlier
    assert os.listdir(tmp_path) == [out.name]


def encode_golden(tmp_path, label, golden, method):
    """Size and SHA-256 of the container ``method`` makes of the golden's
    input: SHAKE-256 of the label, filling all stripes but a third of the last."""
    g = golden["geometry"]
    per = (g["r"] * (g["n"] - g["m"]) - sum(g["e"])) * g["symbol_size"]
    src, box = tmp_path / "golden.bin", tmp_path / "golden.stairc"
    src.write_bytes(hashlib.shake_256(f"stairbench golden {label}".encode())
                    .digest(golden["stripes"] * per - per // 3))
    assert cli.main(["encode", str(src), "-o", str(box), "--method", method,
                     "--n", str(g["n"]), "--r", str(g["r"]), "--m", str(g["m"]),
                     "--e", ",".join(map(str, g["e"])), "--w", str(g.get("w", 8)),
                     "--symbol-size", str(g["symbol_size"])]) == 0
    blob = box.read_bytes()
    return len(blob), hashlib.sha256(blob).hexdigest()


@pytest.mark.parametrize("method", ["downstairs", "upstairs", "standard"])
def test_encode_matches_benchmark_golden_containers(tmp_path, method):
    for label, golden in json.loads((BENCH_DATA / "containers.json").read_text()).items():
        g = golden["geometry"]
        assert label == (f"n{g['n']}_r{g['r']}_m{g['m']}_e{'-'.join(map(str, g['e']))}"
                         f"_s{g['symbol_size']}")
        assert encode_golden(tmp_path, label, golden, method) == (golden["size"],
                                                                  golden["sha256"])


# The benchmark's goldens are all w=8; these pin w=16 and w=32 containers,
# recorded in the same form.
WIDE_GOLDENS = {
    "n8_r4_m2_e1-1-2_s64_w16": {
        "geometry": {"n": 8, "r": 4, "m": 2, "e": [1, 1, 2], "symbol_size": 64, "w": 16},
        "stripes": 3, "size": 6185,
        "sha256": "bf0fba1147b6766130eea4dc3522b4162a8738622a0dc4e74b089cf03e760752"},
    "n6_r4_m1_e1-2_s128_w32": {
        "geometry": {"n": 6, "r": 4, "m": 1, "e": [1, 2], "symbol_size": 128, "w": 32},
        "stripes": 2, "size": 6183,
        "sha256": "4f1b3f2b416ff848a3397d281f23bcd37fc18a65c9f5ef19665917a0adbbecf3"},
}


@pytest.mark.parametrize("method", ["downstairs", "upstairs", "standard"])
@pytest.mark.parametrize("label", sorted(WIDE_GOLDENS))
def test_encode_matches_wide_field_goldens(tmp_path, label, method):
    golden = WIDE_GOLDENS[label]
    assert encode_golden(tmp_path, label, golden, method) == (golden["size"], golden["sha256"])


@pytest.mark.parametrize("w, symbol_size", [(8, 0), (16, 3)])
def test_decode_refuses_header_symbol_size(tmp_path, w, symbol_size):
    # a header whose symbol size encode refuses, followed by the body it
    # describes, must not be decoded
    # (the constructor refuses it, so the packed bytes of a valid header are patched)
    cfg = config_new(8, 4, 2, (1, 1, 2), w)
    header = cont.ContainerHeader(cfg, w // 8, 100)
    blob = bytearray(cont.pack_header(header))
    blob[header.size - 16:header.size - 12] = symbol_size.to_bytes(4, "little")
    per = cfg.data_cell_count * symbol_size
    stripes = -(-100 // per) if symbol_size else 0         # cells of 0 bytes hold no data
    box = tmp_path / "c.stairc"
    box.write_bytes(bytes(blob) + bytes(stripes * cfg.n * cfg.r * symbol_size))
    assert cli.main(["decode", str(box), "-o", str(tmp_path / "o.bin")]) == 1


def test_geometry_without_data_cells_is_refused(tmp_path, payload, capsys):
    # n=2, r=1, m=1, e=(1,) is a valid code whose one stripe is all parity
    src, _ = payload
    flags = ["--n", "2", "--r", "1", "--m", "1", "--e", "1", "--symbol-size", "8"]
    assert cli.main(["encode", str(src), "-o", str(tmp_path / "c.stairc")] + flags) == 1
    assert "no data cells" in capsys.readouterr().err
    # a header naming it, written field by field (the constructor refuses it),
    # with data_length 100 and an empty body
    box, out = tmp_path / "forged.stairc", tmp_path / "out.bin"
    box.write_bytes(struct.pack("<8sHBHHHHHIIQ", cont.MAGIC, cont.VERSION, 8, 2, 1, 1, 1, 1,
                                8, 0x11D, 100))
    assert cli.main(["decode", str(box), "-o", str(out)]) == 1
    assert "no data cells" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("method", ["auto", "upstairs"])
def test_geometry_the_header_cannot_store_is_refused(tmp_path, payload, capsys, monkeypatch,
                                                     method):
    # r = 70,000 is a valid code at w=32 but does not fit the header's u16;
    # it must be refused before any codec work, which would allocate
    # coefficient matrices of tens of GiB
    def no_codec_work(cfg):
        raise AssertionError("choose_method ran")
    monkeypatch.setattr(cli, "choose_method", no_codec_work)
    src, _ = payload
    box = tmp_path / "c.stairc"
    assert cli.main(["encode", str(src), "-o", str(box), "--n", "2", "--r", "70000", "--m", "1",
                     "--w", "32", "--symbol-size", "4", "--method", method]) == 1
    assert "does not fit the container header" in capsys.readouterr().err
    assert not box.exists()


def test_code_wider_than_its_field_is_refused(tmp_path, payload, capsys):
    # r = 300 > 2^8 with m' = 0: refused as a config, at encode and when a
    # damaged header of a valid m' = 0 container reads r's high byte as 1
    src, _ = payload
    box, out = tmp_path / "c.stairc", tmp_path / "out.bin"
    assert cli.main(["encode", str(src), "-o", str(box), "--n", "4", "--r", "300",
                     "--m", "1"]) == 1
    assert "r + e_max = 300 exceeds field size" in capsys.readouterr().err
    assert not box.exists()
    assert cli.main(["encode", str(src), "-o", str(box), "--n", "4", "--r", "44",
                     "--m", "1"]) == 0
    blob = bytearray(box.read_bytes())
    assert struct.unpack_from("<H", blob, 13) == (44,)
    blob[14] = 1                                     # r = 300
    box.write_bytes(blob)
    assert cli.main(["decode", str(box), "-o", str(out)]) == 1
    assert "r + e_max = 300 exceeds field size" in capsys.readouterr().err
    assert not out.exists()


def test_reliability_tables_scenario():
    """scripts/reliability_10pb.txt: array counts for s = 0..12 and MTTDL."""
    opts = cli.parse_scenario((Path(__file__).resolve().parent.parent / "scripts"
                               / "reliability_10pb.txt").read_text())
    rows = cli.reliability_rows(opts)
    first = rows[:13]
    assert [r["code"] for r in first] == ["rs"] + [f"stair({s})" for s in range(1, 13)]
    assert [r["n_arrays"] for r in first] == [4994, 5039, 5085, 5131, 5179, 5227, 5276,
                                              5327, 5378, 5430, 5483, 5538, 5593]
    mttdl = {r["code"]: f"{r['mttdl_sys_hours']:.6e}" for r in rows if r["p_bit"] == 1e-10}
    assert {code: mttdl[code] for code in ("rs", "stair(1)", "stair(3)", "stair(1,2)",
                                           "stair(1,1,1)", "sd(2)", "sd(3)")} == {
        "rs": "1.251858e+01", "stair(1)": "3.069779e+02", "stair(3)": "3.472923e+02",
        "stair(1,2)": "4.882799e+04", "stair(1,1,1)": "2.110224e+03",
        "sd(2)": "4.922672e+04", "sd(3)": "4.890596e+04"}


@pytest.mark.parametrize("method", ["downstairs", "upstairs", "standard"])
def test_benchmark_tracer_contract(tmp_path, monkeypatch, rng, method):
    """stairbench's tracer wraps the package by attribute name and counts the
    coefficient entries of each kernel call as that call's mult-XORs: every
    name must exist, each step of each stripe must be one kernel call, and
    leaving the tracer must put every attribute back."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)     # read stairbench only
    spec = importlib.util.spec_from_file_location(
        "stairbench_spans", BENCH_DATA.parent / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)

    cfg = config_new(8, 4, 2, (1, 1, 2))          # archive_small, 512 B symbols
    flags = ["--n", "8", "--r", "4", "--m", "2", "--e", "1,1,2", "--symbol-size", "512",
             "--method", method]
    src = tmp_path / "in.bin"
    src.write_bytes(rng.integers(0, 256, 2 * cfg.data_cell_count * 512 - 100,
                                 dtype=np.uint8).tobytes())
    argv = ["encode", str(src), "-o", str(tmp_path / "c.stairc")] + flags
    assert cli.main(argv) == 0                    # fills the plan caches

    def current(owner, attr):
        return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

    entry_points = spans.targets(staircodes)
    before = [current(owner, attr) for owner, attr, _, _ in entry_points]
    tracer = spans.Tracer(entry_points)
    with tracer.traced():
        assert cli.main(argv) == 0
    assert [current(owner, attr) for owner, attr, _, _ in entry_points] == before

    kernel = [info for name, _, _, _, _, info in tracer.spans if name == "gf.matmul_regions"]
    assert len(kernel) == 2 * len(encoding_steps(cfg, method)[1])
    assert sum(entries for entries, _ in kernel) == 2 * xor_count(cfg, method)
    assert sum(name == "stair.encode" for name, *_ in tracer.spans) == 2


def test_bench_smoke(tmp_path):
    out = tmp_path / "bench.json"
    assert cli.main(["bench", "--n", "8", "--r", "4", "--m", "1", "--e", "2",
                     "--stripe-mib", "1", "--reps", "1",
                     "--format", "json", "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert set(doc["encode"]) == {"standard", "upstairs", "downstairs"}
    assert doc["chosen"] in doc["encode"]


def test_bench_without_repetitions_exits_1(capsys):
    assert cli.main(["bench", "--n", "8", "--r", "4", "--m", "1", "--e", "2",
                     "--stripe-mib", "1", "--reps", "0"]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("mib", ["0", "-1"])
def test_bench_without_a_stripe_exits_1(capsys, mib):
    assert cli.main(["bench", "--n", "8", "--r", "4", "--m", "1", "--e", "2",
                     "--stripe-mib", mib, "--reps", "1"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_selftest_quick():
    assert cli.main(["selftest", "--quick"]) == 0


def test_bad_flags_exit_1(tmp_path, payload):
    src, _ = payload
    assert cli.main(["encode", str(src), "-o", str(tmp_path / "x"),
                     "--n", "4", "--r", "4", "--m", "2", "--e", "1,1,1"]) == 1
    assert cli.main(["encode", str(src)] + CFG_FLAGS) == 1      # neither -o nor --devices
