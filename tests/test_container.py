import dataclasses

import numpy as np
import pytest

import staircodes as sc
from staircodes import container as cont
from staircodes.gf import DEFAULT_POLY


def test_header_roundtrip(exemplar):
    header = cont.ContainerHeader(exemplar, 512, 123456789)
    blob = cont.pack_header(header)
    assert len(blob) == header.size
    assert cont.parse_header(blob) == header


def test_header_roundtrip_wide_fields():
    for w in (16, 32):
        cfg = sc.config_new(6, 4, 1, (1, 2), w=w)
        header = cont.ContainerHeader(cfg, 4 * (w // 8), 99)
        blob = cont.pack_header(header)
        assert cont.parse_header(blob) == header
        # w=32 stores its polynomial without the implicit x^32 bit
        poly32 = int.from_bytes(blob[header.size - 12:header.size - 8], "little")
        assert poly32 == DEFAULT_POLY[w] & 0xFFFFFFFF
    # the largest values every field can store
    edge = cont.ContainerHeader(sc.config_new(0xFFFF, 0xFFFF, 1, (), w=32), 0xFFFFFFFC, 2 ** 64 - 1)
    assert cont.parse_header(cont.pack_header(edge)) == edge


def test_header_builds_its_config_once(exemplar):
    header = cont.ContainerHeader(exemplar, 512, 100_000)
    assert header.cfg is exemplar
    assert [f.name for f in dataclasses.fields(header)] == ["cfg", "symbol_size", "data_length"]
    assert header.data_bytes_per_stripe == exemplar.data_cell_count * 512
    assert header.stripe_count == -(-100_000 // (exemplar.data_cell_count * 512))
    parsed = cont.parse_header(cont.pack_header(header))
    assert parsed == header and hash(parsed) == hash(header)
    assert cont.ContainerHeader(exemplar, 512, 99) != header


def with_poly(header, poly):
    """The packed header with ``poly`` in its polynomial field."""
    blob = bytearray(cont.pack_header(header))
    blob[header.size - 12:header.size - 8] = poly.to_bytes(4, "little")
    return bytes(blob)


@pytest.mark.parametrize("poly", [0x11B, 0x100], ids=hex)
def test_foreign_polynomial_rejected(exemplar, poly):
    # 0x11B is irreducible but not the codec's field; 0x100 is reducible
    header = cont.ContainerHeader(exemplar, 512, 0)
    assert cont.parse_header(with_poly(header, DEFAULT_POLY[8])) == header
    with pytest.raises(ValueError, match="polynomial"):
        cont.parse_header(with_poly(header, poly))


def test_bad_magic_rejected(exemplar):
    blob = bytearray(cont.pack_header(cont.ContainerHeader(exemplar, 512, 0)))
    blob[0] ^= 0xFF
    with pytest.raises(ValueError, match="magic"):
        cont.parse_header(bytes(blob))


def test_bad_version_rejected(exemplar):
    blob = bytearray(cont.pack_header(cont.ContainerHeader(exemplar, 512, 0)))
    blob[8] = 99
    with pytest.raises(ValueError, match="version"):
        cont.parse_header(bytes(blob))


def test_unsorted_coverage_rejected(exemplar):
    blob = bytearray(cont.pack_header(cont.ContainerHeader(exemplar, 512, 0)))
    # coverage entries start right after the 19-byte fixed part
    blob[19:21], blob[23:25] = blob[23:25], blob[19:21]
    with pytest.raises(ValueError, match="sorted"):
        cont.parse_header(bytes(blob))


def test_truncated_header_rejected():
    with pytest.raises(ValueError, match="truncated"):
        cont.parse_header(b"STAIRC1\x00\x01")


def test_symbol_size_validated(exemplar):
    with pytest.raises(ValueError):
        cont.ContainerHeader(sc.config_new(4, 2, 1, (), w=16), 3, 0)


@pytest.mark.parametrize("cfg, symbol_size, data_length", [
    ((0x10000, 1, 1, ()), 4, 0),
    ((2, 0x10000, 1, ()), 4, 0),
    ((2, 1, 1, ()), 2 ** 32, 0),
    ((2, 1, 1, ()), 4, 2 ** 64),
], ids=["n", "r", "symbol-size", "data-length"])
def test_header_refuses_fields_it_cannot_store(cfg, symbol_size, data_length):
    # valid codes at w=32, whose header fields overflow their on-disk widths
    cfg = sc.config_new(*cfg, w=32)
    with pytest.raises(ValueError, match="does not fit the container header"):
        cont.ContainerHeader(cfg, symbol_size, data_length)


def test_stripe_packing_roundtrip(exemplar, rng):
    stripe = sc.encode(exemplar, sc.random_stripe(exemplar, 8, rng))
    blob = cont.stripe_to_bytes(stripe)
    assert len(blob) == exemplar.r * exemplar.n * 8
    back = cont.stripe_from_bytes(exemplar, 8, blob)
    assert np.array_equal(back, stripe)
    # chunk-major: the first r*sym bytes are chunk 0 top to bottom
    assert blob[:8] == stripe[0, 0].tobytes()
    assert blob[8:16] == stripe[1, 0].tobytes()


def test_data_fill_and_extract_roundtrip(exemplar, rng):
    per = exemplar.data_cell_count * 4
    payload = rng.integers(0, 256, 2 * per + 5, dtype=np.uint8).tobytes()
    header = cont.ContainerHeader(exemplar, 4, len(payload))
    assert header.stripe_count == 3
    body = np.zeros((3, exemplar.n, exemplar.r, 4), dtype=np.uint8)   # stripes, chunks, rows, bytes
    data = np.zeros((3, per), dtype=np.uint8)
    data.reshape(-1)[:len(payload)] = np.frombuffer(payload, np.uint8)
    cont.fill_data(header, data, body)
    out = np.empty((3, per), dtype=np.uint8)
    cont.extract_data(header, body, out)
    assert out.tobytes() == data.tobytes()
    # stripe k holds bytes k*per.. of the input, chunk-major from its cell (0, 0)
    assert body[1, 0, 0].tobytes() == payload[per:per + 4]
    assert body[1, 0, 1].tobytes() == payload[per + 4:per + 8]
    # parity cells stay zero, and so does the padding of the last stripe
    from staircodes.stair import parity_mask
    for k in range(3):
        assert not cont.stripe_view(body, k)[parity_mask(exemplar)].any()
    assert not body[2, 0, 2:].any() and not body[2, 1:].any()


def test_blocks_cover_the_data(exemplar, monkeypatch):
    # blocks of two stripes over a 5-stripe container whose last stripe
    # holds 5 bytes; the block is dirtied between blocks, its runs are its
    # data cells in input order, and the last stripe's data cells past its
    # 5 bytes still read as the zero padding
    per = exemplar.data_cell_count * 4
    header = cont.ContainerHeader(exemplar, 4, 4 * per + 5)
    monkeypatch.setattr(cont, "BLOCK_BYTES", 2 * header.stripe_bytes)
    got = []
    for k, body, runs in cont.blocks(header):
        assert body.shape == (len(body), exemplar.n, exemplar.r, 4) and body.flags.c_contiguous
        user = sum(map(len, runs))
        payload = np.arange(1, user + 1, dtype=np.uint8)      # no zero byte
        at = 0
        for run in runs:
            run[:] = payload[at:at + len(run)]
            at += len(run)
        data = np.empty((len(body), per), np.uint8)
        cont.extract_data(header, body, data)
        assert np.array_equal(data.reshape(-1)[:user], payload)
        assert not data.reshape(-1)[user:].any()
        got.append((k, len(body), user))
        body[:] = 0xA5
    assert got == [(0, 2, 2 * per), (2, 2, 2 * per), (4, 1, 5)]


def test_fill_data_length_checked(exemplar):
    header = cont.ContainerHeader(exemplar, 4, 8)
    per = header.data_bytes_per_stripe
    body = np.zeros((2, exemplar.n, exemplar.r, 4), np.uint8)
    for shape in ((2, per - 1), (1, per), (2, per + 1)):
        with pytest.raises(ValueError):
            cont.fill_data(header, np.zeros(shape, np.uint8), body)
        with pytest.raises(ValueError):
            cont.extract_data(header, body, np.zeros(shape, np.uint8))


def test_stripe_counts(exemplar):
    header = cont.ContainerHeader(exemplar, 512, 0)
    assert header.stripe_count == 0
    per = header.data_bytes_per_stripe
    assert per == exemplar.data_cell_count * 512
    assert cont.ContainerHeader(exemplar, 512, per).stripe_count == 1
    assert cont.ContainerHeader(exemplar, 512, per + 1).stripe_count == 2


def test_replaced_refuses_a_short_body(tmp_path):
    """A body that writes fewer bytes than ``replaced`` was given would
    leave a file that ends in zeros: it raises, and leaves neither the
    file nor its temporary."""
    path = tmp_path / "out.bin"
    with pytest.raises(ValueError, match="wrote 3 bytes"):
        with cont.replaced(path, 4) as f:
            f.write(b"abc")
    assert list(tmp_path.iterdir()) == []
