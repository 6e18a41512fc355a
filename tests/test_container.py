import numpy as np
import pytest

import staircodes as sc
from staircodes import container as cont


def test_header_roundtrip(exemplar):
    header = cont.header_for(exemplar, 512, 123456789)
    blob = cont.pack_header(header)
    assert len(blob) == header.size
    assert cont.parse_header(blob) == header


def test_header_roundtrip_wide_fields():
    for w in (16, 32):
        cfg = sc.config_new(6, 4, 1, (1, 2), w=w)
        header = cont.header_for(cfg, 4 * (w // 8), 99)
        parsed = cont.parse_header(cont.pack_header(header))
        assert parsed == header
        assert parsed.poly == header.poly      # w=32 polynomial survives truncation


def with_poly(header, poly):
    """The packed header with ``poly`` in its polynomial field."""
    blob = bytearray(cont.pack_header(header))
    blob[header.size - 12:header.size - 8] = poly.to_bytes(4, "little")
    return bytes(blob)


@pytest.mark.parametrize("poly", [0x11B, 0x100], ids=hex)
def test_foreign_polynomial_rejected(exemplar, poly):
    # 0x11B is irreducible but not the codec's field; 0x100 is reducible
    header = cont.header_for(exemplar, 512, 0)
    assert cont.parse_header(with_poly(header, header.poly)) == header
    with pytest.raises(ValueError, match="polynomial"):
        cont.parse_header(with_poly(header, poly))


def test_bad_magic_rejected(exemplar):
    blob = bytearray(cont.pack_header(cont.header_for(exemplar, 512, 0)))
    blob[0] ^= 0xFF
    with pytest.raises(ValueError, match="magic"):
        cont.parse_header(bytes(blob))


def test_bad_version_rejected(exemplar):
    blob = bytearray(cont.pack_header(cont.header_for(exemplar, 512, 0)))
    blob[8] = 99
    with pytest.raises(ValueError, match="version"):
        cont.parse_header(bytes(blob))


def test_unsorted_coverage_rejected(exemplar):
    blob = bytearray(cont.pack_header(cont.header_for(exemplar, 512, 0)))
    # coverage entries start right after the 19-byte fixed part
    blob[19:21], blob[23:25] = blob[23:25], blob[19:21]
    with pytest.raises(ValueError, match="sorted"):
        cont.parse_header(bytes(blob))


def test_truncated_header_rejected():
    with pytest.raises(ValueError, match="truncated"):
        cont.parse_header(b"STAIRC1\x00\x01")


def test_symbol_size_validated(exemplar):
    with pytest.raises(ValueError):
        cont.header_for(sc.config_new(4, 2, 1, (), w=16), 3, 0)


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
    header = cont.header_for(exemplar, 4, len(payload))
    assert header.stripe_count == 3
    body = np.zeros((3, exemplar.n, exemplar.r, 4), dtype=np.uint8)   # stripes, chunks, rows, bytes
    cont.fill_data(header, payload, body, 0)
    out = np.empty((3, per), dtype=np.uint8)
    assert cont.extract_data(header, body, 0, out) == payload
    # stripe k holds bytes k*per.. of the input, chunk-major from its cell (0, 0)
    assert body[1, 0, 0].tobytes() == payload[per:per + 4]
    assert body[1, 0, 1].tobytes() == payload[per + 4:per + 8]
    # parity cells stay zero, and so does the padding of the last stripe
    from staircodes.stair import parity_mask
    for k in range(3):
        assert not cont.stripe_view(body, k)[parity_mask(exemplar)].any()
    assert not body[2, 0, 2:].any() and not body[2, 1:].any()


def test_fill_data_length_checked(exemplar):
    header = cont.header_for(exemplar, 4, 8)
    with pytest.raises(ValueError):
        cont.fill_data(header, b"\x00" * 7, np.zeros((1, exemplar.n, exemplar.r, 4), np.uint8), 0)


def test_stripe_counts(exemplar):
    header = cont.header_for(exemplar, 512, 0)
    assert header.stripe_count == 0
    per = header.data_bytes_per_stripe
    assert per == exemplar.data_cell_count * 512
    assert cont.header_for(exemplar, 512, per).stripe_count == 1
    assert cont.header_for(exemplar, 512, per + 1).stripe_count == 2
