"""Bit-exact single-file container format.

Layout: a little-endian header followed by the encoded stripes, each
stored chunk-major (chunk 0..n-1, each r * symbol_size bytes).  Input
data fills the data cells of each stripe in the same chunk-major order
and is zero-padded to a whole number of stripes; the true byte length is
kept in the header.

Header fields, in order: magic "STAIRC1\\0" (8 bytes), version u16,
w u8, n u16, r u16, m u16, m' u16, then m' coverage entries (u16 each),
symbol_size u32, field polynomial u32, data_length u64.  For w=32 the
polynomial is stored without its (implicit) x^32 bit.  Only the default
polynomial of each width (``gf.DEFAULT_POLY``) is accepted.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gf import DEFAULT_POLY
from .stair import StairConfig, Stripe, config_new, data_cells

MAGIC = b"STAIRC1\x00"
VERSION = 1

_FIXED = struct.Struct("<8sHBHHHH")
_TRAILER = struct.Struct("<IIQ")


@dataclass(frozen=True)
class ContainerHeader:
    w: int
    n: int
    r: int
    m: int
    e: tuple[int, ...]
    symbol_size: int
    poly: int
    data_length: int
    version: int = VERSION

    def config(self) -> StairConfig:
        return config_new(self.n, self.r, self.m, self.e, self.w)

    @property
    def size(self) -> int:
        return _FIXED.size + 2 * len(self.e) + _TRAILER.size

    @property
    def stripe_bytes(self) -> int:
        return self.n * self.r * self.symbol_size

    @property
    def data_bytes_per_stripe(self) -> int:
        cfg = self.config()
        return cfg.data_cell_count * self.symbol_size

    @property
    def stripe_count(self) -> int:
        per = self.data_bytes_per_stripe
        if per == 0:
            return 0
        return -(-self.data_length // per)


def header_for(cfg: StairConfig, symbol_size: int, data_length: int) -> ContainerHeader:
    if symbol_size < 1 or symbol_size % (cfg.w // 8):
        raise ValueError(f"symbol size {symbol_size} is not a positive multiple of {cfg.w // 8}")
    return ContainerHeader(cfg.w, cfg.n, cfg.r, cfg.m, cfg.e, symbol_size,
                           DEFAULT_POLY[cfg.w], data_length)


def pack_header(header: ContainerHeader) -> bytes:
    poly32 = header.poly & 0xFFFFFFFF
    return (_FIXED.pack(MAGIC, header.version, header.w, header.n, header.r,
                        header.m, len(header.e))
            + struct.pack(f"<{len(header.e)}H", *header.e)
            + _TRAILER.pack(header.symbol_size, poly32, header.data_length))


def parse_header(buf: bytes) -> ContainerHeader:
    if len(buf) < _FIXED.size:
        raise ValueError("truncated container header")
    magic, version, w, n, r, m, m_prime = _FIXED.unpack_from(buf, 0)
    if magic != MAGIC:
        raise ValueError(f"bad container magic {magic!r}")
    if version != VERSION:
        raise ValueError(f"unsupported container version {version}")
    off = _FIXED.size
    if len(buf) < off + 2 * m_prime + _TRAILER.size:
        raise ValueError("truncated container header")
    e = struct.unpack_from(f"<{m_prime}H", buf, off)
    if list(e) != sorted(e):
        raise ValueError(f"coverage vector in header is not sorted: {e}")
    off += 2 * m_prime
    symbol_size, poly32, data_length = _TRAILER.unpack_from(buf, off)
    poly = poly32 | (1 << 32) if w == 32 else poly32
    header = ContainerHeader(w, n, r, m, tuple(e), symbol_size, poly, data_length)
    header.config()   # validates the geometry
    if poly != DEFAULT_POLY[w]:
        # the codec only runs the default field of each width
        raise ValueError(f"unsupported field polynomial {poly:#x} for w={w}, "
                         f"expected {DEFAULT_POLY[w]:#x}")
    return header


# ---------------------------------------------------------------------------
# stripe <-> bytes
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _data_idx(cfg: StairConfig):
    cells = data_cells(cfg)
    return (np.array([i for i, _ in cells], dtype=np.intp),
            np.array([j for _, j in cells], dtype=np.intp))


def stripe_to_bytes(stripe: Stripe) -> bytes:
    """Chunk-major serialisation: whole chunks back to back."""
    return stripe.cells.transpose(1, 0, 2).tobytes()


def stripe_from_bytes(cfg: StairConfig, symbol_size: int, buf: bytes) -> Stripe:
    expected = cfg.n * cfg.r * symbol_size
    if len(buf) != expected:
        raise ValueError(f"stripe payload is {len(buf)} bytes, expected {expected}")
    cells = (np.frombuffer(buf, dtype=np.uint8)
             .reshape(cfg.n, cfg.r, symbol_size).transpose(1, 0, 2).copy())
    return Stripe(cfg, cells)


def fill_data(stripe: Stripe, block: bytes) -> None:
    """Write one stripe's worth of (padded) user bytes into the data cells."""
    cfg = stripe.cfg
    rows, cols = _data_idx(cfg)
    want = len(rows) * stripe.symbol_size
    if len(block) != want:
        raise ValueError(f"data block is {len(block)} bytes, expected {want}")
    arr = np.frombuffer(block, dtype=np.uint8).reshape(len(rows), stripe.symbol_size)
    stripe.cells[rows, cols] = arr


def extract_data(stripe: Stripe) -> bytes:
    rows, cols = _data_idx(stripe.cfg)
    return stripe.cells[rows, cols].tobytes()
