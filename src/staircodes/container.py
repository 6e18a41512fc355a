"""Bit-exact container format: the one owner of the on-disk stripe layout.

Layout: a little-endian header followed by the encoded stripes, each
stored chunk-major (chunk 0..n-1, each r * symbol_size bytes).  Input
data fills the data cells of each stripe in the same chunk-major order
and is zero-padded to a whole number of stripes; the true byte length is
kept in the header.  Split across devices, the header goes to its own
file and device j's file holds chunk j of every stripe, back to back.

Header fields, in order: magic "STAIRC1\\0" (8 bytes), version u16,
w u8, n u16, r u16, m u16, m' u16, then m' coverage entries (u16 each),
symbol_size u32, field polynomial u32, data_length u64.  For w=32 the
polynomial is stored without its (implicit) x^32 bit.  Only the default
polynomial of each width (``gf.DEFAULT_POLY``) is accepted.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .gf import DEFAULT_POLY
from .stair import StairConfig, check_symbol_size, config_new, data_cells

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

    def __post_init__(self):
        # every header, made by header_for or read by parse_header, passes here
        if not self.config().data_cell_count:
            raise ValueError(f"geometry n={self.n}, r={self.r}, m={self.m}, e={self.e} has no "
                             "data cells, so a container of it could hold no data")

    def config(self) -> StairConfig:
        return config_new(self.n, self.r, self.m, self.e, self.w)

    @property
    def size(self) -> int:
        return _FIXED.size + 2 * len(self.e) + _TRAILER.size

    @property
    def data_bytes_per_stripe(self) -> int:
        return self.config().data_cell_count * self.symbol_size

    @property
    def stripe_count(self) -> int:
        return -(-self.data_length // self.data_bytes_per_stripe)


def header_for(cfg: StairConfig, symbol_size: int, data_length: int) -> ContainerHeader:
    check_symbol_size(symbol_size, cfg.w)
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
    check_symbol_size(symbol_size, w)
    if poly != DEFAULT_POLY[w]:
        # the codec only runs the default field of each width
        raise ValueError(f"unsupported field polynomial {poly:#x} for w={w}, "
                         f"expected {DEFAULT_POLY[w]:#x}")
    return header


# ---------------------------------------------------------------------------
# the stripe body: every stripe as one (stripes, n, r, symbol_size) uint8
# array in the on-disk order, so body[:, j] is what device j stores
# ---------------------------------------------------------------------------

def _device_file(devdir: Path, j: int) -> Path:
    return devdir / f"device_{j:02d}.bin"


def _body_shape(header: ContainerHeader) -> tuple[int, int, int, int]:
    return header.stripe_count, header.n, header.r, header.symbol_size


def _check_length(size: int, shape: tuple, what: str) -> None:
    if size != math.prod(shape):
        raise ValueError(f"{what} is {size} bytes, expected {math.prod(shape)}")


def read(path=None, devices=None) -> tuple[ContainerHeader, np.ndarray]:
    """The header and a writable body, from a single container file at
    ``path`` or from a ``devices`` directory (a header file plus one file
    per device).  Raises ValueError unless every length is exact."""
    if devices:
        devdir = Path(devices)
        header = parse_header((devdir / "header.stairc").read_bytes())
        stripes, n, r, symbol_size = shape = _body_shape(header)
        # the header may be forged: check every file before allocating the body
        for j in range(n):
            _check_length(_device_file(devdir, j).stat().st_size,
                          (stripes, r, symbol_size), f"device file {j}")
        body = np.empty(shape, dtype=np.uint8)
        for j in range(n):
            body[:, j] = np.fromfile(_device_file(devdir, j), dtype=np.uint8).reshape(
                stripes, r, symbol_size)
        return header, body
    if not path:
        raise ValueError("need a container file or a devices directory")
    blob = np.fromfile(path, dtype=np.uint8)
    header = parse_header(blob.data)
    body = blob[header.size:]
    _check_length(body.size, _body_shape(header), "container body")
    return header, body.reshape(_body_shape(header))


def write(header: ContainerHeader, body: np.ndarray, path=None, devices=None) -> None:
    """Store ``body`` as a single container file at ``path`` and/or as a
    ``devices`` directory."""
    if path:
        with open(path, "wb") as f:
            f.write(pack_header(header))
            body.tofile(f)
    if devices:
        devdir = Path(devices)
        devdir.mkdir(parents=True, exist_ok=True)
        (devdir / "header.stairc").write_bytes(pack_header(header))
        for j in range(header.n):
            body[:, j].tofile(_device_file(devdir, j))


def check_stripe(body: np.ndarray, k) -> int:
    """``k``, when it is the index of a stripe of ``body``; ValueError otherwise."""
    if type(k) is not int or not 0 <= k < len(body):
        raise ValueError(f"stripe index {k!r} is not in 0..{len(body) - 1}")
    return k


def stripe_view(body: np.ndarray, k) -> np.ndarray:
    """Stripe ``k`` of ``body`` as an (r, n, symbol_size) view: writes go to the body."""
    return body[check_stripe(body, k)].transpose(1, 0, 2)


def gather(body: np.ndarray, idx: list[int]) -> np.ndarray:
    """Stripes ``idx`` (checked indices) of ``body`` as one new
    (r, n, B * symbol_size) cell array, B = len(idx): bytes b * symbol_size
    to (b + 1) * symbol_size of each cell belong to stripe ``idx[b]``.

    A schedule depends only on which cells are known, and the region
    kernel works word by word, so one decode of this array decodes the B
    stripes (a symbol is a whole number of words, so none straddles two).
    """
    cells = body[idx].transpose(2, 1, 0, 3)
    return cells.reshape(cells.shape[0], cells.shape[1], -1)


def scatter(body: np.ndarray, idx: list[int], cells: np.ndarray) -> None:
    """Write an (r, n, B * symbol_size) cell array laid out as by
    :func:`gather` back to stripes ``idx`` of ``body``."""
    r, n, _ = cells.shape
    body[idx] = cells.reshape(r, n, len(idx), -1).transpose(2, 1, 0, 3)


def stripe_to_bytes(cells: np.ndarray) -> bytes:
    """One stripe's cells in the body layout: whole chunks back to back."""
    return cells.transpose(1, 0, 2).tobytes()


def stripe_from_bytes(cfg: StairConfig, symbol_size: int, buf: bytes) -> np.ndarray:
    """The inverse of :func:`stripe_to_bytes`: ``buf`` read as a one-stripe body."""
    body = np.frombuffer(buf, dtype=np.uint8)
    _check_length(body.size, (1, cfg.n, cfg.r, symbol_size), "stripe payload")
    return stripe_view(body.reshape(1, cfg.n, cfg.r, symbol_size), 0).copy()


@lru_cache(maxsize=None)
def _data_idx(cfg: StairConfig):
    """Data cells as (chunk, row) index arrays, in the container fill order."""
    cells = data_cells(cfg)
    return (np.array([j for _, j in cells], dtype=np.intp),
            np.array([i for i, _ in cells], dtype=np.intp))


def fill_data(header: ContainerHeader, data: bytes) -> np.ndarray:
    """A new body holding ``data``, zero-padded to whole stripes, in the
    data cells of its stripes; every parity cell is zero."""
    if len(data) != header.data_length:
        raise ValueError(f"data is {len(data)} bytes, the header says {header.data_length}")
    body = np.zeros(_body_shape(header), dtype=np.uint8)
    chunks, rows = _data_idx(header.config())
    padded = np.zeros((len(body), len(chunks), header.symbol_size), dtype=np.uint8)
    padded.reshape(-1)[:len(data)] = np.frombuffer(data, dtype=np.uint8)
    body[:, chunks, rows] = padded
    return body


def extract_data(header: ContainerHeader, body: np.ndarray) -> bytes:
    """The user bytes held in the data cells of ``body``."""
    chunks, rows = _data_idx(header.config())
    return body[:, chunks, rows].reshape(-1)[:header.data_length].tobytes()
