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
import os
import stat
import struct
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
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
    # built and validated once, here, not on every use of the geometry
    _config: StairConfig = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        # every header, made by header_for or read by parse_header, passes here
        cfg = config_new(self.n, self.r, self.m, self.e, self.w)
        if not cfg.data_cell_count:
            raise ValueError(f"geometry n={self.n}, r={self.r}, m={self.m}, e={self.e} has no "
                             "data cells, so a container of it could hold no data")
        object.__setattr__(self, "_config", cfg)

    def config(self) -> StairConfig:
        return self._config

    @property
    def size(self) -> int:
        return _FIXED.size + 2 * len(self.e) + _TRAILER.size

    @property
    def data_bytes_per_stripe(self) -> int:
        return self._config.data_cell_count * self.symbol_size

    @property
    def stripe_bytes(self) -> int:
        return self.n * self.r * self.symbol_size

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
# the stripe body: stripes as a (stripes, n, r, symbol_size) uint8 array in
# the on-disk order, so body[:, j] is what device j stores.  Files are read
# and written a block of stripes at a time.
# ---------------------------------------------------------------------------

def _device_file(devdir: Path, j: int) -> Path:
    return devdir / f"device_{j:02d}.bin"


def _check_length(size: int, shape: tuple, what: str) -> None:
    if size != math.prod(shape):
        raise ValueError(f"{what} is {size} bytes, expected {math.prod(shape)}")


def read_exact(f, buf) -> None:
    """Fill the writable buffer ``buf`` from the binary file ``f``;
    ValueError when the file ends first."""
    want = memoryview(buf).nbytes
    got = f.readinto(buf)
    if got != want:
        raise ValueError(f"{f.name} ended after {got} of {want} bytes")


def _read_header(f) -> ContainerHeader:
    head = f.read(_FIXED.size)
    if len(head) == _FIXED.size:      # the coverage entries and the trailer
        head += f.read(2 * _FIXED.unpack(head)[-1] + _TRAILER.size)
    return parse_header(head)


@contextmanager
def reader(path=None, devices=None):
    """The header of a single container file at ``path``, or of a
    ``devices`` directory (a header file plus one file per device), and a
    function that fills a C-contiguous (B, n, r, symbol_size) block with
    the next B stripes.  Every file length is checked from the file sizes
    first, so a forged header is refused before anything is allocated."""
    with ExitStack() as stack:
        if devices:
            devdir = Path(devices)
            header = _read_header(stack.enter_context(open(devdir / "header.stairc", "rb")))
            files = [stack.enter_context(open(_device_file(devdir, j), "rb"))
                     for j in range(header.n)]
            for j, f in enumerate(files):
                _check_length(os.fstat(f.fileno()).st_size,
                              (header.stripe_count, header.r, header.symbol_size),
                              f"device file {j}")

            def readinto(block):
                chunk = np.empty((len(block), header.r, header.symbol_size), dtype=np.uint8)
                for j, f in enumerate(files):
                    read_exact(f, chunk)
                    block[:, j] = chunk
        elif path:
            f = stack.enter_context(open(path, "rb"))
            header = _read_header(f)
            _check_length(os.fstat(f.fileno()).st_size - header.size,
                          (header.stripe_count, header.stripe_bytes), "container body")

            def readinto(block):
                read_exact(f, block)
        else:
            raise ValueError("need a container file or a devices directory")
        yield header, readinto


@contextmanager
def replaced(path, size: int):
    """A binary file opened for writing on a new name beside ``path`` and
    renamed over ``path`` when the block ends, or deleted when it raises:
    an output never clobbers an input still being read, and a failed
    command leaves no partial output.  A ``path`` that exists and is not a
    regular file (a device such as /dev/null, or a pipe, also when named
    as /dev/stdout or /dev/fd/N) is written to directly.  A symbolic link
    keeps pointing at the file it names.

    The file is given its final ``size`` up front: a full disk fails
    before any byte is written, and the writes that follow, block by
    block, run several times faster than into a growing file (32 MiB on
    ext4 in 4 MiB writes: 9 ms against 30 ms), where the system has
    ``posix_fallocate``."""
    try:      # /dev/stdout or /dev/fd/N on a pipe links to no real name
        special = not stat.S_ISREG(os.stat(path).st_mode)
    except FileNotFoundError:
        special = False
    if special:
        with open(path, "wb") as f:
            yield f
        return
    path = Path(os.path.realpath(path))
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    try:
        with open(tmp, "xb") as f:
            if size and hasattr(os, "posix_fallocate"):
                os.posix_fallocate(f.fileno(), 0, size)
            yield f
            if f.tell() != size:      # short of its size, the file would end in zeros
                raise ValueError(f"wrote {f.tell()} bytes to {path}, expected {size}")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@contextmanager
def writer(header: ContainerHeader, path=None, devices=None):
    """A function that appends a (B, n, r, symbol_size) block of stripes
    to a single container file at ``path`` and/or a ``devices``
    directory; every file is :func:`replaced` when the block ends."""
    with ExitStack() as stack:
        sinks = []
        if path:
            f = stack.enter_context(replaced(path, header.size + header.stripe_count
                                             * header.stripe_bytes))
            f.write(pack_header(header))
            sinks.append(f.write)
        if devices:
            devdir = Path(devices)
            devdir.mkdir(parents=True, exist_ok=True)
            stack.enter_context(replaced(devdir / "header.stairc", header.size)).write(
                pack_header(header))
            files = [stack.enter_context(replaced(_device_file(devdir, j), header.stripe_count
                                                  * header.stripe_bytes // header.n))
                     for j in range(header.n)]

            def to_devices(block):
                for j, f in enumerate(files):
                    f.write(np.ascontiguousarray(block[:, j]))
            sinks.append(to_devices)

        def write(block):
            for sink in sinks:
                sink(block)
        yield write


def check_stripe(stripes: int, k) -> int:
    """``k``, when it is the index of one of ``stripes`` stripes; ValueError otherwise."""
    if type(k) is not int or not 0 <= k < stripes:
        raise ValueError(f"stripe index {k!r} is not in 0..{stripes - 1}")
    return k


def stripe_view(body: np.ndarray, k) -> np.ndarray:
    """Stripe ``k`` of ``body`` as an (r, n, symbol_size) view: writes go to the body."""
    return body[check_stripe(len(body), k)].transpose(1, 0, 2)


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


# ---------------------------------------------------------------------------
# user data in the data cells
# ---------------------------------------------------------------------------

@lru_cache(maxsize=256)
def _runs(cfg: StairConfig, symbol_size: int) -> tuple[tuple[int, int, int], ...]:
    """The data cells of a stored stripe as (stripe offset, data offset,
    length) byte runs, in the fill order.  Cells are stored chunk-major and
    a stair column's data rows come before its parity rows, so there are
    at most 1 + m' runs."""
    runs: list[list[int]] = []
    for d, (i, j) in enumerate(data_cells(cfg)):
        s = (j * cfg.r + i) * symbol_size
        if runs and runs[-1][0] + runs[-1][2] == s:
            runs[-1][2] += symbol_size
        else:
            runs.append([s, d * symbol_size, symbol_size])
    return tuple(tuple(run) for run in runs)


def user_bytes(header: ContainerHeader, stripes: int, first: int) -> int:
    """Input bytes held by ``stripes`` stripes from stripe ``first`` on."""
    per = header.data_bytes_per_stripe
    return min(stripes * per, header.data_length - first * per)


def fill_data(header: ContainerHeader, data, body: np.ndarray, first: int) -> None:
    """Copy the user bytes ``data`` into the data cells of ``body``; data
    cells past their end are zeroed, parity cells are left as they are.
    ``body`` is a C-contiguous block of stripes ``first``, ``first`` + 1,
    ... of the container, and ``data`` must be all the input those stripes
    hold."""
    per = header.data_bytes_per_stripe
    want = user_bytes(header, len(body), first)
    if len(data) != want:
        raise ValueError(f"data is {len(data)} bytes, the header says {want}")
    src = np.frombuffer(data, dtype=np.uint8)
    full = want // per
    tail = np.zeros((len(body) - full, per), dtype=np.uint8)    # zero-padded last stripe
    tail.reshape(-1)[:want - full * per] = src[full * per:]
    runs = _runs(header.config(), header.symbol_size)
    for stored, cells in ((body[:full], src[:full * per].reshape(full, per)),
                          (body[full:], tail)):
        stored = stored.reshape(len(stored), header.stripe_bytes)
        for s, d, length in runs:
            stored[:, s:s + length] = cells[:, d:d + length]


def extract_data(header: ContainerHeader, body: np.ndarray, first: int,
                 out: np.ndarray) -> memoryview:
    """The user bytes held in the data cells of ``body``, a block of
    stripes ``first``, ``first`` + 1, ... of the container: a view of
    ``out``, a (len(body), data bytes per stripe) uint8 array into which
    they are copied."""
    stored = body.reshape(len(body), header.stripe_bytes)
    for s, d, length in _runs(header.config(), header.symbol_size):
        out[:, d:d + length] = stored[:, s:s + length]
    return memoryview(out).cast("B")[:user_bytes(header, len(body), first)]
