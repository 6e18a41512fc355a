"""Bit-exact container format: the one owner of the on-disk stripe layout.

Layout: a little-endian header followed by the encoded stripes, each
stored chunk-major (chunk 0..n-1, each r * symbol_size bytes).  Input
data fills the data cells of each stripe in the same chunk-major order
and is zero-padded to a whole number of stripes; the true byte length is
kept in the header.  Split across devices, the header goes to its own
file and device j's file holds chunk j of every stripe, back to back.

A header holds a code's :class:`StairConfig`, its symbol size and the
data length.  On disk, in order: magic "STAIRC1\\0" (8 bytes), version
u16, w u8, n u16, r u16, m u16, m' u16, then m' coverage entries (u16
each), symbol_size u32, field polynomial u32, data_length u64.  Magic,
version and polynomial are format constants: version 1, and the default
polynomial of each width (``gf.DEFAULT_POLY``), stored for w=32 without
its implicit x^32 bit; a header with any other is refused.  A header
whose fields do not fit their on-disk widths is refused when it is made.
"""

from __future__ import annotations

import math
import os
import stat
import struct
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import groupby
from pathlib import Path

import numpy as np

from .gf import DEFAULT_POLY
from .stair import StairConfig, check_symbol_size, data_cells

MAGIC = b"STAIRC1\x00"
VERSION = 1

#: Bytes of stripes in one block, and the most bytes of the body that one
#: read of :func:`user_bytes` spans: the bound on the memory each container
#: command uses per block.  256 KiB keeps a block in a core's L2 cache; a
#: sweep of 128 KiB to 4 MiB over every container command is in
#: BENCH_container_io.json ("cache_sized_blocks").
BLOCK_BYTES = 1 << 18

_FIXED = struct.Struct("<8sHBHHHH")
_TRAILER = struct.Struct("<IIQ")


@dataclass(frozen=True)
class ContainerHeader:
    cfg: StairConfig
    symbol_size: int
    data_length: int

    def __post_init__(self):
        # every header, made by a command or read by parse_header, passes here
        cfg = self.cfg
        check_symbol_size(self.symbol_size, cfg.w)
        # m, m' and e are bounded by n and r; w by StairConfig
        for name, value, top in (("n", cfg.n, 0xFFFF), ("r", cfg.r, 0xFFFF),
                                 ("symbol size", self.symbol_size, 0xFFFFFFFF),
                                 ("data length", self.data_length, 2 ** 64 - 1)):
            if not 0 <= value <= top:
                raise ValueError(f"{name} {value} does not fit the container header "
                                 f"(at most {top})")
        if not cfg.data_cell_count:
            raise ValueError(f"geometry n={cfg.n}, r={cfg.r}, m={cfg.m}, e={cfg.e} has no "
                             "data cells, so a container of it could hold no data")

    @property
    def size(self) -> int:
        return _FIXED.size + 2 * self.cfg.m_prime + _TRAILER.size

    @property
    def data_bytes_per_stripe(self) -> int:
        return self.cfg.data_cell_count * self.symbol_size

    @property
    def stripe_bytes(self) -> int:
        return self.cfg.n * self.cfg.r * self.symbol_size

    @property
    def stripe_count(self) -> int:
        return -(-self.data_length // self.data_bytes_per_stripe)


def pack_header(header: ContainerHeader) -> bytes:
    cfg = header.cfg
    return (_FIXED.pack(MAGIC, VERSION, cfg.w, cfg.n, cfg.r, cfg.m, cfg.m_prime)
            + struct.pack(f"<{cfg.m_prime}H", *cfg.e)
            + _TRAILER.pack(header.symbol_size, DEFAULT_POLY[cfg.w] & 0xFFFFFFFF,
                            header.data_length))


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
    off += 2 * m_prime
    symbol_size, poly32, data_length = _TRAILER.unpack_from(buf, off)
    header = ContainerHeader(StairConfig(n, r, m, e, w), symbol_size, data_length)
    poly = poly32 | (1 << 32) if w == 32 else poly32
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


_IOV_MAX = os.sysconf("SC_IOV_MAX")


def read_into(f, offset: int, buffers) -> None:
    """Fill the flat byte ``buffers`` in order from byte ``offset`` of file ``f`` on, one
    ``os.preadv`` per ``SC_IOV_MAX`` of them; ValueError when the file ends first."""
    for i in range(0, len(buffers), _IOV_MAX):
        want = sum(map(len, buffers[i:i + _IOV_MAX]))
        if (got := os.preadv(f.fileno(), buffers[i:i + _IOV_MAX], offset)) != want:
            raise ValueError(f"{f.name} ended after {offset + got} of {offset + want} bytes")
        offset += want


def _read_header(f) -> ContainerHeader:
    head = f.read(_FIXED.size)
    if len(head) == _FIXED.size:      # the coverage entries and the trailer
        head += f.read(2 * _FIXED.unpack(head)[-1] + _TRAILER.size)
    return parse_header(head)


@contextmanager
def reader(path=None, devices=None):
    """The header of a single container file at ``path``, or of a
    ``devices`` directory (a header file plus one file per device), the
    files of its body, and the byte of each where the body starts.  Every
    file length is checked from the file sizes first, so a forged header
    is refused before anything is allocated.  Given both, it refuses."""
    if path and devices:
        raise ValueError("give a container file or a devices directory, not both")
    with ExitStack() as stack:
        if devices:
            devdir = Path(devices)
            head = stack.enter_context(open(devdir / "header.stairc", "rb"))
            header = _read_header(head)
            _check_length(os.fstat(head.fileno()).st_size, (header.size,), "header file")
            files = [stack.enter_context(open(_device_file(devdir, j), "rb"))
                     for j in range(header.cfg.n)]
            for j, f in enumerate(files):
                _check_length(os.fstat(f.fileno()).st_size,
                              (header.stripe_count, header.cfg.r, header.symbol_size),
                              f"device file {j}")
            yield header, files, 0
        elif path:
            f = stack.enter_context(open(path, "rb"))
            header = _read_header(f)
            _check_length(os.fstat(f.fileno()).st_size - header.size,
                          (header.stripe_count, header.stripe_bytes), "container body")
            yield header, [f], header.size
        else:
            raise ValueError("need a container file or a devices directory")


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
    block, run faster than into a growing file (32 MiB on ext4 in 256 KiB
    writes, 2-vCPU Xeon: 6.7 to 7.1 ms against 8.0 to 8.5 ms), where the
    system has ``posix_fallocate``."""
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


def _discard(path) -> None:
    """Remove the regular file that ``path`` names, through a symbolic link
    as :func:`replaced` writes through one; leave any other file."""
    if os.path.isfile(path := os.path.realpath(path)):
        os.unlink(path)


@contextmanager
def writer(header: ContainerHeader, path=None, devices=None):
    """A function that appends a (B, n, r, symbol_size) block of stripes
    to a single container file at ``path`` and/or a ``devices``
    directory; every file is :func:`replaced` when the block ends.  The old
    header goes before the first device file is renamed and the new one is
    renamed last, so a device set cut short has no header to read it by.
    ``path``'s file is renamed after the device set, and when that fails
    the new header goes too, so that ``path`` keeps the old container and
    the new device set is refused."""
    with ExitStack() as stack:
        sinks = []
        if devices:
            devdir, cleared = Path(devices), []
            head = devdir / "header.stairc"
            # exits last; once the old header is cleared, any header is this writer's
            stack.push(lambda exc_type, *_: exc_type is not None and cleared and _discard(head))
        if path:
            f = stack.enter_context(replaced(path, header.size + header.stripe_count
                                             * header.stripe_bytes))
            f.write(pack_header(header))
            sinks.append(f.write)
        if devices:
            devdir.mkdir(parents=True, exist_ok=True)
            stack.enter_context(replaced(head, header.size)).write(pack_header(header))
            files = [stack.enter_context(replaced(_device_file(devdir, j), header.stripe_count
                                                  * header.stripe_bytes // header.cfg.n))
                     for j in range(header.cfg.n)]
            stack.push(lambda exc_type, *_: exc_type is None and cleared.append(_discard(head)))

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
    """Stripes ``idx`` (checked indices) of ``body`` as one (r, n, B *
    symbol_size) cell array, B = len(idx): bytes b * symbol_size to (b +
    1) * symbol_size of each cell belong to stripe ``idx[b]``.  For B = 1
    that is the stripe's own :func:`stripe_view`, not a copy; for more it
    is a new array.

    A schedule depends only on which cells are known, and the region
    kernel works word by word, so one decode of this array decodes the B
    stripes (a symbol is a whole number of words, so none straddles two).
    """
    if len(idx) == 1:
        return stripe_view(body, idx[0])
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
# blocks of stripes, and the user data in their data cells
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


def _spans(header: ContainerHeader, stripes: int, user: int, step: int):
    """(body offset, length) of the data runs of the first ``stripes``
    stripes of a body that hold its first ``user`` input bytes, in input
    order, cut where a multiple of ``step`` or of ``BLOCK_BYTES`` falls."""
    for q in range(stripes):
        for s, d, length in _runs(header.cfg, header.symbol_size):
            at = q * header.stripe_bytes + s
            end = at + min(length, user - q * header.data_bytes_per_stripe - d)
            while at < end:
                cut = min(end, at - at % BLOCK_BYTES + BLOCK_BYTES, at - at % step + step)
                yield at, cut - at
                at = cut


def _extents(header: ContainerHeader):
    """(first stripe, stripes, input bytes) per block of ``BLOCK_BYTES``, or of one stripe."""
    per, count = header.data_bytes_per_stripe, header.stripe_count
    size = max(1, min(BLOCK_BYTES // header.stripe_bytes, count))
    for k in range(0, count, size):
        yield k, min(size, count - k), min(size * per, header.data_length - k * per)


def blocks(header: ContainerHeader):
    """The container's stripes a block of :func:`_extents` at a time, as
    (first stripe, block, runs): the C-contiguous (B, n, r, symbol_size)
    block is a view of one array that every block reuses, and ``runs`` the
    views of its data cells that hold its input bytes, in order.  Its data
    cells past the last input byte are zero."""
    for k, b, user in _extents(header):
        if k == 0:      # the first block is the largest
            body = np.zeros((b, header.cfg.n, header.cfg.r, header.symbol_size), np.uint8)
            runs = cache(lambda b, user: [body.reshape(-1)[at:at + length] for at, length
                                          in _spans(header, b, user, header.stripe_bytes)])
        if user < b * header.data_bytes_per_stripe:
            body[:b] = 0
        yield k, body[:b], runs(b, user)


def user_bytes(header: ContainerHeader, files: list, origin: int):
    """The container's input bytes in order, read from the ``files`` of
    :func:`reader`, as views of one buffer that each hold until the next
    is yielded.  A block's data runs in one aligned ``BLOCK_BYTES`` of it
    are one read, with one ``os.preadv`` per file, into consecutive slices
    of the buffer; a file's parity cells between them go to a scratch
    buffer.  A read ends at its last data byte, so neither the parity at
    the end of a stripe of a block or more nor a parity device is read."""
    step = header.stripe_bytes // len(files)      # a file's bytes per stripe
    out = memoryview(np.empty(min(BLOCK_BYTES, header.data_length), np.uint8))
    # the parity between a stripe's data runs and on to the next stripe's: no
    # gap in one file is longer, and no read holds one of BLOCK_BYTES or more
    runs = _runs(header.cfg, header.symbol_size)
    starts = [s for s, _, _ in runs[1:]] + [header.stripe_bytes + runs[0][0]]
    gaps = [t - s - n for (s, _, n), t in zip(runs, starts)]
    scratch = memoryview(np.empty(max([g for g in gaps if g < BLOCK_BYTES], default=0), np.uint8))

    @cache     # one list for every full block, one for the last
    def ranges(b, user):
        done = []
        for _, group in groupby(_spans(header, b, user, step), lambda s: s[0] // BLOCK_BYTES):
            reads, n = {}, 0
            for at, length in group:      # cut at step, so each lies in one file
                j, o = divmod(at % header.stripe_bytes, step)
                offset = origin + at // header.stripe_bytes * step + o
                f, start, buffers, end = reads.get(j, (files[j], offset, [], offset))
                if offset > end:
                    buffers.append(scratch[:offset - end])
                buffers.append(out[n:n + length])
                reads[j], n = (f, start, buffers, offset + length), n + length
            done.append((reads.values(), out[:n]))
        return done

    for k, b, user in _extents(header):
        for reads, data in ranges(b, user):
            for f, offset, buffers, _ in reads:
                read_into(f, offset + k * step, buffers)
            yield data


def fill_data(header: ContainerHeader, data: np.ndarray, body: np.ndarray) -> None:
    """Copy row b of the (B, data bytes per stripe) array ``data`` into the
    data cells of stripe b of ``body``, a C-contiguous block of B stripes;
    parity cells are left as they are.  No command calls it."""
    rows = data.reshape(len(body), header.data_bytes_per_stripe, copy=False)
    stored = body.reshape(len(body), header.stripe_bytes)
    for s, d, length in _runs(header.cfg, header.symbol_size):
        stored[:, s:s + length] = rows[:, d:d + length]


def extract_data(header: ContainerHeader, body: np.ndarray, data: np.ndarray) -> None:
    """The inverse of :func:`fill_data`: copy the data cells of stripe b of
    ``body`` into row b of ``data``."""
    rows = data.reshape(len(body), header.data_bytes_per_stripe, copy=False)
    stored = body.reshape(len(body), header.stripe_bytes)
    for s, d, length in _runs(header.cfg, header.symbol_size):
        rows[:, d:d + length] = stored[:, s:s + length]


def zero_cells(body: np.ndarray, idx: list[int], cells) -> None:
    """Zero the cells ``(i, j)`` of ``cells`` in stripes ``idx`` of ``body``."""
    for i, j in cells:
        body[idx, j, i] = 0
