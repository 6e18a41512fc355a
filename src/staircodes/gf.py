"""GF(2^w) arithmetic and the bulk region kernel everything else reduces to.

Field elements are integers whose bits are the coefficients of a binary
polynomial; arithmetic is modulo an irreducible polynomial of degree w.
Symbol regions are ``numpy.uint8`` buffers whose length is a multiple of
the element width.  The coding layers only ever need two primitives from
here: "multiply regions by constants and XOR the products together"
(:func:`Field.matmul_regions`) and small dense matrix algebra over the
field.  Multi-byte elements are interpreted little-endian.

Every width computes a product one way, in the native nibble-table
kernel of :mod:`staircodes.kernel` (built with the C compiler on its first
call), a scalar product being a one-word region.  The kernel reads byte
planes: at w=8 the regions are already planes and go in as they are,
while wider words are split into one plane per byte lane and joined
again afterwards.  An inverse is computed one way, by
the extended Euclidean algorithm; and a matrix inverse by row elimination
on the region kernel.
"""

from __future__ import annotations

from functools import cache, lru_cache

import numpy as np

from . import kernel

SUPPORTED_WIDTHS = (8, 16, 32)

#: Conventional irreducible polynomials per width, including the x^w term.
DEFAULT_POLY = {
    8: 0x11D,            # x^8 + x^4 + x^3 + x^2 + 1
    16: 0x1100B,         # x^16 + x^12 + x^3 + x + 1
    32: 0x100400007,     # x^32 + x^22 + x^2 + x + 1
}

_WORD_DTYPE = {8: np.uint8, 16: np.uint16, 32: np.uint32}


# ---------------------------------------------------------------------------
# the field
# ---------------------------------------------------------------------------

class Field:
    """GF(2^w) for w in {8, 16, 32}, with one native region kernel.

    A w-bit word is L = w/8 byte lanes, and a * b is the XOR over lanes i
    of a * (b_i << 8i), b_i being byte i of b (the SPLIT tables of Plank,
    Greenan and Miller, FAST 2013).  Each term is GF(2)-linear in b_i, so
    it splits again into a low- and a high-nibble lookup of 16 entries: a
    constant's tables are L rows of 32 words (:meth:`_nibble_tables`), the
    field's one table format, and byte j of row i maps input lane i to
    output lane j.  So every width runs the same byte loop in the C kernel
    of :mod:`staircodes.kernel`, for region products (:meth:`matmul_regions`)
    and scalar ones (:meth:`mul`, a one-word region) alike.
    :meth:`inverse` is Euclid's algorithm, and :meth:`mat_inv` eliminates
    whole rows through :meth:`mat_mul`.

    Immutable after construction and safe to share across threads.
    """

    def __init__(self, w: int = 8):
        if w not in SUPPORTED_WIDTHS:
            raise ValueError(f"unsupported field width w={w}; supported: {SUPPORTED_WIDTHS}")
        self.w = w
        self.poly = DEFAULT_POLY[w]
        self.order = 1 << w
        self.word_bytes = w // 8
        self.word_dtype = _WORD_DTYPE[w]
        # at w=8 the nibble tables of all 256 constants (8 KiB), built at once
        self._tables8 = self._nibble_tables(np.arange(256)) if w == 8 else None

    def __repr__(self) -> str:  # pragma: no cover
        return f"Field(w={self.w}, poly=0x{self.poly:X})"

    def _nibble_tables(self, consts) -> np.ndarray:
        """(N, w/8, 32) nibble tables of N constants a: entry x < 16 of lane
        i is a * (x << 8i) and entry 16 + x is a * (x << 8i + 4).  Entry x
        of nibble g (bits 4g to 4g + 3) XORs the doublings a * x^(4g + bit)
        of the bits set in x."""
        x = np.asarray(consts, dtype=self.word_dtype)
        low_poly = self.poly & (self.order - 1)
        doublings = []
        for _ in range(self.w):
            doublings.append(x)
            x = (x << 1) ^ ((x >> (self.w - 1)) * low_poly)
        nibble_bits = np.stack(doublings, axis=-1).reshape(len(x), 2 * self.word_bytes, 4, 1)
        tbl = np.zeros((len(x), 2 * self.word_bytes, 1), dtype=self.word_dtype)
        for bit in range(4):     # entries x < 2^bit are done; add those with this bit set
            tbl = np.concatenate([tbl, tbl ^ nibble_bits[:, :, bit]], axis=2)
        return tbl.reshape(len(x), self.word_bytes, 32)

    # -- scalar arithmetic --------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        """a * b: the one-word region b through the kernel."""
        return int(self.mat_mul(np.array([[a]], self.word_dtype), [[b]])[0, 0])

    def inverse(self, a: int) -> int:
        """1 / a by the extended Euclidean algorithm on binary polynomials:
        g * a = u and h * a = v modulo the field polynomial throughout, and
        u ends at 1."""
        if not 0 < a < self.order:
            raise ZeroDivisionError(f"{a} has no multiplicative inverse in GF(2^{self.w})")
        u, v, g, h = a, self.poly, 1, 0
        while u != 1:
            shift = u.bit_length() - v.bit_length()
            if shift < 0:
                u, v, g, h = v, u, h, g
                shift = -shift
            u ^= v << shift
            g ^= h << shift
        return g

    # -- region kernel ------------------------------------------------------

    # The layer's only cache, bounded and shared by every field.  Keyed by a
    # coefficient matrix's dtype, shape and bytes, because a schedule applies
    # the same few matrices to every stripe.  An entry holds 32 * (w/8)^2 B
    # per coefficient: 32 B at w=8, 128 B at w=16 and 512 B at w=32.
    @lru_cache(maxsize=4096)
    def _maps(self, dtype, shape, key: bytes):
        """The kernel's (O * L, K * L) nibble maps of an (O, K) matrix, L =
        w/8, as a pointer that holds them: output plane (o, j) reads input
        plane (k, i) through map i -> j of coefficient (o, k)."""
        out_n, k_n = shape
        lanes = self.word_bytes
        consts = np.frombuffer(key, dtype)
        tables = self._tables8.take(consts, 0) if self.w == 8 else self._nibble_tables(consts)
        # byte j of lane i's 32 words is map i -> j
        maps = tables.view(np.uint8).reshape(out_n, k_n, lanes, 32, lanes).transpose(0, 4, 1, 2, 3)
        ffi, _ = kernel.load()
        return ffi.from_buffer("uint8_t[]", np.ascontiguousarray(maps))

    def matmul_regions(self, coef: np.ndarray, regions: np.ndarray) -> np.ndarray:
        """Apply an (O, K) coefficient matrix to K stacked regions.

        ``regions`` is (K, S) uint8 with S a multiple of w/8; returns
        (O, S) with out[o] = XOR_k coef[o, k] * regions[k].  The K regions
        are read as K * w/8 byte planes (lane i of every word), and the
        kernel applies the (O * w/8, K * w/8) matrix of the coefficients'
        nibble maps to them in one call.  At w=8 a word is one lane, so the
        regions are the planes and the kernel's output is the result: the
        call copies ``regions`` only when they are not C-contiguous.  Wider
        words are transposed into planes and back.
        """
        coef = np.asarray(coef)
        out_n, k_n = coef.shape
        lanes = self.word_bytes
        if regions.dtype != np.uint8 or regions.shape[:-1] != (k_n,) or regions.shape[-1] % lanes:
            raise ValueError(f"regions of shape {regions.shape} and dtype {regions.dtype} do not "
                             f"fit {k_n} coefficient columns of GF(2^{self.w}) words")
        s = regions.shape[-1]
        if coef.size == 0 or s == 0:
            return np.zeros((out_n, s), dtype=np.uint8)
        maps = self._maps(coef.dtype, coef.shape, coef.tobytes())
        if lanes == 1:
            planes = np.ascontiguousarray(regions)
        else:
            planes = np.ascontiguousarray(regions.reshape(k_n, -1, lanes).transpose(0, 2, 1))
        out = np.empty((out_n * lanes, s // lanes), dtype=np.uint8)
        ffi, lib = kernel.load()
        lib.gf_matmul(maps, ffi.from_buffer("uint8_t[]", planes), ffi.from_buffer("uint8_t[]", out),
                      out_n * lanes, k_n * lanes, s // lanes)
        if lanes == 1:
            return out
        return out.reshape(out_n, lanes, -1).transpose(0, 2, 1).reshape(out_n, s)

    # -- small dense matrices over the field ---------------------------------

    def mat_mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        b = np.ascontiguousarray(b, dtype=self.word_dtype)
        return self.matmul_regions(a, b.view(np.uint8)).view(self.word_dtype)

    def mat_inv(self, m: np.ndarray) -> np.ndarray:
        """Gauss-Jordan inverse; raises ValueError on singular input.

        Works on the augmented (n, 2n) word matrix [m | I].  Each pivot is
        one row swap, one scaling of the pivot row and one rank-1 update of
        every row, the last two through :meth:`mat_mul`.
        """
        m = np.asarray(m)
        n = m.shape[0]
        if m.shape != (n, n):
            raise ValueError("matrix must be square")
        aug = np.concatenate([m.astype(self.word_dtype), self.identity(n)], axis=1)
        for col in range(n):
            nonzero = np.flatnonzero(aug[col:, col])
            if not nonzero.size:
                raise ValueError("singular matrix over GF(2^w)")
            piv = col + nonzero[0]
            if piv != col:
                aug[[col, piv]] = aug[[piv, col]]
            pivot = int(aug[col, col])
            row = self.mat_mul([[self.inverse(pivot)]], aug[col:col + 1])
            # row r gains f[r] * row: f = this column cancels it in every other
            # row, and f[col] = pivot ^ 1 turns the pivot row into row itself
            f = aug[:, col:col + 1].copy()
            f[col] ^= 1
            aug ^= self.mat_mul(f, row)
        return aug[:, n:].copy()

    def identity(self, n: int) -> np.ndarray:
        return np.eye(n, dtype=self.word_dtype)


@cache
def field_init(w: int = 8) -> Field:
    """Construct (or fetch the cached) GF(2^w) over ``DEFAULT_POLY[w]``."""
    return Field(w)
