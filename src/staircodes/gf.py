"""GF(2^w) arithmetic and the bulk region kernels everything else reduces to.

Field elements are integers whose bits are the coefficients of a binary
polynomial; arithmetic is modulo an irreducible polynomial of degree w.
Symbol regions are contiguous ``numpy.uint8`` buffers whose length is a
multiple of the element width.  The coding layers only ever need two
primitives from here: "multiply a region by a constant and XOR it into a
target" (:func:`Field.mult_xor`) and small dense matrix algebra over the
field.  Multi-byte elements are interpreted little-endian.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

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
    """GF(2^w) for w in {8, 16, 32}, with table-driven region kernels.

    Immutable after construction and safe to share across threads;
    ``mult_xor`` only requires exclusive access to its destination buffer.
    """

    def __init__(self, w: int = 8):
        if w not in SUPPORTED_WIDTHS:
            raise ValueError(f"unsupported field width w={w}; supported: {SUPPORTED_WIDTHS}")
        self.w = w
        self.poly = DEFAULT_POLY[w]
        self.order = 1 << w
        self.word_bytes = w // 8
        self.word_dtype = _WORD_DTYPE[w]
        if w == 8:
            self._mul_table = self._build_mul_table_8()
            inv = np.zeros(256, dtype=np.uint8)
            rows, cols = np.nonzero(self._mul_table == 1)
            inv[rows] = cols
            self._inv_table = inv
        else:
            self._mul_table = None
            self._inv_table = None

    def __repr__(self) -> str:  # pragma: no cover
        return f"Field(w={self.w}, poly=0x{self.poly:X})"

    def _build_mul_table_8(self) -> np.ndarray:
        b = np.arange(256, dtype=np.uint16)
        cur = np.arange(256, dtype=np.uint16)      # x^k * a, reduced
        acc = np.zeros((256, 256), dtype=np.uint16)
        for k in range(8):
            mask = ((b >> k) & 1).astype(bool)
            acc[:, mask] ^= cur[:, None]
            cur = cur << 1
            over = (cur & 0x100).astype(bool)
            cur[over] ^= self.poly
        return acc.astype(np.uint8)

    # -- scalar arithmetic --------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        if self.w == 8:
            return int(self._mul_table[a, b])
        res = 0
        top = 1 << self.w
        mask = top - 1
        low_poly = self.poly & mask
        while b:
            if b & 1:
                res ^= a
            b >>= 1
            carry = a & (top >> 1)
            a = (a << 1) & mask
            if carry:
                a ^= low_poly
        return res

    def pow(self, a: int, e: int) -> int:
        res, base = 1, a
        while e > 0:
            if e & 1:
                res = self.mul(res, base)
            base = self.mul(base, base)
            e >>= 1
        return res

    def inverse(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        if self.w == 8:
            return int(self._inv_table[a])
        return self.pow(a, self.order - 2)

    # -- region kernels -----------------------------------------------------

    def check_region(self, buf: np.ndarray) -> None:
        if buf.dtype != np.uint8 or buf.ndim != 1:
            raise ValueError("symbol regions must be 1-D uint8 arrays")
        if buf.size % self.word_bytes:
            raise ValueError(
                f"region length {buf.size} is not a multiple of the element width {self.word_bytes}")

    # Bounded and shared by every field: a table is 4 KiB at w=32 and takes
    # about 3 ms to build; standard encoding of n=16, r=16, m=2,
    # e=(1,1,2,4) uses 2,180 constants.
    @lru_cache(maxsize=4096)
    def _const_table(self, a: int) -> np.ndarray:
        """Split tables for w > 8: T[k][b] = a * (b << 8k), one per byte lane."""
        nb = self.word_bytes
        tbl = np.zeros((nb, 256), dtype=self.word_dtype)
        for k in range(nb):
            for byte in range(256):
                tbl[k, byte] = self.mul(a, byte << (8 * k))
        return tbl

    def mult_xor(self, dst: np.ndarray, src: np.ndarray, a: int) -> np.ndarray:
        """dst ^= a * src, elementwise over the field.  Returns dst."""
        self.check_region(dst)
        self.check_region(src)
        if dst.size != src.size:
            raise ValueError(f"region length mismatch: dst={dst.size} src={src.size}")
        if a == 0:
            return dst
        if a == 1:
            np.bitwise_xor(dst, src, out=dst)
            return dst
        if self.w == 8:
            np.bitwise_xor(dst, self._mul_table[a][src], out=dst)
            return dst
        words_src = src.view(self.word_dtype)
        words_dst = dst.view(self.word_dtype)
        tbl = self._const_table(a)
        acc = tbl[0][words_src & 0xFF]
        for k in range(1, self.word_bytes):
            acc ^= tbl[k][(words_src >> (8 * k)) & 0xFF]
        np.bitwise_xor(words_dst, acc, out=words_dst)
        return dst

    def matmul_regions(self, coef: np.ndarray, regions: np.ndarray) -> np.ndarray:
        """Apply an (O, K) coefficient matrix to K stacked regions.

        ``regions`` is (K, S) uint8; returns (O, S) with
        out[o] = XOR_k coef[o, k] * regions[k].
        """
        coef = np.asarray(coef)
        out_n, k_n = coef.shape
        s = regions.shape[1] if regions.ndim == 2 else 0
        out = np.zeros((out_n, s), dtype=np.uint8)
        if k_n == 0 or s == 0:
            return out
        if self.w == 8:
            coef8 = coef.astype(np.uint8, copy=False)
            # block over K to bound the (O, kb, S) intermediate at ~4 MiB
            kb = max(1, (1 << 22) // max(out_n * s, 1))
            for k0 in range(0, k_n, kb):
                blk = self._mul_table[coef8[:, k0:k0 + kb, None], regions[None, k0:k0 + kb, :]]
                out ^= np.bitwise_xor.reduce(blk, axis=1)
            return out
        for o in range(out_n):
            row = out[o]
            for k in range(k_n):
                self.mult_xor(row, regions[k], int(coef[o, k]))
        return out

    # -- small dense matrices over the field ---------------------------------

    def mat_mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a = np.asarray(a)
        b = np.asarray(b)
        if self.w == 8:
            prod = self._mul_table[a[:, :, None].astype(np.uint8), b[None, :, :].astype(np.uint8)]
            return np.bitwise_xor.reduce(prod, axis=1).astype(self.word_dtype)
        out = np.zeros((a.shape[0], b.shape[1]), dtype=self.word_dtype)
        for i in range(a.shape[0]):
            for j in range(b.shape[1]):
                acc = 0
                for k in range(a.shape[1]):
                    acc ^= self.mul(int(a[i, k]), int(b[k, j]))
                out[i, j] = acc
        return out

    def mat_inv(self, m: np.ndarray) -> np.ndarray:
        """Gauss-Jordan inverse; raises ValueError on singular input."""
        m = np.asarray(m)
        n = m.shape[0]
        if m.shape != (n, n):
            raise ValueError("matrix must be square")
        a = [[int(x) for x in row] for row in m]
        inv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for col in range(n):
            piv = next((r for r in range(col, n) if a[r][col]), None)
            if piv is None:
                raise ValueError("singular matrix over GF(2^w)")
            if piv != col:
                a[col], a[piv] = a[piv], a[col]
                inv[col], inv[piv] = inv[piv], inv[col]
            scale = self.inverse(a[col][col])
            if scale != 1:
                a[col] = [self.mul(scale, x) for x in a[col]]
                inv[col] = [self.mul(scale, x) for x in inv[col]]
            for r in range(n):
                if r == col or not a[r][col]:
                    continue
                f = a[r][col]
                a[r] = [x ^ self.mul(f, y) for x, y in zip(a[r], a[col])]
                inv[r] = [x ^ self.mul(f, y) for x, y in zip(inv[r], inv[col])]
        return np.array(inv, dtype=self.word_dtype)

    def identity(self, n: int) -> np.ndarray:
        return np.eye(n, dtype=self.word_dtype)


_FIELD_CACHE: dict[int, Field] = {}


def field_init(w: int = 8) -> Field:
    """Construct (or fetch the cached) GF(2^w) over ``DEFAULT_POLY[w]``."""
    fld = _FIELD_CACHE.get(w)
    if fld is None:
        fld = _FIELD_CACHE[w] = Field(w)
    return fld
