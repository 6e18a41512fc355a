"""GF(2^w) arithmetic and the bulk region kernel everything else reduces to.

Field elements are integers whose bits are the coefficients of a binary
polynomial; arithmetic is modulo an irreducible polynomial of degree w.
Symbol regions are contiguous ``numpy.uint8`` buffers whose length is a
multiple of the element width.  The coding layers only ever need two
primitives from here: "multiply regions by constants and XOR the products
together" (:func:`Field.matmul_regions`, of which :func:`Field.mult_xor` is
the 1x1 case) and small dense matrix algebra over the field.  Multi-byte
elements are interpreted little-endian.
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

#: Bytes of working set that one block of bulk work may span: the kernel's
#: index and product arrays per block of byte planes, and the stripes that
#: one batched decode gathers.
BLOCK_BYTES = 1 << 22


# cached: every kernel call needs one, and building it costs a call on
# 2-byte symbols about a tenth of its time
@lru_cache(maxsize=256)
def _plane_offsets(planes: int) -> np.ndarray:
    """(planes, 1) start of each byte plane's 256-entry table in a table row."""
    return np.arange(0, planes * 256, 256)[:, None]


# ---------------------------------------------------------------------------
# the field
# ---------------------------------------------------------------------------

class Field:
    """GF(2^w) for w in {8, 16, 32}, with one split-table region kernel.

    A w-bit word is w/8 byte lanes, and a constant ``a`` has one 256-entry
    table per lane, T[k][b] = a * (b << 8k), so a product is the XOR of
    w/8 lookups (the SPLIT tables of Plank, Greenan and Miller, FAST 2013).
    At w=8 the tables of all 256 constants are one product table.

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
            self._mul_table = self._split_tables(np.arange(256))[:, 0]
            inv = np.zeros(256, dtype=np.uint8)
            rows, cols = np.nonzero(self._mul_table == 1)
            inv[rows] = cols
            self._inv_table = inv
        else:
            self._mul_table = None
            self._inv_table = None

    def __repr__(self) -> str:  # pragma: no cover
        return f"Field(w={self.w}, poly=0x{self.poly:X})"

    def _split_tables(self, consts) -> np.ndarray:
        """(N, w/8, 256) split tables of N constants: each constant's w
        doublings a * x^i, XORed for each set bit of the lane's byte."""
        x = np.asarray(consts, dtype=self.word_dtype)
        low_poly = self.poly & (self.order - 1)
        doublings = []
        for _ in range(self.w):
            doublings.append(x)
            x = (x << 1) ^ ((x >> (self.w - 1)) * low_poly)
        lane_bits = np.stack(doublings, axis=-1).reshape(len(x), self.word_bytes, 8, 1)
        tbl = np.zeros((len(x), self.word_bytes, 1), dtype=self.word_dtype)
        for bit in range(8):     # entries b < 2^bit are done; add those with this bit set
            tbl = np.concatenate([tbl, tbl ^ lane_bits[:, :, bit]], axis=2)
        return tbl

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

    # Bounded and shared by every field: a table is 2 KiB at w=16 and 4 KiB
    # at w=32; standard encoding of n=16, r=16, m=2, e=(1,1,2,4) uses 2,180
    # constants.
    @lru_cache(maxsize=4096)
    def _const_table(self, a: int) -> np.ndarray:
        """Split tables of one constant for w > 8: (w/8, 256) words."""
        return self._split_tables([a])[0]

    def _table_rows(self, coef: np.ndarray) -> np.ndarray:
        """(O, K) coefficients -> (O, K * w/8 * 256) split tables, row-major."""
        if self.w == 8:
            tables = self._mul_table.take(coef, 0)
        else:
            tables = np.stack([self._const_table(int(a)) for a in coef.flat])
        return tables.reshape(len(coef), -1)

    def mult_xor(self, dst: np.ndarray, src: np.ndarray, a: int) -> np.ndarray:
        """dst ^= a * src, elementwise over the field.  Returns dst."""
        self.check_region(dst)
        self.check_region(src)
        if dst.size != src.size:
            raise ValueError(f"region length mismatch: dst={dst.size} src={src.size}")
        dst ^= self.matmul_regions([[a]], src[None])[0]
        return dst

    def matmul_regions(self, coef: np.ndarray, regions: np.ndarray) -> np.ndarray:
        """Apply an (O, K) coefficient matrix to K stacked regions.

        ``regions`` is (K, S) uint8; returns (O, S) with
        out[o] = XOR_k coef[o, k] * regions[k].  The K regions are read as
        K * w/8 byte planes, and plane p looks its bytes up in the p-th
        256-entry table of every output's table row.
        """
        coef = np.asarray(coef)
        out_n, k_n = coef.shape
        lanes, s = self.word_bytes, regions.shape[-1]
        if coef.size == 0 or s == 0:
            return np.zeros((out_n, s), dtype=np.uint8)
        rows = self._table_rows(coef)
        planes = regions.reshape(k_n, -1, lanes).transpose(0, 2, 1).reshape(k_n * lanes, -1)
        offsets = _plane_offsets(len(planes))
        # block the planes so that the intp index and the product stay within BLOCK_BYTES
        pb = (BLOCK_BYTES // (max(out_n, 8) * s * lanes) or 1) * lanes
        for p in range(0, len(planes), pb):
            part = np.bitwise_xor.reduce(rows.take(planes[p:p + pb] + offsets[p:p + pb], 1), 1)
            if p:
                out ^= part
            else:
                out = part
        return out.view(np.uint8)

    # -- small dense matrices over the field ---------------------------------

    def mat_mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        b = np.ascontiguousarray(b, dtype=self.word_dtype)
        return self.matmul_regions(a, b.view(np.uint8)).view(self.word_dtype)

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
