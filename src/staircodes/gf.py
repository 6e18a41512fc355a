"""GF(2^w) arithmetic and the bulk region kernel everything else reduces to.

Field elements are integers whose bits are the coefficients of a binary
polynomial; arithmetic is modulo an irreducible polynomial of degree w.
Symbol regions are contiguous ``numpy.uint8`` buffers whose length is a
multiple of the element width.  The coding layers only ever need two
primitives from here: "multiply regions by constants and XOR the products
together" (:func:`Field.matmul_regions`, of which :func:`Field.mult_xor` is
the 1x1 case) and small dense matrix algebra over the field.  Multi-byte
elements are interpreted little-endian.

Every width computes a product one way, from split tables; an inverse one
way, by the extended Euclidean algorithm; and a matrix inverse by row
elimination on the region kernel.
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
    At w=8 the tables of all 256 constants are one product table.  Scalar
    products (:meth:`mul`) and region products use these tables alike;
    :meth:`inverse` is Euclid's algorithm, and :meth:`mat_inv` eliminates
    whole rows through :meth:`mat_mul`.

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
        self._mul_table = self._split_tables(np.arange(256))[:, 0] if w == 8 else None

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
        """a * b: the XOR of b's byte lanes looked up in a's split tables."""
        res = 0
        for lane, table in enumerate(self._const_table(a)):
            res ^= int(table[(b >> 8 * lane) & 0xFF])
        return res

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

    # -- region kernels -----------------------------------------------------

    def check_region(self, buf: np.ndarray) -> None:
        if buf.dtype != np.uint8 or buf.ndim != 1:
            raise ValueError("symbol regions must be 1-D uint8 arrays")
        if buf.size % self.word_bytes:
            raise ValueError(
                f"region length {buf.size} is not a multiple of the element width {self.word_bytes}")

    # Serves every width (``mul``, and the kernel's rows for w > 8).  Bounded
    # and shared by every field: a table is 256 B at w=8, 2 KiB at w=16 and
    # 4 KiB at w=32; standard encoding of n=16, r=16, m=2, e=(1,1,2,4) uses
    # 2,180 constants.
    @lru_cache(maxsize=4096)
    def _const_table(self, a: int) -> np.ndarray:
        """Split tables of one constant: (w/8, 256) words."""
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


_FIELD_CACHE: dict[int, Field] = {}


def field_init(w: int = 8) -> Field:
    """Construct (or fetch the cached) GF(2^w) over ``DEFAULT_POLY[w]``."""
    fld = _FIELD_CACHE.get(w)
    if fld is None:
        fld = _FIELD_CACHE[w] = Field(w)
    return fld
