import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from staircodes.gf import DEFAULT_POLY, Field, field_init
from oracles import gauss_jordan_inverse, is_irreducible, peasant_mul, split_table_matmul


def test_default_polynomials_are_irreducible():
    for w, poly in DEFAULT_POLY.items():
        assert is_irreducible(poly, w)
    # the oracle itself: x^8, and x^8 + x^4 + x^3 + x^2 (divisible by x)
    assert not is_irreducible(0x100, 8)
    assert not is_irreducible(0x11C, 8)


def test_field_init_identity():
    fld = field_init(8)
    for x in (1, 2, 73, 255):
        assert fld.mul(1, x) == x
        assert fld.mul(0, x) == 0


def test_unsupported_width_rejected():
    with pytest.raises(ValueError):
        Field(12)


def test_known_product():
    assert field_init(8).mul(2, 0x80) == 0x1D


def _w8_product_table() -> np.ndarray:
    """(256, 256) products a * b at w=8, from one kernel call: every
    constant applied to a region that holds every byte."""
    return field_init(8).matmul_regions(np.arange(256).reshape(256, 1),
                                        np.arange(256, dtype=np.uint8)[None])


def test_w8_table_matches_bitwise_oracle_exhaustively():
    table = _w8_product_table()
    for a in range(256):
        for b in range(256):
            assert table[a, b] == peasant_mul(a, b, 0x11D, 8), (a, b)


def test_mul_matches_product_table_exhaustively():
    fld = field_init(8)
    assert [[fld.mul(a, b) for b in range(256)] for a in range(256)] == _w8_product_table().tolist()


@pytest.mark.parametrize("w", [8, 16])
def test_every_inverse_exhaustively(w):
    fld = field_init(w)
    assert all(fld.mul(a, fld.inverse(a)) == 1 for a in range(1, fld.order))


@given(st.integers(1, 255))
def test_inverse_property(a):
    fld = field_init(8)
    assert fld.mul(a, fld.inverse(a)) == 1


@given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
def test_mul_distributes_over_xor(a, b, c):
    fld = field_init(8)
    assert fld.mul(a, b ^ c) == fld.mul(a, b) ^ fld.mul(a, c)


@given(st.integers(0, 255), st.integers(0, 255))
def test_mul_commutes(a, b):
    fld = field_init(8)
    assert fld.mul(a, b) == fld.mul(b, a)


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        field_init(8).inverse(0)
    with pytest.raises(ZeroDivisionError):      # not an element of GF(2^8)
        field_init(8).inverse(256)


@pytest.mark.parametrize("w", [16, 32])
def test_wide_fields_spot_checks(w, rng):
    fld = field_init(w)
    for _ in range(200):
        a = int(rng.integers(1, fld.order))
        b = int(rng.integers(0, fld.order))
        c = int(rng.integers(0, fld.order))
        assert fld.mul(a, fld.inverse(a)) == 1
        assert fld.mul(a, b ^ c) == fld.mul(a, b) ^ fld.mul(a, c)
        assert fld.mul(a, b) == peasant_mul(a, b, fld.poly, w)


# -- region kernels ---------------------------------------------------------
#
# A region multiply-XOR, dst ^= a * src, is a 1x1 matmul_regions XORed into dst.

def _mult_xor(fld, dst, src, a):
    dst ^= fld.matmul_regions([[a]], src[None])[0]


def test_mult_xor_identity_and_zero(rng):
    fld = field_init(8)
    src = rng.integers(0, 256, 64, dtype=np.uint8)
    dst = np.zeros(64, dtype=np.uint8)
    _mult_xor(fld, dst, src, 1)
    assert np.array_equal(dst, src)
    before = dst.copy()
    _mult_xor(fld, dst, src, 0)
    assert np.array_equal(dst, before)


def test_mult_xor_matches_scalar_loop(rng):
    fld = field_init(8)
    src = rng.integers(0, 256, 4096, dtype=np.uint8)
    dst = rng.integers(0, 256, 4096, dtype=np.uint8)
    expect = dst.copy()
    a = 0x53
    for k in range(4096):
        expect[k] ^= peasant_mul(a, int(src[k]))
    _mult_xor(fld, dst, src, a)
    assert np.array_equal(dst, expect)


@given(st.integers(0, 255), st.integers(1, 64))
@settings(max_examples=30)
def test_mult_xor_is_an_involution(a, size):
    fld = field_init(8)
    gen = np.random.default_rng(size)
    src = gen.integers(0, 256, size, dtype=np.uint8)
    dst = gen.integers(0, 256, size, dtype=np.uint8)
    orig = dst.copy()
    _mult_xor(fld, dst, src, a)
    _mult_xor(fld, dst, src, a)
    assert np.array_equal(dst, orig)


def test_mult_xor_length_mismatch_raises():
    # regions that do not fit the coefficient matrix never reach the kernel
    fld = field_init(8)
    with pytest.raises(ValueError):      # two regions for one coefficient column
        fld.matmul_regions([[3]], np.zeros((2, 4), np.uint8))
    with pytest.raises(ValueError):      # one region, but not stacked
        fld.matmul_regions([[3]], np.zeros(4, np.uint8))
    with pytest.raises(ValueError):      # not bytes
        fld.matmul_regions([[3]], np.zeros((1, 4), np.uint16))


@pytest.mark.parametrize("w", [16, 32])
def test_wide_region_ops_match_scalar(w, rng):
    fld = field_init(w)
    nb = w // 8
    src = rng.integers(0, 256, 16 * nb, dtype=np.uint8)
    dst = rng.integers(0, 256, 16 * nb, dtype=np.uint8)
    a = int(rng.integers(2, fld.order))
    expect = dst.copy()
    ew, sw = expect.view(fld.word_dtype), src.view(fld.word_dtype)
    for k in range(16):
        ew[k] ^= fld.mul(a, int(sw[k]))
    _mult_xor(fld, dst, src, a)
    assert np.array_equal(dst, expect)
    with pytest.raises(ValueError):
        _mult_xor(fld, np.zeros(nb + 1, np.uint8), np.zeros(nb + 1, np.uint8), a)


@pytest.mark.parametrize("w", [8, 16, 32])
@given(coef=arrays(np.uint32, st.tuples(st.integers(1, 5), st.integers(1, 5)),
                   elements=st.sampled_from((0, 1)) | st.integers(0, 2 ** 32 - 1)),
       vectors=st.integers(0, 3), tail=st.integers(0, 31), seed=st.integers(0, 2 ** 32 - 1),
       strided=st.booleans())
@example(coef=np.array([[0, 1, 0x9E3779B9], [1, 0, 0xFFFFFFFF]], np.uint32),
         vectors=1, tail=31, seed=0, strided=True)
@example(coef=np.array([[0x9E3779B9]], np.uint32), vectors=2, tail=1, seed=1, strided=False)
@example(coef=np.array([[1, 0, 7, 1]], np.uint32), vectors=0, tail=5, seed=2, strided=False)
@example(coef=np.array([[0], [1], [7], [1], [3]], np.uint32), vectors=3, tail=0, seed=3,
         strided=True)
@settings(max_examples=40, deadline=None)
def test_matmul_regions_matches_peasant_mul(w, coef, vectors, tail, seed, strided):
    # each byte plane (one byte lane of every word) is `vectors` whole 32-byte
    # vectors of the kernel plus a tail of 0-31 bytes for its scalar loop
    fld = field_init(w)
    coef = coef & (fld.order - 1)
    out_n, k_n = coef.shape
    words = 32 * vectors + tail
    gen = np.random.default_rng(seed)
    size = words * fld.word_bytes
    if strided:     # every other byte of a buffer twice as long
        regions = gen.integers(0, 256, (k_n, 2 * size), dtype=np.uint8)[:, ::2]
        assert size < 2 or not regions.flags.c_contiguous
    else:
        regions = gen.integers(0, 256, (k_n, size), dtype=np.uint8)
    out = fld.matmul_regions(coef, regions)
    src = np.ascontiguousarray(regions).view(fld.word_dtype)
    expect = np.zeros((out_n, words), dtype=fld.word_dtype)
    for o in range(out_n):
        for k in range(k_n):
            expect[o] ^= np.array([peasant_mul(int(coef[o, k]), int(x), fld.poly, w)
                                   for x in src[k]], dtype=fld.word_dtype)
    assert np.array_equal(out, expect.view(np.uint8))


@pytest.mark.parametrize("w", [8, 16, 32])
def test_matmul_regions_matches_split_table_reference(w, rng):
    # long regions of many 32-byte vectors, and a 17-byte tail per plane
    fld = field_init(w)
    coef = rng.integers(0, fld.order, (3, 5), dtype=np.uint64).astype(fld.word_dtype)
    coef[0, :2] = (0, 1)
    regions = rng.integers(0, 256, (5, ((128 << 10) + 17) * fld.word_bytes), dtype=np.uint8)
    assert np.array_equal(fld.matmul_regions(coef, regions),
                          split_table_matmul(coef, regions, fld.poly, w))


# -- matrix algebra -----------------------------------------------------------

@pytest.mark.parametrize("w", [8, 16, 32])
def test_nibble_tables_match_peasant_mul(w, rng):
    # entry x of lane i is a * (x << 8i), entry 16 + x is a * (x << 8i + 4)
    fld = field_init(w)
    consts = [0, 1, 2, fld.order - 1] + rng.integers(0, fld.order, 20, dtype=np.uint64).tolist()
    tables = fld._nibble_tables(consts)
    assert tables.shape == (len(consts), fld.word_bytes, 32) and tables.dtype == fld.word_dtype
    for a, lanes in zip(consts, tables.tolist()):
        assert lanes == [[peasant_mul(a, x << shift, fld.poly, w)
                          for shift in (8 * i, 8 * i + 4) for x in range(16)]
                         for i in range(fld.word_bytes)], a


def test_w8_precomputed_tables_are_the_builders():
    fld = field_init(8)
    assert np.array_equal(fld._tables8, fld._nibble_tables(np.arange(256)))


def test_maps_cache_is_bounded():
    # every product, scalar ones too, goes through the one cache of nibble maps
    cap = Field._maps.cache_info().maxsize
    fld = field_init(16)
    for a in range(2, cap + 14):
        fld.mul(a, 3)
    assert Field._maps.cache_info().currsize == cap
    assert [fld.mul(7, b << 8) for b in range(256)] == [peasant_mul(7, b << 8, fld.poly, 16)
                                                       for b in range(256)]


def test_mat_inv_identity():
    fld = field_init(8)
    eye = np.eye(4, dtype=fld.word_dtype)
    assert np.array_equal(fld.mat_inv(eye), eye)


def test_mat_inv_1x1():
    fld = field_init(8)
    inv = fld.mat_inv(np.array([[7]], dtype=np.uint8))
    assert inv[0, 0] == fld.inverse(7)


@pytest.mark.parametrize("w", [8, 16, 32])
def test_mat_inv_cauchy_multiply_back(w):
    fld = field_init(w)
    xs = [0, 1, 2, 3]
    ys = [4, 5, 6, 7]
    cauchy = np.array([[fld.inverse(x ^ y) for y in ys] for x in xs], dtype=fld.word_dtype)
    inv = fld.mat_inv(cauchy)
    assert np.array_equal(fld.mat_mul(cauchy, inv), np.eye(4, dtype=fld.word_dtype))


def test_mat_inv_singular_raises():
    fld = field_init(8)
    with pytest.raises(ValueError):
        fld.mat_inv(np.array([[1, 1], [1, 1]], dtype=np.uint8))


@pytest.mark.parametrize("w", [8, 16, 32])
@given(m=arrays(np.uint32, st.integers(1, 6).map(lambda n: (n, n)),
                elements=st.sampled_from((0, 1)) | st.integers(0, 2 ** 32 - 1)))
@example(m=np.array([[0, 1], [1, 0]], np.uint32))                   # swaps every pivot
@example(m=np.array([[0, 3, 1], [0, 5, 7], [2, 0, 9]], np.uint32))  # pivot from the last row
@example(m=np.array([[1, 2, 3], [0, 0, 4], [0, 0, 5]], np.uint32))  # singular past a pivot
@settings(max_examples=40, deadline=None)
def test_mat_inv_matches_gauss_jordan_oracle(w, m):
    fld = field_init(w)
    m = (m & (fld.order - 1)).astype(fld.word_dtype)
    try:
        expect = gauss_jordan_inverse(m.tolist(), fld.poly, w)
    except ValueError:
        with pytest.raises(ValueError):
            fld.mat_inv(m)
        return
    inv = fld.mat_inv(m)
    assert inv.dtype == fld.word_dtype
    assert inv.tolist() == expect
