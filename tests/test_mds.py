import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from staircodes.gf import field_init
from staircodes.mds import GenMatrix, check_codeword
from oracles import matvec_parity


@pytest.fixture(scope="module")
def field():
    return field_init(8)


def encode(gen, data):
    """Parity regions of (kappa, S) data regions."""
    t = gen.decode_matrix(tuple(range(gen.kappa)), tuple(range(gen.kappa, gen.eta)))
    return gen.field.matmul_regions(t, data)


def codeword(gen, rng, size=8):
    data = rng.integers(0, 256, (gen.kappa, size), dtype=np.uint8)
    return np.concatenate([data, encode(gen, data)], axis=0)


def assert_survivors_rebuild(gen, word, survivors):
    """Any kappa survivors rebuild every other position of the codeword."""
    survivors = tuple(survivors)
    lost = tuple(p for p in range(gen.eta) if p not in survivors)
    rebuilt = gen.field.matmul_regions(gen.decode_matrix(survivors, lost),
                                       word[list(survivors)])
    assert np.array_equal(rebuilt, word[list(lost)]), survivors


def test_shape_validation(field):
    with pytest.raises(ValueError):
        GenMatrix(field, 4, 4)       # kappa == eta
    with pytest.raises(ValueError):
        GenMatrix(field, 6, 5)       # kappa > eta
    with pytest.raises(ValueError):
        GenMatrix(field, 100, 300)   # eta > 2^w


def test_generator_is_systematic_and_deterministic(field):
    a = GenMatrix(field, 6, 11)
    b = GenMatrix(field, 6, 11)
    assert np.array_equal(a.parity_block, b.parity_block)
    assert a.parity_block.shape == (6, 5)
    # the first kappa positions of a codeword are its data
    assert np.array_equal(a.decode_matrix(tuple(range(6)), tuple(range(6))),
                          np.eye(6, dtype=field.word_dtype))


def test_mds_property_exhaustive_4_6(field, rng):
    gen = GenMatrix(field, 4, 6)
    word = codeword(gen, rng)
    for cols in itertools.combinations(range(6), 4):
        assert_survivors_rebuild(gen, word, cols)


def test_mds_property_exhaustive_4_7(field, rng):
    gen = GenMatrix(field, 4, 7)
    word = codeword(gen, rng)
    for cols in itertools.combinations(range(7), 4):
        assert_survivors_rebuild(gen, word, cols)


def test_mds_property_sampled_6_11(field, rng):
    gen = GenMatrix(field, 6, 11)
    word = codeword(gen, rng)
    for _ in range(60):
        assert_survivors_rebuild(gen, word, sorted(rng.choice(11, size=6, replace=False)))


def test_encode_zero_data_gives_zero_parity(field):
    gen = GenMatrix(field, 4, 7)
    parity = encode(gen, np.zeros((4, 16), dtype=np.uint8))
    assert not parity.any()


def test_encode_unit_vector_scales_parity_row(field):
    gen = GenMatrix(field, 4, 7)
    delta = 0x39
    data = np.zeros((4, 8), dtype=np.uint8)
    data[2, :] = delta
    parity = encode(gen, data)
    for i in range(3):
        expect = field.mul(delta, int(gen.parity_block[2, i]))
        assert (parity[i] == expect).all()


def test_encode_matches_naive_matvec(field, rng):
    gen = GenMatrix(field, 6, 11)
    data = rng.integers(0, 256, (6, 32), dtype=np.uint8)
    parity = encode(gen, data)
    for byte in range(32):
        expect = matvec_parity([int(x) for x in data[:, byte]],
                               gen.parity_block, field.mul)
        assert [int(p[byte]) for p in parity] == expect


def test_decode_reencodes_parity(field, rng):
    gen = GenMatrix(field, 4, 6)
    word = codeword(gen, rng)
    restored = field.matmul_regions(gen.decode_matrix((0, 1, 2, 3), (4, 5)), word[:4])
    assert np.array_equal(restored, word[4:])


def test_decode_exhaustive_erasure_sweep(field, rng):
    gen = GenMatrix(field, 4, 6)
    word = codeword(gen, rng)
    for k in (1, 2):
        for gone in itertools.combinations(range(6), k):
            present = [p for p in range(6) if p not in gone]
            survivors = tuple(present[:4])
            restored = field.matmul_regions(gen.decode_matrix(survivors, gone),
                                            word[list(survivors)])
            assert np.array_equal(restored, word[list(gone)]), gone


def test_check_codeword(field, rng):
    gen = GenMatrix(field, 4, 6)
    word = codeword(gen, rng)
    assert check_codeword(gen, word)
    word[5, 3] ^= 1
    assert not check_codeword(gen, word)


@pytest.mark.parametrize("w", [8, 16, 32])
def test_systematic_decode_matrix_is_the_parity_block(w):
    # so check_codeword applies the parity block without inverting I
    gen = GenMatrix(field_init(w), 5, 9)
    t = gen.decode_matrix(tuple(range(5)), tuple(range(5, 9)))
    assert t.dtype == gen.parity_block.dtype and np.array_equal(t, gen.parity_block.T)


@given(st.integers(0, 2 ** 32 - 1), st.sets(st.integers(0, 6), max_size=3))
@settings(max_examples=40, deadline=None)
def test_roundtrip_random_erasures(seed, gone):
    gen = GenMatrix(field_init(8), 4, 7)
    word = codeword(gen, np.random.default_rng(seed), size=4)
    survivors = [p for p in range(7) if p not in gone][:4]
    assert_survivors_rebuild(gen, word, survivors)


def test_decode_matrix_requires_kappa_survivors(field):
    gen = GenMatrix(field, 4, 6)
    with pytest.raises(ValueError):
        gen.decode_matrix((0, 1, 2), (5,))
