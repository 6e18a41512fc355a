import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import staircodes as sc
from staircodes.mds import check_codeword
from staircodes.stair import _codec, parity_mask, signature
from conftest import sweep_configs

# Reference step schedule of the bottom-up encoder for the worked example
# (n=8, r=4, m=2, e=(1,1,2)), in augmented-grid coordinates: extend the
# three untouched data chunks, decode extension row 4, resolve the two
# single-cell stair columns, decode extension row 5, resolve the deep stair
# column, then rebuild the two parity chunks row by row.
REFERENCE_UPSTAIRS = [
    ("col", ((0, 0), (1, 0), (2, 0), (3, 0)), ((4, 0), (5, 0))),
    ("col", ((0, 1), (1, 1), (2, 1), (3, 1)), ((4, 1), (5, 1))),
    ("col", ((0, 2), (1, 2), (2, 2), (3, 2)), ((4, 2), (5, 2))),
    ("row", ((4, 0), (4, 1), (4, 2), (4, 8), (4, 9), (4, 10)), ((4, 3), (4, 4), (4, 5))),
    ("col", ((0, 3), (1, 3), (2, 3), (4, 3)), ((3, 3), (5, 3))),
    ("col", ((0, 4), (1, 4), (2, 4), (4, 4)), ((3, 4), (5, 4))),
    ("row", ((5, 0), (5, 1), (5, 2), (5, 3), (5, 4), (5, 10)), ((5, 5),)),
    ("col", ((0, 5), (1, 5), (4, 5), (5, 5)), ((2, 5), (3, 5))),
    ("row", ((0, 0), (0, 1), (0, 2), (0, 3), (0, 4), (0, 5)), ((0, 6), (0, 7))),
    ("row", ((1, 0), (1, 1), (1, 2), (1, 3), (1, 4), (1, 5)), ((1, 6), (1, 7))),
    ("row", ((2, 0), (2, 1), (2, 2), (2, 3), (2, 4), (2, 5)), ((2, 6), (2, 7))),
    ("row", ((3, 0), (3, 1), (3, 2), (3, 3), (3, 4), (3, 5)), ((3, 6), (3, 7))),
]

# Reference schedule of the top-down encoder for the same example: two
# plain rows, then alternate rightmost-column extensions with rows.
REFERENCE_DOWNSTAIRS = [
    ("row", ((0, 0), (0, 1), (0, 2), (0, 3), (0, 4), (0, 5)),
     ((0, 6), (0, 7), (0, 8), (0, 9), (0, 10))),
    ("row", ((1, 0), (1, 1), (1, 2), (1, 3), (1, 4), (1, 5)),
     ((1, 6), (1, 7), (1, 8), (1, 9), (1, 10))),
    ("col", ((0, 10), (1, 10), (4, 10), (5, 10)), ((2, 10), (3, 10))),
    ("row", ((2, 0), (2, 1), (2, 2), (2, 3), (2, 4), (2, 10)),
     ((2, 5), (2, 6), (2, 7), (2, 8), (2, 9))),
    ("col", ((0, 9), (1, 9), (2, 9), (4, 9)), ((3, 9),)),
    ("col", ((0, 8), (1, 8), (2, 8), (4, 8)), ((3, 8),)),
    ("row", ((3, 0), (3, 1), (3, 2), (3, 8), (3, 9), (3, 10)),
     ((3, 3), (3, 4), (3, 5), (3, 6), (3, 7))),
]


# Reference schedule of the augmented-grid extension (``build_canonical``)
# for the same example: each stored row extends into the three virtual
# columns, then every grid column extends into the two extension rows.
REFERENCE_EXTENSION = [
    ("row", ((0, 0), (0, 1), (0, 2), (0, 3), (0, 4), (0, 5)), ((0, 8), (0, 9), (0, 10))),
    ("row", ((1, 0), (1, 1), (1, 2), (1, 3), (1, 4), (1, 5)), ((1, 8), (1, 9), (1, 10))),
    ("row", ((2, 0), (2, 1), (2, 2), (2, 3), (2, 4), (2, 5)), ((2, 8), (2, 9), (2, 10))),
    ("row", ((3, 0), (3, 1), (3, 2), (3, 3), (3, 4), (3, 5)), ((3, 8), (3, 9), (3, 10))),
    ("col", ((0, 0), (1, 0), (2, 0), (3, 0)), ((4, 0), (5, 0))),
    ("col", ((0, 1), (1, 1), (2, 1), (3, 1)), ((4, 1), (5, 1))),
    ("col", ((0, 2), (1, 2), (2, 2), (3, 2)), ((4, 2), (5, 2))),
    ("col", ((0, 3), (1, 3), (2, 3), (3, 3)), ((4, 3), (5, 3))),
    ("col", ((0, 4), (1, 4), (2, 4), (3, 4)), ((4, 4), (5, 4))),
    ("col", ((0, 5), (1, 5), (2, 5), (3, 5)), ((4, 5), (5, 5))),
    ("col", ((0, 6), (1, 6), (2, 6), (3, 6)), ((4, 6), (5, 6))),
    ("col", ((0, 7), (1, 7), (2, 7), (3, 7)), ((4, 7), (5, 7))),
    ("col", ((0, 8), (1, 8), (2, 8), (3, 8)), ((4, 8), (5, 8))),
    ("col", ((0, 9), (1, 9), (2, 9), (3, 9)), ((4, 9), (5, 9))),
    ("col", ((0, 10), (1, 10), (2, 10), (3, 10)), ((4, 10), (5, 10))),
]


def test_upstairs_schedule_matches_reference(exemplar):
    plan = sc.encoding_steps(exemplar, "upstairs")
    assert [signature(exemplar, i, s) for i, s in zip(*plan)] == REFERENCE_UPSTAIRS


def test_downstairs_schedule_matches_reference(exemplar):
    plan = sc.encoding_steps(exemplar, "downstairs")
    assert [signature(exemplar, i, s) for i, s in zip(*plan)] == REFERENCE_DOWNSTAIRS


def test_extension_schedule_matches_reference(exemplar):
    plan = _codec(exemplar).extension_plan
    assert [signature(exemplar, i, s) for i, s in zip(*plan)] == REFERENCE_EXTENSION


def test_all_zero_data_encodes_to_all_zero(exemplar):
    for method in ("standard", "upstairs", "downstairs"):
        stripe = np.zeros((exemplar.r, exemplar.n, 16), dtype=np.uint8)
        sc.encode(exemplar, stripe, method)
        assert not stripe.any()


def test_encoders_agree_across_sweep(rng):
    for cfg in sweep_configs():
        stripe = sc.random_stripe(cfg, 8, rng)
        up, down, std = stripe.copy(), stripe.copy(), stripe.copy()
        sc.encode(cfg, up, "upstairs")
        sc.encode(cfg, down, "downstairs")
        sc.encode(cfg, std, "standard")
        assert np.array_equal(up, down), cfg
        assert np.array_equal(up, std), cfg


def test_encoding_preserves_data_cells(exemplar, rng):
    stripe = sc.random_stripe(exemplar, 8, rng)
    mask = parity_mask(exemplar)
    before = stripe[~mask].copy()
    sc.encode(exemplar, stripe, "upstairs")
    assert np.array_equal(stripe[~mask], before)


@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 24))
@settings(max_examples=50, deadline=None)
def test_encoder_equivalence_randomised(seed, pick):
    cfg = sweep_configs()[pick % len(sweep_configs())]
    gen = np.random.default_rng(seed)
    stripe = sc.random_stripe(cfg, 4, gen)
    up, down = stripe.copy(), stripe.copy()
    sc.encode(cfg, up, "upstairs")
    sc.encode(cfg, down, "downstairs")
    assert np.array_equal(up, down)


# -- augmented grid -------------------------------------------------------------

def test_canonical_shape_for_exemplar(exemplar, rng):
    stripe = sc.encode(exemplar, sc.random_stripe(exemplar, 8, rng))
    canon = sc.build_canonical(exemplar, stripe)
    assert canon.shape == (6, 11, 8)


def test_canonical_of_zero_stripe_is_zero(exemplar):
    canon = sc.build_canonical(exemplar, np.zeros((exemplar.r, exemplar.n, 8), dtype=np.uint8))
    assert not canon.any()


def test_canonical_rows_and_columns_are_codewords(rng):
    for cfg in sweep_configs():
        stripe = sc.encode(cfg, sc.random_stripe(cfg, 4, rng))
        canon = sc.build_canonical(cfg, stripe)
        codec = _codec(cfg)
        for i in range(canon.shape[0]):
            assert check_codeword(codec.row_code, canon[i]), (cfg, i)
        if cfg.m_prime:
            for c in range(canon.shape[1]):
                assert check_codeword(codec.col_code, canon[:, c]), (cfg, c)


def test_canonical_outside_global_cells_are_zero(rng):
    for cfg in sweep_configs():
        if not cfg.m_prime:
            continue
        stripe = sc.encode(cfg, sc.random_stripe(cfg, 4, rng))
        canon = sc.build_canonical(cfg, stripe)
        for l, e_l in enumerate(cfg.e):
            assert not canon[cfg.r:cfg.r + e_l, cfg.n + l].any(), (cfg, l)


def test_method_dispatch(exemplar, rng):
    stripe = sc.random_stripe(exemplar, 8, rng)
    auto = sc.encode(exemplar, stripe.copy(), "auto")
    named = sc.encode(exemplar, stripe.copy(), sc.choose_method(exemplar))
    assert np.array_equal(auto, named)
    with pytest.raises(ValueError):
        sc.encode(exemplar, stripe.copy(), "sideways")


def test_stripe_shape_checked(exemplar):
    other = sc.config_new(6, 3, 1, (1, 2))
    stripe = np.zeros((other.r, other.n, 8), dtype=np.uint8)
    with pytest.raises(ValueError):
        sc.encode(exemplar, stripe, "upstairs")


def test_symbol_size_must_fit_field(rng):
    cfg = sc.config_new(6, 3, 1, (1, 2), w=16)
    with pytest.raises(ValueError):
        sc.random_stripe(cfg, 7, rng)
    # a symbol is a positive number of field words, and cells are 3-D uint8
    for cells in (np.zeros((3, 6, 7), dtype=np.uint8), np.zeros((3, 6, 0), dtype=np.uint8),
                  np.zeros((3, 6, 8)), np.zeros((3, 6), dtype=np.uint8)):
        with pytest.raises(ValueError):
            sc.encode(cfg, cells, "upstairs")


@pytest.mark.parametrize("w", [16, 32])
def test_wide_field_codec_end_to_end(w, rng):
    from staircodes import sim
    cfg = sc.config_new(6, 4, 1, (1, 2), w=w)
    stripe = sc.random_stripe(cfg, 2 * (w // 8), rng)
    up, down, std = stripe.copy(), stripe.copy(), stripe.copy()
    sc.encode(cfg, up, "upstairs")
    sc.encode(cfg, down, "downstairs")
    sc.encode(cfg, std, "standard")
    assert np.array_equal(up, down)
    assert np.array_equal(up, std)
    pattern = sc.worst_case_pattern(cfg)
    restored = sc.decode(cfg, sim.inject(cfg, up, pattern), pattern)
    assert np.array_equal(restored, up)
    canon = sc.build_canonical(cfg, up)
    codec = _codec(cfg)
    assert all(check_codeword(codec.row_code, canon[i])
               for i in range(canon.shape[0]))
