import numpy as np
import pytest

import staircodes as sc
from staircodes.stair import METHODS, data_cells, parity_mask
from conftest import sweep_configs


def perturbation_dependents(cfg, cell, rng):
    """Oracle: flip one data cell, re-encode top-down, diff the parities."""
    base = sc.encode(cfg, np.zeros((cfg.r, cfg.n, 2), dtype=np.uint8), "downstairs")
    bumped = np.zeros((cfg.r, cfg.n, 2), dtype=np.uint8)
    delta = int(rng.integers(1, 256))
    bumped[cell][0] = delta
    sc.encode(cfg, bumped, "downstairs")
    mask = parity_mask(cfg)
    changed = np.argwhere((base != bumped).any(axis=2) & mask)
    return frozenset((int(i), int(j)) for i, j in changed)


def test_xor_count_reference_values():
    assert sc.xor_count(sc.config_new(8, 16, 2, (4,)), "upstairs") == 600
    assert sc.xor_count(sc.config_new(8, 16, 2, (4,)), "downstairs") == 352
    assert sc.xor_count(sc.config_new(8, 16, 2, (1, 1, 1, 1)), "upstairs") == 312
    assert sc.xor_count(sc.config_new(8, 16, 2, (1, 1, 1, 1)), "downstairs") == 640


def test_xor_count_no_stair_cells_collapses():
    cfg = sc.config_new(8, 16, 2, ())
    expect = (8 - 2) * 2 * 16
    assert sc.xor_count(cfg, "upstairs") == expect
    assert sc.xor_count(cfg, "downstairs") == expect
    assert sc.xor_count(cfg, "standard") == expect


def test_choose_method():
    assert sc.choose_method(sc.config_new(8, 16, 2, (4,))) == "downstairs"
    assert sc.choose_method(sc.config_new(8, 16, 2, (1, 1, 1, 1))) == "upstairs"
    # all three counts coincide without stair cells; tie goes downstairs
    assert sc.choose_method(sc.config_new(8, 16, 2, ())) == "downstairs"


def test_unknown_method_rejected(exemplar):
    with pytest.raises(ValueError):
        sc.xor_count(exemplar, "diagonal")


def test_plans_execute_xor_count_mult_xors():
    # each step multiplies every input region into every output region
    for cfg in sweep_configs():
        for method in METHODS:
            executed = sum(len(st.outputs) * len(st.inputs)
                           for st in sc.encoding_steps(cfg, method)[1])
            assert executed == sc.xor_count(cfg, method), (cfg, method)


def test_standard_count_equals_dependency_total():
    for cfg in sweep_configs()[:12]:
        total = sum(len(sc.parity_dependents(cfg, cell)) for cell in data_cells(cfg))
        assert sc.xor_count(cfg, "standard") == total, cfg


def test_dependents_rejects_parity_cells(exemplar):
    with pytest.raises(ValueError):
        sc.parity_dependents(exemplar, (3, 3))
    with pytest.raises(ValueError):
        sc.parity_dependents(exemplar, (0, 7))


def test_dependents_no_stair_cells_is_row_parity_only():
    cfg = sc.config_new(8, 4, 2, ())
    deps = sc.parity_dependents(cfg, (0, 0))
    assert deps == frozenset({(0, 6), (0, 7)})


def test_dependents_match_perturbation_oracle_on_exemplar(exemplar, rng):
    for cell in data_cells(exemplar):
        assert sc.parity_dependents(exemplar, cell) == \
            perturbation_dependents(exemplar, cell, rng), cell


def test_dependency_box_bounds(exemplar):
    """A parity cell at (i0, j0) only ever draws on data at i <= i0, j <= j0."""
    for cfg in [exemplar, sc.config_new(6, 3, 1, (1, 2)), sc.config_new(8, 5, 2, (2, 2))]:
        for cell in data_cells(cfg):
            i, j = cell
            for (pi, pj) in sc.parity_dependents(cfg, cell):
                assert pi >= i and pj >= j, (cfg, cell, (pi, pj))


def test_first_row_parity_of_stair_region_draws_on_its_box(exemplar):
    """The (2,6) parity cell draws only on data in rows 0-2, columns 0-5."""
    inside, outside = set(), set()
    for cell in data_cells(exemplar):
        i, j = cell
        if (2, 6) in sc.parity_dependents(exemplar, cell):
            inside.add(cell)
        else:
            outside.add(cell)
    assert inside and all(i <= 2 and j <= 5 for i, j in inside)
    assert {c for c in data_cells(exemplar) if c[0] == 3} <= outside


def test_stair_cells_ignore_same_tread_columns(exemplar):
    """The (3,4) stair cell shares its tread with column 3: no column-3 data
    feeds it, and by symmetry nothing in column 4 feeds the (3,3) cell."""
    for col, other in ((4, 3), (3, 4)):
        row = 3
        for cell in data_cells(exemplar):
            if cell[1] == other:
                assert (row, col) not in sc.parity_dependents(exemplar, cell), cell


def test_row_parity_in_plain_rows_depends_on_its_row_only(exemplar):
    """Rows above the stair region hold ordinary row parities."""
    for cell in data_cells(exemplar):
        deps = sc.parity_dependents(exemplar, cell)
        for (pi, pj) in deps:
            if pi <= 1 and pj >= 6:
                assert pi == cell[0], (cell, (pi, pj))


def test_update_penalty_reference_cases(exemplar, rng):
    assert sc.update_penalty(sc.config_new(8, 4, 2, ())) == 2.0
    assert sc.update_penalty(sc.config_new(12, 16, 3, ())) == 3.0
    # exact agreement with the perturbation oracle on the worked example
    oracle = np.mean([len(perturbation_dependents(exemplar, cell, rng))
                      for cell in data_cells(exemplar)])
    assert sc.update_penalty(exemplar) == pytest.approx(oracle, abs=0)


def test_update_penalty_at_least_m():
    for cfg in sweep_configs():
        if cfg.data_cell_count:
            assert sc.update_penalty(cfg) >= cfg.m, cfg


def test_update_penalty_grows_with_deepest_step():
    shallow = sc.update_penalty(sc.config_new(16, 16, 1, (1, 1, 1, 1)))
    deep = sc.update_penalty(sc.config_new(16, 16, 1, (4,)))
    assert deep >= shallow
