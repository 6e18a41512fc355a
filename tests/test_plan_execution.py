"""The one executor, ``_Codec.run``, against the reference executor of
oracles.py: same grid for every encoding plan and sampled decode plans."""

import numpy as np
import pytest

import staircodes as sc
from staircodes import sim
from staircodes.gf import DEFAULT_POLY
from staircodes.stair import METHODS, Step, _codec, _line_index
from oracles import run_plan_by_fancy_index

# the exemplar, no stair (m' = 0), m = 0, r = 1 and a two-column stair
CONFIGS = [(8, 4, 2, (1, 1, 2)), (4, 2, 1, ()), (6, 4, 0, (2, 2)), (7, 1, 2, (1, 1)),
           (6, 3, 1, (1, 2))]
# byte planes of 128 / (w/8) bytes end on a whole 32-byte block; of 200 / (w/8) they do not
SYMBOL_SIZES = (128, 200)


@pytest.mark.parametrize("positions, want", [
    ((3,), slice(3, 4)),
    ((0, 1, 2, 3), slice(0, 4)),
    ((4, 5, 6), slice(4, 7)),
    ((0, 2), None),
    ((1, 2, 4), None),
    ((5, 4), None),
    ((2, 2), None),
    ((), None),
])
def test_runs_of_positions_become_slices(positions, want):
    index = _line_index(positions)
    if want is not None:
        assert index == want
    else:
        assert isinstance(index, np.ndarray) and index.dtype == np.intp
        assert index.tolist() == list(positions)
    line = np.arange(10)
    assert line[index].tolist() == list(positions)


def test_step_indexes_its_line_by_slice_or_array():
    step = Step("row", (0, 1, 2, 3), (5, 7), np.ones((2, 4), dtype=np.uint8))
    assert step._in == slice(0, 4)
    assert step._out.tolist() == [5, 7]


def _plans(cfg, rng):
    """(name, plan, pattern it restores or None) for every encoding plan,
    the extension plan and both kinds of decode plan of sampled patterns."""
    plans = [(method, sc.encoding_steps(cfg, method), None) for method in METHODS]
    plans.append(("extension", _codec(cfg).extension_plan, None))
    for k in range(4):
        pattern = sim.sample_pattern(cfg, rng)
        for practical in (True, False):
            plans.append((f"decode{k}-{practical}",
                          sc.decoding_steps(cfg, pattern, practical=practical), pattern))
    return plans


@pytest.mark.parametrize("w", [8, 16, 32])
def test_run_matches_reference_executor(w, rng):
    shapes = {"slice": 0, "array": 0}
    for n, r, m, e in CONFIGS:
        cfg = sc.config_new(n, r, m, e, w)
        codec = _codec(cfg)
        for symbol_size in SYMBOL_SIZES:
            stripe = sc.encode(cfg, sc.random_stripe(cfg, symbol_size, rng))
            for name, plan, pattern in _plans(cfg, rng):
                cells = stripe.copy()
                for i, j in pattern.lost_cells(cfg) if pattern else ():
                    cells[i, j] = rng.integers(0, 256, symbol_size, dtype=np.uint8)
                got = codec.run(plan, cells)
                want = run_plan_by_fancy_index(cfg, plan, cells, DEFAULT_POLY[w])
                assert np.array_equal(got, want), (cfg, symbol_size, name)
                assert np.array_equal(got[:r, :n], stripe), (cfg, symbol_size, name)
                for step in plan[1]:
                    for index in (step._in, step._out):
                        shapes["slice" if isinstance(index, slice) else "array"] += 1
    assert shapes["slice"] and shapes["array"]      # both kinds of step ran
