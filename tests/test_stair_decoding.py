import importlib.util
import itertools
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import staircodes as sc
from staircodes import UnrecoverableError, sim, stair
from staircodes.stair import _Codec, _codec, _decode_plan, signature
from conftest import sweep_configs
import oracles
from test_stair_encoding import REFERENCE_UPSTAIRS


def _encoded(cfg, rng, symbol_size=8):
    return sc.encode(cfg, sc.random_stripe(cfg, symbol_size, rng))


def test_empty_pattern_is_identity(exemplar, rng):
    stripe = _encoded(exemplar, rng)
    restored = sc.decode(exemplar, stripe, sc.FailurePattern.make())
    assert np.array_equal(restored, stripe)


def test_worst_case_roundtrip_and_reference_trace(exemplar, rng):
    stripe = _encoded(exemplar, rng)
    pattern = sc.worst_case_pattern(exemplar)
    damaged = sim.inject(exemplar, stripe, pattern)
    restored = sc.decode(exemplar, damaged, pattern, practical=False)
    assert np.array_equal(restored, stripe)
    plan = sc.decoding_steps(exemplar, pattern, practical=False)
    assert [signature(exemplar, i, s) for i, s in zip(*plan)] == REFERENCE_UPSTAIRS


def test_practical_path_prefers_local_repair(exemplar, rng):
    stripe = _encoded(exemplar, rng)
    pattern = sc.worst_case_pattern(exemplar)
    damaged = sim.inject(exemplar, stripe, pattern)
    restored = sc.decode(exemplar, damaged, pattern)
    assert np.array_equal(restored, stripe)
    # rows 0 and 1 lose only the two parity chunks, so they repair locally
    indices, steps = sc.decoding_steps(exemplar, pattern)
    assert [s.kind for s in steps[:2]] == ["row", "row"]
    assert signature(exemplar, indices[0], steps[0])[2] == ((0, 6), (0, 7))
    assert signature(exemplar, indices[1], steps[1])[2] == ((1, 6), (1, 7))


def test_rows_with_equal_losses_share_one_step(exemplar):
    # rows 0 and 1 lose the same positions, so one step repairs both
    indices, steps = sc.decoding_steps(exemplar, sc.worst_case_pattern(exemplar))
    assert indices[:2] == (0, 1)
    step0, step1 = steps[:2]
    assert step0 is step1
    assert not hasattr(step0, "index")


def test_worst_case_roundtrip_across_sweep(rng):
    for cfg in sweep_configs():
        stripe = _encoded(cfg, rng, symbol_size=4)
        pattern = sc.worst_case_pattern(cfg)
        restored = sc.decode(cfg, sim.inject(cfg, stripe, pattern), pattern)
        assert np.array_equal(restored, stripe), cfg


def test_decode_leaves_damaged_stripe_untouched(exemplar, rng):
    stripe = _encoded(exemplar, rng)
    pattern = sc.worst_case_pattern(exemplar)
    damaged = sim.inject(exemplar, stripe, pattern)
    snapshot = damaged.copy()
    sc.decode(exemplar, damaged, pattern)
    assert np.array_equal(damaged, snapshot)


def test_sector_failures_at_arbitrary_rows(exemplar, rng):
    stripe = _encoded(exemplar, rng)
    pattern = sc.FailurePattern.make((6, 7), {0: (0,), 2: (1,), 4: (0, 2)})
    assert sc.pattern_within_coverage(exemplar, pattern)
    restored = sc.decode(exemplar, sim.inject(exemplar, stripe, pattern), pattern)
    assert np.array_equal(restored, stripe)


def test_sector_failures_in_parity_chunks(exemplar, rng):
    stripe = _encoded(exemplar, rng)
    pattern = sc.FailurePattern.make((0, 1), {6: (3,), 7: (0, 2)})
    assert sc.pattern_within_coverage(exemplar, pattern)
    restored = sc.decode(exemplar, sim.inject(exemplar, stripe, pattern), pattern)
    assert np.array_equal(restored, stripe)


def test_sampled_patterns_roundtrip(rng):
    for cfg in sweep_configs():
        stripe = _encoded(cfg, rng, symbol_size=2)
        for k in range(25):
            pattern = sim.sample_pattern(cfg, 1000 * k + 7, within=True)
            restored = sc.decode(cfg, sim.inject(cfg, stripe, pattern), pattern)
            assert np.array_equal(restored, stripe), (cfg, pattern)


def test_beyond_coverage_chunk_failures_raise(exemplar, rng):
    stripe = _encoded(exemplar, rng)
    pattern = sc.FailurePattern.make((0, 1, 2))      # m + 1 chunks, r > s
    with pytest.raises(UnrecoverableError):
        sc.decode(exemplar, sim.inject(exemplar, stripe, pattern), pattern)


def test_beyond_coverage_sector_overload_raises(exemplar, rng):
    # m full chunks plus s+1 extra losses exceeds the total redundancy
    stripe = _encoded(exemplar, rng)
    pattern = sc.FailurePattern.make((6, 7), {0: (0, 1), 1: (0, 1), 3: (3,)})
    assert not sc.pattern_within_coverage(exemplar, pattern)
    with pytest.raises(UnrecoverableError):
        sc.decode(exemplar, sim.inject(exemplar, stripe, pattern), pattern)


def test_pure_mode_rejects_too_many_failed(exemplar, rng):
    stripe = _encoded(exemplar, rng)
    pattern = sc.FailurePattern.make((0, 1, 2))
    with pytest.raises(UnrecoverableError):
        sc.decode(exemplar, sim.inject(exemplar, stripe, pattern), pattern, practical=False)


def test_failed_chunk_and_lost_column_plan_apart(exemplar, rng):
    # both lose every cell of chunk 0, but only a failed chunk may be
    # deferred in pure mode: the cached plan of one must not serve the other
    stripe = _encoded(exemplar, rng)
    chunk = sc.FailurePattern.make((0,))
    column = sc.FailurePattern.make((), {0: range(exemplar.r)})
    for order in ((chunk, column), (column, chunk)):
        _decode_plan.cache_clear()
        for pattern in order:
            damaged = sim.inject(exemplar, stripe, pattern)
            if pattern is chunk:
                restored = sc.decode(exemplar, damaged, pattern, practical=False)
                assert np.array_equal(restored, stripe)
            else:
                with pytest.raises(UnrecoverableError):
                    sc.decode(exemplar, damaged, pattern, practical=False)


def test_decode_plan_cache_is_bounded(exemplar, rng):
    from oracles import iter_within_coverage_patterns
    cap = _decode_plan.cache_info().maxsize
    stripe = _encoded(exemplar, rng, symbol_size=1)
    for pattern in itertools.islice(iter_within_coverage_patterns(exemplar), cap + 10):
        restored = sc.decode(exemplar, sim.inject(exemplar, stripe, pattern), pattern)
        assert np.array_equal(restored, stripe), pattern
    assert _decode_plan.cache_info().currsize == cap


def test_patterns_share_interned_steps(exemplar):
    # both lose only cell (1, 0) of row 1, so both repair it with one step
    _decode_plan.cache_clear()
    one = sc.decoding_steps(exemplar, sc.FailurePattern.make((), {0: (1,)}))
    two = sc.decoding_steps(exemplar, sc.FailurePattern.make((), {0: (1,), 5: (3,)}))
    assert (signature(exemplar, one[0][0], one[1][0]) == signature(exemplar, two[0][0], two[1][0])
            == ("row", ((1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6)), ((1, 0),)))
    assert one[0][0] == two[0][0] and one[1][0] is two[1][0]


def test_fresh_plan_is_made_of_the_cached_steps(exemplar):
    _decode_plan.cache_clear()
    for k in range(20):
        pattern = sim.sample_pattern(exemplar, k, within=True)
        for practical in (True, False):
            cached = sc.decoding_steps(exemplar, pattern, practical=practical)
            fresh = _decode_plan.__wrapped__(exemplar, pattern, practical)
            assert fresh[0] == cached[0] and len(fresh[1]) == len(cached[1])
            assert all(a is b for a, b in zip(fresh[1], cached[1]))


def _plan_or_message(planner, *args):
    try:
        return planner(*args)
    except UnrecoverableError as exc:
        return str(exc)


def _assert_same_plan(got, want, where):
    """Both plans have the same line indices and the very same step objects,
    or both planners raised the same UnrecoverableError message."""
    if isinstance(got, str) or isinstance(want, str):
        assert got == want, where
        return
    assert got[0] == want[0] and len(got[1]) == len(want[1]), where
    assert all(a is b for a, b in zip(got[1], want[1])), where


def _assert_plans_match_mask_planner(cfg, patterns):
    for pattern in patterns:
        for practical in (True, False):
            _assert_same_plan(_plan_or_message(_decode_plan.__wrapped__, cfg, pattern, practical),
                              _plan_or_message(oracles.mask_decode_plan, cfg, pattern, practical),
                              (cfg, pattern, practical))


@pytest.mark.parametrize("shape", [(6, 3, 1, (1, 2)), (4, 2, 1, (1, 1))])
def test_planner_matches_mask_planner_within_coverage(shape):
    cfg = sc.config_new(*shape)
    _assert_plans_match_mask_planner(cfg, oracles.iter_within_coverage_patterns(cfg))


@pytest.mark.parametrize("cfg", sweep_configs(), ids=str)
def test_planner_matches_mask_planner_beyond_coverage(cfg):
    _assert_plans_match_mask_planner(
        cfg, (sim.sample_pattern(cfg, seed, within=False) for seed in range(100)))


@pytest.mark.parametrize("cfg", sweep_configs(), ids=str)
def test_encoding_plans_match_mask_planner(cfg, monkeypatch):
    # the downstairs and extension plans run their steps through a mask
    # solver that starts from the same lost cells
    codec = _codec(cfg)
    extend = type(codec).extension_plan.func
    got = codec._plan_downstairs(), extend(codec)
    monkeypatch.setattr(stair, "_Solver", oracles.MaskSolver.from_lost)
    want = codec._plan_downstairs(), extend(codec)
    for g, w in zip(got, want):
        _assert_same_plan(g, w, cfg)


def test_line_step_cache_holds_one_entry_per_distinct_step():
    # steps are keyed by positions along their line, never by the line's index
    from oracles import iter_within_coverage_patterns
    cfg = sc.config_new(6, 3, 1, (1, 2))
    _decode_plan.cache_clear()
    _Codec.line_step.cache_clear()
    keys = {(s.kind, s.inputs, s.outputs)
            for pattern in iter_within_coverage_patterns(cfg) for practical in (True, False)
            for s in sc.decoding_steps(cfg, pattern, practical=practical)[1]}
    assert _Codec.line_step.cache_info().currsize == len(keys)


def test_line_step_cache_is_bounded(exemplar, rng):
    cap = _Codec.line_step.cache_info().maxsize
    assert cap is not None
    codec = _codec(exemplar)
    kappa, eta = codec.row_code.kappa, codec.row_code.eta
    keys = ((survivors, t) for survivors in itertools.combinations(range(eta), kappa)
            for t in range(eta))
    for survivors, t in itertools.islice(keys, cap + 10):
        codec.line_step("row", survivors, (t,))
    assert _Codec.line_step.cache_info().currsize == cap
    _decode_plan.cache_clear()
    stripe = _encoded(exemplar, rng)
    pattern = sc.worst_case_pattern(exemplar)
    assert np.array_equal(sc.decode(exemplar, sim.inject(exemplar, stripe, pattern), pattern),
                          stripe)


def test_schedules_match_the_recorded_hash(capsys, monkeypatch):
    """Every planner change must keep each schedule step for step: the hash
    of ``scripts/schedule_hash.py`` over all of them stays as recorded."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    path = Path(__file__).resolve().parent.parent / "scripts" / "schedule_hash.py"
    spec = importlib.util.spec_from_file_location("schedule_hash", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main([]) == 0
    assert capsys.readouterr().out.split() == [
        "31", "2288", "b0c4f69edf3ca4fe8dc89ea75e6eb1d28b56382a1a690b4372f147063d6212b6"]


def test_exhaustive_roundtrip_tiny_config(rng):
    """Every within-coverage pattern for n=4, r=2, m=1, e=(1,1)."""
    from oracles import iter_within_coverage_patterns
    cfg = sc.config_new(4, 2, 1, (1, 1))
    stripe = _encoded(cfg, rng, symbol_size=2)
    _decode_plan.cache_clear()
    seen = 0
    for pattern in iter_within_coverage_patterns(cfg):
        damaged = sim.inject(cfg, stripe, pattern)
        restored = sc.decode(cfg, damaged, pattern)
        again = sc.decode(cfg, damaged, pattern)
        assert np.array_equal(restored, stripe), pattern
        assert np.array_equal(again, restored), pattern
        # the cached schedule is the one a fresh plan gives
        fresh = _decode_plan.__wrapped__(cfg, pattern, True)
        cached = sc.decoding_steps(cfg, pattern)
        assert ([signature(cfg, i, s) for i, s in zip(*cached)]
                == [signature(cfg, i, s) for i, s in zip(*fresh)]), pattern
        seen += 1
    assert seen > 100


@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 24))
@settings(max_examples=60, deadline=None)
def test_roundtrip_randomised(seed, pick):
    cfg = sweep_configs()[pick % len(sweep_configs())]
    gen = np.random.default_rng(seed)
    stripe = sc.encode(cfg, sc.random_stripe(cfg, 2, gen))
    pattern = sim.sample_pattern(cfg, seed ^ 0xABCDEF, within=True)
    restored = sc.decode(cfg, sim.inject(cfg, stripe, pattern), pattern)
    assert np.array_equal(restored, stripe)
