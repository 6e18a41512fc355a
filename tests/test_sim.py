import math

import numpy as np
import pytest

import staircodes as sc
from staircodes import reliability as rel
from staircodes import sim
from oracles import coverage_by_assignment


def test_within_samples_all_pass_coverage(exemplar):
    for seed in range(10_000):
        pat = sim.sample_pattern(exemplar, seed, within=True)
        assert sc.pattern_within_coverage(exemplar, pat)


def test_sampling_is_deterministic(exemplar):
    assert sim.sample_pattern(exemplar, 42) == sim.sample_pattern(exemplar, 42)
    assert sim.sample_pattern(exemplar, 42, within=False) == \
        sim.sample_pattern(exemplar, 42, within=False)


def test_within_samples_respect_max_burst(exemplar):
    worst = 0
    for seed in range(2000):
        pat = sim.sample_pattern(exemplar, seed, within=True)
        for _, rows in pat.sector_failures:
            worst = max(worst, len(rows))
    assert worst <= exemplar.e_max
    assert worst == exemplar.e_max       # the sampler does reach the edge


def test_unconstrained_sampling_escapes_coverage(exemplar):
    outside = sum(
        not sc.pattern_within_coverage(exemplar, sim.sample_pattern(exemplar, s, within=False))
        for s in range(300))
    assert outside > 0


def test_inject_empty_pattern_is_identity(exemplar, rng):
    stripe = sc.encode(exemplar, sc.random_stripe(exemplar, 4, rng))
    out = sim.inject(exemplar, stripe, sc.FailurePattern.make())
    assert np.array_equal(out, stripe)
    assert out is not stripe


def test_inject_zeroes_exactly_the_pattern(exemplar, rng):
    stripe = sc.encode(exemplar, sc.random_stripe(exemplar, 4, rng))
    pattern = sc.FailurePattern.make((6, 7), {0: (1,)})
    out = sim.inject(exemplar, stripe, pattern)
    lost = set(pattern.lost_cells(exemplar))
    assert len(lost) == 2 * exemplar.r + 1
    for i in range(exemplar.r):
        for j in range(exemplar.n):
            if (i, j) in lost:
                assert not out[i, j].any()
            else:
                assert np.array_equal(out[i, j], stripe[i, j])


def test_injected_worst_case_roundtrips(rng):
    cfg = sc.config_new(6, 3, 1, (1, 2))
    stripe = sc.encode(cfg, sc.random_stripe(cfg, 4, rng))
    pattern = sc.worst_case_pattern(cfg)
    restored = sc.decode(cfg, sim.inject(cfg, stripe, pattern), pattern)
    assert np.array_equal(restored, stripe)


# -- Monte Carlo -----------------------------------------------------------------

def test_point_mass_at_zero_failures():
    dist = rel.ChunkFailureDist((1.0, 0.0, 0.0), 0.0)
    est = sim.monte_carlo_p_str(sim.rs_recoverable(), 5, dist, trials=10 ** 4, seed=1)
    assert est.p_failure == 0.0
    assert est.failures == 0


def test_forced_failures_estimate_one(exemplar):
    # every chunk always sees e_max + 1 failures: nothing is recoverable
    r = exemplar.r
    probs = [0.0] * (r + 1)
    probs[exemplar.e_max + 1] = 1.0
    dist = rel.ChunkFailureDist(tuple(probs), 1.0)
    est = sim.monte_carlo_p_str(sim.stair_recoverable(exemplar),
                                exemplar.n - exemplar.m, dist, trials=10 ** 4, seed=2)
    assert est.p_failure == 1.0


def test_trials_floor_enforced():
    dist = rel.ChunkFailureDist((1.0, 0.0), 0.0)
    with pytest.raises(ValueError):
        sim.monte_carlo_p_str(sim.rs_recoverable(), 4, dist, trials=100, seed=0)


def test_estimate_is_seed_deterministic():
    dist = rel.p_chk_independent(8, 0.02)
    a = sim.monte_carlo_p_str(sim.sd_recoverable(2), 6, dist, trials=10 ** 4, seed=9)
    b = sim.monte_carlo_p_str(sim.sd_recoverable(2), 6, dist, trials=10 ** 4, seed=9)
    assert a == b


def test_estimate_brackets_analytic_value():
    cfg = sc.config_new(8, 16, 1, (1, 2))
    dist = rel.p_chk_independent(16, 1e-3)
    analytic = rel.p_str_stair(cfg, dist)
    est = sim.monte_carlo_p_str(sim.stair_recoverable(cfg), 7, dist,
                                trials=2 * 10 ** 5, seed=77)
    sigma = math.sqrt(analytic * (1 - analytic) / est.trials)
    assert abs(est.p_failure - analytic) <= 3 * sigma
    assert est.ci99[0] <= est.p_failure <= est.ci99[1]


def test_outcome_histogram():
    cfg = sc.config_new(8, 16, 1, (1, 2))
    dist = rel.p_chk_independent(16, 1e-3)
    predicates = {"rs": sim.rs_recoverable(), "stair": sim.stair_recoverable(cfg)}
    rows = sim.outcome_histogram(predicates, 7, dist, trials=2 * 10 ** 4, seed=3)
    assert sum(r["stripes"] for r in rows) == 2 * 10 ** 4
    by_counts = {r["counts"]: r for r in rows}
    assert by_counts["0"]["recoverable_rs"] is True
    assert by_counts["0"]["recoverable_stair"] is True
    assert by_counts["1"]["recoverable_rs"] is False
    assert by_counts["1"]["recoverable_stair"] is True
    assert rows == sim.outcome_histogram(predicates, 7, dist, trials=2 * 10 ** 4, seed=3)


def test_predicates_agree_with_scalar_rules():
    cfg = sc.config_new(8, 4, 1, (1, 2))
    gen = np.random.default_rng(5)
    counts = gen.integers(0, 5, size=(500, 7))
    got = sim.stair_recoverable(cfg)(counts)
    want = np.array([coverage_by_assignment(cfg.e, row.tolist()) for row in counts])
    assert np.array_equal(got, want)
    assert np.array_equal(sim.rs_recoverable()(counts), ~counts.any(axis=1))
    assert np.array_equal(sim.sd_recoverable(3)(counts), counts.sum(axis=1) <= 3)


@pytest.mark.parametrize("counts", [
    # mostly all-zero rows
    np.where(np.random.default_rng(8).random((3000, 7)) < 0.03,
             np.random.default_rng(9).integers(1, 5, (3000, 7)), 0),
    np.zeros((4096, 7), dtype=np.int64),
    np.zeros((0, 7), dtype=np.int64),
    np.random.default_rng(10).integers(1, 4, (500, 7)),       # no zeros at all
], ids=["sparse", "all-zero", "empty", "no-zeros"])
def test_sparse_predicates_agree_with_scalar_rules(counts):
    for cfg in (sc.config_new(8, 4, 1, (1, 2)), sc.config_new(8, 4, 1, (1, 1, 1, 3)),
                sc.config_new(8, 4, 1, ())):
        want = [coverage_by_assignment(cfg.e, row) for row in counts.tolist()]
        assert sim.stair_recoverable(cfg)(counts).tolist() == want
    assert sim.rs_recoverable()(counts).tolist() == [not any(row) for row in counts.tolist()]
    for s in (0, 1, 3):
        assert sim.sd_recoverable(s)(counts).tolist() == [sum(row) <= s
                                                          for row in counts.tolist()]


def dense_counts(parts, n_chunks):
    """The (trials, n_chunks) counts of _count_blocks' sparse sub-blocks."""
    dense = []
    for trials, hit, rows in parts:
        block = np.zeros((trials, n_chunks), dtype=np.int64)
        block[hit] = rows
        dense.append(block)
    return np.concatenate(dense)


@pytest.mark.parametrize("probs", [
    (0.999, 6e-4, 3e-4, 1e-4),
    (0.25, 0.25, 0.25, 0.25),
    (0.0, 0.5, 0.3, 0.2),
    (1.0, 0.0, 0.0),
    (0.9, 0.1),
], ids=["skewed", "flat", "p0-zero", "point-mass", "r1"])
@pytest.mark.parametrize("trials", [3 * sim._SUB_BLOCK + 17, sim._BLOCK + 2 * sim._SUB_BLOCK,
                                    2 * sim._BLOCK + 5000])
def test_draws_equal_generator_choice(probs, trials):
    # the sampler must give exactly the counts of one choice(p=) per block
    dist = rel.ChunkFailureDist(probs, 1.0 - probs[0])
    p = np.asarray(probs) / sum(probs)
    n_chunks, seed = 7, 11
    children = np.random.SeedSequence(seed).spawn(-(-trials // sim._BLOCK))
    want = np.concatenate([
        np.random.default_rng(child).choice(len(p), size=(min(sim._BLOCK, trials - i * sim._BLOCK),
                                                          n_chunks), p=p)
        for i, child in enumerate(children)])
    parts = list(sim._count_blocks(n_chunks, dist, trials, seed))
    for part_trials, hit, rows in parts:
        assert 0 < part_trials <= sim._SUB_BLOCK
        assert rows.dtype == np.int64 and rows.shape == (len(hit), n_chunks)
        assert np.array_equal(hit, np.unique(hit)) and hit.max(initial=-1) < part_trials
        assert rows.any(axis=1).all()        # a trial is a hit iff it lost a chunk
    assert np.array_equal(dense_counts(parts, n_chunks), want)


def histogram_reference(predicates, n_chunks, dist, trials, seed):
    # bucket every sorted row of the whole dense draw, one verdict per key
    from collections import Counter
    counts = dense_counts(sim._count_blocks(n_chunks, dist, trials, seed), n_chunks)
    buckets = Counter(map(tuple, np.sort(counts, axis=1)[:, ::-1].tolist()))
    want = []
    for key, count in sorted(buckets.items(), key=lambda kv: (-kv[1], kv[0])):
        row = {"counts": ",".join(str(c) for c in key if c) or "0",
               "stripes": count, "fraction": count / trials}
        for label, predicate in predicates.items():
            row[f"recoverable_{label}"] = bool(predicate(np.array([key]))[0])
        want.append(row)
    return want


@pytest.mark.parametrize("probs", [(0.98, 0.015, 0.005), (0.0, 0.7, 0.3), (1.0, 0.0, 0.0)],
                         ids=["skewed", "p0-zero", "point-mass"])
def test_histogram_equals_dense_reference(probs):
    cfg = sc.config_new(8, 2, 1, (1, 2))
    dist = rel.ChunkFailureDist(probs, 1.0 - probs[0])
    predicates = {"rs": sim.rs_recoverable(), "sd_2": sim.sd_recoverable(2),
                  "stair": sim.stair_recoverable(cfg)}
    trials = sim._BLOCK + 1000
    want = histogram_reference(predicates, 7, dist, trials, 4)
    got = sim.outcome_histogram(predicates, 7, dist, trials=trials, seed=4)
    assert [list(row.items()) for row in got] == [list(row.items()) for row in want]


def test_histogram_keys_wider_than_a_byte():
    # counts up to 299 need a two-byte key; a one-byte key would wrap 256..299
    probs = np.zeros(300)
    probs[[0, 1, 255, 256, 257, 299]] = (0.9, 0.05, 0.01, 0.01, 0.02, 0.01)
    dist = rel.ChunkFailureDist(tuple(probs), 0.1)
    predicates = {"rs": sim.rs_recoverable(), "sd_300": sim.sd_recoverable(300),
                  "stair": sim.stair_recoverable(sc.config_new(8, 300, 1, (257, 299), w=16))}
    want = histogram_reference(predicates, 7, dist, 2 * 10 ** 4, 6)
    got = sim.outcome_histogram(predicates, 7, dist, trials=2 * 10 ** 4, seed=6)
    assert [list(row.items()) for row in got] == [list(row.items()) for row in want]
    assert any(int(c) > 255 for row in got for c in row["counts"].split(","))


def test_code_family_dispatch():
    # one name per family picks both the analytic stripe loss and the predicate
    dist = rel.p_chk_independent(16, 1e-3)
    counts = np.random.default_rng(3).integers(0, 4, size=(500, 7))
    stair_cfg, sd_cfg = sc.config_new(8, 16, 1, (1, 2)), sc.config_new(8, 16, 1, (3,))
    families = [
        ("stair", stair_cfg, rel.p_str_stair(stair_cfg, dist), sim.stair_recoverable(stair_cfg)),
        ("rs", stair_cfg, rel.p_str_rs(stair_cfg, dist), sim.rs_recoverable()),
        ("sd", sd_cfg, rel.p_str_sd(3, sd_cfg, dist), sim.sd_recoverable(3)),
    ]
    for kind, cfg, p_str, predicate in families:
        assert rel.p_str(kind, cfg, dist) == p_str
        assert np.array_equal(sim.recoverable(kind, cfg)(counts), predicate(counts))
    with pytest.raises(ValueError):
        rel.p_str("lrc", stair_cfg, dist)
    with pytest.raises(ValueError):
        sim.recoverable("lrc", stair_cfg)
