import math

import numpy as np
import pytest

import staircodes as sc
from staircodes import reliability as rel
from staircodes import sim
from oracles import (coverage_by_assignment, p_str_by_enumeration, p_str_rs_closed,
                     p_str_sd_closed, sparse_draw_dense)

# the rs predicate reads nothing of its config
RECOVERABLE_RS = sim.recoverable("rs", sc.config_new(8, 4, 1))


def recoverable_sd(s: int):
    """The sd predicate of a config whose coverage sums to s."""
    return sim.recoverable("sd", sc.config_new(8, 300, 1, (s,) if s else (), w=16))


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
    est = sim.monte_carlo_p_str(RECOVERABLE_RS, 5, dist, trials=10 ** 4, seed=1)
    assert est.p_failure == 0.0
    assert est.failures == 0


def test_forced_failures_estimate_one(exemplar):
    # every chunk always sees e_max + 1 failures: nothing is recoverable
    r = exemplar.r
    probs = [0.0] * (r + 1)
    probs[exemplar.e_max + 1] = 1.0
    dist = rel.ChunkFailureDist(tuple(probs), 1.0)
    est = sim.monte_carlo_p_str(sim.recoverable("stair", exemplar),
                                exemplar.n - exemplar.m, dist, trials=10 ** 4, seed=2)
    assert est.p_failure == 1.0


def test_trials_floor_enforced():
    dist = rel.ChunkFailureDist((1.0, 0.0), 0.0)
    with pytest.raises(ValueError):
        sim.monte_carlo_p_str(RECOVERABLE_RS, 4, dist, trials=100, seed=0)


def test_estimate_is_seed_deterministic():
    dist = rel.p_chk_independent(8, 0.02)
    a = sim.monte_carlo_p_str(recoverable_sd(2), 6, dist, trials=10 ** 4, seed=9)
    b = sim.monte_carlo_p_str(recoverable_sd(2), 6, dist, trials=10 ** 4, seed=9)
    assert a == b


def test_estimate_brackets_analytic_value():
    cfg = sc.config_new(8, 16, 1, (1, 2))
    dist = rel.p_chk_independent(16, 1e-3)
    analytic = rel.p_str_stair(cfg, dist)
    est = sim.monte_carlo_p_str(sim.recoverable("stair", cfg), 7, dist,
                                trials=2 * 10 ** 5, seed=77)
    sigma = math.sqrt(analytic * (1 - analytic) / est.trials)
    assert abs(est.p_failure - analytic) <= 3 * sigma
    assert est.ci99[0] <= est.p_failure <= est.ci99[1]


def test_outcome_histogram():
    cfg = sc.config_new(8, 16, 1, (1, 2))
    dist = rel.p_chk_independent(16, 1e-3)
    predicates = {"rs": RECOVERABLE_RS, "stair": sim.recoverable("stair", cfg)}
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
    got = sim.recoverable("stair", cfg)(counts)
    want = np.array([coverage_by_assignment(cfg.e, row.tolist()) for row in counts])
    assert np.array_equal(got, want)
    assert np.array_equal(RECOVERABLE_RS(counts), ~counts.any(axis=1))
    assert np.array_equal(recoverable_sd(3)(counts), counts.sum(axis=1) <= 3)


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
        assert sim.recoverable("stair", cfg)(counts).tolist() == want
    assert RECOVERABLE_RS(counts).tolist() == [not any(row) for row in counts.tolist()]
    for s in (0, 1, 3):
        assert recoverable_sd(s)(counts).tolist() == [sum(row) <= s
                                                      for row in counts.tolist()]


def dense_counts(parts, n_chunks):
    """The (trials, n_chunks) counts of _failed_cells' sparse blocks."""
    dense = []
    for trials, cells, counts in parts:
        block = np.zeros(trials * n_chunks, dtype=np.int64)
        block[cells] = counts
        dense.append(block.reshape(trials, n_chunks))
    return np.concatenate(dense)


@pytest.mark.parametrize("probs", [
    (0.999, 6e-4, 3e-4, 1e-4),
    (0.25, 0.25, 0.25, 0.25),
    (0.0, 0.5, 0.3, 0.2),
    (1.0, 0.0, 0.0),
    (0.9, 0.1),
], ids=["skewed", "flat", "p0-zero", "point-mass", "r1"])
@pytest.mark.parametrize("trials", [12_305, sim._BLOCK + 8192, 2 * sim._BLOCK + 5000])
def test_draws_equal_generator_choice(probs, trials):
    """The sparse draw is exactly the dense reference built from the same
    generator calls (binomial, choice without replacement, random), within
    one block and across block edges."""
    dist = rel.ChunkFailureDist(probs, 1.0 - probs[0])
    n_chunks, seed = 7, 11
    parts = list(sim._failed_cells(n_chunks, dist, trials, seed))
    assert [block for block, _, _ in parts] == [
        min(sim._BLOCK, trials - start) for start in range(0, trials, sim._BLOCK)]
    for block, cells, counts in parts:
        assert cells.shape == counts.shape
        assert len(np.unique(cells)) == len(cells)
        assert ((0 <= cells) & (cells < block * n_chunks)).all()
        assert ((1 <= counts) & (counts < len(probs))).all()
        assert all(probs[c] > 0 for c in np.unique(counts).tolist())
    assert np.array_equal(dense_counts(parts, n_chunks),
                          sparse_draw_dense(probs, n_chunks, trials, seed))


GOF_P = 1e-4    # a fixed sample fails a goodness-of-fit test by chance at most this often


@pytest.mark.parametrize("probs", [(0.985, 0.009, 0.004, 0.002), (0.25, 0.25, 0.25, 0.25),
                                   (0.6, 0.0, 0.3, 0.1)], ids=["skewed", "flat", "gap"])
def test_cell_counts_fit_the_distribution(probs):
    # every cell, failed or not, is one draw from P, and each trial's number
    # of failed cells is Binomial(n_chunks, 1 - P(0))
    stats = pytest.importorskip("scipy.stats")
    n_chunks, trials = 9, sim._BLOCK + 30_000
    dist = rel.ChunkFailureDist(probs, 1.0 - probs[0])
    dense = dense_counts(sim._failed_cells(n_chunks, dist, trials, 21), n_chunks)
    support = [c for c, p in enumerate(probs) if p > 0]
    seen = np.bincount(dense.ravel(), minlength=len(probs))
    assert seen.sum() == seen[support].sum()
    expected = np.asarray(probs)[support] * dense.size
    assert stats.chisquare(seen[support], expected).pvalue > GOF_P
    failed = np.bincount((dense > 0).sum(axis=1), minlength=n_chunks + 1)
    expected = stats.binom.pmf(np.arange(n_chunks + 1), n_chunks, 1.0 - probs[0]) * trials
    kept = expected >= 5
    rest = [failed[~kept].sum()] if (~kept).any() else []
    assert stats.chisquare(np.r_[failed[kept], rest],
                           np.r_[expected[kept], expected[~kept].sum() if rest else []]
                           ).pvalue > GOF_P


def test_hit_trials_per_block_fit_the_binomial():
    # a trial is hit when any of its cells fails: Binomial(block, 1 - P(0)^n)
    stats = pytest.importorskip("scipy.stats")
    probs, n_chunks, block = (0.985, 0.01, 0.005), 15, 2000
    dist = rel.ChunkFailureDist(probs, 1.0 - probs[0])
    hits = np.array([len(np.unique(cells // n_chunks))
                     for seed in range(400)
                     for _, cells, _ in sim._failed_cells(n_chunks, dist, block, seed)])
    q = 1.0 - probs[0] ** n_chunks
    edges = stats.binom.ppf(np.linspace(0, 1, 11)[1:-1], block, q)
    seen = np.bincount(np.searchsorted(edges, hits, side="left"), minlength=len(edges) + 1)
    cdf = stats.binom.cdf(np.r_[-1, edges, block], block, q)
    assert stats.chisquare(seen, np.diff(cdf) * len(hits)).pvalue > GOF_P


@pytest.mark.parametrize("cfg", [sc.config_new(8, 4, 1, (1, 2)), sc.config_new(8, 4, 1, (1, 1, 1, 3)),
                                 sc.config_new(8, 4, 1, ())], ids=["1,2", "1,1,1,3", "rs"])
def test_predicates_ignore_chunk_order(cfg):
    # bucketing judges a multiset once for every order of its counts
    gen = np.random.default_rng(12)
    rows = np.where(gen.random((400, 7)) < 0.4, gen.integers(1, 5, (400, 7)), 0)
    predicates = [sim.recoverable("stair", cfg), RECOVERABLE_RS,
                  *(recoverable_sd(s) for s in (0, 1, 3, 5))]
    for predicate in predicates:
        want = predicate(rows)
        for _ in range(5):
            assert np.array_equal(predicate(gen.permuted(rows, axis=1)), want)


def histogram_reference(predicates, n_chunks, dist, trials, seed):
    # bucket every sorted row of the whole dense draw, one verdict per key
    from collections import Counter
    counts = dense_counts(sim._failed_cells(n_chunks, dist, trials, seed), n_chunks)
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
    predicates = {"rs": RECOVERABLE_RS, "sd_2": recoverable_sd(2),
                  "stair": sim.recoverable("stair", cfg)}
    trials = sim._BLOCK + 1000
    want = histogram_reference(predicates, 7, dist, trials, 4)
    got = sim.outcome_histogram(predicates, 7, dist, trials=trials, seed=4)
    assert [list(row.items()) for row in got] == [list(row.items()) for row in want]


def test_histogram_keys_wider_than_a_byte():
    # counts up to 299 need a two-byte key; a one-byte key would wrap 256..299
    probs = np.zeros(300)
    probs[[0, 1, 255, 256, 257, 299]] = (0.9, 0.05, 0.01, 0.01, 0.02, 0.01)
    dist = rel.ChunkFailureDist(tuple(probs), 0.1)
    predicates = {"rs": RECOVERABLE_RS, "sd_300": recoverable_sd(300),
                  "stair": sim.recoverable("stair", sc.config_new(8, 300, 1, (257, 299), w=16))}
    want = histogram_reference(predicates, 7, dist, 2 * 10 ** 4, 6)
    got = sim.outcome_histogram(predicates, 7, dist, trials=2 * 10 ** 4, seed=6)
    assert [list(row.items()) for row in got] == [list(row.items()) for row in want]
    assert any(int(c) > 255 for row in got for c in row["counts"].split(","))


def test_histogram_keys_wider_than_a_word():
    # 17^20 > 2^63: twenty chunks of up to 16 failures each pack into
    # Python ints, and the buckets are those of the dense draw all the same
    probs = (0.2, *([0.05] * 16))
    dist = rel.ChunkFailureDist(probs, 0.8)
    predicates = {"rs": RECOVERABLE_RS, "sd_40": recoverable_sd(40),
                  "stair": sim.recoverable("stair", sc.config_new(21, 16, 1, (4, 16))),
                  "sd_300": recoverable_sd(300)}
    want = histogram_reference(predicates, 20, dist, 10 ** 4, 8)
    got = sim.outcome_histogram(predicates, 20, dist, trials=10 ** 4, seed=8)
    assert [list(row.items()) for row in got] == [list(row.items()) for row in want]
    assert max(len(row["counts"].split(",")) for row in got) > 15


@pytest.mark.parametrize("n", [1, 7, 100, 10_000, 100_000, 1_000_000])
@pytest.mark.parametrize("p", [1e-7, 3.4e-6, 1e-3, 0.02, 0.2, 0.5, 0.97])
def test_binomial_tails_match_scipy(n, p):
    special = pytest.importorskip("scipy.special")
    mean, sd = n * p, math.sqrt(n * p * (1 - p))
    ks = {0, 1, 2, n, n - 1, *(int(mean + z * sd) for z in (-8, -5, -2, -0.5, 0, 0.5, 2, 5, 8))}
    for k in sorted(k for k in ks if 0 <= k <= n):
        lower, upper = sim.binomial_tails(n, p, k)
        # lgamma(n + 1) ~ 1.3e7 at n = 10^6 leaves P(X = k) about 1e-9 off
        assert lower == pytest.approx(special.bdtr(k, n, p), rel=1e-8, abs=1e-300)
        want_upper = special.bdtrc(k - 1, n, p) if k else 1.0
        assert upper == pytest.approx(want_upper, rel=1e-8, abs=1e-300)


def test_binomial_tails_at_the_edges():
    assert sim.binomial_tails(10, 0.0, 0) == (1.0, 1.0)
    assert sim.binomial_tails(10, 0.0, 3) == (1.0, 0.0)
    assert sim.binomial_tails(10, 1.0, 10) == (1.0, 1.0)
    assert sim.binomial_tails(10, 1.0, 3) == (0.0, 1.0)
    assert sim.binomial_tails(10 ** 5, 0.2, 0) == (0.0, 1.0)      # P(X = 0) underflows


def test_code_family_dispatch():
    # each family's analytic stripe loss against its closed form or an
    # enumeration, and its predicate against literal rules
    dist = rel.p_chk_independent(16, 1e-2)
    counts = np.random.default_rng(3).integers(0, 4, size=(500, 7))
    stair_cfg, sd_cfg = sc.config_new(8, 16, 1, (1, 2)), sc.config_new(8, 16, 1, (3,))
    assert rel.p_str("stair", stair_cfg, dist) == pytest.approx(p_str_by_enumeration(
        7, dist.probs, lambda vec: coverage_by_assignment((1, 2), vec), max_count=2), rel=1e-10)
    assert rel.p_str("rs", stair_cfg, dist) == pytest.approx(
        p_str_rs_closed(7, dist.probs), rel=1e-10)
    assert rel.p_str("sd", sd_cfg, dist) == pytest.approx(
        p_str_sd_closed(3, 7, dist.probs), rel=1e-10)
    rows = counts.tolist()
    assert sim.recoverable("stair", stair_cfg)(counts).tolist() == [
        coverage_by_assignment((1, 2), row) for row in rows]
    assert sim.recoverable("rs", stair_cfg)(counts).tolist() == [not any(row) for row in rows]
    assert sim.recoverable("sd", sd_cfg)(counts).tolist() == [sum(row) <= 3 for row in rows]
    with pytest.raises(ValueError):
        rel.p_str("lrc", stair_cfg, dist)
    with pytest.raises(ValueError):
        sim.recoverable("lrc", stair_cfg)
