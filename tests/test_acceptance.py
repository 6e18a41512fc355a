"""Acceptance suite: one test per shipping criterion.

Each test prints a single PASS line with the numbers it measured (run
pytest with -s to see them); a failing criterion fails its test.
"""

import math
import time

import numpy as np
import pytest

import staircodes as sc
from staircodes import cli, reliability as rel, sim
from staircodes.mds import check_codeword
from staircodes.stair import _codec, data_cells, signature
from conftest import sweep_configs
import oracles
from test_stair_encoding import REFERENCE_UPSTAIRS


def test_criterion_01_encoder_equivalence():
    """standard / upstairs / downstairs byte-identical on >= 1000 stripes
    across >= 20 configs (n<=16, r<=16, m<=3, s<=4), under a minute."""
    configs = sweep_configs()
    assert len(configs) >= 20
    assert all(c.n <= 16 and c.r <= 16 and c.m <= 3 and c.s <= 4 for c in configs)
    rng = np.random.default_rng(2024)
    start = time.monotonic()
    stripes = 0
    for cfg in configs:
        for _ in range(48):
            stripe = sc.random_stripe(cfg, 8, rng)
            up, down, std = stripe.copy(), stripe.copy(), stripe.copy()
            sc.encode(cfg, up, "upstairs")
            sc.encode(cfg, down, "downstairs")
            sc.encode(cfg, std, "standard")
            assert np.array_equal(up, down), cfg
            assert np.array_equal(up, std), cfg
            stripes += 1
    elapsed = time.monotonic() - start
    assert stripes >= 1000
    assert elapsed < 60
    print(f"\nPASS criterion 1: {stripes} stripes x 3 encoders across "
          f"{len(configs)} configs byte-identical ({elapsed:.1f}s)")


@pytest.mark.parametrize("shape", [(6, 3, 1, (1, 2)), (8, 4, 2, (1, 1, 2))])
def test_criterion_02_exhaustive_roundtrip(shape):
    """Every within-coverage failure pattern round-trips exactly, with
    2-byte symbols, in under five minutes."""
    cfg = sc.config_new(*shape)
    rng = np.random.default_rng(99)
    stripe = sc.encode(cfg, sc.random_stripe(cfg, 2, rng))
    start = time.monotonic()
    patterns = 0
    for pattern in oracles.iter_within_coverage_patterns(cfg):
        restored = sc.decode(cfg, sim.inject(cfg, stripe, pattern), pattern)
        assert np.array_equal(restored, stripe), pattern
        patterns += 1
    elapsed = time.monotonic() - start
    assert elapsed < 300
    print(f"\nPASS criterion 2: {patterns} patterns on {shape} all "
          f"round-tripped ({elapsed:.1f}s)")


def test_criterion_03_homomorphic_property():
    """Every augmented row of every canonical stripe in the sweep passes
    the row-code syndrome check."""
    rng = np.random.default_rng(31)
    rows_checked = 0
    for cfg in sweep_configs():
        for _ in range(3):
            stripe = sc.encode(cfg, sc.random_stripe(cfg, 4, rng))
            canon = sc.build_canonical(cfg, stripe)
            codec = _codec(cfg)
            for i in range(canon.shape[0]):
                assert check_codeword(codec.row_code, canon[i]), (cfg, i)
                rows_checked += 1
    print(f"\nPASS criterion 3: {rows_checked} augmented-grid rows pass the "
          f"syndrome check (100%)")


def test_criterion_04_reference_decode_trace():
    """The decoder's schedule for the worked example's worst case equals
    the reference schedule, input and output sets step for step."""
    cfg = sc.config_new(8, 4, 2, (1, 1, 2))
    rng = np.random.default_rng(4)
    stripe = sc.encode(cfg, sc.random_stripe(cfg, 8, rng))
    pattern = sc.worst_case_pattern(cfg)
    restored = sc.decode(cfg, sim.inject(cfg, stripe, pattern), pattern, practical=False)
    assert np.array_equal(restored, stripe)
    plan = sc.decoding_steps(cfg, pattern, practical=False)
    assert [signature(cfg, i, s) for i, s in zip(*plan)] == REFERENCE_UPSTAIRS
    # the recovery-based encoder follows the identical schedule
    plan = sc.encoding_steps(cfg, "upstairs")
    assert [signature(cfg, i, s) for i, s in zip(*plan)] == REFERENCE_UPSTAIRS
    print("\nPASS criterion 4: worst-case decode schedule matches the reference "
          "schedule step-for-step (12 steps)")


def test_criterion_05_cost_model():
    """Multiply-XOR counts match the hand-evaluated formulas, the method
    chooser returns the argmin, and the standard count is exactly the
    dependency total."""
    a = sc.config_new(8, 16, 2, (4,))
    b = sc.config_new(8, 16, 2, (1, 1, 1, 1))
    assert sc.xor_count(a, "upstairs") == 600
    assert sc.xor_count(a, "downstairs") == 352
    assert sc.xor_count(b, "upstairs") == 312
    assert sc.xor_count(b, "downstairs") == 640
    assert sc.choose_method(a) == "downstairs"
    assert sc.choose_method(b) == "upstairs"
    from staircodes.stair import METHODS
    for cfg in [a, b, sc.config_new(8, 4, 2, (1, 1, 2)), sc.config_new(6, 3, 1, (1, 2))]:
        dep_total = sum(len(sc.parity_dependents(cfg, cell)) for cell in data_cells(cfg))
        assert sc.xor_count(cfg, "standard") == dep_total
        counts = {meth: sc.xor_count(cfg, meth) for meth in METHODS}
        assert counts[sc.choose_method(cfg)] == min(counts.values())
    print("\nPASS criterion 5: cost formulas (600/352, 312/640), argmin choice "
          "and dependency totals all exact")


def test_criterion_06_update_penalty():
    """Update penalty equals the flip-a-cell re-encode oracle exactly; with
    no stair cells it is exactly m."""
    from test_stair_costs import perturbation_dependents
    rng = np.random.default_rng(6)
    for shape in [(8, 4, 2, (1, 1, 2)), (6, 3, 1, (1, 2)), (8, 5, 2, (2, 2))]:
        cfg = sc.config_new(*shape)
        oracle = np.mean([len(perturbation_dependents(cfg, cell, rng))
                          for cell in data_cells(cfg)])
        assert sc.update_penalty(cfg) == oracle, cfg
    assert sc.update_penalty(sc.config_new(8, 4, 2, ())) == 2.0
    assert sc.update_penalty(sc.config_new(9, 6, 3, ())) == 3.0
    print("\nPASS criterion 6: update penalty equals the perturbation oracle "
          "exactly; m-only baseline exact")


def test_criterion_07_array_count_table():
    """All 13 reference array counts reproduced exactly (binary units)."""
    reference = [4994, 5039, 5085, 5131, 5179, 5227, 5276, 5327,
                 5378, 5430, 5483, 5538, 5593]
    params = rel.ReliabilityParams(user_bytes=10 * 2 ** 50, device_bytes=300 * 2 ** 30)
    got = []
    for s in range(13):
        cfg = sc.config_new(8, 16, 1, () if s == 0 else (s,))
        got.append(rel.num_arrays(params, cfg))
    assert got == reference
    print(f"\nPASS criterion 7: array counts {got[0]}..{got[-1]} all 13 exact")


def test_criterion_08_stripe_loss_equivalences():
    """DP stripe loss matches the five closed forms to 1e-10 relative on
    randomised distributions; the total-count and no-tolerance forms match
    direct enumeration."""
    from staircodes.stair import counts_within_coverage
    n_chunks = 7
    families = [
        ((4,), lambda p: oracles.p_str_stair_single(4, n_chunks, p)),
        ((1, 3), lambda p: oracles.p_str_stair_one_rest(4, n_chunks, p)),
        ((2, 2), lambda p: oracles.p_str_stair_two_rest(4, n_chunks, p)),
        ((1, 1, 2), lambda p: oracles.p_str_stair_one_one_rest(4, n_chunks, p)),
        ((1, 1, 1, 1), lambda p: oracles.p_str_stair_all_ones(4, n_chunks, p)),
    ]
    gen = np.random.default_rng(8)
    worst = 0.0
    for seed in range(6):
        raw = gen.random(17)
        raw /= raw.sum()
        dist = rel.ChunkFailureDist(tuple(raw), 1 - raw[0])
        for e, closed in families:
            cfg = sc.config_new(8, 16, 1, e)
            got = rel.p_str_stair(cfg, dist)
            want = closed(dist.probs)
            worst = max(worst, abs(got - want) / want)
            assert got == pytest.approx(want, rel=1e-10), (e, seed)
        for s in (1, 2, 3):
            cfg = sc.config_new(8, 16, 1, (s,))
            got = rel.p_str("sd", cfg, dist)
            want = oracles.p_str_by_enumeration(
                n_chunks, dist.probs, lambda vec: sum(vec) <= s, max_count=s)
            assert got == pytest.approx(want, rel=1e-10), (s, seed)
        cfg = sc.config_new(8, 16, 1, ())
        assert rel.p_str("rs", cfg, dist) == pytest.approx(
            oracles.p_str_by_enumeration(n_chunks, dist.probs,
                                         lambda vec: not any(vec), max_count=0),
            rel=1e-10)
    # and the DP agrees with brute-force enumeration of the coverage itself
    cfg = sc.config_new(8, 16, 1, (1, 2))
    raw = gen.random(17)
    raw /= raw.sum()
    dist = rel.ChunkFailureDist(tuple(raw), 1 - raw[0])
    want = oracles.p_str_by_enumeration(
        n_chunks, dist.probs, lambda vec: counts_within_coverage(cfg, vec), max_count=2)
    assert rel.p_str_stair(cfg, dist) == pytest.approx(want, rel=1e-10)
    print(f"\nPASS criterion 8: closed-form/enumeration agreement, worst "
          f"relative error {worst:.2e} (tolerance 1e-10)")


def test_criterion_09_monte_carlo_validation():
    """10^6 trials at an inflated sector-failure probability bracket every
    analytic stripe-loss value within 3 sigma, in under two minutes."""
    start = time.monotonic()
    n, r, m = 8, 16, 1
    dist = rel.p_chk_independent(r, 1e-3)
    cfg = sc.config_new(n, r, m, ())
    cases = [("rs", rel.p_str("rs", cfg, dist), sim.recoverable("rs", cfg))]
    for s in (1, 2, 3):
        cfg = sc.config_new(n, r, m, (s,))
        cases.append((f"sd({s})", rel.p_str("sd", cfg, dist), sim.recoverable("sd", cfg)))
    for e in [(1,), (3,), (1, 2), (1, 1, 1)]:
        cfg = sc.config_new(n, r, m, e)
        cases.append((f"stair{e}", rel.p_str_stair(cfg, dist), sim.recoverable("stair", cfg)))
    trials = 10 ** 6
    for i, (label, analytic, predicate) in enumerate(cases):
        est = sim.monte_carlo_p_str(predicate, n - m, dist, trials=trials, seed=900 + i)
        sigma = math.sqrt(analytic * (1 - analytic) / trials)
        assert abs(est.p_failure - analytic) <= 3 * sigma, \
            (label, analytic, est.p_failure, 3 * sigma)
    elapsed = time.monotonic() - start
    assert elapsed < 120
    print(f"\nPASS criterion 9: {len(cases)} codes within 3 sigma of analytic "
          f"values at 10^6 trials ({elapsed:.1f}s)")


def test_criterion_10_qualitative_reliability_claims():
    """Independent model: single-sector coverage beats the no-tolerance
    baseline by over two orders of magnitude at p_bit = 1e-14.  Correlated
    model (b1=0.98, alpha=1.79): the single-deep-burst coverage e=(s) ranks
    highest among equal-s configurations."""
    indep = rel.ReliabilityParams(user_bytes=10 * 2 ** 50, device_bytes=300 * 2 ** 30,
                                  p_bit=1e-14)
    base = rel.mttdl(indep, sc.config_new(8, 16, 1, ()), code="rs")
    covered = rel.mttdl(indep, sc.config_new(8, 16, 1, (1,)), code="stair")
    ratio = covered.mttdl_sys_hours / base.mttdl_sys_hours
    assert ratio > 100

    correlated = rel.ReliabilityParams(user_bytes=10 * 2 ** 50,
                                       device_bytes=300 * 2 ** 30,
                                       p_bit=1e-14, model="correlated",
                                       b1=0.98, alpha=1.79)
    for s, variants in [(2, [(2,), (1, 1)]),
                        (3, [(3,), (1, 2), (1, 1, 1)]),
                        (4, [(4,), (1, 3), (2, 2), (1, 1, 2), (1, 1, 1, 1)])]:
        values = {e: rel.mttdl(correlated, sc.config_new(8, 16, 1, e)).mttdl_sys_hours
                  for e in variants}
        best = max(values, key=values.get)
        assert best == (s,), (s, values)
    print(f"\nPASS criterion 10: independent-model gain {ratio:.0f}x (> 100x); "
          f"deep-burst coverage ranks first for s=2,3,4 in the correlated model")


def test_invariant_bulk_injection_roundtrip():
    """Module invariant behind criteria 1/2: injection followed by decode
    round-trips 10^5 sampled within-coverage patterns on randomized configs."""
    rng = np.random.default_rng(77)
    configs = sweep_configs()
    encoded = {cfg: sc.encode(cfg, sc.random_stripe(cfg, 2, rng)) for cfg in configs}
    per_cfg = 10 ** 5 // len(configs) + 1
    total = 0
    for cfg in configs:
        stripe = encoded[cfg]
        for k in range(per_cfg):
            pattern = sim.sample_pattern(cfg, 10 ** 6 + total, within=True)
            restored = sc.decode(cfg, sim.inject(cfg, stripe, pattern), pattern)
            assert np.array_equal(restored, stripe), (cfg, pattern)
            total += 1
    assert total >= 10 ** 5
    print(f"\nPASS invariant: {total} sampled patterns injected and decoded "
          f"across {len(configs)} configs")


def test_criterion_11_reuse_encoders_not_slower():
    """The selected reuse-based encoder is never slower than standard
    encoding beyond a 10% noise band on n=16, r=16 sweeps; the default
    bench stripe is 32 MiB."""
    results = []
    for m, e in [(1, (2,)), (1, (1, 1)), (2, (4,)), (3, (1, 1, 1, 1))]:
        cfg = sc.config_new(16, 16, m, e)
        res = cli.run_bench(cfg, 8 * 2 ** 20, reps=3, seed=m)
        chosen = res["encode"][res["chosen"]]["mib_per_s"]
        standard = res["encode"]["standard"]["mib_per_s"]
        results.append((cfg.e, m, chosen / standard))
        assert chosen >= 0.9 * standard, (cfg, res)
    big = cli.run_bench(sc.config_new(16, 16, 1, (2,)), 32 * 2 ** 20, reps=1, seed=0)
    assert big["symbol_size"] == 32 * 2 ** 20 // 256
    assert big["encode"][big["chosen"]]["mib_per_s"] >= \
        0.9 * big["encode"]["standard"]["mib_per_s"]
    ratios = ", ".join(f"m={m} e={e}: {r:.2f}x" for e, m, r in results)
    print(f"\nPASS criterion 11: chosen/standard throughput {ratios}; "
          f"32 MiB stripe uses {big['symbol_size']} B symbols")
