import math

import numpy as np
import pytest

import staircodes as sc
from staircodes import reliability as rel
import oracles


def params(**kw):
    base = dict(user_bytes=10 * 2 ** 50, device_bytes=300 * 2 ** 30)
    base.update(kw)
    return rel.ReliabilityParams(**base)


def random_dist(r, seed):
    gen = np.random.default_rng(seed)
    raw = gen.random(r + 1)
    raw /= raw.sum()
    return rel.ChunkFailureDist(tuple(raw), 1 - raw[0])


# -- space ---------------------------------------------------------------------

def test_storage_efficiency():
    assert rel.storage_efficiency(sc.config_new(8, 16, 1, ())) == 0.875
    assert rel.storage_efficiency(sc.config_new(8, 16, 1, (1,))) == 111 / 128
    # every data cell turned into parity
    all_stair = sc.config_new(4, 2, 0, (2, 2, 2, 2))
    assert rel.storage_efficiency(all_stair) == 0.0


def test_num_arrays_reference_values():
    p = params()
    assert rel.num_arrays(p, sc.config_new(8, 16, 1, ())) == 4994
    assert rel.num_arrays(p, sc.config_new(8, 16, 1, (1,))) == 5039
    assert rel.num_arrays(p, sc.config_new(8, 16, 1, (4, 4, 4))) == 5593


def test_num_arrays_exact_fit_is_one():
    cfg = sc.config_new(8, 16, 1, ())
    p = params(user_bytes=int(300 * 2 ** 30 * 8 * 0.875), device_bytes=300 * 2 ** 30)
    assert rel.num_arrays(p, cfg) == 1


# -- sector models ---------------------------------------------------------------

def test_p_sec():
    assert rel.p_sec(0.0, 512) == 0.0
    approx = 8 * 512 * 1e-14
    assert rel.p_sec(1e-14, 512) == pytest.approx(approx, rel=1e-6)
    assert rel.p_sec(1e-10, 512) > rel.p_sec(1e-12, 512) > rel.p_sec(1e-14, 512)


def test_p_chk_independent():
    d = rel.p_chk_independent(16, 0.0)
    assert d.probs[0] == 1.0 and not any(d.probs[1:])
    d = rel.p_chk_independent(1, 0.25)
    assert d.probs == (0.75, 0.25)
    d = rel.p_chk_independent(16, 1e-3)
    assert math.isclose(sum(d.probs), 1.0, abs_tol=1e-12)
    assert math.isclose(d.tail, 1 - d.probs[0], rel_tol=1e-9)


def test_p_chk_correlated_degenerate_single_sector_bursts():
    d = rel.p_chk_correlated(16, 1e-3, b1=1.0, alpha=1.79)
    assert d.probs[1] == pytest.approx(16 * 1e-3)
    assert not any(d.probs[2:])


def test_p_chk_correlated_burst_shape():
    d = rel.p_chk_correlated(16, 1e-3, b1=0.98, alpha=1.79)
    b = rel.burst_length_fractions(16, 0.98, 1.79)
    avg = rel.mean_burst_length(16, 0.98, 1.79)
    assert math.isclose(b.sum(), 1.0, abs_tol=1e-12)
    assert 1.0 < avg < 1.1                      # bursts average just above one sector
    assert math.isclose(sum(d.probs), 1.0, abs_tol=1e-12)
    assert d.probs[2] > d.probs[3] > d.probs[4]  # heavy-tailed, decreasing


def test_p_chk_correlated_out_of_range():
    with pytest.raises(ValueError):
        rel.p_chk_correlated(16, 0.5, b1=0.98, alpha=1.79)


def test_burst_fractions_r1():
    assert rel.burst_length_fractions(1, 0.9, 1.5)[0] == 1.0


def test_p_chk_independent_matches_bernoulli_simulation():
    """Independent route: draw raw per-sector failures and compare the
    per-chunk count frequencies against the binomial distribution."""
    r, p, trials = 16, 1e-3, 10 ** 6
    gen = np.random.default_rng(123)
    counts = (gen.random((trials, r)) < p).sum(axis=1)
    dist = rel.p_chk_independent(r, p)
    for i in range(3):
        observed = float((counts == i).mean())
        sigma = math.sqrt(dist.probs[i] * (1 - dist.probs[i]) / trials)
        assert abs(observed - dist.probs[i]) <= 3 * sigma, i


# -- stripe loss ------------------------------------------------------------------

@pytest.mark.parametrize("e, closed", [
    ((3,), lambda N, p: oracles.p_str_stair_single(3, N, p)),
    ((4,), lambda N, p: oracles.p_str_stair_single(4, N, p)),
    ((1, 2), lambda N, p: oracles.p_str_stair_one_rest(3, N, p)),
    ((1, 3), lambda N, p: oracles.p_str_stair_one_rest(4, N, p)),
    ((2, 2), lambda N, p: oracles.p_str_stair_two_rest(4, N, p)),
    ((1, 1, 2), lambda N, p: oracles.p_str_stair_one_one_rest(4, N, p)),
    ((1, 1, 1), lambda N, p: oracles.p_str_stair_all_ones(3, N, p)),
    ((1, 1, 1, 1), lambda N, p: oracles.p_str_stair_all_ones(4, N, p)),
])
def test_dp_matches_closed_forms(e, closed):
    cfg = sc.config_new(8, 16, 1, e)
    for seed in range(5):
        dist = random_dist(16, seed)
        got = rel.p_str_stair(cfg, dist)
        want = closed(7, dist.probs)
        assert got == pytest.approx(want, rel=1e-10), (e, seed)


def test_dp_matches_direct_enumeration():
    from staircodes.stair import counts_within_coverage
    cfg = sc.config_new(6, 4, 1, (1, 2))
    dist = random_dist(4, 99)
    want = oracles.p_str_by_enumeration(
        5, dist.probs, lambda vec: counts_within_coverage(cfg, vec), max_count=2)
    assert rel.p_str_stair(cfg, dist) == pytest.approx(want, rel=1e-10)


def test_p_str_rs():
    cfg = sc.config_new(8, 16, 1, ())
    clean = rel.ChunkFailureDist((1.0,) + (0.0,) * 16, 0.0)
    assert rel.p_str("rs", cfg, clean) == 0.0
    assert rel.p_str_stair(cfg, clean) == 0.0
    dist = random_dist(16, 3)
    assert rel.p_str("rs", cfg, dist) == pytest.approx(
        oracles.p_str_rs_closed(7, dist.probs), rel=1e-10)
    # with no stair cells the coverage rule degenerates to the same thing
    assert rel.p_str_stair(cfg, dist) == pytest.approx(rel.p_str("rs", cfg, dist), rel=1e-10)


def test_p_str_sd():
    cfg1 = sc.config_new(8, 16, 1, (1,))
    dist = random_dist(16, 11)
    assert rel.p_str("sd", cfg1, dist) == pytest.approx(
        rel.p_str_stair(cfg1, dist), rel=1e-12)
    for s in (1, 2, 3):
        got = rel.p_str("sd", sc.config_new(8, 16, 1, (s,)), dist)
        assert got == pytest.approx(oracles.p_str_sd_closed(s, 7, dist.probs), rel=1e-10)
        want = oracles.p_str_by_enumeration(
            7, dist.probs, lambda vec: sum(vec) <= s, max_count=s)
        assert got == pytest.approx(want, rel=1e-10)
    with pytest.raises(ValueError):
        rel.p_str("sd", sc.config_new(8, 16, 1, (4,)), dist)


def test_p_str_coverage_ordering():
    """Bigger coverage sets mean lower loss: rs >= stair(e) >= sd(s)."""
    dist = random_dist(16, 5)
    for e in [(3,), (1, 2), (1, 1, 1)]:
        cfg = sc.config_new(8, 16, 1, e)
        p_rs = rel.p_str("rs", cfg, dist)
        p_st = rel.p_str_stair(cfg, dist)
        p_sd = rel.p_str("sd", cfg, dist)
        assert p_rs >= p_st >= p_sd >= 0.0
        assert p_rs <= 1.0


def test_probabilities_in_unit_interval():
    for seed in range(3):
        dist = random_dist(16, seed + 40)
        for e in [(1,), (2, 2), (1, 1, 1, 1)]:
            val = rel.p_str_stair(sc.config_new(8, 16, 1, e), dist)
            assert 0.0 <= val <= 1.0


def test_tiny_probabilities_keep_precision():
    """At data-sheet error rates the loss probability is ~1e-17; the direct
    summation must not collapse to 0 or eps."""
    dist = rel.p_chk_independent(16, rel.p_sec(1e-14, 512))
    cfg = sc.config_new(8, 16, 1, (1,))
    val = rel.p_str_stair(cfg, dist)
    assert 1e-19 < val < 1e-15


# float.hex of stair (1,2), stair (1,1,2), stair (4,), sd(2) and rs on n = 8,
# m = 1, recorded before the DP built each state's moves once: every float
# operation of the DP must keep its order.
P_STR_HEX = {
    (4, "independent", 0.0001): (
        '0x1.3736cd317b482p-29', '0x1.fd9c9a379b200p-36', '0x1.c23c52340d744p-19',
        '0x1.c168171de97e8p-29', '0x1.6e81af0723b3ap-9'),
    (4, "independent", 0.01): (
        '0x1.fabeaa1693e85p-10', '0x1.d3ec80700b4bbp-14', '0x1.d411f8639f100p-6',
        '0x1.64237b1f5627dp-9', '0x1.f655bbfe6654bp-3'),
    (4, "correlated", 0.0001): (
        '0x1.082d69b4123acp-16', '0x1.0824be4fb28c0p-16', '0x1.a9b44df43ed6dp-19',
        '0x1.09a8c05f817bep-16', '0x1.646328a8a4683p-9'),
    (4, "correlated", 0.01): (
        '0x1.ba79904f55d88p-9', '0x1.b0bc16ce4eda2p-10', '0x1.c8b26c6654a10p-6',
        '0x1.0cccaad708640p-8', '0x1.f084e22eba6b1p-3'),
    (16, "independent", 0.0001): (
        '0x1.3a2cbd6f6c89dp-23', '0x1.1ed85d7a2d6ecp-28', '0x1.bfe6d276dc87cp-15',
        '0x1.e5786d4071220p-23', '0x1.6cf8e165caccdp-7'),
    (16, "independent", 0.01): (
        '0x1.365b4cd730bf8p-4', '0x1.158aa361f81cbp-6', '0x1.1e0c765e60207p-2',
        '0x1.a4cd42abed541p-4', '0x1.59e24687ce6f8p-1'),
    (16, "correlated", 0.0001): (
        '0x1.070d10a80c971p-14', '0x1.06859069e4551p-14', '0x1.1c986d9a3eacfp-14',
        '0x1.0cdee143437cap-14', '0x1.60ef80623e6c0p-7'),
    (16, "correlated", 0.01): (
        '0x1.5985ffd19dc70p-4', '0x1.3f55f9ea51c7bp-6', '0x1.300892bfc1389p-2',
        '0x1.7242178f144a4p-4', '0x1.61f5afef56a44p-1'),
}


@pytest.mark.parametrize("key", sorted(P_STR_HEX), ids=str)
def test_p_str_bytes_pinned(key):
    r, model, sector_prob = key
    dist = (rel.p_chk_independent(r, sector_prob) if model == "independent"
            else rel.p_chk_correlated(r, sector_prob, 0.98, 1.79))
    got = [rel.p_str_stair(sc.config_new(8, r, 1, e), dist) for e in ((1, 2), (1, 1, 2), (4,))]
    got += [rel.p_str("sd", sc.config_new(8, r, 1, (2,)), dist),
            rel.p_str("rs", sc.config_new(8, r, 1, ()), dist)]
    assert tuple(v.hex() for v in got) == P_STR_HEX[key]


# -- mttdl ------------------------------------------------------------------------

def test_mttdl_requires_m1():
    with pytest.raises(ValueError):
        rel.mttdl(params(), sc.config_new(8, 16, 2, (1,)))


def test_mttdl_zero_sector_failures_formula():
    p = params(p_bit=0.0)
    cfg = sc.config_new(8, 16, 1, (1,))
    rep = rel.mttdl(p, cfg)
    lam = 1 / p.mean_time_to_failure_hours
    mu = 1 / p.mean_rebuild_hours
    want = ((2 * 8 - 1) * lam + mu) / (8 * 7 * lam ** 2)
    assert rep.p_str == 0.0
    assert rep.mttdl_arr_hours == pytest.approx(want, rel=1e-12)
    assert rep.mttdl_sys_hours == pytest.approx(want / rep.n_arrays, rel=1e-12)


def test_mttdl_monotone_in_p_bit():
    cfg = sc.config_new(8, 16, 1, (1,))
    values = [rel.mttdl(params(p_bit=p), cfg).mttdl_sys_hours
              for p in (1e-14, 1e-12, 1e-10)]
    assert values[0] >= values[1] >= values[2]


def test_exact_p_arr_below_union_bound():
    p = params(p_bit=1e-10)
    rep = rel.mttdl(p, sc.config_new(8, 16, 1, ()), code="rs")
    stripes = p.device_bytes // (p.sector_bytes * 16)
    assert rep.p_arr <= min(1.0, stripes * rep.p_str) + 1e-15


def test_report_consistency():
    rep = rel.mttdl(params(p_bit=1e-12), sc.config_new(8, 16, 1, (1, 2)))
    assert rep.mttdl_sys_hours == pytest.approx(
        rep.mttdl_arr_hours / rep.n_arrays, rel=1e-12)
    assert rep.mean_burst_length is None
    rep_c = rel.mttdl(params(p_bit=1e-12, model="correlated"), sc.config_new(8, 16, 1, (1, 2)))
    assert rep_c.mean_burst_length == pytest.approx(
        rel.mean_burst_length(16, 0.98, 1.79))


def test_params_validation():
    with pytest.raises(ValueError):
        params(p_bit=1.5)
    with pytest.raises(ValueError):
        params(model="weird")
    with pytest.raises(ValueError):
        params(user_bytes=0)


def test_dist_validation():
    with pytest.raises(ValueError):
        rel.ChunkFailureDist((0.5, 0.4), 0.5)       # does not sum to 1
    with pytest.raises(ValueError):
        rel.ChunkFailureDist((1.5, -0.5), 0.0)


@pytest.mark.parametrize("field", ["mean_time_to_failure_hours", "mean_rebuild_hours", "alpha"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_params_refuse_non_finite_or_non_positive(field, value):
    # an infinite MTTF made mttdl divide by zero; a nan one reported nan
    with pytest.raises(ValueError, match=f"^{field} must be finite and positive"):
        params(**{field: value})


def test_dist_refuses_nan():
    # both constructors used to return all-nan distributions
    with pytest.raises(ValueError, match="finite"):
        rel.p_chk_independent(16, math.nan)
    with pytest.raises(ValueError, match="finite"):
        rel.p_chk_correlated(16, 1e-3, 0.98, math.nan)
    with pytest.raises(ValueError, match="finite"):
        rel.ChunkFailureDist((math.nan, 1.0), 0.0)
