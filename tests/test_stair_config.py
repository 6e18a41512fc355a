import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import staircodes as sc
from staircodes.stair import cell_role, counts_within_coverage, data_cells, parity_cells
from conftest import sweep_configs
from oracles import coverage_by_assignment


def test_exemplar_derived_values(exemplar):
    assert exemplar.m_prime == 3
    assert exemplar.s == 4
    assert exemplar.e_max == 2


def test_e_is_canonicalised():
    cfg = sc.config_new(8, 4, 2, (2, 1, 1))
    assert cfg.e == (1, 1, 2)


@pytest.mark.parametrize("kwargs, fragment", [
    (dict(n=4, r=4, m=2, e=(1, 1, 1)), "m + m'"),
    (dict(n=8, r=4, m=8, e=(1,)), "0 <= m < n"),
    (dict(n=8, r=4, m=2, e=(0, 1)), "positive"),
    (dict(n=8, r=4, m=2, e=(5,)), "exceeds r"),
    (dict(n=8, r=4, m=2, e=(1,), w=7), "field width"),
    (dict(n=4, r=4, m=0, e=()), "at least one parity"),
    (dict(n=250, r=1, m=1, e=(1,) * 10), "n + m'"),
    (dict(n=4, r=250, m=1, e=(10,)), "r + e_max"),
    (dict(n=4, r=300, m=1, e=()), "r + e_max"),
])
def test_invalid_configs_name_the_constraint(kwargs, fragment):
    with pytest.raises(ValueError, match=fragment.replace("+", r"\+")):
        sc.config_new(**kwargs)


def test_unsorted_e_rejected_by_raw_constructor():
    with pytest.raises(ValueError, match="sorted"):
        sc.StairConfig(8, 4, 2, (2, 1, 1))


# -- layout -------------------------------------------------------------------

def test_exemplar_layout(exemplar):
    cfg = exemplar
    # stair columns 3, 4 and 5 (n - m - m' + l) end in e = (1, 1, 2) global parities
    assert [[cell_role(cfg, i, j) for i in range(cfg.r)].count("global_parity")
            for j in range(cfg.n - cfg.m)] == [0, 0, 0, 1, 1, 2]
    assert cell_role(cfg, 3, 3) == "global_parity"
    assert cell_role(cfg, 3, 4) == "global_parity"
    assert cell_role(cfg, 2, 5) == "global_parity"
    assert cell_role(cfg, 3, 5) == "global_parity"
    assert cell_role(cfg, 2, 4) == "data"
    assert cell_role(cfg, 0, 6) == "row_parity"


@pytest.mark.parametrize("cfg", sweep_configs() + [sc.config_new(12, 16, 3, (1, 2, 4), w=16),
                                                   sc.config_new(10, 6, 1, (1, 1, 3), w=32)],
                         ids=str)
def test_one_layout(cfg):
    """cell_role over every cell agrees with data_cells and parity_cells, and
    stair column n - m - m' + l holds exactly its bottom e_l rows as global
    parities."""
    roles = {(i, j): cell_role(cfg, i, j) for i in range(cfg.r) for j in range(cfg.n)}
    assert data_cells(cfg) == [cell for cell in sorted(roles, key=lambda c: (c[1], c[0]))
                               if roles[cell] == "data"]
    assert {cell for cell, role in roles.items() if role != "data"} == set(parity_cells(cfg))
    first = cfg.n - cfg.m - cfg.m_prime
    for j in range(cfg.n - cfg.m):
        depth = cfg.e[j - first] if j >= first else 0
        assert [roles[i, j] for i in range(cfg.r)] == (
            ["data"] * (cfg.r - depth) + ["global_parity"] * depth), (cfg, j)
    for j in range(cfg.n - cfg.m, cfg.n):
        assert all(roles[i, j] == "row_parity" for i in range(cfg.r))


def test_cell_counts_across_sweep():
    for cfg in sweep_configs():
        d = data_cells(cfg)
        p = parity_cells(cfg)
        assert len(d) == cfg.r * (cfg.n - cfg.m) - cfg.s == cfg.data_cell_count
        assert len(p) == cfg.m * cfg.r + cfg.s
        assert len(set(d) | set(p)) == cfg.r * cfg.n
        # the space saved versus device-level-only protection
        assert cfg.r * (cfg.m + cfg.m_prime) - len(p) == cfg.r * cfg.m_prime - cfg.s


def test_cell_role_bounds(exemplar):
    with pytest.raises(ValueError):
        cell_role(exemplar, 4, 0)


# -- coverage ------------------------------------------------------------------

def test_coverage_examples(exemplar):
    cfg = exemplar
    ok = sc.FailurePattern.make((), {0: (0, 1), 1: (2,), 2: (3,)})
    assert sc.pattern_within_coverage(cfg, ok)
    bad = sc.FailurePattern.make((), {0: (0, 1), 1: (2, 3)})
    assert not sc.pattern_within_coverage(cfg, bad)
    assert sc.pattern_within_coverage(cfg, sc.FailurePattern.make())


def test_too_many_failed_chunks(exemplar):
    pat = sc.FailurePattern.make((0, 1, 2))
    assert not sc.pattern_within_coverage(exemplar, pat)


def test_failure_pattern_is_a_hashable_value():
    a = sc.FailurePattern.make([3, 1], {4: [2, 0], 6: (1,), 5: []})
    b = sc.FailurePattern.make({1, 3}, {"6": {1}, 4: np.array([0, 2, 2])})
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a.sector_failures == ((4, (0, 2)), (6, (1,)))
    assert a != sc.FailurePattern.make([1, 3], {4: [0]})
    with pytest.raises(TypeError):
        a.sector_failures[0] = (4, (1,))


def test_pattern_validation(exemplar):
    with pytest.raises(ValueError):
        sc.FailurePattern.make((9,)).validate_for(exemplar)
    with pytest.raises(ValueError):
        sc.FailurePattern.make((1,), {1: (0,)}).validate_for(exemplar)
    with pytest.raises(ValueError):
        sc.FailurePattern.make((), {0: (4,)}).validate_for(exemplar)


def test_worst_case_pattern_is_covered():
    for cfg in sweep_configs():
        pat = sc.worst_case_pattern(cfg)
        assert sc.pattern_within_coverage(cfg, pat)
        assert len(pat.failed_chunks) == cfg.m
        assert sorted(len(rows) for _, rows in pat.sector_failures) == list(cfg.e)


def test_coverage_matches_assignment_oracle_exhaustively():
    """The one coverage rule == injective slot assignment, for every vector
    of counts 0..4 over 0..6 chunks (below, at and above m', up to the
    full n-m width, all-zero included), one vector at a time and as one
    (rows, chunks) array."""
    for e in [(), (1,), (2,), (4,), (1, 1), (1, 2), (2, 2), (1, 4), (1, 1, 2), (1, 1, 1, 1)]:
        cfg = sc.config_new(8, 4, 2, e)
        for k in range(7):
            vectors = list(itertools.product(range(5), repeat=k))
            want = [coverage_by_assignment(cfg.e, v) for v in vectors]
            got = [counts_within_coverage(cfg, v) for v in vectors]
            assert all(type(ok) is bool for ok in got)
            assert got == want, (e, k)
            rows = np.array(vectors, dtype=np.int64).reshape(len(vectors), k)
            assert counts_within_coverage(cfg, rows).tolist() == want, (e, k)
            assert counts_within_coverage(cfg, rows[:0]).shape == (0,)


@st.composite
def small_configs(draw):
    n = draw(st.integers(2, 10))
    m = draw(st.integers(0, min(3, n - 1)))
    r = draw(st.integers(1, 6))
    mp = draw(st.integers(0 if m else 1, min(4, n - m)))
    e = tuple(sorted(draw(st.lists(st.integers(1, r), min_size=mp, max_size=mp))))
    return sc.config_new(n, r, m, e)


@given(small_configs(), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_constructive_samples_stay_within_coverage(cfg, seed):
    from staircodes import sim
    pat = sim.sample_pattern(cfg, seed, within=True)
    assert sc.pattern_within_coverage(cfg, pat)


@given(small_configs(), st.lists(st.integers(0, 2 ** 32 - 1), min_size=1, max_size=4),
       st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_union_of_patterns(cfg, seeds, random):
    from staircodes import sim
    patterns = [sim.sample_pattern(cfg, seed, within=False) for seed in seeds]
    union = sc.FailurePattern.union(patterns)
    assert sc.FailurePattern.union(patterns[:1]) == patterns[0]
    shuffled = patterns + random.choices(patterns, k=3)
    random.shuffle(shuffled)
    assert sc.FailurePattern.union(iter(shuffled)) == union
    assert set(union.lost_cells(cfg)) == set().union(*(p.lost_cells(cfg) for p in patterns))
    union.validate_for(cfg)


def test_union_drops_the_sectors_of_a_failed_chunk():
    make = sc.FailurePattern.make
    union = sc.FailurePattern.union([make((), {3: (0, 1)}), make((3,), {4: (2,)}),
                                     make((), {4: (0,)})])
    assert union == make((3,), {4: (0, 2)})
