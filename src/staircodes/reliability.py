"""Analytical reliability suite: sector-failure models, stripe/array loss
probabilities and the critical-mode MTTDL model.

Chunk-level failure distributions come from either an independent
bit-error model or a correlated burst model (burst lengths: a fraction b1
of length one, Pareto tail with index alpha above that, truncated at r).
Stripe-loss probabilities are evaluated by dynamic programming over the
per-chunk failure counts; the unrecoverable mass is accumulated directly
as a sum of products so results keep full relative precision even when
they are many orders of magnitude below 1 (never computed as 1 - sum).
STAIR's transitions come from ``stair.counts_within_coverage``, once each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .stair import StairConfig, counts_within_coverage


@dataclass(frozen=True)
class ReliabilityParams:
    """Storage-system parameters for the reliability models (hours, bytes)."""

    user_bytes: int
    device_bytes: int
    sector_bytes: int = 512
    mean_time_to_failure_hours: float = 500_000.0
    mean_rebuild_hours: float = 17.8
    p_bit: float = 1e-14
    model: str = "independent"       # or "correlated"
    b1: float = 0.98
    alpha: float = 1.79

    def __post_init__(self):
        if self.user_bytes <= 0 or self.device_bytes <= 0 or self.sector_bytes <= 0:
            raise ValueError("byte quantities must be positive")
        for name in ("mean_time_to_failure_hours", "mean_rebuild_hours", "alpha"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if not 0 <= self.p_bit < 1:
            raise ValueError(f"p_bit must be in [0, 1), got {self.p_bit}")
        if self.model not in ("independent", "correlated"):
            raise ValueError(f"unknown sector-failure model {self.model!r}")
        if not 0 < self.b1 <= 1:
            raise ValueError(f"b1 must be in (0, 1], got {self.b1}")


@dataclass(frozen=True)
class ChunkFailureDist:
    """P(chunk sees i sector failures) for i = 0..r, plus the exact tail
    probability 1 - P(0) (kept separately to avoid cancellation)."""

    probs: tuple[float, ...]
    tail: float

    def __post_init__(self):
        arr = np.asarray(self.probs)
        if not np.isfinite(arr).all() or (arr < 0).any():
            raise ValueError("probabilities must be finite and nonnegative")
        if abs(float(arr.sum()) - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {arr.sum()}, expected 1")


@dataclass(frozen=True)
class ReliabilityReport:
    """One code's figures at one p_bit, in the order of the report's columns."""

    efficiency: float
    n_arrays: int
    p_str: float
    mttdl_sys_hours: float
    p_sec: float
    p_arr: float
    mttdl_arr_hours: float
    mean_burst_length: float | None = None


# ---------------------------------------------------------------------------
# space accounting
# ---------------------------------------------------------------------------

def storage_efficiency(cfg: StairConfig) -> float:
    """Fraction of raw capacity available for user data."""
    return cfg.data_cell_count / (cfg.r * cfg.n)


def num_arrays(params: ReliabilityParams, cfg: StairConfig) -> int:
    """Arrays of n devices needed to hold the user data at this efficiency."""
    if cfg.data_cell_count <= 0:
        raise ValueError("config stores no data")
    # ceil((U / E) / (C * n)) with E = data_cell_count / (r * n); exact in integers
    return -(-params.user_bytes * cfg.r // (cfg.data_cell_count * params.device_bytes))


# ---------------------------------------------------------------------------
# sector-failure models
# ---------------------------------------------------------------------------

def p_sec(p_bit: float, sector_bytes: int) -> float:
    """Probability that a sector is unreadable given independent bit errors."""
    if p_bit == 0:
        return 0.0
    return -math.expm1(8 * sector_bytes * math.log1p(-p_bit))


def p_chk_independent(r: int, sector_prob: float) -> ChunkFailureDist:
    """Binomial failure counts: every sector fails independently."""
    probs = [math.comb(r, i) * sector_prob ** i * (1 - sector_prob) ** (r - i)
             for i in range(r + 1)]
    tail = 1.0 if sector_prob >= 1 else -math.expm1(r * math.log1p(-sector_prob))
    return ChunkFailureDist(tuple(probs), tail)


def burst_length_fractions(r: int, b1: float, alpha: float) -> np.ndarray:
    """Fractions b_i of failure bursts having length i = 1..r.

    Lengths >= 2 follow a discretised Pareto tail,
    P(L >= i | L >= 2) = (i-1)^-alpha, truncated at r (the residual tail
    mass is absorbed into length r).
    """
    if r < 1:
        raise ValueError("r must be at least 1")
    b = np.zeros(r)
    b[0] = b1
    if r > 1 and b1 < 1:
        surv = [(i - 1) ** -alpha for i in range(2, r + 1)]   # P(L >= i | L >= 2)
        for idx, i in enumerate(range(2, r + 1)):
            upper = surv[idx + 1] if i < r else 0.0
            b[i - 1] = (1 - b1) * (surv[idx] - upper)
    return b / b.sum()


@lru_cache(maxsize=64)
def mean_burst_length(r: int, b1: float, alpha: float) -> float:
    b = burst_length_fractions(r, b1, alpha)
    return float(np.arange(1, r + 1) @ b)


def p_chk_correlated(r: int, sector_prob: float, b1: float, alpha: float) -> ChunkFailureDist:
    """Burst model: a chunk sees i failures iff a burst of length i starts
    in it; chunks see at least one failure with probability r * P_sec / B.

    The no-failure probability uses the linearised form 1 - r*P_sec/B, which
    keeps the per-length masses b_i * (r*P_sec/B) summing exactly to the
    complement; the exact alternative (1 - P_sec/B)^r differs only at second
    order in P_sec.
    """
    b = burst_length_fractions(r, b1, alpha)
    tail = r * sector_prob / mean_burst_length(r, b1, alpha)
    if tail > 1:
        raise ValueError(
            f"burst model out of validity range: r * P_sec / B = {tail:.3g} > 1")
    probs = [1.0 - tail] + [float(bi) * tail for bi in b]
    return ChunkFailureDist(tuple(probs), tail)


@lru_cache(maxsize=64)
def chunk_dist(params: ReliabilityParams, r: int, sector_prob: float) -> ChunkFailureDist:
    """The failure counts of an r-sector chunk under the params' model; a
    report builds it once per p_bit, not once per code."""
    if params.model == "independent":
        return p_chk_independent(r, sector_prob)
    return p_chk_correlated(r, sector_prob, params.b1, params.alpha)


# ---------------------------------------------------------------------------
# stripe-loss probabilities in critical mode
# ---------------------------------------------------------------------------

def _p_str_dp(n_chunks: int, dist: ChunkFailureDist, start, step) -> float:
    """P(a stripe of ``n_chunks`` i.i.d. chunks is unrecoverable), by DP
    over chunks.  ``step(state, c)`` is the state after a chunk with c > 0
    failures, or None when that chunk makes the stripe unrecoverable; each
    state's moves are built once.  Mass that fails never recovers, so it is
    summed as it leaves the states."""
    probs = dist.probs
    p0 = probs[0]
    moves = {}
    states = {start: 1.0}
    p_fail = 0.0
    for _ in range(n_chunks):
        nxt = {}
        for state, pr in states.items():
            if state not in moves:
                moves[state] = [(step(state, c), pc)
                                for c, pc in enumerate(probs[1:], 1) if pc != 0.0]
            nxt[state] = nxt.get(state, 0.0) + pr * p0
            fail_mass = 0.0
            for new, pc in moves[state]:
                if new is None:
                    fail_mass += pc
                else:
                    nxt[new] = nxt.get(new, 0.0) + pr * pc
            p_fail += pr * fail_mass
        states = nxt
    return p_fail


@lru_cache(maxsize=1 << 16)
def _stair_step(cfg: StairConfig, state: tuple[int, ...], c: int) -> tuple[int, ...] | None:
    """The sorted nonzero counts after a chunk with c failures, or None when
    they leave the coverage of cfg.e; kept across calls and distributions."""
    new = tuple(sorted(state + (c,)))
    return new if counts_within_coverage(cfg, new) else None


def p_str_stair(cfg: StairConfig, dist: ChunkFailureDist) -> float:
    """P(an n-m chunk stripe in critical mode is unrecoverable) for the
    stair coverage e.  The DP state is the sorted multiset of nonzero
    failure counts seen so far (a non-dominated prefix can never become
    dominated again)."""
    return _p_str_dp(cfg.n - cfg.m, dist, (), partial(_stair_step, cfg))


def p_str(code: str, cfg: StairConfig, dist: ChunkFailureDist) -> float:
    """Stripe loss of a code family on cfg in critical mode: "stair" (the
    coverage of cfg.e), "rs" (a plain device-level code: any sector failure
    is fatal) or "sd" (sector-disk coverage: recoverable iff the stripe
    total is <= s = cfg.s; known constructions exist for s <= 3 only)."""
    if code == "stair":
        return p_str_stair(cfg, dist)
    if code == "rs":
        if dist.tail >= 1:
            return 1.0
        return -math.expm1((cfg.n - cfg.m) * math.log1p(-dist.tail))
    if code == "sd":
        s = cfg.s
        if s not in (1, 2, 3):
            raise ValueError(f"sector-disk coverage is only defined for s in 1..3, got {s}")
        return _p_str_dp(cfg.n - cfg.m, dist, 0,
                         lambda total, c: total + c if total + c <= s else None)
    raise ValueError(f"unknown code kind {code!r}")


# ---------------------------------------------------------------------------
# MTTDL
# ---------------------------------------------------------------------------

def mttdl(params: ReliabilityParams, cfg: StairConfig, code: str = "stair") -> ReliabilityReport:
    """Critical-mode Markov model: healthy -> one device down -> data loss.

    Only m=1 is modelled.  ``code`` selects the stripe-loss expression,
    as in :func:`p_str`.
    """
    if cfg.m != 1:
        raise ValueError(f"the MTTDL model covers m=1 only, got m={cfg.m}")
    sector_prob = p_sec(params.p_bit, params.sector_bytes)
    stripe_loss = p_str(code, cfg, chunk_dist(params, cfg.r, sector_prob))

    stripes = params.device_bytes // (params.sector_bytes * cfg.r)
    if stripe_loss >= 1:
        p_arr = 1.0
    else:
        p_arr = -math.expm1(stripes * math.log1p(-stripe_loss))

    lam = 1.0 / params.mean_time_to_failure_hours
    mu = 1.0 / params.mean_rebuild_hours
    n = cfg.n
    arr_hours = ((2 * n - 1) * lam + mu) / (n * lam * ((n - 1) * lam + mu * p_arr))
    arrays = num_arrays(params, cfg)
    return ReliabilityReport(
        efficiency=storage_efficiency(cfg),
        n_arrays=arrays,
        p_str=stripe_loss,
        mttdl_sys_hours=arr_hours / arrays,
        p_sec=sector_prob,
        p_arr=p_arr,
        mttdl_arr_hours=arr_hours,
        mean_burst_length=(mean_burst_length(cfg.r, params.b1, params.alpha)
                           if params.model == "correlated" else None),
    )
