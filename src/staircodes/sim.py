"""Failure injection and Monte-Carlo estimation.

Two levels of simulation: byte-level injection of failure patterns into
encoded stripes (to drive codec round-trips), and counting-level trials
that draw per-chunk failure counts from a chunk-failure distribution to
validate the analytical stripe-loss probabilities.  Trials run in fixed
64Ki blocks, each with its own spawned seed, so estimates are exactly
reproducible regardless of how blocks are batched.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .reliability import _Z99, ChunkFailureDist
from .stair import FailurePattern, StairConfig

_BLOCK = 1 << 16


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def sample_pattern(cfg: StairConfig, seed, within: bool = True) -> FailurePattern:
    """Draw a failure pattern; constructive (always covered) when ``within``,
    otherwise unconstrained and free to exceed the coverage."""
    rng = _as_rng(seed)
    if within:
        n_failed = int(rng.integers(0, cfg.m + 1))
        failed = rng.choice(cfg.n, size=n_failed, replace=False)
        rest = [j for j in range(cfg.n) if j not in failed]
        k = int(rng.integers(0, cfg.m_prime + 1))
        sectors = {}
        if k:
            slots = np.sort(rng.choice(cfg.m_prime, size=k, replace=False))
            chunks = rng.choice(len(rest), size=k, replace=False)
            for slot, ci in zip(slots, chunks):
                count = int(rng.integers(1, cfg.e[slot] + 1))
                sectors[rest[ci]] = rng.choice(cfg.r, size=count, replace=False)
        return FailurePattern.make(failed, sectors)
    failed, sectors = [], {}
    for j in range(cfg.n):
        roll = rng.random()
        if roll < 0.15:
            failed.append(j)
        elif roll < 0.45:
            count = int(rng.integers(1, cfg.r + 1))
            sectors[j] = rng.choice(cfg.r, size=count, replace=False)
    return FailurePattern.make(failed, sectors)


def inject(cfg: StairConfig, cells: np.ndarray, pattern: FailurePattern) -> np.ndarray:
    """Return a copy of the stripe cells with the pattern's cells zero-filled."""
    pattern.validate_for(cfg)
    damaged = cells.copy()
    for i, j in pattern.lost_cells(cfg):
        damaged[i, j] = 0
    return damaged


# ---------------------------------------------------------------------------
# counting-level Monte Carlo
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class McEstimate:
    p_failure: float
    stderr: float
    ci99: tuple[float, float]
    trials: int
    failures: int


def stair_recoverable(cfg: StairConfig):
    """Vectorised coverage predicate on (trials, chunks) count arrays."""
    e_desc = sorted(cfg.e, reverse=True)

    def predicate(counts: np.ndarray) -> np.ndarray:
        limit = np.zeros(counts.shape[1], dtype=counts.dtype)
        limit[:len(e_desc)] = e_desc
        ranked = np.sort(counts, axis=1)[:, ::-1]
        return np.all(ranked <= limit, axis=1)

    return predicate


def rs_recoverable():
    def predicate(counts: np.ndarray) -> np.ndarray:
        return ~counts.any(axis=1)

    return predicate


def sd_recoverable(s: int):
    def predicate(counts: np.ndarray) -> np.ndarray:
        return counts.sum(axis=1) <= s

    return predicate


def recoverable(code: str, cfg: StairConfig):
    """The predicate of a code family on cfg, the families of
    :func:`staircodes.reliability.p_str`."""
    if code == "stair":
        return stair_recoverable(cfg)
    if code == "rs":
        return rs_recoverable()
    if code == "sd":
        return sd_recoverable(cfg.s)
    raise ValueError(f"unknown code kind {code!r}")


def _count_blocks(n_chunks: int, dist: ChunkFailureDist, trials: int, seed: int):
    """Fixed 64Ki trial blocks with spawned seeds; the block layout (and so
    every estimate) is identical however the blocks are scheduled."""
    probs = np.asarray(dist.probs, dtype=float)
    probs = probs / probs.sum()
    seeds = np.random.SeedSequence(seed).spawn((trials + _BLOCK - 1) // _BLOCK)
    done = 0
    for child in seeds:
        block = min(_BLOCK, trials - done)
        rng = np.random.default_rng(child)
        yield rng.choice(len(probs), size=(block, n_chunks), p=probs).astype(np.int64)
        done += block


def monte_carlo_p_str(recoverable, n_chunks: int, dist: ChunkFailureDist,
                      trials: int = 10 ** 6, seed: int = 0) -> McEstimate:
    """Estimate the unrecoverable-stripe probability by direct sampling.

    Draws i.i.d. per-chunk failure counts for ``n_chunks`` chunks per trial
    and counts trials rejected by ``recoverable``.  Returns the estimate
    with its normal-approximation 99% confidence interval.
    """
    if trials < 10 ** 4:
        raise ValueError(f"need at least 10^4 trials for a meaningful CI, got {trials}")
    failures = 0
    for counts in _count_blocks(n_chunks, dist, trials, seed):
        failures += int((~recoverable(counts)).sum())
    p_hat = failures / trials
    stderr = float(np.sqrt(p_hat * (1 - p_hat) / trials))
    lo = max(0.0, p_hat - _Z99 * stderr)
    hi = min(1.0, p_hat + _Z99 * stderr)
    return McEstimate(p_hat, stderr, (lo, hi), trials, failures)


def outcome_histogram(predicates: dict, n_chunks: int, dist: ChunkFailureDist,
                      trials: int = 10 ** 5, seed: int = 0) -> list[dict]:
    """Aggregate sampled trial outcomes by their failure-count multiset.

    ``predicates`` maps a code label to its recoverability predicate.  Each
    returned row holds the (descending) count multiset, how many stripes hit
    it, and every code's verdict; rows are ordered by frequency.
    """
    if trials < 10 ** 4:
        raise ValueError(f"need at least 10^4 trials for a meaningful histogram, got {trials}")
    buckets: Counter[tuple[int, ...]] = Counter()
    for counts in _count_blocks(n_chunks, dist, trials, seed):
        buckets.update(map(tuple, np.sort(counts, axis=1)[:, ::-1].tolist()))
    rows = []
    for key, count in sorted(buckets.items(), key=lambda kv: (-kv[1], kv[0])):
        sample = np.array([key])
        row = {"counts": ",".join(str(c) for c in key if c) or "0",
               "stripes": count, "fraction": count / trials}
        for label, predicate in predicates.items():
            row[f"recoverable_{label}"] = bool(predicate(sample)[0])
        rows.append(row)
    return rows
