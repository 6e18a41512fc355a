"""Failure injection and Monte-Carlo estimation.

Two levels of simulation: byte-level injection of failure patterns into
encoded stripes (to drive codec round-trips), and counting-level trials
that draw per-chunk failure counts from a chunk-failure distribution to
validate the analytical stripe-loss probabilities.  Trials run in fixed
64Ki blocks, each with its own spawned seed, so estimates are exactly
reproducible regardless of how blocks are batched.

A block draws its chunks by inverse CDF, as ``Generator.choice(p=)`` does,
in sub-blocks of 4Ki trials whose arrays stay in cache.  Each uniform is
compared with P(0) once; only the chunks that failed are searched in the
CDF and scattered into rows for the trials that lost a chunk, and only
those rows reach the predicates and the histogram, which counts each
sub-block's sorted rows as fixed-width byte keys.  A trial with no failed
chunk is recoverable by every code and is counted, never judged.  The STAIR
predicate is ``stair.counts_within_coverage``.  Every estimate and
histogram is bit-identical to drawing each whole block with ``choice``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import partial

import numpy as np

from .reliability import _Z99, ChunkFailureDist
from .stair import FailurePattern, StairConfig, counts_within_coverage

_BLOCK = 1 << 16
_SUB_BLOCK = 1 << 12


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
    return partial(counts_within_coverage, cfg)


def rs_recoverable():
    return lambda counts: ~counts.any(axis=1)


def sd_recoverable(s: int):
    return lambda counts: counts.sum(axis=1) <= s


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
    """Per-chunk failure counts of ``trials`` trials, a sub-block of at most
    _SUB_BLOCK trials at a time: (trials, hit, rows), where ``hit`` indexes
    the sub-block's trials with a failed chunk and ``rows`` holds their
    (len(hit), n_chunks) int64 counts; every other trial failed no chunk.

    Fixed 64Ki trial blocks with spawned seeds; the block layout (and so
    every estimate) is identical however the blocks are scheduled.  Each
    block's counts are those of ``rng.choice(len(p), size=(block, n_chunks),
    p=p)``: the same inverse CDF on the same uniforms, drawn a sub-block at a
    time (consecutive ``rng.random`` calls give the doubles of one call).
    """
    probs = np.asarray(dist.probs, dtype=float)
    cdf = (probs / probs.sum()).cumsum()
    cdf /= cdf[-1]
    seeds = np.random.SeedSequence(seed).spawn((trials + _BLOCK - 1) // _BLOCK)
    done = 0
    for child in seeds:
        block = min(_BLOCK, trials - done)
        rng = np.random.default_rng(child)
        for start in range(0, block, _SUB_BLOCK):
            u = rng.random((min(_SUB_BLOCK, block - start), n_chunks))
            # a uniform below cdf[0] draws 0 failures; search only the rest
            failed = np.flatnonzero(u >= cdf[0])
            hit, row = np.unique(failed // n_chunks, return_inverse=True)
            rows = np.zeros((len(hit), n_chunks), dtype=np.int64)
            rows[row, failed % n_chunks] = cdf.searchsorted(u.flat[failed], side="right")
            yield len(u), hit, rows
        done += block


def monte_carlo_p_str(recoverable, n_chunks: int, dist: ChunkFailureDist,
                      trials: int = 10 ** 6, seed: int = 0) -> McEstimate:
    """Estimate the unrecoverable-stripe probability by direct sampling.

    Draws i.i.d. per-chunk failure counts for ``n_chunks`` chunks per trial
    and counts trials rejected by ``recoverable``, which sees only the
    trials with a failed chunk (every code recovers the others).  Returns
    the estimate with its normal-approximation 99% confidence interval.
    """
    if trials < 10 ** 4:
        raise ValueError(f"need at least 10^4 trials for a meaningful CI, got {trials}")
    failures = 0
    for _, _, rows in _count_blocks(n_chunks, dist, trials, seed):
        failures += int((~recoverable(rows)).sum())
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
    # a row sorted in the narrowest dtype that holds a count is one byte key
    dtype = np.min_scalar_type(len(dist.probs) - 1)
    as_key = np.dtype((np.void, dtype.itemsize * n_chunks))
    buckets: Counter[bytes] = Counter()
    zero_rows = 0
    for n, _, rows in _count_blocks(n_chunks, dist, trials, seed):
        zero_rows += n - len(rows)
        found, count = np.unique(np.sort(rows.astype(dtype), axis=1).view(as_key),
                                 return_counts=True)
        buckets.update(dict(zip(found.tolist(), count.tolist())))
    if zero_rows:
        buckets[bytes(as_key.itemsize)] = zero_rows
    descending = np.frombuffer(b"".join(buckets), dtype).reshape(-1, n_chunks)[:, ::-1]
    ranked = sorted(zip(map(tuple, descending.tolist()), buckets.values()),
                    key=lambda kv: (-kv[1], kv[0]))
    keys = np.array([key for key, _ in ranked])
    verdicts = {label: predicate(keys) for label, predicate in predicates.items()}
    rows = []
    for i, (key, count) in enumerate(ranked):
        row = {"counts": ",".join(str(c) for c in key if c) or "0",
               "stripes": count, "fraction": count / trials}
        for label, verdict in verdicts.items():
            row[f"recoverable_{label}"] = bool(verdict[i])
        rows.append(row)
    return rows
