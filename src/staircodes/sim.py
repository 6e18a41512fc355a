"""Failure injection and Monte-Carlo estimation.

Two levels of simulation: byte-level injection of failure patterns into
encoded stripes (to drive codec round-trips), and counting-level trials
that draw per-chunk failure counts from a chunk-failure distribution to
validate the analytical stripe-loss probabilities.

A report draws one counting-level sample, and every code is judged on it.
Trials run in fixed 64Ki blocks, each with its own spawned seed, so the
sample does not depend on how blocks are scheduled.  A block draws only
its failed (trial, chunk) cells: their number from Binomial(cells,
1 - P(0)), their positions uniformly without replacement, and each one's
count from P(c | c >= 1).  That is the law of drawing every cell from P,
at 1 - P(0) of the draws, but not the same numbers as
``Generator.choice(p=)`` would give.  The trials are then bucketed by their
multiset of counts, which every predicate depends on alone, so each code
judges each distinct outcome once, and a trial with no failed chunk lands
in the zero bucket without being judged.  Estimates and histograms are both
read from those buckets.  The STAIR predicate is
``stair.counts_within_coverage``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import partial

import numpy as np

from .reliability import ChunkFailureDist
from .stair import FailurePattern, StairConfig, counts_within_coverage

_BLOCK = 1 << 16
_Z99 = 2.5758293035489004  # two-sided 99% normal quantile


def sample_pattern(cfg: StairConfig, seed, within: bool = True) -> FailurePattern:
    """Draw a failure pattern; constructive (always covered) when ``within``,
    otherwise unconstrained and free to exceed the coverage."""
    rng = np.random.default_rng(seed)
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
    ci99: tuple[float, float]
    trials: int
    failures: int

    @classmethod
    def of(cls, failures: int, trials: int) -> McEstimate:
        """``failures`` unrecoverable stripes in ``trials``, with the
        normal-approximation 99% confidence interval."""
        p_hat = failures / trials
        stderr = math.sqrt(p_hat * (1 - p_hat) / trials)
        return cls(p_hat, (max(0.0, p_hat - _Z99 * stderr),
                           min(1.0, p_hat + _Z99 * stderr)), trials, failures)


def recoverable(code: str, cfg: StairConfig):
    """The vectorised predicate of a code family on cfg, one verdict per row
    of a (trials, chunks) count array; the families are those of
    :func:`staircodes.reliability.p_str`."""
    if code == "stair":
        return partial(counts_within_coverage, cfg)
    if code == "rs":
        return lambda counts: ~counts.any(axis=1)
    if code == "sd":
        return lambda counts: counts.sum(axis=1) <= cfg.s
    raise ValueError(f"unknown code kind {code!r}")


def _failed_cells(n_chunks: int, dist: ChunkFailureDist, trials: int, seed: int):
    """The sample's failed cells, a block at a time: yield per block
    (trials, cells, counts), where ``cells`` holds the distinct flat
    positions ``trial * n_chunks + chunk`` of the cells that failed and
    ``counts`` their failure counts, each at least 1; every other cell of
    the block failed none.

    A block of B trials fails K ~ Binomial(B * n_chunks, 1 - P(0)) cells,
    at positions drawn uniformly without replacement, each with a count
    drawn by inverse CDF from P(c | c >= 1).
    """
    probs = np.asarray(dist.probs, dtype=float)
    probs = probs / probs.sum()
    tail = probs[1:].cumsum()
    tail /= tail[-1] or 1.0
    seeds = np.random.SeedSequence(seed).spawn((trials + _BLOCK - 1) // _BLOCK)
    done = 0
    for child in seeds:
        block = min(_BLOCK, trials - done)
        rng = np.random.default_rng(child)
        size = block * n_chunks
        cells = rng.choice(size, size=rng.binomial(size, 1.0 - probs[0]), replace=False,
                           shuffle=False)
        yield block, cells, 1 + tail.searchsorted(rng.random(len(cells)), side="right")
        done += block


def _outcomes(n_chunks: int, dist: ChunkFailureDist, trials: int, seed: int):
    """The sample's distinct outcomes: (rows, stripes), where ``rows`` is an
    (outcomes, n_chunks) int64 array of failure-count multisets, each sorted
    descending, and ``stripes`` how many trials drew each; most frequent first.

    A trial's key packs its ascending nonzero counts as the digits of one
    integer in base len(P).  No digit is 0, so distinct multisets get
    distinct keys; a trial with no failed chunk has key 0.  Keys are int64
    when every key fits, Python ints otherwise.
    """
    if trials < 10 ** 4:
        raise ValueError(f"need at least 10^4 trials for a meaningful estimate, got {trials}")
    base = len(dist.probs)
    dtype = np.int64 if base ** n_chunks <= 2 ** 63 else object
    buckets: Counter[int] = Counter()
    misses = 0
    for block, cells, counts in _failed_cells(n_chunks, dist, trials, seed):
        # trial-major, each trial's counts ascending
        trial, count = np.divmod(np.sort(cells // n_chunks * base + counts), base)
        first = np.flatnonzero(np.diff(trial, prepend=-1))
        rank = np.arange(len(trial)) - np.repeat(first, np.diff(first, append=len(trial)))
        digits = count.astype(dtype) * base ** rank.astype(dtype)
        found, stripes = np.unique(np.add.reduceat(digits, first), return_counts=True)
        buckets.update(dict(zip(found.tolist(), stripes.tolist())))
        misses += block - len(first)
    if misses:
        buckets[0] = misses
    ranked = []
    for key, stripes in buckets.items():
        counts = []
        while key:
            key, count = divmod(key, base)
            counts.append(count)
        ranked.append((-stripes, counts[::-1]))
    ranked.sort()
    rows = np.zeros((len(ranked), n_chunks), dtype=np.int64)
    for row, (_, counts) in zip(rows, ranked):
        row[:len(counts)] = counts
    return rows, np.array([-negated for negated, _ in ranked])


def monte_carlo_p_str(recoverable, n_chunks: int, dist: ChunkFailureDist,
                      trials: int = 10 ** 6, seed: int = 0) -> McEstimate:
    """Estimate the unrecoverable-stripe probability by direct sampling.

    Draws i.i.d. per-chunk failure counts for ``n_chunks`` chunks per trial
    and counts the trials whose outcome ``recoverable`` rejects; it judges
    each distinct outcome once.  Returns the estimate with its
    normal-approximation 99% confidence interval.
    """
    rows, stripes = _outcomes(n_chunks, dist, trials, seed)
    return McEstimate.of(int(stripes[~recoverable(rows)].sum()), trials)


def outcome_histogram(predicates: dict, n_chunks: int, dist: ChunkFailureDist,
                      trials: int = 10 ** 5, seed: int = 0) -> list[dict]:
    """Aggregate sampled trial outcomes by their failure-count multiset.

    ``predicates`` maps a code label to its recoverability predicate.  Each
    returned row holds the (descending) count multiset, how many stripes hit
    it, and every code's verdict; rows are ordered by frequency.
    """
    rows, stripes = _outcomes(n_chunks, dist, trials, seed)
    verdicts = {label: predicate(rows).tolist() for label, predicate in predicates.items()}
    out = []
    for i, (counts, count) in enumerate(zip(rows.tolist(), stripes.tolist())):
        row = {"counts": ",".join(str(c) for c in counts if c) or "0",
               "stripes": count, "fraction": count / trials}
        for label, verdict in verdicts.items():
            row[f"recoverable_{label}"] = verdict[i]
        out.append(row)
    return out


def binomial_tails(n: int, p: float, k: int) -> tuple[float, float]:
    """P(X <= k) and P(X >= k) for X ~ Binomial(n, p) and 0 <= k <= n.

    The tail on k's side of the mean is summed from P(X = k) outward, each
    term from the last by the pmf's ratio, until a term is below 1e-17 of
    the sum (the terms fall from k on); the other tail is its complement
    plus P(X = k).
    """
    if p <= 0.0:
        return 1.0, float(k == 0)
    if p >= 1.0:
        return float(k == n), 1.0
    q = 1.0 - p
    at_k = math.exp(math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                    + k * math.log(p) + (n - k) * math.log1p(-p))
    term = total = at_k
    i = k
    if k <= n * p:
        while i > 0 and term > total * 1e-17:
            term *= i * q / ((n - i + 1) * p)
            i -= 1
            total += term
        return total, 1.0 - total + at_k
    while i < n and term > total * 1e-17:
        term *= (n - i) * p / ((i + 1) * q)
        i += 1
        total += term
    return 1.0 - total + at_k, total
