"""Independent oracles the suite checks the library against.

Everything here is written the slow, obvious way on purpose, and stays
independent of the code paths it verifies: bitwise field arithmetic, the
numpy split-table region kernel, a plan executor over integer-array
indices, list-of-lists Gauss-Jordan inversion, Rabin's irreducibility test,
brute-force assignment search for the coverage rule, direct enumeration of
stripe-loss probabilities, and the published closed forms.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np


# ---------------------------------------------------------------------------
# field arithmetic
# ---------------------------------------------------------------------------

def peasant_mul(a: int, b: int, poly: int = 0x11D, w: int = 8) -> int:
    """Carry-less multiply-and-reduce, one bit at a time."""
    res = 0
    top = 1 << w
    while b:
        if b & 1:
            res ^= a
        b >>= 1
        a <<= 1
        if a & top:
            a ^= poly
    return res


def _pmod(a: int, m: int) -> int:
    dm = m.bit_length() - 1
    while a.bit_length() - 1 >= dm:
        a ^= m << (a.bit_length() - 1 - dm)
    return a


def _pmulmod(a: int, b: int, m: int) -> int:
    res = 0
    while b:
        if b & 1:
            res ^= a
        b >>= 1
        a <<= 1
    return _pmod(res, m)


def _pgcd(a: int, b: int) -> int:
    while b:
        a, b = b, _pmod(a, b)
    return a


def _prime_factors(n: int) -> set[int]:
    out, p = set(), 2
    while p * p <= n:
        while n % p == 0:
            out.add(p)
            n //= p
        p += 1
    if n > 1:
        out.add(n)
    return out


def is_irreducible(poly: int, w: int) -> bool:
    """Rabin irreducibility test for a degree-w polynomial over GF(2)."""
    if poly.bit_length() != w + 1:
        return False

    def x_to_pow2(k: int) -> int:
        h = 2
        for _ in range(k):
            h = _pmulmod(h, h, poly)
        return h

    if x_to_pow2(w) != 2:
        return False
    for q in _prime_factors(w):
        if _pgcd(x_to_pow2(w // q) ^ 2, poly) != 1:
            return False
    return True


def peasant_inverse(a: int, poly: int = 0x11D, w: int = 8) -> int:
    """a^(2^w - 2) = 1 / a, by square-and-multiply over :func:`peasant_mul`."""
    if a == 0:
        raise ZeroDivisionError("zero has no multiplicative inverse")
    res, base, e = 1, a, (1 << w) - 2
    while e:
        if e & 1:
            res = peasant_mul(res, base, poly, w)
        base = peasant_mul(base, base, poly, w)
        e >>= 1
    return res


@functools.cache
def _split_tables(a: int, poly: int, w: int) -> np.ndarray:
    """(w/8, 256) table: entry b of lane i is a * (b << 8i), by :func:`peasant_mul`."""
    dtype = {8: np.uint8, 16: np.uint16, 32: np.uint32}[w]
    return np.array([[peasant_mul(a, b << 8 * i, poly, w) for b in range(256)]
                     for i in range(w // 8)], dtype=dtype)


def split_table_matmul(coef, regions, poly: int = 0x11D, w: int = 8) -> np.ndarray:
    """out[o] = XOR_k coef[o, k] * regions[k] over (K, S) uint8 regions of
    little-endian w-bit words, the split-table way: byte lane i of every
    word of region k is looked up in the 256-entry table of
    coef[o, k] * (b << 8i), built with :func:`peasant_mul`, and the
    lookups are XORed.  Returns (O, S) uint8."""
    coef = np.asarray(coef)
    lanes = w // 8
    dtype = {8: np.uint8, 16: np.uint16, 32: np.uint32}[w]
    tables = {a: _split_tables(a, poly, w) for a in set(coef.ravel().tolist())}
    lanes_of = np.asarray(regions).reshape(len(regions), -1, lanes)
    out = np.zeros((len(coef), lanes_of.shape[1]), dtype=dtype)
    for o, row in enumerate(coef.tolist()):
        for k, a in enumerate(row):
            for i in range(lanes):
                out[o] ^= tables[a][i].take(lanes_of[k, :, i])
    return out.view(np.uint8)


def gauss_jordan_inverse(m, poly: int = 0x11D, w: int = 8) -> list[list[int]]:
    """Inverse of a square matrix (a list of rows) by Gauss-Jordan
    elimination over lists, one scalar product at a time; raises
    ValueError when it is singular."""
    n = len(m)
    a = [[int(x) for x in row] for row in m]
    inv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def mul(x: int, y: int) -> int:
        return peasant_mul(x, y, poly, w)

    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            raise ValueError("singular matrix over GF(2^w)")
        a[col], a[piv] = a[piv], a[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        scale = peasant_inverse(a[col][col], poly, w)
        a[col] = [mul(scale, x) for x in a[col]]
        inv[col] = [mul(scale, x) for x in inv[col]]
        for r in range(n):
            f = a[r][col]
            if r != col and f:
                a[r] = [x ^ mul(f, y) for x, y in zip(a[r], a[col])]
                inv[r] = [x ^ mul(f, y) for x, y in zip(inv[r], inv[col])]
    return inv


def matvec_parity(data: list[int], parity_block, field_mul) -> list[int]:
    """Naive parity of one element column: data (kappa) times A (kappa x p)."""
    kappa = len(data)
    p = len(parity_block[0])
    out = []
    for i in range(p):
        acc = 0
        for j in range(kappa):
            acc ^= field_mul(data[j], int(parity_block[j][i]))
        out.append(acc)
    return out


# ---------------------------------------------------------------------------
# plan execution
# ---------------------------------------------------------------------------

def run_plan_by_fancy_index(cfg, plan, cells, poly: int = 0x11D) -> np.ndarray:
    """The augmented (r + e_max, n + m', S) grid after a plan of
    ``(indices, steps)``, the obvious way: a zeroed grid holding the
    (r, n, S) ``cells``, then for each step its line (row ``index``,
    column ``index`` or, for "standard", the flat grid) read and written
    through integer-array indices of its positions, and the product taken
    by :func:`split_table_matmul`."""
    rows, cols = cfg.r + cfg.e_max, cfg.n + cfg.m_prime
    grid = np.zeros((rows, cols, cells.shape[2]), dtype=np.uint8)
    grid[:cfg.r, :cfg.n] = cells
    for index, step in zip(*plan):
        if step.kind == "row":
            line = grid[index]
        elif step.kind == "col":
            line = grid[:, index]
        else:
            line = grid.reshape(rows * cols, -1)
        inputs = np.array(step.inputs, dtype=np.intp)
        outputs = np.array(step.outputs, dtype=np.intp)
        line[outputs] = split_table_matmul(step.matrix, line[inputs], poly, cfg.w)
    return grid


# ---------------------------------------------------------------------------
# coverage rule
# ---------------------------------------------------------------------------

def coverage_by_assignment(e: tuple[int, ...], counts) -> bool:
    """True iff the nonzero counts can be injectively assigned to e-slots."""
    counts = [c for c in counts if c]
    if not counts:
        return True
    if len(counts) > len(e):
        return False
    for slots in itertools.permutations(range(len(e)), len(counts)):
        if all(counts[i] <= e[slot] for i, slot in enumerate(slots)):
            return True
    return False


def iter_within_coverage_patterns(cfg):
    """Every within-coverage failure pattern of a config, exactly once."""
    from staircodes import FailurePattern

    def multisets(prefix):
        yield prefix
        start = prefix[-1] if prefix else 1
        for c in range(start, cfg.e_max + 1):
            new = prefix + (c,)
            if coverage_by_assignment(cfg.e, new):
                yield from multisets(new)

    count_multisets = list(multisets(()))
    for f_count in range(cfg.m + 1):
        for failed in itertools.combinations(range(cfg.n), f_count):
            rest = [j for j in range(cfg.n) if j not in failed]
            for ms in count_multisets:
                k = len(ms)
                if k > len(rest):
                    continue
                for chunks in itertools.permutations(rest, k):
                    # equal counts are interchangeable; keep one ordering
                    if any(ms[i] == ms[i + 1] and chunks[i] > chunks[i + 1]
                           for i in range(k - 1)):
                        continue
                    row_choices = [itertools.combinations(range(cfg.r), c) for c in ms]
                    for rowsets in itertools.product(*row_choices):
                        yield FailurePattern.make(failed, dict(zip(chunks, rowsets)))


# ---------------------------------------------------------------------------
# stripe-loss probabilities: enumeration and published closed forms
# ---------------------------------------------------------------------------

def p_str_by_enumeration(n_chunks: int, probs, recoverable, max_count: int) -> float:
    """1 - sum of P(vector) over recoverable count vectors.

    Only vectors with all counts <= max_count can be recoverable, so the
    product enumeration over (max_count + 1)^n_chunks is exhaustive.
    """
    total = 0.0
    for vec in itertools.product(range(max_count + 1), repeat=n_chunks):
        if recoverable(vec):
            total += math.prod(probs[c] for c in vec)
    return 1.0 - total


def p_str_rs_closed(n_chunks: int, p) -> float:
    return 1 - p[0] ** n_chunks


def p_str_stair_single(s: int, n_chunks: int, p) -> float:
    """e = (s)."""
    n = n_chunks
    return (1 - p[0] ** n
            - math.comb(n, 1) * sum(p[i] for i in range(1, s + 1)) * p[0] ** (n - 1))


def p_str_stair_one_rest(s: int, n_chunks: int, p) -> float:
    """e = (1, s-1), s >= 2."""
    n = n_chunks
    return (1 - p[0] ** n
            - math.comb(n, 1) * sum(p[i] for i in range(1, s)) * p[0] ** (n - 1)
            - math.comb(n, 2) * p[1] ** 2 * p[0] ** (n - 2)
            - math.comb(n, 1) * math.comb(n - 1, 1)
            * sum(p[i] for i in range(2, s)) * p[1] * p[0] ** (n - 2))


def p_str_stair_two_rest(s: int, n_chunks: int, p) -> float:
    """e = (2, s-2), s >= 4."""
    n = n_chunks
    return (1 - p[0] ** n
            - math.comb(n, 1) * sum(p[i] for i in range(1, s - 1)) * p[0] ** (n - 1)
            - math.comb(n, 2) * p[1] ** 2 * p[0] ** (n - 2)
            - math.comb(n, 1) * math.comb(n - 1, 1)
            * sum(p[i] for i in range(2, s - 1)) * p[1] * p[0] ** (n - 2)
            - math.comb(n, 2) * p[2] ** 2 * p[0] ** (n - 2)
            - math.comb(n, 1) * math.comb(n - 1, 1)
            * sum(p[i] for i in range(3, s - 1)) * p[2] * p[0] ** (n - 2))


def p_str_stair_one_one_rest(s: int, n_chunks: int, p) -> float:
    """e = (1, 1, s-2), s >= 3."""
    n = n_chunks
    return (1 - p[0] ** n
            - math.comb(n, 1) * sum(p[i] for i in range(1, s - 1)) * p[0] ** (n - 1)
            - math.comb(n, 2) * p[1] ** 2 * p[0] ** (n - 2)
            - math.comb(n, 1) * math.comb(n - 1, 1)
            * sum(p[i] for i in range(2, s - 1)) * p[1] * p[0] ** (n - 2)
            - math.comb(n, 3) * p[1] ** 3 * p[0] ** (n - 3)
            - math.comb(n, 2) * math.comb(n - 2, 1)
            * sum(p[i] for i in range(2, s - 1)) * p[1] ** 2 * p[0] ** (n - 3))


def p_str_stair_all_ones(s: int, n_chunks: int, p) -> float:
    """e = (1, ..., 1) with s entries."""
    n = n_chunks
    return 1 - sum(math.comb(n, i) * p[1] ** i * p[0] ** (n - i) for i in range(s + 1))


def p_str_sd_closed(s: int, n_chunks: int, p) -> float:
    n = n_chunks
    if s == 1:
        return (1 - p[0] ** n
                - math.comb(n, 1) * p[1] * p[0] ** (n - 1))
    if s == 2:
        return (1 - p[0] ** n
                - math.comb(n, 1) * (p[1] + p[2]) * p[0] ** (n - 1)
                - math.comb(n, 2) * p[1] ** 2 * p[0] ** (n - 2))
    if s == 3:
        return (1 - p[0] ** n
                - math.comb(n, 1) * (p[1] + p[2] + p[3]) * p[0] ** (n - 1)
                - math.comb(n, 2) * p[1] ** 2 * p[0] ** (n - 2)
                - math.comb(n, 1) * math.comb(n - 1, 1) * p[2] * p[1] * p[0] ** (n - 2)
                - math.comb(n, 3) * p[1] ** 3 * p[0] ** (n - 3))
    raise ValueError(s)
