"""Systematic MDS erasure codes built from Cauchy parity blocks.

A code is held as its kappa x eta generator in the form (I | A) with
A[j][i] = 1 / (x_i + y_j), x_i = i and y_j = (eta - kappa) + j.  Every
square submatrix of a Cauchy matrix is invertible, so any kappa received
symbols determine the whole codeword.  Decoding inverts the block of
surviving columns; reconstruction matrices are cached per survivor and
target set, which is what makes repeated decode calls cheap.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .gf import Field


class GenMatrix:
    """Systematic generator of an (eta, kappa) MDS code over a field."""

    def __init__(self, field: Field, kappa: int, eta: int):
        if not 0 < kappa < eta:
            raise ValueError(f"need 0 < kappa < eta, got kappa={kappa} eta={eta}")
        if eta > field.order:
            raise ValueError(f"eta={eta} exceeds field size 2^{field.w}={field.order}")
        self.field = field
        self.kappa = kappa
        self.eta = eta
        self.rows = self._build()

    def _build(self) -> np.ndarray:
        f = self.field
        kappa, eta = self.kappa, self.eta
        rows = np.zeros((kappa, eta), dtype=f.word_dtype)
        rows[:, :kappa] = f.identity(kappa)
        for j in range(kappa):           # data index
            y = (eta - kappa) + j
            for i in range(eta - kappa):  # parity index
                rows[j, kappa + i] = f.inverse(i ^ y)
        return rows

    @property
    def parity_block(self) -> np.ndarray:
        return self.rows[:, self.kappa:]

    # Bounded and shared by every code: planning all 357,173 within-coverage
    # patterns of n=8, r=4, m=2, e=(1,1,2) in both decode modes fills 1,920.
    @lru_cache(maxsize=4096)
    def decode_matrix(self, survivors: tuple[int, ...], targets: tuple[int, ...]) -> np.ndarray:
        """Matrix T with ``targets = T @ survivors`` over symbol regions.

        ``survivors`` must list exactly kappa distinct positions; the result
        has shape (len(targets), kappa) and is cached.
        """
        if len(survivors) != self.kappa:
            raise ValueError(f"need exactly kappa={self.kappa} survivors, got {len(survivors)}")
        inv = self.field.mat_inv(self.rows[:, list(survivors)])
        return self.field.mat_mul(inv, self.rows[:, list(targets)]).T.copy()


def check_codeword(gen: GenMatrix, symbols: np.ndarray) -> bool:
    """True iff the parity positions equal the re-encoded parities."""
    symbols = np.asarray(symbols)
    if symbols.shape[0] != gen.eta:
        raise ValueError(f"expected {gen.eta} symbols, got {symbols.shape[0]}")
    t = gen.decode_matrix(tuple(range(gen.kappa)), tuple(range(gen.kappa, gen.eta)))
    parity = gen.field.matmul_regions(t, symbols[:gen.kappa])
    return bool(np.array_equal(parity, symbols[gen.kappa:]))
