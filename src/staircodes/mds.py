"""Systematic MDS erasure codes built from Cauchy parity blocks.

A code's kappa x eta generator is (I | A), held as its parity block A,
A[j][i] = 1 / (x_i + y_j), x_i = i and y_j = (eta - kappa) + j.  Every
square submatrix of a Cauchy matrix is invertible, so any kappa received
symbols determine the whole codeword.  Decoding solves the parity checks
(A^T | I) c = 0 for the eta - kappa lost positions: an (eta - kappa)-square
inversion, not a kappa-square one.  Each reconstruction matrix is built
once, by the codec step that uses it on every row or column alike, so
nothing is cached here.
"""

from __future__ import annotations

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
        self.parity_block = np.zeros((kappa, eta - kappa), dtype=field.word_dtype)
        for j in range(kappa):            # data index
            y = (eta - kappa) + j
            for i in range(eta - kappa):  # parity index
                self.parity_block[j, i] = field.inverse(i ^ y)

    def decode_matrix(self, survivors: tuple[int, ...], targets: tuple[int, ...]) -> np.ndarray:
        """Matrix T with ``targets = T @ survivors`` over symbol regions.

        ``survivors`` must list exactly kappa distinct positions; the result
        has shape (len(targets), kappa).
        """
        if len(survivors) != self.kappa:
            raise ValueError(f"need exactly kappa={self.kappa} survivors, got {len(survivors)}")
        f, k = self.field, self.kappa
        checks = np.hstack([self.parity_block.T, np.eye(self.eta - k, dtype=f.word_dtype)])
        lost = [p for p in range(self.eta) if p not in survivors]
        full = np.zeros((self.eta, k), dtype=f.word_dtype)
        full[list(survivors), range(k)] = 1
        full[lost] = f.mat_mul(f.mat_inv(checks[:, lost]), checks[:, list(survivors)])
        return full[list(targets)]


def check_codeword(gen: GenMatrix, symbols: np.ndarray) -> bool:
    """True iff the parity positions equal the re-encoded parities."""
    symbols = np.asarray(symbols)
    if symbols.shape[0] != gen.eta:
        raise ValueError(f"expected {gen.eta} symbols, got {symbols.shape[0]}")
    parity = gen.field.matmul_regions(gen.parity_block.T, symbols[:gen.kappa])
    return bool(np.array_equal(parity, symbols[gen.kappa:]))
