"""Brute-force references: dense matrix materialization and exhaustive decoding.

These exist to validate the sparse fast paths in the tests, not to scale;
both operations carry hard size guards and raise TooLarge beyond them.  The
dense matrix lays out one column per item: t1 batch-1 rows (the item's
masking string) followed by t1*ell batch-2 rows (the packed codeword bits
placed under the string's 1-positions).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from bitmix.bundle import DesignBundle
from bitmix.code import symbol_pack
from bitmix.errors import BitmixError
from bitmix.scheme import Batch1Outcome, Batch2Outcome

DENSE_LIMIT = 4096
EXHAUSTIVE_N_LIMIT = 24
EXHAUSTIVE_K_LIMIT = 3


class TooLarge(BitmixError, ValueError):
    """Brute-force oracle invoked beyond its size guard."""


@dataclass
class DenseDesign:
    matrix: np.ndarray  # (t1 + t1*ell, n) uint8
    t1: int
    ell: int

    @property
    def n(self) -> int:
        return self.matrix.shape[1]

    @property
    def t(self) -> int:
        return self.matrix.shape[0]


def materialize(bundle: DesignBundle, limit: int = DENSE_LIMIT) -> DenseDesign:
    """Explicit t x n test matrix for every item (guarded: n <= limit)."""
    params = bundle.params
    if params.n > limit:
        raise TooLarge(f"dense materialization capped at n <= {limit}, got {params.n}")
    t1, ell, w = params.t1, params.ell, params.w
    matrix = np.zeros((t1 + t1 * ell, params.n), dtype=np.uint8)
    string_idx = bundle.assignment.index_of(np.arange(1, params.n + 1))
    positions = bundle.masking.flat_positions[string_idx]
    bit_offsets = np.arange(ell, dtype=np.int64)
    for col in range(params.n):
        pos = positions[col]
        matrix[pos, col] = 1
        cw_bits = symbol_pack(bundle.codebook.encode_index(col + 1), ell)
        rows = t1 + (pos[:, None] * ell + bit_offsets[None, :]).ravel()
        matrix[rows, col] = cw_bits
    assert matrix[:t1].sum(axis=0).tolist() == [w] * params.n
    return DenseDesign(matrix, t1, ell)


def dense_outcomes(dense: DenseDesign, defectives) -> tuple[Batch1Outcome, Batch2Outcome]:
    """OR of the defective columns, split into the two batches (noiseless)."""
    defectives = np.atleast_1d(np.asarray(defectives, dtype=np.int64))
    if defectives.size:
        merged = dense.matrix[:, defectives - 1].max(axis=1)
    else:
        merged = np.zeros(dense.t, dtype=np.uint8)
    y1 = Batch1Outcome(merged[: dense.t1])
    y2 = Batch2Outcome.from_bits(merged[dense.t1 :], dense.ell)
    return y1, y2


def exhaustive_decode(
    y1: Batch1Outcome,
    y2: Batch2Outcome,
    dense: DenseDesign,
    k: int,
) -> list[frozenset]:
    """All defective sets of size <= k exactly consistent with the outcomes.

    Noiseless only.  Columns are bit-packed so each candidate subset costs a
    few hundred byte operations; guards keep the subset count tiny.
    """
    if dense.n > EXHAUSTIVE_N_LIMIT or k > EXHAUSTIVE_K_LIMIT:
        raise TooLarge(
            f"exhaustive decoding capped at n <= {EXHAUSTIVE_N_LIMIT}, "
            f"k <= {EXHAUSTIVE_K_LIMIT}"
        )
    target_bits = np.concatenate([y1.bits, y2.to_bits()])
    target = np.packbits(target_bits, bitorder="little")
    packed = np.packbits(dense.matrix, axis=0, bitorder="little")

    consistent: list[frozenset] = []
    if not target_bits.any():
        consistent.append(frozenset())
    for size in range(1, k + 1):
        combos = np.array(
            list(itertools.combinations(range(dense.n), size)), dtype=np.int64
        )
        if combos.size == 0:
            continue
        merged = packed[:, combos[:, 0]]
        for j in range(1, size):
            merged = merged | packed[:, combos[:, j]]
        hits = np.nonzero((merged == target[:, None]).all(axis=0))[0]
        consistent.extend(frozenset(int(i) + 1 for i in combos[h]) for h in hits)
    return consistent
