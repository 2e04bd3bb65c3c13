"""Brute-force references: dense matrix materialization, exhaustive decoding,
and collision counts one string pair at a time.

These exist to validate the sparse fast paths in the tests, not to scale;
materialization and exhaustive decoding carry hard size guards and raise
TooLarge beyond them.  The dense matrix lays out one column per item: t1
batch-1 rows (the item's masking string) followed by t1*ell batch-2 rows
(the codeword's bits, ell little-endian bits per symbol, placed under the
string's 1-positions).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from bitmix.bundle import DesignBundle
from bitmix.errors import BitmixError, InvalidInput, ShapeMismatch
from bitmix.scheme import Batch1Outcome, Batch2Outcome

DENSE_LIMIT = 4096
EXHAUSTIVE_N_LIMIT = 24
EXHAUSTIVE_K_LIMIT = 3


class TooLarge(BitmixError, ValueError):
    """Brute-force oracle invoked beyond its size guard."""


@dataclass
class MaskingString:
    """One string in sparse form: offsets[j] is the 1-position in segment j."""

    offsets: np.ndarray
    segment_len: int

    def __post_init__(self):
        self.offsets = np.asarray(self.offsets, dtype=np.int64)
        if self.offsets.ndim != 1 or self.offsets.size < 1:
            raise InvalidInput("offsets must be a non-empty vector")
        if self.offsets.min() < 0 or self.offsets.max() >= self.segment_len:
            raise InvalidInput(f"offsets must lie in [0, {self.segment_len})")

    @property
    def weight(self) -> int:
        return self.offsets.size

    def to_bits(self) -> np.ndarray:
        """Dense 0/1 form, length segment_len * w."""
        bits = np.zeros(self.segment_len * self.weight, dtype=np.uint8)
        bits[np.arange(self.weight) * self.segment_len + self.offsets] = 1
        return bits


def collisions(a: MaskingString, b: MaskingString) -> int:
    """Number of segments where a and b share their 1-position (= dense dot)."""
    if a.segment_len != b.segment_len or a.weight != b.weight:
        raise ShapeMismatch(
            f"strings disagree on (segment_len, w): "
            f"({a.segment_len}, {a.weight}) vs ({b.segment_len}, {b.weight})"
        )
    return int(np.count_nonzero(a.offsets == b.offsets))


def collision_matrix(offsets) -> np.ndarray:
    """|S| x |S| collision counts of the rows of offsets (diagonal = w)."""
    offsets = np.asarray(offsets)
    return np.array([(offsets == row).sum(axis=1) for row in offsets])


def symbol_bits(symbols, ell: int) -> np.ndarray:
    """ell little-endian bits per symbol, symbol j at bits [j*ell, (j+1)*ell)."""
    symbols = np.atleast_1d(symbols)
    return np.array([(int(s) >> b) & 1 for s in symbols for b in range(ell)], dtype=np.uint8)


def bits_symbols(bits, ell: int) -> np.ndarray:
    """Inverse of symbol_bits."""
    return sum(np.asarray(bits[b::ell], dtype=np.int64) << b for b in range(ell))


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
    # int64: the batch-2 rows pos * ell pass the narrow positions' range.
    positions = bundle.masking.positions(string_idx).astype(np.int64)
    bit_offsets = np.arange(ell, dtype=np.int64)
    for col in range(params.n):
        pos = positions[col]
        matrix[pos, col] = 1
        cw_bits = symbol_bits(bundle.codebook.encode_index(col + 1), ell)
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
    y2 = Batch2Outcome(bits_symbols(merged[dense.t1 :], dense.ell), dense.ell)
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
    target_bits = np.concatenate([y1.bits, symbol_bits(y2.symbols, y2.ell)])
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
