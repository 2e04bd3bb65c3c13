"""Two-batch test design, OR channel with optional noise, and decoding.

Batch 1 carries each defective's masking string (t1 tests); batch 2 carries,
under each masking-string 1-position, the ell-bit little-endian expansion of
one codeword symbol of the item's index (t2 = ell * t1 tests).  Outcomes are
ORs over the defectives, then i.i.d. bit flips with probability xi.

Decoding never touches the item->string assignment: batch 1 is scanned for
strings whose 1-positions are sufficiently covered (threshold w when
noiseless, ceil((2w/c1 + w)/2) under noise), and each surviving string reads
its w symbols out of batch 2, erasing positions where another surviving
string also has a 1.  The |L| words then go through one batched decode:
erasures only when noiseless, errors and erasures under noise.  Work is at
most O(|S| w) for batch 1, and about O(|S| + |L| w) on a noiseless outcome,
where almost every string drops out after a few segments
(`MaskingSet.reaching`); plus about O(|L| T m w) for the candidate stage
of `Codebook.decode_words` (T = 1 noiseless, 32 under noise: one Lagrange
interpolation and one re-encode per m-tuple), plus
O(|L'| w^2) for the |L'| noisy words that no candidate fits (syndromes,
Berlekamp-Massey, Chien search) - no term depends on n except through w
and m.
"""

from __future__ import annotations

import math
import struct
import time
from dataclasses import dataclass

import numpy as np

from .code import ERASURE, Codebook, symbol_pack, symbol_unpack
from .errors import InvalidInput, MalformedResultFile
from .masking import MaskingSet
from .params import SchemeParams
from .seeding import GOLDEN64, mix64, mix64_array

OUTCOME_MAGIC = b"BMXO"
OUTCOME_VERSION = 1


@dataclass(frozen=True)
class Assignment:
    """Deterministic pseudorandom map item index -> string index.

    A keyed integer hash (splitmix64 finalizer) reduced mod s_size; any
    item's string is recomputable on demand, so no O(n) table exists anywhere.
    """

    seed: int
    s_size: int

    def index_of(self, items) -> np.ndarray:
        items = np.atleast_1d(np.asarray(items, dtype=np.uint64))
        key = np.uint64(mix64((self.seed * GOLDEN64) & ((1 << 64) - 1)))
        h = mix64_array((items + np.uint64(1)) * np.uint64(GOLDEN64) + key)
        return (h % np.uint64(self.s_size)).astype(np.int64)

    def __call__(self, item: int) -> int:
        return int(self.index_of(item)[0])


@dataclass
class Batch1Outcome:
    bits: np.ndarray  # (t1,) uint8 in {0, 1}

    def __post_init__(self):
        self.bits = np.asarray(self.bits, dtype=np.uint8)
        if self.bits.ndim != 1:
            raise InvalidInput("batch-1 outcome must be a flat bit vector")


@dataclass
class Batch2Outcome:
    symbols: np.ndarray  # (t1,) values in [0, 2^ell)
    ell: int

    def __post_init__(self):
        self.symbols = np.asarray(self.symbols, dtype=np.int64)
        if self.symbols.ndim != 1:
            raise InvalidInput("batch-2 outcome must be a flat symbol vector")

    def to_bits(self) -> np.ndarray:
        return symbol_pack(self.symbols, self.ell)

    @classmethod
    def from_bits(cls, bits, ell: int) -> "Batch2Outcome":
        return cls(symbol_unpack(bits, ell), ell)


def batch1_threshold(params: SchemeParams) -> int:
    """Decision threshold on s^T y1: w noiseless, ceil((2w/c1 + w)/2) noisy."""
    if params.xi == 0.0:
        return params.w
    return math.ceil((2.0 * params.w / params.c1 + params.w) / 2.0)


def _validate_defectives(defectives: np.ndarray, params: SchemeParams) -> None:
    if defectives.size > params.k:
        raise InvalidInput(f"|K| = {defectives.size} exceeds k = {params.k}")
    if defectives.size:
        if defectives.min() < 1 or defectives.max() > params.n:
            raise InvalidInput("defective indices must lie in [1, n]")
        if np.unique(defectives).size != defectives.size:
            raise InvalidInput("defective set contains repeats")


def simulate_outcomes(
    defectives,
    assignment: Assignment,
    mset: MaskingSet,
    codebook: Codebook,
    rng: np.random.Generator | None = None,
):
    """Forward model: outcomes of both batches for a given defective set.

    Noise level comes from mset.params.xi; a Generator is required iff
    xi > 0 (flips for batch 1 are drawn before batch 2).  Cost O(|K| w).
    """
    params = mset.params
    defectives = np.atleast_1d(np.asarray(defectives, dtype=np.int64))
    _validate_defectives(defectives, params)

    y1 = np.zeros(params.t1, dtype=np.uint8)
    symbols = np.zeros(params.t1, dtype=np.int64)
    if defectives.size:
        string_idx = assignment.index_of(defectives)
        positions = mset.flat_positions[string_idx]
        y1[positions.ravel()] = 1
        for row, item in enumerate(defectives):
            symbols[positions[row]] |= codebook.encode_index(int(item))

    if params.xi > 0.0:
        if rng is None:
            raise InvalidInput("xi > 0 requires an rng for the noise draws")
        y1 ^= rng.random(params.t1) < params.xi
        bits2 = symbol_pack(symbols, params.ell)
        bits2 ^= rng.random(params.t1 * params.ell) < params.xi
        symbols = symbol_unpack(bits2, params.ell)

    return Batch1Outcome(y1), Batch2Outcome(symbols, params.ell)


def identify_strings(y1: Batch1Outcome, mset: MaskingSet, threshold: int) -> np.ndarray:
    """Indices (ascending) of strings with s^T y1 >= threshold, at most w gathers each."""
    return mset.reaching(y1.bits, threshold)


def identify_items(
    y2: Batch2Outcome,
    string_list: np.ndarray,
    mset: MaskingSet,
    codebook: Codebook,
    noisy: bool,
):
    """Decode one item index per surviving string, all strings at once.

    For each string in the list, its w received symbols are read from y2 with
    positions shared with *another listed string* marked as erasures (per the
    list's collision pattern, not the received values).  The (L, w) matrix of
    words goes through one `Codebook.decode_words` call.  Strings whose word
    fails to decode are dropped and tallied: (string index, reason) pairs.
    Returns (estimate set, failures).
    """
    string_list = np.asarray(string_list, dtype=np.int64)
    positions = mset.flat_positions[string_list]
    erased = mset.usage(string_list)[positions] > 1  # a string never repeats a position
    words = np.where(erased, ERASURE, y2.symbols[positions])
    items, errors = codebook.decode_words(words, noisy)
    estimate = {item for item in items if item is not None}
    failures = [
        (int(string), type(error).__name__)
        for string, error in zip(string_list, errors)
        if error is not None
    ]
    return estimate, failures


@dataclass
class DecodeResult:
    estimate: set
    string_list: np.ndarray
    failures: list
    batch1_seconds: float
    batch2_seconds: float

    @property
    def total_seconds(self) -> float:
        return self.batch1_seconds + self.batch2_seconds


def decode(
    y1: Batch1Outcome,
    y2: Batch2Outcome,
    mset: MaskingSet,
    codebook: Codebook,
    threshold: int | None = None,
) -> DecodeResult:
    """Full pipeline: string identification, then per-string index recovery.

    Raises InvalidInput when the outcomes do not fit the design: y1 must be
    t1 bits in {0, 1}, y2 must be t1 symbols in [0, 2^ell) for the design's
    ell.
    """
    params = mset.params
    if y1.bits.shape != (params.t1,) or y1.bits.max(initial=0) > 1:
        raise InvalidInput(f"batch-1 outcome must be {params.t1} bits in {{0, 1}}")
    symbols = y2.symbols
    if (
        symbols.shape != (params.t1,)
        or y2.ell != params.ell
        or symbols.min(initial=0) < 0
        or symbols.max(initial=0) >= params.q
    ):
        raise InvalidInput(
            f"batch-2 outcome must be {params.t1} symbols in [0, 2^{params.ell}), "
            f"got shape {symbols.shape} with ell={y2.ell}"
        )
    if threshold is None:
        threshold = batch1_threshold(params)
    t0 = time.perf_counter()
    string_list = identify_strings(y1, mset, threshold)
    t1 = time.perf_counter()
    estimate, failures = identify_items(
        y2, string_list, mset, codebook, noisy=params.xi > 0.0
    )
    t2 = time.perf_counter()
    return DecodeResult(estimate, string_list, failures, t1 - t0, t2 - t1)


# ---------------------------------------------------------------------------
# Outcome serialization: 16-byte header + little-endian packed bits.

_HEADER = struct.Struct("<4sHHQ")


def outcomes_to_bytes(y1: Batch1Outcome, y2: Batch2Outcome) -> bytes:
    t1 = y1.bits.size
    if y2.symbols.size != t1:
        raise InvalidInput("batch sizes disagree")
    header = _HEADER.pack(OUTCOME_MAGIC, OUTCOME_VERSION, y2.ell, t1)
    body1 = np.packbits(y1.bits, bitorder="little").tobytes()
    body2 = np.packbits(y2.to_bits(), bitorder="little").tobytes()
    return header + body1 + body2


def outcomes_from_bytes(blob: bytes):
    if len(blob) < _HEADER.size:
        raise MalformedResultFile("outcome blob shorter than its header")
    magic, version, ell, t1 = _HEADER.unpack_from(blob)
    if magic != OUTCOME_MAGIC:
        raise MalformedResultFile(f"bad outcome magic {magic!r}")
    if version != OUTCOME_VERSION:
        raise MalformedResultFile(f"unsupported outcome version {version}")
    n1 = (t1 + 7) // 8
    n2 = (t1 * ell + 7) // 8
    if len(blob) != _HEADER.size + n1 + n2:
        raise MalformedResultFile("outcome blob length disagrees with its header")
    raw = np.frombuffer(blob, dtype=np.uint8, offset=_HEADER.size)
    bits1 = np.unpackbits(raw[:n1], bitorder="little")[:t1]
    bits2 = np.unpackbits(raw[n1:], bitorder="little")[: t1 * ell]
    return Batch1Outcome(bits1), Batch2Outcome.from_bits(bits2, ell)


def write_outcomes(path, y1: Batch1Outcome, y2: Batch2Outcome) -> None:
    with open(path, "wb") as fh:
        fh.write(outcomes_to_bytes(y1, y2))


def read_outcomes(path):
    with open(path, "rb") as fh:
        return outcomes_from_bytes(fh.read())
