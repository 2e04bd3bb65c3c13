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
erasures only when noiseless, errors and erasures under noise.  The outcomes
are frozen, and each is checked once, in O(t1), where it is made; the decode
checks only its shape and ell, and the words built from it are not checked
again.  Work is then at most O(|S| w) for batch 1, and about O(|S| + |L| w)
on a noiseless outcome, where almost every string drops out after a few segments
(`MaskingSet.reaching`); plus about O(|L| T m w) for the candidate stage of
`Codebook.decode_words` (T = 1 noiseless; under noise 8 for every word and
32 for a word that none of its first 8 fits: one Lagrange interpolation and
one re-encode, m gathers a symbol, per m-tuple), plus O(|L'| w^2) for the
|L'| noisy words that no candidate fits (syndromes, Berlekamp-Massey, Chien
search) - no term depends on n except through w and m.

`outcomes_to_bytes` / `outcomes_from_bytes` carry both batches as packed
little-endian bits, t1 (ell + 1) in all.  Batch 2 moves a byte of each
symbol at a time, so the codec holds a few bytes of scratch per symbol
besides the blob and the symbols, and no (t1, ell) table of bits.
"""

from __future__ import annotations

import math
import struct
import time
from dataclasses import dataclass

import numpy as np

from .code import Codebook
from .errors import InvalidInput, MalformedResultFile
from .masking import MaskingSet, tally
from .params import SchemeParams, checked_array, checked_integer
from .seeding import GOLDEN64, mix64, mix64_array

OUTCOME_MAGIC = b"BMXO"
OUTCOME_VERSION = 1

# Batch-2 noise draws held at once by `simulate_outcomes` (128 KB of float64).
_NOISE_BLOCK = 1 << 14


@dataclass(frozen=True)
class Assignment:
    """Deterministic pseudorandom map item index -> string index.

    A keyed integer hash (splitmix64 finalizer) reduced mod s_size; any
    item's string is recomputable on demand, so no O(n) table exists anywhere.
    """

    seed: int
    s_size: int

    def index_of(self, items) -> np.ndarray:
        items = checked_array("items", np.atleast_1d(np.asarray(items)), 1, 1 << 64, np.uint64)
        key = np.uint64(mix64((self.seed * GOLDEN64) & ((1 << 64) - 1)))
        h = mix64_array((items + np.uint64(1)) * np.uint64(GOLDEN64) + key)
        return (h % np.uint64(self.s_size)).astype(np.int64)


def _symbol_type(ell: int) -> np.dtype:
    """The narrowest unsigned type that holds an ell-bit symbol below 2^63."""
    return np.min_scalar_type((1 << min(ell, 63)) - 1)


def _frozen(name: str, values, bound: int, dtype) -> np.ndarray:
    """values as a checked, read-only 1-D dtype array (see checked_array).

    A writable array of the caller's is copied; a read-only one is kept."""
    arr = checked_array(name, values, 1, bound, dtype)
    if arr.flags.writeable:
        # The caller's own array, or a view of one, is copied.
        if arr is values or not arr.flags.owndata:
            arr = arr.copy()
        arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Batch1Outcome:
    """The t1 batch-1 outcomes, each 0 or 1.

    Frozen, with a read-only uint8 array checked once, at construction; a
    copy or pickle is rebuilt through the constructor.
    """

    bits: np.ndarray  # (t1,) uint8 in {0, 1}

    def __post_init__(self):
        object.__setattr__(self, "bits", _frozen("batch-1 outcome", self.bits, 2, np.uint8))

    def __reduce__(self):
        return Batch1Outcome, (self.bits,)


@dataclass(frozen=True)
class Batch2Outcome:
    """The t1 batch-2 symbols, each ell bits.

    Frozen, with a read-only array checked once, at construction, in the
    narrowest unsigned type that holds 2^ell - 1: uint16 up to ell = 16.
    Symbols lie below 2^63 whatever ell is, as the outcome codec requires.
    A copy or pickle is rebuilt through the constructor.
    """

    symbols: np.ndarray  # (t1,) values in [0, min(2^ell, 2^63))
    ell: int

    def __post_init__(self):
        ell = checked_integer("ell", self.ell, low=1)
        symbols = _frozen("batch-2 outcome", self.symbols, 1 << min(ell, 63), _symbol_type(ell))
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "symbols", symbols)

    def __reduce__(self):
        return Batch2Outcome, (self.symbols, self.ell)


def batch1_threshold(params: SchemeParams) -> int:
    """Decision threshold on s^T y1: w noiseless, ceil((2w/c1 + w)/2) noisy."""
    if params.xi == 0.0:
        return params.w
    return math.ceil((2.0 * params.w / params.c1 + params.w) / 2.0)


def _checked_defectives(defectives, params: SchemeParams) -> np.ndarray:
    """defectives as int64 item indices, refused unless <= k distinct integers in [1, n]."""
    defectives = checked_array(
        "defectives", np.atleast_1d(np.asarray(defectives)), 1, params.n + 1, np.int64
    )
    if defectives.size > params.k:
        raise InvalidInput(f"|K| = {defectives.size} exceeds k = {params.k}")
    if defectives.size:
        if defectives.min() < 1:
            raise InvalidInput("defective indices must lie in [1, n]")
        # A sort, not np.unique, which imports numpy.ma on its first call.
        ordered = np.sort(defectives)
        if (ordered[1:] == ordered[:-1]).any():
            raise InvalidInput("defective set contains repeats")
    return defectives


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
    defectives = _checked_defectives(defectives, params)

    y1 = np.zeros(params.t1, dtype=np.uint8)
    symbols = np.zeros(params.t1, dtype=_symbol_type(params.ell))
    if defectives.size:
        string_idx = assignment.index_of(defectives)
        # intp: numpy scatters through int32 indices about twice as slowly.
        positions = mset.positions(string_idx).astype(np.intp)
        y1[positions.ravel()] = 1
        for row, item in enumerate(defectives):
            symbols[positions[row]] |= codebook.encode_index(int(item)).astype(symbols.dtype)

    if params.xi > 0.0:
        if rng is None:
            raise InvalidInput("xi > 0 requires an rng for the noise draws")
        y1 ^= rng.random(params.t1) < params.xi
        # Flips in batch-2 test order: bit b of symbol j is test j*ell + b.
        # Drawn a block of symbols at a time; the generator fills in order,
        # so the stream is that of one (t1, ell) draw.
        weights = (1 << np.arange(params.ell)).astype(symbols.dtype)
        step = max(1, _NOISE_BLOCK // params.ell)
        for lo in range(0, params.t1, step):
            flips = rng.random((min(step, params.t1 - lo), params.ell)) < params.xi
            symbols[lo : lo + step] ^= flips @ weights

    # Read-only, so that the outcomes keep them with no copy.
    y1.flags.writeable = symbols.flags.writeable = False
    return Batch1Outcome(y1), Batch2Outcome(symbols, params.ell)


def identify_strings(y1: Batch1Outcome, mset: MaskingSet, threshold: int) -> np.ndarray:
    """Indices (ascending) of strings with s^T y1 >= threshold, at most w gathers each.

    Raises InvalidInput unless y1 holds the design's t1 bits and the
    threshold is an integer >= 0.
    """
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
    words, in the symbols' own narrow type, goes through the decode of
    `Codebook.decode_words`, unchecked: y2 was checked when it was made.
    Strings whose word fails to decode are dropped and tallied: (string
    index, reason) pairs.  Returns (estimate set, failures).  Raises
    InvalidInput unless y2, the string list (indices in [0, |S|)) and the
    codebook's w and ell fit the design.
    """
    params = mset.params
    if y2.symbols.shape != (params.t1,) or y2.ell != params.ell:
        raise InvalidInput(f"batch-2 outcome must be {params.t1} symbols of ell = {params.ell} "
                           f"bits, got shape {y2.symbols.shape} with ell = {y2.ell}")
    if (codebook.w, codebook.ell) != (params.w, params.ell):
        raise InvalidInput("the codebook's w and ell must be the design's")
    string_list = checked_array("string list", string_list, 1, len(mset), np.int64)
    positions = mset.positions(string_list).astype(np.intp)
    # A string never repeats a position, so a count above 1 is a collision.
    erased = tally(positions, params.t1).take(positions) > 1
    words = y2.symbols.take(positions)
    np.putmask(words, erased, 0)
    items, errors = codebook._decode(words, erased, noisy)
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


def decode(
    y1: Batch1Outcome,
    y2: Batch2Outcome,
    mset: MaskingSet,
    codebook: Codebook,
    threshold: int | None = None,
) -> DecodeResult:
    """Full pipeline: string identification, then per-string index recovery.

    Raises InvalidInput when the outcomes do not fit the design (y1 must
    hold t1 bits, y2 t1 symbols of the design's ell), or when the threshold
    is not an integer >= 0.
    """
    params = mset.params
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
# Outcome serialization: 16-byte header + little-endian packed bits; batch 2
# has ell little-endian bits per symbol, symbol j at bits [j*ell, (j+1)*ell).
# Eight symbols fill ell whole bytes, so symbol 8a + r starts at bit
# (r*ell) % 8 of byte a*ell + (r*ell) // 8: for each r the symbols are one
# strided view of the body, stride ell bytes, and the codec moves them a
# byte of each symbol at a time, never a bit at a time.

_HEADER = struct.Struct("<4sHHQ")


def _symbol_bytes(ell: int):
    """(r, first byte, shift, bytes) of the eight residues r of the batch-2 layout.

    A symbol is below 2^63 whatever ell is, so only its first min(ell, 63)
    bits can be 1, and they span at most 9 bytes.
    """
    width = min(ell, 63)
    for r in range(8):
        start, shift = divmod(r * ell, 8)
        yield r, start, shift, (shift + width + 7) // 8


def _pack_symbols(symbols: np.ndarray, ell: int) -> bytes:
    """The batch-2 bitstream of symbols in [0, min(2^ell, 2^63)): ceil(t1*ell / 8) bytes."""
    n2 = (symbols.size * ell + 7) // 8
    out = np.zeros(n2 + 9, dtype=np.uint8)  # the spare bytes take the last windows
    for r, start, shift, count in _symbol_bytes(ell):
        v = symbols[r::8].astype(np.uint64)
        stop = start + v.size * ell
        out[start:stop:ell] |= (v << np.uint64(shift)).astype(np.uint8)
        for k in range(1, count):
            out[start + k : stop + k : ell] |= (v >> np.uint64(8 * k - shift)).astype(np.uint8)
    return out[:n2].tobytes()


def _unpack_symbols(body: np.ndarray, t1: int, ell: int) -> np.ndarray:
    """t1 read-only symbols from the batch-2 bitstream body (uint8), in their
    narrowest type; its padding bits are not read.

    Raises MalformedResultFile when a symbol has a 1 at bit 63 or above.
    """
    raw = np.zeros(body.size + 9, dtype=np.uint8)
    raw[: body.size] = body
    symbols = np.empty(t1, dtype=_symbol_type(ell))
    mask = np.uint64((1 << min(ell, 63)) - 1)
    for r, start, shift, count in _symbol_bytes(ell):
        stop = start + (t1 - r + 7) // 8 * ell
        v = (raw[start:stop:ell] >> np.uint8(shift)).astype(np.uint64)
        for k in range(1, count):
            v |= raw[start + k : stop + k : ell].astype(np.uint64) << np.uint64(8 * k - shift)
        v &= mask
        symbols[r::8] = v
    if ell > 63 and t1:
        # The bits past 63 were not read: the symbols must pack back to the body.
        again = np.frombuffer(_pack_symbols(symbols, ell), dtype=np.uint8)
        tail = np.uint8((1 << (t1 * ell % 8 or 8)) - 1)
        if not np.array_equal(again[:-1], body[:-1]) or (again[-1] ^ body[-1]) & tail:
            raise MalformedResultFile("a batch-2 symbol exceeds 2^63 - 1")
    symbols.flags.writeable = False
    return symbols


def outcomes_to_bytes(y1: Batch1Outcome, y2: Batch2Outcome) -> bytes:
    # The outcomes were checked when they were made, and are frozen.
    t1 = y1.bits.size
    if y2.symbols.size != t1:
        raise InvalidInput("batch sizes disagree")
    if y2.ell > 0xFFFF:
        raise InvalidInput(f"ell = {y2.ell} exceeds 65535, the largest the outcome header holds")
    header = _HEADER.pack(OUTCOME_MAGIC, OUTCOME_VERSION, y2.ell, t1)
    body1 = np.packbits(y1.bits, bitorder="little").tobytes()
    return header + body1 + _pack_symbols(y2.symbols, y2.ell)


def outcomes_from_bytes(blob: bytes):
    if len(blob) < _HEADER.size:
        raise MalformedResultFile("outcome blob shorter than its header")
    magic, version, ell, t1 = _HEADER.unpack_from(blob)
    if magic != OUTCOME_MAGIC:
        raise MalformedResultFile(f"bad outcome magic {magic!r}")
    if version != OUTCOME_VERSION:
        raise MalformedResultFile(f"unsupported outcome version {version}")
    if ell < 1:
        raise MalformedResultFile("outcome header gives ell = 0")
    n1 = (t1 + 7) // 8
    n2 = (t1 * ell + 7) // 8
    if len(blob) != _HEADER.size + n1 + n2:
        raise MalformedResultFile("outcome blob length disagrees with its header")
    raw = np.frombuffer(blob, dtype=np.uint8, offset=_HEADER.size)
    bits1 = np.unpackbits(raw[:n1], count=t1, bitorder="little")
    bits1.flags.writeable = False
    return Batch1Outcome(bits1), Batch2Outcome(_unpack_symbols(raw[n1:], t1, ell), ell)
