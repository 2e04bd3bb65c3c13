import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bitmix import code
from bitmix.code import ERASURE, Codebook
from bitmix.errors import (
    DecodingFailure,
    InconsistentWord,
    IndexOutOfRange,
    InvalidInput,
    MalformedResultFile,
    TooManyErasures,
)
from bitmix.gf import get_field
from bitmix.scheme import (
    Batch1Outcome,
    Batch2Outcome,
    _bit_symbols,
    _symbol_bits,
    outcomes_from_bytes,
    outcomes_to_bytes,
)


def test_encode_shapes_and_range():
    cb = Codebook(n=2**20, w=381, ell=9)
    assert cb.m == 3
    word = cb.encode_index(1)
    assert word.shape == (381,)
    assert word.min() >= 0 and word.max() < 2**9


def test_encode_index_bounds():
    cb = Codebook(n=100, w=10, ell=4)
    with pytest.raises(IndexOutOfRange):
        cb.encode_index(0)
    with pytest.raises(IndexOutOfRange):
        cb.encode_index(101)
    cb.encode_index(100)  # boundary is valid
    assert Codebook(n=np.int64(100), w=10, ell=4).m == cb.m


def test_codewords_distinct_small():
    cb = Codebook(n=64, w=6, ell=3)
    words = [cb.encode_index(i) for i in range(1, 65)]
    assert len({tuple(row) for row in words}) == 64


def test_mds_distance_exhaustive_tiny():
    # every pair of distinct codewords differs in >= w - m + 1 coordinates
    cb = Codebook(n=49, w=7, ell=3)
    assert cb.m == 2
    words = np.array([cb.encode_index(i) for i in range(1, 50)])
    for a in range(49):
        diffs = np.count_nonzero(words != words[a], axis=1)
        diffs[a] = cb.w
        assert diffs.min() >= cb.w - cb.m + 1


def test_erasure_round_trip_random():
    cb = Codebook(n=2**20, w=381, ell=9)
    rng = np.random.default_rng(11)
    draws = ((cb, int(rng.integers(1, cb.n + 1))) for _ in range(200))
    # at n = 2^54 + 1 a float log2 n gives m = 6, and item n's word is item 1's
    big = Codebook(n=2**54 + 1, w=381, ell=9)
    for code, i in itertools.chain(draws, [(big, big.n), (big, 1)]):
        word = code.encode_index(i).copy()
        f = int(rng.integers(0, code.w - code.m + 1))
        drop = rng.choice(code.w, size=f, replace=False)
        word[drop] = ERASURE
        assert code.decode_erasures(word) == i


def test_erasure_limit():
    cb = Codebook(n=2**12, w=10, ell=4)
    word = cb.encode_index(7).copy()
    word[: cb.w - cb.m + 1] = ERASURE
    with pytest.raises(TooManyErasures):
        cb.decode_erasures(word)


def test_erasures_detect_corruption():
    cb = Codebook(n=2**12, w=10, ell=4)
    word = cb.encode_index(7).copy()
    word[0] ^= 1  # an error, not an erasure
    with pytest.raises(InconsistentWord):
        cb.decode_erasures(word)


def test_erasures_reject_out_of_range_index():
    # A valid polynomial whose message encodes an index above n must not be
    # reported as a success.
    big = Codebook(n=2**8, w=10, ell=4)
    small = Codebook(n=17, w=10, ell=4)
    word = big.encode_index(200)
    with pytest.raises(InconsistentWord):
        small.decode_erasures(word)


def test_received_word_validation():
    cb = Codebook(n=100, w=10, ell=4)
    with pytest.raises(InvalidInput):
        cb.decode_erasures(np.zeros(9, dtype=np.int64))
    bad = np.zeros(10, dtype=np.int64)
    bad[3] = 16
    with pytest.raises(InvalidInput):
        cb.decode_erasures(bad)
    with pytest.raises(InvalidInput):
        cb.decode_erasures(np.zeros((2, 5), dtype=np.int64))


def test_erasure_patterns_exhaustive_small():
    # all messages x all erasure patterns up to the guarantee, on a code
    # small enough to enumerate completely
    cb = Codebook(n=30, w=6, ell=5)
    assert cb.m == 1
    for i in range(1, 31):
        base = cb.encode_index(i)
        for f in range(0, cb.w - cb.m + 1):
            for pattern in itertools.combinations(range(cb.w), f):
                word = base.copy()
                word[list(pattern)] = ERASURE
                assert cb.decode_erasures(word) == i


def test_eee_within_radius():
    cb = Codebook(n=2**14, w=30, ell=5)
    rng = np.random.default_rng(5)
    for _ in range(400):
        i = int(rng.integers(1, cb.n + 1))
        word = cb.encode_index(i).copy()
        budget = cb.w - cb.m  # need 2e + f <= w - m
        f = int(rng.integers(0, budget // 2 + 1))
        e = int(rng.integers(0, (budget - f) // 2 + 1))
        hit = rng.choice(cb.w, size=f + e, replace=False)
        word[hit[:f]] = ERASURE
        for pos in hit[f:]:
            word[pos] ^= int(rng.integers(1, 2**cb.ell))
        assert cb.decode_errors_and_erasures(word) == i


def test_eee_zero_message_with_errors():
    # the all-zero codeword must survive errors: the locator division ends
    # with a zero numerator, which is a success case, not a failure
    cb = Codebook(n=2**12, w=20, ell=5)
    word = cb.encode_index(1).copy()
    assert not word.any()
    word[3] = 9
    word[11] = 1
    assert cb.decode_errors_and_erasures(word) == 1


def test_eee_never_silently_wrong():
    # beyond the radius the decoder may refuse or may land on some other
    # codeword, but any answer it gives must itself be within the radius
    # of what was received
    cb = Codebook(n=2**10, w=12, ell=4)
    rng = np.random.default_rng(17)
    refused = accepted = 0
    for _ in range(400):
        i = int(rng.integers(1, cb.n + 1))
        word = cb.encode_index(i).copy()
        e = int(rng.integers((cb.w - cb.m) // 2 + 1, cb.w + 1))
        hit = rng.choice(cb.w, size=e, replace=False)
        for pos in hit:
            word[pos] ^= int(rng.integers(1, 2**cb.ell))
        try:
            got = cb.decode_errors_and_erasures(word)
        except DecodingFailure:
            refused += 1
            continue
        accepted += 1
        dist = int(np.count_nonzero(cb.encode_index(got) != word))
        assert 2 * dist <= cb.w - cb.m
    assert refused > 0  # the guard actually fires in this regime


def test_eee_too_few_survivors():
    cb = Codebook(n=2**10, w=12, ell=4)
    word = np.full(12, ERASURE, dtype=np.int64)
    with pytest.raises(DecodingFailure):
        cb.decode_errors_and_erasures(word)


def test_eee_clean_word_fast_path():
    cb = Codebook(n=2**16, w=259, ell=9)
    for i in (1, 2**15, 2**16):
        assert cb.decode_errors_and_erasures(cb.encode_index(i)) == i


def test_degenerate_single_item():
    cb = Codebook(n=1, w=1, ell=2)
    assert cb.m == 1
    word = cb.encode_index(1)
    assert cb.decode_erasures(word) == 1


# The batch-2 symbols are sent as ell little-endian bits each; the layout
# lives beside the outcome bytes in scheme.py.


def test_symbol_pack_example():
    assert _symbol_bits(np.array([5]), ell=3).tolist() == [1, 0, 1]


def test_symbol_pack_block():
    bits = _symbol_bits(np.array([5, 1]), ell=3)
    assert bits.tolist() == [1, 0, 1, 1, 0, 0]


def test_symbol_pack_range_check():
    y1 = Batch1Outcome(np.zeros(2, dtype=np.uint8))
    y2 = Batch2Outcome(np.array([5, 1]), ell=3)
    y2.symbols = np.array([8, 1])
    with pytest.raises(InvalidInput):
        outcomes_to_bytes(y1, y2)


def test_pack_unpack_exhaustive():
    for ell in range(2, 9):
        syms = np.arange(2**ell)
        bits = _symbol_bits(syms, ell)
        assert bits.size == syms.size * ell
        assert np.array_equal(_bit_symbols(bits, ell), syms)


def test_unpack_length_check():
    # 2 symbols at ell = 3 take 6 bits, one byte; a blob whose batch-2
    # body lacks that byte is refused
    y1 = Batch1Outcome(np.zeros(2, dtype=np.uint8))
    blob = outcomes_to_bytes(y1, Batch2Outcome(np.array([5, 1]), ell=3))
    with pytest.raises(MalformedResultFile):
        outcomes_from_bytes(blob[:-1])


@settings(max_examples=50)
@given(
    i=st.integers(min_value=1, max_value=2**16),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_eee_random_round_trip(i, seed):
    cb = Codebook(n=2**16, w=20, ell=5)
    rng = np.random.default_rng(seed)
    word = cb.encode_index(i).copy()
    e = int(rng.integers(0, (cb.w - cb.m) // 2 + 1))
    hit = rng.choice(cb.w, size=e, replace=False)
    for pos in hit:
        word[pos] ^= int(rng.integers(1, 32))
    assert cb.decode_errors_and_erasures(word) == i


def _reference_outcome(cb, codewords, word, noisy):
    """Bounded-distance decode of one word by trying every one of the q^m
    messages: the item, or the failure class the decoder must raise."""
    radius = cb.w - cb.m
    clean = word != ERASURE
    f = cb.w - int(clean.sum())
    if f > radius:
        return DecodingFailure if noisy else TooManyErasures
    wrong = np.count_nonzero((codewords != word) & clean, axis=1)
    within = np.nonzero(2 * wrong + f <= radius if noisy else wrong == 0)[0]
    if within.size == 0 or within[0] + 1 > cb.n:  # at most one lies within
        return DecodingFailure if noisy else InconsistentWord
    return int(within[0]) + 1


@functools.lru_cache(maxsize=None)
def _all_codewords(w, m, ell):
    """Row v is the word of message digits base-q(v), by scalar Horner."""
    field, q = get_field(ell), 1 << ell
    out = np.zeros((q**m, w), dtype=np.int64)
    for v, digits in enumerate(itertools.product(range(q), repeat=m)):
        for x in range(w):
            acc = 0
            for d in digits:  # most significant digit first
                acc = field.mul(acc, x) ^ d
            out[v, x] = acc
    return out


@settings(max_examples=150, deadline=None)
@given(
    ell=st.sampled_from([3, 4]),
    n=st.integers(min_value=1, max_value=4096),
    w=st.integers(min_value=2, max_value=15),
    noisy=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_decode_words_matches_brute_force(ell, n, w, noisy, seed):
    # every outcome of the batched decoder, item or failure class, equals a
    # decoder that tries all q^m messages, on words near and far from the code.
    # m = 3 is drawn too: only then can every candidate m-tuple of a word
    # within the radius hold an error, which sends it through Berlekamp-Massey
    n = min(n, (1 << ell) ** 3)
    m = max(1, math.ceil(math.log2(n) / ell))
    w = min(max(w, m), (1 << ell) - 1)
    cb = Codebook(n, w, ell)
    codewords = _all_codewords(w, cb.m, ell)
    rng = np.random.default_rng(seed)
    words = []
    for _ in range(6):
        word = codewords[rng.integers(len(codewords))].copy()  # may lie beyond n
        f = int(rng.integers(0, w + 1))
        e = int(rng.integers(0, w - f + 1))
        hit = rng.permutation(w)
        word[hit[:f]] = ERASURE
        word[hit[f : f + e]] ^= rng.integers(1, cb.q, size=e)
        words.append(word)
    items, errors = cb.decode_words(np.array(words), noisy)
    for word, item, error in zip(words, items, errors):
        want = _reference_outcome(cb, codewords, word, noisy)
        if isinstance(want, int):
            assert (item, error) == (want, None)
        else:
            assert item is None and type(error) is want


def test_decode_words_rows_are_independent(monkeypatch):
    # a batch decodes each row as if it were alone, whatever the other rows'
    # erasure counts and locator degrees are
    cb = Codebook(n=3000, w=15, ell=4)
    assert (cb.m, cb.w - cb.m) == (3, 12)
    rng = np.random.default_rng(8)
    base = cb.encode_index(2024)
    rows = {
        "clean": base.copy(),
        "f=0, 6 errors": base.copy(),
        "f=w-m": base.copy(),
        "all erased": np.full(cb.w, ERASURE),
        "error at 0": base.copy(),
        "error at 0, 4 erasures": base.copy(),
        "7 errors": base.copy(),
        "an error in every tuple": base.copy(),
        "an error in every tuple, 2 erasures": base.copy(),
        "index above n": Codebook(n=4096, w=15, ell=4).encode_index(4000),
        "random": rng.integers(0, cb.q, size=cb.w),
    }
    rows["f=0, 6 errors"][[1, 4, 6, 9, 12, 14]] ^= 5
    rows["f=w-m"][3:] = ERASURE
    rows["error at 0"][0] ^= 1
    rows["error at 0, 4 erasures"][0] ^= 9
    rows["error at 0, 4 erasures"][[2, 5, 7, 11]] = ERASURE
    rows["7 errors"][:7] ^= 3
    # The candidate tuples are (0,1,2), (3,4,5), ...; with 1 and 2 erased
    # they are (0,3,4), (5,6,7), ..., (14,1,2).  No tuple is clean, so only
    # Berlekamp-Massey decodes these rows; the second lies at the radius.
    rows["an error in every tuple"][[0, 3, 6, 9, 12]] ^= 6
    rows["an error in every tuple, 2 erasures"][[1, 2]] = ERASURE
    rows["an error in every tuple, 2 erasures"][[0, 5, 8, 11, 14]] ^= 7
    words = np.array(list(rows.values()))
    for noisy in (False, True):
        items, errors = cb.decode_words(words, noisy)
        outcomes = [item if error is None else type(error) for item, error in zip(items, errors)]
        alone = []
        for word in words:
            (item,), (error,) = cb.decode_words(word[None], noisy)
            alone.append(item if error is None else type(error))
        assert outcomes == alone
        back_items, back_errors = cb.decode_words(words[::-1], noisy)
        assert back_items[::-1] == items
        assert [type(e) for e in back_errors[::-1]] == [type(e) for e in errors]
        # a block size that makes the candidate stage re-encode in many blocks
        with monkeypatch.context() as patch:
            patch.setattr(code, "_BLOCK", 64)
            small_items, small_errors = cb.decode_words(np.tile(words, (3, 1)), noisy)
        assert small_items == items * 3
        assert [type(e) for e in small_errors] == [type(e) for e in errors] * 3
        got = dict(zip(rows, outcomes))
        assert got["clean"] == got["f=w-m"] == 2024
        assert got["all erased"] is (DecodingFailure if noisy else TooManyErasures)
        if noisy:
            assert got["f=0, 6 errors"] == got["error at 0"] == 2024
            assert got["error at 0, 4 erasures"] == 2024
            assert got["an error in every tuple"] == 2024
            assert got["an error in every tuple, 2 erasures"] == 2024
            assert got["index above n"] is DecodingFailure
        else:
            assert got["f=0, 6 errors"] is got["error at 0"] is InconsistentWord
            assert got["an error in every tuple"] is InconsistentWord
            assert got["index above n"] is InconsistentWord


def test_decode_words_validation():
    cb = Codebook(n=100, w=10, ell=4)
    for bad in (np.zeros(10), np.zeros((2, 9)), np.full((1, 10), 16), np.full((1, 10), -2)):
        with pytest.raises(InvalidInput):
            cb.decode_words(bad, noisy=True)
    assert cb.decode_words(np.zeros((0, 10), dtype=np.int64), noisy=True) == ([], [])
