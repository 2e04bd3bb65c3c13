import functools
import hashlib
import itertools
import math
import tracemalloc
from dataclasses import FrozenInstanceError

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
    _pack_symbols,
    _unpack_symbols,
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
    numpy = Codebook(n=np.int64(100), w=np.int32(10), ell=np.uint8(4))
    assert numpy.m == cb.m
    assert np.array_equal(numpy.encode_index(100), cb.encode_index(100))


@pytest.mark.parametrize("n, w, ell", [(100.5, 10, 4), (True, 10, 4), ("7", 10, 4),
                                      (100, 10.0, 4), (100, 10, "4"), (0, 10, 4),
                                      (100, 0, 4), (100, 10, -1)])
def test_codebook_refuses_a_shape_that_is_not_a_positive_integer(n, w, ell):
    # a float n used to build, and encode_index(100) then ran on n = 100.5
    with pytest.raises(InvalidInput):
        Codebook(n, w, ell)


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


def _stream_bits(symbols, ell):
    """The first len(symbols) * ell bits of their packed batch-2 stream."""
    body = np.frombuffer(_pack_symbols(np.asarray(symbols, dtype=np.int64), ell), np.uint8)
    return np.unpackbits(body, count=len(symbols) * ell, bitorder="little")


def test_symbol_pack_example():
    assert _stream_bits([5], ell=3).tolist() == [1, 0, 1]


def test_symbol_pack_block():
    bits = _stream_bits([5, 1], ell=3)
    assert bits.tolist() == [1, 0, 1, 1, 0, 0]


def test_symbol_pack_range_check():
    # a symbol past 2^ell can reach the packer neither by assignment nor by
    # an edit in place
    y1 = Batch1Outcome(np.zeros(2, dtype=np.uint8))
    y2 = Batch2Outcome(np.array([5, 1]), ell=3)
    with pytest.raises(FrozenInstanceError):
        y2.symbols = np.array([8, 1])
    with pytest.raises(ValueError, match="read-only"):
        y2.symbols[0] = 8
    with pytest.raises(InvalidInput):
        Batch2Outcome(np.array([8, 1]), ell=3)
    assert outcomes_to_bytes(y1, y2)[-1] == 0b001101


def test_pack_unpack_exhaustive():
    for ell in range(2, 9):
        syms = np.arange(2**ell)
        body = np.frombuffer(_pack_symbols(syms, ell), np.uint8)
        assert body.size == (syms.size * ell + 7) // 8
        assert np.array_equal(_unpack_symbols(body, syms.size, ell), syms)


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


@pytest.mark.parametrize(
    "decode",
    [
        lambda cb, word: cb.decode_words(word[None], noisy=False)[0][0],
        lambda cb, word: cb.decode_words(word[None], noisy=True)[0][0],
        lambda cb, word: cb.decode_erasures(word),
        lambda cb, word: cb.decode_errors_and_erasures(word),
    ],
    ids=["words-noiseless", "words-noisy", "erasures", "errors-and-erasures"],
)
@pytest.mark.parametrize("shift", [0.4, 0.0], ids=["fraction", "whole"])
def test_decode_words_refuses_non_integer_symbols(decode, shift):
    # a float word was cast to int64: 4.4 read as 4, so the word decoded to item 5
    cb = Codebook(n=100, w=10, ell=4)
    word = cb.encode_index(5)
    word[:2] = ERASURE
    assert decode(cb, word) == 5
    word = word.astype(float)
    word[2] += shift
    with pytest.raises(InvalidInput):
        decode(cb, word)


def test_decode_words_tries_later_tuples_only_for_rows_round_one_leaves(monkeypatch):
    # at w // m = 127 tuples there are _TUPLES candidates per noisy row, tried
    # in two rounds: the first _ROUND for every row, the rest for the rows
    # that round 1 leaves.  Berlekamp-Massey sees only what both rounds leave.
    cb = Codebook(n=2**20, w=381, ell=9)
    assert (cb.m, cb.w - cb.m) == (3, 378)
    assert code._ROUND < code._TUPLES <= cb.w // cb.m
    base = cb.encode_index(777_777)
    clean, round_two, only_bm = base.copy(), base.copy(), base.copy()
    # Tuple t is positions (3t, 3t+1, 3t+2): one error in each of the first
    # _ROUND tuples leaves tuple _ROUND clean; one in each of the _TUPLES
    # tuples leaves none, though 2 * 32 errors lie well inside the radius.
    round_two[np.arange(code._ROUND) * cb.m] ^= 5
    only_bm[np.arange(code._TUPLES) * cb.m + 1] ^= 11
    fits, located = [], []
    fit, locate = Codebook._fit, Codebook._locate_errors

    def spy_fit(self, received, erased, n_erased, keep, noisy):
        fits.append(keep.shape[:2])
        return fit(self, received, erased, n_erased, keep, noisy)

    def spy_locate(self, received, erased, n_erased):
        located.append(received.copy())
        return locate(self, received, erased, n_erased)

    monkeypatch.setattr(Codebook, "_fit", spy_fit)
    monkeypatch.setattr(Codebook, "_locate_errors", spy_locate)
    items, errors = cb.decode_words(np.array([clean, round_two, only_bm]), noisy=True)
    assert items == [777_777] * 3 and errors == [None] * 3
    rest = code._TUPLES - code._ROUND
    # round 1, round 2 on two rows, then the interpolation after BM on one
    assert fits == [(3, code._ROUND), (2, rest), (1, 1)]
    assert len(located) == 1 and np.array_equal(located[0][0], only_bm)
    # noiseless, a row has one tuple and one round, and never reaches BM
    fits.clear()
    items, errors = cb.decode_words(np.array([clean, round_two]), noisy=False)
    assert items == [777_777, None] and type(errors[1]) is InconsistentWord
    assert fits == [(2, 1)] and len(located) == 1


@pytest.mark.parametrize("n, w, ell", [(2**16, 12, 4), (2**14, 30, 5), (2**20, 381, 9)])
def test_locate_errors_finds_exactly_the_errata_within_the_radius(n, w, ell):
    # with 2e + f <= w - m the errata locator's roots are the erased and the
    # wrong symbols and no others, in every row of a batch
    cb = Codebook(n, w, ell)
    radius = cb.w - cb.m
    rng = np.random.default_rng(w)
    rows = 20
    received = np.array([cb.encode_index(int(i)) for i in rng.integers(1, cb.n + 1, size=rows)])
    erased = np.zeros((rows, cb.w), dtype=bool)
    errata = np.zeros((rows, cb.w), dtype=bool)
    for r in range(rows):
        f = int(rng.integers(0, radius + 1))
        e = int(rng.integers(0, (radius - f) // 2 + 1))
        hit = rng.choice(cb.w, size=f + e, replace=False)
        received[r, hit[f:]] ^= rng.integers(1, cb.q, size=e)
        received[r, hit[:f]] = 0
        erased[r, hit[:f]] = errata[r, hit] = True
    roots = cb._locate_errors(received, erased, erased.sum(axis=1))
    assert np.array_equal(roots | erased, errata)


def test_errata_stage_keeps_no_table_on_the_codebook(monkeypatch):
    # A row that only Berlekamp-Massey decodes leaves at most the w weights
    # v_j on the codebook: no (w - m) x w table of parity checks or powers,
    # 2.3 MB at w = 381.
    cb = Codebook(n=2**20, w=381, ell=9)
    word = cb.encode_index(777_777)
    word[np.arange(code._TUPLES) * cb.m + 1] ^= 11  # no candidate tuple is clean
    located = []
    locate = Codebook._locate_errors

    def spy_locate(self, *args):
        located.append(len(args[0]))
        return locate(self, *args)

    monkeypatch.setattr(Codebook, "_locate_errors", spy_locate)
    before = set(vars(cb))
    assert cb.decode_words(word[None], noisy=True) == ([777_777], [None])
    assert located == [1]
    for name, value in vars(cb).items():
        if name not in before:
            for array in value if isinstance(value, tuple) else (value,):
                assert np.size(array) <= cb.w, name


def _errata_rows(cb, seed, count=30):
    """Seeded (received, erased, f) rows for the errata stage: a third within
    the radius, a third beyond it, and a third the OR of two codewords (two
    defectives on one string), each with f erasures."""
    rng = np.random.default_rng(seed)
    radius = cb.w - cb.m
    for i in range(count):
        word = cb.encode_index(int(rng.integers(1, cb.n + 1)))
        f = int(rng.integers(0, radius + 1))
        if i % 3 == 0:
            e = int(rng.integers(0, (radius - f) // 2 + 1))
        elif i % 3 == 1:
            e = cb.w - f
        else:
            word |= cb.encode_index(int(rng.integers(1, cb.n + 1)))
            e = 0
        at = rng.permutation(cb.w)
        word[at[f:f + e]] ^= rng.integers(1, cb.q, size=e)
        erased = np.zeros(cb.w, dtype=bool)
        erased[at[:f]] = True
        word[erased] = 0
        yield word, erased, f


@pytest.mark.parametrize("n, w, ell, sha256", [
    (2**16, 12, 4, "05f9918967e9816e3bc945485d92d18f1f00fb0f8816c3b1058cde86d39b3dfa"),
    (2**14, 30, 5, "307499cfca60d7125167271166327dcc90251a93277953b04651b32920871948"),
    (2**20, 381, 9, "1cfbd597d65a3bef26638eed4c9e90bdc2a51c57f477efecae782fa407b3cf02"),
])
def test_errata_roots_and_weights_are_pinned(n, w, ell, sha256):
    # The weights v_j and the roots of 30 rows, as the errata stage found
    # them when it held (w, w) and (w, w - m + 1) int64 tables.
    cb = Codebook(n, w, ell)
    digest = hashlib.sha256(cb._weights.astype("<i8").tobytes())
    for row in _errata_rows(cb, w):
        digest.update(np.packbits(cb._errata_roots(*row)).tobytes())
    assert digest.hexdigest() == sha256


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_errata_stage_holds_its_tables_a_block_at_a_time():
    # At w = 381 the (w, w) differences of the weights and the (w, w - m + 1)
    # powers of a row were 2.2 and 2.5 MB of int64 tables.
    cb = Codebook(n=2**20, w=381, ell=9)
    assert _traced_peak(lambda: cb._weights) < 0.75 * 2**20
    for row in _errata_rows(cb, 1, count=6):
        assert _traced_peak(lambda: cb._errata_roots(*row)) < 1.0 * 2**20


@pytest.mark.parametrize("n, w, ell", [(2**20, 381, 9), (2**16, 259, 9), (2**12, 30, 5)])
def test_decode_words_in_two_rounds_matches_one_round(monkeypatch, n, w, ell):
    # Trying every tuple in one round, as the decoder did before the rounds,
    # gives the same item or error type on every row: words with an error in
    # each of their first j tuples (so that round 1, round 2 or only
    # Berlekamp-Massey fits them) and more errors inside or beyond the
    # radius, ORs of two codewords, and random words.
    cb = Codebook(n, w, ell)
    tuples = min(code._TUPLES, cb.w // cb.m)
    assert code._ROUND < tuples
    rng = np.random.default_rng(w)
    words = []
    for row in range(120):
        word = cb.encode_index(int(rng.integers(1, n + 1))).copy()
        if row % 6 == 0:
            word |= cb.encode_index(int(rng.integers(1, n + 1)))
        elif row % 6 == 1:
            word = rng.integers(0, cb.q, size=w)
        word[rng.random(w) < rng.uniform(0.0, 0.3)] = ERASURE
        # Tuple t holds the unerased positions t*m .. t*m + m - 1.
        unerased = np.nonzero(word != ERASURE)[0]
        j = min(int(rng.choice([rng.integers(code._ROUND), rng.integers(code._ROUND, tuples),
                                tuples])), len(unerased) // cb.m)
        wrong = rng.random(w) < rng.uniform(0.0, 0.3)
        wrong[unerased[np.arange(j) * cb.m]] = True
        wrong &= word != ERASURE
        word[wrong] ^= rng.integers(1, cb.q, size=int(wrong.sum()))
        words.append(word)
    words = np.array(words)

    fitted, fit = [], Codebook._fit

    def spy_fit(self, received, erased, n_erased, keep, noisy):
        msg, ok = fit(self, received, erased, n_erased, keep, noisy)
        fitted.append(int(ok.any(axis=1).sum()))
        return msg, ok

    def outcomes():
        fitted.clear()
        items, errors = cb.decode_words(words, noisy=True)
        return [item if error is None else type(error) for item, error in zip(items, errors)]

    monkeypatch.setattr(Codebook, "_fit", spy_fit)
    two_rounds = outcomes()
    # rows decoded in round 1, in round 2 and after BM, and rows that fail
    assert len(fitted) == 3 and min(fitted) > 0
    assert DecodingFailure in two_rounds
    monkeypatch.setattr(code, "_ROUND", code._TUPLES)
    assert outcomes() == two_rounds
    assert len(fitted) == 2


@pytest.mark.parametrize("w", [2, 3, 127, 128, 129, 381, 497, 4096, 8191])
def test_first_unset_matches_a_stable_argsort(w):
    # the decoder's positions of unerased symbols first, then erased ones,
    # with rows that hold fewer unset positions than count
    rng = np.random.default_rng(w)
    rows = 12
    mask = rng.random((rows, w)) < rng.uniform(0.0, 1.0, size=(rows, 1))
    mask[0], mask[1] = True, False
    for count in sorted({1, min(3, w), w // 2 + 1, w}):
        want = np.argsort(mask, axis=1, kind="stable")[:, :count]
        assert np.array_equal(code._first_unset(mask, count), want)
        assert np.array_equal(code._first_unset(mask[:0], count), want[:0])
