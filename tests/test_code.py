import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bitmix.code import ERASURE, Codebook, symbol_pack, symbol_unpack
from bitmix.errors import (
    DecodingFailure,
    InconsistentWord,
    IndexOutOfRange,
    InvalidInput,
    TooManyErasures,
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
    for _ in range(200):
        i = int(rng.integers(1, cb.n + 1))
        word = cb.encode_index(i).copy()
        f = int(rng.integers(0, cb.w - cb.m + 1))
        drop = rng.choice(cb.w, size=f, replace=False)
        word[drop] = ERASURE
        assert cb.decode_erasures(word) == i


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


def test_symbol_pack_example():
    assert symbol_pack(5, ell=3).tolist() == [1, 0, 1]


def test_symbol_pack_block():
    bits = symbol_pack(np.array([5, 1]), ell=3)
    assert bits.tolist() == [1, 0, 1, 1, 0, 0]


def test_symbol_pack_range_check():
    with pytest.raises(InvalidInput):
        symbol_pack(8, ell=3)


def test_pack_unpack_exhaustive():
    for ell in range(2, 9):
        syms = np.arange(2**ell)
        back = symbol_unpack(symbol_pack(syms, ell), ell)
        assert np.array_equal(back, syms)


def test_unpack_length_check():
    with pytest.raises(InvalidInput):
        symbol_unpack(np.zeros(7, dtype=np.uint8), ell=3)


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
